"""Bit-flip error model for uncertainty-limited joint measurements.

Measurement unsharpness is equivalent to independent random sign flips of
the four outcome values at rate (1 - V)/2 per observable.  From that model:
outcome-wise probabilities of flipping the b-value, intrinsic (possibly
negative) probabilities, the minimal error probability compatible with a
given Bell violation, the linear law of observed against flip probabilities,
the least-squares estimator of |<B>| built on it, and the sweep file format.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .core import CIRELSON_BOUND, VisibilityPair, _frozen, _left_sum, unit_circle_grid
from .sim import ALL_OUTCOMES, SIGN_COLUMNS, JointDistribution, Outcome, QuasiDistribution, b_value
from .sim import MAX_COUNT, SweepGrid, _check_angle_totals, _check_probabilities

#: Outcomes whose flip probability dips lowest over the trade-off range:
#: the first two bottom out at theta = 22.5 deg, the last two at 67.5 deg.
MINIMAL_OUTCOMES: tuple[Outcome, ...] = (
    Outcome(1, 1, 1, -1),
    Outcome(-1, -1, -1, 1),
    Outcome(-1, 1, 1, 1),
    Outcome(1, -1, -1, -1),
)
#: Columns of the minimal outcomes in (n, 16) arrays ordered as ALL_OUTCOMES.
MINIMAL_COLUMNS = [ALL_OUTCOMES.index(m) for m in MINIMAL_OUTCOMES]


def pbflip_outcome(
    outcome: Outcome, vis_a: VisibilityPair, vis_b: VisibilityPair
) -> float:
    """Probability that independent sign flips change the b-value of
    ``outcome``: 1/2 - b(m) b(m o V) / 8.

    The flipped b is always +2 or -2, and a flip at rate (1 - V)/2 scales
    the mean of each sign by V, so the mean flipped b is the b-value of the
    outcome with every sign scaled by its visibility, m o V.  ``outcome`` may
    also be four sign arrays, the columns of a stack of outcomes, which gives
    one value per outcome in an array; visibility arrays broadcast against them.
    """
    vis_a.require_uncertainty_bound()
    vis_b.require_uncertainty_bound()
    scales = (vis_a.vx, vis_a.vy, vis_b.vx, vis_b.vy)
    mean_flipped = b_value(tuple(s * v for s, v in zip(outcome, scales)))
    return 0.5 - b_value(outcome) * mean_flipped / 8.0


def pbflip_grid(thetas: Sequence[float]) -> np.ndarray:
    """``pbflip_outcome`` of all sixteen outcomes at theta_A = theta_B = theta, one call for
    n angles: an (n, 16) array with columns in ALL_OUTCOMES order."""
    v = VisibilityPair(*unit_circle_grid(thetas)[..., None])
    return pbflip_outcome(SIGN_COLUMNS, v, v)


def intrinsic_probs(bell_magnitude: float) -> tuple[float, float]:
    """Intrinsic probabilities ((1 + |B|/2)/16, (1 - |B|/2)/16).

    The low value is negative whenever |B| > 2, which is exactly the regime
    of Bell-inequality violation.
    """
    if not 0.0 <= bell_magnitude <= CIRELSON_BOUND + 1e-12:
        raise ValueError(
            f"Bell magnitude must lie in [0, 2*sqrt(2)], got {bell_magnitude}"
        )
    high = (1.0 + bell_magnitude / 2.0) / 16.0
    low = (1.0 - bell_magnitude / 2.0) / 16.0
    return high, low


def cirelson_floor(bell_magnitude: float) -> float:
    """Minimal flip probability (|B| - 2) / (2 |B|) that keeps every
    observed probability non-negative; zero when the inequality is not
    violated."""
    if bell_magnitude <= 0.0:
        raise ValueError(f"Bell magnitude must be positive, got {bell_magnitude}")
    return max(0.0, (bell_magnitude - 2.0) / (2.0 * bell_magnitude))


def predicted_probability(bell_magnitude: float, p_bflip: float) -> float:
    """Linear law (|B| * p_bflip - (|B| - 2)/2) / 16 for the observed
    probability of a b = +2 outcome; negative below the Cirel'son floor."""
    return (bell_magnitude * p_bflip - (bell_magnitude - 2.0) / 2.0) / 16.0


def flip_convolve(
    quasi: QuasiDistribution, vis_a: VisibilityPair, vis_b: VisibilityPair
) -> JointDistribution:
    """Convolve an intrinsic quasi-distribution with independent sign flips.

    With both pairs on the uncertainty circle this reproduces the joint
    measurement at the corresponding trade-off angles exactly; all-ones
    visibilities give the identity (no flips).  Visibility pairs are not
    gated here: a pair outside the circle simply fails the non-negativity
    invariant of the returned distribution when the state violates a Bell
    inequality strongly enough.  As in ``pbflip_outcome``, the pairs may also
    hold (n,) arrays: the result is then an (n, 16) array of checked probability
    rows, row i exactly the call with the i-th pairs.
    """
    visibilities = np.broadcast_arrays(vis_a.vx, vis_a.vy, vis_b.vx, vis_b.vy)
    rates = (1.0 - np.array(visibilities, dtype=float)) / 2.0
    # The four flip matrices [[1 - r, r], [r, 1 - r]] on the last two axes.
    flips = np.stack([1.0 - rates, rates, rates, 1.0 - rates], axis=-1)
    flips = flips.reshape(rates.shape + (2, 2))
    # Sign index 0 is +1 and 1 is -1 on every axis (canonical outcome order).
    p = np.einsum("...ai,...bj,...ck,...dl,ijkl->...abcd", *flips, quasi.values.reshape(2, 2, 2, 2))
    p = p.reshape(p.shape[:-4] + (16,))
    if p.ndim == 1:
        return JointDistribution(p)
    _check_probabilities(p)
    return _frozen(p)


class FitResult(NamedTuple):
    """Straight-line fit of observed probability against flip probability."""

    slope: float
    intercept: float
    slope_std_err: float
    intercept_std_err: float

    @property
    def bell_magnitude(self) -> float:
        return 16.0 * self.slope

    @property
    def bell_magnitude_std_err(self) -> float:
        return 16.0 * self.slope_std_err


def fit_bell_magnitude(
    x: Sequence[float], y: Sequence[float], std_err: Sequence[float] | None = None
) -> FitResult:
    """Least-squares line through the points (x[i], y[i]): observed probability ``y``
    against flip probability ``x``, three equal-length columns (lists or 1-D arrays).

    With ``std_err`` the fit is inverse-variance weighted and the parameter errors treat
    the given uncertainties as absolute; without it the parameter errors are scaled by the
    residual variance (zero for points exactly on a line).  Sums run left to right and both
    squares are float ``**``, so results equal the scalar per-point fit bit for bit.
    """
    xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    sigmas = None if std_err is None else np.asarray(std_err, dtype=float)
    n = len(xs)
    if len(ys) != n or (sigmas is not None and len(sigmas) != n):
        raise ValueError("x, y and std_err must have equal lengths")
    # Float overflow gives inf (or nan) here as in Python arithmetic, and the checks catch it.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("fit points must be finite")
        # Relative guard: abscissae equal up to float dust are degenerate too.
        if n < 2 or xs.max() - xs.min() <= 1e-12 * max(1.0, np.abs(xs).max()):
            raise ValueError("fit requires at least two points with distinct abscissae")
        if sigmas is None:
            weights = np.ones(n)
        else:
            if not (np.isfinite(sigmas).all() and (sigmas > 0).all()):
                raise ValueError("standard errors must be positive and finite")
            weights = 1.0 / (sigmas * sigmas)
            if not ((0 < weights) & (weights < math.inf)).all():
                raise ValueError("weights 1/std_err**2 must be positive and finite")
        try:
            sw = _left_sum(weights)
            x_bar = _left_sum(weights * xs) / sw
            y_bar = _left_sum(weights * ys) / sw
            # Both squares stay float ``**`` (libm pow): np.power and d * d differ in the last
            # bit of some doubles, and the pinned fit.json bytes depend on it.
            dx = xs - x_bar
            stt = _left_sum(weights * [d ** 2 for d in dx.tolist()])
            if stt <= 0:
                raise ValueError("fit requires at least two points with distinct abscissae")
            slope = _left_sum(weights * dx * ys) / stt
            intercept = y_bar - slope * x_bar

            var_slope = 1.0 / stt
            var_intercept = 1.0 / sw + x_bar * x_bar / stt
            if sigmas is None:
                # Unweighted: scale by residual variance (unbiased, n - 2 dof).
                ssr = _left_sum([r ** 2 for r in (ys - intercept - slope * xs).tolist()])
                scale = ssr / (n - 2) if n > 2 else 0.0
                var_slope *= scale
                var_intercept *= scale
        except OverflowError:  # a square beyond the float range
            slope = intercept = var_slope = var_intercept = math.inf
    if not all(map(math.isfinite, (slope, intercept, var_slope, var_intercept))):
        raise ValueError("fit is not finite: the points are beyond the float range")
    return FitResult(
        slope=slope,
        intercept=intercept,
        slope_std_err=math.sqrt(var_slope),
        intercept_std_err=math.sqrt(var_intercept),
    )


def fit_sweep(grid: SweepGrid, rows: bool = False) -> FitResult:
    """``fit_bell_magnitude`` of a sweep's minimal outcomes in file order: their flip
    probabilities, ``pbflip_grid`` of the angles, against ``p_theory`` for an exact ``grid`` or
    ``p_obs`` weighted by ``std_err`` for a sampled one.  A point with 0 counts, so a std_err of
    0, raises a ValueError naming the first in file order; ``rows`` adds its sweep-file row."""
    minimal = sorted(MINIMAL_COLUMNS)  # file order
    if grid.counts is not None and not grid.counts[:, minimal].all():
        i, j = divmod(int(grid.counts[:, minimal].argmin()), len(minimal))
        row = f"data row {16 * i + minimal[j] + 1}: " if rows else ""
        raise ValueError(f"{row}outcome {ALL_OUTCOMES[minimal[j]].label()} at theta_deg "
                         f"{grid.thetas[i]!r} has 0 counts, so its std_err is 0")
    y = (grid.p_theory,) if grid.counts is None else (grid.p_obs, grid.std_err)
    return fit_bell_magnitude(*(c[:, minimal].ravel() for c in (pbflip_grid(grid.thetas), *y)))


#: Header of the sweep-file format (written by ``sweep``, read by ``fit``); sixteen rows per
#: angle follow in ALL_OUTCOMES order, with blank counts in an exact sweep.
_SWEEP_COLUMNS = (
    "theta_deg", "x_a", "y_a", "x_b", "y_b", "b", "p_theory", "p_bflip", "counts",
)
#: The sign and b fields of a sweep's sixteen rows per angle, in ALL_OUTCOMES order.
_OUTCOME_FIELDS = [",".join(map(str, (*m, b_value(m)))) for m in ALL_OUTCOMES]
_THETA_CHARS = 32  # width of ``read_sweep``'s theta_deg text, which a repr (24 at most) fits
_SWEEP_ROW = np.dtype([("theta_deg", f"U{_THETA_CHARS}"), ("fields", float, (5,))])


def _distinct_reprs(values: np.ndarray) -> list[str]:
    """The repr of each raveled value, formatted once per bit pattern: sweeps repeat many."""
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    reprs = list(map(repr, keys.view(np.float64).tolist()))
    return [reprs[k] for k in inverse.tolist()]


def write_sweep(fh: TextIO, grid: SweepGrid) -> None:
    """Write ``grid``, which must have ``p_theory``, to ``fh`` as a sweep file with its derived
    column ``p_bflip``, ``pbflip_grid(grid.thetas)``: a theta outside [0, 90] writes nothing."""
    if grid.p_theory is None:
        raise ValueError("cannot write a sweep without p_theory: the grid is a sampled sweep "
                         "read back by read_sweep, which does not read that column")
    p_bflip = pbflip_grid(grid.thetas)
    # No field needs CSV quoting, and numbers are written as their repr, as ``csv`` writes them.
    counts = ([""] * grid.p_theory.size if grid.counts is None
              else map(repr, grid.counts.ravel().tolist()))
    cells = [[f"{t},{o}" for t in map(repr, grid.thetas) for o in _OUTCOME_FIELDS],
             _distinct_reprs(grid.p_theory), _distinct_reprs(p_bflip), counts]
    fh.write("\n".join([",".join(_SWEEP_COLUMNS), *map(",".join, zip(*cells))]) + "\n")


def _is_number(field: str) -> bool:
    """Whether ``np.loadtxt`` reads ``field`` as a float: ``float``'s grammar without the
    underscores and non-ASCII digits that only ``float`` accepts."""
    try:
        float(field)
    except ValueError:
        return False
    return field.isascii() and "_" not in field


def _unreadable_row(lines, columns: dict[str, int]) -> str | None:
    """Name the first of ``lines``, a sweep file's data rows with or without their ``"\\n"``,
    that ``np.loadtxt`` cannot read: a field of ``columns`` (name: index) missing or not a number.
    Rows count from 1 with blank lines skipped, as ``np.loadtxt`` and ``read_sweep`` count."""
    rows = (line.rstrip("\n").split(",") for line in lines if line not in ("", "\n"))
    for r, fields in enumerate(rows, start=1):
        for name, i in columns.items():
            if i >= len(fields):
                return f"data row {r}: has {len(fields)} fields, so no {name}"
            if name == "counts" and fields[i] == "":
                return f"data row {r}: blank counts: the file mixes sampled and exact rows"
            if not _is_number(fields[i]):
                return f"data row {r}: {name} must be a number, got {fields[i]!r}"
    return None


def _parse_runs(text: np.ndarray) -> np.ndarray:
    """The (N,) theta_deg texts as floats, each run of equal text checked and parsed once."""
    starts = np.flatnonzero(np.concatenate(([True], text[1:] != text[:-1])))
    fields = text[starts].tolist()
    for row, field in zip(starts.tolist(), fields):
        if len(field) == _THETA_CHARS or not _is_number(field):  # a full field may be cut short
            raise ValueError(f"data row {row + 1}: theta_deg must be a number of at most "
                             f"{_THETA_CHARS - 1} characters")
    return np.repeat(list(map(float, fields)), np.diff(starts, append=len(text)))


def read_sweep(path) -> SweepGrid:
    """The sweep file at ``path`` as a ``SweepGrid``, each theta in [0, 90] degrees.

    The file is read once, front to back, so ``path`` may be a pipe, and split into lines at
    ``"\\n"`` alone.  One ``np.loadtxt`` pass reads the columns, found by name in the header:
    ``theta_deg`` as text, parsed once per run of equal text (a field that fills 32 characters
    may be cut short, so it is rejected), and the signs and ``counts`` (a sampled sweep, whose
    first data row has a count) or ``p_theory`` (an exact sweep) as floats.  No other column is
    read: ``p_bflip`` is ``pbflip_grid`` of theta, eleven-column files of earlier versions read
    the same, and a sampled sweep has ``p_theory`` None, as parsing it would double the cost."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    header, *lines = text.split("\n")
    column = {name: i for i, name in enumerate(header.split(","))}
    missing = [c for c in _SWEEP_COLUMNS[:8] if c not in column]
    if missing:
        raise ValueError(f"missing columns {missing}")
    lines = lines[next((i for i, line in enumerate(lines) if line), len(lines)):]
    if not lines:
        raise ValueError("holds no data rows")
    at = column.get("counts")
    fields = lines[0].split(",")
    sampled = at is not None and at < len(fields) and fields[at] != ""
    names = (*_SWEEP_COLUMNS[:5], "counts" if sampled else "p_theory")
    usecols = [column[name] for name in names]
    try:
        rows = np.loadtxt(lines, _SWEEP_ROW, delimiter=",", comments=None, ndmin=1,
                          usecols=usecols, encoding="utf-8")
        table = np.column_stack((_parse_runs(rows["theta_deg"]), rows["fields"]))
    except ValueError:
        if bad := _unreadable_row(lines, dict(zip(names, usecols))):
            raise ValueError(bad) from None
        raise
    # The text dtype drops trailing NULs: theta_deg "45.0\x00" has read as 45.0.
    if "\x00" in text and (bad := _unreadable_row(lines, dict(zip(names, usecols)))):
        raise ValueError(bad)
    if len(table) % 16:
        raise ValueError(f"has {len(table)} data rows, not sixteen per angle")
    bad = ~np.isfinite(table)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        value = table[i, j].item()
        raise ValueError(f"data row {i + 1}: {names[j]} must be finite, got {value!r}")
    angles = table.reshape(-1, 16, 6)
    thetas = angles[:, 0, 0]
    bad = (angles[..., 0] != thetas[:, None]) | (angles[..., 1:5] != SIGN_COLUMNS.T).any(axis=2)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"data row {i + 1} must be outcome {ALL_OUTCOMES[i % 16].label()} at "
                         f"theta_deg {thetas[i // 16].item()!r}: sixteen rows per angle in order")
    bad = (thetas < 0.0) | (thetas > 90.0)  # theta feeds pbflip_grid
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"data row {16 * i + 1}: theta_deg must lie in [0, 90], got {thetas[i]}")
    values = angles[..., 5]
    if not sampled:
        return SweepGrid(tuple(thetas.tolist()), _frozen(values))
    bad = ~((values >= 0) & (values % 1 == 0) & (values <= MAX_COUNT))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"data row {i + 1}: count must be an integer in [0, 2**53], "
                         f"got {values.flat[i].item()!r}")
    counts = values.astype(np.int64)
    _check_angle_totals(thetas, counts)
    return SweepGrid(tuple(thetas.tolist()), None, _frozen(counts))
