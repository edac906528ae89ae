"""Sixteen-outcome joint measurement statistics for entangled photon pairs.

Joint and intrinsic (quasi-)distributions, b-value aggregation, Poisson
coincidence-count simulation, remotely prepared conditional states,
visibility extraction, and the plain-text count-table format.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .core import (
    OBSERVABLE_ANGLES,
    OUTCOME_SIGNS,
    Side,
    TwoQubitState,
    _Checked,
    _ELEMENT_SIGNS,
    _check_side,
    _frozen,
    _left_sum,
    build_joint_povm,
    partial_trace,
    povm_elements,
    projector,
    side_observables,
)

PROB_TOL = 1e-12
NORMALIZATION_TOL = 1e-10

#: Largest count a table holds: every integer up to 2**53 is exact as a float.
MAX_COUNT = 2**53
#: Largest sampling mean_total; Poisson draws stay far below MAX_COUNT.
MAX_MEAN_TOTAL = 2.0**52


class Outcome(NamedTuple):
    """One coincidence outcome: the four signs (x_A, y_A; x_B, y_B)."""

    x_a: int
    y_a: int
    x_b: int
    y_b: int

    def label(self) -> str:
        s = {1: "+", -1: "-"}
        return f"({s[self.x_a]},{s[self.y_a]};{s[self.x_b]},{s[self.y_b]})"


#: The sixteen outcomes in canonical order (x_A slowest, +1 before -1).
ALL_OUTCOMES = tuple(Outcome(*a, *b) for a in OUTCOME_SIGNS for b in OUTCOME_SIGNS)
#: The signs x_A, y_A, x_B and y_B of the sixteen outcomes as the rows of a read-only (4, 16)
#: array: row k is sign k of every outcome, in ALL_OUTCOMES order.
SIGN_COLUMNS = _frozen(np.transpose(ALL_OUTCOMES))


def b_value(outcome: Outcome) -> int:
    """CHSH x_A x_B - x_A y_B + y_A x_B + y_A y_B: +2 or -2, or the mean b of mean signs."""
    xa, ya, xb, yb = outcome
    return xa * xb - xa * yb + ya * xb + ya * yb


#: Columns of the b = +2 and of the b = -2 outcomes in ALL_OUTCOMES order.
B_COLUMNS: dict[int, list[int]] = {
    b: [i for i, m in enumerate(ALL_OUTCOMES) if b_value(m) == b] for b in (2, -2)
}


def _require(ok: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise a ValueError naming the first outcome where ``ok`` is False: ``message`` with
    ``{m}`` replaced by the outcome's label and ``{v}`` by its entry of ``values``."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(message.format(m=ALL_OUTCOMES[i].label(), v=values.tolist()[i]))


def _outcome_array(values) -> np.ndarray:
    """``values`` as a (16,) array in ALL_OUTCOMES order, with every float entry finite.
    Integers beyond the int64 range give an object array of Python ints, which are finite."""
    a = np.asarray(values)
    if a.shape != (16,):
        raise ValueError("distribution must assign a value to each of the 16 outcomes")
    if a.dtype.kind == "f":
        _require(np.isfinite(a), a, "value of outcome {m} is {v!r}, not a finite number")
    return a


def _check_probabilities(p: np.ndarray) -> None:
    """Every row of an (n, 16) array must be non-negative and sum to one."""
    low = p.min(initial=0.0)
    if low < -PROB_TOL:
        raise ValueError(f"negative outcome probability {low:.3e}")
    totals = p.sum(axis=1)
    off = ~(np.abs(totals - 1.0) <= NORMALIZATION_TOL)
    if off.any():
        raise ValueError(f"probabilities sum to {totals[off][0].item()!r}, expected 1")


class JointDistribution(_Checked, NamedTuple("JointDistribution", [("probs", np.ndarray)])):
    """Probabilities of the sixteen joint outcomes at given trade-off angles, held as a
    read-only (16,) float array in ALL_OUTCOMES order."""

    __slots__ = ()

    def __new__(cls, probs: np.ndarray) -> JointDistribution:
        probs = _frozen(_outcome_array(probs).astype(float))
        _check_probabilities(probs[None])
        return super().__new__(cls, probs)


class QuasiDistribution(_Checked, NamedTuple("QuasiDistribution", [("values", np.ndarray)])):
    """Signed quasi-probabilities of the sixteen outcomes, held as a read-only (16,)
    float array in ALL_OUTCOMES order; sums to one."""

    __slots__ = ()

    def __new__(cls, values: np.ndarray) -> QuasiDistribution:
        values = _frozen(_outcome_array(values).astype(float))
        total = values.sum().item()
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"quasi-probabilities sum to {total!r}, expected 1")
        return super().__new__(cls, values)


class BAggregate(NamedTuple):
    """Probabilities of b = +2 / b = -2 and the resulting mean b-value."""

    p_plus: float
    p_minus: float
    mean_b: float


class VisibilityEstimate(NamedTuple):
    """Visibility pair extracted from simulated joint measurements; floats, or (n,) arrays
    when ``joint_visibilities`` measures n angles."""

    vx: float
    vy: float
    radius: float


class CountTable(
    _Checked, NamedTuple("CountTable", [("counts", np.ndarray), ("duration_s", float | None)])
):
    """Non-negative coincidence counts of the sixteen outcomes, held as a read-only (16,)
    int64 array in ALL_OUTCOMES order, optionally with the accumulation time in seconds."""

    __slots__ = ()

    def __new__(cls, counts: np.ndarray, duration_s: float | None = None) -> CountTable:
        counts = _outcome_array(counts)
        if duration_s is not None and not 0.0 <= duration_s < math.inf:
            raise ValueError(f"duration_s must be finite and non-negative, got {duration_s!r}")
        # Checked before the int64 conversion, which a count above 2**63 would overflow.
        whole = (counts >= 0) & (counts % 1 == 0)
        _require(whole, counts, "count for {m} must be a non-negative integer, got {v!r}")
        _require(counts <= MAX_COUNT, counts, "count for {m} exceeds 2**53")
        return super().__new__(cls, _frozen(counts.astype(np.int64)), duration_s)

    def total(self) -> int:
        return int(self.counts.sum())


def _outcome_probabilities(e_a: np.ndarray, e_b: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """p[n, m] = tr[(E_A[n, x_A, y_A] (x) E_B[n, x_B, y_B]) rho] for all sixteen outcomes
    at each of n setting pairs: one contraction over the (n, 4, 2, 2) element stacks of
    each side, giving an (n, 16) array with columns in ALL_OUTCOMES order."""
    p = np.einsum("niac,njbd,cdab->nij", e_a, e_b, rho.reshape(2, 2, 2, 2))
    return p.real.reshape(len(p), 16)


#: The vx = vy = 1 element stacks of sides A and B (n = 1), built once.
_UNIT_ELEMENTS = (povm_elements("A", [1.0], [1.0]), povm_elements("B", [1.0], [1.0]))


def joint_distribution(
    state: TwoQubitState, theta_a_deg: float, theta_b_deg: float
) -> JointDistribution:
    """Outcome probabilities tr[(E_mA (x) E_mB) rho] of two local joint
    measurements at trade-off angles theta_A and theta_B."""
    povm_a, povm_b = build_joint_povm("A", [theta_a_deg]), build_joint_povm("B", [theta_b_deg])
    p = _outcome_probabilities(povm_a, povm_b, state.rho)
    return JointDistribution(p[0])


def quasi_distribution(state: TwoQubitState) -> QuasiDistribution:
    """The vx = vy = 1 limit of the joint-measurement formula.

    Not a physical measurement: entries can be negative for Bell-violating
    states.  Sums to one by construction.
    """
    return QuasiDistribution(_outcome_probabilities(*_UNIT_ELEMENTS, state.rho)[0])


def aggregate_b(dist: JointDistribution) -> BAggregate:
    """Sum outcome probabilities by b-value and form mean b = 2p+ - 2p-."""
    # Left to right, not numpy's pairwise or Python 3.12's compensated sum: pinned outputs
    # depend on the last bit of the eight-term sums.
    p_plus, p_minus = _left_sum(dist.probs[[B_COLUMNS[2], B_COLUMNS[-2]]]).tolist()
    return BAggregate(p_plus=p_plus, p_minus=p_minus, mean_b=2.0 * p_plus - 2.0 * p_minus)


def _check_sampling(mean_total: float, seed: int) -> None:
    if not 0 < mean_total < math.inf:
        raise ValueError(f"mean_total must be positive and finite, got {mean_total}")
    if mean_total > MAX_MEAN_TOTAL:
        raise ValueError(f"mean_total must be positive and at most 2**52, got {mean_total}")
    if seed is None or seed < 0 or seed != int(seed):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _draw(probs: Sequence[float], mean_total: float, seed: int) -> np.ndarray:
    """Poisson counts with means max(p, 0) * mean_total, drawn in order by numpy's frozen
    ``RandomState.poisson`` (multiplication below mean 10, PTRS above) on a PCG64 stream
    seeded with ``seed``; a zero mean draws 0 and consumes nothing."""
    rng = np.random.RandomState(np.random.PCG64(int(seed)))
    return rng.poisson(np.maximum(probs, 0.0) * mean_total)


def _check_total(total: int) -> None:
    if total <= 0:
        raise ValueError("count table is empty; probabilities are undefined")


def sample_counts(
    dist: JointDistribution,
    mean_total: float,
    seed: int,
    duration_s: float | None = None,
) -> CountTable:
    """Independent Poisson counts with mean p(m) * mean_total per outcome.

    Deterministic for a fixed seed: outcomes are drawn in canonical order by
    numpy's frozen ``RandomState.poisson`` on a PCG64 stream seeded with ``seed``.
    """
    _check_sampling(mean_total, seed)
    return CountTable(_draw(dist.probs, mean_total, seed), duration_s=duration_s)


def probabilities_from_counts(table: CountTable) -> tuple[JointDistribution, np.ndarray]:
    """Relative frequencies N(m)/N with per-outcome Poisson standard errors
    sqrt(N(m))/N, the errors as a (16,) array in ALL_OUTCOMES order."""
    total = table.total()
    _check_total(total)
    return JointDistribution(table.counts / total), np.sqrt(table.counts) / total


def _check_angle_totals(thetas: Sequence[float], counts: np.ndarray) -> None:
    """Raise naming the first angle whose row of ``counts`` sums to zero."""
    if not (total := counts.sum(axis=1)).all():
        theta = float(thetas[int(np.argmin(total))])
        raise ValueError(f"theta_deg {theta!r} has no counts; probabilities are undefined")


class SweepGrid(NamedTuple):
    """A sweep over theta = theta_A = theta_B (flips: ``analysis.pbflip_grid(thetas)``) as (n, 16)
    arrays in ALL_OUTCOMES order, read-only from ``sweep_grid`` and ``read_sweep``.  ``counts``
    and the derived ``p_obs`` N(m)/N and ``std_err`` sqrt(N(m))/N are None unless sampled;
    ``p_theory`` is None in a sampled file read back."""

    thetas: tuple[float, ...]
    p_theory: np.ndarray | None
    counts: np.ndarray | None = None

    @property
    def p_obs(self) -> np.ndarray | None:
        counts = self.counts
        return None if counts is None else counts / counts.sum(axis=1, keepdims=True)

    @property
    def std_err(self) -> np.ndarray | None:
        counts = self.counts
        return None if counts is None else np.sqrt(counts) / counts.sum(axis=1, keepdims=True)


def sweep_grid(
    state: TwoQubitState,
    thetas: Sequence[float],
    mean_total: float | None = None,
    seed: int | None = None,
) -> SweepGrid:
    """Exact distributions at angles theta = theta_A = theta_B from one contraction and,
    when ``mean_total`` and ``seed`` are given (one alone raises), each angle's counts: ``_draw``
    on one stream, row after row.  Row 0 is ``sample_counts`` at the first angle, appending
    angles keeps the earlier rows, and the angles are stored as Python floats."""
    if (mean_total is None) != (seed is None):
        raise ValueError("mean_total and seed must be given together")
    sampled = mean_total is not None
    if sampled:
        _check_sampling(mean_total, seed)
    thetas = tuple(map(float, thetas))
    p = _outcome_probabilities(*(build_joint_povm(side, thetas) for side in "AB"), state.rho)
    _check_probabilities(p)
    if not sampled:
        return SweepGrid(thetas, _frozen(p))
    counts = _draw(p.ravel(), mean_total, seed).astype(np.int64, copy=False).reshape(len(p), 16)
    _check_angle_totals(thetas, counts)
    return SweepGrid(thetas, _frozen(p), _frozen(counts))


def conditional_state(
    state: TwoQubitState, side: Side, proj_angle_deg: float
) -> np.ndarray:
    """Normalized 2x2 state of the partner qubit after projecting ``side``
    onto the linear polarization at ``proj_angle_deg`` (remote state
    preparation)."""
    _check_side(side)
    p, eye = projector(proj_angle_deg), np.eye(2, dtype=complex)
    op = np.kron(p, eye) if side == "A" else np.kron(eye, p)
    projected = op @ state.rho @ op
    prob = float(np.real(np.trace(projected)))
    if prob <= 1e-12:
        raise ValueError(
            f"projection of side {side} onto {proj_angle_deg} deg has vanishing probability"
        )
    return partial_trace(projected, keep="B" if side == "A" else "A") / prob


def joint_visibilities(
    state: TwoQubitState, theta_deg: float, side: Side
) -> VisibilityEstimate:
    """Visibilities V_x, V_y of the joint measurement on ``side``.

    Each visibility is the ratio of the joint-measurement mean sign to the
    sharp expectation, evaluated on a conditional state prepared by
    projecting the other side orthogonally to the observable's +1
    eigenstate.  For an exact simulation the result is (cos theta,
    sin theta) and the radius is one.  ``theta_deg`` may also be a 1-D array
    of n angles, measured as one element stack against the two conditional
    states: the fields are then (n,) arrays, entry i exactly the call at the
    i-th angle.
    """
    observables = side_observables(side)
    helper: Side = "B" if side == "A" else "A"
    povm = build_joint_povm(side, theta_deg)
    ratios = []
    for axis, obs, signs in zip("xy", observables, _ELEMENT_SIGNS[:, 1:].T):
        prepared = conditional_state(state, helper, OBSERVABLE_ANGLES[side][axis] + 90.0)
        precise = float(np.real(np.trace(prepared @ obs)))
        if abs(precise) < 1e-12:
            raise ValueError(
                f"precise {axis} expectation vanishes on side {side}; visibility undefined"
            )
        # Each angle's mean sign: its four outcome terms added left to right, not pairwise.
        terms = signs * np.trace(povm @ prepared, axis1=-2, axis2=-1).real
        ratios.append(_left_sum(terms) / precise)
    vx, vy = ratios
    # math.hypot, not np.hypot: the two can differ in the last bit.
    radius = list(map(math.hypot, vx.tolist(), vy.tolist()))
    if np.ndim(theta_deg) == 0:
        return VisibilityEstimate(vx=vx.item(), vy=vy.item(), radius=radius[0])
    return VisibilityEstimate(vx=vx, vy=vy, radius=np.array(radius))


# ---------------------------------------------------------------------------
# Count-table exchange format (shared with the command line front end):
# header "x_a,y_a,x_b,y_b,counts", 16 rows with signs written +1/-1, and an
# optional trailing "# duration_s=<float>" metadata line.
# ---------------------------------------------------------------------------

COUNT_FILE_HEADER = "x_a,y_a,x_b,y_b,counts"
_DURATION_PREFIX = "# duration_s="


class CountFileError(ValueError):
    """Count-table text violates the 16-row exchange format."""


def format_count_table(table: CountTable) -> str:
    lines = [COUNT_FILE_HEADER]
    for m, n in zip(ALL_OUTCOMES, table.counts.tolist()):
        lines.append(f"{m.x_a:+d},{m.y_a:+d},{m.x_b:+d},{m.y_b:+d},{n}")
    if table.duration_s is not None:
        lines.append(f"{_DURATION_PREFIX}{table.duration_s!r}")
    return "\n".join(lines) + "\n"


def _is_number(field: str) -> bool:
    """Whether ``np.loadtxt`` reads ``field`` as a float: ``float``'s grammar without the
    underscores and non-ASCII digits that only ``float`` accepts."""
    try:
        float(field)
    except ValueError:
        return False
    return field.isascii() and "_" not in field


def _parse_sign(token: str, row: int) -> int:
    if token == "+1":
        return 1
    if token == "-1":
        return -1
    raise CountFileError(f"row {row}: sign must be '+1' or '-1', got {token!r}")


def parse_count_table(text: str) -> CountTable:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines or lines[0] != COUNT_FILE_HEADER:
        raise CountFileError(f"first line must be the header {COUNT_FILE_HEADER!r}")
    counts: dict[Outcome, int] = {}
    duration: float | None = None
    for row, line in enumerate(lines[1:], start=2):
        if line.startswith("#"):
            if not line.startswith(_DURATION_PREFIX):
                raise CountFileError(f"row {row}: unrecognized metadata line {line!r}")
            if duration is not None:
                raise CountFileError(f"row {row}: duplicate duration metadata line")
            value = line[len(_DURATION_PREFIX):]
            if not _is_number(value):
                raise CountFileError(f"row {row}: malformed duration in {line!r}")
            duration = float(value)
            continue
        if duration is not None:
            raise CountFileError(f"row {row}: data after the duration metadata line")
        fields = line.split(",")
        if len(fields) != 5:
            raise CountFileError(f"row {row}: expected 5 comma-separated fields, got {len(fields)}")
        outcome = Outcome(*(_parse_sign(f.strip(), row) for f in fields[:4]))
        token = fields[4].strip()
        try:
            # Plain ASCII digits only: int() alone also takes "+5", "1_000" and other scripts,
            # and it raises ValueError past Python's limit on integer string digits.
            if not (token.isascii() and token.removeprefix("-").isdigit()):
                raise ValueError
            n = int(token)
        except ValueError:
            raise CountFileError(f"row {row}: count must be an integer, got {token!r}") from None
        if n < 0:
            raise CountFileError(f"row {row}: count must be non-negative, got {n}")
        if outcome in counts:
            raise CountFileError(f"row {row}: duplicate outcome {outcome.label()}")
        counts[outcome] = n
    missing = [m for m in ALL_OUTCOMES if m not in counts]
    if missing:
        raise CountFileError(f"missing outcome {missing[0].label()}")
    return CountTable([counts[m] for m in ALL_OUTCOMES], duration_s=duration)


def write_count_table(fh: TextIO, table: CountTable) -> None:
    fh.write(format_count_table(table))


def read_count_table(path) -> CountTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_count_table(fh.read())
