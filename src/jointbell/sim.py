"""Sixteen-outcome joint measurement statistics for entangled photon pairs.

Joint and intrinsic (quasi-)distributions, b-value aggregation, Poisson
coincidence-count simulation, remotely prepared conditional states,
visibility extraction, and the plain-text count-table exchange format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core import (
    MeasurementSetting,
    Side,
    TwoQubitState,
    build_joint_povm,
    partial_trace,
    povm_elements,
    projector,
    side_observables,
)

PROB_TOL = 1e-12
NORMALIZATION_TOL = 1e-10


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
ALL_OUTCOMES: tuple[Outcome, ...] = tuple(
    Outcome(xa, ya, xb, yb)
    for xa in (1, -1)
    for ya in (1, -1)
    for xb in (1, -1)
    for yb in (1, -1)
)


def b_value(outcome: Outcome) -> int:
    """CHSH combination x_A x_B - x_A y_B + y_A x_B + y_A y_B; always +2 or -2."""
    xa, ya, xb, yb = outcome
    return xa * xb - xa * yb + ya * xb + ya * yb


def _check_outcome_map(probs: dict) -> None:
    if set(probs) != set(ALL_OUTCOMES):
        raise ValueError("distribution must assign a value to each of the 16 outcomes")


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of the sixteen joint outcomes at given trade-off angles.

    ``settings`` is (theta_A, theta_B) in degrees, or None for distributions
    estimated from counts where the setting is not part of the data.
    """

    probs: dict[Outcome, float]
    settings: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        _check_outcome_map(self.probs)
        low = min(self.probs.values())
        if low < -PROB_TOL:
            raise ValueError(f"negative outcome probability {low:.3e}")
        total = sum(self.probs.values())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")


@dataclass(frozen=True)
class QuasiDistribution:
    """Signed quasi-probabilities of the sixteen outcomes; sums to one."""

    values: dict[Outcome, float]

    def __post_init__(self) -> None:
        _check_outcome_map(self.values)
        total = sum(self.values.values())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"quasi-probabilities sum to {total!r}, expected 1")


@dataclass(frozen=True)
class BAggregate:
    """Probabilities of b = +2 / b = -2 and the resulting mean b-value."""

    p_plus: float
    p_minus: float
    mean_b: float


@dataclass(frozen=True)
class VisibilityEstimate:
    """Visibility pair extracted from simulated joint measurements."""

    vx: float
    vy: float
    radius: float


@dataclass(frozen=True)
class CountTable:
    """Non-negative coincidence counts per outcome, optionally with the
    accumulation time in seconds."""

    counts: dict[Outcome, int]
    duration_s: float | None = None

    def __post_init__(self) -> None:
        _check_outcome_map(self.counts)
        clean = {}
        for m in ALL_OUTCOMES:
            n = self.counts[m]
            if n != int(n) or n < 0:
                raise ValueError(f"count for {m.label()} must be a non-negative integer, got {n!r}")
            clean[m] = int(n)
        object.__setattr__(self, "counts", clean)

    def total(self) -> int:
        return sum(self.counts.values())


def joint_distribution(
    state: TwoQubitState, theta_a_deg: float, theta_b_deg: float
) -> JointDistribution:
    """Outcome probabilities tr[(E_mA (x) E_mB) rho] of two local joint
    measurements at trade-off angles theta_A and theta_B."""
    povm_a = build_joint_povm(MeasurementSetting(theta_a_deg, "A"))
    povm_b = build_joint_povm(MeasurementSetting(theta_b_deg, "B"))
    probs = {}
    for m in ALL_OUTCOMES:
        element = np.kron(povm_a.elements[(m.x_a, m.y_a)], povm_b.elements[(m.x_b, m.y_b)])
        probs[m] = float(np.real(np.trace(element @ state.rho)))
    return JointDistribution(probs=probs, settings=(theta_a_deg, theta_b_deg))


def quasi_distribution(state: TwoQubitState) -> QuasiDistribution:
    """The vx = vy = 1 limit of the joint-measurement formula.

    Not a physical measurement: entries can be negative for Bell-violating
    states.  Sums to one by construction.
    """
    xa, ya = side_observables("A")
    xb, yb = side_observables("B")
    ea = povm_elements(xa, ya, 1.0, 1.0)
    eb = povm_elements(xb, yb, 1.0, 1.0)
    values = {}
    for m in ALL_OUTCOMES:
        element = np.kron(ea[(m.x_a, m.y_a)], eb[(m.x_b, m.y_b)])
        values[m] = float(np.real(np.trace(element @ state.rho)))
    return QuasiDistribution(values=values)


def aggregate_b(dist: JointDistribution) -> BAggregate:
    """Sum outcome probabilities by b-value and form mean b = 2p+ - 2p-."""
    p_plus = sum(p for m, p in dist.probs.items() if b_value(m) == 2)
    p_minus = sum(p for m, p in dist.probs.items() if b_value(m) == -2)
    return BAggregate(p_plus=p_plus, p_minus=p_minus, mean_b=2.0 * p_plus - 2.0 * p_minus)


def _poisson(rng: np.random.Generator, mean: float) -> int:
    """Exact Poisson sampler: sequential inversion below mean 10, Hormann's
    transformed rejection (PTRS) above.  No normal approximation."""
    if mean <= 0.0:
        return 0
    if mean < 10.0:
        x = 0
        p = math.exp(-mean)
        s = p
        u = rng.random()
        while u > s:
            x += 1
            p *= mean / x
            s += p
        return x
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mean = math.log(mean)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        if us <= 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v * inv_alpha / (a / (us * us) + b)) <= k * log_mean - mean - math.lgamma(k + 1.0):
            return int(k)


def _check_sampling(mean_total: float, seed: int) -> None:
    if mean_total <= 0:
        raise ValueError(f"mean_total must be positive, got {mean_total}")
    if seed < 0 or seed != int(seed):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def sample_counts(
    dist: JointDistribution,
    mean_total: float,
    seed: int,
    duration_s: float | None = None,
) -> CountTable:
    """Independent Poisson counts with mean p(m) * mean_total per outcome.

    Deterministic for a fixed seed: outcomes are drawn in canonical order
    from a PCG64 stream seeded with ``seed``.
    """
    _check_sampling(mean_total, seed)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    counts = {}
    for m in ALL_OUTCOMES:
        counts[m] = _poisson(rng, max(dist.probs[m], 0.0) * mean_total)
    return CountTable(counts=counts, duration_s=duration_s)


def probabilities_from_counts(
    table: CountTable,
) -> tuple[JointDistribution, dict[Outcome, float]]:
    """Relative frequencies N(m)/N with per-outcome Poisson standard errors
    sqrt(N(m))/N."""
    total = table.total()
    if total <= 0:
        raise ValueError("count table is empty; probabilities are undefined")
    probs = {m: table.counts[m] / total for m in ALL_OUTCOMES}
    errors = {m: math.sqrt(table.counts[m]) / total for m in ALL_OUTCOMES}
    return JointDistribution(probs=probs, settings=None), errors


class AngleSample(NamedTuple):
    """Statistics at one trade-off angle theta = theta_A = theta_B; the
    count table and its estimates are None unless the sweep is sampled."""

    theta_deg: float
    dist: JointDistribution
    table: CountTable | None = None
    observed: JointDistribution | None = None
    errors: dict[Outcome, float] | None = None


def angle_sweep(
    state: TwoQubitState,
    thetas: Iterable[float],
    mean_total: float | None = None,
    seed: int | None = None,
) -> Iterator[AngleSample]:
    """Lazily compute each angle's exact distribution and, when both
    ``mean_total`` and ``seed`` are given, its sampled counts and estimates.

    Angle ``i`` is sampled with seed XOR i, so seeds s and s XOR 1 share
    every stream with the angles swapped.  Sampling arguments are checked
    here, before the first angle is computed.
    """
    sampled = mean_total is not None and seed is not None
    if sampled:
        _check_sampling(mean_total, seed)

    def samples() -> Iterator[AngleSample]:
        for index, theta in enumerate(thetas):
            dist = joint_distribution(state, theta, theta)
            if not sampled:
                yield AngleSample(theta, dist)
                continue
            table = sample_counts(dist, mean_total, seed=seed ^ index)
            yield AngleSample(theta, dist, table, *probabilities_from_counts(table))

    return samples()


def conditional_state(
    state: TwoQubitState, side: Side, proj_angle_deg: float
) -> np.ndarray:
    """Normalized 2x2 state of the partner qubit after projecting ``side``
    onto the linear polarization at ``proj_angle_deg`` (remote state
    preparation)."""
    p = projector(proj_angle_deg)
    if side == "A":
        op = np.kron(p, np.eye(2, dtype=complex))
        keep: Side = "B"
    elif side == "B":
        op = np.kron(np.eye(2, dtype=complex), p)
        keep = "A"
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    projected = op @ state.rho @ op
    prob = float(np.real(np.trace(projected)))
    if prob <= 1e-12:
        raise ValueError(
            f"projection of side {side} onto {proj_angle_deg} deg has vanishing probability"
        )
    return partial_trace(projected, keep=keep) / prob


def joint_visibilities(
    state: TwoQubitState, theta_deg: float, side: Side
) -> VisibilityEstimate:
    """Visibilities V_x, V_y of the joint measurement on ``side``.

    Each visibility is the ratio of the joint-measurement mean sign to the
    sharp expectation, evaluated on a conditional state prepared by
    projecting the other side orthogonally to the observable's +1
    eigenstate.  For an exact simulation the result is (cos theta,
    sin theta) and the radius is one.
    """
    obs_x, obs_y = side_observables(side)
    helper: Side = "B" if side == "A" else "A"
    povm = build_joint_povm(MeasurementSetting(theta_deg, side))
    ratios = []
    for axis, obs in (("x", obs_x), ("y", obs_y)):
        prepared = conditional_state(state, helper, obs.plus_angle_deg + 90.0)
        precise = float(np.real(np.trace(prepared @ obs.matrix)))
        if abs(precise) < 1e-12:
            raise ValueError(
                f"precise {axis} expectation vanishes on side {side}; visibility undefined"
            )
        joint = 0.0
        for (x, y), element in povm.elements.items():
            sign = x if axis == "x" else y
            joint += sign * float(np.real(np.trace(element @ prepared)))
        ratios.append(joint / precise)
    vx, vy = ratios
    return VisibilityEstimate(vx=vx, vy=vy, radius=math.hypot(vx, vy))


def interferometer_visibility(
    n_plus_minus: float, n_minus_plus: float, n_plus_plus: float, n_minus_minus: float
) -> float:
    """(N+- + N-+ - N++ - N--) / total for parallel-polarizer coincidence
    counts; +- and -+ are the intended anti-correlated outcomes."""
    rates = (n_plus_minus, n_minus_plus, n_plus_plus, n_minus_minus)
    if any(n < 0 for n in rates):
        raise ValueError("counts must be non-negative")
    total = sum(rates)
    if total <= 0:
        raise ValueError("total count is zero; visibility undefined")
    return (n_plus_minus + n_minus_plus - n_plus_plus - n_minus_minus) / total


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
    for m in ALL_OUTCOMES:
        lines.append(f"{m.x_a:+d},{m.y_a:+d},{m.x_b:+d},{m.y_b:+d},{table.counts[m]}")
    if table.duration_s is not None:
        lines.append(f"{_DURATION_PREFIX}{table.duration_s!r}")
    return "\n".join(lines) + "\n"


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
            try:
                duration = float(line[len(_DURATION_PREFIX):])
            except ValueError:
                raise CountFileError(f"row {row}: malformed duration in {line!r}") from None
            continue
        if duration is not None:
            raise CountFileError(f"row {row}: data after the duration metadata line")
        fields = line.split(",")
        if len(fields) != 5:
            raise CountFileError(f"row {row}: expected 5 comma-separated fields, got {len(fields)}")
        outcome = Outcome(*(_parse_sign(f.strip(), row) for f in fields[:4]))
        token = fields[4].strip()
        try:
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
    return CountTable(counts=counts, duration_s=duration)


def write_count_table(table: CountTable, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_count_table(table))


def read_count_table(path) -> CountTable:
    with open(path, "r", encoding="ascii") as fh:
        return parse_count_table(fh.read())
