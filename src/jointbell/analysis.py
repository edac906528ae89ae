"""Bit-flip error model for uncertainty-limited joint measurements.

Measurement unsharpness is equivalent to independent random sign flips of
the four outcome values at rate (1 - V)/2 per observable.  From that model:
outcome-wise probabilities of flipping the b-value, intrinsic (possibly
negative) probabilities, the minimal error probability compatible with a
given Bell violation, the linear law relating observed probabilities to
flip probabilities, and the least-squares estimator of |<B>| built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .core import CIRELSON_BOUND, VisibilityPair
from .sim import ALL_OUTCOMES, JointDistribution, Outcome, QuasiDistribution, b_value

#: Outcomes whose flip probability dips lowest over the trade-off range:
#: the first two bottom out at theta = 22.5 deg, the last two at 67.5 deg.
MINIMAL_OUTCOMES: tuple[Outcome, ...] = (
    Outcome(1, 1, 1, -1),
    Outcome(-1, -1, -1, 1),
    Outcome(-1, 1, 1, 1),
    Outcome(1, -1, -1, -1),
)

_FLIP_PATTERNS = tuple(product((0, 1), repeat=4))


@dataclass(frozen=True)
class FlipRates:
    """Independent flip rates (1 - V)/2 for x_A, y_A, x_B, y_B."""

    x_a: float
    y_a: float
    x_b: float
    y_b: float

    @classmethod
    def from_visibilities(cls, vis_a: VisibilityPair, vis_b: VisibilityPair) -> "FlipRates":
        return cls(
            x_a=(1.0 - vis_a.vx) / 2.0,
            y_a=(1.0 - vis_a.vy) / 2.0,
            x_b=(1.0 - vis_b.vx) / 2.0,
            y_b=(1.0 - vis_b.vy) / 2.0,
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_a, self.y_a, self.x_b, self.y_b)


def _pattern_probability(rates: tuple[float, float, float, float], pattern) -> float:
    p = 1.0
    for rate, flip in zip(rates, pattern):
        p *= rate if flip else (1.0 - rate)
    return p


def _apply_flips(outcome: Outcome, pattern) -> Outcome:
    return Outcome(*(s * (1 - 2 * f) for s, f in zip(outcome, pattern)))


def pbflip_outcome(
    outcome: Outcome, vis_a: VisibilityPair, vis_b: VisibilityPair
) -> float:
    """Probability that independent sign flips change the b-value of
    ``outcome``, by enumeration of all sixteen flip patterns."""
    vis_a.require_uncertainty_bound()
    vis_b.require_uncertainty_bound()
    rates = FlipRates.from_visibilities(vis_a, vis_b).as_tuple()
    b0 = b_value(outcome)
    total = 0.0
    for pattern in _FLIP_PATTERNS:
        if b_value(_apply_flips(outcome, pattern)) != b0:
            total += _pattern_probability(rates, pattern)
    return total


def pbflip_uniform(mean_b: float, bell_expectation: float) -> float:
    """Outcome-independent flip probability (1 - <b>/<B>)/2 for equal
    visibilities."""
    if abs(bell_expectation) < 1e-15:
        raise ValueError("Bell expectation is zero; flip probability undefined")
    return 0.5 * (1.0 - mean_b / bell_expectation)


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
    inequality strongly enough.
    """
    rates = FlipRates.from_visibilities(vis_a, vis_b).as_tuple()
    probs = {m: 0.0 for m in ALL_OUTCOMES}
    for m0 in ALL_OUTCOMES:
        q = quasi.values[m0]
        for pattern in _FLIP_PATTERNS:
            probs[_apply_flips(m0, pattern)] += _pattern_probability(rates, pattern) * q
    return JointDistribution(probs=probs, settings=(vis_a.theta_deg, vis_b.theta_deg))


@dataclass(frozen=True)
class BitFlipModel:
    """Two-level intrinsic distribution plus per-outcome flip probabilities."""

    p_int_high: float
    p_int_low: float
    p_bflip: dict[Outcome, float]

    def __post_init__(self) -> None:
        if abs(self.p_int_high + self.p_int_low - 0.125) > 1e-12:
            raise ValueError("intrinsic probabilities must sum to 1/8")

    @classmethod
    def from_magnitude_and_visibilities(
        cls, bell_magnitude: float, vis_a: VisibilityPair, vis_b: VisibilityPair
    ) -> "BitFlipModel":
        high, low = intrinsic_probs(bell_magnitude)
        flips = {m: pbflip_outcome(m, vis_a, vis_b) for m in ALL_OUTCOMES}
        return cls(p_int_high=high, p_int_low=low, p_bflip=flips)

    def predicted(self, outcome: Outcome) -> float:
        """Observed probability of ``outcome``: intrinsic value mixed with
        its opposite at the outcome's flip probability."""
        pb = self.p_bflip[outcome]
        if b_value(outcome) == 2:
            return (1.0 - pb) * self.p_int_low + pb * self.p_int_high
        return (1.0 - pb) * self.p_int_high + pb * self.p_int_low


@dataclass(frozen=True)
class FitResult:
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

    @property
    def p_int_low(self) -> float:
        return self.intercept


def fit_bell_magnitude(
    points: Sequence[tuple[float, ...]],
) -> FitResult:
    """Least-squares line through (p_bflip, observed probability) points.

    Each point is ``(p_bflip, probability)`` or ``(p_bflip, probability,
    std_err)``; standard errors must be supplied for all points or none.
    With standard errors the fit is inverse-variance weighted and the
    parameter errors treat the supplied uncertainties as absolute; without
    them the parameter errors are scaled by the residual variance (zero for
    points exactly on a line).
    """
    xs: list[float] = []
    ys: list[float] = []
    sigmas: list[float] = []
    for point in points:
        if len(point) == 2:
            x, y = point
            s = None
        elif len(point) == 3:
            x, y, s = point
        else:
            raise ValueError(f"fit points must have 2 or 3 entries, got {len(point)}")
        xs.append(float(x))
        ys.append(float(y))
        if s is not None:
            sigmas.append(float(s))
    if sigmas and len(sigmas) != len(xs):
        raise ValueError("standard errors must be given for all points or none")
    n = len(xs)
    span = max(xs) - min(xs) if xs else 0.0
    # Relative guard: abscissae equal up to float dust are degenerate too.
    if n < 2 or span <= 1e-12 * max(1.0, max(abs(x) for x in xs)):
        raise ValueError("fit requires at least two points with distinct abscissae")
    if sigmas:
        if any(s <= 0 or not math.isfinite(s) for s in sigmas):
            raise ValueError("standard errors must be positive and finite")
        weights = [1.0 / (s * s) for s in sigmas]
    else:
        weights = [1.0] * n

    sw = sum(weights)
    x_bar = sum(w * x for w, x in zip(weights, xs)) / sw
    y_bar = sum(w * y for w, y in zip(weights, ys)) / sw
    stt = sum(w * (x - x_bar) ** 2 for w, x in zip(weights, xs))
    if stt <= 0:
        raise ValueError("fit requires at least two points with distinct abscissae")
    slope = sum(w * (x - x_bar) * y for w, x, y in zip(weights, xs, ys)) / stt
    intercept = y_bar - slope * x_bar

    var_slope = 1.0 / stt
    var_intercept = 1.0 / sw + x_bar * x_bar / stt
    if not sigmas:
        # Unweighted: scale by residual variance (unbiased, n - 2 dof).
        ssr = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
        scale = ssr / (n - 2) if n > 2 else 0.0
        var_slope *= scale
        var_intercept *= scale
    return FitResult(
        slope=slope,
        intercept=intercept,
        slope_std_err=math.sqrt(var_slope),
        intercept_std_err=math.sqrt(var_intercept),
    )
