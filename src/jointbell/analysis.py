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
from typing import Sequence

import numpy as np

from .core import CIRELSON_BOUND, VisibilityPair, unit_circle_grid
from .sim import ALL_OUTCOMES, SIGN_COLUMNS, JointDistribution, Outcome, QuasiDistribution, b_value

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
    inequality strongly enough.
    """
    rates = [(1.0 - v) / 2.0 for v in (vis_a.vx, vis_a.vy, vis_b.vx, vis_b.vy)]
    flips = [np.array([[1.0 - r, r], [r, 1.0 - r]]) for r in rates]
    # Sign index 0 is +1 and 1 is -1 on every axis (canonical outcome order).
    p = np.einsum("ai,bj,ck,dl,ijkl->abcd", *flips, quasi.values.reshape(2, 2, 2, 2))
    return JointDistribution(p.ravel(), settings=(vis_a.theta_deg, vis_b.theta_deg))


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
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("fit points must be finite")
    n = len(xs)
    span = max(xs) - min(xs) if xs else 0.0
    # Relative guard: abscissae equal up to float dust are degenerate too.
    if n < 2 or span <= 1e-12 * max(1.0, max(abs(x) for x in xs)):
        raise ValueError("fit requires at least two points with distinct abscissae")
    if sigmas:
        if any(s <= 0 or not math.isfinite(s) for s in sigmas):
            raise ValueError("standard errors must be positive and finite")
        weights = [1.0 / (s * s) if s * s > 0 else math.inf for s in sigmas]
        if not all(0 < w < math.inf for w in weights):
            raise ValueError("weights 1/std_err**2 must be positive and finite")
    else:
        weights = [1.0] * n

    try:
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
