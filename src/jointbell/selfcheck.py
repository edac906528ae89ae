"""Self-contained invariant suites behind the ``validate`` CLI command.

Each check re-derives a structural property of the simulation from scratch
(positivity, completeness, normalization, degeneracies, the exactness of
the bit-flip decomposition, ...) and reports pass/fail with a short detail
string.  Everything is deterministic: random states use fixed seeds.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (
    CIRELSON_BOUND,
    UncertaintyViolationError,
    VisibilityPair,
    _frozen,
    _left_sum,
    bell_expectation,
    bell_operator,
    build_joint_povm,
    min_eigenvalue,
    partial_trace,
    povm_elements,
    povm_from_visibilities,
    random_two_qubit_state,
    side_observables,
    singlet_state,
    unit_circle_grid,
    werner_state,
)
from .sim import (
    ALL_OUTCOMES,
    B_COLUMNS,
    SIGN_COLUMNS,
    Outcome,
    aggregate_b,
    format_count_table,
    joint_distribution,
    joint_visibilities,
    parse_count_table,
    probabilities_from_counts,
    quasi_distribution,
    sample_counts,
    sweep_grid,
)
from .analysis import (
    MINIMAL_COLUMNS,
    cirelson_floor,
    flip_convolve,
    pbflip_grid,
    predicted_probability,
)

_THETA_SET = (0.0, 20.0, 40.0, 45.0, 50.0, 70.0, 90.0)
#: Trade-off angles 0, 0.5, ..., 90 degrees of the POVM suites.
_POVM_THETAS = _frozen(np.arange(0.0, 90.0 + 1e-9, 0.5))


class CheckResult(NamedTuple):
    passed: bool
    detail: str


def check_povm_positivity() -> CheckResult:
    povms = np.stack([build_joint_povm(side, _POVM_THETAS) for side in ("A", "B")])
    worst = min(0.0, min_eigenvalue(povms))
    return CheckResult(worst >= -1e-12, f"min element eigenvalue {worst:.2e}")


def check_povm_completeness() -> CheckResult:
    povms = np.stack([build_joint_povm(side, _POVM_THETAS) for side in ("A", "B")])
    worst = float(np.max(np.abs(povms.sum(axis=2) - np.eye(2)), initial=0.0))
    return CheckResult(worst <= 1e-12, f"max |sum - I| = {worst:.2e}")


def check_uncertainty_boundary() -> CheckResult:
    rng = np.random.default_rng(20230)
    # 50 pairs (radius^2, angle), drawn interleaved in one call.
    draws = rng.uniform([1.0001, 0.05] * 50, [1.9, math.pi / 2 - 0.05] * 50).tolist()
    radii, angles = list(map(math.sqrt, draws[0::2])), draws[1::2]
    vx = np.array([r * c for r, c in zip(radii, map(math.cos, angles))])
    vy = np.array([r * s for r, s in zip(radii, map(math.sin, angles))])
    inside = (vx <= 1) & (vy <= 1)
    vx, vy = vx[inside], vy[inside]
    lowest = np.linalg.eigvalsh(povm_elements("A", vx, vy)).min(axis=(1, 2))
    ok = bool(np.all(lowest < 0))
    for pair in zip(vx.tolist(), vy.tolist()):
        try:
            povm_from_visibilities("A", VisibilityPair(*pair))
            ok = False
        except UncertaintyViolationError:
            pass
    return CheckResult(ok, "vx^2+vy^2 > 1 always breaks positivity")


def check_observable_algebra() -> CheckResult:
    # X_A, Y_A, X_B, Y_B as one (4, 2, 2) stack.
    obs = np.concatenate([side_observables(side) for side in ("A", "B")])
    xs, ys = obs[0::2], obs[1::2]
    bell_eigs = np.linalg.eigvalsh(bell_operator())
    defects = [
        np.max(np.abs(xs @ ys + ys @ xs)),
        np.max(np.abs(obs - obs.conj().swapaxes(1, 2))),
        np.max(np.abs(np.trace(obs, axis1=1, axis2=2).real)),
        np.max(np.abs(np.linalg.eigvalsh(obs) - np.array([-1.0, 1.0]))),
        abs(bell_eigs[0] + CIRELSON_BOUND),
        abs(bell_eigs[-1] - CIRELSON_BOUND),
    ]
    worst = float(max(defects))
    return CheckResult(worst <= 1e-10, f"max defect {worst:.2e}")


def check_werner_linearity() -> CheckResult:
    worst = 0.0
    for v in np.linspace(0.0, 1.0, 21).tolist():
        worst = max(worst, abs(bell_expectation(werner_state(v)) - v * (-CIRELSON_BOUND)))
    return CheckResult(worst <= 1e-12, f"max |error| {worst:.2e}")


def check_distribution_normalization() -> CheckResult:
    rng = np.random.default_rng(911)
    states = [random_two_qubit_state(rng) for _ in range(10)]
    p = np.stack([sweep_grid(state, _THETA_SET).p_theory for state in states])
    worst_sum = float(np.max(np.abs(_left_sum(p) - 1.0)))
    worst_neg = min(0.0, float(p.min()))
    ok = worst_sum <= 1e-10 and worst_neg >= -1e-12
    return CheckResult(
        ok,
        f"|sum-1| <= {worst_sum:.2e}, min prob {worst_neg:.2e}",
    )


def check_marginal_consistency() -> CheckResult:
    rng = np.random.default_rng(517)
    states = [random_two_qubit_state(rng) for _ in range(5)]
    probs = np.stack([joint_distribution(state, 30.0, 70.0).probs for state in states])
    # ALL_OUTCOMES runs (x_A, y_A) slowest, in OUTCOME_SIGNS order: row o of the reshape
    # holds the four outcomes of side A's element o.
    marginals = _left_sum(probs.reshape(len(states), 4, 4))
    rho_a = np.stack([partial_trace(state.rho, keep="A") for state in states])
    povm_a = build_joint_povm("A", [30.0])[0]
    direct = np.trace(povm_a @ rho_a[:, None], axis1=2, axis2=3).real
    worst = float(np.max(np.abs(marginals - direct)))
    return CheckResult(worst <= 1e-12, f"max |error| {worst:.2e}")


def check_theta45_degeneracy() -> CheckResult:
    probs = joint_distribution(singlet_state(), 45.0, 45.0).probs
    spread = max(float(np.ptp(probs[columns])) for columns in B_COLUMNS.values())
    return CheckResult(spread <= 1e-12, f"max in-group spread {spread:.2e}")


def check_visibility_scaling() -> CheckResult:
    rng = np.random.default_rng(2718)
    (xa, ya), (xb, yb) = side_observables("A"), side_observables("B")
    sxa, sya, sxb, syb = SIGN_COLUMNS
    thetas = (20.0, 45.0, 70.0)
    c = np.array([math.cos(math.radians(t)) for t in thetas])
    s = np.array([math.sin(math.radians(t)) for t in thetas])
    # The correlators x_a x_b, x_a y_b, y_a x_b and y_a y_b, in this order on the last axis.
    signs = np.stack([a * b for a in (sxa, sya) for b in (sxb, syb)])
    ops = np.stack([np.kron(a, b) for a in (xa, ya) for b in (xb, yb)])
    scales = np.stack([a * b for a in (c, s) for b in (c, s)], axis=-1)
    states = [random_two_qubit_state(rng) for _ in range(5)]
    probs = np.stack([[joint_distribution(state, t, t).probs for t in thetas] for state in states])
    measured = _left_sum(probs[:, :, None, :] * signs)
    rhos = np.stack([state.rho for state in states])
    sharp = np.trace(ops @ rhos[:, None], axis1=2, axis2=3).real
    worst = float(np.max(np.abs(measured - scales * sharp[:, None, :])))
    # Equal visibilities: <b> is exactly half the Bell expectation.
    state = werner_state(0.9)
    half = aggregate_b(joint_distribution(state, 45.0, 45.0)).mean_b
    worst = max(worst, abs(half - 0.5 * bell_expectation(state)))
    return CheckResult(worst <= 1e-12, f"max |error| {worst:.2e}")


def check_flip_convolution() -> CheckResult:
    rng = np.random.default_rng(40)
    vis = VisibilityPair(*unit_circle_grid(_THETA_SET))
    worst = 0.0
    for _ in range(10):
        state = random_two_qubit_state(rng)
        convolved = flip_convolve(quasi_distribution(state), vis, vis)
        direct = sweep_grid(state, _THETA_SET).p_theory
        worst = max(worst, float(np.max(np.abs(convolved - direct))))
    return CheckResult(worst <= 1e-10, f"max |error| {worst:.2e}")


def check_line_consistency() -> CheckResult:
    grid = np.arange(0.0, 90.0 + 1e-9, 5.0).tolist()
    observed = sweep_grid(singlet_state(), grid).p_theory[:, MINIMAL_COLUMNS]
    predicted = predicted_probability(CIRELSON_BOUND, pbflip_grid(grid)[:, MINIMAL_COLUMNS])
    worst = float(np.max(np.abs(observed - predicted)))
    return CheckResult(worst <= 1e-10, f"max |error| {worst:.2e}")


def check_flip_floor() -> CheckResult:
    floor = cirelson_floor(CIRELSON_BOUND)
    grid = np.arange(0.0, 90.0 + 1e-9, 0.5).tolist()
    flips = pbflip_grid(grid)[:, MINIMAL_COLUMNS].tolist()
    low = min(map(min, flips))
    saturated = min(flips[grid.index(22.5)][0], flips[grid.index(67.5)][2])
    ok = low >= floor - 1e-12 and abs(saturated - floor) <= 1e-12
    return CheckResult(ok, f"min p_bflip {low:.6f} vs floor {floor:.6f}")


def check_minimal_outcome_monotonicity() -> CheckResult:
    grid = np.arange(0.0, 90.0 + 1e-9, 2.5).tolist()
    probs = sweep_grid(singlet_state(), grid).p_theory
    ok = True
    for outcome, theta_min in ((Outcome(1, 1, 1, -1), 22.5), (Outcome(-1, 1, 1, 1), 67.5)):
        curve, i = probs[:, ALL_OUTCOMES.index(outcome)].tolist(), grid.index(theta_min)
        ok = ok and all(np.diff(curve[: i + 1]) < 0) and all(np.diff(curve[i:]) > 0)
        ok = ok and abs(curve[i]) <= 1e-10
    return CheckResult(
        ok,
        "minima at 22.5 and 67.5 degrees with monotone flanks",
    )


def check_visibility_circle() -> CheckResult:
    state = werner_state(0.95)
    thetas = np.arange(0.0, 90.0 + 1e-9, 10.0)
    radii = [joint_visibilities(state, thetas, side).radius for side in ("A", "B")]
    worst = float(np.max(np.abs(np.concatenate(radii) - 1.0)))
    return CheckResult(worst <= 1e-10, f"max |radius - 1| {worst:.2e}")


def check_count_roundtrip() -> CheckResult:
    dist = joint_distribution(werner_state(0.9716), 20.0, 20.0)
    table = sample_counts(dist, 1e6, seed=77, duration_s=10.0)
    recovered, errors = probabilities_from_counts(table)
    errors = np.where(errors > 0, errors, 1.0 / table.total())
    worst_sigma = float(np.max(np.abs(recovered.probs - dist.probs) / errors))
    text = format_count_table(table)
    ok = worst_sigma < 5.0 and format_count_table(parse_count_table(text)) == text
    return CheckResult(ok, f"max deviation {worst_sigma:.2f} sigma; text round-trips")


ALL_CHECKS = (
    check_povm_positivity,
    check_povm_completeness,
    check_uncertainty_boundary,
    check_observable_algebra,
    check_werner_linearity,
    check_distribution_normalization,
    check_marginal_consistency,
    check_theta45_degeneracy,
    check_visibility_scaling,
    check_flip_convolution,
    check_line_consistency,
    check_flip_floor,
    check_minimal_outcome_monotonicity,
    check_visibility_circle,
    check_count_roundtrip,
)
