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
    OUTCOME_SIGNS,
    UncertaintyViolationError,
    VisibilityPair,
    _frozen,
    _left_sum,
    bell_expectation,
    bell_operator,
    build_joint_povm,
    hermiticity_defect,
    min_eigenvalue,
    partial_trace,
    povm_elements,
    povm_from_visibilities,
    random_two_qubit_state,
    side_observables,
    singlet_state,
    werner_state,
)
from .sim import (
    ALL_OUTCOMES,
    B_COLUMNS,
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
    worst = 0.0
    for side in ("A", "B"):
        worst = min(worst, min_eigenvalue(build_joint_povm(side, _POVM_THETAS)))
    return CheckResult(worst >= -1e-12, f"min element eigenvalue {worst:.2e}")


def check_povm_completeness() -> CheckResult:
    worst = 0.0
    for side in ("A", "B"):
        povm = build_joint_povm(side, _POVM_THETAS)
        worst = max(worst, float(np.max(np.abs(povm.sum(axis=1) - np.eye(2)))))
    return CheckResult(worst <= 1e-12, f"max |sum - I| = {worst:.2e}")


def check_uncertainty_boundary() -> CheckResult:
    rng = np.random.default_rng(20230)
    ok = True
    for _ in range(50):
        radius = math.sqrt(rng.uniform(1.0001, 1.9))
        angle = rng.uniform(0.05, math.pi / 2 - 0.05)
        vx, vy = radius * math.cos(angle), radius * math.sin(angle)
        if vx > 1 or vy > 1:
            continue
        ok = ok and min_eigenvalue(povm_elements("A", vx, vy)) < 0
        try:
            povm_from_visibilities("A", VisibilityPair(vx, vy))
            ok = False
        except UncertaintyViolationError:
            pass
    return CheckResult(ok, "vx^2+vy^2 > 1 always breaks positivity")


def check_observable_algebra() -> CheckResult:
    defects = []
    for side in ("A", "B"):
        ox, oy = side_observables(side)
        anti = ox.matrix @ oy.matrix + oy.matrix @ ox.matrix
        defects.append(float(np.max(np.abs(anti))))
        for obs in (ox, oy):
            defects.append(hermiticity_defect(obs.matrix))
            defects.append(abs(float(np.trace(obs.matrix).real)))
            eig = np.linalg.eigvalsh(obs.matrix)
            defects.append(float(np.max(np.abs(eig - np.array([-1.0, 1.0])))))
    b = bell_operator()
    eigs = np.linalg.eigvalsh(b)
    defects.append(abs(eigs[0] + CIRELSON_BOUND))
    defects.append(abs(eigs[-1] - CIRELSON_BOUND))
    worst = max(defects)
    return CheckResult(worst <= 1e-10, f"max defect {worst:.2e}")


def check_werner_linearity() -> CheckResult:
    worst = 0.0
    for v in np.linspace(0.0, 1.0, 21):
        got = bell_expectation(werner_state(float(v)))
        worst = max(worst, abs(got - float(v) * (-CIRELSON_BOUND)))
    return CheckResult(worst <= 1e-12, f"max |error| {worst:.2e}")


def check_distribution_normalization() -> CheckResult:
    rng = np.random.default_rng(911)
    worst_sum = 0.0
    worst_neg = 0.0
    for _ in range(10):
        for row in sweep_grid(random_two_qubit_state(rng), _THETA_SET).p_theory.tolist():
            worst_sum = max(worst_sum, abs(_left_sum(row) - 1.0))
            worst_neg = min(worst_neg, min(row))
    ok = worst_sum <= 1e-10 and worst_neg >= -1e-12
    return CheckResult(
        ok,
        f"|sum-1| <= {worst_sum:.2e}, min prob {worst_neg:.2e}",
    )


def check_marginal_consistency() -> CheckResult:
    rng = np.random.default_rng(517)
    worst = 0.0
    for _ in range(5):
        state = random_two_qubit_state(rng)
        rho_a = partial_trace(state.rho, keep="A")
        probs = joint_distribution(state, 30.0, 70.0).probs.tolist()
        povm_a = build_joint_povm("A", [30.0])[0]
        for (x, y), element in zip(OUTCOME_SIGNS, povm_a):
            marginal = _left_sum(
                p for m, p in zip(ALL_OUTCOMES, probs) if (m.x_a, m.y_a) == (x, y)
            )
            direct = float(np.real(np.trace(element @ rho_a)))
            worst = max(worst, abs(marginal - direct))
    return CheckResult(worst <= 1e-12, f"max |error| {worst:.2e}")


def check_theta45_degeneracy() -> CheckResult:
    probs = joint_distribution(singlet_state(), 45.0, 45.0).probs
    spread = max(float(np.ptp(probs[columns])) for columns in B_COLUMNS.values())
    return CheckResult(spread <= 1e-12, f"max in-group spread {spread:.2e}")


def check_visibility_scaling() -> CheckResult:
    rng = np.random.default_rng(2718)
    xa, ya = side_observables("A")
    xb, yb = side_observables("B")
    pairs = {
        ("x_a", "x_b"): np.kron(xa.matrix, xb.matrix),
        ("x_a", "y_b"): np.kron(xa.matrix, yb.matrix),
        ("y_a", "x_b"): np.kron(ya.matrix, xb.matrix),
        ("y_a", "y_b"): np.kron(ya.matrix, yb.matrix),
    }
    worst = 0.0
    for _ in range(5):
        state = random_two_qubit_state(rng)
        for theta in (20.0, 45.0, 70.0):
            dist = joint_distribution(state, theta, theta)
            c, s = math.cos(math.radians(theta)), math.sin(math.radians(theta))
            scale = {"x_a": c, "y_a": s, "x_b": c, "y_b": s}
            for (sa, sb), op in pairs.items():
                measured = _left_sum(
                    p * getattr(m, sa) * getattr(m, sb)
                    for m, p in zip(ALL_OUTCOMES, dist.probs.tolist())
                )
                sharp = float(np.real(np.trace(op @ state.rho)))
                worst = max(worst, abs(measured - scale[sa] * scale[sb] * sharp))
    # Equal visibilities: <b> is exactly half the Bell expectation.
    state = werner_state(0.9)
    half = aggregate_b(joint_distribution(state, 45.0, 45.0)).mean_b
    worst = max(worst, abs(half - 0.5 * bell_expectation(state)))
    return CheckResult(worst <= 1e-12, f"max |error| {worst:.2e}")


def check_flip_convolution() -> CheckResult:
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(10):
        state = random_two_qubit_state(rng)
        quasi = quasi_distribution(state)
        for theta, direct in zip(_THETA_SET, sweep_grid(state, _THETA_SET).p_theory):
            vis = VisibilityPair.from_theta(theta)
            worst = max(worst, float(np.max(np.abs(flip_convolve(quasi, vis, vis).probs - direct))))
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
    worst = 0.0
    state = werner_state(0.95)
    for side in ("A", "B"):
        for theta in np.arange(0.0, 90.0 + 1e-9, 10.0):
            est = joint_visibilities(state, float(theta), side)
            worst = max(worst, abs(est.radius - 1.0))
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
