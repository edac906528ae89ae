"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import json
import math

import numpy as np
from click.testing import CliRunner

from jointbell.cli import main
from jointbell.core import (
    CIRELSON_BOUND,
    MeasurementSetting,
    UncertaintyViolationError,
    VisibilityPair,
    build_joint_povm,
    min_eigenvalue,
    povm_elements,
    povm_from_visibilities,
    random_two_qubit_state,
    singlet_state,
    werner_state,
)
from jointbell.sim import (
    ALL_OUTCOMES,
    Outcome,
    aggregate_b,
    joint_distribution,
    joint_visibilities,
    probabilities_from_counts,
    quasi_distribution,
    sample_counts,
)
from jointbell.analysis import (
    MINIMAL_OUTCOMES,
    cirelson_floor,
    fit_bell_magnitude,
    flip_convolve,
    intrinsic_probs,
    pbflip_outcome,
    predicted_probability,
)

ROOT2 = math.sqrt(2.0)


def _report(number: int, ok: bool, label: str) -> None:
    print(f"acceptance {number:02d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def _vis(theta_deg: float) -> VisibilityPair:
    t = math.radians(theta_deg)
    return VisibilityPair(math.cos(t), math.sin(t))


def closed_form_y_family(vx, vy):
    return 0.25 * (2.0 - vx * vx - 2.0 * vx * vy + vy * vy)


def closed_form_x_family(vx, vy):
    return 0.25 * (2.0 + vx * vx - 2.0 * vx * vy - vy * vy)


def test_criterion_01_ideal_theta45():
    agg = aggregate_b(joint_distribution(singlet_state(), 45.0, 45.0))
    err_p = abs(agg.p_plus - (2.0 - ROOT2) / 4.0)
    err_b = abs(agg.mean_b - (-ROOT2))
    _report(
        1,
        err_p < 1e-9 and err_b < 1e-9,
        f"singlet at 45 deg: |P(b=+2) - (2-sqrt2)/4| = {err_p:.2e}, "
        f"|<b> + sqrt2| = {err_b:.2e} (tol 1e-9)",
    )


def test_criterion_02_werner_0975_reproduction():
    agg = aggregate_b(joint_distribution(werner_state(0.975), 45.0, 45.0))
    err_p = abs(agg.p_plus - 0.1554)
    err_b = abs(agg.mean_b - (-1.3784))
    _report(
        2,
        err_p < 5e-4 and err_b < 2e-3,
        f"werner(0.975) at 45 deg: |P(b=+2) - 0.1554| = {err_p:.2e} (tol 5e-4), "
        f"|<b> + 1.3784| = {err_b:.2e} (tol 2e-3)",
    )


def test_criterion_03_error_probability_closed_forms():
    worst = 0.0
    for theta in range(0, 91):
        v = _vis(float(theta))
        for m in (Outcome(1, 1, 1, -1), Outcome(-1, -1, -1, 1)):
            worst = max(worst, abs(pbflip_outcome(m, v, v) - closed_form_y_family(v.vx, v.vy)))
        for m in (Outcome(-1, 1, 1, 1), Outcome(1, -1, -1, -1)):
            worst = max(worst, abs(pbflip_outcome(m, v, v) - closed_form_x_family(v.vx, v.vy)))
    at20 = pbflip_outcome(Outcome(1, 1, 1, -1), _vis(20.0), _vis(20.0))
    at225 = pbflip_outcome(Outcome(1, 1, 1, -1), _vis(22.5), _vis(22.5))
    err20 = abs(at20 - 0.1478)
    err225 = abs(at225 - (2.0 - ROOT2) / 4.0)
    _report(
        3,
        worst < 1e-12 and err20 < 5e-5 and err225 < 1e-9,
        f"p_bflip = 1/2 - b(m) b(m o V)/8 vs per-family closed forms: "
        f"max |diff| = {worst:.2e} (tol 1e-12); "
        f"theta=20: |{at20:.6f} - 0.1478| = {err20:.2e} (tol 5e-5); "
        f"theta=22.5 vs (2-sqrt2)/4: {err225:.2e} (tol 1e-9)",
    )


def test_criterion_04_cirelson_saturation():
    at_floor = predicted_probability(CIRELSON_BOUND, cirelson_floor(CIRELSON_BOUND))
    state = singlet_state()
    grid = [round(0.5 * k, 1) for k in range(0, 181)]
    dists = {t: joint_distribution(state, t, t) for t in grid}
    ok = abs(at_floor) < 1e-12
    details = [f"prediction at the floor = {at_floor:.2e} (tol 1e-12)"]
    for m, theta_star in (
        (Outcome(1, 1, 1, -1), 22.5),
        (Outcome(-1, -1, -1, 1), 22.5),
        (Outcome(-1, 1, 1, 1), 67.5),
        (Outcome(1, -1, -1, -1), 67.5),
    ):
        curve = {t: dists[t].probs[ALL_OUTCOMES.index(m)] for t in grid}
        argmin = min(curve, key=curve.get)
        near_zero = [t for t, p in curve.items() if abs(p) < 1e-10]
        ok = ok and argmin == theta_star and near_zero == [theta_star]
        details.append(f"{m.label()} vanishes only at {argmin} deg")
    _report(4, ok, "; ".join(details))


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(20240)
    thetas = (0.0, 20.0, 40.0, 45.0, 50.0, 70.0, 90.0)
    worst = 0.0
    for _ in range(100):
        state = random_two_qubit_state(rng)
        quasi = quasi_distribution(state)
        for theta in thetas:
            v = _vis(theta)
            convolved = flip_convolve(quasi, v, v)
            direct = joint_distribution(state, theta, theta)
            for i in range(16):
                worst = max(worst, abs(convolved.probs[i] - direct.probs[i]))
    _report(
        5,
        worst < 1e-10,
        f"flip convolution vs direct joint distribution over 100 random states x 7 angles: "
        f"max |diff| = {worst:.2e} (tol 1e-10)",
    )


def test_criterion_06_fit_reproduction():
    state = werner_state(0.9716)
    points = []
    for theta in range(0, 91, 10):
        v = _vis(float(theta))
        dist = joint_distribution(state, float(theta), float(theta))
        for m in MINIMAL_OUTCOMES:
            points.append((pbflip_outcome(m, v, v), dist.probs[ALL_OUTCOMES.index(m)]))
    result = fit_bell_magnitude(points)
    ratio = result.bell_magnitude / CIRELSON_BOUND
    err_slope = abs(result.slope - 0.17173)
    err_intercept = abs(result.intercept - (-0.02336))
    err_ratio = abs(ratio - 0.9716)
    _report(
        6,
        err_slope < 2e-4 and err_intercept < 2e-4 and err_ratio < 1e-3,
        f"noiseless werner(0.9716) sweep: slope {result.slope:.6f} "
        f"(|diff| {err_slope:.2e}, tol 2e-4), intercept {result.intercept:.6f} "
        f"(|diff| {err_intercept:.2e}, tol 2e-4), ratio {ratio:.6f} "
        f"(|diff| {err_ratio:.2e}, tol 1e-3)",
    )


def test_criterion_07_povm_property_suite():
    worst_eig = 0.0
    worst_sum = 0.0
    for side in ("A", "B"):
        for theta in np.arange(0.0, 90.0 + 1e-9, 0.5):
            povm = build_joint_povm(MeasurementSetting(float(theta), side))
            worst_eig = min(worst_eig, min_eigenvalue(povm))
            worst_sum = max(worst_sum, float(np.max(np.abs(povm.sum(axis=0) - np.eye(2)))))
    vx = vy = math.sqrt(1.01 / 2.0)
    low = min(min_eigenvalue(e) for e in povm_elements("A", vx, vy))
    rejected = False
    try:
        povm_from_visibilities("A", VisibilityPair(vx, vy))
    except UncertaintyViolationError:
        rejected = True
    _report(
        7,
        worst_eig >= -1e-12 and worst_sum <= 1e-12 and low < 0 and rejected,
        f"0.5 deg grid both sides: min eigenvalue {worst_eig:.2e} (tol -1e-12), "
        f"max |sum - I| = {worst_sum:.2e} (tol 1e-12); vx^2+vy^2 = 1.01 gives "
        f"min eigenvalue {low:.2e} < 0 and is rejected",
    )


def test_criterion_08_visibility_circle():
    worst = 0.0
    state = singlet_state()
    for side in ("A", "B"):
        for theta in range(0, 91, 10):
            est = joint_visibilities(state, float(theta), side)
            worst = max(worst, abs(est.radius - 1.0))
    _report(
        8,
        worst < 1e-10,
        f"visibility radius over both sides x theta in 0..90 step 10: "
        f"max |radius - 1| = {worst:.2e} (tol 1e-10)",
    )


def test_criterion_09_monte_carlo_statistics():
    mean_total = 568352.0
    truth = joint_distribution(werner_state(0.9716), 20.0, 20.0)
    outlier_pairs = 0
    for seed in range(100):
        table = sample_counts(truth, mean_total, seed=seed)
        recovered, errors = probabilities_from_counts(table)
        for i in range(16):
            sigma = errors[i] if errors[i] > 0 else 1.0 / table.total()
            if abs(recovered.probs[i] - truth.probs[i]) > 5.0 * sigma:
                outlier_pairs += 1
    outlier_fraction = outlier_pairs / (100 * 16)

    runner = CliRunner()
    magnitude_truth = 0.9716 * CIRELSON_BOUND
    hits = 0
    with runner.isolated_filesystem():
        thetas = ",".join(str(t) for t in range(0, 91, 10))
        for seed in range(100):
            sweep_result = runner.invoke(main, [
                "sweep", "--state", "werner:0.9716", "--thetas", thetas,
                "--sample", "--mean-total", str(mean_total), "--seed", str(seed),
                "--out", f"sweep_{seed}.csv",
            ])
            assert sweep_result.exit_code == 0, sweep_result.output
            fit_result = runner.invoke(main, ["fit", f"sweep_{seed}.csv"])
            assert fit_result.exit_code == 0, fit_result.output
            report = json.loads(fit_result.output)
            if abs(report["bell_magnitude"] - magnitude_truth) <= 3.0 * report["bell_magnitude_std_err"]:
                hits += 1
    _report(
        9,
        outlier_fraction < 0.01 and hits >= 95,
        f"count frequencies beyond 5 sigma in {outlier_fraction:.2%} of (seed, outcome) "
        f"pairs (tol < 1%); fitted |<B>| within 3 reported std errs in {hits}/100 seeds "
        f"(need >= 95)",
    )


def test_criterion_10_negative_extrapolation():
    worst = 0.0
    for magnitude in (2.0, 2.5, CIRELSON_BOUND):
        zero_error = predicted_probability(magnitude, 0.0)
        low = intrinsic_probs(magnitude)[1]
        worst = max(worst, abs(zero_error - low))
    _report(
        10,
        worst <= 1e-15,
        f"zero-error extrapolation equals the intrinsic low probability: "
        f"max |diff| = {worst:.2e} (tol 1e-15)",
    )
