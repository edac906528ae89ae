import math

import numpy as np
import pytest

from jointbell.core import (
    TwoQubitState,
    maximally_mixed_state,
    observable_from_angle,
    projector,
    random_two_qubit_state,
    side_observables,
    singlet_state,
    werner_state,
)
from jointbell.sim import (
    ALL_OUTCOMES,
    CountFileError,
    CountTable,
    JointDistribution,
    Outcome,
    _poisson,
    aggregate_b,
    angle_sweep,
    b_value,
    conditional_state,
    format_count_table,
    interferometer_visibility,
    joint_distribution,
    joint_visibilities,
    parse_count_table,
    probabilities_from_counts,
    quasi_distribution,
    read_count_table,
    sample_counts,
    write_count_table,
)

ROOT2 = math.sqrt(2.0)

# Table of b-values with side-A outcomes as columns [(+,+),(+,-),(-,+),(-,-)]
# and side-B outcomes as rows in the same order, written out by hand from
# b = x_A x_B - x_A y_B + y_A x_B + y_A y_B.
B_TABLE = [
    [2, -2, 2, -2],
    [2, 2, -2, -2],
    [-2, -2, 2, 2],
    [-2, 2, -2, 2],
]
SIGN_ORDER = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def expansion_probability(rho: np.ndarray, theta_a: float, theta_b: float, m: Outcome) -> float:
    """Independent oracle: expand the outcome probability into visibility-
    scaled expectation values of the sharp observables."""
    xa, ya = side_observables("A")
    xb, yb = side_observables("B")
    eye = np.eye(2, dtype=complex)
    va, wa = math.cos(math.radians(theta_a)), math.sin(math.radians(theta_a))
    vb, wb = math.cos(math.radians(theta_b)), math.sin(math.radians(theta_b))

    def ev(op_a, op_b):
        return float(np.real(np.trace(np.kron(op_a, op_b) @ rho)))

    total = (
        1.0
        + m.x_a * va * ev(xa.matrix, eye)
        + m.y_a * wa * ev(ya.matrix, eye)
        + m.x_b * vb * ev(eye, xb.matrix)
        + m.y_b * wb * ev(eye, yb.matrix)
        + m.x_a * m.x_b * va * vb * ev(xa.matrix, xb.matrix)
        + m.x_a * m.y_b * va * wb * ev(xa.matrix, yb.matrix)
        + m.y_a * m.x_b * wa * vb * ev(ya.matrix, xb.matrix)
        + m.y_a * m.y_b * wa * wb * ev(ya.matrix, yb.matrix)
    )
    return total / 16.0


def uniform_table(per_outcome: int, duration_s=None) -> CountTable:
    return CountTable(counts={m: per_outcome for m in ALL_OUTCOMES}, duration_s=duration_s)


class TestBValue:
    def test_full_table(self):
        for i, (xb, yb) in enumerate(SIGN_ORDER):
            for j, (xa, ya) in enumerate(SIGN_ORDER):
                assert b_value(Outcome(xa, ya, xb, yb)) == B_TABLE[i][j]

    def test_always_plus_minus_two(self):
        assert {b_value(m) for m in ALL_OUTCOMES} == {2, -2}
        assert sum(1 for m in ALL_OUTCOMES if b_value(m) == 2) == 8

    def test_named_examples(self):
        assert b_value(Outcome(1, 1, 1, 1)) == 2
        assert b_value(Outcome(1, -1, 1, 1)) == -2
        assert b_value(Outcome(1, 1, 1, -1)) == 2


class TestJointDistribution:
    def test_singlet_theta45_two_level(self):
        dist = joint_distribution(singlet_state(), 45.0, 45.0)
        for m in ALL_OUTCOMES:
            expected = (2.0 - ROOT2) / 32.0 if b_value(m) == 2 else (2.0 + ROOT2) / 32.0
            assert dist.probs[m] == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed_uniform(self):
        dist = joint_distribution(maximally_mixed_state(), 13.0, 77.0)
        for m in ALL_OUTCOMES:
            assert dist.probs[m] == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_singlet_theta0_grouped_by_x_product(self):
        # The side-B observables sit 22.5 degrees away from side A, so even
        # sharp X measurements are not perfectly anti-correlated: the
        # x_A x_B = +1 outcomes keep probability (1 - sqrt(2)/2)/16.
        dist = joint_distribution(singlet_state(), 0.0, 0.0)
        for m in ALL_OUTCOMES:
            expected = (1.0 - m.x_a * m.x_b * ROOT2 / 2.0) / 16.0
            assert dist.probs[m] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("thetas", [(0.0, 0.0), (20.0, 20.0), (45.0, 45.0), (30.0, 70.0), (90.0, 90.0)])
    def test_against_expansion_oracle(self, thetas):
        rng = np.random.default_rng(321)
        for _ in range(10):
            state = random_two_qubit_state(rng)
            dist = joint_distribution(state, *thetas)
            for m in ALL_OUTCOMES:
                oracle = expansion_probability(state.rho, thetas[0], thetas[1], m)
                assert dist.probs[m] == pytest.approx(oracle, abs=1e-12)
            assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-10)
            assert min(dist.probs.values()) >= -1e-12

    def test_marginals_match_single_povm(self):
        from jointbell.core import MeasurementSetting, build_joint_povm, partial_trace

        rng = np.random.default_rng(98)
        state = random_two_qubit_state(rng)
        dist = joint_distribution(state, 30.0, 70.0)
        rho_a = partial_trace(state.rho, "A")
        povm_a = build_joint_povm(MeasurementSetting(30.0, "A"))
        for (x, y), element in povm_a.elements.items():
            marginal = sum(p for m, p in dist.probs.items() if (m.x_a, m.y_a) == (x, y))
            direct = float(np.real(np.trace(element @ rho_a)))
            assert marginal == pytest.approx(direct, abs=1e-12)

    def test_correlations_scale_with_visibilities(self):
        # <x_A x_B> under the joint measurement is V_XA V_XB <X_A X_B>, and
        # at equal 45-degree settings <b> is half the Bell expectation.
        from jointbell.core import bell_expectation

        rng = np.random.default_rng(444)
        xa, ya = side_observables("A")
        xb, yb = side_observables("B")
        state = random_two_qubit_state(rng)
        for theta_a, theta_b in ((20.0, 20.0), (30.0, 70.0)):
            dist = joint_distribution(state, theta_a, theta_b)
            ca, sa = math.cos(math.radians(theta_a)), math.sin(math.radians(theta_a))
            cb, sb = math.cos(math.radians(theta_b)), math.sin(math.radians(theta_b))
            cases = (
                ("x_a", "x_b", ca * cb, np.kron(xa.matrix, xb.matrix)),
                ("x_a", "y_b", ca * sb, np.kron(xa.matrix, yb.matrix)),
                ("y_a", "x_b", sa * cb, np.kron(ya.matrix, xb.matrix)),
                ("y_a", "y_b", sa * sb, np.kron(ya.matrix, yb.matrix)),
            )
            for field_a, field_b, scale, op in cases:
                measured = sum(
                    p * getattr(m, field_a) * getattr(m, field_b)
                    for m, p in dist.probs.items()
                )
                sharp = float(np.real(np.trace(op @ state.rho)))
                assert measured == pytest.approx(scale * sharp, abs=1e-12)
        agg = aggregate_b(joint_distribution(state, 45.0, 45.0))
        assert agg.mean_b == pytest.approx(0.5 * bell_expectation(state), abs=1e-12)

    def test_distribution_validation(self):
        probs = {m: 1.0 / 16.0 for m in ALL_OUTCOMES}
        probs[Outcome(1, 1, 1, 1)] = 0.5
        with pytest.raises(ValueError):
            JointDistribution(probs=probs)
        short = {m: 1.0 / 15.0 for m in ALL_OUTCOMES[:15]}
        with pytest.raises(ValueError):
            JointDistribution(probs=short)


class TestAggregates:
    def test_singlet_theta45(self):
        agg = aggregate_b(joint_distribution(singlet_state(), 45.0, 45.0))
        assert agg.p_plus == pytest.approx((2.0 - ROOT2) / 4.0, abs=1e-12)
        assert agg.mean_b == pytest.approx(-ROOT2, abs=1e-12)
        assert agg.p_plus + agg.p_minus == pytest.approx(1.0, abs=1e-12)

    def test_werner_0975_matches_measured_values(self):
        agg = aggregate_b(joint_distribution(werner_state(0.975), 45.0, 45.0))
        assert agg.p_plus == pytest.approx(0.5 - 0.975 * ROOT2 / 4.0, abs=1e-12)
        assert agg.p_plus == pytest.approx(0.1554, abs=5e-4)
        assert agg.mean_b == pytest.approx(-1.3784, abs=2e-3)

    def test_reported_aggregate_pair(self):
        probs = {
            m: (0.1554 / 8.0 if b_value(m) == 2 else 0.8446 / 8.0) for m in ALL_OUTCOMES
        }
        agg = aggregate_b(JointDistribution(probs=probs))
        assert agg.mean_b == pytest.approx(-1.3784, abs=1e-12)


class TestQuasiDistribution:
    def test_singlet_values(self):
        quasi = quasi_distribution(singlet_state())
        for m in ALL_OUTCOMES:
            expected = (1.0 - ROOT2) / 16.0 if b_value(m) == 2 else (1.0 + ROOT2) / 16.0
            assert quasi.values[m] == pytest.approx(expected, abs=1e-12)
        assert sum(quasi.values.values()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        quasi = quasi_distribution(maximally_mixed_state())
        for m in ALL_OUTCOMES:
            assert quasi.values[m] == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_werner_0_9716_negative_entries(self):
        quasi = quasi_distribution(werner_state(0.9716))
        low = quasi.values[Outcome(1, 1, 1, -1)]
        assert low == pytest.approx((1.0 - 0.9716 * ROOT2) / 16.0, abs=1e-12)
        assert low == pytest.approx(-0.02336, abs=8e-5)

    def test_matches_unit_visibility_expansion(self):
        rng = np.random.default_rng(654)
        state = random_two_qubit_state(rng)
        quasi = quasi_distribution(state)
        for m in ALL_OUTCOMES:
            assert quasi.values[m] == pytest.approx(_unit_expansion(state.rho, m), abs=1e-12)


def _unit_expansion(rho: np.ndarray, m: Outcome) -> float:
    xa, ya = side_observables("A")
    xb, yb = side_observables("B")
    eye = np.eye(2, dtype=complex)

    def ev(a, b):
        return float(np.real(np.trace(np.kron(a, b) @ rho)))

    return (
        1.0
        + m.x_a * ev(xa.matrix, eye)
        + m.y_a * ev(ya.matrix, eye)
        + m.x_b * ev(eye, xb.matrix)
        + m.y_b * ev(eye, yb.matrix)
        + m.x_a * m.x_b * ev(xa.matrix, xb.matrix)
        + m.x_a * m.y_b * ev(xa.matrix, yb.matrix)
        + m.y_a * m.x_b * ev(ya.matrix, xb.matrix)
        + m.y_a * m.y_b * ev(ya.matrix, yb.matrix)
    ) / 16.0


class TestPoissonSampler:
    @pytest.mark.parametrize("mean", [0.4, 3.0, 9.9, 10.0, 40.0, 1000.0])
    def test_moments(self, mean):
        rng = np.random.Generator(np.random.PCG64(1234))
        n = 20000
        draws = np.array([_poisson(rng, mean) for _ in range(n)])
        # Sample mean within 6 standard errors; variance within 15 percent.
        assert abs(draws.mean() - mean) < 6.0 * math.sqrt(mean / n)
        assert abs(draws.var() / mean - 1.0) < 0.15

    def test_zero_mean(self):
        rng = np.random.Generator(np.random.PCG64(0))
        assert _poisson(rng, 0.0) == 0
        assert _poisson(rng, -1.0) == 0


class TestSampleCounts:
    def test_deterministic_per_seed(self):
        dist = joint_distribution(singlet_state(), 45.0, 45.0)
        t1 = sample_counts(dist, 1e5, seed=42)
        t2 = sample_counts(dist, 1e5, seed=42)
        t3 = sample_counts(dist, 1e5, seed=43)
        assert t1.counts == t2.counts
        assert t1.counts != t3.counts

    def test_degenerate_distribution(self):
        target = Outcome(1, 1, 1, 1)
        probs = {m: (1.0 if m == target else 0.0) for m in ALL_OUTCOMES}
        table = sample_counts(JointDistribution(probs=probs), 1000.0, seed=3)
        assert all(n == 0 for m, n in table.counts.items() if m != target)
        assert abs(table.counts[target] - 1000) < 6 * math.sqrt(1000)

    def test_singlet_theta45_low_counts_scale(self):
        dist = joint_distribution(singlet_state(), 45.0, 45.0)
        table = sample_counts(dist, 568352.0, seed=11)
        mean_low = (2.0 - ROOT2) / 32.0 * 568352.0
        for m in ALL_OUTCOMES:
            if b_value(m) == 2:
                assert abs(table.counts[m] - mean_low) < 3.0 * math.sqrt(mean_low)

    def test_input_validation(self):
        dist = joint_distribution(singlet_state(), 45.0, 45.0)
        with pytest.raises(ValueError):
            sample_counts(dist, 0.0, seed=1)
        with pytest.raises(ValueError):
            sample_counts(dist, -5.0, seed=1)
        with pytest.raises(ValueError):
            sample_counts(dist, 100.0, seed=-1)


class TestAngleSweep:
    THETAS = (0.0, 20.0, 45.0, 70.0, 90.0)

    def test_sampled_item_uses_seed_xor_index(self):
        state = werner_state(0.9716)
        items = list(angle_sweep(state, self.THETAS, mean_total=5e4, seed=6))
        assert [item.theta_deg for item in items] == list(self.THETAS)
        for i, item in enumerate(items):
            dist = joint_distribution(state, item.theta_deg, item.theta_deg)
            assert item.dist == dist
            expected = sample_counts(dist, 5e4, seed=6 ^ i)
            assert item.table == expected
            assert (item.observed, item.errors) == probabilities_from_counts(expected)

    @pytest.mark.parametrize("mean_total, seed", [(None, None), (5e4, None), (None, 3)])
    def test_unsampled_item_carries_no_table(self, mean_total, seed):
        for item in angle_sweep(singlet_state(), self.THETAS, mean_total, seed):
            assert item.dist == joint_distribution(singlet_state(), item.theta_deg, item.theta_deg)
            assert item.table is None and item.observed is None and item.errors is None

    def test_lazy_over_angles(self):
        consumed = []

        def thetas():
            for theta in self.THETAS:
                consumed.append(theta)
                yield theta

        items = angle_sweep(singlet_state(), thetas(), mean_total=1e3, seed=1)
        assert consumed == []
        next(items)
        assert consumed == [0.0]

    def test_sampling_arguments_checked_before_first_angle(self):
        with pytest.raises(ValueError, match="positive"):
            angle_sweep(singlet_state(), iter(()), mean_total=0.0, seed=1)
        with pytest.raises(ValueError, match="non-negative"):
            angle_sweep(singlet_state(), iter(()), mean_total=1e3, seed=-1)


class TestProbabilitiesFromCounts:
    def test_quoted_low_probability_entries(self):
        # 74.5 cps over 10 s -> 745 counts of a 568352 total.
        counts = {m: 0 for m in ALL_OUTCOMES}
        counts[Outcome(1, 1, 1, -1)] = 745
        counts[Outcome(-1, -1, -1, 1)] = 878
        remainder = 568352 - 745 - 878
        others = [m for m in ALL_OUTCOMES if counts[m] == 0]
        for i, m in enumerate(others):
            counts[m] = remainder // 14 + (1 if i < remainder % 14 else 0)
        dist, errors = probabilities_from_counts(CountTable(counts=counts))
        assert dist.probs[Outcome(1, 1, 1, -1)] == pytest.approx(0.001311, abs=5e-7)
        assert dist.probs[Outcome(-1, -1, -1, 1)] == pytest.approx(0.001545, abs=5e-7)
        assert errors[Outcome(1, 1, 1, -1)] == pytest.approx(math.sqrt(745) / 568352, abs=1e-12)

    def test_second_quoted_total(self):
        counts = {m: 0 for m in ALL_OUTCOMES}
        counts[Outcome(-1, 1, 1, 1)] = 1140
        counts[Outcome(1, -1, -1, -1)] = 1448
        remainder = 548422 - 1140 - 1448
        others = [m for m in ALL_OUTCOMES if counts[m] == 0]
        for i, m in enumerate(others):
            counts[m] = remainder // 14 + (1 if i < remainder % 14 else 0)
        dist, _ = probabilities_from_counts(CountTable(counts=counts))
        assert dist.probs[Outcome(-1, 1, 1, 1)] == pytest.approx(0.002079, abs=5e-7)
        assert dist.probs[Outcome(1, -1, -1, -1)] == pytest.approx(0.002640, abs=5e-7)

    def test_uniform_counts(self):
        dist, errors = probabilities_from_counts(uniform_table(100))
        assert all(p == pytest.approx(1 / 16, abs=1e-15) for p in dist.probs.values())
        assert all(e == pytest.approx(10 / 1600, abs=1e-15) for e in errors.values())

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            probabilities_from_counts(uniform_table(0))

    def test_monte_carlo_recovery(self):
        dist = joint_distribution(werner_state(0.9716), 20.0, 20.0)
        table = sample_counts(dist, 1e7, seed=2024)
        recovered, errors = probabilities_from_counts(table)
        for m in ALL_OUTCOMES:
            assert abs(recovered.probs[m] - dist.probs[m]) < 5.0 * errors[m]


class TestConditionalState:
    def test_singlet_projection_prepares_pure_state(self):
        rho_a = conditional_state(singlet_state(), "B", 90.0)
        assert np.allclose(rho_a, projector(0.0), atol=1e-12)

    def test_maximally_mixed_stays_mixed(self):
        rho_a = conditional_state(maximally_mixed_state(), "B", 37.0)
        assert np.allclose(rho_a, np.eye(2) / 2, atol=1e-12)

    def test_werner_expectation(self):
        rho_a = conditional_state(werner_state(0.975), "B", 90.0)
        x_a = observable_from_angle(0.0).matrix
        assert np.real(np.trace(rho_a @ x_a)) == pytest.approx(0.975, abs=1e-12)

    def test_zero_probability_projection(self):
        h = projector(0.0)
        product = TwoQubitState(rho=np.kron(h, h))
        with pytest.raises(ValueError):
            conditional_state(product, "B", 90.0)

    def test_projecting_side_a(self):
        rho_b = conditional_state(singlet_state(), "A", 0.0)
        assert np.allclose(rho_b, projector(90.0), atol=1e-12)


class TestJointVisibilities:
    def test_theta20_values(self):
        est = joint_visibilities(singlet_state(), 20.0, "A")
        assert est.vx == pytest.approx(0.9397, abs=5e-5)
        assert est.vy == pytest.approx(0.3420, abs=5e-5)
        assert est.radius == pytest.approx(1.0, abs=1e-12)

    def test_theta0_sharp_x(self):
        est = joint_visibilities(singlet_state(), 0.0, "A")
        assert est.vx == pytest.approx(1.0, abs=1e-12)
        assert est.vy == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_radius_one_on_grid(self, side):
        state = werner_state(0.93)
        for theta in np.arange(0.0, 90.0 + 1e-9, 10.0):
            est = joint_visibilities(state, float(theta), side)
            assert est.radius == pytest.approx(1.0, abs=1e-10)
            assert est.vx == pytest.approx(math.cos(math.radians(theta)), abs=1e-10)
            assert est.vy == pytest.approx(math.sin(math.radians(theta)), abs=1e-10)

    def test_undefined_for_uncorrelated_state(self):
        with pytest.raises(ValueError):
            joint_visibilities(maximally_mixed_state(), 45.0, "A")


class TestInterferometerVisibility:
    def test_extremes(self):
        assert interferometer_visibility(100, 100, 0, 0) == pytest.approx(1.0)
        assert interferometer_visibility(50, 50, 50, 50) == pytest.approx(0.0)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            interferometer_visibility(0, 0, 0, 0)
        with pytest.raises(ValueError):
            interferometer_visibility(-1, 2, 0, 0)

    def test_werner_rates_give_source_visibility(self):
        # Parallel-polarizer coincidence probabilities at angle phi.
        state = werner_state(0.98)
        phi = 0.0
        plus = projector(phi)
        minus = projector(phi + 90.0)
        def rate(pa, pb):
            return float(np.real(np.trace(np.kron(pa, pb) @ state.rho)))
        v = interferometer_visibility(
            rate(plus, minus), rate(minus, plus), rate(plus, plus), rate(minus, minus)
        )
        assert v == pytest.approx(0.98, abs=1e-12)

    def test_sampled_counts_near_source_visibility(self):
        state = werner_state(0.98)
        rng = np.random.Generator(np.random.PCG64(8))
        plus, minus = projector(0.0), projector(90.0)
        def rate(pa, pb):
            return float(np.real(np.trace(np.kron(pa, pb) @ state.rho)))
        n = [
            _poisson(rng, rate(a, b) * 1e5)
            for a, b in ((plus, minus), (minus, plus), (plus, plus), (minus, minus))
        ]
        assert interferometer_visibility(*n) == pytest.approx(0.980, abs=0.004)


class TestCountTableFormat:
    def test_round_trip(self):
        dist = joint_distribution(werner_state(0.9), 20.0, 20.0)
        table = sample_counts(dist, 1e5, seed=5, duration_s=10.0)
        text = format_count_table(table)
        parsed = parse_count_table(text)
        assert parsed.counts == table.counts
        assert parsed.duration_s == 10.0
        assert format_count_table(parsed) == text

    def test_file_round_trip(self, tmp_path):
        table = uniform_table(7, duration_s=2.5)
        path = tmp_path / "t.csv"
        write_count_table(table, path)
        again = read_count_table(path)
        assert again.counts == table.counts
        assert again.duration_s == 2.5
        write_count_table(again, tmp_path / "t2.csv")
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()

    def test_header_required(self):
        with pytest.raises(CountFileError, match="header"):
            parse_count_table("a,b,c\n")

    def test_missing_outcome_named(self):
        text = format_count_table(uniform_table(3))
        lines = text.strip().splitlines()
        clipped = "\n".join(lines[:-1]) + "\n"
        with pytest.raises(CountFileError, match=r"missing outcome \(-,-;-,-\)"):
            parse_count_table(clipped)

    def test_duplicate_outcome_named(self):
        text = format_count_table(uniform_table(3))
        lines = text.strip().splitlines()
        lines[-1] = lines[2]
        with pytest.raises(CountFileError, match="duplicate outcome"):
            parse_count_table("\n".join(lines) + "\n")

    def test_malformed_rows_name_the_row(self):
        good = format_count_table(uniform_table(3)).strip().splitlines()
        bad_sign = good.copy()
        bad_sign[4] = bad_sign[4].replace("+1", "1", 1)
        with pytest.raises(CountFileError, match="row 5"):
            parse_count_table("\n".join(bad_sign) + "\n")
        bad_count = good.copy()
        bad_count[6] = bad_count[6].rsplit(",", 1)[0] + ",3.5"
        with pytest.raises(CountFileError, match="row 7"):
            parse_count_table("\n".join(bad_count) + "\n")
        negative = good.copy()
        negative[3] = negative[3].rsplit(",", 1)[0] + ",-2"
        with pytest.raises(CountFileError, match="row 4"):
            parse_count_table("\n".join(negative) + "\n")

    def test_unknown_metadata_rejected(self):
        text = format_count_table(uniform_table(3)) + "# other=1\n"
        with pytest.raises(CountFileError, match="metadata"):
            parse_count_table(text)

    def test_negative_count_table_rejected(self):
        counts = {m: 1 for m in ALL_OUTCOMES}
        counts[Outcome(1, 1, 1, 1)] = -1
        with pytest.raises(ValueError):
            CountTable(counts=counts)
