import io
import itertools
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointbell import analysis, sim
from jointbell.analysis import pbflip_grid, read_sweep, write_sweep
from jointbell.core import (
    TwoQubitState,
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
    QuasiDistribution,
    SweepGrid,
    _draw,
    aggregate_b,
    b_value,
    conditional_state,
    format_count_table,
    joint_distribution,
    joint_visibilities,
    parse_count_table,
    probabilities_from_counts,
    quasi_distribution,
    read_count_table,
    sample_counts,
    sweep_grid,
    write_count_table,
)
from test_cli import rows_one_at_a_time

ROOT2 = math.sqrt(2.0)


def maximally_mixed_state() -> TwoQubitState:
    return TwoQubitState(rho=np.eye(4, dtype=complex) / 4.0)


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
        + m.x_a * va * ev(xa, eye)
        + m.y_a * wa * ev(ya, eye)
        + m.x_b * vb * ev(eye, xb)
        + m.y_b * wb * ev(eye, yb)
        + m.x_a * m.x_b * va * vb * ev(xa, xb)
        + m.x_a * m.y_b * va * wb * ev(xa, yb)
        + m.y_a * m.x_b * wa * vb * ev(ya, xb)
        + m.y_a * m.y_b * wa * wb * ev(ya, yb)
    )
    return total / 16.0


def uniform_table(per_outcome: int, duration_s=None) -> CountTable:
    return CountTable(counts=[per_outcome] * 16, duration_s=duration_s)


def column(m: Outcome) -> int:
    """The index of ``m`` in the (16,) arrays of distributions and count tables."""
    return ALL_OUTCOMES.index(m)


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
        for i, m in enumerate(ALL_OUTCOMES):
            expected = (2.0 - ROOT2) / 32.0 if b_value(m) == 2 else (2.0 + ROOT2) / 32.0
            assert dist.probs[i] == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed_uniform(self):
        dist = joint_distribution(maximally_mixed_state(), 13.0, 77.0)
        for i in range(16):
            assert dist.probs[i] == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_singlet_theta0_grouped_by_x_product(self):
        # The side-B observables sit 22.5 degrees away from side A, so even
        # sharp X measurements are not perfectly anti-correlated: the
        # x_A x_B = +1 outcomes keep probability (1 - sqrt(2)/2)/16.
        dist = joint_distribution(singlet_state(), 0.0, 0.0)
        for i, m in enumerate(ALL_OUTCOMES):
            expected = (1.0 - m.x_a * m.x_b * ROOT2 / 2.0) / 16.0
            assert dist.probs[i] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("thetas", [(0.0, 0.0), (20.0, 20.0), (45.0, 45.0), (30.0, 70.0), (90.0, 90.0)])
    def test_against_expansion_oracle(self, thetas):
        rng = np.random.default_rng(321)
        for _ in range(10):
            state = random_two_qubit_state(rng)
            dist = joint_distribution(state, *thetas)
            for i, m in enumerate(ALL_OUTCOMES):
                oracle = expansion_probability(state.rho, thetas[0], thetas[1], m)
                assert dist.probs[i] == pytest.approx(oracle, abs=1e-12)
            assert sum(dist.probs) == pytest.approx(1.0, abs=1e-10)
            assert min(dist.probs) >= -1e-12

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
                ("x_a", "x_b", ca * cb, np.kron(xa, xb)),
                ("x_a", "y_b", ca * sb, np.kron(xa, yb)),
                ("y_a", "x_b", sa * cb, np.kron(ya, xb)),
                ("y_a", "y_b", sa * sb, np.kron(ya, yb)),
            )
            for field_a, field_b, scale, op in cases:
                measured = sum(
                    p * getattr(m, field_a) * getattr(m, field_b)
                    for m, p in zip(ALL_OUTCOMES, dist.probs)
                )
                sharp = float(np.real(np.trace(op @ state.rho)))
                assert measured == pytest.approx(scale * sharp, abs=1e-12)
        agg = aggregate_b(joint_distribution(state, 45.0, 45.0))
        assert agg.mean_b == pytest.approx(0.5 * bell_expectation(state), abs=1e-12)

    def test_arrays_are_read_only_copies(self):
        probs = np.full(16, 1.0 / 16.0)
        dist = JointDistribution(probs)
        probs[0] = 0.5  # the distribution holds its own copy
        assert dist.probs.shape == (16,) and dist.probs.tolist() == [1.0 / 16.0] * 16
        table = CountTable(range(16))
        assert table.counts.dtype == np.int64 and table.total() == 120
        quasi = quasi_distribution(singlet_state())
        for array in (dist.probs, table.counts, quasi.values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_distribution_validation(self):
        probs = [1.0 / 16.0] * 16
        probs[column(Outcome(1, 1, 1, 1))] = 0.5
        with pytest.raises(ValueError):
            JointDistribution(probs=probs)
        # NaN passes the comparison-based sign and sum guards unnoticed.
        for bad in (math.nan, math.inf):
            probs[column(Outcome(1, 1, 1, 1))] = bad
            with pytest.raises(ValueError, match="finite"):
                JointDistribution(probs=probs)
            with pytest.raises(ValueError, match="finite"):
                QuasiDistribution(values=probs)
            with pytest.raises(ValueError, match="finite"):
                JointDistribution(probs=[bad] * 16)
        short = [1.0 / 15.0] * 15
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
        probs = [0.1554 / 8.0 if b_value(m) == 2 else 0.8446 / 8.0 for m in ALL_OUTCOMES]
        agg = aggregate_b(JointDistribution(probs=probs))
        assert agg.mean_b == pytest.approx(-1.3784, abs=1e-12)


class TestQuasiDistribution:
    def test_singlet_values(self):
        quasi = quasi_distribution(singlet_state())
        for i, m in enumerate(ALL_OUTCOMES):
            expected = (1.0 - ROOT2) / 16.0 if b_value(m) == 2 else (1.0 + ROOT2) / 16.0
            assert quasi.values[i] == pytest.approx(expected, abs=1e-12)
        assert sum(quasi.values) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        quasi = quasi_distribution(maximally_mixed_state())
        for i in range(16):
            assert quasi.values[i] == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_werner_0_9716_negative_entries(self):
        quasi = quasi_distribution(werner_state(0.9716))
        low = quasi.values[column(Outcome(1, 1, 1, -1))]
        assert low == pytest.approx((1.0 - 0.9716 * ROOT2) / 16.0, abs=1e-12)
        assert low == pytest.approx(-0.02336, abs=8e-5)

    def test_matches_unit_visibility_expansion(self):
        rng = np.random.default_rng(654)
        state = random_two_qubit_state(rng)
        quasi = quasi_distribution(state)
        for i, m in enumerate(ALL_OUTCOMES):
            assert quasi.values[i] == pytest.approx(_unit_expansion(state.rho, m), abs=1e-12)


def _unit_expansion(rho: np.ndarray, m: Outcome) -> float:
    xa, ya = side_observables("A")
    xb, yb = side_observables("B")
    eye = np.eye(2, dtype=complex)

    def ev(a, b):
        return float(np.real(np.trace(np.kron(a, b) @ rho)))

    return (
        1.0
        + m.x_a * ev(xa, eye)
        + m.y_a * ev(ya, eye)
        + m.x_b * ev(eye, xb)
        + m.y_b * ev(eye, yb)
        + m.x_a * m.x_b * ev(xa, xb)
        + m.x_a * m.y_b * ev(xa, yb)
        + m.y_a * m.x_b * ev(ya, xb)
        + m.y_a * m.y_b * ev(ya, yb)
    ) / 16.0


def poisson_pmf(k: int, mean: float) -> float:
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1.0))


def chi2_upper(df: int, z: float) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile z standard deviations up."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


class TestPoissonSampler:
    @pytest.mark.parametrize("mean", [0.4, 3.0, 9.9, 10.0, 40.0, 1000.0])
    def test_moments(self, mean):
        n = 20000
        draws = _draw([1.0] * n, mean, 1234)
        # Sample mean within 6 standard errors; variance within 15 percent.
        assert abs(draws.mean() - mean) < 6.0 * math.sqrt(mean / n)
        assert abs(draws.var() / mean - 1.0) < 0.15

    # Multiplication method below mean 10, PTRS from 10 up.
    @pytest.mark.parametrize("mean, seed", [(0.4, 21), (3.0, 22), (9.9, 23), (10.0, 24), (40.0, 25)])
    def test_frequencies_follow_pmf(self, mean, seed):
        n = 20000
        draws = _draw([1.0] * n, mean, seed)
        # Bins k = lo..hi with expected count >= 20 each; both tails pooled into the end bins.
        ks = [k for k in range(int(mean + 12 * math.sqrt(mean)) + 12) if n * poisson_pmf(k, mean) >= 20]
        lo, hi = ks[0], ks[-1]
        expected = [n * poisson_pmf(k, mean) for k in range(lo, hi + 1)]
        expected[0] += n * sum(poisson_pmf(k, mean) for k in range(lo))
        expected[-1] = n - sum(expected[:-1])
        observed = np.bincount(np.clip(draws, lo, hi) - lo, minlength=hi - lo + 1)
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed.tolist(), expected))
        assert chi2 < chi2_upper(len(expected) - 1, 3.7)

    def test_flat_table_is_scalar_draws_on_one_stream(self):
        # Zero means, multiplication below mean 10 and PTRS from 10, drawn in C order.
        means = [0.0, 3.0, 40.0, 0.0, 0.4, 9.99, 10.0, 1e4, 0.0, 7.5, 250.0, 2.0] * 4
        rng = np.random.RandomState(np.random.PCG64(31))
        assert _draw(means, 1.0, 31).tolist() == [rng.poisson(mean) for mean in means]

    def test_zero_mean(self):
        # Zero and negative means draw 0 without consuming the stream.
        probs = [0.02, 0.5]  # means 2 and 50 at mean_total 100: both branches
        padded = _draw([0.0, -1.0, *probs], 100.0, 9)
        assert padded[:2].tolist() == [0, 0]
        assert padded[2:].tolist() == _draw(probs, 100.0, 9).tolist()


class TestSampleCounts:
    def test_deterministic_per_seed(self):
        dist = joint_distribution(singlet_state(), 45.0, 45.0)
        t1 = sample_counts(dist, 1e5, seed=42)
        t2 = sample_counts(dist, 1e5, seed=42)
        t3 = sample_counts(dist, 1e5, seed=43)
        assert t1.counts.tolist() == t2.counts.tolist()
        assert t1.counts.tolist() != t3.counts.tolist()

    def test_degenerate_distribution(self):
        target = Outcome(1, 1, 1, 1)
        probs = [1.0 if m == target else 0.0 for m in ALL_OUTCOMES]
        table = sample_counts(JointDistribution(probs=probs), 1000.0, seed=3)
        assert all(n == 0 for m, n in zip(ALL_OUTCOMES, table.counts) if m != target)
        assert abs(table.counts[column(target)] - 1000) < 6 * math.sqrt(1000)

    def test_singlet_theta45_low_counts_scale(self):
        dist = joint_distribution(singlet_state(), 45.0, 45.0)
        table = sample_counts(dist, 568352.0, seed=11)
        mean_low = (2.0 - ROOT2) / 32.0 * 568352.0
        for i, m in enumerate(ALL_OUTCOMES):
            if b_value(m) == 2:
                assert abs(table.counts[i] - mean_low) < 3.0 * math.sqrt(mean_low)

    def test_input_validation(self):
        dist = joint_distribution(singlet_state(), 45.0, 45.0)
        with pytest.raises(ValueError):
            sample_counts(dist, 0.0, seed=1)
        with pytest.raises(ValueError):
            sample_counts(dist, -5.0, seed=1)
        with pytest.raises(ValueError):
            sample_counts(dist, 100.0, seed=-1)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got None"):
            sample_counts(dist, 1e3, None)
        for mean_total in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                sample_counts(dist, mean_total, seed=1)

    def test_mean_total_upper_bound(self):
        # Above 2**52 the Poisson draw could overflow or leave the exact-integer float range.
        dist = joint_distribution(singlet_state(), 45.0, 45.0)
        table = sample_counts(dist, 2.0**52, seed=1)
        assert 0 < max(table.counts) < 2**53
        for mean_total in (math.nextafter(2.0**52, math.inf), 1e307, 1e308):
            with pytest.raises(ValueError, match=r"positive and at most 2\*\*52"):
                sample_counts(dist, mean_total, seed=1)


# Literal streams: a change to the sampler or to a sweep's stream must update these on purpose.
SEEDED_STREAMS = {
    "werner-theta20-seed42": [
        11207, 1182, 69489, 60122, 32278, 11078, 60028, 38499,
        38560, 60188, 11201, 32670, 59904, 69598, 1123, 11108,
    ],
    "singlet-theta45-seed3": [0, 2, 5, 10, 13, 2, 11, 3, 1, 21, 3, 14, 13, 17, 2, 1],
    "sweep-seed7-theta10": [
        11155, 4298, 66649, 60156, 20852, 11039, 59930, 50186,
        49909, 60005, 11107, 20990, 59924, 66947, 4218, 11231,
    ],
    "sweep-seed7-theta20": [
        11044, 1141, 70010, 59536, 32518, 11075, 59425, 38428,
        38730, 60000, 11172, 32484, 59859, 70699, 1157, 11257,
    ],
}


class TestSeededStreams:
    def test_werner_table(self):
        dist = joint_distribution(werner_state(0.9716), 20.0, 20.0)
        table = sample_counts(dist, 568352, seed=42)
        assert table.counts.tolist() == SEEDED_STREAMS["werner-theta20-seed42"]

    def test_singlet_table_uses_both_sampler_branches(self):
        dist = joint_distribution(singlet_state(), 45.0, 45.0)
        means = {round(p * 100, 2) for p in dist.probs.tolist()}
        assert means == {1.83, 10.67}  # multiplication below mean 10, PTRS above
        table = sample_counts(dist, 100, seed=3)
        assert table.counts.tolist() == SEEDED_STREAMS["singlet-theta45-seed3"]


def trace_oracle(rho: np.ndarray, theta: float) -> list[float]:
    """Independent oracle: tr[(E_A (x) E_B) rho] outcome by outcome, with each element
    (I + x cos(theta) X + y sin(theta) Y)/4 built from the closed rotation forms
    cos(2a) Z + sin(2a) X of the four observables."""
    c, s = math.cos(math.radians(theta)), math.sin(math.radians(theta))

    def rotation(angle_deg):
        two_a = math.radians(2.0 * angle_deg)
        return np.array([[math.cos(two_a), math.sin(two_a)], [math.sin(two_a), -math.cos(two_a)]])

    def element(x_angle, x, y):
        return (np.eye(2) + x * c * rotation(x_angle) + y * s * rotation(x_angle + 45.0)) / 4.0

    return [
        float(np.trace(np.kron(element(0.0, m.x_a, m.y_a), element(22.5, m.x_b, m.y_b)) @ rho).real)
        for m in ALL_OUTCOMES
    ]


class TestSweepGrid:
    THETAS = (0.0, 12.5, 22.5, 45.0, 67.5, 80.0, 90.0)

    def test_matches_trace_oracle_on_random_states(self):
        rng = np.random.default_rng(606)
        worst = 0.0
        for _ in range(50):
            state = random_two_qubit_state(rng)
            grid = sweep_grid(state, self.THETAS)
            assert grid.p_theory.shape == (len(self.THETAS), 16) and grid.counts is None
            for theta, row in zip(self.THETAS, grid.p_theory):
                worst = max(worst, np.max(np.abs(row - trace_oracle(state.rho, theta))))
        assert worst <= 1e-15

    def test_rows_are_joint_distributions_bit_for_bit(self):
        state = random_two_qubit_state(np.random.default_rng(7))
        thetas = [float(t) for t in np.random.default_rng(8).uniform(0.0, 90.0, 40)]
        grid = sweep_grid(state, thetas)
        for theta, row in zip(thetas, grid.p_theory.tolist()):
            assert row == joint_distribution(state, theta, theta).probs.tolist()

    def test_sampled_arrays_continue_one_stream(self):
        # One PCG64 stream seeded with 6 draws the means row by row, written out here
        # rather than taken from sim.
        state = werner_state(0.9716)
        grid = sweep_grid(state, self.THETAS, mean_total=5e4, seed=6)
        assert grid.thetas == self.THETAS
        rng = np.random.RandomState(np.random.PCG64(6))
        means = [p * 5e4 for row in grid.p_theory.tolist() for p in row]
        assert grid.counts.dtype == np.int64
        assert grid.counts.ravel().tolist() == rng.poisson(means).tolist()
        rows = zip(grid.counts.tolist(), grid.p_obs.tolist(), grid.std_err.tolist())
        for counts, p_obs, std_err in rows:
            table = CountTable(counts)
            observed, errors = probabilities_from_counts(table)
            assert p_obs == observed.probs.tolist()
            assert std_err == errors.tolist()
        first = sample_counts(joint_distribution(state, 0.0, 0.0), 5e4, seed=6)
        assert grid.counts[0].tolist() == first.counts.tolist()
        head = sweep_grid(state, self.THETAS[:2], mean_total=5e4, seed=6)
        assert head.counts.tolist() == grid.counts[:2].tolist()

    @pytest.mark.parametrize("mean_total, seed", [(None, None), (5e4, 6)], ids=["exact", "sampled"])
    def test_angles_are_stored_as_floats(self, tmp_path, mean_total, seed):
        """A list, a range and an array of the same angles make one grid, which writes the same
        bytes and reads back: an int or ``np.float64`` theta would be written as its repr."""
        texts = []
        for thetas in ([0.0, 45.0, 90.0], range(0, 91, 45), np.array([0.0, 45.0, 90.0])):
            grid = sweep_grid(werner_state(0.9716), thetas, mean_total, seed)
            assert [type(t) for t in grid.thetas] == [float] * 3
            fh = io.StringIO()
            write_sweep(fh, grid)
            texts.append(fh.getvalue())
        assert texts[1] == texts[0] and texts[2] == texts[0]
        assert texts[0].splitlines()[17].startswith("45.0,1,1,1,1,")
        (tmp_path / "s.csv").write_text(texts[0])
        read = read_sweep(tmp_path / "s.csv")
        assert read.thetas == (0.0, 45.0, 90.0)
        if seed is None:
            assert read.p_theory.tolist() == grid.p_theory.tolist() and read.counts is None
        else:
            assert read.counts.tolist() == grid.counts.tolist() and read.p_theory is None

    @pytest.mark.parametrize("mean_total, seed", [(None, None), (5e4, 6)], ids=["exact", "sampled"])
    def test_grid_arrays_are_read_only(self, tmp_path, mean_total, seed):
        """The arrays of ``sweep_grid`` and ``read_sweep`` are read-only, as a distribution's
        are, so no in-place edit reaches ``write_sweep``."""
        grid = sweep_grid(werner_state(0.9716), self.THETAS, mean_total, seed)
        with open(tmp_path / "s.csv", "w") as fh:
            write_sweep(fh, grid)
        read = read_sweep(tmp_path / "s.csv")
        arrays = [a for a in (*grid[1:], *read[1:]) if a is not None]
        assert len(arrays) == (2 if seed is None else 3)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0

    @pytest.mark.parametrize("state", [werner_state(0.9716), singlet_state(),
                                       random_two_qubit_state(np.random.default_rng(5))],
                             ids=["werner", "singlet", "random"])
    def test_exact_file_read_back_writes_the_same_bytes(self, tmp_path, state):
        """``read_sweep`` returns ``p_theory`` as a strided view of its table, and
        ``write_sweep`` writes it, with the flips of the angles read, back to the file it came
        from, byte for byte."""
        thetas = sorted(np.random.default_rng(9).uniform(0.0, 90.0, 37).tolist()) + [0.0, 90.0]
        grid = sweep_grid(state, thetas)
        with open(tmp_path / "s.csv", "w") as fh:
            write_sweep(fh, grid)
        read = read_sweep(tmp_path / "s.csv")
        assert not read.p_theory.flags.c_contiguous
        fh = io.StringIO()
        write_sweep(fh, read)
        assert fh.getvalue() == (tmp_path / "s.csv").read_text()

    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    def test_signed_zeros_and_repeats_write_as_rows_one_at_a_time(self, sampled):
        """A hand-built block whose probabilities hold 0.0, -0.0, subnormals and repeated
        doubles, within and across angles, writes each field as its own repr."""
        values = [0.0, -0.0, 5e-324, 0.1, 0.1, -0.0, 1e-300, 0.0, 0.25, 0.25]
        p_theory = np.resize(np.array(values), (17, 16))
        counts = np.arange(17 * 16).reshape(17, 16) % 3 if sampled else None
        grid = SweepGrid(tuple(np.linspace(0.0, 90.0, 17).tolist()), p_theory, counts)
        fh = io.StringIO()
        write_sweep(fh, grid)
        assert fh.getvalue() == rows_one_at_a_time(grid)

    def test_sampled_file_read_back_is_not_written_again(self, tmp_path):
        """``read_sweep`` skips the ``p_theory`` column of a sampled file, so ``write_sweep``
        refuses the grid it returns rather than writing a third row shape.  Like a theta
        outside [0, 90], which has no flip probabilities, it raises before writing anything."""
        grid = sweep_grid(werner_state(0.9716), self.THETAS, mean_total=5e4, seed=6)
        with open(tmp_path / "s.csv", "w") as fh:
            write_sweep(fh, grid)
        read = read_sweep(tmp_path / "s.csv")
        out_of_range = sweep_grid(werner_state(0.9), [10.0, 100.0])
        for bad, message in [
            (read, "sampled sweep read back by read_sweep"),
            (out_of_range, "visibilities must lie in [0, 1], "
                           "got (-0.1736481776669303, 0.984807753012208)"),
        ]:
            fh = io.StringIO()
            with pytest.raises(ValueError, match=re.escape(message)) as info:
                write_sweep(fh, bad)
            assert "\n" not in str(info.value)
            assert fh.getvalue() == ""

    @pytest.mark.parametrize("mean_total, seed", [(None, None), (5e4, 6)], ids=["exact", "sampled"])
    def test_grid_without_angles_writes_the_header_alone(self, mean_total, seed):
        """A grid with no angles writes the header line and nothing after it."""
        fh = io.StringIO()
        write_sweep(fh, sweep_grid(werner_state(0.9716), [], mean_total, seed))
        assert fh.getvalue() == "theta_deg,x_a,y_a,x_b,y_b,b,p_theory,p_bflip,counts\n"

    @pytest.mark.parametrize("mean_total, seed", [(None, None), (5e4, 6)], ids=["exact", "sampled"])
    def test_crlf_file_reads_as_the_lf_file(self, tmp_path, mean_total, seed):
        """A CRLF copy of a sweep file, blank line included, reads to the same grid, and a bad
        row in it is named with the same row number and text."""
        fh = io.StringIO()
        write_sweep(fh, sweep_grid(werner_state(0.9716), self.THETAS, mean_total, seed))
        good = fh.getvalue().replace("\n12.5,", "\n\n12.5,", 1)
        for text in (good, good.replace("\n45.0,", "\nabc,", 1)):
            (tmp_path / "lf.csv").write_bytes(text.encode())
            (tmp_path / "crlf.csv").write_bytes(text.replace("\n", "\r\n").encode())
            crlf = read_outcome(read_sweep, tmp_path / "crlf.csv")
            assert crlf == read_outcome(read_sweep, tmp_path / "lf.csv")
        assert crlf == "data row 49: theta_deg must be a number, got 'abc'"

    @pytest.mark.parametrize("mean_total, seed", [(None, None), (5e4, None), (None, 3)])
    def test_unsampled_sweep_carries_no_counts(self, mean_total, seed):
        if mean_total is None and seed is None:
            grid = sweep_grid(singlet_state(), self.THETAS, mean_total, seed)
            assert grid.counts is None and grid.p_obs is None and grid.std_err is None
            assert grid.p_theory.tolist() == sweep_grid(singlet_state(), self.THETAS).p_theory.tolist()
        else:
            # One of the two alone is rejected, not read as an exact sweep.
            with pytest.raises(ValueError, match="mean_total and seed must be given together"):
                sweep_grid(singlet_state(), self.THETAS, mean_total, seed)

    def test_seeded_stream_table(self):
        grid = sweep_grid(werner_state(0.9716), [10, 20], 568352, seed=7)
        assert grid.counts.tolist() == [SEEDED_STREAMS["sweep-seed7-theta10"],
                                        SEEDED_STREAMS["sweep-seed7-theta20"]]

    def test_checks(self):
        with pytest.raises(ValueError, match="positive"):
            sweep_grid(singlet_state(), [10.0], mean_total=0.0, seed=1)
        with pytest.raises(ValueError, match="non-negative"):
            sweep_grid(singlet_state(), [10.0], mean_total=1e3, seed=-1)
        with pytest.raises(ValueError, match="theta_deg 10.0 has no counts"):
            sweep_grid(singlet_state(), [10.0], mean_total=1e-300, seed=1)
        # Passes the state's 1e-10 positivity tolerance, not the 1e-12 of a probability.
        rho = np.diag([0.5 + 2e-11, 0.5 - 1e-11, 0.0, -1e-11]).astype(complex)
        with pytest.raises(ValueError, match="negative outcome probability"):
            sweep_grid(TwoQubitState(rho), [0.0])
        assert sweep_grid(singlet_state(), []).p_theory.shape == (0, 16)

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_angle_rejected(self, theta):
        # A NaN row would pass the comparison-based sign and sum guards unnoticed.
        with pytest.raises(ValueError, match="trade-off angle must be finite") as info:
            sweep_grid(singlet_state(), [10.0, theta])
        assert "\n" not in str(info.value)


def reference_read_sweep(path):
    """``read_sweep`` as it was when one ``np.loadtxt`` pass read all seven columns as floats,
    theta_deg included: kept as the reference the reader is held to, field for field."""
    with open(path, encoding="utf-8") as fh:
        column = {name: i for i, name in enumerate(fh.readline().rstrip("\n").split(","))}
        missing = [c for c in analysis._SWEEP_COLUMNS[:8] if c not in column]
        if missing:
            raise ValueError(f"missing columns {missing}")
        first = next((line for line in fh if line != "\n"), "")
        if not first:
            raise ValueError("holds no data rows")
        at = column.get("counts")
        fields = first.rstrip("\n").split(",")
        sampled = at is not None and at < len(fields) and fields[at] != ""
        names = (*analysis._SWEEP_COLUMNS[:5], "p_bflip", "counts" if sampled else "p_theory")
        usecols = [column[name] for name in names]
        try:
            table = np.loadtxt(itertools.chain([first], fh), delimiter=",", comments=None,
                               ndmin=2, usecols=usecols)
        except ValueError:
            fh.seek(0)
            fh.readline()
            bad = analysis._unreadable_row(fh, dict(zip(names, usecols)))
            if bad:
                raise ValueError(bad) from None
            raise
    if len(table) % 16:
        raise ValueError(f"has {len(table)} data rows, not sixteen per angle")
    bad = ~np.isfinite(table)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        value = table[i, j].item()
        raise ValueError(f"data row {i + 1}: {names[j]} must be finite, got {value!r}")
    angles = table.reshape(-1, 16, 7)
    thetas = angles[:, 0, 0]
    bad = ((angles[..., 0] != thetas[:, None])
           | (angles[..., 1:5] != np.array(ALL_OUTCOMES)).any(axis=2))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"data row {i + 1} must be outcome {ALL_OUTCOMES[i % 16].label()} at "
                         f"theta_deg {thetas[i // 16].item()!r}: sixteen rows per angle in order")
    flip, values = angles[..., 5], angles[..., 6]
    if not sampled:
        return SweepGrid(tuple(thetas.tolist()), values), flip
    bad = ~((values >= 0) & (values % 1 == 0) & (values <= sim.MAX_COUNT))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"data row {i + 1}: count must be an integer in [0, 2**53], "
                         f"got {values.flat[i].item()!r}")
    counts = values.astype(np.int64)
    total = counts.sum(axis=1)
    if not total.all():
        theta = thetas[np.argmin(total)].item()
        raise ValueError(f"theta_deg {theta!r} has no counts; probabilities are undefined")
    return SweepGrid(tuple(thetas.tolist()), None, counts), flip


def read_outcome(read, path):
    """What ``read`` makes of the sweep file at ``path``: the dtype, shape and bytes of the
    angles, ``p_theory``, counts (None for a None field) and flips, or its ValueError text.
    The flips are the parsed column for ``reference_read_sweep`` and ``pbflip_grid`` of the
    angles for ``read_sweep``, so equal outcomes show the written column is the derived one."""
    try:
        grid = read(path)
    except ValueError as exc:
        return str(exc)
    grid, flips = (grid, pbflip_grid(grid.thetas)) if isinstance(grid, SweepGrid) else grid
    arrays = (np.array(grid.thetas), grid.p_theory, grid.counts, flips)
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def same_double_texts(theta):
    """Other texts of the double ``theta``: each parses back to its bits."""
    r = repr(theta)
    texts = ["%.17g" % theta, "%.17e" % theta, "%.20f" % theta, "+" + r, "0" + r,
             r.upper(), r + "0" if "e" not in r else r]
    return [t for t in texts if np.float64(float(t)).tobytes() == np.float64(theta).tobytes()]


#: theta_deg texts that are no finite number, or none at all.
_BAD_THETAS = ["nan", "NaN", "inf", "-inf", "1e400", "abc", "4_5", "", "#", "\u0663", "4.5.0"]
#: The out-of-range rejection of ``read_sweep``, the one way it differs from the reference.
_OUTSIDE_THETA = re.compile(r"data row (\d+): theta_deg must lie in \[0, 90\], got .+")
#: Finite theta_deg texts outside [0, 90].
_OUTSIDE_THETAS = ["100.0", "90.00000000000001", "-1.5", "-5e-324", "1e300"]


class TestReadSweepReference:
    """``read_sweep`` reads what ``reference_read_sweep`` reads, bit for bit, flips included,
    and rejects what it rejects with the same text, with one difference: a theta outside
    [0, 90], which the reference reads with the flips as written, is rejected, and
    ``read_sweep`` names it at the first row of its angle."""

    @staticmethod
    def _assert_as_reference(text, outside_rows=()):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_text(text, encoding="utf-8")
            new, ref = read_outcome(read_sweep, path), read_outcome(reference_read_sweep, path)
        outside = isinstance(new, str) and _OUTSIDE_THETA.fullmatch(new)
        if outside and new != ref:
            assert int(outside[1]) in outside_rows, (new, ref)
        else:
            assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_perturbed_files_read_as_the_reference(self, data):
        kind = data.draw(st.sampled_from(["werner", "singlet", "random"]))
        if kind == "werner":
            state = werner_state(data.draw(st.floats(0.0, 1.0)))
        elif kind == "singlet":
            state = singlet_state()
        else:
            state = random_two_qubit_state(np.random.default_rng(data.draw(st.integers(0, 99))))
        angle = st.one_of(st.sampled_from([0.0, 45.0, 90.0, 22.5, 0.1, 1e-300]),
                          st.floats(0.0, 90.0))
        thetas = data.draw(st.lists(angle, min_size=1, max_size=40))
        sampled = data.draw(st.booleans())
        mean_total = data.draw(st.sampled_from([1000.0, 568352.0])) if sampled else None
        grid = sweep_grid(state, thetas, mean_total, 3 if sampled else None)
        if data.draw(st.booleans(), label="legacy"):
            text = rows_one_at_a_time(grid, legacy=True)
        else:
            fh = io.StringIO()
            write_sweep(fh, grid)
            text = fh.getvalue()
        header, *lines = text.splitlines()
        rows = [line.split(",") for line in lines]
        index = st.integers(0, len(rows) - 1)

        def retheta(rows_of, new):
            for i in rows_of:
                rows[i][0] = new

        for _ in range(data.draw(st.integers(0, 3), label="rethetas")):
            k = data.draw(st.integers(0, len(thetas) - 1))
            which = data.draw(st.sampled_from(["angle", "row"]))
            rows_of = range(16 * k, 16 * k + 16) if which == "angle" else [16 * k + data.draw(
                st.integers(0, 15))]
            retheta(rows_of, data.draw(st.sampled_from(same_double_texts(grid.thetas[k]))))
        outside_rows = set()
        if data.draw(st.booleans(), label="outside theta"):
            k = data.draw(st.integers(0, len(thetas) - 1))
            retheta(range(16 * k, 16 * k + 16), data.draw(st.sampled_from(_OUTSIDE_THETAS)))
            outside_rows.add(16 * k + 1)
        if data.draw(st.booleans(), label="long theta"):
            k = data.draw(st.integers(0, len(thetas) - 1))
            width = data.draw(st.sampled_from([31, 32, 40]))
            retheta(range(16 * k, 16 * k + 16), repr(grid.thetas[k]).rjust(width, "0"))
        for _ in range(data.draw(st.integers(0, 3), label="spaces")):
            i, j = data.draw(index), data.draw(st.integers(0, 8))
            rows[i][j] = data.draw(st.sampled_from([" {}", "{} ", " {} ", "\t{}"])).format(
                rows[i][j])
        for _ in range(data.draw(st.integers(0, 3), label="signs")):
            i, j = data.draw(index), data.draw(st.integers(1, 4))
            rows[i][j] = data.draw(st.sampled_from(["+{}", "{}.0", "{}"])).format(
                rows[i][j]).replace("+-", "-")
        if data.draw(st.booleans(), label="bad theta"):
            rows[data.draw(index)][0] = data.draw(st.sampled_from(_BAD_THETAS))
        if data.draw(st.booleans(), label="NUL theta"):
            rows[data.draw(index)][0] += "\x00" * data.draw(st.integers(1, 2))
        if data.draw(st.booleans(), label="out of order"):
            i, j = data.draw(index), data.draw(index)
            rows[i], rows[j] = rows[j], rows[i]
        blanks = data.draw(st.lists(st.integers(0, len(rows)), max_size=3), label="blanks")
        out = [",".join(row) for row in rows]
        for at in sorted(blanks, reverse=True):
            out.insert(at, "")
        # Data rows are counted from 1 with blank lines skipped, as the readers count them.
        self._assert_as_reference("\n".join([header, *out]) + "\n", outside_rows)

    @pytest.mark.parametrize("width", [24, 31, 32, 40, 1000])
    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    def test_theta_text_width(self, tmp_path, width, sampled):
        """theta_deg text of any width reads as the reference reads it."""
        grid = sweep_grid(werner_state(0.9716), [10.0, 45.0], 5e4 if sampled else None,
                          6 if sampled else None)
        fh = io.StringIO()
        write_sweep(fh, grid)
        header, *lines = fh.getvalue().splitlines()
        lines[16:] = [line.replace("45.0,", "45.0".rjust(width, "0") + ",", 1)
                      for line in lines[16:]]
        path = tmp_path / "s.csv"
        path.write_text("\n".join([header, *lines]) + "\n")
        assert read_outcome(read_sweep, path) == read_outcome(reference_read_sweep, path)
        assert read_sweep(path).thetas == (10.0, 45.0)

    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    def test_nul_suffixed_theta_rejected(self, tmp_path, sampled):
        """A theta_deg text ending in NUL, which the text dtype drops, is rejected as the
        reference rejects it, not read as the number before the NUL."""
        grid = sweep_grid(werner_state(0.9716), [10.0, 45.0], 5e4 if sampled else None,
                          6 if sampled else None)
        fh = io.StringIO()
        write_sweep(fh, grid)
        path = tmp_path / "s.csv"
        path.write_text(fh.getvalue().replace("\n45.0,", "\n45.0\x00,", 1))
        with pytest.raises(ValueError) as info:
            read_sweep(path)
        assert str(info.value) == "data row 17: theta_deg must be a number, got '45.0\\x00'"
        assert read_outcome(read_sweep, path) == read_outcome(reference_read_sweep, path)


class TestAngleSweep:
    """The sampling contract of a sweep over angles: one stream per sweep."""

    THETAS = (0.0, 20.0, 45.0, 70.0, 90.0)

    def test_adjacent_seeds_share_no_count_row(self):
        # Each angle twice: a stream shared between the sweeps, or within one, repeats a row.
        # A stream per angle derived as seed XOR index gave seeds 6 and 7 the same rows.
        state = werner_state(0.9716)
        thetas = [theta for theta in self.THETAS for _ in range(2)]
        rows = [tuple(row) for seed in (6, 7)
                for row in sweep_grid(state, thetas, mean_total=5e4, seed=seed).counts.tolist()]
        assert len(set(rows)) == len(rows) == 20

    def test_sampling_arguments_checked_before_first_angle(self):
        consumed = []

        def thetas():
            for theta in self.THETAS:
                consumed.append(theta)
                yield theta

        with pytest.raises(ValueError, match="positive"):
            sweep_grid(singlet_state(), thetas(), mean_total=0.0, seed=1)
        with pytest.raises(ValueError, match="non-negative"):
            sweep_grid(singlet_state(), thetas(), mean_total=1e3, seed=-1)
        assert consumed == []


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
        dist, errors = probabilities_from_counts(CountTable([counts[m] for m in ALL_OUTCOMES]))
        assert dist.probs[column(Outcome(1, 1, 1, -1))] == pytest.approx(0.001311, abs=5e-7)
        assert dist.probs[column(Outcome(-1, -1, -1, 1))] == pytest.approx(0.001545, abs=5e-7)
        assert errors[column(Outcome(1, 1, 1, -1))] == pytest.approx(
            math.sqrt(745) / 568352, abs=1e-12
        )

    def test_second_quoted_total(self):
        counts = {m: 0 for m in ALL_OUTCOMES}
        counts[Outcome(-1, 1, 1, 1)] = 1140
        counts[Outcome(1, -1, -1, -1)] = 1448
        remainder = 548422 - 1140 - 1448
        others = [m for m in ALL_OUTCOMES if counts[m] == 0]
        for i, m in enumerate(others):
            counts[m] = remainder // 14 + (1 if i < remainder % 14 else 0)
        dist, _ = probabilities_from_counts(CountTable([counts[m] for m in ALL_OUTCOMES]))
        assert dist.probs[column(Outcome(-1, 1, 1, 1))] == pytest.approx(0.002079, abs=5e-7)
        assert dist.probs[column(Outcome(1, -1, -1, -1))] == pytest.approx(0.002640, abs=5e-7)

    def test_uniform_counts(self):
        dist, errors = probabilities_from_counts(uniform_table(100))
        assert all(p == pytest.approx(1 / 16, abs=1e-15) for p in dist.probs)
        assert all(e == pytest.approx(10 / 1600, abs=1e-15) for e in errors)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            probabilities_from_counts(uniform_table(0))

    def test_monte_carlo_recovery(self):
        dist = joint_distribution(werner_state(0.9716), 20.0, 20.0)
        table = sample_counts(dist, 1e7, seed=2024)
        recovered, errors = probabilities_from_counts(table)
        for i in range(16):
            assert abs(recovered.probs[i] - dist.probs[i]) < 5.0 * errors[i]


class TestConditionalState:
    def test_singlet_projection_prepares_pure_state(self):
        rho_a = conditional_state(singlet_state(), "B", 90.0)
        assert np.allclose(rho_a, projector(0.0), atol=1e-12)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError, match="side must be 'A' or 'B', got 'C'"):
            conditional_state(singlet_state(), "C", 0.0)

    def test_maximally_mixed_stays_mixed(self):
        rho_a = conditional_state(maximally_mixed_state(), "B", 37.0)
        assert np.allclose(rho_a, np.eye(2) / 2, atol=1e-12)

    def test_werner_expectation(self):
        rho_a = conditional_state(werner_state(0.975), "B", 90.0)
        x_a = observable_from_angle(0.0)
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

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_angle_array_equals_single_calls(self, side):
        state = random_two_qubit_state(np.random.default_rng(12))
        thetas = np.array([0.0, 12.5, 45.0, 77.0, 90.0])
        est = joint_visibilities(state, thetas, side)
        for field in est:
            assert isinstance(field, np.ndarray) and field.shape == thetas.shape
        for i, theta in enumerate(thetas.tolist()):
            single = joint_visibilities(state, theta, side)
            assert all(type(value) is float for value in single)
            assert (est.vx[i], est.vy[i], est.radius[i]) == tuple(single)

    def test_angle_array_undefined_for_uncorrelated_state(self):
        with pytest.raises(ValueError, match="vanishes"):
            joint_visibilities(maximally_mixed_state(), [10.0, 45.0], "A")


class TestCountTableFormat:
    def test_round_trip(self):
        dist = joint_distribution(werner_state(0.9), 20.0, 20.0)
        table = sample_counts(dist, 1e5, seed=5, duration_s=10.0)
        text = format_count_table(table)
        parsed = parse_count_table(text)
        assert parsed.counts.tolist() == table.counts.tolist()
        assert parsed.duration_s == 10.0
        assert format_count_table(parsed) == text

    def test_file_round_trip(self, tmp_path):
        table = uniform_table(7, duration_s=2.5)
        with open(tmp_path / "t.csv", "w", encoding="utf-8", newline="") as fh:
            write_count_table(fh, table)
        again = read_count_table(tmp_path / "t.csv")
        assert again.counts.tolist() == table.counts.tolist()
        assert again.duration_s == 2.5
        with open(tmp_path / "t2.csv", "w", encoding="utf-8", newline="") as fh:
            write_count_table(fh, again)
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
        assert (tmp_path / "t.csv").read_bytes() == format_count_table(table).encode("ascii")

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
        with pytest.raises(CountFileError, match="row 4: count must be non-negative"):
            parse_count_table("\n".join(negative) + "\n")
        # int() would take the first three; the format writes counts as plain ASCII digits only.
        # The last passes that check, and int() rejects it past Python's 4300-digit limit.
        for token in ("1_000", "+5", "\u0663", "9" * 5000):
            spelled = good.copy()
            spelled[5] = spelled[5].rsplit(",", 1)[0] + "," + token
            with pytest.raises(CountFileError, match="row 6: count must be an integer"):
                parse_count_table("\n".join(spelled) + "\n")
        for tail, message in (
            (["# duration_s=ten"], "row 18: malformed duration in '# duration_s=ten'"),
            (["# duration_s=1_0"], "row 18: malformed duration in '# duration_s=1_0'"),
            (["# duration_s=\u0661\u0660"],
             "row 18: malformed duration in '# duration_s=\u0661\u0660'"),
            (["# duration_s=2.0", good[1]], "row 19: data after the duration metadata line"),
            (["# duration_s=1.0", "# duration_s=2.0"], "row 19: duplicate duration metadata line"),
        ):
            with pytest.raises(CountFileError, match=re.escape(message)):
                parse_count_table("\n".join(good + tail) + "\n")
        extra_field = good.copy()
        extra_field[1] += ",1"
        with pytest.raises(CountFileError, match="row 2: expected 5 comma-separated fields, got 6"):
            parse_count_table("\n".join(extra_field) + "\n")

    def test_unknown_metadata_rejected(self):
        text = format_count_table(uniform_table(3)) + "# other=1\n"
        with pytest.raises(CountFileError, match="metadata"):
            parse_count_table(text)

    def test_negative_count_table_rejected(self):
        counts = [1] * 16
        counts[column(Outcome(1, 1, 1, 1))] = -1
        with pytest.raises(ValueError):
            CountTable(counts=counts)

    def test_count_above_exact_float_range_rejected(self):
        counts = [2**53] * 16
        assert CountTable(counts=counts).total() == 2**57
        for big in (2**53 + 1, 10**320, 1e300):
            counts[column(Outcome(1, -1, 1, 1))] = big
            with pytest.raises(ValueError, match=r"\(\+,-;\+,\+\) exceeds 2\*\*53"):
                CountTable(counts=counts)
        lines = format_count_table(uniform_table(3)).splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + "9" * 320
        with pytest.raises(ValueError, match="exceeds"):
            parse_count_table("\n".join(lines) + "\n")
