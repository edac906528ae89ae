import math
from itertools import product

import numpy as np
import pytest

from jointbell.core import (
    CIRELSON_BOUND,
    UncertaintyViolationError,
    VisibilityPair,
    bell_expectation,
    random_two_qubit_state,
    singlet_state,
    werner_state,
)
from jointbell.sim import (
    ALL_OUTCOMES,
    Outcome,
    QuasiDistribution,
    aggregate_b,
    b_value,
    joint_distribution,
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
    pbflip_grid,
    pbflip_outcome,
    predicted_probability,
)

ROOT2 = math.sqrt(2.0)
THETA_SET = (0.0, 20.0, 40.0, 45.0, 50.0, 70.0, 90.0)


def vis(theta_deg: float) -> VisibilityPair:
    t = math.radians(theta_deg)
    return VisibilityPair(math.cos(t), math.sin(t))


def closed_form_y_family(vx: float, vy: float) -> float:
    """Independent closed form for the flip probability of the two minimal
    outcomes whose y signs are anti-correlated: (2 - Vx^2 - 2VxVy + Vy^2)/4."""
    return 0.25 * (2.0 - vx * vx - 2.0 * vx * vy + vy * vy)


def closed_form_x_family(vx: float, vy: float) -> float:
    """Closed form for the mirror pair with anti-correlated x signs:
    (2 + Vx^2 - 2VxVy - Vy^2)/4."""
    return 0.25 * (2.0 + vx * vx - 2.0 * vx * vy - vy * vy)


FLIP_PATTERNS = tuple(product((0, 1), repeat=4))


def _rates(vis_a: VisibilityPair, vis_b: VisibilityPair) -> tuple[float, ...]:
    return tuple((1.0 - v) / 2.0 for v in (vis_a.vx, vis_a.vy, vis_b.vx, vis_b.vy))


def _flipped(outcome: Outcome, pattern) -> Outcome:
    return Outcome(*(s * (1 - 2 * f) for s, f in zip(outcome, pattern)))


def _pattern_probability(rates, pattern) -> float:
    return math.prod(r if f else 1.0 - r for r, f in zip(rates, pattern))


def enumerated_pbflip(outcome: Outcome, vis_a: VisibilityPair, vis_b: VisibilityPair) -> float:
    """Independent oracle: sum the probabilities of the flip patterns, out
    of all sixteen, that change the b-value of ``outcome``."""
    rates = _rates(vis_a, vis_b)
    return sum(
        _pattern_probability(rates, pattern)
        for pattern in FLIP_PATTERNS
        if b_value(_flipped(outcome, pattern)) != b_value(outcome)
    )


def enumerated_convolution(
    values: np.ndarray, vis_a: VisibilityPair, vis_b: VisibilityPair
) -> dict:
    """Independent oracle: push every outcome's value through all sixteen
    flip patterns."""
    rates = _rates(vis_a, vis_b)
    probs = {m: 0.0 for m in ALL_OUTCOMES}
    for m0, q in zip(ALL_OUTCOMES, values.tolist()):
        for pattern in FLIP_PATTERNS:
            probs[_flipped(m0, pattern)] += _pattern_probability(rates, pattern) * q
    return probs


def random_interior_pair(rng: np.random.Generator) -> VisibilityPair:
    radius = rng.uniform(0.05, 0.999)
    angle = rng.uniform(0.0, math.pi / 2)
    return VisibilityPair(radius * math.cos(angle), radius * math.sin(angle))


class TestPbflipOutcome:
    @pytest.mark.parametrize("theta", [float(t) for t in range(0, 91)])
    def test_matches_closed_forms(self, theta):
        v = vis(theta)
        y_pair = (Outcome(1, 1, 1, -1), Outcome(-1, -1, -1, 1))
        x_pair = (Outcome(-1, 1, 1, 1), Outcome(1, -1, -1, -1))
        for m in y_pair:
            assert abs(pbflip_outcome(m, v, v) - closed_form_y_family(v.vx, v.vy)) < 1e-12
        for m in x_pair:
            assert abs(pbflip_outcome(m, v, v) - closed_form_x_family(v.vx, v.vy)) < 1e-12

    def test_quoted_values(self):
        v20 = vis(20.0)
        assert pbflip_outcome(Outcome(1, 1, 1, -1), v20, v20) == pytest.approx(0.1478, abs=5e-5)
        v225 = vis(22.5)
        assert pbflip_outcome(Outcome(1, 1, 1, -1), v225, v225) == pytest.approx(
            (2.0 - ROOT2) / 4.0, abs=1e-9
        )

    def test_all_outcomes_quarter_at_theta45(self):
        v = vis(45.0)
        for m in ALL_OUTCOMES:
            assert pbflip_outcome(m, v, v) == pytest.approx(0.25, abs=1e-12)

    def test_matches_enumeration_on_unequal_pairs(self):
        rng = np.random.default_rng(1995)
        interior = [(random_interior_pair(rng), random_interior_pair(rng)) for _ in range(50)]
        on_circle = [(vis(a), vis(b)) for a, b in ((0.0, 90.0), (20.0, 70.0), (67.5, 22.5))]
        for vis_a, vis_b in interior + on_circle:
            assert vis_a != vis_b
            for m in ALL_OUTCOMES:
                expected = enumerated_pbflip(m, vis_a, vis_b)
                assert abs(pbflip_outcome(m, vis_a, vis_b) - expected) < 1e-12

    def test_rejects_unphysical_visibilities(self):
        with pytest.raises(UncertaintyViolationError):
            pbflip_outcome(Outcome(1, 1, 1, -1), VisibilityPair(0.8, 0.8), vis(45.0))

    def test_minimum_location(self):
        values = {
            theta: pbflip_outcome(Outcome(1, 1, 1, -1), vis(theta), vis(theta))
            for theta in np.arange(0.0, 90.5, 0.5)
        }
        best = min(values, key=values.get)
        assert best == pytest.approx(22.5)
        mirror = {
            theta: pbflip_outcome(Outcome(-1, 1, 1, 1), vis(theta), vis(theta))
            for theta in np.arange(0.0, 90.5, 0.5)
        }
        assert min(mirror, key=mirror.get) == pytest.approx(67.5)


class TestPbflipGrid:
    def test_matches_enumeration(self):
        thetas = [0.0, 22.5, 45.0, 67.5, 90.0, *np.random.default_rng(12).uniform(0, 90, 20)]
        grid = pbflip_grid(thetas)
        assert grid.shape == (len(thetas), 16)
        for theta, row in zip(thetas, grid):
            expected = [enumerated_pbflip(m, vis(theta), vis(theta)) for m in ALL_OUTCOMES]
            assert row == pytest.approx(expected, abs=1e-15)

    def test_rows_equal_pbflip_outcome_bit_for_bit(self):
        thetas = [float(t) for t in np.linspace(0.0, 90.0, 181)]
        for theta, row in zip(thetas, pbflip_grid(thetas).tolist()):
            pair = VisibilityPair.from_theta(theta)
            assert row == [pbflip_outcome(m, pair, pair) for m in ALL_OUTCOMES]

    def test_angles_outside_the_quarter_circle_rejected(self):
        with pytest.raises(ValueError, match="visibilities must lie in"):
            pbflip_grid([45.0, 91.0])
        for bad in (-1.0, 90.5):
            with pytest.raises(ValueError, match="visibilities must lie in"):
                pbflip_grid([0.0, 30.0, bad, 60.0, 90.0])
        with pytest.raises(ValueError, match="trade-off angle must be finite, got nan"):
            pbflip_grid([0.0, 30.0, math.nan, 60.0, 90.0])
        assert pbflip_grid([]).shape == (0, 16)


def uniform_flip(mean_b: float, bell: float) -> float:
    """Oracle: the outcome-independent flip probability (1 - <b>/<B>)/2 of equal visibilities."""
    return 0.5 * (1.0 - mean_b / bell)


class TestPbflipUniform:
    def test_reported_ratio(self):
        # -1.3784 / -2*sqrt(2) = 0.48734..., flip probability 0.25633...;
        # published rounding gives 0.2565 at +-0.0005.
        assert uniform_flip(-1.3784, -CIRELSON_BOUND) == pytest.approx(0.2565, abs=3e-4)
        # At theta = 45 deg every outcome flips at the uniform rate of the simulated <b>.
        state = werner_state(0.975)
        mean_b = aggregate_b(joint_distribution(state, 45.0, 45.0)).mean_b
        expected = uniform_flip(mean_b, bell_expectation(state))
        for m in ALL_OUTCOMES:
            assert pbflip_outcome(m, vis(45.0), vis(45.0)) == pytest.approx(expected, abs=1e-12)


class TestIntrinsicProbs:
    def test_maximal_violation(self):
        high, low = intrinsic_probs(CIRELSON_BOUND)
        assert high == pytest.approx((1.0 + ROOT2) / 16.0, abs=1e-15)
        assert low == pytest.approx((1.0 - ROOT2) / 16.0, abs=1e-15)

    def test_classical_boundary(self):
        high, low = intrinsic_probs(2.0)
        assert high == pytest.approx(0.125, abs=1e-15)
        assert low == pytest.approx(0.0, abs=1e-15)

    def test_measured_magnitude(self):
        _, low = intrinsic_probs(2.7476)
        assert low == pytest.approx(-0.02336, abs=5e-6)

    def test_sum_is_eighth(self):
        for magnitude in (0.0, 1.0, 2.0, 2.5, CIRELSON_BOUND):
            high, low = intrinsic_probs(magnitude)
            assert high + low == pytest.approx(0.125, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            intrinsic_probs(-0.1)
        with pytest.raises(ValueError):
            intrinsic_probs(2.9)


class TestCirelsonFloor:
    def test_values(self):
        assert cirelson_floor(CIRELSON_BOUND) == pytest.approx(
            (CIRELSON_BOUND - 2.0) / (2.0 * CIRELSON_BOUND), abs=1e-15
        )
        assert cirelson_floor(CIRELSON_BOUND) == pytest.approx(0.146447, abs=1e-6)
        assert cirelson_floor(2.0) == 0.0
        assert cirelson_floor(1.5) == 0.0
        assert cirelson_floor(2.7476) == pytest.approx(0.13604, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            cirelson_floor(0.0)
        with pytest.raises(ValueError):
            cirelson_floor(-2.0)


class TestPredictedProbability:
    def test_theta45_value(self):
        assert predicted_probability(CIRELSON_BOUND, 0.25) == pytest.approx(
            (2.0 - ROOT2) / 32.0, abs=1e-15
        )

    def test_floor_gives_zero(self):
        value = predicted_probability(CIRELSON_BOUND, cirelson_floor(CIRELSON_BOUND))
        assert abs(value) < 1e-15

    def test_zero_error_equals_intrinsic_low(self):
        for magnitude in (2.0, 2.5, CIRELSON_BOUND):
            assert predicted_probability(magnitude, 0.0) == pytest.approx(
                intrinsic_probs(magnitude)[1], abs=1e-15
            )


class TestFlipConvolve:
    def test_identity_at_unit_visibility(self):
        quasi = quasi_distribution(werner_state(0.7))
        dist = flip_convolve(quasi, VisibilityPair(1.0, 1.0), VisibilityPair(1.0, 1.0))
        for i in range(16):
            assert dist.probs[i] == pytest.approx(quasi.values[i], abs=1e-15)

    @pytest.mark.parametrize("theta", THETA_SET)
    def test_matches_joint_distribution_singlet(self, theta):
        quasi = quasi_distribution(singlet_state())
        convolved = flip_convolve(quasi, vis(theta), vis(theta))
        direct = joint_distribution(singlet_state(), theta, theta)
        for i in range(16):
            assert convolved.probs[i] == pytest.approx(direct.probs[i], abs=1e-10)

    def test_matches_joint_distribution_random_states(self):
        rng = np.random.default_rng(77)
        pairs = [(t, t) for t in THETA_SET] + [(0.0, 90.0), (20.0, 70.0), (70.0, 20.0), (5.0, 45.0)]
        for _ in range(30):
            state = random_two_qubit_state(rng)
            quasi = quasi_distribution(state)
            for theta_a, theta_b in pairs:
                convolved = flip_convolve(quasi, vis(theta_a), vis(theta_b))
                direct = joint_distribution(state, theta_a, theta_b)
                for i in range(16):
                    assert convolved.probs[i] == pytest.approx(direct.probs[i], abs=1e-12)

    def test_matches_enumeration_on_table_with_xy_moment(self):
        # A state's quasi-distribution is linear in each side's x and y signs,
        # so its x_A y_A moment vanishes; this table has one.
        rng = np.random.default_rng(340)
        raw = {m: rng.uniform(0.1, 1.0) + 0.5 * m.x_a * m.y_a for m in ALL_OUTCOMES}
        total = sum(raw.values())
        quasi = QuasiDistribution(values=[raw[m] / total for m in ALL_OUTCOMES])
        assert abs(sum(v * m.x_a * m.y_a for m, v in zip(ALL_OUTCOMES, quasi.values))) > 0.1
        for _ in range(10):
            vis_a, vis_b = random_interior_pair(rng), random_interior_pair(rng)
            convolved = flip_convolve(quasi, vis_a, vis_b)
            expected = enumerated_convolution(quasi.values, vis_a, vis_b)
            for i, m in enumerate(ALL_OUTCOMES):
                assert abs(convolved.probs[i] - expected[m]) < 1e-12

    def test_settings_recorded(self):
        quasi = quasi_distribution(singlet_state())
        dist = flip_convolve(quasi, vis(20.0), vis(70.0))
        assert dist.settings[0] == pytest.approx(20.0, abs=1e-9)
        assert dist.settings[1] == pytest.approx(70.0, abs=1e-9)

    def test_unphysical_visibilities_break_positivity(self):
        # No explicit gate: the negative-probability invariant of the result
        # is what rules the region outside the uncertainty circle out.
        quasi = quasi_distribution(singlet_state())
        with pytest.raises(ValueError, match="negative"):
            flip_convolve(quasi, VisibilityPair(0.9, 0.9), VisibilityPair(0.9, 0.9))

    def test_singlet_theta45_low_entries(self):
        quasi = quasi_distribution(singlet_state())
        dist = flip_convolve(quasi, vis(45.0), vis(45.0))
        low = dist.probs[ALL_OUTCOMES.index(Outcome(1, 1, 1, -1))]
        assert low == pytest.approx(0.018306, abs=1e-6)


def two_level_prediction(
    bell_magnitude: float, vis_a: VisibilityPair, vis_b: VisibilityPair, m: Outcome
) -> float:
    """Oracle: the observed probability of ``m`` under the two-level intrinsic distribution,
    its intrinsic value mixed with the opposite level at the outcome's flip probability."""
    high, low = intrinsic_probs(bell_magnitude)
    pb = pbflip_outcome(m, vis_a, vis_b)
    if b_value(m) == 2:
        return (1.0 - pb) * low + pb * high
    return (1.0 - pb) * high + pb * low


class TestBitFlipModel:
    def test_predicted_matches_direct_distribution(self):
        state = werner_state(0.9716)
        direct = joint_distribution(state, 20.0, 20.0)
        for i, m in enumerate(ALL_OUTCOMES):
            predicted = two_level_prediction(0.9716 * CIRELSON_BOUND, vis(20.0), vis(20.0), m)
            assert predicted == pytest.approx(direct.probs[i], abs=1e-12)


def line_points(magnitude: float, pbflips) -> list[tuple[float, float]]:
    return [(p, predicted_probability(magnitude, p)) for p in pbflips]


class TestFit:
    def test_exact_two_points(self):
        result = fit_bell_magnitude([(0.1, 0.17 * 0.1 - 0.02), (0.3, 0.17 * 0.3 - 0.02)])
        assert result.slope == pytest.approx(0.17, abs=1e-12)
        assert result.intercept == pytest.approx(-0.02, abs=1e-12)
        assert result.slope_std_err == 0.0
        assert result.intercept_std_err == 0.0

    def test_quoted_noiseless_points(self):
        result = fit_bell_magnitude(line_points(2.7476, [0.14, 0.18, 0.22, 0.25]))
        assert result.slope == pytest.approx(0.171725, abs=1e-6)
        assert result.intercept == pytest.approx(-0.023363, abs=1e-6)

    def test_noiseless_sweep_recovers_magnitude(self):
        magnitude = 0.9716 * CIRELSON_BOUND
        points = []
        for theta in range(0, 91, 10):
            v = vis(float(theta))
            for m in MINIMAL_OUTCOMES:
                p = pbflip_outcome(m, v, v)
                points.append((p, predicted_probability(magnitude, p)))
        result = fit_bell_magnitude(points)
        assert result.bell_magnitude == pytest.approx(magnitude, abs=1e-9)
        assert result.p_int_low == pytest.approx(intrinsic_probs(magnitude)[1], abs=1e-12)
        # Scale consistency along the line: intercept = (2 - 16*slope)/32.
        assert result.intercept == pytest.approx((2.0 - 16.0 * result.slope) / 32.0, abs=1e-12)

    def test_weighted_fit_closed_form(self):
        xs = [0.1, 0.2, 0.4]
        ys = [0.05, 0.02, 0.11]
        sigmas = [0.01, 0.02, 0.005]
        result = fit_bell_magnitude(list(zip(xs, ys, sigmas)))
        # Independent solve of the weighted normal equations.
        w = np.array([1 / s**2 for s in sigmas])
        x = np.array(xs)
        y = np.array(ys)
        design = np.array([[w.sum(), (w * x).sum()], [(w * x).sum(), (w * x * x).sum()]])
        rhs = np.array([(w * y).sum(), (w * x * y).sum()])
        intercept, slope = np.linalg.solve(design, rhs)
        cov = np.linalg.inv(design)
        assert result.slope == pytest.approx(slope, abs=1e-12)
        assert result.intercept == pytest.approx(intercept, abs=1e-12)
        assert result.slope_std_err == pytest.approx(math.sqrt(cov[1, 1]), abs=1e-12)
        assert result.intercept_std_err == pytest.approx(math.sqrt(cov[0, 0]), abs=1e-12)

    def test_weighted_points_on_line_are_exact(self):
        points = [(x, 0.17 * x - 0.02, 0.001 * (1 + i)) for i, x in enumerate([0.1, 0.2, 0.3, 0.5])]
        result = fit_bell_magnitude(points)
        assert result.slope == pytest.approx(0.17, abs=1e-12)
        assert result.intercept == pytest.approx(-0.02, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_bell_magnitude([(0.1, 0.2)])
        with pytest.raises(ValueError):
            fit_bell_magnitude([(0.1, 0.2), (0.1, 0.3)])
        with pytest.raises(ValueError):
            fit_bell_magnitude([(0.1, 0.2, 0.0), (0.2, 0.3, 0.01)])
        with pytest.raises(ValueError):
            fit_bell_magnitude([(0.1, 0.2, 0.01), (0.2, 0.3)])
        with pytest.raises(ValueError):
            fit_bell_magnitude([(0.1, 0.2, 0.01, 1.0), (0.2, 0.3, 0.01, 1.0)])
        # Finite inputs whose weights 1/s**2 or fitted values leave the float range.
        for s in (1e-200, 1e-160, 1e200):
            with pytest.raises(ValueError, match="weights"):
                fit_bell_magnitude([(0.1, 0.2, s), (0.2, 0.3, s), (0.3, 0.1, s)])
        for ys in ((1e308, -1e308, 1e308, -1e308), (1e308, -1e308, 1e308)):
            with pytest.raises(ValueError, match="not finite"):
                fit_bell_magnitude(list(zip((0.1, 0.2, 0.3, 0.4), ys)))

    def test_monte_carlo_sweep_within_reported_errors(self):
        truth = 0.9716 * CIRELSON_BOUND
        state = werner_state(0.9716)
        points = []
        for index, theta in enumerate(range(0, 91, 10)):
            dist = joint_distribution(state, float(theta), float(theta))
            table = sample_counts(dist, 5.5e5, seed=7 ^ index)
            observed, errors = probabilities_from_counts(table)
            v = vis(float(theta))
            for m in MINIMAL_OUTCOMES:
                i = ALL_OUTCOMES.index(m)
                points.append((pbflip_outcome(m, v, v), observed.probs[i], errors[i]))
        result = fit_bell_magnitude(points)
        assert abs(result.bell_magnitude - truth) < 3.0 * result.bell_magnitude_std_err
