import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointbell.core import (
    CIRELSON_BOUND,
    OBSERVABLE_ANGLES,
    OUTCOME_SIGNS,
    InvalidStateError,
    TwoQubitState,
    UncertaintyViolationError,
    VisibilityPair,
    _SIDE_BASES,
    _left_sum,
    bell_expectation,
    bell_operator,
    build_joint_povm,
    min_eigenvalue,
    observable_from_angle,
    partial_trace,
    povm_elements,
    povm_from_visibilities,
    projector,
    random_two_qubit_state,
    side_observables,
    singlet_state,
    unit_circle_grid,
    werner_state,
)
from jointbell.sim import ALL_OUTCOMES, SIGN_COLUMNS

ROOT2 = math.sqrt(2.0)


def rotation_form(angle_deg: float) -> np.ndarray:
    """Independent closed form: cos(2a) Z + sin(2a) X in the H/V basis."""
    two_a = math.radians(2.0 * angle_deg)
    return np.array(
        [[math.cos(two_a), math.sin(two_a)], [math.sin(two_a), -math.cos(two_a)]],
        dtype=complex,
    )


class TestObservables:
    def test_horizontal_vertical(self):
        obs = observable_from_angle(0.0)
        assert np.allclose(obs, np.diag([1.0, -1.0]), atol=1e-15)
        assert obs.dtype == float and not obs.flags.writeable

    def test_diagonal(self):
        obs = observable_from_angle(45.0)
        assert np.allclose(obs, np.array([[0, 1], [1, 0]]), atol=1e-15)

    def test_22_5_degrees(self):
        # Hand expansion of |22.5><22.5| - |112.5><112.5|.
        c45 = math.cos(math.radians(45.0))
        expected = np.array([[c45, c45], [c45, -c45]])
        assert np.allclose(observable_from_angle(22.5), expected, atol=1e-15)

    @pytest.mark.parametrize("angle", np.arange(0.0, 180.0, 7.5))
    def test_matches_rotation_form(self, angle):
        obs = observable_from_angle(angle)
        assert np.max(np.abs(obs - rotation_form(angle))) < 1e-12
        assert abs(np.trace(obs)) < 1e-15
        assert np.allclose(np.linalg.eigvalsh(obs), [-1.0, 1.0], atol=1e-12)

    def test_angle_reduced_mod_180(self):
        assert np.array_equal(observable_from_angle(190.0), observable_from_angle(10.0))
        assert np.allclose(observable_from_angle(-45.0), observable_from_angle(135.0))

    def test_plus_eigenstate_orientation(self):
        for angle in (0.0, 30.0, 67.5):
            obs = observable_from_angle(angle)
            ket = np.array([math.cos(math.radians(angle)), math.sin(math.radians(angle))])
            assert np.allclose(obs @ ket, ket, atol=1e-12)

    def test_same_side_observables_anticommute(self):
        for side in ("A", "B"):
            ox, oy = side_observables(side)
            anti = ox @ oy + oy @ ox
            assert np.max(np.abs(anti)) < 1e-12

    def test_table_angles(self):
        assert OBSERVABLE_ANGLES == {"A": {"x": 0.0, "y": 45.0}, "B": {"x": 22.5, "y": 67.5}}
        for side, angles in OBSERVABLE_ANGLES.items():
            for obs, angle in zip(side_observables(side), (angles["x"], angles["y"])):
                assert np.array_equal(obs, observable_from_angle(angle))

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_table_matches_rotation_form(self, side):
        for axis, obs in zip("xy", side_observables(side)):
            expected = rotation_form(OBSERVABLE_ANGLES[side][axis])
            assert np.max(np.abs(obs - expected)) < 1e-12

    def test_table_is_shared_and_read_only(self):
        for side in ("A", "B"):
            observables = side_observables(side)
            assert observables.shape == (2, 2, 2) and observables.dtype == float
            assert np.shares_memory(observables, _SIDE_BASES[side])
            for obs in observables:
                with pytest.raises(ValueError):
                    obs[0, 0] = 0.0

    def test_bad_side(self):
        with pytest.raises(ValueError):
            side_observables("C")


class TestJointPovm:
    def test_theta45_element(self):
        povm = build_joint_povm("A", [45.0])[0]
        xa, ya = side_observables("A")
        expected = 0.25 * (np.eye(2) + (ROOT2 / 2) * xa + (ROOT2 / 2) * ya)
        assert np.allclose(povm[OUTCOME_SIGNS.index((1, 1))], expected, atol=1e-15)

    def test_theta20_side_b_element(self):
        povm = build_joint_povm("B", [20.0])[0]
        xb, yb = side_observables("B")
        c, s = math.cos(math.radians(20.0)), math.sin(math.radians(20.0))
        expected = 0.25 * (np.eye(2) - c * xb + s * yb)
        assert np.allclose(povm[OUTCOME_SIGNS.index((-1, 1))], expected, atol=1e-15)
        assert c == pytest.approx(0.9397, abs=5e-5)
        assert s == pytest.approx(0.3420, abs=5e-5)

    def test_theta0_pairs_degenerate(self):
        povm = build_joint_povm("A", [0.0])[0]
        xa, _ = side_observables("A")
        for x in (1, -1):
            expected = 0.25 * (np.eye(2) + x * xa)
            assert np.allclose(povm[OUTCOME_SIGNS.index((x, 1))], expected, atol=1e-15)
            assert np.allclose(povm[OUTCOME_SIGNS.index((x, -1))], expected, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(-720.0, 720.0, allow_nan=False),
        side=st.sampled_from(["A", "B"]),
    )
    def test_any_angle_on_circle_is_positive(self, theta, side):
        povm = build_joint_povm(side, [theta])[0]
        assert min_eigenvalue(povm) >= -1e-12
        assert np.max(np.abs(povm.sum(axis=0) - np.eye(2))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        r2=st.floats(1.001, 1.99),
        angle=st.floats(0.1, math.pi / 2 - 0.1),
        side=st.sampled_from(["A", "B"]),
    )
    def test_outside_circle_breaks_positivity(self, r2, angle, side):
        vx = math.sqrt(r2) * math.cos(angle)
        vy = math.sqrt(r2) * math.sin(angle)
        if vx > 1.0 or vy > 1.0:
            return
        low = min(min_eigenvalue(e) for e in povm_elements(side, vx, vy))
        assert low < 0
        with pytest.raises(UncertaintyViolationError):
            povm_from_visibilities(side, VisibilityPair(vx, vy))

    def test_interior_pair_allowed(self):
        povm = povm_from_visibilities("A", VisibilityPair(0.5, 0.5))
        assert min_eigenvalue(povm) >= -1e-15

    def test_visibility_pair_component_range(self):
        with pytest.raises(ValueError):
            VisibilityPair(1.2, 0.0)
        with pytest.raises(ValueError):
            VisibilityPair(0.5, -0.1)

    def test_from_theta_round_trip(self):
        for theta in np.linspace(0.0, 90.0, 181):
            vis = VisibilityPair.from_theta(float(theta))
            assert [[vis.vx], [vis.vy]] == unit_circle_grid([theta]).tolist()

    def test_from_theta_outside_quadrant_rejected(self):
        with pytest.raises(ValueError):
            VisibilityPair.from_theta(120.0)

    def test_setting_visibilities_on_unit_circle(self):
        thetas = np.arange(0.0, 90.0 + 1e-9, 5.0)
        vx, vy = unit_circle_grid(thetas)
        assert np.max(np.abs(vx * vx + vy * vy - 1.0)) < 1e-12
        # The stacks carry exactly these visibilities: +-vx on X, +-vy on Y.
        for side in ("A", "B"):
            stack = build_joint_povm(side, thetas)
            assert stack.tobytes() == povm_elements(side, vx, vy).tobytes()

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_setting_rejects_non_finite_angle(self, theta):
        message = f"trade-off angle must be finite, got {theta!r}"
        with pytest.raises(ValueError, match=message):
            build_joint_povm("A", [theta])
        with pytest.raises(ValueError, match=message):
            build_joint_povm("B", [10.0, theta, 20.0])
        with pytest.raises(ValueError, match=message):
            unit_circle_grid([10.0, theta, 20.0])
        with pytest.raises(ValueError, match=message):
            VisibilityPair.from_theta(theta)

    def test_grid_visibilities_equal_the_settings_bit_for_bit(self):
        thetas = [0, 22.5, 45.0, *np.random.default_rng(3).uniform(-100.0, 200.0, 50)]
        vx, vy = unit_circle_grid(thetas)
        assert list(zip(vx.tolist(), vy.tolist())) == [
            (math.cos(math.radians(t)), math.sin(math.radians(t))) for t in thetas
        ]
        assert unit_circle_grid([]).shape == (2, 0)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_stack_rows_equal_single_angle_builds_bit_for_bit(self, side):
        thetas = [0.0, 22.5, 45.0, 90.0, *np.random.default_rng(12).uniform(-100.0, 200.0, 40)]
        stack = build_joint_povm(side, thetas)
        assert stack.shape == (len(thetas), 4, 2, 2) and not stack.flags.writeable
        for i, theta in enumerate(thetas):
            assert stack[i].tobytes() == build_joint_povm(side, [theta])[0].tobytes()
        assert build_joint_povm(side, []).shape == (0, 4, 2, 2)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_element_stack_matches_rotation_forms(self, side):
        ox, oy = (rotation_form(OBSERVABLE_ANGLES[side][axis]) for axis in "xy")
        rng = np.random.default_rng(340)
        for vx, vy in [(1.0, 1.0), (0.0, 0.0), *rng.uniform(0.0, 1.0, size=(20, 2))]:
            elements = povm_elements(side, vx, vy)
            assert elements.shape == (4, 2, 2) and not elements.flags.writeable
            for (x, y), element in zip(OUTCOME_SIGNS, elements):
                expected = 0.25 * (np.eye(2) + x * vx * ox + y * vy * oy)
                assert np.max(np.abs(element - expected)) < 1e-15

    def test_setting_rejects_bad_side(self):
        with pytest.raises(ValueError, match="side must be 'A' or 'B', got 'X'"):
            build_joint_povm("X", [45.0])

    def test_povm_elements_rejects_bad_side(self):
        with pytest.raises(ValueError, match="side must be 'A' or 'B', got 'C'"):
            povm_elements("C", 1.0, 0.0)


class TestLeftSum:
    def test_adds_left_to_right_on_every_python(self):
        # A compensated sum (math.fsum, or sum() on Python 3.12+) gives 2.0 and 1.0 here.
        assert _left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
        assert _left_sum(np.array([1.0, 1e100, 1.0, -1e100])) == 0.0
        assert _left_sum(iter([0.1] * 10)) == 0.9999999999999999
        assert _left_sum(np.full(10, 0.1)) == 0.9999999999999999
        assert _left_sum([]) == 0.0
        assert _left_sum(np.empty(0)) == 0.0

    def test_leading_negative_zero_adds_to_positive_zero(self):
        # 0.0 + -0.0 is +0.0: the sum starts from 0.0, as reduce(operator.add, values, 0.0) does.
        for values in ([-0.0], iter([-0.0, -0.0]), np.array([-0.0]), np.array([-0.0, -0.0])):
            total = _left_sum(values)
            assert type(total) is float and math.copysign(1.0, total) == 1.0

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False) | st.sampled_from([-0.0, 5e-324, -1e-17]),
                           max_size=50))
    def test_list_iterator_and_array_equal_the_left_fold(self, values):
        expected = functools.reduce(operator.add, values, 0.0).hex()
        for form in (values, iter(values), np.array(values, dtype=float)):
            with np.errstate(over="ignore", invalid="ignore"):
                assert _left_sum(form).hex() == expected

    @settings(max_examples=80, deadline=None)
    @given(shape=st.tuples(st.integers(0, 5), st.integers(0, 9)), data=st.data())
    def test_rows_of_an_array_equal_each_row_alone(self, shape, data):
        """An (n, k) array sums row by row, bit for bit, also with a leading axis added; the
        first row, when there is one, leads with -0.0."""
        elements = st.floats(allow_nan=False) | st.sampled_from([-0.0, 5e-324, -1e-17])
        a = np.array(data.draw(st.lists(elements, min_size=shape[0] * shape[1],
                                        max_size=shape[0] * shape[1]))).reshape(shape)
        if a.size:
            a[0, 0] = -0.0
        with np.errstate(over="ignore", invalid="ignore"):
            expected = [_left_sum(row).hex() for row in a]
            sums = _left_sum(a)
            assert sums.shape == (shape[0],) and [s.hex() for s in sums.tolist()] == expected
            assert [s.hex() for s in _left_sum(a[None]).ravel().tolist()] == expected


class TestStates:
    def test_singlet_basics(self):
        state = singlet_state()
        assert abs(np.trace(state.rho) - 1.0) < 1e-15
        assert state.purity() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("angle", [0.0, 22.5, 45.0, 77.0])
    def test_singlet_parallel_anticorrelation(self, angle):
        state = singlet_state()
        obs = observable_from_angle(angle)
        value = np.real(np.trace(np.kron(obs, obs) @ state.rho))
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_singlet_bell_expectation(self):
        assert bell_expectation(singlet_state()) == pytest.approx(-CIRELSON_BOUND, abs=1e-12)

    def test_werner_limits(self):
        assert np.allclose(werner_state(1.0).rho, singlet_state().rho, atol=1e-15)
        assert np.allclose(werner_state(0.0).rho, np.eye(4) / 4, atol=1e-15)
        assert bell_expectation(werner_state(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_werner_0_9716(self):
        got = bell_expectation(werner_state(0.9716))
        assert got == pytest.approx(0.9716 * (-CIRELSON_BOUND), abs=1e-12)
        assert got == pytest.approx(-2.748, abs=1e-3)

    def test_werner_0_975_follows_scaling(self):
        # 0.975 * 2*sqrt(2) = 2.75772  (the exact scaled value).
        got = bell_expectation(werner_state(0.975))
        assert got == pytest.approx(0.975 * (-CIRELSON_BOUND), abs=1e-12)

    def test_werner_domain(self):
        with pytest.raises(ValueError):
            werner_state(-0.1)
        with pytest.raises(ValueError):
            werner_state(1.1)

    @settings(max_examples=40, deadline=None)
    @given(v=st.floats(0.0, 1.0))
    def test_werner_bell_linearity(self, v):
        assert abs(bell_expectation(werner_state(v)) - v * (-CIRELSON_BOUND)) < 1e-12

    def test_state_validation(self):
        bad_hermitian = np.eye(4, dtype=complex) / 4
        bad_hermitian = bad_hermitian.copy()
        bad_hermitian[0, 1] = 0.1
        with pytest.raises(InvalidStateError):
            TwoQubitState(rho=bad_hermitian)
        with pytest.raises(InvalidStateError):
            TwoQubitState(rho=np.eye(4, dtype=complex) / 2)
        with pytest.raises(InvalidStateError):
            TwoQubitState(rho=np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
        with pytest.raises(InvalidStateError):
            TwoQubitState(rho=np.eye(2, dtype=complex) / 2)
        for value, entry in itertools.product((math.nan, math.inf), ((0, 0), (0, 1))):
            bad = np.eye(4, dtype=complex) / 4
            bad[entry] = value
            with pytest.raises(InvalidStateError, match="finite"):
                TwoQubitState(rho=bad)

    def test_random_states_are_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = random_two_qubit_state(rng)
            assert abs(np.trace(state.rho) - 1.0) < 1e-12
            assert min_eigenvalue(state.rho) >= -1e-12


class TestBellOperator:
    def test_matches_rotation_forms(self):
        (xa, ya), (xb, yb) = (
            [rotation_form(OBSERVABLE_ANGLES[side][axis]) for axis in "xy"] for side in "AB"
        )
        expected = np.kron(xa, xb) - np.kron(xa, yb) + np.kron(ya, xb) + np.kron(ya, yb)
        assert np.max(np.abs(bell_operator() - expected)) < 1e-12

    def test_equals_projector_construction_bit_for_bit(self):
        # Each observable built as the complex |a><a| - |a+90><a+90| at its table angle; and the
        # outcome sign table whose rows the CHSH sum's signs are read from.
        (xa, ya), (xb, yb) = (
            [projector(a % 180.0) - projector(a % 180.0 + 90.0) for a in angles.values()]
            for angles in OBSERVABLE_ANGLES.values()
        )
        expected = np.kron(xa, xb) - np.kron(xa, yb) + np.kron(ya, xb) + np.kron(ya, yb)
        assert bell_operator().dtype == np.complex128
        assert bell_operator().tobytes() == expected.tobytes()
        assert np.array_equal(SIGN_COLUMNS.T, np.array(ALL_OUTCOMES))
        assert not SIGN_COLUMNS.flags.writeable

    def test_shared_and_read_only(self):
        assert bell_operator() is bell_operator()
        with pytest.raises(ValueError):
            bell_operator()[0, 0] = 0.0

    def test_square_identity(self):
        # B^2 = 4 I + [X_A, Y_A] (x) [X_B, Y_B] for anticommuting pairs.
        xa, ya = side_observables("A")
        xb, yb = side_observables("B")
        comm_a = xa @ ya - ya @ xa
        comm_b = xb @ yb - yb @ xb
        b = bell_operator()
        assert np.allclose(b @ b, 4 * np.eye(4) + np.kron(comm_a, comm_b), atol=1e-12)

    def test_traceless_in_mixed_state(self):
        mixed = TwoQubitState(rho=np.eye(4, dtype=complex) / 4.0)
        assert bell_expectation(mixed) == pytest.approx(0.0, abs=1e-12)

    def test_singlet_correlations_sum(self):
        # Each of the four correlations contributes -sqrt(2)/2.
        state = singlet_state()
        xa, ya = side_observables("A")
        xb, yb = side_observables("B")
        correlations = [
            np.real(np.trace(np.kron(xa, xb) @ state.rho)),
            -np.real(np.trace(np.kron(xa, yb) @ state.rho)),
            np.real(np.trace(np.kron(ya, xb) @ state.rho)),
            np.real(np.trace(np.kron(ya, yb) @ state.rho)),
        ]
        assert correlations == pytest.approx([-ROOT2 / 2] * 4, abs=1e-12)
        assert sum(correlations) == pytest.approx(bell_expectation(state), abs=1e-12)


PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def horodecki_bound(rho: np.ndarray) -> float:
    """Largest CHSH value 2*sqrt(t1^2 + t2^2) over all settings (Horodecki,
    Horodecki & Horodecki 1995), from the two largest singular values of the
    Pauli correlation matrix T_ij = tr[rho (sigma_i (x) sigma_j)]."""
    t = np.array([[np.trace(rho @ np.kron(a, b)).real for b in PAULIS] for a in PAULIS])
    t1, t2, _ = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(t1 * t1 + t2 * t2)


class TestHorodeckiBound:
    def test_random_states_within_bound(self):
        rng = np.random.default_rng(1995)
        for _ in range(500):
            state = random_two_qubit_state(rng)
            assert abs(bell_expectation(state)) <= horodecki_bound(state.rho) + 1e-12

    @pytest.mark.parametrize("v", [1.0, 0.9716, 0.5])
    def test_werner_states_attain_bound(self, v):
        state = werner_state(v)
        assert abs(abs(bell_expectation(state)) - horodecki_bound(state.rho)) <= 1e-12


class TestPartialTrace:
    def test_singlet_reductions_are_mixed(self):
        rho = singlet_state().rho
        assert np.allclose(partial_trace(rho, "A"), np.eye(2) / 2, atol=1e-12)
        assert np.allclose(partial_trace(rho, "B"), np.eye(2) / 2, atol=1e-12)

    def test_product_state_factors(self):
        a = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        b = np.array([[0.2, 0.0], [0.0, 0.8]], dtype=complex)
        rho = np.kron(a, b)
        assert np.allclose(partial_trace(rho, "A"), a, atol=1e-14)
        assert np.allclose(partial_trace(rho, "B"), b, atol=1e-14)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError, match="keep must be 'A' or 'B', got 'C'"):
            partial_trace(np.eye(4), "C")

