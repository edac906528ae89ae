"""Each array-stacked ``validate`` suite fails when the library function it checks is wrong
by more than the suite's tolerance: the wrong copy replaces the function in ``selfcheck``'s
namespace, which is where the suite looks it up."""

import numpy as np
import pytest

from jointbell import selfcheck
from jointbell.analysis import flip_convolve
from jointbell.core import (
    VisibilityPair,
    bell_expectation,
    bell_operator,
    build_joint_povm,
    observable_from_angle,
    povm_elements,
    side_observables,
    unit_circle_grid,
)
from jointbell.sim import SweepGrid, joint_distribution, joint_visibilities, sweep_grid


def povm_beyond_the_circle(side, thetas_deg):
    """Visibilities 0.1% outside the unit circle: some elements have a negative eigenvalue."""
    return povm_elements(side, *(1.001 * unit_circle_grid(thetas_deg)))


def povm_summing_past_identity(side, thetas_deg):
    return build_joint_povm(side, thetas_deg) * (1.0 + 1e-9)


def elements_pulled_inside(side, vx, vy):
    """Every pair moved to radius 0.99, where all elements are positive."""
    scale = 0.99 / np.hypot(vx, vy)
    return povm_elements(side, vx * scale, vy * scale)


def povm_without_bound_check(side, vis):
    return povm_elements(side, vis.vx, vis.vy)


def y_observable_rotated(side):
    obs_x, obs_y = side_observables(side)
    return obs_x, observable_from_angle(obs_y.plus_angle_deg + 1e-3)


def bell_operator_scaled():
    return bell_operator() * (1.0 + 1e-9)


def bell_expectation_scaled(state):
    return bell_expectation(state) * (1.0 + 1e-9)


def sweep_off_normalization(state, thetas):
    return SweepGrid(tuple(thetas), sweep_grid(state, thetas).p_theory * (1.0 + 1e-9))


def shifted_theta_a_distribution(state, theta_a_deg, theta_b_deg):
    return joint_distribution(state, theta_a_deg + 1e-3, theta_b_deg)


def flip_convolve_vx_a_shrunk(quasi, vis_a, vis_b):
    return flip_convolve(quasi, VisibilityPair(vis_a.vx * (1.0 - 1e-6), vis_a.vy), vis_b)


def joint_visibilities_radius_stretched(state, theta_deg, side):
    est = joint_visibilities(state, theta_deg, side)
    return est._replace(radius=est.radius * (1.0 + 1e-9))


MUTANTS = [
    (selfcheck.check_povm_positivity, "build_joint_povm", povm_beyond_the_circle),
    (selfcheck.check_povm_completeness, "build_joint_povm", povm_summing_past_identity),
    (selfcheck.check_uncertainty_boundary, "povm_elements", elements_pulled_inside),
    (selfcheck.check_uncertainty_boundary, "povm_from_visibilities", povm_without_bound_check),
    (selfcheck.check_observable_algebra, "side_observables", y_observable_rotated),
    (selfcheck.check_observable_algebra, "bell_operator", bell_operator_scaled),
    (selfcheck.check_werner_linearity, "bell_expectation", bell_expectation_scaled),
    (selfcheck.check_distribution_normalization, "sweep_grid", sweep_off_normalization),
    (selfcheck.check_marginal_consistency, "joint_distribution", shifted_theta_a_distribution),
    (selfcheck.check_visibility_scaling, "joint_distribution", shifted_theta_a_distribution),
    (selfcheck.check_flip_convolution, "flip_convolve", flip_convolve_vx_a_shrunk),
    (selfcheck.check_visibility_circle, "joint_visibilities", joint_visibilities_radius_stretched),
]


@pytest.mark.parametrize(
    ("check", "name", "wrong"),
    MUTANTS,
    ids=[f"{check.__name__.removeprefix('check_')}-{wrong.__name__}"
         for check, _, wrong in MUTANTS],
)
def test_suite_fails_on_a_wrong_function(monkeypatch, check, name, wrong):
    assert check().passed
    monkeypatch.setattr(selfcheck, name, wrong)
    assert check().passed is False
