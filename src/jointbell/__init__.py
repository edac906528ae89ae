"""Uncertainty-limited joint polarization measurements on entangled photon
pairs: POVM construction, sixteen-outcome joint statistics, Poisson count
simulation, the bit-flip error model and the Bell-magnitude line fit."""

from .core import (
    CIRELSON_BOUND,
    InvalidStateError,
    PolarizationObservable,
    TwoQubitState,
    UncertaintyViolationError,
    VisibilityPair,
    bell_expectation,
    bell_operator,
    build_joint_povm,
    observable_from_angle,
    partial_trace,
    povm_from_visibilities,
    random_two_qubit_state,
    side_observables,
    singlet_state,
    werner_state,
)
from .sim import (
    ALL_OUTCOMES,
    BAggregate,
    CountFileError,
    CountTable,
    JointDistribution,
    Outcome,
    QuasiDistribution,
    SweepGrid,
    VisibilityEstimate,
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
from .analysis import (
    MINIMAL_OUTCOMES,
    FitResult,
    cirelson_floor,
    fit_bell_magnitude,
    fit_sweep,
    flip_convolve,
    intrinsic_probs,
    pbflip_grid,
    pbflip_outcome,
    predicted_probability,
    read_sweep,
    write_sweep,
)

__version__ = "0.1.0"
