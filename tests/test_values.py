"""The value types are immutable NamedTuples, and the validated ones check every way in."""

import math

import numpy as np
import pytest

from jointbell.analysis import fit_bell_magnitude
from jointbell.core import InvalidStateError, VisibilityPair, singlet_state
from jointbell.selfcheck import CheckResult
from jointbell.sim import (
    CountTable,
    JointDistribution,
    QuasiDistribution,
    aggregate_b,
    joint_distribution,
    joint_visibilities,
    quasi_distribution,
)

VALUES = {
    "VisibilityPair": lambda: VisibilityPair(0.6, 0.8),
    "TwoQubitState": singlet_state,
    "JointDistribution": lambda: joint_distribution(singlet_state(), 45.0, 45.0),
    "QuasiDistribution": lambda: quasi_distribution(singlet_state()),
    "BAggregate": lambda: aggregate_b(joint_distribution(singlet_state(), 45.0, 45.0)),
    "VisibilityEstimate": lambda: joint_visibilities(singlet_state(), 30.0, "A"),
    "CountTable": lambda: CountTable(np.arange(16), duration_s=10.0),
    "FitResult": lambda: fit_bell_magnitude([0.0, 1.0], [0.0, 1.0]),
    "CheckResult": lambda: CheckResult(True, "detail"),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_attributes_cannot_be_assigned(make):
    value = make()
    assert type(value).__name__ in VALUES
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.5)


NEGATIVE = np.full(16, 1.0 / 14.0)
NEGATIVE[:2] = (-0.25, 0.25)
#: Per validated type: a valid value, a field and a bad value for it, and the error it raises.
VALIDATED = {
    "VisibilityPair": (VisibilityPair(0.6, 0.8), "vx", 2.0, ValueError, "must lie in"),
    "TwoQubitState": (singlet_state(), "rho", np.eye(4), InvalidStateError, "trace"),
    "JointDistribution": (JointDistribution(np.full(16, 1 / 16)), "probs", NEGATIVE, ValueError,
                          "negative outcome probability"),
    "QuasiDistribution": (QuasiDistribution(np.full(16, 1 / 16)), "values", np.full(16, 0.5),
                          ValueError, "quasi-probabilities sum to"),
    "CountTable": (CountTable(np.arange(16)), "duration_s", math.nan, ValueError,
                   "duration_s must be finite"),
}


@pytest.mark.parametrize("value, field, bad, error, match", VALIDATED.values(),
                         ids=VALIDATED.keys())
def test_construction_and_replace_check_their_input(value, field, bad, error, match):
    fields = value._asdict()
    with pytest.raises(error, match=match):
        type(value)(**{**fields, field: bad})
    with pytest.raises(error, match=match):
        value._replace(**{field: bad})
    with pytest.raises(error, match=match):
        type(value)._make({**fields, field: bad}.values())
    assert type(value._replace(**{field: fields[field]})) is type(value)


def test_replace_runs_the_conversions():
    """``_replace`` builds through the class, so the stored arrays are converted and read-only
    as after construction."""
    table = CountTable(np.arange(16))._replace(counts=[2.0] * 16)
    assert table.counts.dtype == np.int64 and not table.counts.flags.writeable
    pair = VisibilityPair(0.6, 0.8)._replace(vy=0.25)
    assert pair == (0.6, 0.25)
