"""Operator algebra for polarization qubits.

Sharp polarization observables, uncertainty-limited joint POVMs, the CHSH
Bell operator and two-photon polarization states, all represented as plain
numpy complex matrices in the (|H>, |V>) basis with tensor order A (x) B.
Angles are degrees in real space throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

Side = Literal["A", "B"]

#: Real-space orientation (degrees) of the +1 eigenstate of each observable.
#: Side B is rotated by 22.5 degrees against side A; this offset is what lets
#: the CHSH combination reach its quantum extremum.
OBSERVABLE_ANGLES: dict[str, dict[str, float]] = {
    "A": {"x": 0.0, "y": 45.0},
    "B": {"x": 22.5, "y": 67.5},
}

#: Quantum maximum of |<B>| (Cirel'son bound).
CIRELSON_BOUND = 2.0 * math.sqrt(2.0)

HERMITICITY_TOL = 1e-10
STATE_TOL = 1e-10
POVM_TOL = 1e-12

#: Outcome sign pairs (x, y) of a single four-outcome joint measurement.
OUTCOME_SIGNS: tuple[tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class UncertaintyViolationError(ValueError):
    """Visibility pair lies outside the unit circle vx**2 + vy**2 <= 1."""


class InvalidStateError(ValueError):
    """Density matrix fails hermiticity, trace or positivity requirements."""


def projector(angle_deg: float) -> np.ndarray:
    """Rank-1 projector onto the linear polarization cos(a)|H> + sin(a)|V>."""
    a = math.radians(angle_deg)
    k = np.array([math.cos(a), math.sin(a)], dtype=complex)
    return np.outer(k, k.conj())


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Largest entrywise deviation of ``matrix`` from its conjugate transpose."""
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def min_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, or of all the matrices of a stack."""
    return float(np.linalg.eigvalsh(matrix).min())


def _frozen(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


@dataclass(frozen=True)
class PolarizationObservable:
    """A +/-1 valued polarization observable.

    The +1 eigenstate is the linear polarization at ``plus_angle_deg``; the
    -1 eigenstate is orthogonal to it (rotated by 90 degrees in real space).
    The matrix is |a><a| - |a+90><a+90|: Hermitian, traceless, eigenvalues
    exactly +1 and -1.
    """

    plus_angle_deg: float
    matrix: np.ndarray


def observable_from_angle(plus_angle_deg: float) -> PolarizationObservable:
    """Build the polarization observable whose +1 eigenstate sits at the
    given real-space angle (reduced mod 180 degrees)."""
    alpha = plus_angle_deg % 180.0
    matrix = projector(alpha) - projector(alpha + 90.0)
    return PolarizationObservable(plus_angle_deg=alpha, matrix=_frozen(matrix))


#: The fixed (X, Y) observable pair of each side, built once (read-only).
_SIDE_OBSERVABLES = {
    side: (observable_from_angle(angles["x"]), observable_from_angle(angles["y"]))
    for side, angles in OBSERVABLE_ANGLES.items()
}

#: The operator basis (I, X, Y) of each side as a read-only (3, 2, 2) stack.
_SIDE_BASES = {
    side: _frozen(np.stack([np.eye(2, dtype=complex), obs_x.matrix, obs_y.matrix]))
    for side, (obs_x, obs_y) in _SIDE_OBSERVABLES.items()
}

#: Signs of the (I, X, Y) coefficients (1, x, y) of each element, in OUTCOME_SIGNS order.
_ELEMENT_SIGNS = _frozen(np.array([(1, x, y) for x, y in OUTCOME_SIGNS], dtype=float))


def side_observables(side: Side) -> tuple[PolarizationObservable, PolarizationObservable]:
    """The (X, Y) observable pair measured on one side."""
    if side not in _SIDE_OBSERVABLES:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return _SIDE_OBSERVABLES[side]


def _unit_circle(theta_deg: float) -> tuple[float, float]:
    """Visibilities (cos theta, sin theta) on the uncertainty-limit circle."""
    t = math.radians(theta_deg)
    return (math.cos(t), math.sin(t))


def unit_circle_grid(thetas_deg) -> np.ndarray:
    """Visibilities of n angles as a (2, n) array, rows vx and vy, each pair exactly
    ``_unit_circle(theta)``; a non-finite angle raises ValueError."""
    thetas = np.asarray(thetas_deg, dtype=float).reshape(-1)
    bad = thetas[~np.isfinite(thetas)]
    if bad.size:
        raise ValueError(f"trade-off angle must be finite, got {bad[0].item()!r}")
    return np.array([_unit_circle(t) for t in thetas.tolist()]).reshape(-1, 2).T


@dataclass(frozen=True)
class VisibilityPair:
    """Measurement visibilities (V_X, V_Y) of one joint measurement.

    Physical joint measurements additionally satisfy vx**2 + vy**2 <= 1;
    that bound is checked by :meth:`require_uncertainty_bound` wherever a
    POVM or an error model is built from the pair, so that the unphysical
    region stays constructible for positivity probing.  ``vx`` and ``vy`` may
    also be arrays of pairs, as in ``pbflip_grid``: both checks cover each pair.
    """

    vx: float
    vy: float

    def __post_init__(self) -> None:
        vx, vy = self.vx, self.vy
        if type(vx) is float:
            inside = 0.0 <= vx <= 1.0 and 0.0 <= vy <= 1.0
        else:
            inside = np.all((0.0 <= vx) & (vx <= 1.0) & (0.0 <= vy) & (vy <= 1.0))
        if not inside:
            raise ValueError(f"visibilities must lie in [0, 1], got ({vx}, {vy})")

    @classmethod
    def from_theta(cls, theta_deg: float) -> "VisibilityPair":
        """The pair (cos theta, sin theta); theta outside [0, 90] degrees
        gives a negative component and raises ValueError."""
        return cls(*_unit_circle(theta_deg))

    @property
    def theta_deg(self) -> float:
        """Nominal trade-off angle atan2(vy, vx) in degrees."""
        return math.degrees(math.atan2(self.vy, self.vx))

    @property
    def radius(self) -> float:
        return math.hypot(self.vx, self.vy)

    def require_uncertainty_bound(self) -> None:
        """Raise unless vx**2 + vy**2 <= 1 (within POVM_TOL)."""
        r2 = self.vx * self.vx + self.vy * self.vy
        if type(r2) is not float:
            r2 = np.max(r2, initial=0.0)
        if r2 > 1.0 + POVM_TOL:
            raise UncertaintyViolationError(
                f"vx^2 + vy^2 = {r2:.6f} exceeds 1: no positive joint measurement"
            )


@dataclass(frozen=True)
class MeasurementSetting:
    """Uncertainty trade-off angle theta of a joint measurement on one side.

    theta = 0 is a sharp X measurement, theta = 90 a sharp Y measurement;
    the derived visibilities (cos theta, sin theta) always lie on the
    uncertainty-limit circle.
    """

    theta_deg: float
    side: Side

    def __post_init__(self) -> None:
        if self.side not in OBSERVABLE_ANGLES:
            raise ValueError(f"side must be 'A' or 'B', got {self.side!r}")
        if not math.isfinite(self.theta_deg):
            raise ValueError(f"trade-off angle must be finite, got {self.theta_deg!r}")

    @property
    def visibilities(self) -> tuple[float, float]:
        return _unit_circle(self.theta_deg)


def povm_elements(side: Side, vx, vy) -> np.ndarray:
    """Elements (I + x*vx*X + y*vy*Y)/4 of one side as a read-only (..., 4, 2, 2) stack in
    OUTCOME_SIGNS order: one contraction of the side's fixed (I, X, Y) basis.  ``vx`` and
    ``vy`` are two floats, or two arrays of one shape that becomes the leading axes.

    No positivity guard: callers own the uncertainty-bound check, and the
    unphysical region is deliberately reachable so tests can confirm that
    vx**2 + vy**2 = 1 is exactly the positivity boundary.
    """
    weights = np.empty(np.shape(vx) + (3,))
    weights[..., 0], weights[..., 1], weights[..., 2] = 1.0, vx, vy
    coefficients = _ELEMENT_SIGNS * weights[..., None, :]
    return _frozen(0.25 * np.einsum("...ok,kab->...oab", coefficients, _SIDE_BASES[side]))


def build_joint_povm(setting: MeasurementSetting) -> np.ndarray:
    """Element stack of the POVM with visibilities (cos theta, sin theta) for the side's
    observables."""
    return povm_elements(setting.side, *setting.visibilities)


def povm_from_visibilities(side: Side, vis: VisibilityPair) -> np.ndarray:
    """Element stack of the POVM with an explicit visibility pair; rejects unphysical pairs.
    Interior pairs (vx**2 + vy**2 < 1) are allowed."""
    vis.require_uncertainty_bound()
    return povm_elements(side, vis.vx, vis.vy)


@dataclass(frozen=True)
class TwoQubitState:
    """Two-photon polarization state as a validated 4x4 density matrix."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if not np.isfinite(rho).all():
            raise InvalidStateError("density matrix entries must be finite")
        if rho.shape != (4, 4):
            raise InvalidStateError(f"density matrix must be 4x4, got {rho.shape}")
        defect = hermiticity_defect(rho)
        if defect > HERMITICITY_TOL:
            raise InvalidStateError(f"density matrix not Hermitian (defect {defect:.3e})")
        trace = complex(np.trace(rho)).real
        if abs(trace - 1.0) > STATE_TOL:
            raise InvalidStateError(f"density matrix trace {trace!r} != 1")
        lo = min_eigenvalue(rho)
        if lo < -STATE_TOL:
            raise InvalidStateError(f"density matrix not positive (min eigenvalue {lo:.3e})")
        object.__setattr__(self, "rho", _frozen(rho))

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))


def singlet_state() -> TwoQubitState:
    """The pure state (|HV> - |VH>)/sqrt(2).

    Anti-correlated in every parallel polarization basis; its Bell
    expectation is the extremal -2*sqrt(2).
    """
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / math.sqrt(2.0)
    psi[2] = -1.0 / math.sqrt(2.0)
    return TwoQubitState(rho=np.outer(psi, psi.conj()))


def werner_state(v: float) -> TwoQubitState:
    """Mixture v * singlet + (1 - v) * I/4 modelling source imperfection."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {v}")
    rho = v * singlet_state().rho + (1.0 - v) * np.eye(4, dtype=complex) / 4.0
    return TwoQubitState(rho=rho)


def random_two_qubit_state(rng: np.random.Generator) -> TwoQubitState:
    """Random full-rank density matrix G G^dag / tr(G G^dag)."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return TwoQubitState(rho=rho)


def _chsh_operator() -> np.ndarray:
    (xa, ya), (xb, yb) = _SIDE_OBSERVABLES["A"], _SIDE_OBSERVABLES["B"]
    return _frozen(
        np.kron(xa.matrix, xb.matrix)
        - np.kron(xa.matrix, yb.matrix)
        + np.kron(ya.matrix, xb.matrix)
        + np.kron(ya.matrix, yb.matrix)
    )


_BELL_OPERATOR = _chsh_operator()


def bell_operator() -> np.ndarray:
    """CHSH operator X_A X_B - X_A Y_B + Y_A X_B + Y_A Y_B (4x4 Hermitian, built once)."""
    return _BELL_OPERATOR


def bell_expectation(state: TwoQubitState) -> float:
    """tr(rho B); bounded in magnitude by 2*sqrt(2)."""
    return float(np.real(np.trace(state.rho @ bell_operator())))


def partial_trace(rho4: np.ndarray, keep: Side) -> np.ndarray:
    """Reduced 2x2 state of side ``keep`` from a 4x4 two-qubit operator."""
    r = np.asarray(rho4).reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ikjk->ij", r)
    if keep == "B":
        return np.einsum("kikj->ij", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def polarizer_angles(
    setting: MeasurementSetting, outcome: tuple[int, int]
) -> tuple[float, float]:
    """Filter angles realizing one outcome of a joint measurement.

    The detected polarization starts at the X eigenstate matching the x sign
    of the outcome and is rotated by theta/2 along the shorter arc toward
    the Y eigenstate matching the y sign.  Returns ``(polarizer_deg,
    hwp_offset_deg)`` where ``polarizer_deg`` is in [0, 180) and
    ``hwp_offset_deg`` is the signed theta/4 offset of the half-wave plate
    from its X-eigenstate orientation (a half-wave plate rotates
    polarization by twice its own angle).
    """
    x, y = outcome
    if x not in (1, -1) or y not in (1, -1):
        raise ValueError(f"outcome signs must be +1 or -1, got {outcome!r}")
    angles = OBSERVABLE_ANGLES[setting.side]
    x_angle = angles["x"] if x > 0 else angles["x"] + 90.0
    y_angle = angles["y"] if y > 0 else angles["y"] + 90.0
    # Signed shorter-arc distance between polarization axes (mod 180).
    d = (y_angle - x_angle + 90.0) % 180.0 - 90.0
    sign = 1.0 if d > 0 else -1.0
    polarizer = (x_angle + sign * setting.theta_deg / 2.0) % 180.0
    return polarizer, sign * setting.theta_deg / 4.0
