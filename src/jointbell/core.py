"""Operator algebra for polarization qubits.

Sharp polarization observables, uncertainty-limited joint POVMs, the CHSH
Bell operator and two-photon polarization states, all represented as plain
numpy complex matrices in the (|H>, |V>) basis with tensor order A (x) B.
Angles are degrees in real space throughout.
"""

from __future__ import annotations

import math
from typing import Iterable, Literal, NamedTuple

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


def _left_sum(values: Iterable[float] | np.ndarray) -> float | np.ndarray:
    """Float sum over the last axis added strictly left to right from 0.0 (so a leading -0.0
    adds to 0.0), the same on every Python version: numpy's pairwise sum and the compensated
    ``sum()`` of Python 3.12+ can differ in the last bit.  One cumulative sum over a list,
    iterator or 1-D array, giving a float, or over each row of an (..., k) array, giving an
    (...) array whose entries equal the sums of the rows one at a time."""
    if not isinstance(values, np.ndarray):
        values = np.fromiter(values, float)
    zeros = np.zeros(values.shape[:-1] + (1,))
    sums = np.concatenate((zeros, values), axis=-1).cumsum(axis=-1)[..., -1]
    return sums.item() if values.ndim == 1 else sums


class _Checked:
    """Mixin of the validated value types.  Namedtuple's ``_make``, and with it ``_replace``,
    builds through ``tuple.__new__`` and would skip the checks in the class's ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class PolarizationObservable(NamedTuple):
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

#: The operator basis (I, X, Y) of each side as a read-only (3, 2, 2) float stack: the
#: observables of linear polarizations have all-zero imaginary parts.
_SIDE_BASES = {
    side: _frozen(np.stack([np.eye(2), obs_x.matrix.real, obs_y.matrix.real]))
    for side, (obs_x, obs_y) in _SIDE_OBSERVABLES.items()
}

#: Signs of the (I, X, Y) coefficients (1, x, y) of each element, in OUTCOME_SIGNS order.
_ELEMENT_SIGNS = _frozen(np.array([(1, x, y) for x, y in OUTCOME_SIGNS], dtype=float))


def _check_side(side: Side) -> None:
    if side not in OBSERVABLE_ANGLES:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def side_observables(side: Side) -> tuple[PolarizationObservable, PolarizationObservable]:
    """The (X, Y) observable pair measured on one side."""
    _check_side(side)
    return _SIDE_OBSERVABLES[side]


def unit_circle_grid(thetas_deg) -> np.ndarray:
    """Visibilities (cos theta, sin theta) on the uncertainty-limit circle of n angles as a
    (2, n) array, rows vx and vy; a non-finite angle raises ValueError."""
    thetas = np.asarray(thetas_deg, dtype=float).reshape(-1)
    bad = thetas[~np.isfinite(thetas)]
    if bad.size:
        raise ValueError(f"trade-off angle must be finite, got {bad[0].item()!r}")
    radians = list(map(math.radians, thetas.tolist()))
    return np.array([list(map(math.cos, radians)), list(map(math.sin, radians))])


class VisibilityPair(_Checked, NamedTuple("VisibilityPair", [("vx", float), ("vy", float)])):
    """Measurement visibilities (V_X, V_Y) of one joint measurement.

    Physical joint measurements additionally satisfy vx**2 + vy**2 <= 1;
    that bound is checked by :meth:`require_uncertainty_bound` wherever a
    POVM or an error model is built from the pair, so that the unphysical
    region stays constructible for positivity probing.  ``vx`` and ``vy`` may
    also be arrays of pairs, as in ``pbflip_grid``: both checks cover each pair.
    """

    __slots__ = ()

    def __new__(cls, vx: float, vy: float) -> VisibilityPair:
        ok = (0.0 <= vx) & (vx <= 1.0) & (0.0 <= vy) & (vy <= 1.0)
        if not np.all(ok):  # name the first bad pair, not whole arrays
            x, y = (v.flat[np.argmin(ok)].item() for v in np.broadcast_arrays(vx, vy))
            raise ValueError(f"visibilities must lie in [0, 1], got ({x}, {y})")
        return super().__new__(cls, vx, vy)

    @classmethod
    def from_theta(cls, theta_deg: float) -> VisibilityPair:
        """The pair (cos theta, sin theta) of ``unit_circle_grid``; theta outside [0, 90]
        degrees gives a negative component and raises ValueError, as a non-finite one does."""
        return cls(*unit_circle_grid([theta_deg])[:, 0].tolist())

    def require_uncertainty_bound(self) -> None:
        """Raise unless vx**2 + vy**2 <= 1 (within POVM_TOL)."""
        r2 = np.max(self.vx * self.vx + self.vy * self.vy, initial=0.0)
        if r2 > 1.0 + POVM_TOL:
            raise UncertaintyViolationError(
                f"vx^2 + vy^2 = {r2:.6f} exceeds 1: no positive joint measurement"
            )


def povm_elements(side: Side, vx, vy) -> np.ndarray:
    """Elements (I + x*vx*X + y*vy*Y)/4 of one side as a read-only (..., 4, 2, 2) stack in
    OUTCOME_SIGNS order: one real contraction of the side's fixed (I, X, Y) basis.  ``vx`` and
    ``vy`` are two floats, or two arrays of one shape that becomes the leading axes.

    No positivity guard: callers own the uncertainty-bound check, and the
    unphysical region is deliberately reachable so tests can confirm that
    vx**2 + vy**2 = 1 is exactly the positivity boundary.
    """
    _check_side(side)
    weights = np.empty(np.shape(vx) + (3,))
    weights[..., 0], weights[..., 1], weights[..., 2] = 1.0, vx, vy
    coefficients = _ELEMENT_SIGNS * weights[..., None, :]
    elements = 0.25 * np.einsum("...ok,kab->...oab", coefficients, _SIDE_BASES[side])
    return _frozen(elements.astype(complex))


def build_joint_povm(side: Side, thetas_deg) -> np.ndarray:
    """Read-only (n, 4, 2, 2) element stacks of the side's joint measurements at n trade-off
    angles: theta = 0 is a sharp X, theta = 90 a sharp Y measurement, and the visibilities
    (cos theta, sin theta) lie on the uncertainty-limit circle.  A non-finite angle raises
    ValueError."""
    return povm_elements(side, *unit_circle_grid(thetas_deg))


def povm_from_visibilities(side: Side, vis: VisibilityPair) -> np.ndarray:
    """Element stack of the POVM with an explicit visibility pair; rejects unphysical pairs.
    Interior pairs (vx**2 + vy**2 < 1) are allowed."""
    vis.require_uncertainty_bound()
    return povm_elements(side, vis.vx, vis.vy)


class TwoQubitState(_Checked, NamedTuple("TwoQubitState", [("rho", np.ndarray)])):
    """Two-photon polarization state as a validated, read-only 4x4 density matrix."""

    __slots__ = ()

    def __new__(cls, rho: np.ndarray) -> TwoQubitState:
        rho = np.asarray(rho, dtype=complex)
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
        return super().__new__(cls, _frozen(rho))

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))


_SINGLET_PSI = np.array([0.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0], dtype=complex)
#: Density matrix of the singlet, built once (read-only).
_SINGLET_RHO = _frozen(np.outer(_SINGLET_PSI, _SINGLET_PSI.conj()))


def singlet_state() -> TwoQubitState:
    """The pure state (|HV> - |VH>)/sqrt(2).

    Anti-correlated in every parallel polarization basis; its Bell
    expectation is the extremal -2*sqrt(2).
    """
    return TwoQubitState(rho=_SINGLET_RHO)


def werner_state(v: float) -> TwoQubitState:
    """Mixture v * singlet + (1 - v) * I/4 modelling source imperfection."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {v}")
    rho = v * _SINGLET_RHO + (1.0 - v) * np.eye(4, dtype=complex) / 4.0
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

