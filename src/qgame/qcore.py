"""Dense complex linear algebra for one- and two-qubit objects.

Convention used everywhere in this package: two-qubit amplitudes are
ordered |00>, |01>, |10>, |11>.  The first qubit belongs to player one,
the second to player two.  Gate matrices are 4x4 complex in the same
ordering, applied on the left of column vectors.  Only tensor and apply
form joint states, and both pass them through one check, _joint_state.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


class QGameError(Exception):
    """Base class for errors raised by this package."""


class NormalizationError(QGameError):
    """A state vector is not normalized within tolerance."""


class UnitarityError(QGameError):
    """A matrix is not unitary within tolerance."""


@dataclass(frozen=True)
class Tolerances:
    """Central numeric tolerances.

    Every magic epsilon in the package lives here so the relationships
    between them stay visible: state normalization is the tightest,
    unitarity is looser because it accumulates over a 4x4 product, and
    the equilibrium slack dominates both.
    """

    state_norm: float = 1e-12          # | sum |amp|^2 - 1 | for state vectors
    unitarity: float = 1e-10           # entrywise max of |U^H U - I|
    equilibrium: float = 1e-9          # default slack when comparing amplitudes
    degenerate_coefficient: float = 1e-10  # coefficient treated as zero in region math
    completion_residual: float = 1e-8  # Gram-Schmidt seed rejection cutoff
    payoff_dedup: float = 1e-6         # payoff-vector proximity for de-duplication
    amplitude_input: float = 1e-6      # accepted normalization drift on CLI input
    disc: float = 1e-12                # slack for unit-disc membership checks


TOL = Tolerances()

# Largest norm^2 drift that _joint_state absorbs by renormalizing instead of raising.
_APPLY_DRIFT = 1e-9


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _unit_rows(values, what: str) -> np.ndarray:
    """Read-only complex copy of the 2-D array values, each row checked for finiteness and unit norm."""
    v = np.array(values, dtype=complex)
    if not np.isfinite(v).all():
        raise NormalizationError(f"{what} contains non-finite amplitudes")
    for norm_sq in (abs(v) ** 2).sum(axis=1).tolist():
        if abs(norm_sq - 1.0) > TOL.state_norm:
            raise NormalizationError(f"{what} norm^2 = {norm_sq!r} deviates from 1 by more than {TOL.state_norm}")
    v.setflags(write=False)
    return v


def _unit_vector(values, size: int, what: str) -> np.ndarray:
    """Read-only complex copy of values, checked for size, finiteness and unit norm."""
    v = np.asarray(values).reshape(-1)
    if v.shape != (size,):
        raise NormalizationError(f"{what} must have exactly {size} amplitudes, got shape {np.shape(values)}")
    return _unit_rows(v[None], what)[0]


@dataclass(frozen=True, eq=False)
class QubitState:
    """A normalized single-qubit state (x, y) = amplitudes of |0>, |1>."""

    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", _unit_vector(self.vec, 2, "qubit state"))

    @property
    def x(self) -> complex:
        return complex(self.vec[0])

    @property
    def y(self) -> complex:
        return complex(self.vec[1])

    @classmethod
    def from_amplitudes(cls, x: complex, y: complex) -> "QubitState":
        return cls(np.array([x, y], dtype=complex))

    @classmethod
    def from_bloch(cls, theta: float, phi: float) -> "QubitState":
        """State (cos(theta/2), e^{i phi} sin(theta/2)); global phase fixed real on |0>."""
        return cls(np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)]))


def _wrap_rows(cls, rows: np.ndarray) -> list:
    """States of class cls holding the rows of a checked, read-only array, without checking them again."""
    states = []
    for row in rows:
        state = object.__new__(cls)
        object.__setattr__(state, "vec", row)
        states.append(state)
    return states


KET0 = QubitState(np.array([1.0, 0.0], dtype=complex))
KET1 = QubitState(np.array([0.0, 1.0], dtype=complex))


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A normalized two-qubit state vector in the |00>,|01>,|10>,|11> ordering."""

    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", _unit_vector(self.vec, 4, "two-qubit state"))

    def amplitude(self, index: int) -> complex:
        return complex(self.vec[index])


def unitarity_deviation(mat: np.ndarray) -> float:
    """Max entrywise modulus of U^H U - I."""
    m = np.asarray(mat, dtype=complex)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def check_unitary(mat: np.ndarray, tol: float = TOL.unitarity) -> bool:
    """True when mat is 4x4, finite, and U^H U = I entrywise within tol."""
    m = np.asarray(mat, dtype=complex)
    if m.shape != (4, 4) or not np.all(np.isfinite(m)):
        return False
    return unitarity_deviation(m) <= tol


@dataclass(frozen=True, eq=False)
class GameUnitary:
    """A 4x4 unitary acting on the joint two-qubit space."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex)  # a copy: freezing it leaves the caller's array writeable
        if m.shape != (4, 4):
            raise UnitarityError(f"game unitary must be 4x4, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise UnitarityError("game unitary contains non-finite entries")
        deviation = unitarity_deviation(m)
        if deviation > TOL.unitarity:
            raise UnitarityError(
                f"unitarity violated: max |U^H U - I| entry = {deviation:.3e} exceeds {TOL.unitarity}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)


def tensor(a: QubitState, b: QubitState) -> TwoQubitState:
    """Joint state of the two players, (a.x b.x, a.x b.y, a.y b.x, a.y b.y), checked by _joint_state."""
    return _joint_state(np.outer(a.vec, b.vec).reshape(4))


def apply(u: GameUnitary, s: TwoQubitState) -> TwoQubitState:
    """Left-multiply s by u, checked by _joint_state."""
    return _joint_state(u.mat @ s.vec)


def _joint_state(v: np.ndarray) -> TwoQubitState:
    """The amplitudes v, a new array, as a read-only TwoQubitState.

    A matrix that only satisfies unitarity to 1e-10 can drift a product's
    norm past the 1e-12 state tolerance, and so can the product of two
    states each within it.  A norm^2 drift of at most _APPLY_DRIFT is
    renormalized exactly; a larger drift raises.
    """
    norm_sq = float((abs(v) ** 2).sum())
    if abs(norm_sq - 1.0) > TOL.state_norm:
        if abs(norm_sq - 1.0) > _APPLY_DRIFT:
            raise NormalizationError(f"applying unitary produced norm^2 = {norm_sq!r}")
        v = v / np.sqrt(norm_sq)
    if not np.isfinite(v).all():  # a NaN state passes the drift checks
        raise NormalizationError("two-qubit state contains non-finite amplitudes")
    v.setflags(write=False)
    return _wrap_rows(TwoQubitState, v[None])[0]


def _project_out(v: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    # Two Gram-Schmidt passes keep orthogonality near machine precision
    # even when the raw residual is close to the rejection cutoff.
    r = v.astype(complex)
    for _ in range(2):
        for c in columns:
            r = r - np.vdot(c, r) * c
    return r


def _seeded_unit(columns: list[np.ndarray], size: int = 4, start: int = 0) -> tuple[int, np.ndarray]:
    """Index and normalized residual of the first canonical basis vector, from
    index start on, whose projection against columns clears the completion cutoff."""
    for k in range(start, size):
        residual = _project_out(np.eye(size, dtype=complex)[k], columns)
        norm = float(np.linalg.norm(residual))
        if norm >= TOL.completion_residual:
            return k, residual / norm
    raise QGameError("orthonormal completion exhausted all canonical seeds")


def _fill_columns(cols: dict[int, np.ndarray]) -> np.ndarray:
    """4x4 matrix keeping the given orthonormal columns by slot, the empty slots
    filled in ascending order with seeded units orthogonal to every earlier column.

    A seed that was skipped or used for an earlier slot only loses residual
    as columns are added, so each slot's search resumes after the last seed used.
    """
    start = 0
    for slot in range(4):
        if slot not in cols:
            seed, cols[slot] = _seeded_unit([cols[c] for c in sorted(cols)], start=start)
            start = seed + 1
    return np.column_stack([cols[c] for c in range(4)])


def complete_unitary(first_column: TwoQubitState) -> GameUnitary:
    """Deterministic orthonormal completion of a unit vector to a 4x4 unitary.

    Remaining columns are seeded with the canonical basis vectors in
    ascending index order; a seed is skipped when its residual after
    projection falls below the completion cutoff.
    """
    return GameUnitary(_fill_columns({0: first_column.vec.astype(complex)}))


def random_unitary(rng: np.random.Generator) -> GameUnitary:
    """Random 4x4 unitary from QR of a complex standard-normal matrix.

    Column phases are fixed by the sign of the R diagonal so the
    distribution does not depend on the QR sign convention.
    """
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return GameUnitary(q * (d / np.abs(d)))


def random_qubit_state(rng: np.random.Generator) -> QubitState:
    """Random qubit state, uniform on the sphere of normalized amplitude pairs."""
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return QubitState(z / np.linalg.norm(z))
