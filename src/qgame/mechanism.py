"""Mechanism design: synthesize a game unitary that makes a chosen joint
state the certified equilibrium outcome of a chosen input play.

Fixing the input play to computational basis states pins one column of
the unitary to the target amplitudes.  The remaining freedom is used in
one of two ways: paper_bound mode keeps a deviation-dependent modulus
bound on the single entry that lets player one improve, while strict
mode zeroes that entry and its player-two counterpart outright, which
removes every profitable unilateral deviation in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .equilibria import EquilibriumCertificate, verify_equilibrium
from .game import Play, PreferenceProfile, QuantumGame, outcome
from .gates import bell_state
from .qcore import KET0, GameUnitary, QGameError, QubitState, TOL, TwoQubitState
from .qcore import _fill_columns, _project_out, _seeded_unit


class SynthesisError(QGameError):
    """Requested mechanism constraints cannot be realized."""


_GROUND_PLAY = Play(KET0, KET0)

# Largest off-basis amplitude modulus that _basis_component reads as rounding: a basis state rebuilt from
# Bloch angles carries about 6e-17 there, and 1e-9 moves a target amplitude by at most the default tol.
_BASIS_ROUNDING = 1e-9

# Largest target-column modulus that derive_constraints reports as an exact zero: a thousandth of the
# default tol, so no verdict at that tol can tell such an amplitude from 0.  bench/checks.py reads the same cut.
_ZERO_ENTRY = 1e-12

# Smallest residual of an existing column, restricted to _constrained_unit's coordinates, that it keeps
# as a direction to avoid: a smaller one lies in the span of those before it up to rounding, and
# normalizing it would turn that rounding into a spurious direction.
_RESIDUAL_FLOOR = 1e-12

# Excess over its cap that _enforce_modulus_cap leaves as rounding: a completion entry that is 0 but for
# rounding, as the ground play's improvement entry is (at most 1.3e-16 over 2,000 random targets), is not
# rotated for a cap of 0.
_CAP_ROUNDING = 1e-15


@dataclass(frozen=True, eq=False)
class MechanismTarget:
    """The joint state a mechanism must produce, and at which input play."""

    target_output: TwoQubitState
    input_play: Play = _GROUND_PLAY
    prefs: PreferenceProfile = field(default_factory=PreferenceProfile)


@dataclass(frozen=True, eq=False)
class EntryConstraint:
    """One constraint on a unitary entry, rows and columns 1-based.

    kind is "equals_value" or "equals_zero" for entries pinned by the
    required output column, or "modulus_bound" with a bound evaluator
    mapping deviation moduli (|x1|, |y1|) to an upper bound on the
    entry's modulus; the evaluator is defined whenever the deviation
    differs from the played basis direction.
    """

    row: int
    col: int
    kind: str
    value: complex | None = None
    bound: Callable[[float, float], float] | None = None
    description: str = ""


@dataclass(frozen=True, eq=False)
class MechanismCertification:
    """certify_mechanism result: output fidelity plus the equilibrium check."""

    fidelity: float
    certificate: EquilibriumCertificate
    certified: bool


def _basis_component(s: QubitState, what: str) -> tuple[int, complex]:
    """Basis index and unit phase of a computational basis state."""
    if abs(s.y) <= _BASIS_ROUNDING:
        index, amp = 0, s.x
    elif abs(s.x) <= _BASIS_ROUNDING:
        index, amp = 1, s.y
    else:
        raise SynthesisError(
            f"{what} must be a computational basis state up to phase; "
            f"got amplitudes ({s.x!r}, {s.y!r})"
        )
    return index, amp / abs(amp)


def _column_layout(t: MechanismTarget) -> tuple[int, int, np.ndarray, int, int, Callable[[float, float], float]]:
    """Player one's input basis index, the fixed column index and its required values, the two entries
    that control unilateral improvement (player one's and player two's), and player one's entry's bound."""
    i, phase_a = _basis_component(t.input_play.a, "player one input")
    j, phase_b = _basis_component(t.input_play.b, "player two input")
    k = 2 * i + j
    column = t.target_output.vec * np.conj(phase_a * phase_b)
    # The deviator's free amplitude multiplies the column with their own
    # basis bit flipped; the opponent's bit is unchanged.
    flip_a = 2 * (1 - i) + j
    flip_b = 2 * i + (1 - j)
    return i, k, column, flip_a, flip_b, _deviation_bound(abs(column[t.prefs.player1_target]), i == 0)


def _deviation_bound(known_modulus: float, aligned_is_x: bool) -> Callable[[float, float], float]:
    def bound(x_mod: float, y_mod: float) -> float:
        aligned, other = (x_mod, y_mod) if aligned_is_x else (y_mod, x_mod)
        if other <= 0.0:
            raise ValueError("deviation bound is undefined when the deviation equals the played basis state")
        return known_modulus * (1.0 - aligned) / other

    return bound


def derive_constraints(t: MechanismTarget) -> list[EntryConstraint]:
    """Entry constraints any mechanism for t must satisfy.

    Four equality constraints pin the acted-upon column to the target
    amplitudes (adjusted for input phases), and one modulus bound caps
    the entry through which player one could otherwise improve.  The
    bound keeps the played strategy weakly best among deviations at the
    evaluated moduli; it tightens as the deviation moves away from the
    played basis state.
    """
    i, k, column, flip_a, _, bound = _column_layout(t)
    t1 = t.prefs.player1_target

    constraints: list[EntryConstraint] = []
    for row in range(4):
        value = complex(column[row])
        zero = abs(value) <= _ZERO_ENTRY
        constraints.append(
            EntryConstraint(
                row + 1, k + 1, "equals_zero" if zero else "equals_value", 0j if zero else value, None,
                f"U[{row + 1},{k + 1}] = {'0' if zero else format(value, '.12g')}, fixed by the required output column",
            )
        )

    known = abs(column[t1])
    aligned_name, other_name = ("|x1|", "|y1|") if i == 0 else ("|y1|", "|x1|")
    constraints.append(
        EntryConstraint(
            t1 + 1, flip_a + 1, "modulus_bound", None, bound,
            f"|U[{t1 + 1},{flip_a + 1}]| <= {known:.12g} * (1 - {aligned_name}) / {other_name} "
            f"for deviations with {other_name} > 0",
        )
    )
    return constraints


def _constrained_unit(existing: list[np.ndarray], zero_row: int) -> np.ndarray:
    """Deterministic unit vector with a zero entry, orthogonal to existing columns.

    Works inside the coordinate subspace excluding zero_row so the zero
    is exact by construction; orthogonality is arranged against the
    restrictions of the existing columns to that subspace.
    """
    coords = [r for r in range(4) if r != zero_row]
    forbidden: list[np.ndarray] = []
    for c in existing:
        r = _project_out(c[coords], forbidden)
        norm = float(np.linalg.norm(r))
        if norm >= _RESIDUAL_FLOOR:
            forbidden.append(r / norm)
    v = np.zeros(4, dtype=complex)
    v[coords] = _seeded_unit(forbidden, size=3)[1]
    return v


def _enforce_modulus_cap(mat: np.ndarray, row: int, col: int, cap: float, fixed_col: int) -> np.ndarray:
    """Rotate completion columns so |mat[row, col]| drops to exactly cap.

    Only columns other than fixed_col are mixed, so the pinned output
    column is untouched and unitarity is preserved exactly.
    """
    u = mat.copy()
    entry = u[row, col]
    if abs(entry) <= cap + _CAP_ROUNDING:
        return u
    partners = [c for c in range(4) if c not in (fixed_col, col)]
    p1, p2 = partners
    # First concentrate the partners' row mass into p1.
    w1, w2 = u[row, p1], u[row, p2]
    rho = math.hypot(abs(w1), abs(w2))
    if abs(w2) > 0.0 and rho > 0.0:
        c_p1, c_p2 = u[:, p1].copy(), u[:, p2].copy()
        u[:, p1] = (np.conj(w1) * c_p1 + np.conj(w2) * c_p2) / rho
        u[:, p2] = (-w2 * c_p1 + w1 * c_p2) / rho
    entry = u[row, col]
    w = u[row, p1]
    radius = math.hypot(abs(entry), abs(w))
    delta = math.atan2(abs(w), abs(entry))
    gamma = delta - math.acos(min(1.0, cap / radius))
    phase_u = entry / abs(entry)
    phase_w = w / abs(w) if abs(w) > 0.0 else 1.0
    alpha = math.cos(gamma)
    beta = math.sin(gamma) * phase_u / phase_w
    c_col, c_p1 = u[:, col].copy(), u[:, p1].copy()
    u[:, col] = alpha * c_col + beta * c_p1
    u[:, p1] = -np.conj(beta) * c_col + np.conj(alpha) * c_p1
    return u


def synthesize_mechanism(t: MechanismTarget, mode: str, deviation: QubitState | None = None) -> GameUnitary:
    """Build a unitary realizing the target, per the chosen deviation policy.

    strict mode zeroes both improvement entries, so the input play is an
    equilibrium against every deviation; paper_bound mode completes the
    column canonically and then caps player one's improvement entry at
    the bound evaluated for the supplied deviation only, which leaves
    other deviations unchecked.  The construction is deterministic and
    the result always satisfies the unitarity check.
    """
    _, k, column, flip_a, flip_b, bound = _column_layout(t)
    t1, t2 = t.prefs.player1_target, t.prefs.player2_target
    if mode == "strict":
        cols: dict[int, np.ndarray] = {k: column.astype(complex)}
        for zero_row, col in sorted(((t1, flip_a), (t2, flip_b)), key=lambda rc: rc[1]):
            existing = [cols[c] for c in sorted(cols)]
            cols[col] = _constrained_unit(existing, zero_row)
        return GameUnitary(_fill_columns(cols))
    if mode == "paper_bound":
        if deviation is None:
            raise ValueError("paper_bound mode requires the deviation the bound is evaluated at")
        cap = bound(abs(deviation.x), abs(deviation.y))
        return GameUnitary(_enforce_modulus_cap(_fill_columns({k: column.astype(complex)}), t1, flip_a, cap, k))
    raise ValueError(f"mode must be 'strict' or 'paper_bound', got {mode!r}")


def certify_mechanism(u: GameUnitary, t: MechanismTarget, tol: float = TOL.equilibrium) -> MechanismCertification:
    """Check a candidate mechanism honestly on both axes.

    fidelity is |<target, outcome>|^2 at the input play; the certificate
    is the closed-form equilibrium check of the same play.  Certified
    requires both fidelity >= 1 - tol, less the state-norm rounding slack
    TOL.state_norm, and the equilibrium to hold: a
    unitary can reach the target perfectly while still leaving a player
    a profitable deviation, and that discrepancy is reported, not hidden.
    """
    game = QuantumGame(u, t.prefs)
    out = outcome(game, t.input_play)
    fidelity = float(abs(np.vdot(t.target_output.vec, out.vec)) ** 2)
    certificate = verify_equilibrium(game, t.input_play, tol)
    return MechanismCertification(
        fidelity=fidelity,
        certificate=certificate,
        certified=fidelity >= 1.0 - tol - TOL.state_norm and certificate.is_equilibrium,
    )


def bell_target(prefs: PreferenceProfile | None = None) -> MechanismTarget:
    """The canonical mechanism target: the maximally entangled pair from |00>."""
    return MechanismTarget(bell_state(), _GROUND_PLAY, prefs or PreferenceProfile())
