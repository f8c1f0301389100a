"""Two-qubit unitaries viewed as two-player, strictly competitive games.

Each player contributes one qubit of the joint input.  The game applies
a fixed 4x4 unitary to the product of the two chosen states, and each
player is scored by how much probability the result places on the basis
outcome they prefer: the payoff angle arccos(|amplitude|^2) lies in
[0, pi/2] and lower is better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .qcore import GameUnitary, QubitState, TwoQubitState, _is_int, apply, tensor


@dataclass(frozen=True)
class PreferenceProfile:
    """Which basis outcome each player wants the computation to reach.

    Outcomes are indexed 0..3 in the |00>,|01>,|10>,|11> ordering; the
    two targets must differ, otherwise the game is not competitive.
    """

    player1_target: int = 0
    player2_target: int = 1

    def __post_init__(self):
        for name, t in (("player1_target", self.player1_target), ("player2_target", self.player2_target)):
            if not (_is_int(t) and 0 <= t <= 3):
                raise ValueError(f"{name} must be an integer in 0..3, got {t!r}")
        if self.player1_target == self.player2_target:
            raise ValueError("players must prefer distinct basis outcomes")


@dataclass(frozen=True)
class StrategyParams:
    """Bloch-angle parameterization of a strategy, theta in [0, pi], phi in [0, 2 pi).

    The represented state is (cos(theta/2), e^{i phi} sin(theta/2)); the
    global phase is quotiented out, which is harmless because payoffs
    depend only on amplitude moduli.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and 0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not (math.isfinite(self.phi) and 0.0 <= self.phi < 2.0 * math.pi):
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi!r}")

    def to_state(self) -> QubitState:
        return QubitState.from_bloch(self.theta, self.phi)


@dataclass(frozen=True, eq=False)
class Play:
    """A pair of strategies, one qubit state per player."""

    a: QubitState
    b: QubitState


@dataclass(frozen=True, eq=False)
class QuantumGame:
    """A fixed unitary together with the players' preferred outcomes."""

    u: GameUnitary
    prefs: PreferenceProfile = field(default_factory=PreferenceProfile)


def outcome(g: QuantumGame, p: Play) -> TwoQubitState:
    """The computed joint state u (a tensor b)."""
    return apply(g.u, tensor(p.a, p.b))


def payoff_angle(s: TwoQubitState, target: int) -> float:
    """arccos of the probability the state assigns to the target outcome.

    The probability is clamped to [0, 1] before arccos so rounding noise
    at the endpoints cannot leave the domain; the result is in [0, pi/2]
    and lower means the outcome is closer to the target.
    """
    return _modulus_payoff(abs(s.amplitude(target)))


def _modulus_payoff(modulus: float) -> float:
    """Payoff angle of a target amplitude with the given modulus, as payoff_angle computes it."""
    return math.acos(min(1.0, max(0.0, modulus**2)))


def _target_matrices(g: QuantumGame) -> tuple[list, list]:
    """M1 and M2^T as nested lists of Python complex: Mi is player i's target row of U reshaped to 2x2, so their amplitude is a^T Mi b."""
    u = g.u.mat
    return u[g.prefs.player1_target].reshape(2, 2).tolist(), u[g.prefs.player2_target].reshape(2, 2).T.tolist()


def _contract(m, x, y):
    """m @ (x, y) for a 2x2 m, written out for scalars and grid arrays alike.

    m is nested lists, as _target_matrices gives.  Scalars and arrays do not round
    alike: numpy's array complex multiply differs in the last ulp from the
    scalar product in about half of random cases, so a grid check can
    disagree at the margin with the certificate of the same play.
    """
    return m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y


def _play_contraction(m1: list, m2t: list, a: list, b: list) -> tuple:
    """Pairs M1 b and M2^T a of the play (a, b), and the target amplitude moduli |a^T M1 b| and |a^T M2 b| they give.

    Every argument is a list of Python complex, so a play rounds alike wherever it is read.
    """
    (ax, ay), (bx, by) = a, b
    pair1, pair2 = _contract(m1, bx, by), _contract(m2t, ax, ay)
    return pair1, pair2, abs(ax * pair1[0] + ay * pair1[1]), abs(bx * pair2[0] + by * pair2[1])


def payoffs(g: QuantumGame, p: Play) -> tuple[float, float]:
    """Both players' payoff angles at the given play, from _play_contraction as its certificate's are."""
    *_, achieved1, achieved2 = _play_contraction(*_target_matrices(g), p.a.vec.tolist(), p.b.vec.tolist())
    return _modulus_payoff(achieved1), _modulus_payoff(achieved2)
