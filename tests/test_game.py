"""Game construction, outcomes, and the angular payoff convention."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.game import (
    Play,
    PreferenceProfile,
    QuantumGame,
    StrategyParams,
    outcome,
    payoff_angle,
    payoffs,
)
from qgame.gates import CNOT, IDENTITY, SWAP, bell_state
from qgame.qcore import KET0, KET1, QubitState, random_qubit_state, random_unitary, tensor

S2 = 1.0 / math.sqrt(2.0)


def test_preference_profile_defaults_and_validation():
    p = PreferenceProfile()
    assert (p.player1_target, p.player2_target) == (0, 1)
    with pytest.raises(ValueError):
        PreferenceProfile(2, 2)  # targets must differ
    with pytest.raises(ValueError):
        PreferenceProfile(0, 4)


@pytest.mark.parametrize("targets", [(True, 3), (0, False), (1.0, 3), (0, 2.5), ("1", 3)])
def test_preference_profile_rejects_bools_and_non_integers(targets):
    """A bool target used to index U's rows as a mask, and the search then died in a reshape."""
    with pytest.raises(ValueError, match="must be an integer in 0..3"):
        PreferenceProfile(*targets)


def test_strategy_params_to_state_matches_bloch():
    sp = StrategyParams(math.pi / 2, math.pi)
    assert np.allclose(sp.to_state().vec, [S2, -S2], atol=1e-15)
    with pytest.raises(ValueError):
        StrategyParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        StrategyParams(1.0, 2 * math.pi)  # phi is half-open


def test_outcome_applies_joint_state():
    g = QuantumGame(CNOT)
    plus = QubitState.from_amplitudes(S2, S2)
    out = outcome(g, Play(plus, KET0))
    assert np.allclose(out.vec, bell_state().vec, atol=1e-15)


def test_payoff_angle_known_values():
    bell = bell_state()
    # |amp|^2 = 1/2 at index 0, 0 at index 1
    assert payoff_angle(bell, 0) == pytest.approx(math.pi / 3, abs=1e-15)
    assert payoff_angle(bell, 1) == math.pi / 2
    assert payoff_angle(bell, 3) == pytest.approx(math.pi / 3, abs=1e-15)


def test_payoff_angle_exact_endpoints():
    full = tensor(KET0, KET0)
    assert payoff_angle(full, 0) == 0.0
    assert payoff_angle(full, 3) == math.pi / 2


def test_payoffs_cnot_superposition_play():
    g = QuantumGame(CNOT)
    plus = QubitState.from_amplitudes(S2, S2)
    p1, p2 = payoffs(g, Play(plus, KET0))
    assert p1 == pytest.approx(math.pi / 3, abs=1e-12)
    assert p2 == math.pi / 2


def test_payoffs_cnot_optimal_play():
    g = QuantumGame(CNOT)
    assert payoffs(g, Play(KET0, KET1)) == (math.pi / 2, 0.0)


def test_payoffs_respect_preferences():
    g = QuantumGame(SWAP, PreferenceProfile(player1_target=2, player2_target=1))
    # SWAP sends |01> to |10>: player 1 hits target 2 perfectly
    assert payoffs(g, Play(KET0, KET1)) == (0.0, math.pi / 2)


@settings(max_examples=40, deadline=None)
@given(
    t1=st.floats(0, math.pi),
    f1=st.floats(0, 2 * math.pi, exclude_max=True),
    t2=st.floats(0, math.pi),
    f2=st.floats(0, 2 * math.pi, exclude_max=True),
)
def test_payoffs_bounded_by_quarter_turn(t1, f1, t2, f2):
    g = QuantumGame(IDENTITY)
    a = StrategyParams(t1, f1).to_state()
    b = StrategyParams(t2, f2).to_state()
    p1, p2 = payoffs(g, Play(a, b))
    assert 0.0 <= p1 <= math.pi / 2
    assert 0.0 <= p2 <= math.pi / 2


def test_payoffs_invariant_under_strategy_phases():
    """Multiplying either strategy by a global phase cannot move the payoffs."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = QuantumGame(random_unitary(rng))
        a, b = random_qubit_state(rng), random_qubit_state(rng)
        base = payoffs(g, Play(a, b))
        pa = np.exp(1j * rng.uniform(0, 2 * math.pi))
        pb = np.exp(1j * rng.uniform(0, 2 * math.pi))
        shifted = payoffs(g, Play(QubitState(a.vec * pa), QubitState(b.vec * pb)))
        assert shifted[0] == pytest.approx(base[0], abs=1e-12)
        assert shifted[1] == pytest.approx(base[1], abs=1e-12)


def test_perfect_outcome_for_one_player_is_worst_for_other():
    """When the outcome sits exactly on one target the other payoff is pi/2."""
    g = QuantumGame(IDENTITY)
    p1, p2 = payoffs(g, Play(KET0, KET0))  # outcome |00> = player 1 target
    assert (p1, p2) == (0.0, math.pi / 2)
    p1, p2 = payoffs(g, Play(KET0, KET1))  # outcome |01> = player 2 target
    assert (p1, p2) == (math.pi / 2, 0.0)
