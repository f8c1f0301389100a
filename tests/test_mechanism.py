"""Constraint derivation, unitary synthesis, and mechanism certification."""

import math

import numpy as np
import pytest

from qgame.game import Play, PreferenceProfile
from qgame.gates import BELL_CIRCUIT, BELL_MECHANISM, IDENTITY, bell_state
from qgame.mechanism import (
    MechanismTarget,
    SynthesisError,
    bell_target,
    certify_mechanism,
    derive_constraints,
    synthesize_mechanism,
)
from qgame.qcore import (
    KET0,
    KET1,
    GameUnitary,
    QubitState,
    TwoQubitState,
    check_unitary,
    complete_unitary,
    tensor,
)

S2 = 1.0 / math.sqrt(2.0)


def random_two_qubit_state(rng):
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return TwoQubitState(vec / np.linalg.norm(vec))


# -------------------------------------------------------------- constraints


def test_bell_constraints_positions_and_kinds():
    cons = derive_constraints(bell_target())
    spots = [(c.row, c.col, c.kind) for c in cons]
    assert spots == [
        (1, 1, "equals_value"),
        (2, 1, "equals_zero"),
        (3, 1, "equals_zero"),
        (4, 1, "equals_value"),
        (1, 3, "modulus_bound"),
    ]
    assert cons[0].value == pytest.approx(S2)
    assert cons[3].value == pytest.approx(S2)
    assert cons[1].value == 0j and cons[2].value == 0j
    for c in cons:
        assert c.description


def test_bell_bound_evaluates_to_half_sqrt2_at_full_flip():
    cons = derive_constraints(bell_target())
    bound = cons[-1].bound
    assert bound(0.0, 1.0) == pytest.approx(S2, abs=1e-15)


def test_bound_tightens_as_deviation_approaches_played_state():
    bound = derive_constraints(bell_target())[-1].bound
    xs = np.linspace(0.0, 0.95, 20)
    vals = [bound(float(x), math.sqrt(1 - float(x) ** 2)) for x in xs]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))  # nonincreasing
    with pytest.raises(ValueError):
        bound(1.0, 0.0)  # no mass off the played state


def test_constraints_follow_input_play_column():
    t = MechanismTarget(bell_state(), input_play=Play(KET1, KET0))
    cons = derive_constraints(t)
    # acting on |10> pins column 3 (1-based); player one's flip entry moves
    assert {(c.row, c.col) for c in cons if c.kind != "modulus_bound"} == {
        (1, 3), (2, 3), (3, 3), (4, 3)
    }
    bound_con = [c for c in cons if c.kind == "modulus_bound"][0]
    assert (bound_con.row, bound_con.col) == (1, 1)


def test_constraints_reject_superposition_input():
    plus = QubitState.from_amplitudes(S2, S2)
    with pytest.raises(SynthesisError):
        derive_constraints(MechanismTarget(bell_state(), input_play=Play(plus, KET0)))


@pytest.mark.parametrize("basis", [0, 1])
@pytest.mark.parametrize("player", [1, 2])
def test_basis_inputs_take_an_off_basis_amplitude_up_to_1e_9(player, basis):
    """An input whose other amplitude has modulus 1e-9 (1 - 1e-3) reads as |basis>; at 1e-9 (1 + 1e-3) it raises."""
    ket = (KET0, KET1)[basis]
    exact = [(c.row, c.col, c.kind, c.value) for c in derive_constraints(MechanismTarget(bell_state(), input_play=Play(ket, ket)))]
    for scale in (1.0 - 1e-3, 1.0 + 1e-3):
        off, on = 1e-9 * scale * np.exp(0.7j), math.sqrt(1.0 - (1e-9 * scale) ** 2)
        state = QubitState.from_amplitudes(*((on, off) if basis == 0 else (off, on)))
        target = MechanismTarget(bell_state(), input_play=Play(state, ket) if player == 1 else Play(ket, state))
        if scale < 1.0:
            assert [(c.row, c.col, c.kind, c.value) for c in derive_constraints(target)] == exact
        else:
            with pytest.raises(SynthesisError, match="computational basis state"):
                derive_constraints(target)


# ---------------------------------------------------------------- synthesis


def test_strict_bell_synthesis_frozen_matrix():
    u = synthesize_mechanism(bell_target(), "strict")
    assert np.allclose(u.mat, BELL_MECHANISM.mat, atol=1e-12)


def test_strict_synthesis_certifies_for_random_targets():
    """strict mode must yield fidelity one and an equilibrium, always: at every basis input play and preference pair."""
    rng = np.random.default_rng(83)
    basis = (KET0, KET1)
    for play in [Play(a, b) for a in basis for b in basis]:
        for prefs in [PreferenceProfile(t1, t2) for t1 in range(4) for t2 in range(4) if t1 != t2]:
            for _ in range(5):
                t = MechanismTarget(random_two_qubit_state(rng), play, prefs)
                u = synthesize_mechanism(t, "strict")
                assert check_unitary(u.mat)
                cert = certify_mechanism(u, t)
                assert cert.fidelity >= 1.0 - 1e-12
                assert cert.certificate.is_equilibrium
                assert cert.certified


def test_strict_synthesis_zeroes_improvement_entries():
    rng = np.random.default_rng(89)
    for _ in range(10):
        t = MechanismTarget(random_two_qubit_state(rng))
        u = synthesize_mechanism(t, "strict")
        assert abs(u.mat[0, 2]) < 1e-12  # player one flip entry at ground play
        assert abs(u.mat[1, 1]) < 1e-12  # player two flip entry


def test_strict_synthesis_basis_target_frozen_matrix():
    """Sending |00> to |01> exactly still requires suppressing improvements."""
    t = MechanismTarget(tensor(KET0, KET1))
    u = synthesize_mechanism(t, "strict")
    expected = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(u.mat, expected, atol=1e-12)
    assert certify_mechanism(u, t).certified


def test_strict_synthesis_fixed_point_target_avoids_identity():
    """Keeping |00> in place cannot be done with the identity gate."""
    t = MechanismTarget(tensor(KET0, KET0))
    u = synthesize_mechanism(t, "strict")
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(u.mat, expected, atol=1e-12)
    assert certify_mechanism(u, t).certified
    # the identity realizes the same output but leaves player two a
    # profitable deviation, so certification must reject it
    naive = certify_mechanism(IDENTITY, t)
    assert naive.fidelity == pytest.approx(1.0, abs=1e-15)
    assert not naive.certified


def test_strict_synthesis_nonground_input_play():
    rng = np.random.default_rng(97)
    t = MechanismTarget(random_two_qubit_state(rng), input_play=Play(KET1, KET0))
    u = synthesize_mechanism(t, "strict")
    assert certify_mechanism(u, t).certified


def test_strict_synthesis_accepts_phase_decorated_basis_play():
    rng = np.random.default_rng(101)
    a = QubitState(np.array([np.exp(0.7j), 0.0], dtype=complex))
    b = QubitState(np.array([0.0, np.exp(-1.2j)], dtype=complex))
    t = MechanismTarget(random_two_qubit_state(rng), input_play=Play(a, b))
    u = synthesize_mechanism(t, "strict")
    cert = certify_mechanism(u, t)
    assert cert.fidelity >= 1.0 - 1e-12
    assert cert.certified


def test_paper_bound_bell_matches_strict_result():
    u = synthesize_mechanism(bell_target(), "paper_bound", deviation=KET1)
    assert np.allclose(u.mat, BELL_MECHANISM.mat, atol=1e-12)


def test_paper_bound_requires_deviation():
    with pytest.raises(ValueError):
        synthesize_mechanism(bell_target(), "paper_bound")
    with pytest.raises(ValueError):
        synthesize_mechanism(bell_target(), "nosuchmode", deviation=KET1)


def test_paper_bound_ground_play_completion_needs_no_cap():
    """For the ground play layout the improvement entry completes to zero.

    Every later completion column is orthogonal to the span of the target
    and |00>, so its first component vanishes and the cap is slack; the
    result must coincide with the plain column completion.
    """
    rng = np.random.default_rng(107)
    for _ in range(10):
        target = random_two_qubit_state(rng)
        completed = complete_unitary(target).mat
        assert abs(completed[0, 2]) < 1e-12
        u = synthesize_mechanism(MechanismTarget(target), "paper_bound", deviation=KET1)
        assert np.allclose(u.mat, completed, atol=1e-12)


def test_paper_bound_caps_improvement_entry():
    """When canonical completion violates the bound, the entry is rotated down.

    Acting on |10> pins column 3 and moves the improvement entry to
    U[1,1], which the canonical fill makes sqrt(1 - |t1|^2) in modulus:
    a deviation staying close to the played |1> forces a tighter cap.
    """
    rng = np.random.default_rng(103)
    dev = QubitState.from_bloch(math.pi - 0.2, 0.3)  # mostly |1>, cap is tight
    play = Play(KET1, KET0)
    tried = 0
    for _ in range(50):
        target = random_two_qubit_state(rng)
        known = abs(target.amplitude(0))
        if known < 0.2 or known > 0.9:
            continue
        cap = known * (1.0 - abs(dev.y)) / abs(dev.x)
        uncapped = math.sqrt(1.0 - known**2)
        if uncapped <= cap + 1e-9:
            continue  # completion would already satisfy the bound
        tried += 1
        t = MechanismTarget(target, input_play=play)
        u = synthesize_mechanism(t, "paper_bound", deviation=dev)
        assert check_unitary(u.mat)
        assert abs(u.mat[0, 0]) <= cap + 1e-12
        assert abs(u.mat[0, 0]) == pytest.approx(cap, abs=1e-9)  # binding cap hit exactly
        cert = certify_mechanism(u, t)
        assert cert.fidelity >= 1.0 - 1e-12  # target column untouched
        if tried >= 10:
            break
    assert tried >= 10


# ------------------------------------------------------------ certification


def test_certify_identity_against_bell_target():
    cert = certify_mechanism(IDENTITY, bell_target())
    assert cert.fidelity == pytest.approx(0.5, abs=1e-15)
    assert not cert.certified


def test_certify_bell_circuit_perfect_fidelity_but_no_equilibrium():
    cert = certify_mechanism(BELL_CIRCUIT, bell_target())
    assert cert.fidelity >= 1.0 - 1e-12
    assert not cert.certificate.is_equilibrium
    assert not cert.certified
    assert cert.certificate.witness_player == 1
    w = cert.certificate.witness
    assert abs(w.x) == pytest.approx(S2, abs=1e-6)
    assert abs(w.y) == pytest.approx(S2, abs=1e-6)


def test_certify_bell_mechanism_library_gate():
    cert = certify_mechanism(BELL_MECHANISM, bell_target())
    assert cert.certified
    assert cert.fidelity >= 1.0 - 1e-12


def test_random_completions_fail_certification():
    """Completions ignoring the improvement entries keep fidelity but lose
    the equilibrium, so certification must reject them."""
    rng = np.random.default_rng(109)
    base = complete_unitary(bell_state()).mat
    t = bell_target()
    for _ in range(20):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        mix = np.eye(4, dtype=complex)
        mix[1:, 1:] = q
        u = GameUnitary(base @ mix)
        cert = certify_mechanism(u, t)
        assert cert.fidelity >= 1.0 - 1e-12  # first column untouched
        assert not cert.certified


def test_exposed_player_two_entry_fails_equilibrium():
    # first column is still the bell state, but U[2,2] (one-based) is 1:
    # player two deviating to |1> reaches the target row with certainty
    m = np.array(
        [
            [S2, 0, 0, S2],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [S2, 0, 0, -S2],
        ],
        dtype=complex,
    )
    cert = certify_mechanism(GameUnitary(m), bell_target())
    assert cert.fidelity >= 1.0 - 1e-12
    assert not cert.certificate.is_equilibrium
    assert cert.certificate.witness_player == 2


def test_bell_target_defaults():
    t = bell_target()
    assert np.allclose(t.target_output.vec, bell_state().vec)
    assert np.array_equal(t.input_play.a.vec, KET0.vec)
    assert np.array_equal(t.input_play.b.vec, KET0.vec)
    assert (t.prefs.player1_target, t.prefs.player2_target) == (0, 1)
    custom = bell_target(PreferenceProfile(3, 2))
    assert custom.prefs.player1_target == 3
