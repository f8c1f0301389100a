"""Best responses, equilibrium certification, search, and region analysis."""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import STRATA, certificate_table, perturbed_game, planted_game, stratum_game, target_arrays
from oracles import (
    bloch_grid,
    certificate_bits,
    dense_candidate_pairs,
    dense_strategy_sets,
    grid_max_target_amplitude,
    pole_copies,
    quadratic_dedup,
    reference_outcome,
    row_bits,
    scalar_search_certificates,
    scalar_verify_equilibrium,
)
from qgame import cli, equilibria, game, qcore
from qgame.equilibria import (
    CASE_IDS,
    CASE_PAIRS,
    DegenerateCoefficientError,
    GridSpec,
    ResponseCoefficients,
    best_response_strategy,
    best_response_value,
    case_inequality_holds,
    feasibility_region,
    response_coefficients,
    search_equilibria,
    verify_equilibria,
    verify_equilibrium,
)
from qgame.game import Play, PreferenceProfile, QuantumGame, outcome, payoffs
from qgame.gates import BELL_CIRCUIT, CNOT, CZ, IDENTITY, LIBRARY, SWAP
from qgame.mechanism import bell_target, certify_mechanism, synthesize_mechanism
from qgame.qcore import (
    KET0,
    KET1,
    TOL,
    GameUnitary,
    NormalizationError,
    QubitState,
    random_qubit_state,
    random_unitary,
)

S2 = 1.0 / math.sqrt(2.0)
ALL_PREFS = [(i, j) for i in range(4) for j in range(4) if i != j]


def random_prefs(rng):
    t1 = int(rng.integers(0, 4))
    t2 = int(rng.integers(0, 3))
    if t2 >= t1:
        t2 += 1
    return PreferenceProfile(t1, t2)


# ------------------------------------------------------------- coefficients


def test_response_coefficients_cnot_optimal_play():
    g = QuantumGame(CNOT)
    c = response_coefficients(g, Play(KET0, KET1))
    assert (c.p, c.q, c.p_prime, c.q_prime) == (0.0, 0.0, 0.0, 1.0)


def test_response_coefficients_cnot_ground_play():
    g = QuantumGame(CNOT)
    c = response_coefficients(g, Play(KET0, KET0))
    assert (c.p, c.q, c.p_prime, c.q_prime) == (1.0, 0.0, 0.0, 1.0)


def test_response_coefficients_identity_ground_play():
    g = QuantumGame(IDENTITY)
    c = response_coefficients(g, Play(KET0, KET0))
    assert (c.p, c.q, c.p_prime, c.q_prime) == (1.0, 0.0, 0.0, 1.0)


def test_response_coefficients_cnot_closed_forms():
    """p = |x2|, q = 0, p' = 0, q' = |x1| for every play."""
    g = QuantumGame(CNOT)
    rng = np.random.default_rng(41)
    for _ in range(50):
        a, b = random_qubit_state(rng), random_qubit_state(rng)
        c = response_coefficients(g, Play(a, b))
        assert c.p == pytest.approx(abs(b.x), abs=1e-12)
        assert c.q == pytest.approx(0.0, abs=1e-12)
        assert c.p_prime == pytest.approx(0.0, abs=1e-12)
        assert c.q_prime == pytest.approx(abs(a.x), abs=1e-12)


def test_response_coefficients_match_basis_play_amplitudes():
    """Coefficients equal target amplitudes when the player plays |0> or |1>.

    This recomputes them through full outcome evaluation, independently of
    the column-contraction arithmetic.
    """
    rng = np.random.default_rng(43)
    for _ in range(100):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        a, b = random_qubit_state(rng), random_qubit_state(rng)
        c = response_coefficients(g, Play(a, b))
        t1, t2 = g.prefs.player1_target, g.prefs.player2_target
        assert c.p == pytest.approx(abs(outcome(g, Play(KET0, b)).amplitude(t1)), abs=1e-12)
        assert c.q == pytest.approx(abs(outcome(g, Play(KET1, b)).amplitude(t1)), abs=1e-12)
        assert c.p_prime == pytest.approx(abs(outcome(g, Play(a, KET0)).amplitude(t2)), abs=1e-12)
        assert c.q_prime == pytest.approx(abs(outcome(g, Play(a, KET1)).amplitude(t2)), abs=1e-12)


# ------------------------------------------------------------ best response


def test_best_response_value_known_cases():
    g = QuantumGame(CNOT)
    assert best_response_value(g, 1, KET1) == 0.0  # target row unreachable
    assert best_response_value(g, 2, KET0) == 1.0
    assert best_response_value(QuantumGame(IDENTITY), 1, KET0) == 1.0
    with pytest.raises(ValueError, match="player must be 1 or 2, got 3"):
        best_response_value(g, 3, KET0)


def test_best_response_value_is_root_sum_of_squares():
    rng = np.random.default_rng(47)
    for _ in range(50):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        a, b = random_qubit_state(rng), random_qubit_state(rng)
        c = response_coefficients(g, Play(a, b))
        assert best_response_value(g, 1, b) == pytest.approx(math.hypot(c.p, c.q), abs=1e-14)
        assert best_response_value(g, 2, a) == pytest.approx(
            math.hypot(c.p_prime, c.q_prime), abs=1e-14
        )


def test_best_response_strategy_attains_value():
    rng = np.random.default_rng(53)
    for _ in range(50):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        opp = random_qubit_state(rng)
        for player in (1, 2):
            value = best_response_value(g, player, opp)
            br = best_response_strategy(g, player, opp)
            play = Play(br, opp) if player == 1 else Play(opp, br)
            target = g.prefs.player1_target if player == 1 else g.prefs.player2_target
            assert abs(outcome(g, play).amplitude(target)) == pytest.approx(value, abs=1e-12)


def test_best_response_dominates_dense_grid():
    """Closed-form optimum is an upper bound for every grid strategy."""
    rng = np.random.default_rng(59)
    for _ in range(10):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        opp = random_qubit_state(rng)
        player = 1 if rng.integers(0, 2) == 0 else 2
        target = g.prefs.player1_target if player == 1 else g.prefs.player2_target
        value = best_response_value(g, player, opp)
        grid_best = grid_max_target_amplitude(g.u.mat, target, player, opp.vec, 181, 360)
        assert grid_best <= value + 1e-12
        assert value - grid_best <= 2e-3


def test_coefficients_and_best_values_are_the_certificates_contraction_bit_for_bit():
    """response_coefficients are the moduli of _play_contraction's pairs, and best_response_value the certificate's best1, best2."""
    rng = np.random.default_rng(2323)
    for _ in range(1000):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        a, b = random_qubit_state(rng), random_qubit_state(rng)
        m1, m2 = g.u.mat[g.prefs.player1_target].reshape(2, 2), g.u.mat[g.prefs.player2_target].reshape(2, 2)
        (a1, b1), (a2, b2), _, _ = game._play_contraction(m1.tolist(), m2.T.tolist(), a.vec.tolist(), b.vec.tolist())
        c = response_coefficients(g, Play(a, b))
        assert [c.p.hex(), c.q.hex(), c.p_prime.hex(), c.q_prime.hex()] == [abs(z).hex() for z in (a1, b1, a2, b2)]
        cert = verify_equilibrium(g, Play(a, b))
        assert [best_response_value(g, 1, b).hex(), best_response_value(g, 2, a).hex()] == [cert.best1.hex(), cert.best2.hex()]


def witness_test_plays(g, rng):
    """Plays on which a witness, if any, must strictly raise its player's achieved modulus.

    Random plays; plays whose opponent holds the deviator's pair at the smallest
    singular value of its matrix, below 1e-15 near a rank-1 matrix; and plays where
    player one holds its best response scaled by 1 + 1e-13, which QubitState accepts
    and which passes player one at tol 0, so that any witness is player two's.
    """
    m1, m2 = (g.u.mat[t].reshape(2, 2) for t in (g.prefs.player1_target, g.prefs.player2_target))
    null1 = np.linalg.svd(m1)[2][-1].conj()  # |M1 null1| = sigma_min(M1)
    null2 = np.linalg.svd(m2.T)[2][-1].conj()  # |M2^T null2| = sigma_min(M2)
    passing = np.linalg.solve(m1, np.conj(null2))  # player one's best response to it is null2
    plays = []
    for b in (random_qubit_state(rng), QubitState(null1)):
        plays.append(Play(random_qubit_state(rng), b))
    for b in (random_qubit_state(rng).vec, passing / np.linalg.norm(passing)):
        a = best_response_strategy(g, 1, QubitState(b)).vec * (1 + 1e-13)
        plays.append(Play(QubitState(a), QubitState(b)))
    return plays


@pytest.mark.parametrize("tol", [0.0, 1e-17])
def test_every_witness_strictly_improves_even_on_a_tiny_pair(tol):
    """On Haar games and games within eps of each stratum, a witness raises its player's achieved modulus.

    Measured by the certificate of the play with the witness in place.  A pair of norm
    below 1e-15 is not a tie: its witness is its conjugate direction, not |0>.
    """
    rng = np.random.default_rng(1517)
    tiny = {1: 0, 2: 0}
    for _ in range(20):
        games = [QuantumGame(random_unitary(rng), random_prefs(rng))]
        games += [perturbed_game(rng, stratum, eps) for stratum in STRATA for eps in (0.0, 1e-16, 1e-9)]
        for g in games:
            for play, cert in zip(plays := witness_test_plays(g, rng), verify_equilibria(g, *stacked(plays), tol)):
                if cert.witness is None:
                    continue
                if cert.witness_player == 1:
                    before, best, after = cert.achieved1, cert.best1, verify_equilibrium(g, Play(cert.witness, play.b), tol).achieved1
                else:
                    before, best, after = cert.achieved2, cert.best2, verify_equilibrium(g, Play(play.a, cert.witness), tol).achieved2
                assert after > before, (cert.witness_player, before, best, after)
                tiny[cert.witness_player] += best < 1e-15
    assert min(tiny.values()) >= 20, tiny


def test_best_response_strategy_degenerate_tie_breaks_to_ket0():
    g = QuantumGame(CNOT)
    br = best_response_strategy(g, 1, KET1)  # both coefficients vanish
    assert np.array_equal(br.vec, KET0.vec)


# ------------------------------------------------------------- verification


def test_verify_equilibrium_cnot_optimal_play():
    cert = verify_equilibrium(QuantumGame(CNOT), Play(KET0, KET1))
    assert cert.is_equilibrium
    assert cert.payoff1 == math.pi / 2
    assert cert.payoff2 == 0.0
    assert (cert.achieved1, cert.best1) == (0.0, 0.0)
    assert (cert.achieved2, cert.best2) == (1.0, 1.0)
    assert cert.witness is None and cert.witness_player is None


def test_verify_equilibrium_cnot_ground_play_fails_for_player_two():
    cert = verify_equilibrium(QuantumGame(CNOT), Play(KET0, KET0))
    assert not cert.is_equilibrium
    assert cert.witness_player == 2
    assert abs(cert.witness.y) == pytest.approx(1.0, abs=1e-12)
    assert cert.achieved2 == 0.0 and cert.best2 == 1.0


def test_verify_equilibrium_identity_optimal_play():
    cert = verify_equilibrium(QuantumGame(IDENTITY), Play(KET0, KET1))
    assert cert.is_equilibrium


def test_verify_equilibrium_player_one_checked_first():
    # Both players can improve from (|1>,|0>) under identity; the witness
    # must come from player 1.
    cert = verify_equilibrium(QuantumGame(IDENTITY), Play(KET1, KET0))
    assert not cert.is_equilibrium
    assert cert.witness_player == 1


def test_certificate_payoffs_consistent_with_achieved():
    rng = np.random.default_rng(61)
    for _ in range(50):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        cert = verify_equilibrium(g, Play(random_qubit_state(rng), random_qubit_state(rng)))
        assert cert.payoff1 == pytest.approx(math.acos(min(1.0, cert.achieved1**2)), abs=1e-12)
        assert cert.payoff2 == pytest.approx(math.acos(min(1.0, cert.achieved2**2)), abs=1e-12)


def test_witness_actually_improves():
    """A failed certificate must carry a witness that realizes best response."""
    rng = np.random.default_rng(67)
    seen = 0
    for _ in range(80):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        play = Play(random_qubit_state(rng), random_qubit_state(rng))
        cert = verify_equilibrium(g, play, tol=1e-9)
        if cert.is_equilibrium:
            continue
        seen += 1
        if cert.witness_player == 1:
            improved = Play(cert.witness, play.b)
            target, old, best = g.prefs.player1_target, cert.achieved1, cert.best1
        else:
            improved = Play(play.a, cert.witness)
            target, old, best = g.prefs.player2_target, cert.achieved2, cert.best2
        got = abs(outcome(g, improved).amplitude(target))
        assert got == pytest.approx(best, abs=1e-12)
        assert got > old + 1e-9
    assert seen > 50  # random plays are almost never equilibria


def test_player_swap_is_a_symmetry():
    """Conjugating U by SWAP and exchanging the players' roles swaps every per-player quantity.

    With sigma swapping outcomes |01> and |10>, the game (S U S, (sigma(t2),
    sigma(t1))) at play (b, a) is the game (U, (t1, t2)) at play (a, b)
    with the players relabelled, so player one's contraction in one is
    player two's transposed contraction in the other.
    """
    sigma = (0, 2, 1, 3)
    swap = SWAP.mat
    rng = np.random.default_rng(2718)
    verdicts = set()
    for _ in range(10):
        u = random_unitary(rng)
        conjugated = GameUnitary(swap @ u.mat @ swap)
        for t1, t2 in ALL_PREFS:
            g = QuantumGame(u, PreferenceProfile(t1, t2))
            h = QuantumGame(conjugated, PreferenceProfile(sigma[t2], sigma[t1]))
            # Eigenvectors of K = conj(M1) M2^T against player two's best
            # response are equilibria; random plays almost never are.
            k = np.conj(u.mat[t1].reshape(2, 2)) @ u.mat[t2].reshape(2, 2).T
            plays = [Play(random_qubit_state(rng), random_qubit_state(rng)) for _ in range(2)]
            for v in np.linalg.eig(k)[1].T:
                a = QubitState(v / np.linalg.norm(v))
                plays.append(Play(a, best_response_strategy(g, 2, a)))
            for play in plays:
                c = verify_equilibrium(g, play)
                d = verify_equilibrium(h, Play(play.b, play.a))
                assert d.achieved1 == pytest.approx(c.achieved2, abs=1e-12)
                assert d.achieved2 == pytest.approx(c.achieved1, abs=1e-12)
                assert d.best1 == pytest.approx(c.best2, abs=1e-12)
                assert d.best2 == pytest.approx(c.best1, abs=1e-12)
                assert d.payoff1 == pytest.approx(c.payoff2, abs=1e-9)
                assert d.payoff2 == pytest.approx(c.payoff1, abs=1e-9)
                assert d.is_equilibrium == c.is_equilibrium
                verdicts.add(c.is_equilibrium)
                rc, rd = response_coefficients(g, play), response_coefficients(h, Play(play.b, play.a))
                assert (rd.p, rd.q) == pytest.approx((rc.p_prime, rc.q_prime), abs=1e-12)
                assert (rd.p_prime, rd.q_prime) == pytest.approx((rc.p, rc.q), abs=1e-12)
    assert verdicts == {True, False}  # both verdicts must be exercised


# ------------------------------------------------------ batched certification


def k_equilibria(g):
    """The two pure equilibria of a generic game: a an eigenvector of K = conj(M1) M2^T, b player two's best response."""
    u, (t1, t2) = g.u.mat, (g.prefs.player1_target, g.prefs.player2_target)
    k = np.conj(u[t1].reshape(2, 2)) @ u[t2].reshape(2, 2).T
    plays = []
    for v in np.linalg.eig(k)[1].T:
        a = QubitState(v / np.linalg.norm(v))
        plays.append(Play(a, best_response_strategy(g, 2, a)))
    return plays


def stacked(plays):
    return np.array([p.a.vec for p in plays]), np.array([p.b.vec for p in plays])


@pytest.mark.parametrize("tol", [1e-11, 1e-12])
def test_k_equilibria_certify_on_a_gate_at_the_unitarity_drift(tol):
    """A gate that passes the unitarity check with a drift of 8e-11 still certifies its two equilibria."""
    u = GameUnitary(random_unitary(np.random.default_rng(7)).mat * (1 + 4e-11))
    g = QuantumGame(u)
    for play in k_equilibria(g):
        cert = verify_equilibrium(g, play, tol)
        assert cert.is_equilibrium and cert.witness is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), prefs=st.sampled_from(ALL_PREFS), count=st.integers(1, 6))
def test_certificate_amplitudes_are_the_computed_states(seed, prefs, count):
    """achieved1 and achieved2, read from the 2x2 target matrices, are the target amplitudes of outcome's joint state.

    payoffs reads the same contraction, so it equals the certificate's payoffs bit for bit.
    """
    rng = np.random.default_rng(seed)
    g = QuantumGame(random_unitary(rng), PreferenceProfile(*prefs))
    plays = [Play(random_qubit_state(rng), random_qubit_state(rng)) for _ in range(count)] + k_equilibria(g)
    for play, cert in zip(plays, verify_equilibria(g, *stacked(plays))):
        out = outcome(g, play)
        assert abs(cert.achieved1 - abs(out.amplitude(prefs[0]))) <= 1e-12
        assert abs(cert.achieved2 - abs(out.amplitude(prefs[1]))) <= 1e-12
        assert payoffs(g, play) == (cert.payoff1, cert.payoff2)


def test_verify_equilibria_matches_scalar_oracle_bit_for_bit():
    """1,000 seeded plays, each game's plays certified as one mixed batch and one at a time."""
    rng = np.random.default_rng(4242)
    verdicts, witness_players = [], set()
    for n in range(100):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        plays = [Play(random_qubit_state(rng), random_qubit_state(rng)) for _ in range(8)] + k_equilibria(g)
        rng.shuffle(plays)
        tol = (1e-9, 1e-6, 1e-2)[n % 3]
        expected = [certificate_bits(scalar_verify_equilibrium(g, p, tol)) for p in plays]
        batch = verify_equilibria(g, *stacked(plays), tol)
        assert [certificate_bits(c) for c in batch] == expected
        for play, want in zip(plays, expected):
            cert = verify_equilibrium(g, play, tol)
            assert cert.play is play
            assert certificate_bits(cert) == want
        verdicts += [c.is_equilibrium for c in batch]
        witness_players |= {c.witness_player for c in batch}
    assert len(verdicts) == 1000
    assert 150 <= sum(verdicts) <= 900  # each batch mixes eigenvector equilibria with random plays
    assert witness_players == {None, 1, 2}


@pytest.mark.parametrize("tol", [0.0, 5e-324, 1e-17, 1e-9])
def test_every_witness_gains_more_than_tol(tol):
    """At a best response the pair's norm can exceed the achieved modulus by an ulp; no negative verdict rests on that.

    On 2,000 seeded Haar games, each holding a best response of player one,
    one of player two and a random play, every witness raises its player's
    achieved modulus by more than tol, and every certificate matches the
    scalar oracle bit for bit.
    """
    rng = np.random.default_rng(2024)
    negatives = 0
    for _ in range(2000):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        a, b = random_qubit_state(rng), random_qubit_state(rng)
        plays = [Play(best_response_strategy(g, 1, b), b), Play(a, best_response_strategy(g, 2, a)), Play(a, b)]
        certs = verify_equilibria(g, *stacked(plays), tol)
        assert [certificate_bits(c) for c in certs] == [certificate_bits(scalar_verify_equilibrium(g, p, tol)) for p in plays]
        for play, cert in zip(plays, certs):
            if cert.is_equilibrium:
                continue
            negatives += 1
            if cert.witness_player == 1:
                assert verify_equilibrium(g, Play(cert.witness, play.b), tol).achieved1 > cert.achieved1 + tol
            else:
                assert verify_equilibrium(g, Play(play.a, cert.witness), tol).achieved2 > cert.achieved2 + tol
    assert negatives >= 1000  # the random plays


def test_a_certificate_passes_by_the_witness_rule_not_by_its_fields():
    """A player fails only when their best-response vector gains more than tol, so a passing play can read best - achieved > tol.

    On 2,000 seeded Haar games at tol 0, player one plays their best response to a random b.
    That response's own achieved modulus is the play's, so player one never fails, yet some
    certificates read best1 > achieved1: the pair's norm tops it by rounding.
    """
    rng = np.random.default_rng(2024)
    tol = 0.0
    above = 0
    for _ in range(2000):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        b = random_qubit_state(rng)
        response = best_response_strategy(g, 1, b)
        cert = verify_equilibrium(g, Play(response, b), tol)
        assert cert.witness_player != 1
        if cert.best1 > cert.achieved1 + tol:
            above += 1
            assert verify_equilibrium(g, Play(best_response_strategy(g, 1, b), b), tol).achieved1 <= cert.achieved1 + tol
    assert above > 0


def test_verify_equilibria_of_no_plays_is_empty():
    g = QuantumGame(CNOT)
    assert verify_equilibria(g, np.zeros((0, 2), complex), np.zeros((0, 2), complex)) == []


def test_verify_equilibria_rows_are_checked_like_qubit_states():
    g = QuantumGame(CNOT)
    good = np.array([[1.0, 0.0], [0.6, 0.8j]])
    off = 1.0 + 2e-12  # norm^2 outside TOL.state_norm
    for bad in ([math.nan, 0.0], [math.inf, 0.0], [1.0, 1.0], [0.0, 0.0], [math.sqrt(off), 0.0]):
        with pytest.raises(NormalizationError):
            QubitState(np.array(bad))
        rows = np.vstack([good, [bad]])
        with pytest.raises(NormalizationError):
            verify_equilibria(g, rows, np.vstack([good, [good[0]]]))
        with pytest.raises(NormalizationError):
            verify_equilibria(g, np.vstack([good, [good[0]]]), rows)
    inside = np.array([[math.sqrt(1.0 + 5e-13), 0.0]])  # norm^2 drift within TOL.state_norm
    cert = verify_equilibria(g, inside, good[:1])[0]
    assert certificate_bits(cert) == certificate_bits(scalar_verify_equilibrium(g, Play(QubitState(inside[0]), KET0)))
    with pytest.raises(NormalizationError):
        verify_equilibria(g, np.ones((2, 3)) / math.sqrt(3.0), good)
    with pytest.raises(ValueError):
        verify_equilibria(g, good, good[:1])


def test_tensor_of_two_accepted_states_is_renormalized_not_rejected():
    """Two strategies each within TOL.state_norm can have a product outside it, which tensor renormalizes."""
    near = QubitState(np.array([math.sqrt(1.0 + 9e-13), 0.0]))
    play, g = Play(near, near), QuantumGame(BELL_CIRCUIT)
    joint = qcore.tensor(near, near)
    assert abs(float(np.sum(np.abs(joint.vec) ** 2)) - 1.0) <= TOL.state_norm
    assert np.allclose(outcome(g, play).vec, BELL_CIRCUIT.mat[:, 0], atol=1e-12)
    cert = verify_equilibrium(g, play)
    assert payoffs(g, play) == (cert.payoff1, cert.payoff2)
    assert certificate_bits(cert) == certificate_bits(scalar_verify_equilibrium(g, play))


def scaled_first_column(u: np.ndarray, factor: float) -> GameUnitary:
    """u with its first column scaled, wrapped without the unitarity check.

    Only the joint state |00> feels the scaling, so every play in which
    player one plays |1> keeps unit norm.
    """
    m = u.copy()
    m[:, 0] *= factor
    wrapped = object.__new__(GameUnitary)
    object.__setattr__(wrapped, "mat", m)
    return wrapped


@pytest.mark.parametrize("drift, renormalized", [(5e-13, False), (6e-11, True), (9e-10, True)])
def test_drifting_row_is_renormalized_alone(drift, renormalized):
    """apply renormalizes a norm^2 drift in (TOL.state_norm, 1e-9] as the reference does, in the one state it reaches."""
    rng = np.random.default_rng(99)
    base = random_unitary(rng).mat
    u = scaled_first_column(base, math.sqrt(1.0 + drift))
    g = QuantumGame(u, PreferenceProfile(0, 3))
    plays = [Play(QubitState(np.array([0.0, np.exp(1j * t)])), random_qubit_state(rng)) for t in rng.uniform(0, 6, 5)]
    plays.insert(2, Play(KET0, KET0))  # the one play with weight on |00>
    for k, play in enumerate(plays):
        state = outcome(g, play).vec
        raw = u.mat @ np.kron(play.a.vec, play.b.vec)
        assert state.tobytes() == reference_outcome(u.mat, play.a.vec, play.b.vec).tobytes()
        changed = state.tobytes() != raw.tobytes()
        assert changed == (renormalized and k == 2)
    assert abs(float(np.sum(np.abs(outcome(g, plays[2]).vec) ** 2)) - 1.0) <= TOL.state_norm
    expected = [certificate_bits(scalar_verify_equilibrium(g, p)) for p in plays]
    assert [certificate_bits(c) for c in verify_equilibria(g, *stacked(plays))] == expected


def test_reference_renormalizes_a_drifting_product_as_tensor_does():
    """Two states each within the state tolerance can have a product past it; the reference renormalizes it as tensor does."""
    scale = math.sqrt(1.0 + 9e-13)
    a, b = np.array([0.6 * scale, 0.8j * scale]), np.array([0.28 * scale, 0.96 * scale])
    play = Play(QubitState(a), QubitState(b))
    assert float(np.sum(np.abs(np.kron(a, b)) ** 2)) == 1.0000000000017994
    u = random_unitary(np.random.default_rng(7))
    assert outcome(QuantumGame(u), play).vec.tobytes() == reference_outcome(u.mat, a, b).tobytes()


def test_row_drifting_past_the_limit_raises_as_apply_does():
    """apply raises on a norm^2 drift past 1e-9, in the one state it reaches."""
    rng = np.random.default_rng(98)
    u = scaled_first_column(random_unitary(rng).mat, math.sqrt(1.0 + 2e-9))
    for _ in range(3):
        qcore.apply(u, qcore.tensor(KET1, random_qubit_state(rng)))  # no weight on |00>: fine
    with pytest.raises(NormalizationError):
        qcore.apply(u, qcore.tensor(KET0, KET0))


@pytest.mark.parametrize(
    "factor, message",
    [
        (math.nan, "two-qubit state contains non-finite amplitudes"),
        (1e200, "applying unitary produced norm^2 = inf"),
        (1.25, "applying unitary produced norm^2 = 1.5625"),
        (1.5, "applying unitary produced norm^2 = 2.25"),
    ],
)
def test_non_finite_and_drifting_states_raise(factor, message):
    """A state past the drift limit names its norm^2; a NaN state, which passes that check, fails the finiteness test."""
    u = scaled_first_column(np.eye(4, dtype=complex), factor)
    with pytest.raises(NormalizationError) as raised, np.errstate(over="ignore", invalid="ignore"):
        qcore.apply(u, qcore.tensor(KET0, KET0))
    assert str(raised.value) == message


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    prefs=st.sampled_from(ALL_PREFS),
    count=st.integers(1, 12),
    tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
    alpha=st.floats(0.0, 2.0 * math.pi),
)
def test_witnesses_improve_and_verdicts_ignore_global_phase(seed, prefs, count, tol, alpha):
    """Every witness raises its player's target amplitude by more than tol, measured through outcome.

    A global phase e^{i alpha} on U changes no verdict.
    """
    rng = np.random.default_rng(seed)
    u = random_unitary(rng)
    g = QuantumGame(u, PreferenceProfile(*prefs))
    plays = [Play(random_qubit_state(rng), random_qubit_state(rng)) for _ in range(count)] + k_equilibria(g)
    a, b = stacked(plays)
    certs = verify_equilibria(g, a, b, tol)
    for play, cert in zip(plays, certs):
        if cert.is_equilibrium:
            assert cert.witness is None
            continue
        if cert.witness_player == 1:
            improved, target, before = Play(cert.witness, play.b), prefs[0], cert.achieved1
        else:
            improved, target, before = Play(play.a, cert.witness), prefs[1], cert.achieved2
        assert abs(outcome(g, improved).amplitude(target)) > before + tol
    phased = QuantumGame(GameUnitary(np.exp(1j * alpha) * u.mat), g.prefs)
    assert [c.is_equilibrium for c in verify_equilibria(phased, a, b, tol)] == [c.is_equilibrium for c in certs]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    prefs=st.sampled_from(ALL_PREFS),
    count=st.integers(1, 12),
    tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
    alpha=st.floats(0.0, 2.0 * math.pi),
    player=st.sampled_from([1, 2]),
)
def test_verdicts_ignore_a_local_phase(seed, prefs, count, tol, alpha, player):
    """A phase e^{i alpha} on either player's strategy changes no verdict and moves achieved and best by at most 1e-12."""
    rng = np.random.default_rng(seed)
    g = QuantumGame(random_unitary(rng), PreferenceProfile(*prefs))
    plays = [Play(random_qubit_state(rng), random_qubit_state(rng)) for _ in range(count)] + k_equilibria(g)
    a, b = stacked(plays)
    phase = np.exp(1j * alpha)
    certs = verify_equilibria(g, a, b, tol)
    phased = verify_equilibria(g, a * phase, b, tol) if player == 1 else verify_equilibria(g, a, b * phase, tol)
    assert [c.is_equilibrium for c in phased] == [c.is_equilibrium for c in certs]
    assert any(c.is_equilibrium for c in certs)
    for c, d in zip(certs, phased):
        for name in ("achieved1", "achieved2", "best1", "best2"):
            assert abs(getattr(c, name) - getattr(d, name)) <= 1e-12


@pytest.mark.parametrize("tol", [1e-9, 1e-2])
def test_search_certificates_match_scalar_recertification(tol):
    """Search certificates equal those of each survivor rebuilt from its Bloch angles and certified alone."""
    total = 0
    for name, entry in sorted(LIBRARY.items()):
        for prefs in ALL_PREFS:
            g = QuantumGame(entry.unitary, PreferenceProfile(*prefs))
            got = [certificate_bits(c) for c in search_equilibria(g, GridSpec(13, 24), tol)]
            assert got == [certificate_bits(c) for c in scalar_search_certificates(g, GridSpec(13, 24), tol)], (name, prefs)
            total += len(got)
    assert total > 1000


def table_games():
    """The 72 library games, 20 seeded Haar games and 10 games with an equilibrium planted on the 21x40 grid."""
    games = [QuantumGame(entry.unitary, PreferenceProfile(*prefs)) for _, entry in sorted(LIBRARY.items()) for prefs in ALL_PREFS]
    rng = np.random.default_rng(1818)
    games += [QuantumGame(random_unitary(rng), random_prefs(rng)) for _ in range(20)]
    return games + [planted_game(rng, GridSpec(21, 40))[0] for _ in range(10)]


@pytest.mark.parametrize("tol", [1e-9, 1e-2])
def test_search_certificates_equal_the_rows_analyze_writes(tol):
    """Each search_equilibria certificate is its row of the search's table, bit for bit, and so is each play's verify_equilibrium."""
    grid, total = GridSpec(21, 40), 0
    for g in table_games():
        a, b, rows = equilibria._search_rows(g, grid, tol)
        table = [row_bits(x, y, fields) for x, y, fields in zip(a, b, rows)]
        certs = search_equilibria(g, grid, tol)
        assert [certificate_bits(c) for c in certs] == table
        assert cli._certificate_floats(a, b, rows).tobytes() == cli._certificate_floats(*certificate_table(certs)).tobytes()
        single = [verify_equilibrium(g, Play(QubitState(x), QubitState(y)), tol) for x, y in zip(a, b)]
        assert [certificate_bits(c) for c in single] == table
        total += len(rows)
    assert total > 1000


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-3])
def test_entry_points_reject_a_tol_that_is_not_finite_and_non_negative(tol):
    """At nan or inf the ground play of CNOT, with its player-two witness, used to certify."""
    g, ground = QuantumGame(CNOT), Play(KET0, KET0)
    target = bell_target()
    mechanism = synthesize_mechanism(target, "strict")
    calls = [
        lambda: verify_equilibrium(g, ground, tol),
        lambda: verify_equilibria(g, *stacked([ground]), tol),
        lambda: search_equilibria(g, GridSpec(5, 8), tol),
        lambda: certify_mechanism(mechanism, target, tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be finite and at least 0"):
            call()


@pytest.mark.parametrize("tol", [0.0, 1e-2])
def test_entry_points_accept_zero_and_the_capped_tol(tol):
    g, ground = QuantumGame(CNOT), Play(KET0, KET0)
    assert not verify_equilibrium(g, ground, tol).is_equilibrium
    assert verify_equilibrium(g, Play(KET0, KET1), tol).is_equilibrium
    assert [c.is_equilibrium for c in verify_equilibria(g, *stacked([ground]), tol)] == [False]
    assert all(c.is_equilibrium for c in search_equilibria(g, GridSpec(5, 8), tol))
    target = bell_target()
    result = certify_mechanism(synthesize_mechanism(target, "strict"), target, tol)
    assert result.certificate.is_equilibrium and result.fidelity >= 1.0 - 1e-12
    assert result.certified  # its fidelity is 0.9999999999999996, so tol 0 needs the rounding slack


# ------------------------------------------------------------------- search


def test_search_cnot_finds_extremal_payoffs():
    certs = search_equilibria(QuantumGame(CNOT), GridSpec())
    assert certs
    assert all(c.is_equilibrium for c in certs)
    payoff_pairs = [(c.payoff1, c.payoff2) for c in certs]
    assert any(
        abs(p1 - math.pi / 2) < 1e-9 and abs(p2) < 1e-9 for p1, p2 in payoff_pairs
    )


def test_search_identity_contains_canonical_equilibrium():
    certs = search_equilibria(QuantumGame(IDENTITY), GridSpec())
    match = [
        c
        for c in certs
        if abs(c.payoff1 - math.pi / 2) < 1e-9 and abs(c.payoff2) < 1e-9
    ]
    assert match
    # cluster representatives stay pairwise separated in payoff space
    for i in range(len(certs)):
        for j in range(i + 1, len(certs)):
            di = abs(certs[i].payoff1 - certs[j].payoff1)
            dj = abs(certs[i].payoff2 - certs[j].payoff2)
            assert max(di, dj) > 1e-6


def test_search_is_deterministic():
    g = QuantumGame(SWAP)
    first = search_equilibria(g, GridSpec(13, 24))
    second = search_equilibria(g, GridSpec(13, 24))
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.play.a.vec, b.play.a.vec)
        assert np.array_equal(a.play.b.vec, b.play.b.vec)
        assert (a.payoff1, a.payoff2) == (b.payoff1, b.payoff2)


def test_search_representatives_recertify():
    for gate in (CZ, SWAP):
        g = QuantumGame(gate)
        for cert in search_equilibria(g, GridSpec(13, 24)):
            again = verify_equilibrium(g, cert.play)
            assert again.is_equilibrium


def representatives(candidates, dedup):
    """Pair indices and payoff angles of the candidates a dedup keeps, as bytes."""
    index, payoff1, payoff2 = candidates
    kept = dedup(payoff1, payoff2, TOL.payoff_dedup)
    return [(a.dtype.str, a[kept].tobytes()) for a in (index, payoff1, payoff2)]


def window_misses(expected, got):
    """How many passing pairs of the dense scan expected the scan got leaves out.

    The pairs it keeps must carry the dense scan's payoff bits.
    """
    index, payoff1, payoff2 = expected
    common, at_want, at_got = np.intersect1d(index, got[0], return_indices=True)
    assert got[1][at_got].tobytes() == payoff1[at_want].tobytes()
    assert got[2][at_got].tobytes() == payoff2[at_want].tobytes()
    return index.size - common.size


def scans(g, grid, tol):
    """The dense oracle's candidates and the library scan's, at one game, grid and tol.

    No pair the scan returns names a pole copy.
    """
    got = equilibria._candidate_pairs(g, grid, tol)
    assert not np.isin(np.divmod(got[0], grid.theta_points * grid.phi_points), pole_copies(grid)).any()
    return dense_candidate_pairs(g, grid, tol), got


def assert_same_representatives(g, grid, tol):
    """The pruned scan and bucketed dedup keep the dense oracle's pairs, bit for bit; the scan loses no passing pair."""
    expected, got = scans(g, grid, tol)
    assert np.all(np.diff(got[0]) > 0)  # grid order, each pair once
    assert representatives(got, equilibria._dedup_payoffs) == representatives(expected, quadratic_dedup)
    assert window_misses(expected, got) == 0
    return expected


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-2])
def test_pruned_scan_matches_dense_oracle_on_library(tol):
    grid = GridSpec(13, 24)
    for entry in LIBRARY.values():
        for prefs in ALL_PREFS:
            g = QuantumGame(entry.unitary, PreferenceProfile(*prefs))
            expected = assert_same_representatives(g, grid, tol)
            assert expected[0].size  # every library game has grid equilibria


@pytest.mark.parametrize("gate", [CNOT, BELL_CIRCUIT], ids=["cnot", "bell_circuit"])
@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-2])
def test_pruned_scan_matches_dense_oracle_at_default_grid(gate, tol):
    assert_same_representatives(QuantumGame(gate), GridSpec(), tol)


def test_pruned_scan_matches_dense_oracle_on_random_games():
    rng = np.random.default_rng(79)
    grid = GridSpec(21, 40)
    found = 0
    for _ in range(12):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        found += assert_same_representatives(g, grid, 1e-2)[0].size > 0
    assert found >= 6  # the loose slack admits candidates on most random games


def eigen_sets(g, grid, tol):
    """_strategy_sets' two sets for g at the grid and tol, and how many grid strategies there are."""
    return equilibria._strategy_sets(*equilibria._target_matrices(g), tol, grid), (grid.theta_points - 2) * grid.phi_points + 2


def edge_games():
    """Two games of each stratum, and two e^{i eps H} G of each degenerate stratum per eps from 1e-2 to 1e-14."""
    rng = np.random.default_rng(137)
    games = [stratum_game(rng, stratum) for stratum in STRATA for _ in range(2)]
    return games + [perturbed_game(rng, stratum, eps) for stratum in STRATA[1:] for eps in (1e-2, 1e-6, 1e-10, 1e-14) for _ in range(2)]


@pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-9, 1e-2])
def test_pruned_scan_matches_dense_oracle_at_the_strata_edges(tol):
    """On every stratum and near each degenerate one the scan keeps the dense oracle's pairs, bit for bit.

    These games put the eigen-window radius on both sides of 1 at every tol: some keep a
    proper subset of player one's strategies, and some keep them all.  At tol 1e-9 and below
    some leave a player no strategy, and there the scan returns no pair before any cap.
    """
    grid = GridSpec(13, 24)
    pruned = []
    for g in edge_games():
        assert_same_representatives(g, grid, tol)
        (set1, _), count = eigen_sets(g, grid, tol)
        pruned.append(set1.size < count)
    assert any(pruned) and not all(pruned)


def test_closed_form_eigenvectors_hold_at_the_strata_edges():
    """_eigenvectors' two vectors of K and of K' are eigenvectors to rounding, on every stratum and near each degenerate one.

    |v0 (Kv)1 - v1 (Kv)0| / |v|^2 is the part of Kv off v's line, here relative to |K|.  K' = conj(M2^T) M1
    has K's |lambda| to rounding.  Wherever _strategy_sets reads the vectors, |lambda| > eta(0), player
    two's best responses conj(M2^T e) to K's vectors lie within a millionth of the radius eta(0) / |lambda|
    of K''s vectors, in the sine of the angle between them.
    """
    eta = 2.0 * math.sqrt(2.0 * equilibria._EIGEN_GUARD) * (1.0 + 4.0 * TOL.unitarity)
    read = 0
    for g in edge_games():
        m1, m2 = target_arrays(g)
        ks = np.conj(m1) @ m2.T, np.conj(m2.T) @ m1
        (lam, *e), (lam_prime, *f) = (equilibria._eigenvectors(k.tolist()) for k in ks)
        for k, vectors in zip(ks, (e, f)):
            for v in map(np.array, vectors):
                kv = k @ v
                assert abs(v[0] * kv[1] - v[1] * kv[0]) <= 1e-15 * np.vdot(v, v).real * np.linalg.norm(k)
        assert abs(lam_prime**2 - lam**2) <= 1e-15
        if lam > eta:
            read += 1
            for w in (np.conj(m2.T @ np.array(v)) for v in e):
                sine = min(abs(w[0] * v1 - w[1] * v0) / np.linalg.norm(w) / math.hypot(abs(v0), abs(v1)) for v0, v1 in f)
                assert sine <= 1e-6 * eta / lam
    assert read >= 15


def test_passing_pairs_lie_within_the_eigen_radius():
    """Each dense-oracle pair of a rank-(2, 2) game lies within r = eta / |lambda| of an eigenvector: a of K's, b of K''s.

    K = conj(M1) M2^T, K' = conj(M2^T) M1, eta = sqrt(2 tol s1 s2) (sqrt(s1) + sqrt(s2)) with
    si = |Mi|_2, and |lambda|^2 = |det K|, with np.linalg.eig's eigenvectors and no rounding
    allowance.  The distance of s from e is sqrt(1 - |<e|s>|^2) = |<e_perp|s>|.  Each pair is
    also in _strategy_sets' sets, and some pair comes past a fifth of r, so the bound is not slack.
    """
    grid = GridSpec(13, 24)
    _, _, x, y = equilibria._grid_amplitudes(grid)
    rng = np.random.default_rng(139)
    games = [QuantumGame(random_unitary(rng), random_prefs(rng)) for _ in range(12)]
    games += [planted_game(rng, grid)[0] for _ in range(12)]
    games += [stratum_game(rng, "2,2") for _ in range(12)]
    worst = 0.0
    for g in games:
        m1, m2 = target_arrays(g)
        s1, s2 = np.linalg.norm(m1, 2), np.linalg.norm(m2, 2)
        for tol in (1e-9, 1e-6, 1e-4, 1e-2):
            i, j = np.divmod(dense_candidate_pairs(g, grid, tol)[0], x.size)
            eta = math.sqrt(2.0 * tol * s1 * s2) * (math.sqrt(s1) + math.sqrt(s2))
            for k, played in ((np.conj(m1) @ m2.T, i), (np.conj(m2.T) @ m1, j)):
                e = np.linalg.eig(k)[1]  # unit eigenvectors as columns
                distance = np.min(np.abs(e[0][:, None] * y[played] - e[1][:, None] * x[played]), axis=0)
                worst = max(worst, np.max(distance, initial=0.0) / (eta / math.sqrt(abs(np.linalg.det(k)))))
            (set1, set2), _ = eigen_sets(g, grid, tol)
            assert np.isin(i, set1).all() and np.isin(j, set2).all()
    assert 0.2 < worst <= 1.0


def suite_grids():
    """Every grid the suite's tests run: all of the CLI property's 2x2 to 13x24, and the fixed ones up to 101x200."""
    fixed = {(3, 4), (5, 8), (7, 12), (13, 24), (21, 40), (41, 80), (61, 120), (101, 200)}
    return sorted({(t, p) for t in range(2, 14) for p in range(2, 25)} | fixed)


def test_grid_points_are_the_grids_own_floats():
    """_grid_points gives each grid point's floats bit for bit, whatever else it is asked for, and the whole grid is bloch_grid's.

    On every grid of suite_grids: each row alone, as the eigen caps ask, and a shuffled
    sample of flat indices, as a search's kept plays do.
    """
    rng = np.random.default_rng(163)
    rows = 0
    for t, p in suite_grids():
        grid = GridSpec(t, p)
        thetas, phis, x, y = equilibria._grid_amplitudes(grid)
        reference = bloch_grid(t, p)
        assert x.tobytes() == reference[:, 0].real.tobytes() and y.tobytes() == reference[:, 1].tobytes()
        assert thetas.tobytes() == np.linspace(0.0, math.pi, t).tobytes()
        assert phis.tobytes() == np.linspace(0.0, 2.0 * math.pi, p, endpoint=False).tobytes()
        for index in [np.arange(r * p, (r + 1) * p) for r in range(t)] + [rng.permutation(x.size)[: max(1, x.size // 3)]]:
            *_, xs, ys = equilibria._grid_points(grid, index)
            assert xs.tobytes() == x[index].tobytes() and ys.tobytes() == y[index].tobytes()
        rows += t
    assert rows > 900


def test_haar_scans_never_reach_the_windows(monkeypatch):
    """Regression guard: at 41x80 and the default tol, a Haar game's scan ends before any cap is built.

    Its eigen-window radius, some 1e-4, leaves at least one player without a grid strategy.
    """

    def unreached(*args):
        raise AssertionError("_window_pairs was reached")

    monkeypatch.setattr(equilibria, "_window_pairs", unreached)
    rng = np.random.default_rng(149)
    grid = GridSpec(41, 80)
    for _ in range(72):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        assert equilibria._candidate_pairs(g, grid, TOL.equilibrium)[0].size == 0


def count_calls(monkeypatch, name: str) -> list:
    """A list that gets one entry per call of equilibria's function name from now on."""
    calls = []
    original = getattr(equilibria, name)
    monkeypatch.setattr(equilibria, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_analyze_random_searches_form_one_eigen_basis(monkeypatch):
    """On the benchmark's 72 analyze_random inputs, player one's eigen-window set is empty, so no search forms player two's.

    Its six Haar gates, drawn from seed 13040748, at each preference pair, on the 41x80 grid at the default tol.
    """
    calls, caps = count_calls(monkeypatch, "_eigenvectors"), count_calls(monkeypatch, "_cap_rows")
    rng = np.random.default_rng(13040748)
    for u in [random_unitary(rng) for _ in range(6)]:
        for prefs in ALL_PREFS:
            calls.clear()
            caps.clear()
            assert equilibria._search_rows(QuantumGame(u, PreferenceProfile(*prefs)), GridSpec(41, 80), TOL.equilibrium)[2] == []
            assert len(calls) == 1 and len(caps) == 1


def rank_edge_cases():
    """Games near each degenerate stratum, each at the two tols that put eta(tol) at |lambda| (1 -+ 1e-3).

    eta(tol) = 2 sqrt(2 (tol + _EIGEN_GUARD)) (1 + 4 TOL.unitarity) is _strategy_sets' rank rule:
    a player keeps every strategy when eta reaches |lambda|.  Each case is (game, tol, whether it does).
    """
    rng = np.random.default_rng(157)
    cases = []
    for g in [perturbed_game(rng, stratum, eps) for stratum in STRATA[1:] for eps in (1e-2, 1e-3, 1e-4)]:
        m1, m2 = target_arrays(g)
        lam = equilibria._eigenvectors((np.conj(m1) @ m2.T).tolist())[0]
        for scale in (1.0 - 1e-3, 1.0 + 1e-3):
            tol = (lam * scale / (2.0 * (1.0 + 4.0 * TOL.unitarity))) ** 2 / 2.0 - equilibria._EIGEN_GUARD
            assert tol >= 0.0
            cases.append((g, tol, scale > 1.0))
    return cases


def test_scans_form_both_eigen_sets_only_past_a_non_empty_first_and_as_the_dense_oracle(monkeypatch):
    """A scan forms K's eigenvectors once, and player two's set only past a non-empty first; sets and pairs are the dense oracles'.

    On every stratum, near each degenerate one and on planted games, at tols from 0 to 1e-2,
    near each degenerate stratum at the tols on both sides of the rank rule, and on 100 Haar
    games at tol 1e-5.  dense_strategy_sets forms K' = conj(M2^T) M1 for player two, so it
    checks _strategy_sets' best responses conj(M2^T e) independently, and _candidate_pairs
    returns dense_candidate_pairs' pairs and payoffs bit for bit.  Some scans stop after player
    one's set (one cap), and on some Haar games player two's empty set alone ends the scan.
    """
    grid = GridSpec(13, 24)
    rng = np.random.default_rng(151)
    games = edge_games() + [planted_game(rng, grid)[0] for _ in range(12)]
    cases = [(g, tol) for g in games for tol in (0.0, 1e-15, 1e-9, 1e-2)] + [(g, tol) for g, tol, _ in rank_edge_cases()]
    rng = np.random.default_rng(167)
    cases += [(QuantumGame(random_unitary(rng), random_prefs(rng)), 1e-5) for _ in range(100)]
    calls, caps = count_calls(monkeypatch, "_eigenvectors"), count_calls(monkeypatch, "_cap_rows")
    ends = []
    for g, tol in cases:
        expected = dense_strategy_sets(g, grid, tol)
        calls.clear()
        caps.clear()
        got = equilibria._candidate_pairs(g, grid, tol)
        assert len(calls) == 1
        if not expected[0].size:
            assert len(caps) == 1  # player one's cap rows alone
        assert [a.tobytes() for a in got] == [a.tobytes() for a in dense_candidate_pairs(g, grid, tol)]
        (set1, set2), _ = eigen_sets(g, grid, tol)
        assert [set1.tobytes(), set2.tobytes()] == [s.tobytes() for s in expected]
        if not (set1.size and set2.size):
            assert got[0].size == 0
        ends.append((set1.size > 0, set2.size > 0))
    assert any(not one for one, _ in ends) and ends[-100:].count((True, False)) >= 15


@pytest.mark.parametrize("grid", [GridSpec(13, 24), GridSpec(41, 80)], ids=["13x24", "41x80"])
def test_rank_rule_at_its_edge_keeps_the_dense_sets_and_forms_only_cap_rows(grid, monkeypatch):
    """At eta(tol) = |lambda| (1 -+ 1e-3), _strategy_sets' two sets are dense_strategy_sets', bit for bit.

    Where eta reaches |lambda|, every strategy is kept and no amplitude is formed.  Below it,
    amplitudes are formed only on the rows of the eigenvector caps: each formed point's
    theta/2 lies within asin(r) + _CAP_GUARD of an eigenvector's, from np.linalg.eig.
    """
    formed = []
    points = equilibria._grid_points
    monkeypatch.setattr(equilibria, "_grid_points", lambda grid, index: formed.append(index) or points(grid, index))
    eta_of = lambda tol: 2.0 * math.sqrt(2.0 * (tol + equilibria._EIGEN_GUARD)) * (1.0 + 4.0 * TOL.unitarity)  # noqa: E731
    pruned = False
    for g, tol, reaches in rank_edge_cases():
        m1, m2 = target_arrays(g)
        ks = (np.conj(m1) @ m2.T, np.conj(m2.T) @ m1)
        lam = math.sqrt(abs(np.linalg.det(ks[0])))
        assert (eta_of(tol) >= lam) == reaches
        expected = dense_strategy_sets(g, grid, tol)
        formed.clear()
        sets, count = eigen_sets(g, grid, tol)
        sets = list(sets)
        assert [s.tobytes() for s in sets] == [s.tobytes() for s in expected]
        if reaches:
            assert formed == [] and all(s.size == count for s in sets)
            continue
        assert len(formed) == 2  # one cap-row batch per player
        pruned |= any(s.size < count for s in sets)
        half = math.asin(eta_of(tol) / lam) + equilibria._CAP_GUARD
        for index, k in zip(formed, ks):
            vectors = np.linalg.eig(k)[1]
            beta = np.arctan2(np.abs(vectors[1]), np.abs(vectors[0]))
            row_half = index // grid.phi_points * math.pi / (2 * (grid.theta_points - 1))
            assert np.all(np.min(np.abs(row_half[:, None] - beta), axis=1) <= half + 1e-9)
    assert pruned  # just below the edge, some strategy lies farther than r from both eigenvectors


@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-9])
def test_windows_keep_every_passing_pair_on_random_games(tol):
    rng = np.random.default_rng(83)
    grid = GridSpec(21, 40)
    for _ in range(20):
        assert window_misses(*scans(QuantumGame(random_unitary(rng), random_prefs(rng)), grid, tol)) == 0


def threshold_tolerances(g, grid, count, poles_only=False):
    """count tol values, small to large, at each of which some grid pair sits on a player's pass threshold.

    With poles_only, only pairs of grid strategies in which a player plays a pole count.
    """
    _, _, x, y = equilibria._grid_amplitudes(grid)
    m1, m2t = equilibria._target_matrices(g)
    (a1, b1), (a2, b2) = equilibria._contract(m1, x, y), equilibria._contract(m2t, x, y)
    gap1 = np.hypot(np.abs(a1), np.abs(b1)) - np.abs(x[:, None] * a1 + y[:, None] * b1)  # [i, j]
    gap2 = np.hypot(np.abs(a2), np.abs(b2))[:, None] - np.abs(a2[:, None] * x + b2[:, None] * y)
    if poles_only:
        pole = np.isin(np.arange(x.size), [0, x.size - grid.phi_points])
        strategy = ~np.isin(np.arange(x.size), pole_copies(grid))
        on = (pole[:, None] | pole) & (strategy[:, None] & strategy)
        gap1, gap2 = gap1[on], gap2[on]
    gaps = np.unique(np.concatenate([gap1.ravel(), gap2.ravel()]))
    gaps = gaps[gaps > 0]
    return gaps[np.linspace(0, gaps.size - 1, count).astype(int)].tolist()


def threshold_cases(poles_only=False):
    """Games at 13x24, each with tols that put some of its grid pairs on a pass threshold."""
    grid = GridSpec(13, 24)
    games = [QuantumGame(entry.unitary, PreferenceProfile(*prefs)) for entry in LIBRARY.values() for prefs in ALL_PREFS[::2]]
    rng = np.random.default_rng(97)
    games += [QuantumGame(random_unitary(rng), random_prefs(rng)) for _ in range(8)]
    return [(g, grid, tol) for g in games for tol in threshold_tolerances(g, grid, 4, poles_only)[1:]]


def test_windows_keep_pairs_on_the_pass_threshold():
    """At a tol that puts grid pairs exactly on a pass threshold, the cap's rounding guard keeps them."""
    for g, grid, tol in threshold_cases():
        assert window_misses(*scans(g, grid, tol)) == 0


def test_windows_keep_pole_pairs_on_the_pass_threshold():
    """The same at tols that put a pair with a pole player on a pass threshold: the windows alone guard the poles."""
    for g, grid, tol in threshold_cases(poles_only=True):
        assert window_misses(*scans(g, grid, tol)) == 0


def test_windows_keep_planted_equilibria_at_tol_zero():
    """An exact equilibrium planted on a pair of non-pole grid strategies sits on both pass thresholds at once.

    At tol 0 only the cap guard's margin keeps such a pair in the windows, so
    the scan must return the dense oracle's candidates, bits and all; at 1e-15
    the planted pair itself passes.
    """
    grid = GridSpec(13, 24)
    rng = np.random.default_rng(131)
    for _ in range(24):
        g, i, j = planted_game(rng, grid)
        for tol in (0.0, 1e-15):
            expected, got = scans(g, grid, tol)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        assert i * grid.theta_points * grid.phi_points + j in got[0]


@pytest.mark.parametrize("phi_points", [2, 5])
def test_all_pole_grid_finds_the_passing_basis_plays(phi_points):
    """On a grid of the two poles alone the search keeps the deduplicated passing plays among |0>, |1>.

    Each result is verify_equilibrium's certificate of its play, bit for bit.
    """
    grid = GridSpec(2, phi_points)
    _, _, x, y = equilibria._grid_amplitudes(grid)
    poles = [QubitState(np.array([x[k], y[k]])) for k in (0, phi_points)]
    rng = np.random.default_rng(101)
    games = [QuantumGame(entry.unitary, PreferenceProfile(*prefs)) for entry in LIBRARY.values() for prefs in ALL_PREFS]
    games += [QuantumGame(random_unitary(rng), random_prefs(rng)) for _ in range(12)]
    found = 0
    for g in games:
        for tol in (1e-9, 1e-2):
            passing = [c for a in poles for b in poles if (c := verify_equilibrium(g, Play(a, b), tol)).is_equilibrium]
            kept = quadratic_dedup(np.array([c.payoff1 for c in passing]), np.array([c.payoff2 for c in passing]), TOL.payoff_dedup)
            got = [certificate_bits(c) for c in search_equilibria(g, grid, tol)]
            assert got == [certificate_bits(passing[r]) for r in kept]
            found += len(got)
    assert found > len(games)


@pytest.mark.parametrize("guards", [(False, True), (True, False)])
def test_threshold_pairs_are_lost_without_a_windows_guards(monkeypatch, guards):
    """With either player's cap unguarded, the threshold cases above lose a passing pair.

    guards[p] says whether player p + 1's cap keeps _CAP_GUARD on its half-angle.
    """
    guard, window_pairs = equilibria._CAP_GUARD, equilibria._window_pairs

    def one_guarded(thetas, per_row, strategies, *caps):
        caps = [(beta, half + guard, *centre) if kept else (beta, half, *centre) for kept, (beta, half, *centre) in zip(guards, caps)]
        return window_pairs(thetas, per_row, strategies, *caps)

    monkeypatch.setattr(equilibria, "_CAP_GUARD", 0.0)
    monkeypatch.setattr(equilibria, "_window_pairs", one_guarded)
    if not any(window_misses(*scans(g, grid, tol)) for g, grid, tol in threshold_cases()):
        pytest.fail("every threshold pair was kept with one cap unguarded")


def test_pole_threshold_pairs_are_lost_without_the_theta_guards(monkeypatch):
    """With _CAP_GUARD, which widens each cap's theta span, at zero, the pole threshold cases lose a passing pair."""
    monkeypatch.setattr(equilibria, "_CAP_GUARD", 0.0)
    if not any(window_misses(*scans(g, grid, tol)) for g, grid, tol in threshold_cases(poles_only=True)):
        pytest.fail("every pole threshold pair was kept without the guard")


def test_library_scans_evaluate_few_pairs(monkeypatch):
    """Regression guard: at the default grid the windows leave ~14 k pairs to check on bell_circuit, not 857 k.

    On the other library gates player two's row filter halves the pairs, to ~7 k.
    """
    sizes = []
    original = equilibria._window_pairs

    def counted(*args):
        i, j = original(*args)
        sizes.append(i.size)
        return i, j

    monkeypatch.setattr(equilibria, "_window_pairs", counted)
    for name, entry in LIBRARY.items():
        equilibria._candidate_pairs(QuantumGame(entry.unitary), GridSpec(), TOL.equilibrium)
        assert sizes[-1] <= (20_000 if name == "bell_circuit" else 10_000), name


def half_cell_payoffs(step):
    """Payoffs within a few ulps of the half-way points between rounding cells."""
    values = []
    for k in (0, 1, 2, 7, 1000, 123456, 1570795):
        for centre in ((k + 0.5) * step, (k + 1.5) * step):
            values += [centre + d * np.spacing(centre) for d in range(-3, 4)]
        values += [v + step for v in values[-14:-7]]
    return np.array(values)


def test_bucketed_dedup_matches_quadratic_oracle_at_edges():
    step = TOL.payoff_dedup
    rng = np.random.default_rng(83)
    halves = half_cell_payoffs(step)
    # Chebyshev distance exactly step along either axis, and both.
    base = rng.uniform(0.0, math.pi / 2, 40)
    other = rng.uniform(0.0, math.pi / 2, 40)
    exact1 = np.concatenate([base, base + step, base, base + step])
    exact2 = np.concatenate([other, other, other + step, other + step])
    # Clusters centred on cell corners, spread over three cells.
    centres = (rng.integers(0, 1_500_000, (30, 2)) + 0.5) * step
    cluster = np.repeat(centres, 20, axis=0) + rng.uniform(-1.5 * step, 1.5 * step, (600, 2))
    cases = [
        (halves, np.zeros_like(halves)),
        (np.zeros_like(halves), halves),
        (halves, halves[::-1].copy()),
        (exact1, exact2),
        (cluster[:, 0], cluster[:, 1]),
        # The third pair shares the second's cell, so it is dropped unseen, though it lies over step from the first.
        (np.array([0.4, 1.3, 1.45]) * step, np.zeros(3)),
    ]
    for p1, p2 in cases:
        for order in (np.arange(p1.size), rng.permutation(p1.size)):
            a, b = p1[order], p2[order]
            assert equilibria._dedup_payoffs(a, b, step) == quadratic_dedup(a, b, step)
    assert equilibria._dedup_payoffs(*cases[-1], step) == [0]


def test_bucketed_dedup_merges_across_two_cells():
    """Round-half-to-even can put pairs within step two cells apart."""
    step = TOL.payoff_dedup
    lo, hi = 0.5 * step, 1.5 * step - np.spacing(1.5 * step)
    assert (round(lo / step), round(hi / step)) == (0, 2) and hi - lo <= step
    p1, p2 = np.array([lo, hi]), np.zeros(2)
    assert equilibria._dedup_payoffs(p1, p2, step) == quadratic_dedup(p1, p2, step) == [0]


def test_dedup_keeps_a_candidate_whose_only_near_pair_was_dropped():
    """A is kept; B, within step of A, is dropped; C, within step of B alone, is kept, as B was not."""
    step = TOL.payoff_dedup
    p1, p2 = np.array([0.2, 1.1, 2.0]) * step, np.zeros(3)
    assert equilibria._dedup_payoffs(p1, p2, step) == quadratic_dedup(p1, p2, step) == [0, 2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9), st.integers(0, 9), st.floats(0.0, 0.1)), max_size=40))
def test_dedup_matches_quadratic_oracle_on_clustered_payoffs(points):
    """Payoffs on lattices of 0.45 steps around three centres, one at the origin, so candidates conflict in chains."""
    step = TOL.payoff_dedup
    centres = [(0.0, 0.0), (0.5, 1.0), (1.5, 0.25)]
    p1 = np.array([centres[k][0] + (0.45 * n1 + jitter) * step for k, n1, _, jitter in points])
    p2 = np.array([centres[k][1] + 0.45 * n2 * step for k, _, n2, _ in points])
    assert equilibria._dedup_payoffs(p1, p2, step) == quadratic_dedup(p1, p2, step)


def test_grid_spec_validation():
    for theta_points, phi_points in ((1, 24), (13, 0), (2.5, 3), (13, 24.0), (True, 3), (13, None)):
        with pytest.raises(ValueError, match="grid needs an integer >= 2 points per angle"):
            GridSpec(theta_points, phi_points)
    assert GridSpec(np.int64(13), 24).theta_points == 13


# ----------------------------------------------------------- K = conj(M1) M2^T


def test_k_is_traceless_and_squares_to_minus_its_determinant():
    """tr K is the inner product of U's two target rows, so it vanishes; Cayley-Hamilton then gives K^2 = -det K I.

    So K's eigenvalues are +-lambda, which the two K-eigenvector equilibria rest on.
    """
    rng = np.random.default_rng(113)
    unitaries = [entry.unitary for entry in LIBRARY.values()] + [random_unitary(rng) for _ in range(50)]
    for u in unitaries:
        for prefs in ALL_PREFS:
            m1, m2 = target_arrays(QuantumGame(u, PreferenceProfile(*prefs)))
            k = np.conj(m1) @ m2.T
            assert abs(np.trace(k)) <= 1e-12
            assert np.max(np.abs(k @ k + np.linalg.det(k) * np.eye(2))) <= 1e-12


# Smallest singular value a rank-2 target matrix of stratum_game must keep, and the smallest
# nonzero K.  Both are Gaussian draws, below e with a probability of order e^2 (3.6e-3 and
# 1.2e-2 were the least over 3,000 seeds), so 1e-6 fails about once in 1e11 draws.
RANK_TWO_FLOOR = 1e-6


@pytest.mark.parametrize("stratum", STRATA)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_stratum_games_hold_their_signature(stratum, seed):
    """Each stratum_game has its ranks and traceless K; a mixed game's one closed-form equilibrium certifies.

    In (2, 1), with M2 = u2 v2^T, it is b = conj(v2) and a = conj(M1 b), where u2^T a = tr K = 0,
    so player two's achieved and best are both 0.  (1, 2) is the mirror: a = conj(u1), b = conj(M2^T a).
    """
    g = stratum_game(np.random.default_rng(seed), stratum)
    m1, m2 = target_arrays(g)
    k = np.conj(m1) @ m2.T
    for rank, m in zip((int(stratum[0]), int(stratum[2])), (m1, m2)):
        sigma_min = np.linalg.svd(m, compute_uv=False)[-1]
        assert sigma_min <= 1e-12 if rank == 1 else sigma_min >= RANK_TWO_FLOOR
    assert abs(np.trace(k)) <= 1e-12
    if stratum == "1,1 K=0":
        assert np.max(np.abs(k)) <= 1e-12
    elif stratum == "1,1 K nilpotent":
        assert np.max(np.abs(k)) >= RANK_TWO_FLOOR and np.max(np.abs(k @ k)) <= 1e-12
    elif stratum in ("2,1", "1,2"):
        if stratum == "2,1":
            b = np.conj(np.linalg.svd(m2)[2][0])  # conj(v2): v2^T is M2's first right singular row
            a = np.conj(m1 @ b)
        else:
            a = np.conj(np.linalg.svd(m1)[0][:, 0])  # conj(u1)
            b = np.conj(m2.T @ a)
        cert = verify_equilibrium(g, Play(QubitState(a / np.linalg.norm(a)), QubitState(b / np.linalg.norm(b))), 1e-12)
        assert cert.is_equilibrium
        rank_one = (cert.achieved2, cert.best2) if stratum == "2,1" else (cert.achieved1, cert.best1)
        assert max(rank_one) <= 1e-12


# ------------------------------------------------------- case inequalities


def test_case_ids_and_pairs_exposed():
    assert CASE_IDS == (31, 32, 33, 34)
    assert CASE_PAIRS == ((31, 33), (31, 34), (32, 33), (32, 34))
    for pair in CASE_PAIRS:
        assert pair[0] in (31, 32) and pair[1] in (33, 34)


def test_case_inequality_known_evaluations():
    g = QuantumGame(CNOT)
    play = Play(KET0, KET1)
    c = response_coefficients(g, play)  # (0, 0, 0, 1)
    assert case_inequality_holds(31, c, play, KET1)  # 0 <= 0
    assert case_inequality_holds(32, c, play, KET1)  # 0 >= 0
    assert case_inequality_holds(33, c, play, KET0)  # 0 <= 1
    assert not case_inequality_holds(34, c, play, KET0)  # 0 >= 1 fails


def test_case_inequality_rejects_unknown_id():
    c = ResponseCoefficients(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        case_inequality_holds(30, c, Play(KET0, KET0), KET0)


def test_deviation_bound_cases_hold_at_equilibria():
    """At a certified equilibrium no deviation beats the weighted moduli."""
    thetas = np.linspace(0.0, math.pi, 15)
    phis = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    for gate in (CNOT, SWAP):
        g = QuantumGame(gate)
        for cert in search_equilibria(g, GridSpec(13, 24))[:10]:
            c = response_coefficients(g, cert.play)
            for th in thetas:
                for ph in phis:
                    dev = QubitState.from_bloch(float(th), float(ph))
                    assert case_inequality_holds(31, c, cert.play, dev)
                    assert case_inequality_holds(33, c, cert.play, dev)


# ------------------------------------------------------------------ regions


def test_region_single_point_when_slope_vanishes():
    c = ResponseCoefficients(1.0, 0.0, 0.0, 1.0)
    region = feasibility_region(c, 1, KET0)
    assert region.samples == ((0.0, 1.0),)
    assert not region.swapped
    assert region.slope == 0.0


def test_region_diagonal_boundary():
    c = ResponseCoefficients(1.0, 1.0, 0.0, 1.0)
    region = feasibility_region(c, 1, KET0, resolution=101)
    assert len(region.samples) == 101
    for h, v in region.samples:
        assert v == pytest.approx(max(1.0 - h, 0.0), abs=1e-12)
        assert h * h + v * v <= 1.0 + 1e-12


def test_region_degenerate_p_side_raises():
    c = ResponseCoefficients(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(DegenerateCoefficientError):
        feasibility_region(c, 1, KET0)
    region = feasibility_region(c, 1, KET0, swapped=True)
    assert region.swapped
    # q-side only: deviation |0> puts no mass on the constrained axis
    assert all(v == 0.0 for _, v in region.samples)
    assert len(region.samples) == 101


def test_region_swapped_cnot_ground_player_two():
    g = QuantumGame(CNOT)
    c = response_coefficients(g, Play(KET0, KET0))  # (1, 0, 0, 1)
    with pytest.raises(DegenerateCoefficientError):
        feasibility_region(c, 2, KET1)
    region = feasibility_region(c, 2, KET1, swapped=True)
    assert region.samples == ((0.0, 1.0),)


def test_region_swapped_degenerate_q_side_raises():
    c = ResponseCoefficients(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(DegenerateCoefficientError):
        feasibility_region(c, 1, KET0, swapped=True)


def test_region_case_pair_passthrough_and_validation():
    c = ResponseCoefficients(1.0, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        feasibility_region(c, 3, KET0)
    with pytest.raises(ValueError):
        feasibility_region(c, 1, KET0, resolution=1)


def test_region_samples_satisfy_generating_inequality():
    """Every emitted boundary point obeys the inequality it was solved from."""
    rng = np.random.default_rng(73)
    for _ in range(10):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        play = Play(random_qubit_state(rng), random_qubit_state(rng))
        c = response_coefficients(g, play)
        dev = random_qubit_state(rng)
        for player in (1, 2):
            p_side = c.p if player == 1 else c.p_prime
            q_side = c.q if player == 1 else c.q_prime
            if p_side >= 1e-10:
                region = feasibility_region(c, player, dev, resolution=41)
                for h, v in region.samples:
                    assert p_side * v + q_side * h >= (
                        p_side * abs(dev.x) + q_side * abs(dev.y) - 1e-9
                    )
                    assert h * h + v * v <= 1.0 + 1e-12
            if q_side >= 1e-10:
                region = feasibility_region(c, player, dev, resolution=41, swapped=True)
                for h, v in region.samples:
                    assert p_side * h + q_side * v >= (
                        p_side * abs(dev.x) + q_side * abs(dev.y) - 1e-9
                    )
                    assert h * h + v * v <= 1.0 + 1e-12
