"""State construction, tensor products, unitary application and completion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.qcore import (
    KET0,
    KET1,
    TOL,
    GameUnitary,
    NormalizationError,
    QubitState,
    TwoQubitState,
    UnitarityError,
    apply,
    check_unitary,
    complete_unitary,
    random_qubit_state,
    random_unitary,
    tensor,
    unitarity_deviation,
)
from qgame.gates import CNOT, IDENTITY

S2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------- states


def test_ket_constants():
    assert np.array_equal(KET0.vec, np.array([1, 0], dtype=complex))
    assert np.array_equal(KET1.vec, np.array([0, 1], dtype=complex))


def test_from_amplitudes_normalized_ok():
    s = QubitState.from_amplitudes(S2, S2 * 1j)
    assert s.x == pytest.approx(S2)
    assert s.y == pytest.approx(S2 * 1j)


@pytest.mark.parametrize("x,y", [(1.0, 1.0), (0.5, 0.5), (0.0, 0.0)])
def test_from_amplitudes_rejects_unnormalized(x, y):
    with pytest.raises(NormalizationError):
        QubitState.from_amplitudes(x, y)


def test_from_amplitudes_rejects_nonfinite():
    with pytest.raises(NormalizationError):
        QubitState.from_amplitudes(float("nan"), 0.0)


def test_qubit_state_rejects_wrong_length():
    with pytest.raises(NormalizationError, match="exactly 2 amplitudes"):
        QubitState(np.zeros(3))


def test_state_vector_is_read_only():
    s = QubitState.from_amplitudes(1.0, 0.0)
    with pytest.raises(ValueError):
        s.vec[0] = 0.0


def test_from_bloch_poles_and_equator():
    assert np.allclose(QubitState.from_bloch(0.0, 0.0).vec, [1, 0])
    # theta=pi lands on |1> with the phase carried by y
    top = QubitState.from_bloch(math.pi, math.pi / 2)
    assert abs(top.x) < 1e-15
    assert top.y == pytest.approx(1j)
    eq = QubitState.from_bloch(math.pi / 2, 0.0)
    assert np.allclose(eq.vec, [S2, S2])


def test_two_qubit_amplitude_indexing():
    s = TwoQubitState(np.array([0, 0, 1, 0], dtype=complex))
    assert s.amplitude(2) == 1.0
    assert s.amplitude(0) == 0.0
    with pytest.raises(IndexError):
        s.amplitude(4)


# ---------------------------------------------------------------- tensor


def test_tensor_basis_ordering():
    """Index 2i+j must hold the (first qubit i, second qubit j) amplitude."""
    assert np.array_equal(tensor(KET0, KET1).vec, [0, 1, 0, 0])
    assert np.array_equal(tensor(KET1, KET0).vec, [0, 0, 1, 0])
    assert np.array_equal(tensor(KET1, KET1).vec, [0, 0, 0, 1])


def test_tensor_matches_componentwise_products():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = random_qubit_state(rng), random_qubit_state(rng)
        t = tensor(a, b).vec
        expected = [a.x * b.x, a.x * b.y, a.y * b.x, a.y * b.y]
        assert np.allclose(t, expected, atol=1e-15)


def test_tensor_equals_kron_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a, b = random_qubit_state(rng), random_qubit_state(rng)
        assert tensor(a, b).vec.tobytes() == np.kron(a.vec, b.vec).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    t1=st.floats(0, math.pi),
    p1=st.floats(0, 2 * math.pi, exclude_max=True),
    alpha=st.floats(0, 2 * math.pi),
)
def test_tensor_carries_global_phase(t1, p1, alpha):
    a = QubitState.from_bloch(t1, p1)
    phase = complex(math.cos(alpha), math.sin(alpha))
    shifted = QubitState(a.vec * phase)
    b = QubitState.from_bloch(1.0, 2.0)
    assert np.allclose(tensor(shifted, b).vec, phase * tensor(a, b).vec, atol=1e-12)


# ---------------------------------------------------------------- unitaries


def test_check_unitary_accepts_and_rejects():
    assert check_unitary(CNOT.mat)
    assert check_unitary(IDENTITY.mat)
    assert not check_unitary(1.01 * np.eye(4))
    assert not check_unitary(np.ones((4, 4), dtype=complex))
    assert not check_unitary(np.eye(3))
    holed = np.eye(4, dtype=complex)
    holed[1, 2] = math.nan
    assert not check_unitary(holed)


def test_unitarity_deviation_magnitude():
    m = np.eye(4, dtype=complex)
    m[0, 0] = 1.0 + 1e-6
    # (1+e)^2 - 1 = 2e + e^2
    assert unitarity_deviation(m) == pytest.approx(2e-6 + 1e-12, rel=1e-9)


def test_game_unitary_rejects_nonunitary_with_deviation_message():
    with pytest.raises(UnitarityError) as exc:
        GameUnitary(1.01 * np.eye(4))
    assert "unitarity violated" in str(exc.value)
    assert "exceeds" in str(exc.value)


def test_game_unitary_rejects_wrong_shape():
    with pytest.raises(UnitarityError):
        GameUnitary(np.eye(3))


def test_game_unitary_rejects_nonfinite_entries():
    m = np.eye(4, dtype=complex)
    m[3, 0] = math.nan
    with pytest.raises(UnitarityError, match="non-finite"):
        GameUnitary(m)


def test_game_unitary_copies_and_leaves_the_callers_array_writeable():
    """Like the state classes, GameUnitary freezes its own copy: the caller may still edit the array passed in."""
    m = np.eye(4, dtype=complex)
    u = GameUnitary(m)
    assert u.mat is not m and m.flags.writeable and not u.mat.flags.writeable
    m[0, 0] = 2.0
    assert np.array_equal(u.mat, np.eye(4))


def test_apply_permutes_basis_states():
    # control on first qubit: |10> -> |11>, |11> -> |10>
    assert np.array_equal(apply(CNOT, tensor(KET1, KET0)).vec, [0, 0, 0, 1])
    assert np.array_equal(apply(CNOT, tensor(KET1, KET1)).vec, [0, 0, 1, 0])
    assert np.array_equal(apply(CNOT, tensor(KET0, KET1)).vec, [0, 1, 0, 0])


def test_apply_creates_entangled_state():
    plus = QubitState.from_amplitudes(S2, S2)
    out = apply(CNOT, tensor(plus, KET0))
    assert np.allclose(out.vec, [S2, 0, 0, S2], atol=1e-15)


def test_apply_preserves_norm_over_random_pairs():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        u = random_unitary(rng)
        joint = tensor(random_qubit_state(rng), random_qubit_state(rng))
        raw = u.mat @ joint.vec
        worst = max(worst, abs(np.linalg.norm(raw) - 1.0))
    assert worst < 1e-10


# ------------------------------------------------------- completion / random


def test_complete_unitary_from_first_basis_vector_is_identity():
    u = complete_unitary(TwoQubitState(np.array([1, 0, 0, 0], dtype=complex)))
    assert np.array_equal(u.mat, np.eye(4, dtype=complex))


def test_complete_unitary_first_column_preserved_exactly():
    rng = np.random.default_rng(11)
    for _ in range(100):
        col = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        col /= np.linalg.norm(col)
        u = complete_unitary(TwoQubitState(col))
        assert np.array_equal(u.mat[:, 0], col)
        assert check_unitary(u.mat)


def test_complete_unitary_bell_column_frozen_matrix():
    """Completion of (1,0,0,1)/sqrt(2) against the canonical seed order."""
    col = TwoQubitState(np.array([S2, 0, 0, S2], dtype=complex))
    u = complete_unitary(col).mat
    expected = np.array(
        [
            [S2, S2, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [S2, -S2, 0, 0],
        ],
        dtype=complex,
    )
    assert np.allclose(u, expected, atol=1e-12)


def test_complete_unitary_is_deterministic():
    rng = np.random.default_rng(3)
    col = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    col /= np.linalg.norm(col)
    a = complete_unitary(TwoQubitState(col)).mat
    b = complete_unitary(TwoQubitState(col.copy())).mat
    assert np.array_equal(a, b)


def test_random_unitary_unitary_and_seeded():
    rng = np.random.default_rng(99)
    mats = [random_unitary(rng).mat for _ in range(20)]
    for m in mats:
        assert unitarity_deviation(m) < TOL.unitarity
    again = [random_unitary(np.random.default_rng(99)).mat for _ in range(1)]
    assert np.array_equal(mats[0], again[0])


def test_random_qubit_state_normalized():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = random_qubit_state(rng)
        assert abs(np.linalg.norm(s.vec) - 1.0) < 1e-12


def test_package_reexports_resolve():
    import qgame

    missing = [n for n in qgame.__all__ if not hasattr(qgame, n)]
    assert missing == []
