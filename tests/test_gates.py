"""Gate library contents and the JSON gate-file format."""

import json
import math

import numpy as np
import pytest

from qgame.gates import (
    BELL_CIRCUIT,
    BELL_MECHANISM,
    CNOT,
    CZ,
    LIBRARY,
    SWAP,
    bell_state,
    gate_from_json_dict,
    gate_to_json_dict,
    get_gate,
    load_gate_file,
    save_gate_file,
)
from qgame.qcore import QGameError, check_unitary, random_unitary

S2 = 1.0 / math.sqrt(2.0)


def test_library_entries_are_unitary_and_described():
    assert set(LIBRARY) == {"identity", "cnot", "swap", "cz", "bell_circuit", "bell_mechanism"}
    for name, entry in LIBRARY.items():
        assert entry.name == name
        assert check_unitary(entry.unitary.mat)
        assert entry.description


def test_cnot_controls_on_first_qubit():
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert np.array_equal(CNOT.mat, expected)


def test_cz_and_swap_matrices():
    assert np.array_equal(CZ.mat, np.diag([1, 1, 1, -1]).astype(complex))
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    assert np.array_equal(SWAP.mat, swap)


def test_bell_circuit_factors_as_cnot_after_hadamard_on_first():
    h = np.array([[S2, S2], [S2, -S2]], dtype=complex)
    product = CNOT.mat @ np.kron(h, np.eye(2))
    assert np.allclose(BELL_CIRCUIT.mat, product, atol=1e-15)


def test_bell_circuit_maps_ground_to_bell():
    out = BELL_CIRCUIT.mat @ np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(out, bell_state().vec, atol=1e-15)


def test_bell_mechanism_frozen_matrix():
    expected = np.array(
        [
            [S2, S2, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [S2, -S2, 0, 0],
        ],
        dtype=complex,
    )
    assert np.allclose(BELL_MECHANISM.mat, expected, atol=1e-15)
    # first column is exactly the bell state
    assert np.array_equal(BELL_MECHANISM.mat[:, 0], bell_state().vec)


def test_get_gate_unknown_name_lists_known():
    with pytest.raises(KeyError) as exc:
        get_gate("nosuch")
    assert "cnot" in str(exc.value)


def test_gate_json_round_trip_is_exact():
    rng = np.random.default_rng(23)
    for _ in range(10):
        u = random_unitary(rng)
        d = gate_to_json_dict("sample", u)
        name, back = gate_from_json_dict(d)
        assert name == "sample"
        assert np.array_equal(back.mat, u.mat)


def test_gate_json_serializes_through_text():
    d = gate_to_json_dict("cnot", CNOT)
    name, back = gate_from_json_dict(json.loads(json.dumps(d)))
    assert name == "cnot"
    assert np.array_equal(back.mat, CNOT.mat)


def test_gate_from_json_rejects_malformed():
    with pytest.raises(QGameError):
        gate_from_json_dict({"name": "x"})
    with pytest.raises(QGameError):
        gate_from_json_dict({"name": "x", "matrix": [[[1, 0]] * 3] * 4})
    for entry in ([True, 0], [1, 0, "junk"], ["1.0", 0], [1], (1, 0), [None, 0]):
        matrix = [[[1, 0] if r == c else [0, 0] for c in range(4)] for r in range(4)]
        matrix[3][3] = entry
        with pytest.raises(QGameError, match="number pairs"):
            gate_from_json_dict({"name": "x", "matrix": matrix})
    with pytest.raises(QGameError, match="number pairs"):
        gate_from_json_dict({"name": "x", "matrix": [[[10**400, 0]] * 4] * 4})


def test_gate_file_round_trip(tmp_path):
    path = tmp_path / "gate.json"
    rng = np.random.default_rng(31)
    u = random_unitary(rng)
    save_gate_file(path, "roundtrip", u)
    name, back = load_gate_file(path)
    assert name == "roundtrip"
    assert np.array_equal(back.mat, u.mat)
