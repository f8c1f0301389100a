"""Built-in gate library and the JSON gate-file format.

Gate files are JSON objects {"name": str, "matrix": [[[re, im] x4] x4]}
with the matrix stored row-major.  Floats are written by the standard
json encoder, whose repr-based output round-trips float64 exactly, so a
written file re-parses to an entrywise-identical matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .qcore import GameUnitary, QGameError, TwoQubitState


def _gate(*rows) -> GameUnitary:
    return GameUnitary(np.array(rows, dtype=complex))


_S2 = 1.0 / math.sqrt(2.0)

IDENTITY = _gate((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# Flips the second qubit when the first is |1>.
CNOT = _gate((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))

SWAP = _gate((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))

CZ = _gate((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))

# CNOT after a Hadamard on the first qubit: the textbook circuit that
# takes |00> to the maximally entangled pair.
BELL_CIRCUIT = _gate(
    (_S2, 0, _S2, 0),
    (0, _S2, 0, _S2),
    (0, _S2, 0, -_S2),
    (_S2, 0, -_S2, 0),
)

# Deterministic strict-mode synthesis output for the same target state:
# also maps |00> to the entangled pair, but with the two entries zeroed
# that would otherwise let either player improve by deviating.
BELL_MECHANISM = _gate(
    (_S2, _S2, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (_S2, -_S2, 0, 0),
)


def bell_state() -> TwoQubitState:
    """(|00> + |11>) / sqrt(2), the canonical maximally entangled target."""
    return TwoQubitState(np.array([_S2, 0.0, 0.0, _S2], dtype=complex))


@dataclass(frozen=True, eq=False)
class GateLibraryEntry:
    name: str
    unitary: GameUnitary
    description: str


LIBRARY: dict[str, GateLibraryEntry] = {
    entry.name: entry
    for entry in (
        GateLibraryEntry("identity", IDENTITY, "identity on both qubits"),
        GateLibraryEntry("cnot", CNOT, "controlled-NOT, first qubit controls"),
        GateLibraryEntry("swap", SWAP, "exchanges the two qubits"),
        GateLibraryEntry("cz", CZ, "controlled phase flip"),
        GateLibraryEntry(
            "bell_circuit",
            BELL_CIRCUIT,
            "CNOT after Hadamard on the first qubit; entangles |00> but leaves a profitable deviation",
        ),
        GateLibraryEntry(
            "bell_mechanism",
            BELL_MECHANISM,
            "strict-mode mechanism for the entangled target; no unilateral deviation improves",
        ),
    )
}


def get_gate(name: str) -> GateLibraryEntry:
    try:
        return LIBRARY[name]
    except KeyError:
        raise KeyError(f"unknown gate {name!r}; known gates: {', '.join(sorted(LIBRARY))}") from None


def gate_to_json_dict(name: str, u: GameUnitary) -> dict:
    return {
        "name": name,
        "matrix": [[[float(entry.real), float(entry.imag)] for entry in row] for row in u.mat],
    }


def complex_from_pairs(entries: list, what: str) -> list[complex]:
    """Values of JSON [re, im] pairs, each a list of exactly two int or float numbers (bool is not one)."""
    values = []
    for entry in entries:
        re, im = entry if isinstance(entry, list) and len(entry) == 2 else (None, None)
        if not (isinstance(re, (int, float)) and isinstance(im, (int, float))) or isinstance(re, bool) or isinstance(im, bool):
            raise QGameError(f"{what} must be [re, im] number pairs")
        try:
            values.append(complex(re, im))
        except OverflowError as exc:
            raise QGameError(f"{what} must be [re, im] number pairs: {exc}") from None
    return values


def gate_from_json_dict(data: dict) -> tuple[str, GameUnitary]:
    if not isinstance(data, dict) or "matrix" not in data:
        raise QGameError("gate file must be a JSON object with a 'matrix' field")
    name = data.get("name", "unnamed")
    if not isinstance(name, str):
        raise QGameError("gate file 'name' must be a string")
    matrix = data["matrix"]
    if not (isinstance(matrix, list) and len(matrix) == 4 and all(isinstance(r, list) and len(r) == 4 for r in matrix)):
        raise QGameError("gate file 'matrix' must be a 4x4 array of [re, im] pairs")
    rows = [complex_from_pairs(row, "gate file 'matrix' entries") for row in matrix]
    return name, GameUnitary(np.array(rows, dtype=complex))


def save_gate_file(path: str | Path, name: str, u: GameUnitary) -> None:
    Path(path).write_text(json.dumps(gate_to_json_dict(name, u), indent=2) + "\n")


def _read_json_file(path: str | Path, what: str):
    """The JSON value in the file at path; what names the file in the errors, which quote path as given."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise QGameError(f"cannot read {what} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise QGameError(f"{what} {path} is not valid JSON: {exc}") from None


def load_gate_file(path: str | Path) -> tuple[str, GameUnitary]:
    return gate_from_json_dict(_read_json_file(path, "gate file"))
