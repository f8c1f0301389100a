"""Fast test of the benchmark's checkers.

    python3 -m pytest -q bench/test_checks.py

Each checker is fed a corrupted copy of a real qgame output and must
reject it; then every workload runs a few operations with every check on.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from qgame import equilibria, game, gates, qcore  # noqa: E402

SMALL_GRID = ("--grid-theta", "7", "--grid-phi", "12")


replace = dataclasses.replace


def program_certificate(u, prefs, a, b) -> checks.Certificate:
    g = game.QuantumGame(qcore.GameUnitary(u), game.PreferenceProfile(*prefs))
    cert = equilibria.verify_equilibrium(g, game.Play(qcore.QubitState(a), qcore.QubitState(b)), checks.TOL)
    return workloads.certificate_numbers(cert)


@pytest.fixture
def random_game():
    rng = np.random.default_rng(7)
    return workloads.haar_unitary(rng), (2, 1), rng


def test_certificate_corruptions_are_rejected(random_game):
    u, prefs, rng = random_game
    a, b = workloads.haar_state(rng, 2), workloads.haar_state(rng, 2)
    cert = program_certificate(u, prefs, a, b)
    assert not cert.is_equilibrium and cert.witness is not None
    checks.check_certificate(u, prefs, cert)

    corrupted = [
        replace(cert, is_equilibrium=True, witness=None, witness_player=None),
        replace(cert, achieved=(cert.achieved[0] + 1e-6, cert.achieved[1])),
        replace(cert, best=(cert.best[0], cert.best[1] - 1e-6)),
        replace(cert, payoffs=(cert.payoffs[0] + 1e-6, cert.payoffs[1])),
        replace(cert, witness=a if cert.witness_player == 1 else b),
    ]
    for bad in corrupted:
        with pytest.raises(CheckError):
            checks.check_certificate(u, prefs, bad)


def test_equilibrium_verdict_flip_is_rejected(random_game):
    u, prefs, _ = random_game
    (a, b), _ = checks.k_equilibria(u, prefs)
    cert = program_certificate(u, prefs, a, b)
    assert cert.is_equilibrium
    checks.check_certificate(u, prefs, cert)
    with pytest.raises(CheckError):
        checks.check_certificate(u, prefs, replace(cert, is_equilibrium=False, witness_player=1, witness=a))


def analyze_report(gate: str) -> dict:
    code, text = workloads.run_cli(["analyze", gate, *SMALL_GRID])
    assert code == 0
    return json.loads(text)


def test_analyze_report_corruptions_are_rejected():
    report = analyze_report("cnot")
    u = np.array(gates.CNOT.mat)
    check = lambda r: checks.check_analyze_report(json.dumps(r), "cnot", u, (0, 1), grid=(7, 12))  # noqa: E731
    assert len(check(report)) == report["equilibrium_count"] > 1

    flipped = copy.deepcopy(report)
    flipped["equilibria"][0]["is_equilibrium"] = False
    perturbed = copy.deepcopy(report)
    perturbed["equilibria"][0]["best"][1] += 1e-6
    duplicated = copy.deepcopy(report)
    duplicated["equilibria"].append(duplicated["equilibria"][0])
    duplicated["equilibrium_count"] += 1
    miscounted = copy.deepcopy(report)
    miscounted["equilibrium_count"] += 1
    canonical = copy.deepcopy(report)
    canonical["canonical_plays"][2]["coefficients"]["q"] += 1e-6
    for bad in (flipped, perturbed, duplicated, miscounted, canonical):
        with pytest.raises(CheckError):
            check(bad)


def test_missing_independent_equilibrium_fails_the_op(random_game):
    u, prefs, _ = random_game
    expected = [checks.payoff_pair(u, prefs, a, b) for a, b in checks.k_equilibria(u, prefs)]
    assert len(expected) == 2
    assert checks.missing_equilibria([], expected) == 2
    assert checks.missing_equilibria(expected[:1], expected) == 1
    assert checks.missing_equilibria([(p1 + 1e-9, p2) for p1, p2 in expected], expected) == 0


def test_every_random_gate_input_has_two_reference_equilibria():
    # Keeps the failed share of analyze_random the same for every seed.
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.AnalyzeRandom(0, workdir)
        for path in wl.matrices:
            for prefs in checks.PREF_PAIRS:
                assert len(wl.expected((path, prefs))) == 2


def mechanism_output(mode: str):
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.MechanismRoundtrip(3, workdir)
    item = next(item for item in wl.round if item[0].mode == mode)
    return wl, item, wl.op(item)


@pytest.mark.parametrize("mode", ["strict", "paper_bound"])
def test_mechanism_output_passes(mode):
    wl, item, out = mechanism_output(mode)
    assert wl.check(item, out) is False


def test_mechanism_corruptions_are_rejected():
    _, (spec, *_), (constraints, unitary, first, *_) = mechanism_output("strict")
    u = np.array(unitary.mat)
    cert = workloads.certificate_numbers(first.certificate)

    # A rotation between the improvement column and a free column keeps U
    # unitary and the target column intact, but un-zeroes the entry.
    (row, col), _ = spec.improvement_entries
    free = next(c for c in range(4) if c not in (col, spec.column) and abs(u[row, c]) > 0.1)
    rotated = u.copy()
    angle = 1e-3
    rotated[:, col] = np.cos(angle) * u[:, col] + np.sin(angle) * u[:, free]
    rotated[:, free] = -np.sin(angle) * u[:, col] + np.cos(angle) * u[:, free]
    assert checks.unitarity_deviation(rotated) < 1e-12
    with pytest.raises(CheckError, match="strict improvement entries"):
        checks.check_mechanism(spec, rotated, first.fidelity, cert, first.certified)

    with pytest.raises(CheckError):
        checks.check_mechanism(spec, u, first.fidelity - 1e-6, cert, first.certified)
    with pytest.raises(CheckError):
        checks.check_mechanism(spec, u, first.fidelity, cert, False)

    bad_bound = [(c.row, c.col, c.kind, c.value, None) for c in constraints]
    bad_bound[4] = bad_bound[4][:4] + (spec.cap * 1.01,)
    with pytest.raises(CheckError):
        checks.check_constraints(spec, bad_bound)

    flipped_bit = u.copy()
    flipped_bit.view(np.uint64)[0, 0] ^= 1
    with pytest.raises(CheckError):
        checks.check_round_trip("m", u, "m", flipped_bit)


@pytest.mark.parametrize("gate", ["cnot", "bell_circuit"])
def test_analyze_library_ops(gate, tmp_path):
    wl = workloads.AnalyzeLibrary(1, str(tmp_path))
    assert sorted(wl.round) == sorted(workloads.LIBRARY_GATES)
    assert wl.check(gate, wl.op(gate)) is False


def test_analyze_random_op_fails_on_the_lattice_fault(tmp_path):
    wl = workloads.AnalyzeRandom(1, str(tmp_path))
    item = wl.round[0]
    assert wl.check(item, wl.op(item)) is True


@pytest.mark.parametrize("name", ["certify_plays", "mechanism_roundtrip"])
def test_fast_workload_round(name, tmp_path):
    wl = workloads.WORKLOADS[name](5, str(tmp_path))
    rounds, failed, errors = run.measure(wl, 0.0)
    assert ([len(r) for r in rounds], failed, errors) == ([len(wl.round)], 0, [])
