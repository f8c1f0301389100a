"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines even when everything passes.
"""

import functools
import json
import math
import time

import numpy as np

from helpers import run_cli
from oracles import grid_max_target_amplitude
from qgame.equilibria import (
    GridSpec,
    best_response_value,
    feasibility_region,
    response_coefficients,
    search_equilibria,
)
from qgame.game import Play, PreferenceProfile, QuantumGame, outcome
from qgame.gates import BELL_CIRCUIT, CNOT, LIBRARY
from qgame.mechanism import bell_target, certify_mechanism
from qgame.qcore import KET0, QubitState, random_qubit_state, random_unitary

PI = math.pi


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({description}): FAIL")
                raise
            print(f"criterion {number} ({description}): PASS")

        return run

    return wrap


def random_prefs(rng):
    t1 = int(rng.integers(0, 4))
    t2 = int(rng.integers(0, 3))
    if t2 >= t1:
        t2 += 1
    return PreferenceProfile(t1, t2)


@criterion(1, "cnot optimal family certified through the CLI in under a second")
def test_criterion_1_cnot_phase_sweep():
    phases = [0.0, PI / 2, PI, 3 * PI / 2]
    start = time.perf_counter()
    for pa in phases:
        for pb in phases:
            # parenthesized complex literals survive argparse's option scan
            x1 = repr(complex(math.cos(pa), math.sin(pa)))
            y2 = repr(complex(math.cos(pb), math.sin(pb)))
            code, out, _ = run_cli(["verify", "cnot", "--play", x1, "0", "0", y2])
            assert code == 0
            p1, p2 = json.loads(out)["payoffs"]
            assert abs(p1 - PI / 2) <= 1e-9
            assert abs(p2 - 0.0) <= 1e-9
    assert time.perf_counter() - start < 1.0


@criterion(2, "ground play rejected with an improving witness in under a second")
def test_criterion_2_ground_play_witness():
    start = time.perf_counter()
    code, out, _ = run_cli(["verify", "cnot", "--play", "1", "0", "1", "0"])
    assert code == 1
    report = json.loads(out)
    assert report["is_equilibrium"] is False
    assert report["witness"]["player"] == 2
    (wxr, wxi), (wyr, wyi) = report["witness"]["amplitudes"]
    witness = QubitState(np.array([complex(wxr, wxi), complex(wyr, wyi)]))
    improved = outcome(QuantumGame(CNOT), Play(KET0, witness))
    assert abs(improved.amplitude(1)) >= 1.0 - 1e-9
    assert time.perf_counter() - start < 1.0


@criterion(3, "cnot response coefficients match the closed forms on 200 random plays")
def test_criterion_3_cnot_coefficient_closed_forms():
    rng = np.random.default_rng(314159)
    g = QuantumGame(CNOT)
    for _ in range(200):
        a, b = random_qubit_state(rng), random_qubit_state(rng)
        c = response_coefficients(g, Play(a, b))
        assert abs(c.p - abs(b.x)) <= 1e-12
        assert abs(c.q - 0.0) <= 1e-12
        assert abs(c.p_prime - 0.0) <= 1e-12
        assert abs(c.q_prime - abs(a.x)) <= 1e-12


@criterion(4, "closed-form best response dominates a dense strategy grid")
def test_criterion_4_best_response_against_grid_oracle():
    rng = np.random.default_rng(20240814)
    start = time.perf_counter()
    for _ in range(50):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        for k in range(4):
            opp = random_qubit_state(rng)
            player = 1 if k % 2 == 0 else 2
            target = g.prefs.player1_target if player == 1 else g.prefs.player2_target
            value = best_response_value(g, player, opp)
            grid_best = grid_max_target_amplitude(g.u.mat, target, player, opp.vec, 181, 360)
            assert grid_best <= value + 1e-12  # no grid point beats the closed form
            assert value - grid_best <= 2e-3  # and the grid gets close to it
    assert time.perf_counter() - start < 60.0


@criterion(5, "searched equilibria attain the mini-max value identity")
def test_criterion_5_minimax_attainment_across_library():
    for name, entry in sorted(LIBRARY.items()):
        g = QuantumGame(entry.unitary)
        for cert in search_equilibria(g, GridSpec()):
            c = response_coefficients(g, cert.play)
            assert abs(cert.achieved1 - math.hypot(c.p, c.q)) <= 1e-9, name
            assert abs(cert.achieved2 - math.hypot(c.p_prime, c.q_prime)) <= 1e-9, name


@criterion(6, "strict bell mechanism certifies and survives a deviation sweep")
def test_criterion_6_strict_bell_mechanism():
    start = time.perf_counter()
    code, out, _ = run_cli(["mechanism", "bell", "--mode", "strict"])
    assert code == 0
    report = json.loads(out)
    assert report["certified"] is True
    assert report["fidelity"] >= 1.0 - 1e-12

    mat = np.array([[complex(e[0], e[1]) for e in row] for row in report["unitary"]])
    achieved1 = abs(mat[0, 0])  # ground play outcome amplitude at each target
    achieved2 = abs(mat[1, 0])
    best1 = grid_max_target_amplitude(mat, 0, 1, KET0.vec, 37, 72)
    best2 = grid_max_target_amplitude(mat, 1, 2, KET0.vec, 37, 72)
    assert best1 <= achieved1 + 1e-9  # no player-one deviation improves
    assert best2 <= achieved2 + 1e-9  # no player-two deviation improves
    assert time.perf_counter() - start < 5.0


@criterion(7, "textbook bell circuit reaches the target yet fails certification")
def test_criterion_7_bell_circuit_discrepancy():
    cert = certify_mechanism(BELL_CIRCUIT, bell_target())
    assert cert.fidelity >= 1.0 - 1e-12
    assert not cert.certificate.is_equilibrium
    assert not cert.certified
    witness = cert.certificate.witness
    assert cert.certificate.witness_player == 1
    improved = outcome(QuantumGame(BELL_CIRCUIT), Play(witness, KET0))
    assert abs(improved.amplitude(0)) >= 1.0 - 1e-6


@criterion(8, "region boundary samples satisfy their inequality inside the disc")
def test_criterion_8_region_samples():
    rng = np.random.default_rng(271828)
    checked = 0
    for _ in range(20):
        g = QuantumGame(random_unitary(rng), random_prefs(rng))
        play = Play(random_qubit_state(rng), random_qubit_state(rng))
        c = response_coefficients(g, play)
        deviation = random_qubit_state(rng)
        for player in (1, 2):
            p_side = c.p if player == 1 else c.p_prime
            q_side = c.q if player == 1 else c.q_prime
            weighted_dev = p_side * abs(deviation.x) + q_side * abs(deviation.y)
            if p_side >= 1e-10:
                region = feasibility_region(c, player, deviation, resolution=51)
                for h, v in region.samples:
                    assert p_side * v + q_side * h >= weighted_dev - 1e-9
                    assert h * h + v * v <= 1.0 + 1e-12
                    checked += 1
            if q_side >= 1e-10:
                region = feasibility_region(c, player, deviation, resolution=51, swapped=True)
                for h, v in region.samples:
                    assert p_side * h + q_side * v >= weighted_dev - 1e-9
                    assert h * h + v * v <= 1.0 + 1e-12
                    checked += 1
    assert checked > 500  # the sweep must actually exercise samples
