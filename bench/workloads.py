"""The four workloads: seeded inputs, the timed operation and its check.

Each workload builds its inputs from the seed alone, then exposes one
round: a fixed list of operation inputs that a run repeats whole.  op()
is the timed call into qgame; check() runs afterwards, outside the
timing, raises checks.CheckError on a wrong output and returns True
when the operation failed in the sense the README documents.

qgame functions are looked up on their modules at call time, so the
wrappers that the traced run installs on those modules see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import checks
from checks import MechanismSpec, ensure

from qgame import cli, equilibria, game, gates, mechanism, qcore

LIBRARY_GATES = ("identity", "cnot", "swap", "cz", "bell_circuit", "bell_mechanism")
DEFAULT_PREFS = (0, 1)

# The random gates are fixed, not drawn from --seed: analyze_random ops fail
# on every one of them today (see the README), and a fixed pool keeps the
# failed share exactly the same in every run.  The seed picks which
# (gate, preference pair) combinations a run's round holds.
RANDOM_GATE_SEED = 13040748
RANDOM_GATE_COUNT = 6


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_state(rng: np.random.Generator, size: int) -> np.ndarray:
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return z / np.linalg.norm(z)


def unit_phase(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * math.pi * rng.random()))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """qgame.cli.main with stdout captured in memory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class AnalyzeLibrary:
    """`qgame analyze GATE` over the six library gates at the default grid."""

    name = "analyze_library"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.round = [LIBRARY_GATES[k] for k in rng.permutation(len(LIBRARY_GATES))]
        self.matrices = {g: np.array(gates.LIBRARY[g].unitary.mat) for g in LIBRARY_GATES}

    def warm_up(self) -> None:
        run_cli(["analyze", "bell_circuit", "--grid-theta", "3", "--grid-phi", "4"])

    def op(self, gate: str):
        return run_cli(["analyze", gate])

    def check(self, gate: str, out) -> bool:
        code, text = out
        ensure(code == 0, f"analyze {gate} exited {code}")
        checks.check_analyze_report(text, gate, self.matrices[gate], DEFAULT_PREFS)
        return False


class AnalyzeRandom:
    """`qgame analyze FILE --prefs I,J` on gate files of Haar-random unitaries.

    A round is 12 ops: each of the 12 ordered preference pairs once, each
    gate twice.  The grid is 41x80 (10.8 M pairs) rather than the default
    61x120: the scan still runs in several blocks with fresh temporaries,
    and a round lasts seconds instead of most of a run.
    """

    name = "analyze_random"
    GRID = (41, 80)

    def __init__(self, seed: int, workdir: str):
        pool = np.random.default_rng(RANDOM_GATE_SEED)
        self.matrices = {}
        for k in range(RANDOM_GATE_COUNT):
            u = haar_unitary(pool)
            path = os.path.join(workdir, f"haar_{k}.json")
            entries = [[[float(z.real), float(z.imag)] for z in row] for row in u]
            with open(path, "w") as fh:
                json.dump({"name": f"haar_{k}", "matrix": entries}, fh)
            self.matrices[path] = (f"haar_{k}", u)
        rng = np.random.default_rng(seed)
        paths = list(self.matrices)
        pairs = len(checks.PREF_PAIRS)
        self.round = [
            (paths[g % len(paths)], checks.PREF_PAIRS[p]) for g, p in zip(rng.permutation(pairs), rng.permutation(pairs))
        ]
        self._expected: dict = {}

    def warm_up(self) -> None:
        path, _ = self.round[0]
        run_cli(["analyze", path, "--grid-theta", "3", "--grid-phi", "4"])

    def op(self, item):
        path, (t1, t2) = item
        theta, phi = self.GRID
        return run_cli(["analyze", path, "--prefs", f"{t1},{t2}", "--grid-theta", str(theta), "--grid-phi", str(phi)])

    def expected(self, item) -> list[tuple[float, float]]:
        """Payoff pairs of the equilibria the reference certifies for this input."""
        if item not in self._expected:
            path, prefs = item
            u = self.matrices[path][1]
            self._expected[item] = [checks.payoff_pair(u, prefs, a, b) for a, b in checks.k_equilibria(u, prefs)]
        return self._expected[item]

    def check(self, item, out) -> bool:
        code, text = out
        path, prefs = item
        name, u = self.matrices[path]
        ensure(code == 0, f"analyze {path} exited {code}")
        reported = checks.check_analyze_report(text, name, u, prefs, self.GRID)
        return checks.missing_equilibria(reported, self.expected(item)) > 0


class CertifyPlays:
    """One verify_equilibrium call per op over a seeded mix of plays.

    Per round of 256 plays: 96 equilibria from eigenvectors of K on
    random unitaries, 96 random plays on random unitaries, 32 plays of
    CNOT's optimal family (e^{ia}|0>, e^{ib}|1>) and 32 plays of
    bell_mechanism at |00> with random phases.
    """

    name = "certify_plays"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        plays = []  # (u, prefs, a, b)
        while len(plays) < 96:
            u, prefs = haar_unitary(rng), checks.PREF_PAIRS[rng.integers(len(checks.PREF_PAIRS))]
            for a, b in checks.k_equilibria(u, prefs):
                plays.append((u, prefs, a * unit_phase(rng), b * unit_phase(rng)))
        del plays[96:]
        for _ in range(96):
            u, prefs = haar_unitary(rng), checks.PREF_PAIRS[rng.integers(len(checks.PREF_PAIRS))]
            plays.append((u, prefs, haar_state(rng, 2), haar_state(rng, 2)))
        cnot = np.array(gates.CNOT.mat)
        bell = np.array(gates.BELL_MECHANISM.mat)
        for _ in range(32):
            plays.append((cnot, DEFAULT_PREFS, np.array([unit_phase(rng), 0]), np.array([0, unit_phase(rng)])))
        for _ in range(32):
            plays.append((bell, DEFAULT_PREFS, np.array([unit_phase(rng), 0]), np.array([unit_phase(rng), 0])))

        self.round = []
        for k in rng.permutation(len(plays)):
            u, prefs, a, b = plays[k]
            g = game.QuantumGame(qcore.GameUnitary(u), game.PreferenceProfile(*prefs))
            play = game.Play(qcore.QubitState(a), qcore.QubitState(b))
            self.round.append((g, play, u, prefs))
        self._refs: dict = {}

    def warm_up(self) -> None:
        for item in self.round:
            self.op(item)

    def op(self, item):
        g, play, _, _ = item
        return equilibria.verify_equilibrium(g, play, checks.TOL)

    def check(self, item, cert) -> bool:
        _, play, u, prefs = item
        ref = self._refs.get(id(play))
        if ref is None:
            ref = self._refs[id(play)] = checks.reference(u, prefs, play.a.vec, play.b.vec)
        ensure(cert.play is play, "certificate is for another play")
        checks.check_certificate(u, prefs, certificate_numbers(cert), ref)
        return False


def certificate_numbers(cert) -> checks.Certificate:
    return checks.Certificate(
        a=np.array(cert.play.a.vec),
        b=np.array(cert.play.b.vec),
        payoffs=(cert.payoff1, cert.payoff2),
        achieved=(cert.achieved1, cert.achieved2),
        best=(cert.best1, cert.best2),
        is_equilibrium=cert.is_equilibrium,
        witness_player=cert.witness_player,
        witness=None if cert.witness is None else cert.witness.vec,
    )


class MechanismRoundtrip:
    """Synthesis, certification and a gate-JSON round trip per op.

    Per round of 64 requests: 56 Haar-random target states and 8 Bell
    states, each at a random basis input play with random phases and a
    random ordered preference pair; modes alternate strict and
    paper_bound, the latter at a random deviation.
    """

    name = "mechanism_roundtrip"
    ROUND = 64

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
        self.round = []
        for n in range(self.ROUND):
            theta, phi = 0.2 + (math.pi - 0.4) * rng.random(), 2.0 * math.pi * rng.random()
            spec = MechanismSpec(
                target=bell if n % 8 == 7 else haar_state(rng, 4),
                bits=(int(rng.integers(2)), int(rng.integers(2))),
                phases=(unit_phase(rng), unit_phase(rng)),
                prefs=checks.PREF_PAIRS[rng.integers(len(checks.PREF_PAIRS))],
                mode=("strict", "paper_bound")[n % 2],
                deviation=np.array([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)]),
            )
            a, b = spec.play
            target = mechanism.MechanismTarget(
                qcore.TwoQubitState(spec.target),
                game.Play(qcore.QubitState(a), qcore.QubitState(b)),
                game.PreferenceProfile(*spec.prefs),
            )
            self.round.append((spec, target, qcore.QubitState(spec.deviation), f"mechanism_{n}"))

    def warm_up(self) -> None:
        for item in self.round:
            self.op(item)

    def op(self, item):
        spec, target, deviation, name = item
        constraints = mechanism.derive_constraints(target)
        unitary = mechanism.synthesize_mechanism(target, spec.mode, deviation)
        first = mechanism.certify_mechanism(unitary, target, checks.TOL)
        text = json.dumps(gates.gate_to_json_dict(name, unitary))
        name2, unitary2 = gates.gate_from_json_dict(json.loads(text))
        second = mechanism.certify_mechanism(unitary2, target, checks.TOL)
        return constraints, unitary, first, name2, unitary2, second

    def check(self, item, out) -> bool:
        spec, _, deviation, name = item
        constraints, unitary, first, name2, unitary2, second = out
        dx, dy = abs(deviation.x), abs(deviation.y)
        checks.check_constraints(spec, [
            (c.row, c.col, c.kind, c.value, None if c.bound is None else c.bound(dx, dy)) for c in constraints
        ])
        u = np.array(unitary.mat)
        cert = certificate_numbers(first.certificate)
        checks.check_mechanism(spec, u, first.fidelity, cert, first.certified)
        checks.check_round_trip(name, u, name2, np.array(unitary2.mat))
        ensure(
            (second.fidelity, second.certified) == (first.fidelity, first.certified)
            and checks.same_certificate(certificate_numbers(second.certificate), cert),
            "certifying the round-tripped unitary gave another result",
        )
        return False


WORKLOADS = {w.name: w for w in (AnalyzeLibrary, AnalyzeRandom, CertifyPlays, MechanismRoundtrip)}
