"""Reference computations and output checkers for the benchmark.

Nothing here imports qgame.  Every reference value is computed from the
raw 4x4 matrix with plain numpy: for a target row t, M = U[t] reshaped to
2x2 gives the target amplitude a^T M b, player one's best reachable
modulus |M1 b| and player two's |M2^T a| (Cauchy-Schwarz).  Witnesses
are checked through the full 4x4 matrix instead, so they do not share
even that shortcut with the closed forms they test.

A checker raises CheckError when an output is wrong.  Verdicts within
BAND of the slack may go either way, since the program and the
reference round differently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9          # equilibrium slack the program is run with (its default)
BAND = 1e-12        # rounding band around TOL inside which a verdict may flip
VALUE_TOL = 1e-12   # agreement of reported moduli with the reference
COS_TOL = 1e-10     # agreement of cos(reported angle) with achieved^2
DEDUP_STEP = 1e-6   # payoff proximity the program merges equilibria within
UNITARITY = 1e-10   # max |U^H U - I| entry a reported unitary may show

PREF_PAIRS = tuple((i, j) for i in range(4) for j in range(4) if i != j)


class CheckError(AssertionError):
    """A program output disagrees with the reference computation."""


def ensure(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def target_matrices(u: np.ndarray, prefs: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """M1 = U[t1] and M2 = U[t2] as 2x2 matrices (row: player one's bit)."""
    return u[prefs[0]].reshape(2, 2), u[prefs[1]].reshape(2, 2)


@dataclass(frozen=True)
class Reference:
    """Reference moduli at one play: achieved and best for each player."""

    achieved1: float
    achieved2: float
    best1: float
    best2: float

    @property
    def is_equilibrium(self) -> bool:
        return self.best1 - self.achieved1 <= TOL and self.best2 - self.achieved2 <= TOL

    @property
    def verdict_is_marginal(self) -> bool:
        return min(abs(self.best1 - self.achieved1 - TOL), abs(self.best2 - self.achieved2 - TOL)) <= BAND


def reference(u: np.ndarray, prefs: tuple[int, int], a: np.ndarray, b: np.ndarray) -> Reference:
    m1, m2 = target_matrices(u, prefs)
    return Reference(
        achieved1=float(abs(a @ m1 @ b)),
        achieved2=float(abs(a @ m2 @ b)),
        best1=float(np.linalg.norm(m1 @ b)),
        best2=float(np.linalg.norm(m2.T @ a)),
    )


def full_matrix_modulus(u: np.ndarray, row: int, a: np.ndarray, b: np.ndarray) -> float:
    """|(U (a (x) b))[row]| through the whole 4x4 product."""
    return float(abs((u @ np.kron(a, b))[row]))


def check_payoff(angle: float, achieved: float, what: str) -> None:
    ensure(0.0 <= angle <= math.pi / 2 + 1e-12, f"{what} angle {angle!r} outside [0, pi/2]")
    ensure(abs(math.cos(angle) - achieved * achieved) <= COS_TOL,
           f"{what} angle {angle!r} does not match achieved modulus {achieved!r}")


@dataclass(frozen=True)
class Certificate:
    """A reported equilibrium certificate in plain numbers."""

    a: np.ndarray
    b: np.ndarray
    payoffs: tuple[float, float]
    achieved: tuple[float, float]
    best: tuple[float, float]
    is_equilibrium: bool
    witness_player: int | None
    witness: np.ndarray | None


def same_certificate(c1: Certificate, c2: Certificate) -> bool:
    """Bit-for-bit equality of two certificates."""
    arrays = (c1.a, c2.a), (c1.b, c2.b), (c1.witness, c2.witness)
    return (
        (c1.payoffs, c1.achieved, c1.best, c1.is_equilibrium, c1.witness_player)
        == (c2.payoffs, c2.achieved, c2.best, c2.is_equilibrium, c2.witness_player)
        and all((x is None and y is None) or (x is not None and y is not None and np.array_equal(x, y)) for x, y in arrays)
    )


def certificate_from_json(entry: dict) -> Certificate:
    def state(pairs):
        return np.array([complex(re, im) for re, im in pairs])

    witness = entry.get("witness")
    return Certificate(
        a=state(entry["play"]["player1"]),
        b=state(entry["play"]["player2"]),
        payoffs=tuple(entry["payoffs"]),
        achieved=tuple(entry["achieved"]),
        best=tuple(entry["best"]),
        is_equilibrium=entry["is_equilibrium"],
        witness_player=None if witness is None else witness["player"],
        witness=None if witness is None else state(witness["amplitudes"]),
    )


def check_certificate(u: np.ndarray, prefs: tuple[int, int], cert: Certificate, ref: Reference | None = None) -> None:
    """A certificate's numbers, verdict and witness against the reference.

    ref may be passed when the caller already computed it for this play.
    """
    ref = ref or reference(u, prefs, cert.a, cert.b)
    for got, want, what in (
        (cert.achieved[0], ref.achieved1, "achieved1"),
        (cert.achieved[1], ref.achieved2, "achieved2"),
        (cert.best[0], ref.best1, "best1"),
        (cert.best[1], ref.best2, "best2"),
    ):
        ensure(abs(got - want) <= VALUE_TOL, f"{what} = {got!r}, reference {want!r}")
    check_payoff(cert.payoffs[0], ref.achieved1, "payoff1")
    check_payoff(cert.payoffs[1], ref.achieved2, "payoff2")
    if not ref.verdict_is_marginal:
        ensure(cert.is_equilibrium == ref.is_equilibrium,
               f"verdict {cert.is_equilibrium}, reference {ref.is_equilibrium} "
               f"(best-achieved {ref.best1 - ref.achieved1:.3e}, {ref.best2 - ref.achieved2:.3e})")
    if cert.is_equilibrium:
        ensure(cert.witness is None, "an equilibrium carries a witness")
        return
    ensure(cert.witness is not None and cert.witness_player in (1, 2), "a non-equilibrium lacks a witness")
    w = cert.witness
    ensure(abs(np.vdot(w, w).real - 1.0) <= 1e-12, "witness is not normalized")
    if cert.witness_player == 1:
        gain = full_matrix_modulus(u, prefs[0], w, cert.b) - ref.achieved1
    else:
        ensure(ref.best1 - ref.achieved1 <= TOL + BAND, "witness names player two while player one can improve")
        gain = full_matrix_modulus(u, prefs[1], cert.a, w) - ref.achieved2
    ensure(gain > TOL, f"witness of player {cert.witness_player} raises its modulus by only {gain:.3e}")


def k_equilibria(u: np.ndarray, prefs: tuple[int, int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Isolated pure equilibria from the eigenvectors of K = conj(M1) M2^T.

    Player one's best response to b is conj(M1 b) and player two's to a
    is conj(M2^T a), so a fixed point needs a to be an eigenvector of K,
    with b proportional to conj(M2^T a).  Only candidates the reference
    certifies are returned.
    """
    m1, m2 = target_matrices(u, prefs)
    _, vecs = np.linalg.eig(np.conj(m1) @ m2.T)
    found = []
    for a in vecs.T:
        a = a / np.linalg.norm(a)
        b = np.conj(m2.T @ a)
        norm = np.linalg.norm(b)
        if norm < 1e-12:
            continue
        b = b / norm
        if reference(u, prefs, a, b).is_equilibrium:
            found.append((a, b))
    return found


def payoff_pair(u: np.ndarray, prefs: tuple[int, int], a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    ref = reference(u, prefs, a, b)
    return (math.acos(min(1.0, ref.achieved1 ** 2)), math.acos(min(1.0, ref.achieved2 ** 2)))


def check_analyze_report(
    text: str, gate: str, u: np.ndarray, prefs: tuple[int, int], grid: tuple[int, int] = (61, 120)
) -> list[tuple[float, float]]:
    """Check one `qgame analyze` JSON report; returns its equilibrium payoff pairs."""
    report = json.loads(text)
    ensure(report["gate"] == gate, f"report names gate {report['gate']!r}, expected {gate!r}")
    ensure(tuple(report["preferences"]) == prefs, f"report preferences {report['preferences']}, expected {prefs}")
    ensure((report["grid"]["theta_points"], report["grid"]["phi_points"]) == grid, "report grid differs")

    basis = (np.array([1.0 + 0j, 0.0]), np.array([0.0 + 0j, 1.0]))
    m1, m2 = target_matrices(u, prefs)
    ensure(len(report["canonical_plays"]) == 4, "report lacks a canonical play")
    for entry, (i, j) in zip(report["canonical_plays"], ((0, 0), (0, 1), (1, 0), (1, 1))):
        ensure(entry["play"] == f"(|{i}>, |{j}>)", f"canonical play {entry['play']!r} out of order")
        ref = reference(u, prefs, basis[i], basis[j])
        ensure(abs(entry["achieved"][0] - ref.achieved1) <= VALUE_TOL
               and abs(entry["achieved"][1] - ref.achieved2) <= VALUE_TOL,
               f"canonical play {entry['play']} achieved {entry['achieved']} disagrees with the reference")
        check_payoff(entry["payoffs"][0], ref.achieved1, f"canonical {entry['play']} payoff1")
        check_payoff(entry["payoffs"][1], ref.achieved2, f"canonical {entry['play']} payoff2")
        c1, c2 = m1 @ basis[j], m2.T @ basis[i]
        want = (abs(c1[0]), abs(c1[1]), abs(c2[0]), abs(c2[1]))
        got = tuple(entry["coefficients"][k] for k in ("p", "q", "p_prime", "q_prime"))
        ensure(max(abs(g - w) for g, w in zip(got, want)) <= VALUE_TOL,
               f"canonical play {entry['play']} coefficients {got} disagree with the reference {want}")

    certs = [certificate_from_json(e) for e in report["equilibria"]]
    ensure(report["equilibrium_count"] == len(certs), "equilibrium_count differs from the listed equilibria")
    for cert in certs:
        ensure(cert.is_equilibrium, "a listed equilibrium is reported as not certified")
        check_certificate(u, prefs, cert)
    pairs = [tuple(c.payoffs) for c in certs]
    if len(pairs) > 1:
        p = np.array(pairs)
        gap = np.max(np.abs(p[:, None, :] - p[None, :, :]), axis=2)
        np.fill_diagonal(gap, np.inf)
        # Reported payoffs are recomputed after the dedup, which moves them
        # by up to ~1.5e-8 where arccos is steep; 1e-7 covers that.
        ensure(float(gap.min()) > DEDUP_STEP - 1e-7,
               f"two listed equilibria have payoffs within {float(gap.min()):.3e}, inside the dedup step")
    return pairs


def missing_equilibria(
    reported: list[tuple[float, float]], expected: list[tuple[float, float]], within: float = DEDUP_STEP
) -> int:
    """How many expected payoff pairs no reported pair matches."""
    return sum(
        not any(max(abs(r[0] - e[0]), abs(r[1] - e[1])) <= within for r in reported) for e in expected
    )


def unitarity_deviation(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(4))))


@dataclass(frozen=True)
class MechanismSpec:
    """One synthesis request: target state, basis input play with phases, preferences, mode."""

    target: np.ndarray
    bits: tuple[int, int]
    phases: tuple[complex, complex]
    prefs: tuple[int, int]
    mode: str
    deviation: np.ndarray

    @property
    def play(self) -> tuple[np.ndarray, np.ndarray]:
        a, b = np.zeros(2, dtype=complex), np.zeros(2, dtype=complex)
        a[self.bits[0]], b[self.bits[1]] = self.phases
        return a, b

    @property
    def column(self) -> int:
        return 2 * self.bits[0] + self.bits[1]

    @property
    def column_values(self) -> np.ndarray:
        """U[:, column] must equal this for U (a (x) b) to be the target."""
        return self.target * np.conj(self.phases[0] * self.phases[1])

    @property
    def improvement_entries(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """(row, col) through which player one, then player two, could improve."""
        i, j = self.bits
        return (self.prefs[0], 2 * (1 - i) + j), (self.prefs[1], 2 * i + (1 - j))

    @property
    def cap(self) -> float:
        """Triangle-inequality bound on player one's improvement entry at the deviation.

        Deviating to (x, y) from basis bit i reaches at most
        |x_i| |U[t1, k]| + |x_flip| |U[t1, flip]|, which stays at or below
        the played |U[t1, k]| while |U[t1, flip]| <= |U[t1, k]| (1 - |x_i|) / |x_flip|.
        """
        i = self.bits[0]
        kept, flipped = abs(self.deviation[i]), abs(self.deviation[1 - i])
        return abs(self.column_values[self.prefs[0]]) * (1.0 - kept) / flipped


def check_constraints(spec: MechanismSpec, constraints: list[tuple[int, int, str, complex | None, float | None]]) -> None:
    """Constraints as (row, col, kind, value, bound at the deviation), rows and columns 1-based."""
    ensure(len(constraints) == 5, f"{len(constraints)} constraints, expected 4 column entries and 1 bound")
    values = spec.column_values
    for row, (r, c, kind, value, _) in enumerate(constraints[:4]):
        ensure((r, c) == (row + 1, spec.column + 1), f"constraint at ({r}, {c}), expected ({row + 1}, {spec.column + 1})")
        want = "equals_zero" if abs(values[row]) <= 1e-12 else "equals_value"
        ensure(kind == want, f"constraint ({r}, {c}) is {kind}, expected {want}")
        ensure(abs(value - values[row]) <= VALUE_TOL, f"constraint ({r}, {c}) value {value!r}, expected {values[row]!r}")
    r, c, kind, _, bound = constraints[4]
    (t1, flip), _ = spec.improvement_entries
    ensure((r, c, kind) == (t1 + 1, flip + 1, "modulus_bound"), f"bound constraint is ({r}, {c}, {kind})")
    ensure(abs(bound - spec.cap) <= VALUE_TOL, f"bound at the deviation {bound!r}, expected {spec.cap!r}")


def check_mechanism(
    spec: MechanismSpec, u: np.ndarray, fidelity: float, cert: Certificate, certified: bool
) -> None:
    """A synthesized unitary and its certification."""
    deviation = unitarity_deviation(u)
    ensure(deviation <= UNITARITY, f"unitarity deviation {deviation:.3e}")
    ensure(np.max(np.abs(u[:, spec.column] - spec.column_values)) <= VALUE_TOL,
           "the acted-upon column does not carry the target")
    (r1, c1), (r2, c2) = spec.improvement_entries
    if spec.mode == "strict":
        ensure(abs(u[r1, c1]) <= VALUE_TOL and abs(u[r2, c2]) <= VALUE_TOL,
               f"strict improvement entries are {abs(u[r1, c1]):.3e}, {abs(u[r2, c2]):.3e}, not zero")
    else:
        ensure(abs(u[r1, c1]) <= spec.cap + VALUE_TOL, f"|U[{r1},{c1}]| = {abs(u[r1, c1])!r} exceeds cap {spec.cap!r}")
    a, b = spec.play
    want_fidelity = float(abs(np.vdot(spec.target, u @ np.kron(a, b))) ** 2)
    ensure(abs(fidelity - want_fidelity) <= VALUE_TOL, f"fidelity {fidelity!r}, reference {want_fidelity!r}")
    ensure(np.array_equal(cert.a, a) and np.array_equal(cert.b, b), "certificate is for another play")
    ref = reference(u, spec.prefs, a, b)
    check_certificate(u, spec.prefs, cert, ref)
    if not ref.verdict_is_marginal:
        ensure(certified == (want_fidelity >= 1.0 - TOL and ref.is_equilibrium),
               f"certified {certified}, reference fidelity {want_fidelity!r}, equilibrium {ref.is_equilibrium}")
    if spec.mode == "strict":
        ensure(certified, "a strict mechanism is not certified")


def check_round_trip(name: str, u: np.ndarray, name2: str, u2: np.ndarray) -> None:
    """Gate JSON must give back the name and a bit-identical matrix."""
    ensure(name2 == name, f"round trip renamed {name!r} to {name2!r}")
    ensure(u.shape == u2.shape and u.tobytes() == u2.tobytes(), "round-tripped matrix differs in some bit")
