"""Shared helpers for driving the CLI in-process and for building test games."""

from __future__ import annotations

import contextlib
import io

import numpy as np

from qgame.cli import main
from qgame.equilibria import GridSpec, _grid_amplitudes, _target_matrices
from qgame.game import PreferenceProfile, QuantumGame
from qgame.qcore import GameUnitary, random_unitary


def run_cli(args: list[str]) -> tuple[int, str, str]:
    """Run the CLI entry point, returning (exit_code, stdout, stderr).

    argparse raises SystemExit on its own parse errors, so both return
    values and SystemExit codes are normalized to a plain int.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse --help / usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def target_arrays(g: QuantumGame) -> tuple[np.ndarray, np.ndarray]:
    """M1 and M2 as 2x2 arrays, from qgame's _target_matrices lists of M1 and M2^T."""
    m1, m2t = _target_matrices(g)
    return np.array(m1), np.array(m2t).T


def _carry(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """A 2x2 unitary taking the unit vector source to target."""
    def frame(v):
        return np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])

    return frame(target) @ frame(source).conj().T


def planted_game(rng: np.random.Generator, grid: GridSpec) -> tuple[QuantumGame, int, int]:
    """A game with an exact equilibrium at a random pair (i, j) of non-pole grid strategies, and i and j.

    Take a Haar game's K-eigenvector equilibrium (a, b): a is an eigenvector of
    K = conj(M1) M2^T and b = conj(M2^T a) / |M2^T a|, so each is the other's best
    response.  U (V kron W) played at (x, y) gives U's outcome at (Vx, Wy), so with
    V x_i = a and W x_j = b, grid strategies i and j are an equilibrium of U (V kron W).
    """
    u = random_unitary(rng)
    t1, t2 = rng.choice(4, size=2, replace=False).tolist()
    m1, m2 = target_arrays(QuantumGame(u, PreferenceProfile(t1, t2)))
    a = np.linalg.eig(np.conj(m1) @ m2.T)[1][:, rng.integers(2)]
    b = np.conj(m2.T @ a) / np.linalg.norm(m2.T @ a)
    _, _, x, y = _grid_amplitudes(grid)
    per_row = grid.phi_points
    i, j = rng.integers(per_row, x.size - per_row, size=2).tolist()  # off the pole rows
    planted = u.mat @ np.kron(_carry(np.array([x[i], y[i]]), a), _carry(np.array([x[j], y[j]]), b))
    return QuantumGame(GameUnitary(planted), PreferenceProfile(t1, t2)), i, j


# Strata of (rank M1, rank M2); the (1, 1) games split by K = conj(M1) M2^T being 0 or nilpotent and nonzero.
STRATA = ("2,2", "2,1", "1,2", "1,1 K=0", "1,1 K nilpotent")


def _gaussian(rng: np.random.Generator, size) -> np.ndarray:
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _orthogonal(v: np.ndarray) -> np.ndarray:
    """The unit 2-vector orthogonal to the unit 2-vector v."""
    return np.array([-np.conj(v[1]), np.conj(v[0])])


def stratum_game(rng: np.random.Generator, stratum: str) -> QuantumGame:
    """A game of the given STRATA entry at random distinct preferences.

    Its two target rows are orthonormal, of the stratum's ranks, and completed to U by QR.
    A rank-1 row is u kron v, so its M is u v^T.  A rank-2 row is a Gaussian row,
    projected off the other row when that one is rank 1 or comes first.  In (1, 1),
    K = <v1|v2> conj(u1) u2^T and tr K = <v1|v2> <u1|u2>: v2 is orthogonal to v1 for
    K = 0, and u2 to u1 for a nonzero K whose square is 0.
    """
    u1, v1, u2, v2 = (_unit(_gaussian(rng, 2)) for _ in range(4))
    if stratum == "1,1 K=0":
        v2 = _orthogonal(v1)
    elif stratum == "1,1 K nilpotent":
        u2 = _orthogonal(u1)
    rank1, rank2 = int(stratum[0]), int(stratum[2])
    r1 = np.kron(u1, v1) if rank1 == 1 else _unit(_gaussian(rng, 4))
    r2 = np.kron(u2, v2) if rank2 == 1 else _unit(_gaussian(rng, 4))
    if rank2 == 2:
        r2 = _unit(r2 - np.vdot(r1, r2) * r1)
    elif rank1 == 2:
        r1 = _unit(r1 - np.vdot(r2, r1) * r2)
    # Columns 2 and 3 of Q are orthogonal to conj(r1) and conj(r2), so their conjugates complete the rows.
    q = np.linalg.qr(np.column_stack([np.conj(r1), np.conj(r2), _gaussian(rng, (4, 2))]))[0]
    t1, t2 = rng.choice(4, size=2, replace=False).tolist()
    rows = np.empty((4, 4), dtype=complex)
    rows[[t1, t2]] = r1, r2
    rows[[t for t in range(4) if t not in (t1, t2)]] = np.conj(q[:, 2:]).T
    return QuantumGame(GameUnitary(rows), PreferenceProfile(t1, t2))


def perturbed_game(rng: np.random.Generator, stratum: str, eps: float) -> QuantumGame:
    """e^{i eps H} G for a stratum_game G and a random Hermitian H of spectral norm 1.

    Each row of U moves by at most eps, so a degenerate G becomes a rank-(2, 2) game at its
    stratum's edge: a rank-1 M gains a |det M| of order eps, and from "1,1 K nilpotent" K's
    two eigenvectors lie about sqrt(eps) apart, so 1 - |<e+|e->| is of order eps.
    """
    g = stratum_game(rng, stratum)
    w = _gaussian(rng, (4, 4))
    values, vectors = np.linalg.eigh(w + w.conj().T)
    turn = (vectors * np.exp(1j * eps * values / np.max(np.abs(values)))) @ vectors.conj().T
    return QuantumGame(GameUnitary(turn @ g.u.mat), g.prefs)


def certificate_fields(cert) -> tuple:
    """A certificate's fields after play, as qgame.equilibria._certify gives each play's: the witness as its vector."""
    witness = None if cert.witness is None else cert.witness.vec
    return (cert.payoff1, cert.payoff2, cert.achieved1, cert.achieved2, cert.best1, cert.best2,
            cert.is_equilibrium, witness, cert.witness_player)


def certificate_table(certs) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """Certificates as cmd_analyze's writer reads the search's output: strategy rows a and b, and each play's fields."""
    a = np.array([c.play.a.vec for c in certs], dtype=complex).reshape(-1, 2)
    b = np.array([c.play.b.vec for c in certs], dtype=complex).reshape(-1, 2)
    return a, b, [certificate_fields(c) for c in certs]
