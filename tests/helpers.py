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
    m1, m2 = _target_matrices(QuantumGame(u, PreferenceProfile(t1, t2)))
    a = np.linalg.eig(np.conj(m1) @ m2.T)[1][:, rng.integers(2)]
    b = np.conj(m2.T @ a) / np.linalg.norm(m2.T @ a)
    _, _, x, y = _grid_amplitudes(grid)
    per_row = grid.phi_points
    i, j = rng.integers(per_row, x.size - per_row, size=2).tolist()  # off the pole rows
    planted = u.mat @ np.kron(_carry(np.array([x[i], y[i]]), a), _carry(np.array([x[j], y[j]]), b))
    return QuantumGame(GameUnitary(planted), PreferenceProfile(t1, t2)), i, j


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
