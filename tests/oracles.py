"""Independent brute-force oracles used to cross-check closed forms.

The deviation oracles deliberately avoid the library's
coefficient-contraction shortcut: every candidate deviation builds the
full joint state and applies the whole matrix, so agreement with the
closed forms is evidence, not an identity between two copies of the same
code.

dense_candidate_pairs and quadratic_dedup are the plain forms of the
equilibrium search's two phases: every pair of grid strategies is
tested, and the first payoff pair of each rounded cell is compared with
every kept one.  The library's pruned scan must return the same passing
pairs, and its bucketed dedup must keep the oracles' representatives,
pair indices and payoff bits, bit for bit.  dense_strategy_sets is the
plain form of the scan's eigen-window sets: every grid strategy tested
against the eigenvectors of each player's matrix, K' formed for player two.

scalar_verify_equilibrium is the plain form of the certification: the
two coefficient contractions M1 b and M2^T a written out per play from
the target rows, and each achieved modulus taken as the played
strategy's contraction with its pair; a best response whose own
contraction gains no more than tol is no witness.  verify_equilibrium
must reproduce its certificates bit for bit,
and scalar_search_certificates is the search recertified that way, with
each strategy built from its Bloch angles.  reference_outcome, U (a kron b) by
np.kron and a plain matvec, is the reference for apply.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from helpers import certificate_fields, target_arrays
from qgame import equilibria
from qgame.game import Play, StrategyParams
from qgame.qcore import TOL, NormalizationError, QubitState


def bloch_grid(n_theta: int, n_phi: int) -> np.ndarray:
    """All grid strategies as a (n_theta * n_phi, 2) complex array."""
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    x = np.repeat(np.cos(thetas / 2.0), n_phi)
    y = (np.sin(thetas / 2.0)[:, None] * np.exp(1j * phis)[None, :]).ravel()
    return np.column_stack([x.astype(complex), y])


def grid_max_target_amplitude(
    u_mat: np.ndarray, target_row: int, player: int, opponent: np.ndarray, n_theta: int, n_phi: int
) -> float:
    """Max |target amplitude| over a Bloch grid of the player's deviations.

    The joint state is assembled explicitly per grid point and multiplied
    by the full matrix row, with no best-response algebra involved.
    """
    grid = bloch_grid(n_theta, n_phi)
    ox, oy = opponent[0], opponent[1]
    if player == 1:
        joint = np.column_stack([grid[:, 0] * ox, grid[:, 0] * oy, grid[:, 1] * ox, grid[:, 1] * oy])
    else:
        joint = np.column_stack([ox * grid[:, 0], ox * grid[:, 1], oy * grid[:, 0], oy * grid[:, 1]])
    amps = joint @ u_mat[target_row, :]
    return float(np.max(np.abs(amps)))


def sweep_max_improvements(
    u_mat: np.ndarray,
    t1: int,
    t2: int,
    a_vec: np.ndarray,
    b_vec: np.ndarray,
    n_theta: int,
    n_phi: int,
) -> tuple[float, float]:
    """Best target amplitudes each player can reach by unilateral deviation."""
    best1 = grid_max_target_amplitude(u_mat, t1, 1, b_vec, n_theta, n_phi)
    best2 = grid_max_target_amplitude(u_mat, t2, 2, a_vec, n_theta, n_phi)
    return best1, best2


def pole_copies(grid) -> np.ndarray:
    """Grid indices of the pole rows' points other than phi = 0, which are no grid strategy."""
    n, per_row = grid.theta_points * grid.phi_points, grid.phi_points
    return np.r_[1:per_row, n - per_row + 1 : n]


def dense_candidate_pairs(g, grid, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of grid strategies tested, blocked over player one's grid index.

    Flat pair indices i*n + j and the two payoff angles of every passing
    pair, in grid order.  A pole is one strategy, its phi = 0 point, so a
    pair naming another point of a pole row is dropped, as in
    qgame.equilibria.GridSpec.
    """
    thetas = np.linspace(0.0, np.pi, grid.theta_points)
    phis = np.linspace(0.0, 2.0 * np.pi, grid.phi_points, endpoint=False)
    x = np.repeat(np.cos(thetas / 2.0), grid.phi_points)
    y = (np.sin(thetas / 2.0)[:, None] * np.exp(1j * phis)[None, :]).ravel()
    n = x.size
    u = g.u.mat
    t1, t2 = g.prefs.player1_target, g.prefs.player2_target

    a1 = u[t1, 0] * x + u[t1, 1] * y
    b1 = u[t1, 2] * x + u[t1, 3] * y
    best1 = np.hypot(np.abs(a1), np.abs(b1))
    a2 = u[t2, 0] * x + u[t2, 2] * y
    b2 = u[t2, 1] * x + u[t2, 3] * y
    best2 = np.hypot(np.abs(a2), np.abs(b2))

    cand_index, cand_payoff1, cand_payoff2 = [np.zeros(0, np.int64)], [np.zeros(0)], [np.zeros(0)]
    block = max(1, (1 << 22) // max(n, 1))
    for start in range(0, n, block):
        stop = min(start + block, n)
        xa, ya = x[start:stop, None], y[start:stop, None]
        achieved1 = np.abs(xa * a1[None, :] + ya * b1[None, :])
        ok = achieved1 >= best1[None, :] - tol
        achieved2 = np.abs(a2[start:stop, None] * x[None, :] + b2[start:stop, None] * y[None, :])
        ok &= achieved2 >= best2[start:stop, None] - tol
        ii, jj = np.nonzero(ok)
        cand_index.append((start + ii).astype(np.int64) * n + jj)
        cand_payoff1.append(np.arccos(np.clip(achieved1[ii, jj] ** 2, 0.0, 1.0)))
        cand_payoff2.append(np.arccos(np.clip(achieved2[ii, jj] ** 2, 0.0, 1.0)))
    index = np.concatenate(cand_index)
    keep = ~np.isin(np.divmod(index, n), pole_copies(grid)).any(axis=0)
    return index[keep], np.concatenate(cand_payoff1)[keep], np.concatenate(cand_payoff2)[keep]


def dense_strategy_sets(g, grid, tol: float) -> list[np.ndarray]:
    """Both players' eigen-window sets, of K = conj(M1) M2^T and K' = conj(M2^T) M1, with every grid strategy tested.

    A strategy s is kept when it lies within r = eta / |lambda| of either of
    the matrix's eigenvectors v, |v0 y - v1 x| <= r |v|, as in _strategy_sets,
    which tests only the rows of each vector's cap, and forms no K': it takes
    player two's vectors as the best responses conj(M2^T e) to K's.
    """
    _, _, x, y = equilibria._grid_amplitudes(grid)
    m1, m2 = target_arrays(g)
    eta = 2.0 * math.sqrt(2.0 * (tol + equilibria._EIGEN_GUARD)) * (1.0 + 4.0 * TOL.unitarity)
    strategy = ~np.isin(np.arange(x.size), pole_copies(grid))
    sets = []
    for k in (np.conj(m1) @ m2.T, np.conj(m2.T) @ m1):
        lam, *vectors = equilibria._eigenvectors(k.tolist())
        near = np.full(x.size, eta >= lam)
        if eta < lam:
            for v0, v1 in vectors:
                near |= np.abs(v0 * y - v1 * x) <= eta / lam * math.hypot(abs(v0), abs(v1))
        sets.append(np.flatnonzero(near & strategy))
    return sets


def quadratic_dedup(payoff1: np.ndarray, payoff2: np.ndarray, step: float) -> list[int]:
    """First-in-order payoff de-duplication: each cell's first pair is compared with every kept pair, the rest dropped."""
    key = (np.round(payoff1 / step).astype(np.int64) << 21) | np.round(payoff2 / step).astype(np.int64)
    _, first = np.unique(key, return_index=True)
    accepted: list[int] = []
    accepted_payoffs: list[tuple[float, float]] = []
    for r in np.sort(first):
        pv = (float(payoff1[r]), float(payoff2[r]))
        if any(max(abs(pv[0] - q0), abs(pv[1] - q1)) <= step for q0, q1 in accepted_payoffs):
            continue
        accepted.append(int(r))
        accepted_payoffs.append(pv)
    return accepted


def drift_checked(v: np.ndarray) -> np.ndarray:
    """v renormalized when its norm^2 drifts from 1 by more than 1e-12 and at most 1e-9; a larger drift or a non-finite entry raises."""
    norm_sq = float(np.sum(np.abs(v) ** 2))
    if abs(norm_sq - 1.0) > TOL.state_norm:
        if abs(norm_sq - 1.0) > 1e-9:
            raise NormalizationError(f"joint state has norm^2 = {norm_sq!r}")
        v = v / np.sqrt(norm_sq)
    if not np.isfinite(v).all():
        raise NormalizationError("joint state contains non-finite amplitudes")
    return v


def reference_outcome(u: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """U (a kron b), the product and the result each taken through drift_checked, as qgame.qcore.tensor and apply are."""
    return drift_checked(u @ drift_checked(np.kron(a, b)))


def scalar_verify_equilibrium(g, p: Play, tol: float = TOL.equilibrium) -> equilibria.EquilibriumCertificate:
    """Closed-form equilibrium check of one play, from the target rows written out by hand."""
    t1, t2 = g.prefs.player1_target, g.prefs.player2_target
    (x1, y1), (x2, y2) = p.a.vec.tolist(), p.b.vec.tolist()
    m1, m2 = g.u.mat[t1].tolist(), g.u.mat[t2].tolist()
    pair1 = (m1[0] * x2 + m1[1] * y2, m1[2] * x2 + m1[3] * y2)  # M1 b
    pair2 = (m2[0] * x1 + m2[2] * y1, m2[1] * x1 + m2[3] * y1)  # M2^T a
    achieved1 = abs(x1 * pair1[0] + y1 * pair1[1])  # |a^T M1 b|
    achieved2 = abs(x2 * pair2[0] + y2 * pair2[1])  # |a^T M2 b| = |b^T M2^T a|
    best1, best2 = equilibria._pair_norm(pair1), equilibria._pair_norm(pair2)

    witness = None
    witness_player = None
    for player, pair, achieved, best in ((1, pair1, achieved1, best1), (2, pair2, achieved2, best2)):
        if best > achieved + tol:
            response = QubitState(equilibria._best_vector(pair))
            if abs(response.x * pair[0] + response.y * pair[1]) > achieved + tol:  # a witness gains more than tol itself
                witness, witness_player = response, player
                break

    return equilibria.EquilibriumCertificate(
        play=p,
        payoff1=math.acos(min(1.0, max(0.0, achieved1**2))),
        payoff2=math.acos(min(1.0, max(0.0, achieved2**2))),
        achieved1=achieved1,
        achieved2=achieved2,
        best1=best1,
        best2=best2,
        is_equilibrium=witness is None,
        witness=witness,
        witness_player=witness_player,
    )


def per_play_certify(g, a, b, tol: float = TOL.equilibrium) -> list:
    """equilibria._certify's contract, each play's certificate fields, met one play at a time by scalar_verify_equilibrium."""
    return [certificate_fields(scalar_verify_equilibrium(g, Play(QubitState(x), QubitState(y)), tol)) for x, y in zip(a, b)]


def scalar_search_certificates(g, grid, tol: float = TOL.equilibrium) -> list:
    """The library's scan and dedup, each survivor rebuilt from its Bloch angles and certified alone."""
    thetas = np.linspace(0.0, np.pi, grid.theta_points)
    phis = np.linspace(0.0, 2.0 * np.pi, grid.phi_points, endpoint=False)
    pair_index, payoff1, payoff2 = equilibria._candidate_pairs(g, grid, tol)
    certificates = []
    for r in equilibria._dedup_payoffs(payoff1, payoff2, TOL.payoff_dedup):
        i, j = divmod(int(pair_index[r]), grid.theta_points * grid.phi_points)
        play = Play(
            StrategyParams(float(thetas[i // grid.phi_points]), float(phis[i % grid.phi_points])).to_state(),
            StrategyParams(float(thetas[j // grid.phi_points]), float(phis[j % grid.phi_points])).to_state(),
        )
        certificates.append(scalar_verify_equilibrium(g, play, tol))
    return certificates


def certificate_bits(cert) -> tuple:
    """Every field of a certificate, floats and vectors as bytes: equal tuples mean bit-identical certificates."""
    floats = (cert.payoff1, cert.payoff2, cert.achieved1, cert.achieved2, cert.best1, cert.best2)
    assert all(type(f) is float for f in floats)
    witness = None if cert.witness is None else cert.witness.vec.tobytes()
    return (
        cert.play.a.vec.tobytes(),
        cert.play.b.vec.tobytes(),
        struct.pack("6d", *floats),
        cert.is_equilibrium,
        witness,
        cert.witness_player,
    )


def row_bits(x: np.ndarray, y: np.ndarray, fields: tuple) -> tuple:
    """certificate_bits of the play (x, y) whose equilibria._certify fields are fields, without building the certificate."""
    floats = fields[:6]
    assert all(type(f) is float for f in floats)
    witness = None if fields[7] is None else fields[7].tobytes()
    return (x.tobytes(), y.tobytes(), struct.pack("6d", *floats), fields[6], witness, fields[8])
