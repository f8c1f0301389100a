"""Best responses, equilibrium certification, and deviation-inequality regions.

A play is a Nash equilibrium of these games exactly when neither player
can raise the amplitude modulus on their own preferred outcome by a
unilateral strategy change.  For target row t, M = U[t] reshaped to 2x2
gives the target amplitude a^T M b of the play (a, b); M1 and M2 are the
two players' matrices.  The amplitude is linear in the deviating
player's two amplitudes with coefficient pair M1 b for player one and
M2^T a for player two, so the best achievable modulus against a fixed
opponent is the pair's norm, attained by its conjugate direction:
conj(M1 b) and conj(M2^T a) are the best responses.  Equilibrium
checking therefore never needs numeric optimization, and the mini-max
value is attained whenever a certificate reports equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import Play, QuantumGame, _contract, _modulus_payoff, _play_contraction, _target_matrices
from .qcore import KET0, TOL, QGameError, QubitState, _is_int, _unit_rows, _wrap_rows


class DegenerateCoefficientError(QGameError):
    """A region construction divided by a vanishing response coefficient."""


# Identifiers for the four sign combinations of the deviation
# inequalities: 31/32 bound player one's weighted deviation moduli from
# above/below, 33/34 do the same for player two.  A case pair picks one
# direction per player.
CASE_IDS = (31, 32, 33, 34)
CASE_PAIRS = ((31, 33), (31, 34), (32, 33), (32, 34))


@dataclass(frozen=True)
class ResponseCoefficients:
    """Moduli of the target-row contractions that govern best responses.

    p and q are the moduli of player one's coefficient pair (the target
    row contracted against the opponent's kept and flipped components);
    p_prime and q_prime are the same quantities for player two.
    """

    p: float
    q: float
    p_prime: float
    q_prime: float


@dataclass(frozen=True, eq=False)
class EquilibriumCertificate:
    """Outcome of a closed-form equilibrium check at one play.

    best1/best2 are the norms of M1 b and M2^T a, the best moduli against
    the fixed opponent; achieved1/achieved2 are |a^T M1 b| and |a^T M2 b|,
    read from the same pairs.  The verdict is the witness rule: a player fails only when
    their best-response vector, contracted as a played strategy is, gains more than tol,
    and a pair's norm can top that vector's own modulus by rounding, so a passing play can
    read best - achieved > tol.  Otherwise witness holds that vector of the first failing player.
    """

    play: Play
    payoff1: float
    payoff2: float
    achieved1: float
    achieved2: float
    best1: float
    best2: float
    is_equilibrium: bool
    witness: QubitState | None = None
    witness_player: int | None = None


@dataclass(frozen=True)
class GridSpec:
    """Strategy grid resolution: theta samples in [0, pi], phi samples in [0, 2 pi).

    Grid indices count all theta_points * phi_points points, theta-major, but each
    pole is one strategy, its phi = 0 point: the rest of its row are phase copies.
    """

    theta_points: int = 61
    phi_points: int = 120

    def __post_init__(self):
        if not all(_is_int(n) and n >= 2 for n in (self.theta_points, self.phi_points)):
            raise ValueError(f"grid needs an integer >= 2 points per angle, got {self.theta_points!r}, {self.phi_points!r}")


@dataclass(frozen=True)
class RegionSpec:
    """Sampled boundary of a deviation-inequality feasibility region.

    Samples are (h, v) pairs on the line v = (dev_kept + slope*dev_flip)
    - slope*h, v clamped at 0, inside the closed unit quarter-disc.  In
    the primary form h is the modulus of the played strategy's flipped
    component, v the kept one, and slope = q/p (q'/p' for player two).
    The swapped form exchanges the two axes and slope = p/q.  Cases 31
    and 33 hold on or above the line, cases 32 and 34 on or below it.
    """

    slope: float
    samples: tuple[tuple[float, float], ...]
    swapped: bool


def _coefficient_pair(g: QuantumGame, player: int, opponent: QubitState) -> tuple[complex, complex]:
    """Pair (a, b) making the deviator's target amplitude a*x + b*y: M1 b for player one, M2^T a for two, as _certify rounds it."""
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    return _contract(_target_matrices(g)[player - 1], *opponent.vec.tolist())


def _pair_norm(pair: tuple[complex, complex]) -> float:
    return math.hypot(abs(pair[0]), abs(pair[1]))


def _best_vector(pair: tuple[complex, complex]) -> np.ndarray:
    norm = _pair_norm(pair)
    if norm == 0.0:
        return KET0.vec
    v = np.array([np.conj(pair[0]), np.conj(pair[1])]) / norm
    return v / np.linalg.norm(v)


def response_coefficients(g: QuantumGame, p: Play) -> ResponseCoefficients:
    """Coefficient moduli (p, q, p', q') at the given play: of the pairs M1 b and M2^T a of its one _play_contraction, as in _certify."""
    (a1, b1), (a2, b2), _, _ = _play_contraction(*_target_matrices(g), p.a.vec.tolist(), p.b.vec.tolist())
    return ResponseCoefficients(abs(a1), abs(b1), abs(a2), abs(b2))


def best_response_value(g: QuantumGame, player: int, opponent: QubitState) -> float:
    """Largest target-amplitude modulus the player can reach against opponent.

    Cauchy-Schwarz on a*x + b*y over normalized (x, y) gives exactly
    sqrt(|a|^2 + |b|^2), so this is the true optimum, not a bound.
    """
    return _pair_norm(_coefficient_pair(g, player, opponent))


def best_response_strategy(g: QuantumGame, player: int, opponent: QubitState) -> QubitState:
    """A strategy attaining best_response_value: conj of the coefficient pair, normalized; |0> only when the pair is exactly 0."""
    return QubitState(_best_vector(_coefficient_pair(g, player, opponent)))


def verify_equilibrium(g: QuantumGame, p: Play, tol: float = TOL.equilibrium) -> EquilibriumCertificate:
    """Closed-form equilibrium check with weak inequalities at slack tol.

    A player fails when their best response value exceeds their achieved
    target amplitude by more than tol, and so does the amplitude of their
    best-response strategy, rounded as a played one's; the play is
    certified when neither fails.  On failure the witness is that strategy
    of the first failing player, so applying it raises that player's
    amplitude by more than tol.  This is verify_equilibria for one play,
    whose certificate carries p itself.
    """
    return _certificate(p, _certify(g, [p.a.vec.tolist()], [p.b.vec.tolist()], tol)[0])


def verify_equilibria(g: QuantumGame, a, b, tol: float = TOL.equilibrium) -> list[EquilibriumCertificate]:
    """verify_equilibrium for the plays (a[k], b[k]) of two (n, 2) strategy arrays, in one pass.

    Each row must be a valid QubitState vector; an invalid row raises
    NormalizationError as QubitState would.  No joint state is formed, and
    every certificate equals verify_equilibrium's for the play, bit for bit.
    """
    a, b = _unit_rows(a, 2, "qubit state"), _unit_rows(b, 2, "qubit state")
    if a.shape != b.shape:
        raise ValueError(f"strategy arrays hold {a.shape[0]} and {b.shape[0]} rows")
    return list(map(_certificate, map(Play, _wrap_rows(QubitState, a), _wrap_rows(QubitState, b)), _certify(g, a.tolist(), b.tolist(), tol)))


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and at least 0, got {tol!r}")


def _certify(g: QuantumGame, a: list, b: list, tol: float) -> list[tuple]:
    """EquilibriumCertificate's fields after play, the witness as its vector, of each play of checked rows a, b (lists).

    Each play's achieved and best moduli come from one contraction,
    _play_contraction, so no joint state is formed: achieved1 = |a^T M1 b|
    is a's contraction with the pair M1 b whose norm is best1.  It is
    per-row Python complex and float arithmetic, which rounds as the
    numpy scalars of a single play do; numpy's array abs, hypot and
    complex multiply do not.  The pair's norm can exceed a best response's
    achieved modulus by an ulp, so a witness must gain more than tol itself.
    """
    _check_tol(tol)
    m1, m2t = _target_matrices(g)
    rows = []
    for a_row, b_row in zip(a, b):
        pair1, pair2, achieved1, achieved2 = _play_contraction(m1, m2t, a_row, b_row)
        best1, best2 = _pair_norm(pair1), _pair_norm(pair2)
        if best1 > achieved1 + tol and _gains(witness := _best_vector(pair1), pair1, achieved1 + tol):
            witness_player = 1
        elif best2 > achieved2 + tol and _gains(witness := _best_vector(pair2), pair2, achieved2 + tol):
            witness_player = 2
        else:
            witness, witness_player = None, None
        payoff1, payoff2 = _modulus_payoff(achieved1), _modulus_payoff(achieved2)
        rows.append((payoff1, payoff2, achieved1, achieved2, best1, best2, witness is None, witness, witness_player))
    return rows


def _gains(w: np.ndarray, pair: tuple[complex, complex], bar: float) -> bool:
    """Whether strategy vector w's target amplitude against pair, rounded as _play_contraction rounds a played one's, exceeds bar."""
    x, y = w.tolist()
    return abs(x * pair[0] + y * pair[1]) > bar


def _certificate(p: Play, fields: tuple) -> EquilibriumCertificate:
    """The certificate of play p from its _certify fields, by position (a quarter faster than by keyword), its witness a QubitState."""
    return EquilibriumCertificate(p, *fields) if fields[7] is None else EquilibriumCertificate(p, *fields[:7], QubitState(fields[7]), fields[8])


def _grid_points(grid: GridSpec, index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """thetas, phis, and the amplitudes (cos(theta/2), e^{i phi} sin(theta/2)) of the points at theta-major flat indices index, each the same whatever index holds."""
    thetas = np.linspace(0.0, math.pi, grid.theta_points)
    phis = np.linspace(0.0, 2.0 * math.pi, grid.phi_points, endpoint=False)
    row, col = np.divmod(index, grid.phi_points)
    return thetas, phis, np.cos(thetas / 2.0)[row], np.sin(thetas / 2.0)[row] * np.exp(1j * phis)[col]


def _grid_amplitudes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_grid_points of the whole grid: flattened amplitude arrays (x, y), theta-major order."""
    return _grid_points(grid, np.arange(grid.theta_points * grid.phi_points))


# Rounding guard of every best-response cap's half-angle, in spinor angle.  It widens
# cos^2 half by about _CAP_GUARD sin(2 half), and by _CAP_GUARD^2 = 1e-14 at tol 0, far
# over the ~1e-16 rounding of |<w|x>|^2; at 0, pairs on a pass threshold are lost.
_CAP_GUARD = 1e-7

# Rounding allowance added to tol in each eigen-window radius.  The grid's float checks can
# pass a pair whose exact margins miss tol by some 1e-15, and the closed-form eigenvectors
# are rounded too.  The radius grows with the square root of the slack, so at tol 0 this
# still keeps strategies within about 9e-7 / |lambda| of an eigenvector; at 0, an exact
# equilibrium planted on a grid pair is lost.
_EIGEN_GUARD = 1e-13


def _payoff(achieved_sq: np.ndarray) -> np.ndarray:
    return np.arccos(np.clip(achieved_sq, 0.0, 1.0))


def _spans(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (span, value) with value in starts[span] + range(counts[span]), span-major."""
    span = np.repeat(np.arange(counts.size), counts)
    return span, np.arange(span.size) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _eigenvectors(k: list) -> tuple[float, tuple[complex, complex], tuple[complex, complex]]:
    """|lambda| and the two eigenvectors, unnormalized, of the 2x2 matrix k (nested lists), in closed form.

    k's traceless part [[p, u], [v, -p]] has k's eigenvectors and the eigenvalues +-lambda,
    lambda^2 = p^2 + u v.  They are the null vectors (p + lambda, v) of k - lambda I and
    (u, -(p + lambda)) of k + lambda I, with lambda's sign taken so that p + lambda does not
    cancel: |p + lambda|^2 >= |p|^2 + |lambda|^2, so neither vector is 0 when lambda is not.
    """
    (k00, k01), (k10, k11) = k
    p = (k00 - k11) / 2
    lam = complex(np.sqrt(p * p + k01 * k10))  # not cmath.sqrt: importing cmath loads one more shared library
    s = max(p + lam, p - lam, key=abs)
    return abs(lam), (s, k10), (k01, -s)


def _strategy_sets(m1: list, m2t: list, tol: float, grid: GridSpec):
    """Yield each player's grid strategies, in grid order, that a pair passing both checks at slack tol can hold, player one's first.

    At such a pair, |(K - cI) a| <= eta for K = conj(M1) M2^T, some scalar c and
    eta = sqrt(2 tol s1 s2) (sqrt(s1) + sqrt(s2)), si = |Mi|_2 (README, "Eigen windows"), so a lies
    within r = eta / |lambda| of an eigenvector e of K, sqrt(1 - |<e|a>|^2) <= r, and b within r of
    conj(M2^T e), the eigenvector of conj(M2^T) M1 for the same |lambda|.  Only the rows of each
    vector's cap of half-angle asin(r) are formed and tested.  When r reaches 1, as whenever
    det M1 det M2 = 0 (lambda = 0), every strategy is kept with no amplitude formed.  Player
    two's set is formed only when asked for.
    """
    per_row, n = grid.phi_points, grid.theta_points * grid.phi_points
    # si <= |Mi|_F, the norm of a row of U.  GameUnitary holds |U^H U - I| entrywise within
    # TOL.unitarity, so |U^H U - I|_2 <= 4 TOL.unitarity and si <= 1 + 2 TOL.unitarity.
    eta = 2.0 * math.sqrt(2.0 * (tol + _EIGEN_GUARD)) * (1.0 + 4.0 * TOL.unitarity)
    (t00, t01), (t10, t11) = m2t
    k = [[p.conjugate() * t00 + q.conjugate() * t10, p.conjugate() * t01 + q.conjugate() * t11] for p, q in m1]  # K = conj(M1) M2^T
    lam, *vectors = _eigenvectors(k)
    for player in (1, 2):
        if eta >= lam:
            yield np.r_[0, per_row : n - per_row + 1]  # every strategy: a pole is its phi = 0 point alone
            continue
        if player == 2:  # player two's best responses to K's eigenvectors
            vectors = [tuple(z.conjugate() for z in _contract(m2t, *e)) for e in vectors]
        radius = eta / lam
        first, count = _cap_rows(np.array([math.atan2(abs(v1), abs(v0)) for v0, v1 in vectors]), math.asin(radius) + _CAP_GUARD, grid.theta_points)
        rows = sorted({row for f, c in zip(first.tolist(), count.tolist()) for row in range(f, f + c)})
        index = (np.array(rows, np.int64)[:, None] * per_row + np.arange(per_row)).ravel()
        index = index[(index % per_row == 0) | ((index >= per_row) & (index < n - per_row))]
        if index.size:
            *_, x, y = _grid_points(grid, index)
            # sqrt(1 - |<v|s>|^2) |v| = |<v_perp|s>| = |v0 y - v1 x|
            index = index[np.any([np.abs(v0 * y - v1 * x) <= radius * math.hypot(abs(v0), abs(v1)) for v0, v1 in vectors], axis=0)]
        yield index


def _cap_rows(beta, half, theta_points: int):
    """First grid row and row count of each cap of centre theta/2 = beta and half-angle half: the rows with |theta/2 - beta| <= half."""
    step = math.pi / (2 * (theta_points - 1))  # theta/2 between rows
    first = np.maximum(np.ceil((beta - half) / step), 0).astype(np.int64)
    return first, np.minimum(np.floor((beta + half) / step), theta_points - 1).astype(np.int64) - first + 1


def _cap(abs_a: np.ndarray, abs_b: np.ndarray, best: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Centre theta/2 and half-angle of each deviator's cap of strategies within tol of best.

    A deviator with coefficient pair (a, b), of moduli abs_a and abs_b, reaches best |<w|x>|
    at x, where the best response w = conj(a, b) / best lies at theta/2 = beta =
    atan2(|b|, |a|) and phi* = arg(a conj(b)), which only player one's windows read.  So
    those strategies form one cap |<w|x>| >= cos(half), half = arccos((best - tol) / best)
    in spinor angle, pi/2 (the whole sphere) when best is 0, plus _CAP_GUARD.
    """
    reach = np.divide(np.maximum(best - tol, 0.0), best, out=np.zeros_like(best), where=best > 0)
    return np.arctan2(abs_b, abs_a), np.arccos(reach) + _CAP_GUARD


def _window_pairs(thetas: np.ndarray, per_row: int, strategies: np.ndarray, cap1, cap2) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j) of grid strategies that the best-response caps leave to check.

    cap1 and cap2 are each player's _cap against every strategy in
    strategies, cap1 with its centre phi* as a third array.  i ranges over
    the rows of player one's cap against j, |theta/2 - beta| <= half, cut to
    the rows on which some i has j's row in player two's cap, and on each
    non-pole row over the cap's phi-chord.  There, with c = cos(theta/2),
    s = sin(theta/2), |<w|x>|^2 = c^2 cos^2 beta + s^2 sin^2 beta
    + 2cs cos(beta) sin(beta) cos(phi - phi*).  A row whose phi term is 0, or
    in a cap of half past pi/2, is taken whole.
    """
    row = strategies // per_row

    # reached[k, k2]: some i on row k has row k2 in player two's cap.
    first, count = _cap_rows(*cap2, thetas.size)
    on, shape = count > 0, (thetas.size, thetas.size + 1)
    start = np.ravel_multi_index((row[on], first[on]), shape)  # flat key of each cap's first row
    edges = np.bincount(start, minlength=shape[0] * shape[1]) - np.bincount(start + count[on], minlength=shape[0] * shape[1])
    reached = np.cumsum(edges.reshape(shape)[:, :-1], axis=1) > 0

    # Each (row k of i, j) in player one's cap of j, where player two's caps reach.
    beta, half, centre = cap1  # trig once per strategy, gathered to each of its spans
    span, k = _spans(*_cap_rows(beta, half, thetas.size))
    keep = reached[k, row[span]]
    span, k = span[keep], k[keep]
    per_strategy = np.cos(beta), np.sin(beta), np.cos(half) ** 2, half, centre
    j, (cos_beta, sin_beta, cos_sq_half, half, centre) = strategies[span], (v[span] for v in per_strategy)

    c, s = np.cos(thetas / 2.0)[k], np.sin(thetas / 2.0)[k]
    cross = 2.0 * c * s * cos_beta * sin_beta
    chord = cos_sq_half - (c * cos_beta) ** 2 - (s * sin_beta) ** 2
    whole = (half >= math.pi / 2) | (cross == 0)  # the cap is the sphere, or phi does not move |<w|x>|
    cos_width = np.divide(chord, cross, out=np.full_like(cross, -1.0), where=~whole)
    width = np.where(cos_width > -1.0, np.arccos(np.clip(cos_width, -1.0, 1.0)), 2.0 * math.pi)  # 2 pi: the whole row
    step = 2.0 * math.pi / per_row
    first = np.ceil((centre - width) / step).astype(np.int64)
    count = np.minimum(np.floor((centre + width) / step).astype(np.int64) - first + 1, per_row)
    pole = (k == 0) | (k == thetas.size - 1)  # a pole is its phi = 0 point alone
    first[pole], count[pole] = 0, 1
    pair, col = _spans(first, count)
    return k[pair] * per_row + col % per_row, j[pair]


def _candidate_pairs(g: QuantumGame, grid: GridSpec, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat pair indices i*n + j and payoff angles of passing grid pairs, in grid order.

    A deviator passes only near their best response, so the exact checks
    run only on the pairs of grid strategies in _window_pairs' windows.  A
    passing pair also lies near K's eigenvectors (_strategy_sets), so when
    one player has no grid strategy there, as on Haar-random games at
    tol 1e-9, neither the grid's amplitude arrays nor any cap is built.
    Past that exit the grid is built once, here.
    """
    m1, m2t = _target_matrices(g)
    if not all(kept.size for kept in _strategy_sets(m1, m2t, tol, grid)):
        return np.zeros(0, np.int64), np.zeros(0), np.zeros(0)
    thetas, _, x, y = _grid_amplitudes(grid)
    n, per_row = x.size, grid.phi_points

    # Each player's coefficient pair and best value against every opposing grid strategy.
    a1, b1 = _contract(m1, x, y)
    a2, b2 = _contract(m2t, x, y)
    abs_a1, abs_b1, abs_a2, abs_b2 = np.abs(a1), np.abs(b1), np.abs(a2), np.abs(b2)
    best1, best2 = np.hypot(abs_a1, abs_b1), np.hypot(abs_a2, abs_b2)

    strategies = np.r_[0, per_row : n - per_row + 1]
    cap1 = (*_cap(abs_a1[strategies], abs_b1[strategies], best1[strategies], tol), np.angle(a1[strategies] * np.conj(b1[strategies])))
    cap2 = _cap(abs_a2[strategies], abs_b2[strategies], best2[strategies], tol)
    i, j = _window_pairs(thetas, per_row, strategies, cap1, cap2)
    achieved1 = np.abs(x[i] * a1[j] + y[i] * b1[j])
    achieved2 = np.abs(a2[i] * x[j] + b2[i] * y[j])
    ok = (achieved1 >= best1[j] - tol) & (achieved2 >= best2[i] - tol)
    index = i[ok] * n + j[ok]
    order = np.argsort(index)
    return index[order], _payoff(achieved1[ok][order] ** 2), _payoff(achieved2[ok][order] ** 2)


def _dedup_payoffs(payoff1: np.ndarray, payoff2: np.ndarray, step: float) -> list[int]:
    """Indices of the payoff pairs kept, in order.

    Only the first pair of each cell round(payoff / step) is a candidate; the
    cell's later pairs are dropped with it.  A candidate is kept when no
    earlier kept pair lies within Chebyshev distance step.
    """
    # Payoffs live in [0, pi/2], so the rounded cells fit well inside 21 bits.
    cell1 = np.round(payoff1 / step).astype(np.int64)
    cell2 = np.round(payoff2 / step).astype(np.int64)
    keys, first = np.unique((cell1 << 21) | cell2, return_index=True)

    # A pair within step of another lies at most two cells away on each axis, even when
    # round-half-to-even splits them at a cell edge.  Each cell holds one candidate, so a
    # candidate's conflicts, the earlier candidates within step, are in its 24 neighbour cells.
    d = np.arange(-2, 3)
    near = keys[:, None] + np.delete((d[:, None] << 21) + d, 12)
    at = np.minimum(np.searchsorted(keys, near), keys.size - 1)
    q, r = first[at], first[:, None]
    distance = np.maximum(abs(payoff1[q] - payoff1[r]), abs(payoff2[q] - payoff2[r]))
    conflict = (keys[at] == near) & (q < r) & (distance <= step)

    # A candidate without conflicts is kept; the others, in order, when none of their conflicts was.
    kept = np.append(~conflict.any(axis=1), False)  # the last slot stands for no candidate
    conflicted = np.flatnonzero(~kept[:-1])
    conflicted = conflicted[np.argsort(first[conflicted])]
    blockers = np.where(conflict[conflicted], at[conflicted], keys.size)
    kept = kept.tolist()
    for c, cells in zip(conflicted.tolist(), blockers.tolist()):
        kept[c] = not any(map(kept.__getitem__, cells))
    return np.sort(first[kept[:-1]]).tolist()


def _search_rows(g: QuantumGame, grid: GridSpec, tol: float) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """search_equilibria's plays as checked strategy rows a and b, from _grid_points of the kept strategies alone, and _certify's fields of each."""
    _check_tol(tol)
    pair_index, payoff1, payoff2 = _candidate_pairs(g, grid, tol)
    if not pair_index.size:  # no candidates, as on generic games at tol 1e-9: skip the empty-array set-up
        return np.zeros((0, 2), complex), np.zeros((0, 2), complex), []
    i, j = np.divmod(pair_index[_dedup_payoffs(payoff1, payoff2, TOL.payoff_dedup)], grid.theta_points * grid.phi_points)
    a, b = (_unit_rows(np.column_stack(_grid_points(grid, k)[2:]), 2, "qubit state") for k in (i, j))
    return a, b, _certify(g, a.tolist(), b.tolist(), tol)


def search_equilibria(g: QuantumGame, grid: GridSpec, tol: float = TOL.equilibrium) -> list[EquilibriumCertificate]:
    """Equilibrium scan over all grid strategy pairs.

    Both players range over the same Bloch grid's strategies, one per pole
    (see GridSpec).  A pair is a candidate when both closed-form deviation
    checks pass at slack tol; the checks run only inside each opponent's
    best-response windows (see _candidate_pairs).  Candidates are
    de-duplicated by payoff proximity (_dedup_payoffs): the first candidate
    of each rounded payoff cell, in grid order, is kept unless an earlier
    kept one lies within TOL.payoff_dedup, and the cell's later candidates
    are dropped.  Survivors are re-certified in one _certify pass.  The
    certificates' values come from its per-row scalar rounding, not from
    the grid's array rounding, so at the margin a certificate can disagree
    with the check that kept its play.
    """
    a, b, rows = _search_rows(g, grid, tol)
    return list(map(_certificate, map(Play, _wrap_rows(QubitState, a), _wrap_rows(QubitState, b)), rows))


def case_inequality_holds(case_id: int, coeffs: ResponseCoefficients, play: Play, deviation: QubitState) -> bool:
    """Evaluate one deviation inequality with a TOL.disc comparison slack.

    Cases 31/32 compare player one's weighted deviation moduli
    p|x| + q|y| against the same weighting of the played strategy
    (31: deviation side <=, 32: >=); cases 33/34 are the player two
    analogues with p', q'.  These are triangle-inequality relaxations
    used for region analysis, not equilibrium tests.
    """
    if case_id not in CASE_IDS:
        raise ValueError(f"case_id must be one of {CASE_IDS}, got {case_id!r}")
    p_side, q_side = _player_coefficients(coeffs, 1 if case_id < 33 else 2)
    kept = play.a if case_id < 33 else play.b
    left = p_side * abs(deviation.x) + q_side * abs(deviation.y)
    right = p_side * abs(kept.x) + q_side * abs(kept.y)
    if case_id in (31, 33):
        return left <= right + TOL.disc
    return left >= right - TOL.disc


def _player_coefficients(coeffs: ResponseCoefficients, which_player: int) -> tuple[float, float]:
    if which_player == 1:
        return coeffs.p, coeffs.q
    if which_player == 2:
        return coeffs.p_prime, coeffs.q_prime
    raise ValueError(f"which_player must be 1 or 2, got {which_player!r}")


def _sample_boundary(constant: float, slope: float, resolution: int) -> tuple[tuple[float, float], ...]:
    # The line v = constant - slope*h clamped to v >= 0, inside the
    # closed unit disc.  Points whose clamped boundary value leaves the
    # disc are dropped rather than projected.
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    hs = np.linspace(0.0, 1.0, resolution)
    samples = []
    for h in hs:
        v = max(constant - slope * float(h), 0.0)
        if h * h + v * v <= 1.0 + TOL.disc:
            samples.append((float(h), v))
    return tuple(samples)


def feasibility_region(
    coeffs: ResponseCoefficients,
    which_player: int,
    deviation: QubitState,
    resolution: int = 101,
    swapped: bool = False,
) -> RegionSpec:
    """Boundary samples of the played-moduli region compatible with a deviation.

    Solving the player's case inequality for the kept modulus v of the
    played strategy gives the line v = (dev_kept + slope*dev_flip) -
    slope*h with slope = q/p (or q'/p'), where h is the played flipped
    modulus: case 31 (33) holds on or above it, case 32 (34) on or below.
    This needs a non-degenerate p-side coefficient.  swapped=True
    exchanges the two moduli axes and the p/q roles, solving for the
    flipped modulus with slope p/q; it needs a non-degenerate q-side.
    """
    p_side, q_side = _player_coefficients(coeffs, which_player)
    dev_kept, dev_flip = abs(deviation.x), abs(deviation.y)
    if swapped:
        p_side, q_side, dev_kept, dev_flip = q_side, p_side, dev_flip, dev_kept
    if p_side < TOL.degenerate_coefficient:
        side, remedy = ("q", "the region is unconstrained in this form") if swapped else ("p", "use swapped=True")
        raise DegenerateCoefficientError(f"{side}-side coefficient {p_side!r} is degenerate; {remedy}")
    slope = q_side / p_side
    return RegionSpec(slope, _sample_boundary(dev_kept + slope * dev_flip, slope, resolution), swapped)
