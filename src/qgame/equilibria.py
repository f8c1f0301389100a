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

from .game import Play, QuantumGame, _modulus_payoff
from .qcore import KET0, TOL, QGameError, QubitState, _apply_rows, _tensor_rows, _unit_rows, _wrap_rows


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

    best1/best2 are the optimal achievable amplitude moduli against the
    fixed opponent; achieved1/achieved2 are the moduli at the play
    itself.  When the play is not an equilibrium, witness holds the
    deviating strategy of the first player who can improve.
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
        if self.theta_points < 2 or self.phi_points < 2:
            raise ValueError("grid needs at least 2 points per angle")


@dataclass(frozen=True)
class RegionSpec:
    """Sampled boundary of a deviation-inequality feasibility region.

    Samples are (h, v) pairs: in the primary form h is the modulus of
    the played strategy's flipped component and v the kept one, and the
    feasible set is on or above the line v = (dev_kept + slope*dev_flip)
    - slope*h, intersected with the closed unit quarter-disc.  The
    swapped form exchanges the two axes.  slope1 and slope2 record the
    coefficient ratios q/p and q'/p' (inf when the denominator is
    degenerate), independent of which player was sampled.
    """

    case_pair: tuple[int, int]
    slope1: float
    slope2: float
    samples: tuple[tuple[float, float], ...]
    player: int
    swapped: bool


def _target_matrices(g: QuantumGame) -> tuple[np.ndarray, np.ndarray]:
    """M1 and M2: each player's target row of U reshaped to 2x2, so their amplitude is a^T M b."""
    u = g.u.mat
    return u[g.prefs.player1_target].reshape(2, 2), u[g.prefs.player2_target].reshape(2, 2)


def _contract(m, x, y):
    """m @ (x, y) for a 2x2 m, written out for scalars and grid arrays alike.

    m may be an array or nested lists.  Scalars and arrays do not round
    alike: numpy's array complex multiply differs in the last ulp from the
    scalar product in about half of random cases, so a grid check can
    disagree at the margin with the certificate of the same play.
    """
    return m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y


def _coefficient_pair(m: np.ndarray, opponent: QubitState) -> tuple[complex, complex]:
    """Pair (a, b) making the deviator's target amplitude a*x + b*y; m is M1 for player one, M2^T for two."""
    a, b = _contract(m, opponent.x, opponent.y)
    return complex(a), complex(b)


def _player_matrix(g: QuantumGame, player: int) -> np.ndarray:
    m1, m2 = _target_matrices(g)
    if player == 1:
        return m1
    if player == 2:
        return m2.T
    raise ValueError(f"player must be 1 or 2, got {player!r}")


def _pair_norm(pair: tuple[complex, complex]) -> float:
    return math.hypot(abs(pair[0]), abs(pair[1]))


def _best_strategy(pair: tuple[complex, complex]) -> QubitState:
    norm = _pair_norm(pair)
    if norm < 1e-15:
        return KET0
    v = np.array([np.conj(pair[0]), np.conj(pair[1])]) / norm
    return QubitState(v / np.linalg.norm(v))


def response_coefficients(g: QuantumGame, p: Play) -> ResponseCoefficients:
    """Coefficient moduli (p, q, p', q') at the given play: of player one's pair M1 b and player two's M2^T a."""
    m1, m2 = _target_matrices(g)
    (a1, b1), (a2, b2) = _coefficient_pair(m1, p.b), _coefficient_pair(m2.T, p.a)
    return ResponseCoefficients(abs(a1), abs(b1), abs(a2), abs(b2))


def best_response_value(g: QuantumGame, player: int, opponent: QubitState) -> float:
    """Largest target-amplitude modulus the player can reach against opponent.

    Cauchy-Schwarz on a*x + b*y over normalized (x, y) gives exactly
    sqrt(|a|^2 + |b|^2), so this is the true optimum, not a bound.
    """
    return _pair_norm(_coefficient_pair(_player_matrix(g, player), opponent))


def best_response_strategy(g: QuantumGame, player: int, opponent: QubitState) -> QubitState:
    """A strategy attaining best_response_value; |0> when every strategy ties."""
    return _best_strategy(_coefficient_pair(_player_matrix(g, player), opponent))


def verify_equilibrium(g: QuantumGame, p: Play, tol: float = TOL.equilibrium) -> EquilibriumCertificate:
    """Closed-form equilibrium check with weak inequalities at slack tol.

    The play is certified when each player's achieved target amplitude
    is within tol of their best response value.  On failure the witness
    is the best-response strategy of the first improving player, so
    applying it raises that player's amplitude by more than tol.  This is
    verify_equilibria for one play, whose certificate carries p itself.
    """
    return _certify(g, p.a.vec[None], p.b.vec[None], [p], tol)[0]


def verify_equilibria(g: QuantumGame, a, b, tol: float = TOL.equilibrium) -> list[EquilibriumCertificate]:
    """verify_equilibrium for the plays (a[k], b[k]) of two (n, 2) strategy arrays, in one pass.

    Each row must be a valid QubitState vector; an invalid row raises
    NormalizationError as QubitState would.  Every certificate equals
    verify_equilibrium's for the same play, bit for bit.
    """
    a, b = _unit_rows(a, 2, "qubit state"), _unit_rows(b, 2, "qubit state")
    if a.shape != b.shape:
        raise ValueError(f"strategy arrays hold {a.shape[0]} and {b.shape[0]} rows")
    return _certify(g, a, b, [Play(x, y) for x, y in zip(_wrap_rows(QubitState, a), _wrap_rows(QubitState, b))], tol)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and at least 0, got {tol!r}")


def _certify(g: QuantumGame, a: np.ndarray, b: np.ndarray, plays: list[Play], tol: float) -> list[EquilibriumCertificate]:
    """Certificates of the plays whose checked strategy rows are a and b.

    The joint states are built and mapped through U for all rows at once,
    as tensor and apply do for one.  Everything after that is
    per-row Python complex and float arithmetic, which rounds as the numpy
    scalars of a single play do; numpy's array abs, hypot and complex
    multiply do not.
    """
    _check_tol(tol)
    out = _apply_rows(g.u, _tensor_rows(a, b))
    t1, t2 = g.prefs.player1_target, g.prefs.player2_target
    m1, m2 = _target_matrices(g)
    m1, m2t = m1.tolist(), m2.T.tolist()
    certificates = []
    for play, (ax, ay), (bx, by), amplitudes in zip(plays, a.tolist(), b.tolist(), out.tolist()):
        achieved1, achieved2 = abs(amplitudes[t1]), abs(amplitudes[t2])
        pair1, pair2 = _contract(m1, bx, by), _contract(m2t, ax, ay)
        best1, best2 = _pair_norm(pair1), _pair_norm(pair2)

        witness = None
        witness_player = None
        if best1 > achieved1 + tol:
            witness = _best_strategy(pair1)
            witness_player = 1
        elif best2 > achieved2 + tol:
            witness = _best_strategy(pair2)
            witness_player = 2

        certificates.append(
            EquilibriumCertificate(
                play=play,
                payoff1=_modulus_payoff(achieved1),
                payoff2=_modulus_payoff(achieved2),
                achieved1=achieved1,
                achieved2=achieved2,
                best1=best1,
                best2=best2,
                is_equilibrium=witness is None,
                witness=witness,
                witness_player=witness_player,
            )
        )
    return certificates


def _grid_amplitudes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flattened amplitude arrays (x, y) over the grid, theta-major order."""
    thetas = np.linspace(0.0, math.pi, grid.theta_points)
    phis = np.linspace(0.0, 2.0 * math.pi, grid.phi_points, endpoint=False)
    x = np.repeat(np.cos(thetas / 2.0), grid.phi_points)
    y = (np.sin(thetas / 2.0)[:, None] * np.exp(1j * phis)[None, :]).ravel()
    return thetas, phis, x, y


# Rounding guards of the best-response windows (_window_pairs).  Over 55 M passing
# pairs of library and Haar games, at tol from 0 to 1 and at tols that put pairs
# exactly on a pass threshold, an achieved modulus exceeded its row bound by at most
# 3.3e-16 and its squared closed form by 8.9e-16, and lay outside the unguarded
# window by at most 6.1e-16 rad in theta/2 and 2.6e-8 rad in phi.
_REACH_GUARD = 1e-12  # the windows are cut at best - tol - _REACH_GUARD
_THETA_GUARD = 1e-9  # rad, added to each theta/2 half-width
_PHI_GUARD = 1e-6  # rad, added to each phi half-width
_FULL_ROW = 1e-6  # a row whose phi term 2csAB is below this times best^2 is scanned whole


def _payoff(achieved_sq: np.ndarray) -> np.ndarray:
    return np.arccos(np.clip(achieved_sq, 0.0, 1.0))


def _spans(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (span, value) with value in starts[span] + range(counts[span]), span-major."""
    span = np.repeat(np.arange(counts.size), counts)
    return span, np.arange(span.size) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _theta_windows(a, b, best, tol: float, theta_points: int) -> tuple[np.ndarray, np.ndarray]:
    """First theta-row and row count of each opponent's best-response window.

    A deviator with coefficient pair (a, b) reaches cos(t/2)|a| + sin(t/2)|b|
    = best cos(t/2 - beta) at most on theta-row t, beta = atan2(|b|, |a|),
    so the rows where it can come within tol of best form one interval of
    t/2 around beta.
    """
    step = math.pi / (2 * (theta_points - 1))  # theta/2 between rows
    reach = np.maximum(best - tol - _REACH_GUARD, 0.0)
    half = np.arccos(np.divide(reach, best, out=np.zeros_like(best), where=best > 0)) + _THETA_GUARD
    beta = np.arctan2(np.abs(b), np.abs(a))
    first = np.maximum(np.ceil((beta - half) / step), 0).astype(np.int64)
    last = np.minimum(np.floor((beta + half) / step), theta_points - 1).astype(np.int64)
    return first, last - first + 1


def _window_pairs(
    thetas: np.ndarray, per_row: int, strategies: np.ndarray, player1, player2, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j) of grid strategies that the best-response windows leave to check.

    player1 and player2 are each player's (a, b, best) against every grid
    strategy.  i ranges over player one's window against j: its theta-rows
    (_theta_windows), cut to the rows on which some i has j's row in player
    two's theta-window, and on each non-pole row one circular phi-window.
    There, with c = cos(theta/2), s = sin(theta/2) and moduli A = |a|,
    B = |b|, the achieved modulus squared is c^2 A^2 + s^2 B^2 +
    2csAB cos(phi - phi*), phi* = arg a - arg b.  A row whose 2csAB is too
    small to place the window is taken whole.
    """
    (a1, b1, best1), (a2, b2, best2) = player1, player2
    row = strategies // per_row

    # reached[k, k2]: some i on row k has row k2 in player two's theta-window.
    first, count = _theta_windows(a2[strategies], b2[strategies], best2[strategies], tol, thetas.size)
    on = count > 0
    edges = np.zeros((thetas.size, thetas.size + 1), np.int64)
    np.add.at(edges, (row[on], first[on]), 1)
    np.add.at(edges, (row[on], first[on] + count[on]), -1)
    reached = np.cumsum(edges[:, :-1], axis=1) > 0

    # Each (row k of i, j) in player one's theta-window of j, where player two's windows reach.
    span, k = _spans(*_theta_windows(a1[strategies], b1[strategies], best1[strategies], tol, thetas.size))
    keep = reached[k, row[span]]
    j, k = strategies[span[keep]], k[keep]

    c, s = np.cos(thetas / 2.0)[k], np.sin(thetas / 2.0)[k]
    big_a, big_b, best = np.abs(a1[j]), np.abs(b1[j]), best1[j]
    reach = best - tol - _REACH_GUARD
    cross = 2.0 * c * s * big_a * big_b
    whole = (reach <= 0) | (cross <= _FULL_ROW * best**2)
    cos_half = np.divide(reach**2 - (c * big_a) ** 2 - (s * big_b) ** 2, cross, out=np.full_like(best, -1.0), where=~whole)
    half = np.arccos(np.clip(cos_half, -1.0, 1.0)) + _PHI_GUARD  # a half-width over pi takes the whole row
    centre = np.angle(a1[j]) - np.angle(b1[j])
    step = 2.0 * math.pi / per_row
    first = np.ceil((centre - half) / step).astype(np.int64)
    count = np.minimum(np.floor((centre + half) / step).astype(np.int64) - first + 1, per_row)
    pole = (k == 0) | (k == thetas.size - 1)  # a pole is its phi = 0 point alone
    first[pole], count[pole] = 0, 1
    span, col = _spans(first, count)
    return k[span] * per_row + col % per_row, j[span]


def _candidate_pairs(g: QuantumGame, grid: GridSpec, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat pair indices i*n + j and payoff angles of passing grid pairs, in grid order.

    A deviator passes only near their best response, so the exact checks
    run only on the pairs of grid strategies in _window_pairs' windows.
    """
    thetas, _, x, y = _grid_amplitudes(grid)
    n, per_row = x.size, grid.phi_points
    m1, m2 = _target_matrices(g)

    # Each player's coefficient pair and best value against every opposing grid strategy.
    a1, b1 = _contract(m1, x, y)
    a2, b2 = _contract(m2.T, x, y)
    best1, best2 = np.hypot(np.abs(a1), np.abs(b1)), np.hypot(np.abs(a2), np.abs(b2))

    strategies = np.r_[0, per_row : n - per_row + 1]
    i, j = _window_pairs(thetas, per_row, strategies, (a1, b1, best1), (a2, b2, best2), tol)
    achieved1 = np.abs(x[i] * a1[j] + y[i] * b1[j])
    achieved2 = np.abs(a2[i] * x[j] + b2[i] * y[j])
    ok = (achieved1 >= best1[j] - tol) & (achieved2 >= best2[i] - tol)
    index = i[ok] * n + j[ok]
    order = np.argsort(index)
    return index[order], _payoff(achieved1[ok][order] ** 2), _payoff(achieved2[ok][order] ** 2)


def _dedup_payoffs(payoff1: np.ndarray, payoff2: np.ndarray, step: float) -> list[int]:
    """Indices of the payoff pairs kept when no earlier kept pair lies within Chebyshev distance step."""
    # Payoffs live in [0, pi/2], so the rounded cells fit well inside 21 bits.
    cell1 = np.round(payoff1 / step).astype(np.int64)
    cell2 = np.round(payoff2 / step).astype(np.int64)
    _, first = np.unique((cell1 << 21) | cell2, return_index=True)

    # A pair within step of another lies at most two cells away on each
    # axis, even when round-half-to-even splits them at a cell edge.
    accepted: list[int] = []
    cells: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for r in np.sort(first).tolist():
        p1, p2, c1, c2 = float(payoff1[r]), float(payoff2[r]), int(cell1[r]), int(cell2[r])
        near = (q for d1 in range(-2, 3) for d2 in range(-2, 3) for q in cells.get((c1 + d1, c2 + d2), ()))
        if any(max(abs(p1 - q1), abs(p2 - q2)) <= step for q1, q2 in near):
            continue
        accepted.append(r)
        cells.setdefault((c1, c2), []).append((p1, p2))
    return accepted


def search_equilibria(g: QuantumGame, grid: GridSpec, tol: float = TOL.equilibrium) -> list[EquilibriumCertificate]:
    """Equilibrium scan over all grid strategy pairs.

    Both players range over the same Bloch grid's strategies, one per pole
    (see GridSpec).  A pair is a candidate when both closed-form deviation
    checks pass at slack tol; the checks run only inside each opponent's
    best-response windows (see _candidate_pairs).  Candidates are
    de-duplicated by payoff proximity, first in grid order winning, in
    rounded payoff-cell buckets, exactly as if every pair were tested;
    survivors are re-certified in one verify_equilibria call.  The
    certificates' values come from that call's per-row scalar rounding, not
    from the grid's array rounding, so at the margin a certificate can
    disagree with the check that kept its play.
    """
    _check_tol(tol)
    _, _, x, y = _grid_amplitudes(grid)
    pair_index, payoff1, payoff2 = _candidate_pairs(g, grid, tol)
    i, j = np.divmod(pair_index[_dedup_payoffs(payoff1, payoff2, TOL.payoff_dedup)], x.size)
    if not i.size:  # no survivors, as on generic games at tol 1e-9: skip the empty-array set-up
        return []
    return verify_equilibria(g, np.column_stack([x[i], y[i]]), np.column_stack([x[j], y[j]]), tol)


def case_inequality_holds(case_id: int, coeffs: ResponseCoefficients, play: Play, deviation: QubitState) -> bool:
    """Evaluate one deviation inequality with a 1e-12 comparison slack.

    Cases 31/32 compare player one's weighted deviation moduli
    p|x| + q|y| against the same weighting of the played strategy
    (31: deviation side <=, 32: >=); cases 33/34 are the player two
    analogues with p', q'.  These are triangle-inequality relaxations
    used for region analysis, not equilibrium tests.
    """
    if case_id in (31, 32):
        side, kept, flip = (coeffs.p, coeffs.q), play.a, deviation
    elif case_id in (33, 34):
        side, kept, flip = (coeffs.p_prime, coeffs.q_prime), play.b, deviation
    else:
        raise ValueError(f"case_id must be one of {CASE_IDS}, got {case_id!r}")
    left = side[0] * abs(flip.x) + side[1] * abs(flip.y)
    right = side[0] * abs(kept.x) + side[1] * abs(kept.y)
    if case_id in (31, 33):
        return left <= right + 1e-12
    return left >= right - 1e-12


def _player_coefficients(coeffs: ResponseCoefficients, which_player: int) -> tuple[float, float]:
    if which_player == 1:
        return coeffs.p, coeffs.q
    if which_player == 2:
        return coeffs.p_prime, coeffs.q_prime
    raise ValueError(f"which_player must be 1 or 2, got {which_player!r}")


def _ratio_or_inf(num: float, den: float) -> float:
    return num / den if den >= TOL.degenerate_coefficient else math.inf


def _sample_boundary(constant: float, slope: float, resolution: int) -> tuple[tuple[float, float], ...]:
    # Boundary of {v >= constant - slope*h} clipped to v >= 0, inside the
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
    case_pair: tuple[int, int] = (31, 33),
    swapped: bool = False,
) -> RegionSpec:
    """Boundary samples of the played-moduli region compatible with a deviation.

    Solving the player's case inequality for the kept modulus of the
    played strategy gives v >= (dev_kept + slope*dev_flip) - slope*h
    with slope = q/p (or q'/p'), where h is the played flipped modulus;
    this needs a non-degenerate p-side coefficient.  swapped=True
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
    return RegionSpec(
        case_pair=case_pair,
        slope1=_ratio_or_inf(coeffs.q, coeffs.p),
        slope2=_ratio_or_inf(coeffs.q_prime, coeffs.p_prime),
        samples=_sample_boundary(dev_kept + slope * dev_flip, slope, resolution),
        player=which_player,
        swapped=swapped,
    )
