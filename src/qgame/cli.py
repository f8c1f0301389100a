"""Command line interface.

Commands:
  analyze GATE       payoff table at basis plays, coefficients, grid equilibrium search
  verify GATE        certify one play as an equilibrium (exit 1 when it is not)
  region GATE        sample deviation-inequality boundaries for both players
  mechanism TARGET   derive constraints, synthesize a unitary, certify it
  gates list/show    inspect the built-in gate library

GATE is a library name or a path to a JSON gate file.  The QGAME_CONFIG
environment variable may point to a JSON file holding RunConfig fields;
command line flags override it.  Exit status: 0 for success (including
"is an equilibrium" and "certified"), 1 for an honest negative result,
2 for invalid input or configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import operator
import os
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .equilibria import (
    CASE_PAIRS,
    DegenerateCoefficientError,
    EquilibriumCertificate,
    GridSpec,
    ResponseCoefficients,
    _search_rows,
    feasibility_region,
    response_coefficients,
    verify_equilibrium,
)
from .game import Play, PreferenceProfile, QuantumGame, StrategyParams, _modulus_payoff, _play_contraction, _target_matrices
from .gates import LIBRARY, _read_json_file, bell_state, complex_from_pairs, gate_to_json_dict, load_gate_file
from .mechanism import MechanismTarget, certify_mechanism, derive_constraints, synthesize_mechanism
from .qcore import KET0, KET1, GameUnitary, NormalizationError, QGameError, QubitState, TOL, TwoQubitState, _is_int, _wrap_rows

CONFIG_ENV_VAR = "QGAME_CONFIG"


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Run-wide knobs shared by the commands."""

    tolerance: float = TOL.equilibrium
    grid_theta: int = GridSpec.theta_points
    grid_phi: int = GridSpec.phi_points
    prefs: PreferenceProfile = field(default_factory=PreferenceProfile)
    output_format: str = "json"

    def __post_init__(self):
        if not (_is_real(self.tolerance) and 0.0 < self.tolerance <= 1e-2):
            raise ValueError(f"tolerance must be a number in (0, 1e-2], got {self.tolerance!r}")
        for name in ("grid_theta", "grid_phi"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 2):
                raise ValueError(f"{name} must be an integer of at least 2, got {value!r}")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"output_format must be 'json' or 'csv', got {self.output_format!r}")


def _config_from_args(args) -> RunConfig:
    """The command's RunConfig: defaults, the QGAME_CONFIG file's fields over them, then the flags given over those.

    It is built once, after a file's fields are checked alone as a RunConfig, so a bad value there is an error even where a flag overrides it.
    """
    kwargs = {}
    path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        kwargs = _read_json_file(path, "config file")
        if not isinstance(kwargs, dict):
            raise QGameError(f"config file {path} must hold a JSON object")
        unknown = set(kwargs) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise QGameError(f"config file {path} has unknown keys: {', '.join(sorted(unknown))}")
        if "prefs" in kwargs:
            try:
                first, second = kwargs["prefs"]
                kwargs["prefs"] = PreferenceProfile(first, second)
            except (TypeError, ValueError) as exc:
                raise QGameError(f"prefs must be two distinct outcome indices in 0..3: {exc}") from None
        RunConfig(**kwargs)
    for key, flag in (("tolerance", "tol"), ("grid_theta", "grid_theta"), ("grid_phi", "grid_phi")):
        if getattr(args, flag, None) is not None:
            kwargs[key] = getattr(args, flag)
    if getattr(args, "prefs", None) is not None:
        kwargs["prefs"] = PreferenceProfile(*args.prefs)
    if getattr(args, "csv", False):
        kwargs["output_format"] = "csv"
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# argument parsing helpers


def _complex_arg(text: str) -> complex:
    try:
        value = complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a complex literal (examples: 1, 0.5j, 0.6+0.8j)")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise argparse.ArgumentTypeError("amplitudes must be finite")
    return value


def _two_arg(convert, noun: str):
    """An argparse type reading 'A,B' as (convert(A), convert(B)); noun names the values in its error."""

    def parse(text: str) -> tuple:
        parts = text.split(",")
        try:
            if len(parts) == 2:
                return convert(parts[0]), convert(parts[1])
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected two comma-separated {noun}, got {text!r}")

    return parse


_pair_arg = _two_arg(float, "numbers")
_prefs_arg = _two_arg(int, "indices")


def _case_pair_arg(text: str) -> tuple[int, int]:
    try:
        pair = _prefs_arg(text)
    except argparse.ArgumentTypeError:
        pair = None
    if pair not in CASE_PAIRS:
        choices = "; ".join(f"{a},{b}" for a, b in CASE_PAIRS)
        raise argparse.ArgumentTypeError(f"case pair must be one of {choices}; got {text!r}")
    return pair


def _renormalized(vec: np.ndarray, who: str) -> np.ndarray:
    """vec scaled to unit norm, with a stderr warning for drift; too much drift is refused."""
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > TOL.amplitude_input:
        raise NormalizationError(
            f"{who} amplitudes have norm {norm!r}, more than {TOL.amplitude_input} from 1; refusing to guess"
        )
    if abs(norm - 1.0) > TOL.state_norm:
        print(f"warning: renormalizing {who} amplitudes (norm was {norm!r})", file=sys.stderr)
    return vec / norm


def _strategy_from_amplitudes(x: complex, y: complex, who: str) -> QubitState:
    return QubitState(_renormalized(np.array([x, y], dtype=complex), who))


def _bloch_strategy(pair: tuple[float, float], who: str) -> QubitState:
    theta, phi = pair
    phi = phi % (2.0 * math.pi)
    if phi == 2.0 * math.pi:  # a tiny negative angle rounds up to the period
        phi = 0.0
    try:
        return StrategyParams(theta, phi).to_state()
    except ValueError as exc:
        raise QGameError(f"{who}: {exc}") from None


def _parse_play(args) -> Play:
    if getattr(args, "play", None) is not None:
        x1, y1, x2, y2 = args.play
        return Play(
            _strategy_from_amplitudes(x1, y1, "player one"),
            _strategy_from_amplitudes(x2, y2, "player two"),
        )
    if getattr(args, "bloch", None) is not None:
        first, second = args.bloch
        return Play(_bloch_strategy(first, "player one"), _bloch_strategy(second, "player two"))
    raise QGameError("a play is required: pass --play X1 Y1 X2 Y2 or --bloch T1,P1 T2,P2")


def _game_args(args) -> tuple[RunConfig, str, QuantumGame]:
    """The command's RunConfig, its gate's name, and the game of that gate at the config's preferences."""
    cfg = _config_from_args(args)
    name, unitary = _resolve_gate(args.gate)
    return cfg, name, QuantumGame(unitary, cfg.prefs)


def _resolve_gate(token: str) -> tuple[str, GameUnitary]:
    if token in LIBRARY:
        entry = LIBRARY[token]
        return entry.name, entry.unitary
    if Path(token).exists():
        return load_gate_file(token)
    raise QGameError(
        f"gate {token!r} is neither a library gate nor an existing file; "
        f"known gates: {', '.join(sorted(LIBRARY))}"
    )


# ---------------------------------------------------------------------------
# report serialization


def _round_angle(x: float) -> float:
    # Angle outputs carry 12 significant digits; amplitudes stay full width.
    return float(f"{x:.12g}")


def _state_pairs(s: QubitState) -> list[list[float]]:
    return [[float(s.vec[i].real), float(s.vec[i].imag)] for i in range(2)]


def _play_dict(p: Play) -> dict:
    return {"player1": _state_pairs(p.a), "player2": _state_pairs(p.b)}


def _certificate_dict(cert: EquilibriumCertificate) -> dict:
    report = {
        "play": _play_dict(cert.play),
        "payoffs": [_round_angle(cert.payoff1), _round_angle(cert.payoff2)],
        "achieved": [cert.achieved1, cert.achieved2],
        "best": [cert.best1, cert.best2],
        "is_equilibrium": cert.is_equilibrium,
        "witness": None,
    }
    if cert.witness is not None:
        report["witness"] = {"player": cert.witness_player, "amplitudes": _state_pairs(cert.witness)}
    return report


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise QGameError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


# json.dumps's spelling of the floats whose float.__repr__ is not JSON.
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _emit_json(report, out_path: str | None) -> None:
    _emit(json.dumps(report, indent=2) + "\n", out_path)


def _float_texts(floats: list) -> list[str]:
    """json.dumps's text of each of floats, a non-empty list of Python floats, from one repr of the list."""
    joined = repr(floats)[1:-1]
    texts = joined.split(", ")
    if "n" in joined:  # nan or inf, which JSON spells otherwise
        texts = [_JSON_FLOATS.get(text, text) for text in texts]
    return texts


def _coefficients_dict(c: ResponseCoefficients) -> dict:
    """c's fields by name, in field order, as analyze's basis table and region write them."""
    return {"p": c.p, "q": c.q, "p_prime": c.p_prime, "q_prime": c.q_prime}


# A marker report's value k is the float 1e+1kk, which no other text of a marker report holds.
_MARKER = re.compile(r"1e\+1(\d\d)")


@functools.cache
def _marker_template(layout, indent: str, *key) -> tuple[str, operator.itemgetter]:
    """%-template of json.dumps's text of the report layout(markers, *key) at a nesting indent, and a getter of its values.

    markers[k] is the float 1e1kk, and layout places each of its values at a
    marker.  The template is json.dumps's text of that report, indent=2,
    indented to the nesting level, with a %s for each marker, so it has the
    layout's text by construction.  The getter takes a report's values in
    marker order and gives them in the template's order.
    """
    markers = [float(f"1e1{k:02d}") for k in range(40)]  # as many as the largest layout, the report, holds
    text = json.dumps(layout(markers, *key), indent=2).replace("\n", indent)
    return _MARKER.sub("%s", text), operator.itemgetter(*map(int, _MARKER.findall(text)))


def _certificate_markers(m: list, is_equilibrium: bool, witness: bool, witness_player) -> dict:
    """_certificate_dict of the certificate of the given layout whose 18 floats are m[0:18], in _certificate_floats' order.

    Its states hold m[0:12] unchecked, as _certificate_dict reads only their vectors; the scalars follow by position.
    """
    a, b, w = _wrap_rows(QubitState, np.array(m[:12]).view(complex).reshape(3, 2))
    return _certificate_dict(EquilibriumCertificate(Play(a, b), *m[12:18], is_equilibrium, w if witness else None, witness_player))


def _analyze_markers(m: list) -> dict:
    """analyze's JSON report whose values are m[0:40], in the order cmd_analyze lists them.

    The gate's name, both preferences, the tolerance, both grid sizes, then
    per basis play its rounded payoffs, achieved and coefficients, then the
    equilibria and their count.
    """
    plays = ((0, 0), (0, 1), (1, 0), (1, 1))
    return {
        "gate": m[0],
        "preferences": [m[1], m[2]],
        "tolerance": m[3],
        "grid": {"theta_points": m[4], "phi_points": m[5]},
        "canonical_plays": [
            {
                "play": f"(|{i}>, |{j}>)",
                "payoffs": [m[k], m[k + 1]],
                "achieved": [m[k + 2], m[k + 3]],
                "coefficients": _coefficients_dict(ResponseCoefficients(*m[k + 4 : k + 8])),
            }
            for k, (i, j) in zip(range(6, 38, 8), plays)
        ],
        "equilibria": m[38],
        "equilibrium_count": m[39],
    }


def _certificate_floats(a: np.ndarray, b: np.ndarray, rows: list[tuple]) -> np.ndarray:
    """(n, 18) floats _certificate_dict writes of the plays (a[k], b[k]) with _certify fields rows[k], in the markers' order.

    The amplitude parts of player one, player two and the witness (zeros
    when there is none), then the rounded payoffs, achieved and best.
    """
    witnesses = np.zeros_like(a)
    for k, row in enumerate(rows):
        if row[7] is not None:  # the witness vector
            witnesses[k] = row[7]
    scalars = np.array([(_round_angle(r[0]), _round_angle(r[1]), *r[2:6]) for r in rows], dtype=float).reshape(-1, 6)  # (0, 6) when empty
    return np.concatenate([a.view(float), b.view(float), witnesses.view(float), scalars], axis=1)


def _certificates_text(a: np.ndarray, b: np.ndarray, rows: list[tuple], indent: str) -> str:
    """json.dumps of the _certificate_dict list of the plays (a[k], b[k]) with _certify fields rows[k], indent=2, at a nesting indent.

    The templates of all certificates are joined and filled by one %.  The
    floats of all of them are written in one repr of a list that holds each
    distinct bit pattern once, so -0.0 and 0.0 keep their own texts.
    """
    if not rows:
        return "[]"
    floats = _certificate_floats(a, b, rows)
    distinct, inverse = np.unique(floats.view(np.int64).ravel(), return_inverse=True)
    texts = _float_texts(distinct.view(float).tolist())
    cells = np.array(texts, dtype=object)[inverse.reshape(floats.shape)].tolist()
    inner = indent + "  "
    templates, values = [], []
    for row, row_cells in zip(rows, cells):
        template, fields = _marker_template(_certificate_markers, inner, row[6], row[7] is not None, row[8])
        templates.append(template)
        values += fields(row_cells)
    return "[" + inner + ("," + inner).join(templates) % tuple(values) + indent + "]"


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> int:
    """Payoff table and coefficients at the four basis plays, then the grid search's certificates.

    The JSON report is json.dumps(report, indent=2) byte for byte, with no
    report dict: it fills the cached template of _analyze_markers' text.
    Each basis play's row is its one _play_contraction, with no witness:
    its certificate's payoffs and achieved moduli, and the moduli of its
    pairs, its response_coefficients.  The gate's name fills its slot as
    json.dumps(name), so it never meets a marker.  The equilibria list,
    nearly all of a large report, is written from the search's rows, with
    no certificate or dict: _certificates_text fills each one's cached
    template of the text of _certificate_dict.  Each part's floats are
    formatted in one batch.  The CSV rows are columns of the same float
    table, _certificate_floats.
    """
    cfg, name, game = _game_args(args)
    a, b, rows = _search_rows(game, GridSpec(cfg.grid_theta, cfg.grid_phi), cfg.tolerance)

    if cfg.output_format == "csv":
        # Player one's and two's amplitude parts, then payoffs, best and achieved.
        cells = _certificate_floats(a, b, rows)[:, [*range(8), 12, 13, 16, 17, 14, 15]].tolist()
        lines = ["x1_re,x1_im,y1_re,y1_im,x2_re,x2_im,y2_re,y2_im,payoff1,payoff2,best1,best2,achieved1,achieved2"]
        lines += [",".join(map(repr, row)) for row in cells]
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    (m1, m2t), basis = _target_matrices(game), (KET0.vec.tolist(), KET1.vec.tolist())
    floats = [cfg.tolerance]
    for (p, q), (p_prime, q_prime), achieved1, achieved2 in (_play_contraction(m1, m2t, x, y) for x in basis for y in basis):
        floats += [_round_angle(_modulus_payoff(achieved1)), _round_angle(_modulus_payoff(achieved2)), achieved1, achieved2, abs(p), abs(q), abs(p_prime), abs(q_prime)]
    texts = _float_texts(floats)
    values = [json.dumps(name), cfg.prefs.player1_target, cfg.prefs.player2_target, texts[0], cfg.grid_theta, cfg.grid_phi]
    values += [*texts[1:], _certificates_text(a, b, rows, "\n  "), len(rows)]
    template, fields = _marker_template(_analyze_markers, "\n")
    _emit((template + "\n") % fields(values), args.out)  # one copy of a large report, not two
    return 0


def cmd_verify(args) -> int:
    cfg, name, game = _game_args(args)
    play = _parse_play(args)
    cert = verify_equilibrium(game, play, cfg.tolerance)

    report = {
        "gate": name,
        "preferences": [cfg.prefs.player1_target, cfg.prefs.player2_target],
        "tolerance": cfg.tolerance,
    }
    report.update(_certificate_dict(cert))
    _emit_json(report, args.out)
    return 0 if cert.is_equilibrium else 1


def cmd_region(args) -> int:
    cfg, name, game = _game_args(args)
    play = _parse_play(args)
    deviation = _bloch_strategy(args.deviation, "deviation")
    coeffs = response_coefficients(game, play)

    players = []
    for player, case in zip((1, 2), args.case_pair):
        info = {"player": player, "case": case}
        for swapped in (False, True):  # the primary form unless its p-side is degenerate
            try:
                region = feasibility_region(coeffs, player, deviation, args.resolution, swapped)
            except DegenerateCoefficientError:
                continue
            info.update(form="swapped" if swapped else "primary", slope=region.slope, samples=[list(s) for s in region.samples])
            break
        else:
            info.update(form="degenerate", slope=None, samples=None,
                        note="both coefficients vanish; every play satisfies the inequality")
        players.append(info)

    if all(info["form"] == "degenerate" for info in players):
        print("error: all response coefficients vanish at this play; no region to sample", file=sys.stderr)
        return 2

    if cfg.output_format == "csv":
        lines = []
        for info in players:
            slope_text = "none" if info["slope"] is None else repr(info["slope"])
            lines.append(f"# player={info['player']} case={info['case']} form={info['form']} slope={slope_text}")
        lines.append("h,v,case_pair,slope")
        for info in players:
            if info["samples"] is None:
                continue
            for h, v in info["samples"]:
                lines.append(f"{h!r},{v!r},{info['case']},{info['slope']!r}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    report = {
        "gate": name,
        "case_pair": list(args.case_pair),
        "deviation": _state_pairs(deviation),
        "coefficients": _coefficients_dict(coeffs),
        "players": players,
    }
    _emit_json(report, args.out)
    return 0


def _load_target_state(token: str) -> tuple[str, TwoQubitState]:
    if token == "bell":
        return "bell", bell_state()
    path = Path(token)
    if not path.exists():
        raise QGameError(f"mechanism target {token!r} is neither 'bell' nor an existing amplitude file")
    data = _read_json_file(token, "target file")
    amplitudes = data.get("amplitudes") if isinstance(data, dict) else data
    name = data.get("name", path.stem) if isinstance(data, dict) else path.stem
    if not isinstance(name, str):
        raise QGameError("target file 'name' must be a string")
    if not (isinstance(amplitudes, list) and len(amplitudes) == 4):
        raise QGameError("target file must hold four [re, im] amplitude pairs under 'amplitudes'")
    vec = np.array(complex_from_pairs(amplitudes, "target amplitudes"), dtype=complex)
    return name, TwoQubitState(_renormalized(vec, "target"))


def cmd_mechanism(args) -> int:
    cfg = _config_from_args(args)
    target_name, target_state = _load_target_state(args.target)
    target = MechanismTarget(target_state, prefs=cfg.prefs)
    deviation = _bloch_strategy(args.deviation, "deviation")

    constraints = derive_constraints(target)
    unitary = synthesize_mechanism(target, args.mode, deviation)
    result = certify_mechanism(unitary, target, cfg.tolerance)

    constraint_reports = []
    for c in constraints:
        entry = {"row": c.row, "col": c.col, "kind": c.kind, "description": c.description}
        if c.value is not None:
            entry["value"] = [c.value.real, c.value.imag]
        if c.bound is not None:
            try:
                entry["bound_at_deviation"] = c.bound(abs(deviation.x), abs(deviation.y))
            except ValueError:  # the deviation is the played basis state; only paper_bound synthesis needs the cap
                entry["bound_at_deviation"] = None
        constraint_reports.append(entry)

    gate = gate_to_json_dict(f"{target_name}_{args.mode}", unitary)
    if args.out:
        _emit_json(gate, args.out)

    report = {
        "target": target_name,
        "mode": args.mode,
        "preferences": [cfg.prefs.player1_target, cfg.prefs.player2_target],
        "deviation": _state_pairs(deviation),
        "constraints": constraint_reports,
        "unitary": gate["matrix"],
        "fidelity": result.fidelity,
        "certificate": _certificate_dict(result.certificate),
        "certified": result.certified,
        "gate_file": args.out,
    }
    if not result.certified:
        report["note"] = "the synthesized unitary reaches the target but some deviation still improves a player"
    _emit_json(report, None)
    return 0 if result.certified else 1


def cmd_gates(args) -> int:
    if args.gates_command == "list":
        report = [{"name": e.name, "description": e.description} for _, e in sorted(LIBRARY.items())]
        _emit_json(report, args.out)
        return 0
    entry_name, unitary = _resolve_gate(args.name)
    _emit_json(gate_to_json_dict(entry_name, unitary), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgame", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=False, csv=False, out="write the report to this path instead of stdout"):
        p.add_argument("--tol", type=float, help="equilibrium slack, default 1e-9")
        p.add_argument("--prefs", type=_prefs_arg, metavar="I,J", help="preferred outcomes, default 0,1")
        p.add_argument("--out", help=out)
        if grid:
            p.add_argument("--grid-theta", type=int, help="theta samples for the search grid")
            p.add_argument("--grid-phi", type=int, help="phi samples for the search grid")
        if csv:
            p.add_argument("--csv", action="store_true", help="emit tabular CSV instead of JSON")

    def play_args(p):
        p.add_argument("--play", nargs=4, type=_complex_arg, metavar=("X1", "Y1", "X2", "Y2"),
                       help="raw strategy amplitudes, player one then player two; "
                            "wrap values with a leading minus in parentheses, e.g. (-1+0j)")
        p.add_argument("--bloch", nargs=2, type=_pair_arg, metavar=("T1,P1", "T2,P2"),
                       help="strategies as Bloch angle pairs theta,phi")

    p = sub.add_parser("analyze", help="payoff table, coefficients, and grid equilibrium search")
    p.add_argument("gate", help="library gate name or gate file path")
    common(p, grid=True, csv=True)

    p = sub.add_parser("verify", help="certify one play; exit 1 when it is not an equilibrium")
    p.add_argument("gate")
    play_args(p)
    common(p)

    p = sub.add_parser("region", help="sample deviation-inequality feasibility boundaries")
    p.add_argument("gate")
    play_args(p)
    p.add_argument("--case-pair", type=_case_pair_arg, default=(31, 33), metavar="A,B",
                   help="inequality directions per player, default 31,33")
    p.add_argument("--deviation", type=_pair_arg, default=(math.pi, 0.0), metavar="T,P",
                   help="deviation as Bloch angles theta,phi; default pi,0")
    p.add_argument("--resolution", type=int, default=101, help="boundary samples across [0, 1]")
    common(p, csv=True)

    p = sub.add_parser("mechanism", help="derive constraints, synthesize, and certify a mechanism")
    p.add_argument("target", help="'bell' or a JSON file with four [re, im] amplitude pairs")
    p.add_argument("--mode", choices=("strict", "paper_bound"), default="strict")
    p.add_argument("--deviation", type=_pair_arg, default=(math.pi, 0.0), metavar="T,P",
                   help="deviation the paper_bound cap is evaluated at; default pi,0")
    common(p, out="also write the synthesized unitary to this path as a gate file; the report still goes to stdout")

    p = sub.add_parser("gates", help="inspect the built-in gate library")
    gates_sub = p.add_subparsers(dest="gates_command", required=True)
    lp = gates_sub.add_parser("list", help="list library gates")
    lp.add_argument("--out")
    sp = gates_sub.add_parser("show", help="print one gate in gate-file JSON")
    sp.add_argument("name")
    sp.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up on each call, not stored in the parser built once, so a wrapped cmd_* function runs.
    commands = {"analyze": cmd_analyze, "verify": cmd_verify, "region": cmd_region,
                "mechanism": cmd_mechanism, "gates": cmd_gates}
    try:
        return commands[args.command](args)
    except (QGameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
