"""End-to-end CLI behavior: commands, exit codes, formats, configuration."""

import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import certificate_table, run_cli, stratum_game
from oracles import dense_candidate_pairs, per_play_certify, quadratic_dedup
from qgame import cli, equilibria
from qgame.equilibria import response_coefficients, verify_equilibrium
from qgame.game import Play, PreferenceProfile, QuantumGame
from qgame.gates import CNOT, LIBRARY, bell_state, load_gate_file, save_gate_file
from qgame.qcore import KET0, KET1, QubitState, check_unitary, random_unitary

PI = math.pi


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# -------------------------------------------------------------------- verify


def test_verify_equilibrium_play_exits_zero():
    code, out, err = run_cli(["verify", "cnot", "--play", "1", "0", "0", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["gate"] == "cnot"
    assert report["is_equilibrium"] is True
    assert report["payoffs"] == [1.57079632679, 0.0]  # 12 significant digits
    assert report["witness"] is None


def test_verify_ground_play_exits_one_with_witness():
    code, out, _ = run_cli(["verify", "cnot", "--play", "1", "0", "1", "0"])
    assert code == 1
    report = json.loads(out)
    assert report["is_equilibrium"] is False
    assert report["witness"]["player"] == 2
    wx, wy = report["witness"]["amplitudes"]
    assert math.hypot(*wy) == pytest.approx(1.0, abs=1e-12)
    assert math.hypot(*wx) == pytest.approx(0.0, abs=1e-12)


def test_verify_accepts_bloch_angles():
    code, out, _ = run_cli(["verify", "identity", "--bloch", "0,0", f"{PI},0"])
    assert code == 0
    assert json.loads(out)["is_equilibrium"] is True


def test_verify_accepts_parenthesized_negative_amplitudes():
    code, out, _ = run_cli(["verify", "cnot", "--play", "(-1+0j)", "0", "0", "1j"])
    assert code == 0
    assert json.loads(out)["is_equilibrium"] is True


def test_verify_requires_a_play():
    code, _, err = run_cli(["verify", "cnot"])
    assert code == 2
    assert "a play is required" in err


def test_verify_prefs_flag_changes_the_verdict():
    play = ["--play", "1", "0", "0", "1"]
    assert run_cli(["verify", "cnot"] + play)[0] == 0
    code, out, _ = run_cli(["verify", "cnot"] + play + ["--prefs", "1,0"])
    assert code == 1
    assert json.loads(out)["preferences"] == [1, 0]


def test_verify_rejects_far_from_normalized_amplitudes():
    code, _, err = run_cli(["verify", "cnot", "--play", "1", "1", "0", "1"])
    assert code == 2
    assert "refusing to guess" in err


def test_verify_renormalizes_tiny_drift_with_warning():
    x = repr(1.0 + 2e-8)
    code, out, err = run_cli(["verify", "cnot", "--play", x, "0", "0", "1"])
    assert code == 0
    assert "renormalizing" in err
    assert json.loads(out)["is_equilibrium"] is True


def test_verify_unknown_gate_exits_two():
    code, _, err = run_cli(["verify", "nosuch", "--play", "1", "0", "0", "1"])
    assert code == 2
    assert "known gates" in err


def test_verify_rejects_nonunitary_gate_file(tmp_path):
    matrix = [[[1.1 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    path = write_json(tmp_path / "bad.json", {"name": "bad", "matrix": matrix})
    code, _, err = run_cli(["verify", path, "--play", "1", "0", "0", "1"])
    assert code == 2
    assert "unitarity violated" in err


@pytest.mark.parametrize("tol", ["1e-11", "1e-12"])
def test_verify_certifies_a_ten_digit_bell_mechanism_file(tmp_path, tol):
    """1/sqrt(2) written to ten digits leaves a unitarity deviation of 3.8e-11, which loads and still certifies."""
    s = 0.7071067812
    rows = [[s, s, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [s, -s, 0, 0]]
    path = write_json(tmp_path / "bell10.json", {"name": "bell10", "matrix": [[[v, 0.0] for v in row] for row in rows]})
    code, out, err = run_cli(["verify", path, "--play", "1", "0", "1", "0", "--tol", tol])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["is_equilibrium"] is True
    assert report["witness"] is None


def test_verify_witness_of_a_tiny_pair_improves_below_1e_15(tmp_path):
    """Player one's pair at (|0>, |1>) is (0, 1e-16): at tol 1e-17 the witness is |1>, which reaches 1e-16, not the played |0>."""
    rows = [[1, 0, 0, 1e-16], [0, 1, 0, 0], [-1e-16, 0, 0, 1], [0, 0, 1, 0]]
    path = write_json(tmp_path / "tilted.json", {"name": "tilted_cnot", "matrix": [[[v, 0.0] for v in row] for row in rows]})
    code, out, _ = run_cli(["verify", path, "--play", "1", "0", "0", "1", "--tol", "1e-17"])
    report = json.loads(out)
    assert code == 1
    assert (report["achieved"][0], report["best"][0]) == (0.0, 1e-16)
    assert report["witness"] == {"player": 1, "amplitudes": [[0.0, 0.0], [1.0, 0.0]]}
    code, out, _ = run_cli(["verify", path, "--play", "0", "1", "0", "1", "--tol", "1e-17"])
    assert json.loads(out)["achieved"][0] == 1e-16  # the witness reaches player one's best
    assert run_cli(["verify", path, "--play", "1", "0", "0", "1", "--tol", "1e-15"])[0] == 0


def test_verify_bad_bloch_angle_exits_two():
    code, _, err = run_cli(["verify", "cnot", "--bloch", "4,0", "0,0"])
    assert code == 2
    assert "player one" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--bloch", "1", "0,0"], "argument --bloch: expected two comma-separated numbers, got '1'"),
        (["--bloch", "1,x", "0,0"], "argument --bloch: expected two comma-separated numbers, got '1,x'"),
        (["--bloch", "0,0", "0,0", "--prefs", "0,x"], "argument --prefs: expected two comma-separated indices, got '0,x'"),
        (["--bloch", "0,0", "0,0", "--prefs", "0,1,2"], "argument --prefs: expected two comma-separated indices, got '0,1,2'"),
        (["--play", "abc", "0", "1", "0"], "argument --play: 'abc' is not a complex literal (examples: 1, 0.5j, 0.6+0.8j)"),
        (["--play", "nan", "0", "1", "0"], "argument --play: amplitudes must be finite"),
    ],
    ids=["bloch-one-value", "bloch-not-a-number", "prefs-not-an-index", "prefs-three-values", "play-not-complex", "play-nan"],
)
def test_malformed_pair_exits_two_with_its_message(args, message):
    code, out, err = run_cli(["verify", "cnot", *args])
    assert code == 2
    assert out == ""
    assert err.endswith(f"qgame verify: error: {message}\n")


@pytest.mark.parametrize(
    "args, code",
    [
        (["verify", "cnot", "--bloch", "0,{phi}", "0,0"], 1),
        (["region", "cnot", "--play", "1", "0", "1", "0", "--deviation", "3.14159,{phi}"], 0),
    ],
    ids=["verify", "region"],
)
def test_tiny_negative_phi_folds_to_zero(args, code):
    """phi % 2 pi rounds a tiny negative angle up to 2 pi itself; it is read as 0, not rejected."""
    for phi in ("-1e-20", "-1e-17"):
        assert run_cli([a.format(phi=phi) for a in args]) == run_cli([a.format(phi="0") for a in args])
    assert run_cli([a.format(phi="-1e-20") for a in args])[0] == code


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "cnot", "--grid-theta", "2", "--grid-phi", "3"],
        ["verify", "cnot", "--play", "1", "0", "0", "1"],
        ["region", "cnot", "--play", "1", "0", "1", "0"],
        ["gates", "show", "cnot"],
        ["mechanism", "bell"],
    ],
    ids=lambda args: args[0],
)
def test_out_path_that_cannot_be_written_exits_two(tmp_path, args):
    code, out, err = run_cli(args + ["--out", str(tmp_path / "missing" / "x.json")])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and "Traceback" not in err


def test_verify_out_flag_writes_report_file(tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "cnot", "--play", "1", "0", "0", "1", "--out", str(path)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["is_equilibrium"] is True


# --------------------------------------------------------------- JSON output


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "bell_circuit", "--grid-theta", "13", "--grid-phi", "24"],
        ["verify", "cnot", "--play", "1", "0", "1", "0"],
        ["region", "cnot", "--play", "1", "0", "1", "0"],
        ["mechanism", "bell", "--mode", "strict"],
        ["mechanism", "bell", "--mode", "paper_bound"],
        ["gates", "list"],
        ["gates", "show", "bell_mechanism"],
    ],
    ids=lambda args: "-".join(args[:2]) + ("-" + args[-1] if args[0] == "mechanism" else ""),
)
def test_command_stdout_is_indented_json_dumps(args):
    """Every JSON command writes exactly what json.dumps(..., indent=2) would."""
    code, out, _ = run_cli(args)
    assert code in (0, 1) and out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def certificate_plays(g, rng, count):
    """Plays that give every certificate layout.

    count random plays (mostly player one's witness), as many with player
    one at a best response (player two's witness), the two eigenvector
    equilibria of K = conj(M1) M2^T, and basis plays with -0.0 parts.
    """
    u, (t1, t2) = g.u.mat, (g.prefs.player1_target, g.prefs.player2_target)
    m1, m2 = u[t1].reshape(2, 2), u[t2].reshape(2, 2)

    def unit(v):
        return v / np.linalg.norm(v)

    def random_state():
        return unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))

    a, b = [], []
    for _ in range(count):
        a.append(random_state())
        b.append(random_state())
        b.append(random_state())
        a.append(unit(np.conj(m1 @ b[-1])))
    for v in np.linalg.eig(np.conj(m1) @ m2.T)[1].T:
        a.append(unit(v))
        b.append(unit(np.conj(m2.T @ a[-1])))
    signed = np.array([[complex(1.0, -0.0), complex(-0.0, -0.0)], [complex(-0.0, 0.0), complex(-1.0, -0.0)]])
    a += [signed[0], signed[1]]
    b += [signed[1], signed[0]]
    return [Play(QubitState(x), QubitState(y)) for x, y in zip(a, b)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 6),
    tol=st.sampled_from([1e-9, 1e-6, 1e-2]),
    depth=st.integers(0, 3),
)
def test_certificate_template_matches_dict_writer(seed, count, tol, depth):
    """cmd_analyze's templated certificate list is json.dumps's text of _certificate_dict, at any nesting level."""
    rng = np.random.default_rng(seed)
    t1, t2 = rng.choice(4, size=2, replace=False).tolist()
    g = QuantumGame(random_unitary(rng), PreferenceProfile(t1, t2))
    certs = [verify_equilibrium(g, p, tol) for p in certificate_plays(g, rng, count)]
    indent = "\n" + "  " * depth
    dicts = [cli._certificate_dict(c) for c in certs]
    text = cli._certificates_text(*certificate_table(certs), indent)
    assert text == json.dumps(dicts, indent=2).replace("\n", indent)
    assert "-0.0" in text


def test_certificate_rows_give_every_layout():
    """The property above sees equilibria and both players' witnesses, in one list."""
    rng = np.random.default_rng(5)
    for prefs in [(0, 1), (3, 2), (1, 3)]:
        g = QuantumGame(random_unitary(rng), PreferenceProfile(*prefs))
        certs = [verify_equilibrium(g, p, 1e-9) for p in certificate_plays(g, rng, 4)]
        assert {c.witness_player for c in certs} == {None, 1, 2}
    assert cli._certificates_text(*certificate_table([]), "\n  ") == "[]"


def test_certificate_floats_keep_json_spellings(monkeypatch):
    """One batch holding -0.0, 0.0, NaN, +-inf, 5e-324 and 1e16 writes each as json.dumps does, and as repr in CSV."""
    play = Play(QubitState([complex(1.0, -0.0), complex(-0.0, 0.0)]), QubitState([complex(0.0, -0.0), complex(-1.0, 0.0)]))
    base = verify_equilibrium(QuantumGame(CNOT), play)
    witness = verify_equilibrium(QuantumGame(CNOT), Play(play.a, QubitState([1.0, 0.0])))
    assert base.is_equilibrium and witness.witness_player == 2
    specials = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16]
    fields = ("payoff1", "payoff2", "achieved1", "achieved2", "best1", "best2")
    certs = []
    for k in range(len(specials)):
        values = {name: specials[(k + n) % len(specials)] for n, name in enumerate(fields)}
        certs += [dataclasses.replace(base, **values), dataclasses.replace(witness, **values)]
    dicts = [cli._certificate_dict(c) for c in certs]
    text = cli._certificates_text(*certificate_table(certs), "\n  ")
    assert text == json.dumps(dicts, indent=2).replace("\n", "\n  ")
    for word in ("-0.0,", "0.0,", "NaN", "Infinity", "-Infinity", "5e-324", "1e+16"):
        assert word in text
    monkeypatch.setattr(cli, "_search_rows", lambda *args: certificate_table(certs))
    code, out, _ = run_cli(["analyze", "cnot", "--csv"])
    rows = out.splitlines()[1:]
    assert code == 0 and rows == [csv_row(c) for c in certs]
    cells = ",".join(rows).split(",")
    for word in ("-0.0", "0.0", "nan", "inf", "-inf", "5e-324", "1e+16"):
        assert word in cells


def csv_row(cert):
    """One certificate's analyze --csv row, written cell by cell from its attributes."""
    amps = [cert.play.a.x, cert.play.a.y, cert.play.b.x, cert.play.b.y]
    cells = [part for amp in amps for part in (amp.real, amp.imag)]
    cells += [cli._round_angle(cert.payoff1), cli._round_angle(cert.payoff2), cert.best1, cert.best2]
    return ",".join(map(repr, cells + [cert.achieved1, cert.achieved2]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 6), tol=st.sampled_from([1e-9, 1e-6, 1e-2]))
def test_analyze_csv_rows_are_each_certificates_repr_cells(seed, count, tol):
    """analyze --csv writes columns of the certificate float table: each certificate's own repr cells."""
    rng = np.random.default_rng(seed)
    t1, t2 = rng.choice(4, size=2, replace=False).tolist()
    g = QuantumGame(random_unitary(rng), PreferenceProfile(t1, t2))
    certs = [verify_equilibrium(g, p, tol) for p in certificate_plays(g, rng, count)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_search_rows", lambda *args: certificate_table(certs))
        code, out, _ = run_cli(["analyze", "cnot", "--csv", "--grid-theta", "2", "--grid-phi", "3"])
    assert code == 0 and out.splitlines()[1:] == [csv_row(c) for c in certs]
    assert "-0.0" in out


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_analyze_without_equilibria_for_an_odd_gate_name(tmp_path, fmt):
    """No certificates and a name holding the report's own key text: json.dumps's text, or a header alone.

    The game is rank (1, 1): its list is empty because its equilibrium families miss the grid's
    lattice, not because the grid misses a generic game's two isolated equilibria.  Its preferences
    are passed, since under the default (0, 1) the same file is another, generic game.
    """
    name = '"equilibria": [] \\" \\\\ \u00e9'
    path = tmp_path / "odd.json"
    g = stratum_game(np.random.default_rng(1018), "1,1 K=0")
    save_gate_file(path, name, g.u)
    prefs = f"{g.prefs.player1_target},{g.prefs.player2_target}"
    code, out, _ = run_cli(["analyze", str(path), "--prefs", prefs] + fmt)
    assert code == 0
    if fmt:
        assert len(out.splitlines()) == 1 and out.startswith("x1_re,")
    else:
        report = json.loads(out)
        assert report["gate"] == name and report["equilibria"] == [] and report["equilibrium_count"] == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


# ------------------------------------------------------------------- analyze


def test_analyze_json_report_structure():
    code, out, _ = run_cli(["analyze", "cnot", "--grid-theta", "13", "--grid-phi", "24"])
    assert code == 0
    report = json.loads(out)
    assert report["gate"] == "cnot"
    assert report["grid"] == {"theta_points": 13, "phi_points": 24}
    assert len(report["canonical_plays"]) == 4
    ground = report["canonical_plays"][0]
    assert ground["play"] == "(|0>, |0>)"
    assert ground["coefficients"] == {"p": 1.0, "q": 0.0, "p_prime": 0.0, "q_prime": 1.0}
    assert report["equilibrium_count"] == len(report["equilibria"])
    assert report["equilibrium_count"] > 0
    for cert in report["equilibria"]:
        assert cert["is_equilibrium"] is True
    best = [tuple(c["payoffs"]) for c in report["equilibria"]]
    assert any(abs(p1 - PI / 2) < 1e-9 and abs(p2) < 1e-9 for p1, p2 in best)


def test_analyze_basis_table_reads_certificates(tmp_path):
    """Each canonical play's payoffs, achieved and coefficients are its certificate's and response_coefficients', bit for bit.

    The ten-digit Bell file's first column has norm^2 1 + 4.6e-11, which the joint state
    U (a kron b) would renormalize; the certificate reads the column as written.
    """
    s = 0.7071067812
    rows = [[s, s, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [s, -s, 0, 0]]
    gates = sorted(LIBRARY) + [write_json(tmp_path / "bell10.json", {"name": "bell10", "matrix": [[[v, 0.0] for v in row] for row in rows]})]
    for seed in range(3):
        gates.append(str(tmp_path / f"haar{seed}.json"))
        save_gate_file(gates[-1], f"haar{seed}", random_unitary(np.random.default_rng(2090 + seed)))
    for gate in gates:
        unitary = LIBRARY[gate].unitary if gate in LIBRARY else load_gate_file(gate)[1]
        for t1, t2 in ((i, j) for i in range(4) for j in range(4) if i != j):
            code, out, _ = run_cli(["analyze", gate, "--prefs", f"{t1},{t2}", "--grid-theta", "2", "--grid-phi", "3"])
            assert code == 0
            game = QuantumGame(unitary, PreferenceProfile(t1, t2))
            for entry, (i, j) in zip(json.loads(out)["canonical_plays"], ((0, 0), (0, 1), (1, 0), (1, 1))):
                cert = verify_equilibrium(game, Play((KET0, KET1)[i], (KET0, KET1)[j]))
                expected = {
                    "play": f"(|{i}>, |{j}>)",
                    "payoffs": [cli._round_angle(cert.payoff1), cli._round_angle(cert.payoff2)],
                    "achieved": [cert.achieved1, cert.achieved2],
                    "coefficients": dataclasses.asdict(response_coefficients(game, cert.play)),
                }
                assert json.dumps(entry) == json.dumps(expected), (gate, t1, t2)


def test_analyze_csv_format():
    code, out, _ = run_cli(
        ["analyze", "cnot", "--grid-theta", "13", "--grid-phi", "24", "--csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "x1_re,x1_im,y1_re,y1_im,x2_re,x2_im,y2_re,y2_im,"
        "payoff1,payoff2,best1,best2,achieved1,achieved2"
    )
    assert len(lines) > 1
    for line in lines[1:]:
        assert len(line.split(",")) == 14


def test_analyze_runs_are_deterministic():
    args = ["analyze", "swap", "--grid-theta", "13", "--grid-phi", "24"]
    first = run_cli(args)
    second = run_cli(args)
    assert first == second


@pytest.mark.parametrize("gate", sorted(LIBRARY))
def test_analyze_output_matches_dense_scan_byte_for_byte(gate, monkeypatch):
    """The pruned scan, bucketed dedup and batched recertification change no byte of analyze's output."""
    runs = [["analyze", gate, "--grid-theta", "21", "--grid-phi", "40"] + fmt for fmt in ([], ["--csv"])]
    fast = [run_cli(args) for args in runs]
    monkeypatch.setattr(equilibria, "_candidate_pairs", dense_candidate_pairs)
    monkeypatch.setattr(equilibria, "_dedup_payoffs", quadratic_dedup)
    monkeypatch.setattr(equilibria, "_certify", per_play_certify)
    dense = [run_cli(args) for args in runs]
    assert fast == dense
    assert all(code == 0 and out for code, out, _ in fast)


def count_calls(monkeypatch, targets) -> list:
    """A list that gets the name of each call to the (module, name) functions of targets from now on."""
    calls = []
    for module, name in targets:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _name=name, _original=original: calls.append(_name) or _original(*args))
    return calls


def test_analyze_forms_only_what_its_report_prints(tmp_path, monkeypatch):
    """On analyze_random's 72 inputs an analyze op forms one eigenbasis and no grid, witness or coefficients record.

    Its six Haar gate files, drawn from seed 13040748, at each preference pair on the 41x80
    grid at the default tol: the search stops at player one's empty eigen-window set, and the
    basis table reads four contractions.  On the library gates, which keep every strategy,
    each search builds the grid once.
    """
    targets = [(equilibria, "_eigenvectors"), (equilibria, "_grid_amplitudes"), (equilibria, "_best_vector")]
    calls = count_calls(monkeypatch, targets + [(equilibria, "response_coefficients"), (cli, "response_coefficients")])
    rng = np.random.default_rng(13040748)
    for k in range(6):
        path = tmp_path / f"haar_{k}.json"
        save_gate_file(path, f"haar_{k}", random_unitary(rng))
        for t1, t2 in ALL_PREFS:
            calls.clear()
            code, out, _ = run_cli(["analyze", str(path), "--prefs", f"{t1},{t2}", "--grid-theta", "41", "--grid-phi", "80"])
            assert code == 0 and json.loads(out)["equilibrium_count"] == 0
            assert calls == ["_eigenvectors"]
    for gate in sorted(LIBRARY):
        for t1, t2 in ALL_PREFS:
            calls.clear()
            code, out, _ = run_cli(["analyze", gate, "--prefs", f"{t1},{t2}", "--grid-theta", "13", "--grid-phi", "24"])
            assert code == 0 and json.loads(out)["equilibrium_count"] > 0
            assert calls.count("_grid_amplitudes") == 1


@pytest.mark.parametrize("extra", [[], ["--tol", "1e-2"], ["--tol", "1e-2", "--prefs", "3,1"]])
def test_analyze_random_gate_stdout_is_byte_identical(tmp_path, extra):
    """On a Haar-random gate file, and at tol 1e-2 where reports are large, analyze writes json.dumps's text.

    Its CSV rows hold the same floats as the JSON certificates.
    """
    path = tmp_path / "haar.json"
    save_gate_file(path, "haar", random_unitary(np.random.default_rng(1018)))
    args = ["analyze", str(path), "--grid-theta", "21", "--grid-phi", "40"] + extra
    code, out, _ = run_cli(args)
    report = json.loads(out)
    assert code == 0 and (report["equilibrium_count"] > 200 or not extra)
    assert json.dumps(report, indent=2) + "\n" == out
    rows = []
    for cert in report["equilibria"]:
        (x1, y1), (x2, y2) = cert["play"]["player1"], cert["play"]["player2"]
        rows.append(",".join(repr(v) for v in [*x1, *y1, *x2, *y2, *cert["payoffs"], *cert["best"], *cert["achieved"]]))
    code, out, _ = run_cli(args + ["--csv"])
    assert code == 0 and out.splitlines()[1:] == rows


ALL_PREFS = [(i, j) for i in range(4) for j in range(4) if i != j]
# Pieces of gate names: JSON's escaped characters, control characters, non-ASCII text, lone
# surrogates, and text like the report templates' own %-slots and markers.
NAME_PIECES = ['"', "\\", "\x00", "\x1f", "\x7f", "é", "中", "\U0001f600", "\ud800", "\udfff", "%s", "%%", "1e+105"]


@settings(max_examples=60, deadline=None)
@given(
    name=st.lists(st.one_of(st.sampled_from(NAME_PIECES), st.text(max_size=4)), max_size=6).map("".join),
    gate=st.sampled_from(["haar", "cnot", "bell_circuit"]),
    seed=st.integers(0, 2**32 - 1),
    prefs=st.sampled_from(ALL_PREFS),
    tol=st.sampled_from([5e-324, 1e-9, 1e-2]),
    theta=st.integers(2, 13),
    phi=st.integers(2, 24),
)
def test_analyze_report_head_reads_back_its_inputs_and_certificates(tmp_path_factory, name, gate, seed, prefs, tol, theta, phi):
    """analyze's report is json.dumps's text, and its head holds the inputs, the basis plays' certificates and coefficients.

    A Haar gate or a library gate's matrix, written to a gate file under an odd name.
    """
    unitary = random_unitary(np.random.default_rng(seed)) if gate == "haar" else LIBRARY[gate].unitary
    path = tmp_path_factory.mktemp("gate") / "gate.json"
    save_gate_file(path, name, unitary)
    t1, t2 = prefs
    code, out, err = run_cli(["analyze", str(path), "--prefs", f"{t1},{t2}", "--tol", repr(tol), "--grid-theta", str(theta), "--grid-phi", str(phi)])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert json.dumps(report, indent=2) + "\n" == out
    game = QuantumGame(unitary, PreferenceProfile(t1, t2))
    canonical = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        cert = verify_equilibrium(game, Play((KET0, KET1)[i], (KET0, KET1)[j]), tol)
        canonical.append(
            {
                "play": f"(|{i}>, |{j}>)",
                "payoffs": [cli._round_angle(cert.payoff1), cli._round_angle(cert.payoff2)],
                "achieved": [cert.achieved1, cert.achieved2],
                "coefficients": dataclasses.asdict(response_coefficients(game, cert.play)),
            }
        )
    head = {
        "gate": json.loads(json.dumps(name)),  # as the gate file reads back: JSON joins a high and a low surrogate into one character
        "preferences": [t1, t2],
        "tolerance": tol,
        "grid": {"theta_points": theta, "phi_points": phi},
        "canonical_plays": canonical,
    }
    assert {key: report[key] for key in head} == head
    assert report["equilibrium_count"] == len(report["equilibria"])


def test_analyze_library_report_at_loose_tol_is_byte_identical():
    code, out, _ = run_cli(["analyze", "bell_mechanism", "--tol", "1e-2", "--grid-theta", "21", "--grid-phi", "40"])
    report = json.loads(out)
    assert code == 0 and report["equilibrium_count"] > 200
    assert json.dumps(report, indent=2) + "\n" == out


def test_parser_is_built_once_and_commands_are_looked_up_per_call(monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
    assert run_cli(["verify", "cnot", "--play", "1", "0", "0", "1"])[0] == 7


# -------------------------------------------------------------------- region


def test_region_json_forms_at_ground_play():
    code, out, _ = run_cli(["region", "cnot", "--play", "1", "0", "1", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["coefficients"] == {"p": 1.0, "q": 0.0, "p_prime": 0.0, "q_prime": 1.0}
    one, two = report["players"]
    assert (one["form"], one["slope"]) == ("primary", 0.0)
    assert (two["form"], two["slope"]) == ("swapped", 0.0)
    # default deviation |1>: player one's boundary hugs the axis, player
    # two's pins the full kept modulus
    assert all(v < 1e-12 for _, v in one["samples"])
    assert len(one["samples"]) == 101
    assert two["samples"] == [[0.0, 1.0]]


def test_region_csv_format():
    code, out, _ = run_cli(["region", "cnot", "--play", "1", "0", "1", "0", "--csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# player=1 case=31 form=primary")
    assert lines[1].startswith("# player=2 case=33 form=swapped")
    assert lines[2] == "h,v,case_pair,slope"
    rows = [line.split(",") for line in lines[3:]]
    assert all(len(r) == 4 for r in rows)
    assert {r[2] for r in rows} == {"31", "33"}


def test_region_degenerate_player_is_noted():
    code, out, _ = run_cli(["region", "cnot", "--play", "1", "0", "0", "1"])
    assert code == 0
    report = json.loads(out)
    one, two = report["players"]
    assert one["form"] == "degenerate"
    assert one["samples"] is None
    assert "vanish" in one["note"]
    assert two["form"] == "swapped"


def test_region_csv_degenerate_player_writes_no_samples():
    code, out, _ = run_cli(["region", "cnot", "--play", "1", "0", "0", "1", "--csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# player=1 case=31 form=degenerate slope=none"
    assert lines[1].startswith("# player=2 case=33 form=swapped slope=")
    assert lines[2] == "h,v,case_pair,slope"
    assert len(lines) > 3 and all(line.split(",")[2] == "33" for line in lines[3:])


def test_region_exits_two_when_all_coefficients_vanish():
    code, _, err = run_cli(["region", "cnot", "--play", "0", "1", "0", "1"])
    assert code == 2
    assert "no region to sample" in err


def test_region_case_pair_selection():
    code, out, _ = run_cli(
        ["region", "cnot", "--play", "1", "0", "1", "0", "--case-pair", "32,34"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["case_pair"] == [32, 34]
    assert [p["case"] for p in report["players"]] == [32, 34]


def test_region_rejects_unknown_case_pair():
    for text in ("31,32", "a,b"):  # a pair of one player's cases, and no pair of integers
        code, _, err = run_cli(["region", "cnot", "--play", "1", "0", "1", "0", "--case-pair", text])
        assert code == 2
        assert "case pair must be one of" in err


def test_region_custom_deviation_and_resolution():
    code, out, _ = run_cli(
        ["region", "cnot", "--play", "1", "0", "1", "0",
         "--deviation", "0,0", "--resolution", "11"]
    )
    assert code == 0
    one = json.loads(out)["players"][0]
    # deviation |0>: boundary line v = 1 - 0*h clipped to the disc
    assert one["samples"] == [[0.0, 1.0]]


# ----------------------------------------------------------------- mechanism


def test_mechanism_bell_strict_certifies():
    code, out, _ = run_cli(["mechanism", "bell"])
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "strict"
    assert report["certified"] is True
    assert report["fidelity"] >= 1.0 - 1e-12
    kinds = [(c["row"], c["col"], c["kind"]) for c in report["constraints"]]
    assert kinds == [
        (1, 1, "equals_value"),
        (2, 1, "equals_zero"),
        (3, 1, "equals_zero"),
        (4, 1, "equals_value"),
        (1, 3, "modulus_bound"),
    ]
    bound = [c for c in report["constraints"] if c["kind"] == "modulus_bound"][0]
    assert bound["bound_at_deviation"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_mechanism_strict_at_the_played_state_deviation_reports_no_bound():
    """Strict synthesis never reads the deviation; only the report's paper_bound cap, undefined there, is null."""
    code, out, err = run_cli(["mechanism", "bell", "--deviation", "0,0"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["certified"] is True
    assert [c["bound_at_deviation"] for c in report["constraints"] if c["kind"] == "modulus_bound"] == [None]
    assert report["unitary"] == json.loads(run_cli(["mechanism", "bell"])[1])["unitary"]


def test_mechanism_paper_bound_at_the_played_state_deviation_exits_two():
    """paper_bound synthesis needs the cap, which the deviation equal to the played basis state leaves undefined."""
    code, out, err = run_cli(["mechanism", "bell", "--mode", "paper_bound", "--deviation", "0,0"])
    assert (code, out) == (2, "")
    assert "deviation bound is undefined" in err


def test_mechanism_writes_gate_file(tmp_path):
    path = tmp_path / "mech.json"
    code, out, _ = run_cli(["mechanism", "bell", "--out", str(path)])
    assert code == 0
    name, unitary = load_gate_file(path)
    assert name == "bell_strict"
    assert check_unitary(unitary.mat)
    report = json.loads(out)
    rebuilt = np.array(
        [[complex(e[0], e[1]) for e in row] for row in report["unitary"]]
    )
    assert np.array_equal(unitary.mat, rebuilt)
    # the synthesized gate verifies as an equilibrium through the CLI too
    code, _, _ = run_cli(["verify", str(path), "--play", "1", "0", "1", "0"])
    assert code == 0


def test_mechanism_out_help_describes_the_gate_file(tmp_path):
    """mechanism's --out help names the gate file it writes; the report commands keep the shared text."""
    helps = {command: run_cli([command, "--help"]) for command in ("mechanism", "analyze", "verify", "region")}
    assert all(code == 0 for code, _, _ in helps.values())
    help_text = {command: " ".join(out.split()) for command, (_, out, _) in helps.items()}
    assert "--out OUT also write the synthesized unitary to this path as a gate file; the report still goes to stdout" in help_text.pop("mechanism")
    assert all("--out OUT write the report to this path instead of stdout" in text for text in help_text.values())
    path = tmp_path / "gate.json"
    code, out, _ = run_cli(["mechanism", "bell", "--out", str(path)])
    assert code == 0
    assert json.loads(out)["gate_file"] == str(path)  # the report itself went to stdout
    name, unitary = load_gate_file(path)
    assert name == "bell_strict"
    assert check_unitary(unitary.mat)


def test_mechanism_paper_bound_honest_failure(tmp_path):
    target = write_json(
        tmp_path / "target.json",
        {"name": "tilted", "amplitudes": [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    )
    code, out, _ = run_cli(["mechanism", target, "--mode", "paper_bound"])
    assert code == 1
    report = json.loads(out)
    assert report["certified"] is False
    assert report["fidelity"] >= 1.0 - 1e-12
    assert "deviation still improves" in report["note"]
    # strict mode closes the leak for the same target
    code, out, _ = run_cli(["mechanism", target, "--mode", "strict"])
    assert code == 0
    assert json.loads(out)["certified"] is True


def test_mechanism_rejects_bad_target(tmp_path):
    code, _, err = run_cli(["mechanism", "nosuchfile.json"])
    assert code == 2
    assert "neither 'bell' nor an existing amplitude file" in err
    bad = write_json(tmp_path / "bad.json", {"amplitudes": [[1.0, 0.0]] * 3})
    assert run_cli(["mechanism", bad])[0] == 2
    unnorm = write_json(
        tmp_path / "unnorm.json",
        {"amplitudes": [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    )
    code, _, err = run_cli(["mechanism", unnorm])
    assert code == 2
    assert "norm" in err
    broken = tmp_path / "broken.json"
    broken.write_text('{"amplitudes": [')
    code, _, err = run_cli(["mechanism", str(broken)])
    assert code == 2
    assert f"target file {broken} is not valid JSON" in err


# --------------------------------------------------------------------- gates


def test_gates_list():
    code, out, _ = run_cli(["gates", "list"])
    assert code == 0
    report = json.loads(out)
    names = [e["name"] for e in report]
    assert names == sorted(names)
    assert "cnot" in names and "bell_mechanism" in names
    assert all(e["description"] for e in report)


def test_gates_show_round_trips_cnot():
    code, out, _ = run_cli(["gates", "show", "cnot"])
    assert code == 0
    report = json.loads(out)
    assert report["name"] == "cnot"
    mat = np.array([[complex(e[0], e[1]) for e in row] for row in report["matrix"]])
    assert np.array_equal(mat, CNOT.mat)


def test_gates_show_unknown_exits_two():
    code, _, err = run_cli(["gates", "show", "nosuch"])
    assert code == 2
    assert "known gates" in err


def identity_entries(entry):
    """The identity matrix in gate-file form with its (0, 0) entry replaced."""
    rows = [[[1.0 if r == c else 0.0, 0.0] for c in range(4)] for r in range(4)]
    rows[0][0] = entry
    return rows


@pytest.mark.parametrize("entry", [[True, 0, "junk"], ["1.0", 0], [True, 0], [1.0], [1.0, 0.0, 0.0]])
def test_gate_file_with_non_number_pairs_exits_two(tmp_path, entry):
    path = write_json(tmp_path / "bad.json", {"name": "bad", "matrix": identity_entries(entry)})
    code, out, err = run_cli(["analyze", path, "--grid-theta", "3", "--grid-phi", "4"])
    assert (code, out) == (2, "")
    assert "[re, im] number pairs" in err


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda d: write_json(d / "gate.json", {"name": 5, "matrix": identity_entries([1.0, 0.0])}), "error: gate file 'name' must be a string\n"),
        (lambda d: str(d), "error: cannot read gate file "),
    ],
    ids=["name-not-a-string", "a-directory"],
)
def test_gate_file_that_cannot_be_used_exits_two(tmp_path, make, message):
    code, out, err = run_cli(["verify", make(tmp_path), "--play", "1", "0", "1", "0"])
    assert (code, out) == (2, "")
    assert err.startswith(message)


@pytest.mark.parametrize(
    "payload",
    [
        {"amplitudes": [[True, 0], [0, 0], [0, 0], [0, 0]], "name": ["x"]},
        {"amplitudes": [[True, 0], [0, 0], [0, 0], [0, 0]], "name": "x"},
        {"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]], "name": ["x"]},
        {"amplitudes": [["1.0", 0], [0, 0], [0, 0], [0, 0]]},
    ],
)
def test_mechanism_target_with_bad_fields_exits_two(tmp_path, payload):
    path = write_json(tmp_path / "target.json", payload)
    code, out, err = run_cli(["mechanism", path])
    assert (code, out) == (2, "")
    assert err.startswith("error: target")


def test_mechanism_target_accepts_int_amplitudes(tmp_path):
    path = write_json(tmp_path / "target.json", {"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]], "name": "ground"})
    code, out, _ = run_cli(["mechanism", path])
    assert code == 0
    assert json.loads(out)["target"] == "ground"


def test_gate_file_survives_show_and_reload(tmp_path):
    code, out, _ = run_cli(["gates", "show", "bell_mechanism"])
    path = tmp_path / "copy.json"
    path.write_text(out)
    name, unitary = load_gate_file(path)
    assert name == "bell_mechanism"
    assert np.array_equal(unitary.mat[:, 0], bell_state().vec)


# ------------------------------------------------------------- configuration


def test_config_file_sets_grid_and_format(tmp_path, monkeypatch):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"grid_theta": 13, "grid_phi": 24, "output_format": "csv"},
    )
    monkeypatch.setenv("QGAME_CONFIG", cfg)
    code, out, _ = run_cli(["analyze", "cnot"])
    assert code == 0
    assert out.startswith("x1_re,")


def test_config_flags_override_file(tmp_path, monkeypatch):
    cfg = write_json(tmp_path / "cfg.json", {"grid_theta": 13, "grid_phi": 24})
    monkeypatch.setenv("QGAME_CONFIG", cfg)
    code, out, _ = run_cli(["analyze", "cnot", "--grid-theta", "7"])
    assert code == 0
    assert json.loads(out)["grid"] == {"theta_points": 7, "phi_points": 24}


def test_config_prefs_field(tmp_path, monkeypatch):
    cfg = write_json(tmp_path / "cfg.json", {"prefs": [1, 0]})
    monkeypatch.setenv("QGAME_CONFIG", cfg)
    code, out, _ = run_cli(["verify", "cnot", "--play", "1", "0", "0", "1"])
    assert code == 1
    assert json.loads(out)["preferences"] == [1, 0]


def test_config_unknown_key_rejected(tmp_path, monkeypatch):
    cfg = write_json(tmp_path / "cfg.json", {"grid_thta": 13})
    monkeypatch.setenv("QGAME_CONFIG", cfg)
    code, _, err = run_cli(["verify", "cnot", "--play", "1", "0", "0", "1"])
    assert code == 2
    assert "unknown keys" in err and "grid_thta" in err


def test_config_invalid_value_rejected(tmp_path, monkeypatch):
    """The file's values are checked even where a flag overrides them."""
    cfg = write_json(tmp_path / "cfg.json", {"tolerance": 0.5})
    monkeypatch.setenv("QGAME_CONFIG", cfg)
    for flags in ([], ["--tol", "1e-9"]):
        code, _, err = run_cli(["verify", "cnot", "--play", "1", "0", "0", "1"] + flags)
        assert code == 2
        assert "tolerance" in err


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"grid_theta": "61"}, "grid_theta"),
        ({"tolerance": "1e-9"}, "tolerance"),
        ({"grid_phi": 40.5}, "grid_phi"),
        ({"prefs": [0, 1.7]}, "prefs"),
        ({"prefs": [True, 0]}, "prefs"),
        ({"prefs": [0, 1, 2]}, "prefs"),
        ({"prefs": "01"}, "prefs"),
        ({"prefs": None}, "prefs"),
        ({"output_format": "xml"}, "output_format"),
        ([{"tolerance": 1e-9}], "JSON object"),
    ],
)
def test_config_mistyped_value_rejected(tmp_path, monkeypatch, payload, key):
    cfg = write_json(tmp_path / "cfg.json", payload)
    monkeypatch.setenv("QGAME_CONFIG", cfg)
    code, out, err = run_cli(["verify", "cnot", "--play", "1", "0", "0", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and key in err


def test_config_oracle_keys_are_unknown(tmp_path, monkeypatch):
    cfg = write_json(tmp_path / "cfg.json", {"oracle_theta": 181, "oracle_phi": 360})
    monkeypatch.setenv("QGAME_CONFIG", cfg)
    code, _, err = run_cli(["verify", "cnot", "--play", "1", "0", "0", "1"])
    assert code == 2
    assert "unknown keys: oracle_phi, oracle_theta" in err


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "cnot", "--grid-theta", "5", "--grid-phi", "8", "--tol", "1e-6", "--prefs", "2,1", "--csv"],
        ["verify", "cnot", "--play", "1", "0", "0", "1"],
        ["region", "cnot", "--play", "1", "0", "1", "0", "--csv"],
        ["mechanism", "bell", "--prefs", "0,3"],
    ],
    ids=lambda args: args[0],
)
@pytest.mark.parametrize("config", [None, {"grid_theta": 13, "grid_phi": 24, "prefs": [1, 0]}], ids=["no-file", "file"])
def test_each_command_builds_one_run_config(tmp_path, monkeypatch, args, config):
    """One RunConfig per command; a QGAME_CONFIG file's own check adds the second."""
    if config is None:
        monkeypatch.delenv("QGAME_CONFIG", raising=False)
    else:
        monkeypatch.setenv("QGAME_CONFIG", write_json(tmp_path / "cfg.json", config))
    built, check = [], cli.RunConfig.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(cli.RunConfig, "__post_init__", counted)
    code, out, _ = run_cli(args)
    assert code in (0, 1) and out
    assert len(built) == (1 if config is None else 2)


def test_config_bad_json_rejected(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    monkeypatch.setenv("QGAME_CONFIG", str(path))
    code, _, err = run_cli(["verify", "cnot", "--play", "1", "0", "0", "1"])
    assert code == 2
    assert "not valid JSON" in err


# ------------------------------------------------------------------ entrypoint


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qgame", "gates", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)
