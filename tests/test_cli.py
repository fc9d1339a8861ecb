import argparse
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncjoin
from ncjoin import corpus, dual, fileio, gns, joinings
from ncjoin.algebra import (GroupDescriptor, cyclic_rotation_system, identity_system,
                            validate_system)
from ncjoin.cli import build_parser, emit_report, main, run
from ncjoin.errors import InputFormatError
from ncjoin.joinings import residual_magnitude


# ---------------------------------------------------------------------------
# file formats


def test_system_roundtrip(tmp_path):
    for name in corpus.FINITE_SYSTEMS:
        sysd = corpus.system(name)
        data = fileio.dump_system(sysd)
        back = fileio.load_system(data)
        assert back.structure.block_sizes == sysd.structure.block_sizes
        assert back.group.kind == sysd.group.kind
        for b1, b2 in zip(back.state.density.blocks, sysd.state.density.blocks):
            assert np.allclose(b1, b2)
        for g1, g2 in zip(back.generators, sysd.generators):
            assert g1.block_perm == g2.block_perm
            for u1, u2 in zip(g1.conjugator.blocks, g2.conjugator.blocks):
                assert np.allclose(u1, u2)


def test_zm_system_roundtrip():
    sysd = identity_system((1, 2), GroupDescriptor("Zm", m=3))
    data = fileio.dump_system(sysd)
    assert data["group"] == {"kind": "Zm", "m": 3}
    back = fileio.load_system(data)
    assert back.group == sysd.group and fileio.dump_system(back) == data


def test_matrix_entries_accept_bare_numbers():
    m = fileio.matrix_from_json([[1, 0], [0, [0, 1]]])
    assert m[1, 1] == 1j


def test_mixed_rows_read_like_pairs():
    pairs = fileio.matrix_from_json([[[0.5, 0], [0, -0.25]], [[0, 0.25], [0.5, 0]]])
    mixed = fileio.matrix_from_json([[0.5, [0, -0.25]], [[0, 0.25], 0.5]])
    assert np.array_equal(mixed, pairs) and mixed.dtype == complex


def test_matrix_conversion_keeps_every_bit():
    x = np.random.default_rng(7).standard_normal((3, 3, 2))
    x[0, 0] = -0.0
    m = fileio.matrix_from_json(x.tolist())
    assert np.array_equal(m.view(float).reshape(3, 3, 2), x)
    assert np.signbit(m[0, 0].real) and np.signbit(m[0, 0].imag)


NAN, INF = float("nan"), float("inf")
# (kind, a value for c2's 2×2 density, message)
MALFORMED_MATRICES = [
    ("nan-pair", [[[NAN, 0], [0, 0]], [[0, 0], [0.5, 0]]], "not finite"),
    ("nan-bare", [[0.5, 0], [0, NAN]], "not finite"),
    ("infinity-imaginary", [[[0.5, -INF], [0, 0]], [[0, 0], [0.5, 0]]], "not finite"),
    ("string-entry", [[[0.5, 0], [0, 0]], [[0, 0], ["0.5", 0]]], "numbers"),
    ("string-pair", [["0.5", [0, 0]], [[0, 0], [0.5, 0]]], "numbers"),
    ("null-entry", [[0.5, None], [0, 0.5]], "numbers"),
    ("object-entry", [[0.5, {"re": 0}], [0, 0.5]], "numbers"),
    ("beyond-float", [[10 ** 400, 0], [0, 0.5]], "numbers"),
    ("string-matrix", "identity", "numbers"),
    ("ragged-rows", [[0.5, 0], [0.5]], "malformed"),
    ("row-not-a-list", [[0.5, 0], 0.5], "malformed"),
    ("three-part-entry", [[[0.5, 0, 0], [0, 0, 0]], [[0, 0, 0], [0.5, 0, 0]]], "square"),
    ("not-square", [[0.5, 0, 0], [0, 0.5, 0]], "square"),
    ("one-row-of-pairs", [[[0.5, 0], [0.5, 0]]], "square"),
    ("number", 0.5, "square"),
    ("empty", [], "square"),
    ("boolean-matrix", [[True, False], [False, True]], "got True"),
    ("boolean-among-floats", [[0.5, 0], [True, 0.5]], "got True"),
    ("boolean-half-of-pair", [[[0.5, False], [0, 0]], [[0, 0], [0.5, 0]]], "0.5, False"),
]


@pytest.mark.parametrize("kind,matrix,message", MALFORMED_MATRICES,
                         ids=[k for k, _, _ in MALFORMED_MATRICES])
def test_malformed_matrices_exit_2(tmp_path, capsys, kind, matrix, message):
    with pytest.raises(InputFormatError, match=message):
        fileio.matrix_from_json(matrix)
    data = corpus.raw("c2")
    data["state"]["density"] = matrix
    p = tmp_path / "matrix.json"
    p.write_text(json.dumps(data))
    assert main(["classify", "--system", str(p)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "ornstein --system {} --window 0..16",
    "joinings diagonal --system {} --graph-n 1",
    "joinings disjoint --a {} --b corpus:c3",
])
def test_z_to_the_one_file_reads_as_z(tmp_path, command):
    """A system file that declares Zk with k = 1 acts by Z: every command
    that needs a Z action, or the group of corpus:c3, accepts it."""
    data = corpus.raw("c3")
    data["group"] = {"kind": "Zk", "k": 1}
    p = tmp_path / "c3_zk1.json"
    p.write_text(json.dumps(data))
    report, code = run(command.format(p).split())
    expected, expected_code = run(command.format("corpus:c3").split())
    assert (code, expected_code) == (0, 0)
    assert emit_report(report["results"], "json") == emit_report(expected["results"], "json")


def test_corpus_integrity():
    for name in corpus.FINITE_SYSTEMS:
        assert validate_system(corpus.system(name)).valid, name
    for name in corpus.DUAL_SYSTEMS:
        corpus.dual(name)   # raises on malformed content


def test_dual_file_with_h_cycles(tmp_path):
    data = {
        "family": "finperm",
        "tracks": [{"id": "x", "kind": "shift"}],
        "h": {"cycles": [["p", "q", "r"]]},
    }
    sysd = dual.load_dual(data)
    kinds = {(t.id, t.kind, t.m) for t in sysd.spec.tracks}
    assert ("ha", "cycle", 3) in kinds
    assert [sysd.format(sysd.parse(f"({x} {y})")) for x, y in ("pq", "qr", "rp")] == [
        "(ha0 ha1)", "(ha1 ha2)", "(ha0 ha2)"]
    g = sysd.parse("(p q)")
    cert = sysd.orbit_length(g)
    assert cert.kind == "finite"


H_FILE = {"family": "finperm", "tracks": [{"id": "x", "kind": "shift"}],
          "h": {"cycles": [["i", "j", "k"], ["d", "e"]]}}


@pytest.mark.parametrize("options,named,lettered", [
    (["dual", "correlations", "--b", "(i j)", "--n", "0..3", "--a"],
     "2i * (i j)", "2i * (ha0 ha1)"),
    (["dual", "ornstein", "--window", "0..5", "--elements"],
     "1/2i * (i j) | (i k)", "1/2i * (ha0 ha1) | (ha0 ha2)"),
    (["dual", "orbit", "--word"], "e", "id"),
])
def test_h_names_are_letters_not_text(tmp_path, options, named, lettered):
    """An 'h' name stands for its letter only where a permutation names a
    letter: the coefficients 2i and 1/2i keep their imaginary unit beside a
    letter named i, and "e" stays the identity beside a letter named e."""
    p = tmp_path / "h.json"
    p.write_text(json.dumps(H_FILE))
    named_report, named_code = run(options + [named, "--group", str(p)])
    lettered_report, lettered_code = run(options + [lettered, "--group", str(p)])
    assert (named_code, lettered_code) == (0, 0), named_report
    assert named_report["results"] == lettered_report["results"]


def test_dual_file_rejects_h_for_free():
    with pytest.raises(InputFormatError):
        dual.load_dual({"family": "free", "tracks": [], "h": {"cycles": [["a", "b"]]}})


@pytest.mark.parametrize("data,message", [
    ({"family": "free", "tracks": [{"id": "x", "kind": "spiral"}]},
     "malformed track {'id': 'x', 'kind': 'spiral'}: unknown track kind 'spiral'"),
    ({"family": "bogus", "tracks": []}, "family must be 'free' or 'finperm', got 'bogus'"),
    ({"tracks": []}, "family must be 'free' or 'finperm', got None"),
    ({"family": "finperm", "tracks": [], "h": {"cycles": [["p", "p"]]}},
     "letter 'p' appears twice in one 'h' cycle"),
    ({"family": "finperm", "tracks": [], "h": {"cycles": [["p", "q"], ["r", "s", "r"]]}},
     "letter 'r' appears twice in one 'h' cycle"),
    ({"family": "finperm", "tracks": [{"id": "x", "kind": "shift", "m": "junk"}]},
     "malformed track {'id': 'x', 'kind': 'shift', 'm': 'junk'}: "
     "shift track 'x' takes no length m"),
    ({"family": "free", "tracks": [{"id": "x", "kind": "shift", "m": 3}]},
     "malformed track {'id': 'x', 'kind': 'shift', 'm': 3}: shift track 'x' takes no length m"),
])
def test_dual_file_errors_name_the_first_fault(data, message):
    """Every track error carries the track; the family is checked before the tracks."""
    with pytest.raises(InputFormatError) as exc:
        dual.load_dual(data)
    assert str(exc.value) == message


def test_malformed_system_reports(tmp_path):
    with pytest.raises(InputFormatError):
        fileio.load_system({"blocks": [0], "state": {"density": [[1]]}})
    with pytest.raises(InputFormatError):
        fileio.load_system({"blocks": [2], "state": {"density": [[1, 0], [0, 0]]},
                            "group": {"kind": "weird"}, "generators": []})


# ---------------------------------------------------------------------------
# commands


def test_classify_command_exit_and_content(capsys):
    code = main(["classify", "--system", "corpus:c5", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["classification"]["ergodic"] is True
    assert report["results"]["classification"]["h0_dimension"] == 5
    assert report["status"] == "ok"


def test_json_report_roundtrips(capsys):
    code = main(["dual", "classify", "--group", "corpus:dual_shift", "--format", "json"])
    assert code == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert json.loads(emit_report(report, "json")) == report


@pytest.mark.parametrize("argv,key,result_type,element_type", [
    (["classify", "--system", "corpus:c3"], "classification", gns.Classification, None),
    (["dual", "classify", "--group", "corpus:dual_finperm_shift"], None,
     dual.DualClassification, None),
    (["ornstein", "--system", "corpus:c3", "--window", "0..4", "--elements", "0,0;1,2"], None,
     joinings.OrnsteinScan, joinings.OrnsteinElementReport),
    (["dual", "ornstein", "--group", "corpus:dual_shift", "--window", "0..4"], None,
     dual.DualOrnsteinScan, dual.DualOrnsteinReport),
])
def test_results_are_the_result_objects_fields(argv, key, result_type, element_type):
    """The results section names the result type's fields in their order, and so
    does each entry of its "elements"."""
    report, code = run(argv)
    assert code == 0
    section = report["results"][key] if key else report["results"]
    assert list(section) == [f.name for f in dataclasses.fields(result_type)]
    if element_type is not None:
        assert section["elements"]
        for entry in section["elements"]:
            assert list(entry) == [f.name for f in dataclasses.fields(element_type)]


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """The `ncjoin …` lines of the README's command-line block, as argv lists."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ncjoin ")]


def _readme_option_table():
    """{command: [options]} from the README's "Each command takes only the
    options it reads" table."""
    section = README.read_text(encoding="utf-8").split(
        "Each command takes only the options it reads:", 1)[1]
    rows = section.strip().split("\n\n", 1)[0].splitlines()[2:]   # after the header
    table = {}
    for row in rows:
        command, options = row.strip("|").split("|")
        table[command.strip().strip("`")] = re.findall(r"`([^`]+)`", options)
    return table


def test_readme_option_table_matches_the_parser():
    table = _readme_option_table()
    assert table.pop("corpus") == ["list", "show NAME", "export DIR"]
    parsed = {name: [opt for a in p._actions for opt in a.option_strings
                     if opt not in ("-h", "--help", "--format")]
              for name, p in _subcommands(build_parser()) if name != "corpus"}
    assert table == parsed


def test_readme_code_names_resolve():
    """Every backticked `Class.attr` or `Class.attr()` in the README names
    an attribute or a dataclass field of a class defined in ncjoin."""
    text = README.read_text(encoding="utf-8")
    names = set(re.findall(r"`([A-Z][A-Za-z]*)\.([a-z_]\w*)(?:\(\))?`", text))
    assert names
    classes = {}
    for info in pkgutil.iter_modules(ncjoin.__path__):
        module = importlib.import_module(f"ncjoin.{info.name}")
        classes.update((name, obj) for name, obj in vars(module).items()
                       if isinstance(obj, type) and obj.__module__ == module.__name__)
    stale = [f"{cls}.{attr}" for cls, attr in sorted(names) if cls not in classes or not (
        hasattr(classes[cls], attr)
        or attr in getattr(classes[cls], "__dataclass_fields__", {}))]
    assert not stale


def test_readme_commands_run():
    """Every documented command runs: exit 0 and status ok."""
    commands = _readme_commands()
    assert commands
    for argv in commands:
        report, code = run(argv)
        assert (code, report["status"]) == (0, "ok"), argv


def test_reports_are_deterministic():
    r1, c1 = run(["dual", "ornstein", "--group", "corpus:dual_cycle2",
                  "--window", "0..8", "--format", "json"])
    r2, c2 = run(["dual", "ornstein", "--group", "corpus:dual_cycle2",
                  "--window", "0..8", "--format", "json"])
    assert c1 == c2 == 0
    assert emit_report(r1, "json") == emit_report(r2, "json")


def test_invalid_state_file_exits_2(tmp_path, capsys):
    bad = corpus.raw("c3")
    bad["state"]["density"] = [[[0.5, 0], [0, 0], [0, 0]],
                               [[0, 0], [0.3, 0], [0, 0]],
                               [[0, 0], [0, 0], [0.2, 0]]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code = main(["classify", "--system", str(p)])
    assert code == 2
    err = capsys.readouterr().err
    assert "invariance" in err


def test_missing_file_exits_2():
    report, code = run(["classify", "--system", "/does/not/exist.json"])
    assert code == 2
    assert report["status"] == "error"


def _unreadable_path(tmp_path, kind: str) -> Path:
    if kind == "directory":
        return tmp_path
    p = tmp_path / "input.json"
    if kind == "undecodable":
        p.write_bytes(b"\xff\xfe{")
    return p


@pytest.mark.parametrize("kind", ["directory", "undecodable", "missing"])
@pytest.mark.parametrize("command", [
    ["classify", "--system"],
    ["dual", "classify", "--group"],
    ["joinings", "find", "--a", "corpus:c2", "--b", "corpus:c2", "--objective-file"],
])
def test_unreadable_input_exits_2(tmp_path, capsys, command, kind):
    """A path that names a directory, bytes that are not UTF-8 or nothing at
    all is malformed input: exit 2 with an error report, not a traceback."""
    p = _unreadable_path(tmp_path, kind)
    assert main(command + [str(p), "--format", "json"]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["status"] == "error"
    assert report["error"].startswith(f"cannot read {p}: ")


def test_export_onto_a_file_exits_2(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    assert main(["corpus", "export", str(target), "--format", "json"]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["status"] == "error"
    assert report["error"].startswith(f"cannot export to {target}: ")


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--system", "corpus:c2", "--bogus"])
    assert exc.value.code == 2


def test_dual_orbit_command(capsys):
    code = main(["dual", "orbit", "--group", "corpus:dual_mixed",
                 "--word", "x0 y1", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["orbit"] == "infinite"
    assert report["results"]["escaping_letter"] == "x0"


def test_dual_correlations_command(capsys):
    code = main(["dual", "correlations", "--group", "corpus:dual_shift",
                 "--a", "x0", "--b", "x5^-1", "--n", "0..8", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["centered"][5] == "1"
    assert report["results"]["cauchy_schwarz_ok"] is True


def test_dual_ornstein_command(capsys):
    code = main(["dual", "ornstein", "--group", "corpus:dual_shift",
                 "--window", "0..8", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    elem = report["results"]["elements"][0]
    assert elem["escape_bound"] == 1
    assert report["results"]["strongly_mixing"] is True


def test_dual_joining_command_with_experiment(capsys):
    code = main(["dual", "joining", "--group", "corpus:dual_shift",
                 "--experiment", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["trivial"] is True
    assert report["results"]["experiment"]["conclusion"] is None
    code = main(["dual", "joining", "--group", "corpus:dual_mixed", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["trivial"] is False
    assert report["results"]["witness"]["joining_value"] == "1"


def test_table_reads_only_float_pairs_as_complex(capsys):
    table = emit_report({"row": [1, 0.0], "z": complex(0.5, -2.0), "ij": [0, 1]}, "table")
    assert table.splitlines() == ["row  [1, 0]", "z    0.5-2i", "ij   [0, 1]"]
    assert main(["ornstein", "--system", "corpus:gibbs", "--window", "0..1"]) == 0
    assert "[[0, 1.5], [1, 1.5]]" in capsys.readouterr().out
    assert main(["classify", "--system", "corpus:c3"]) == 0
    assert "[-0.5+0.866025i]" in capsys.readouterr().out
    assert main(["ornstein", "--system", "corpus:c3", "--window", "0..1",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]["elements"][0]["ratios"]
    assert [[type(v) for v in row] for row in rows] == [[int, float]] * 2
    assert [n for n, _ in rows] == [0, 1] and rows[1][1] == 0.0


def test_average_command(capsys):
    code = main(["average", "--system", "corpus:c3", "--x", "0", "--y", "0",
                 "--N", "3", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["value"][0] == pytest.approx(1 / 9)
    assert report["results"]["deviation"] < 1e-12


def test_average_reads_omega_and_coefficient_vectors():
    report, code = run(["average", "--system", "corpus:c3", "--x", "omega", "--y", "omega",
                        "--N", "10"])
    assert code == 0
    assert complex(report["results"]["value"]) == 1 and report["results"]["deviation"] == 0
    report, code = run(["average", "--system", "corpus:c3", "--x", "[1,0,0]",
                        "--y", "[[0,1],0,0]", "--N", "10"])
    assert code == 0 and complex(report["results"]["value"]) == pytest.approx(0.1j)
    report, code = run(["average", "--system", "corpus:c3", "--x", "[1,0]", "--y", "0",
                        "--N", "10"])
    assert code == 2 and report["error"] == "vector has 2 coordinates, expected 3"


def _c12_eigenvector_file(tmp_path):
    path = tmp_path / "c12.json"
    path.write_text(json.dumps(fileio.dump_system(cyclic_rotation_system(12))))
    angles = 2 * math.pi * np.arange(12) / 12
    return str(path), json.dumps(np.column_stack([np.cos(angles), np.sin(angles)]).tolist())


@pytest.mark.parametrize("case,deviation", [("c12", 0.9106836025229591), ("id2", 0.0)])
def test_average_deviation_within_remainder_bound(tmp_path, case, deviation):
    """On C12, x = y = (e^{2πik/12})_k is an eigenvector whose character
    χ = e^{−iπ/6} has |χ + χ² + χ³|/3 = sin(π/4)/(3 sin(π/12)) ≈ 0.9107 at
    N = 3, which the deviation and the bound both reach (‖x‖ = 1); a bound
    of (2/N)·‖x‖‖y‖ = 2/3 falls below it. On id2 every vector is fixed, so
    the limit is ⟨P₁x, y⟩ = ⟨x, y⟩ itself and both are 0."""
    if case == "c12":
        system, x = _c12_eigenvector_file(tmp_path)
        argv = ["average", "--system", system, "--x", x, "--y", x, "--N", "3"]
    else:
        argv = ["average", "--system", "corpus:id2", "--x", "0", "--y", "0", "--N", "5"]
    report, code = run(argv)
    assert code == 0 and report["warnings"] == []
    results = report["results"]
    assert results["deviation"] == pytest.approx(deviation, abs=1e-12)
    assert results["deviation"] <= results["remainder_bound"]
    assert results["remainder_bound"] == pytest.approx(deviation, abs=1e-12)


@pytest.mark.parametrize("group, word, period", [
    ("dual_mixed", "y1", 2), ("dual_finperm_shift", "(y0 y1)", 3)])
def test_dual_orbit_finite_period(group, word, period):
    report, code = run(["dual", "orbit", "--group", f"corpus:{group}", "--word", word])
    assert code == 0
    assert (report["results"]["orbit"], report["results"]["period"]) == ("finite", period)


def test_joinings_diagonal_command(capsys):
    code = main(["joinings", "diagonal", "--system", "corpus:c2",
                 "--graph-n", "1", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    values = report["results"]["values"]
    assert values[0][1][0] == pytest.approx(0.5)
    assert values[0][0][0] == pytest.approx(0.0)


def test_joinings_disjoint_command(capsys):
    code = main(["joinings", "disjoint", "--a", "corpus:c2", "--b", "corpus:c3",
                 "--format", "json"])
    assert code == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert report["results"]["verdict"] == "disjoint"
    assert report["results"]["tangent_dim"] == 0
    assert report["results"]["directions_scanned"] == 24
    assert report["results"]["min_margin"] > 0
    main(["joinings", "disjoint", "--a", "corpus:c2", "--b", "corpus:c3",
          "--format", "json"])
    assert capsys.readouterr().out == text


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_disjoint_reports_are_strict_json(tmp_path, capsys):
    """When every pair of characters multiplies to 1, no pair is left
    unpaired and `min_margin` is null, never Infinity."""
    trivial = tmp_path / "trivial.json"
    trivial.write_text(json.dumps(fileio.dump_system(identity_system((1,)))))
    for a, b, verdict in (("corpus:id2", "corpus:id3", "not_disjoint"),
                          (str(trivial), str(trivial), "disjoint")):
        assert main(["joinings", "disjoint", "--a", a, "--b", b, "--format", "json"]) == 0
        results = _strict_json(capsys.readouterr().out)["results"]
        assert results["verdict"] == verdict and results["min_margin"] is None


def test_corpus_commands(tmp_path, capsys):
    code = main(["corpus", "list", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "c3" in report["results"]["finite_systems"]
    code = main(["corpus", "export", str(tmp_path / "out"), "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["results"]["written"]) == len(corpus.names())


def test_corpus_show():
    report, code = run(["corpus", "show", "c2"])
    assert code == 0 and report["results"] == {"name": "c2", "content": corpus.raw("c2")}
    report, code = run(["corpus", "show"])
    assert code == 2 and report["error"] == "corpus show needs a name"


def test_joinings_find_objective_file(tmp_path, capsys):
    obj = {"terms": [{"i": 0, "j": 0, "coef": [1.0, 0.0]}]}
    p = tmp_path / "objective.json"
    p.write_text(json.dumps(obj))
    code = main(["joinings", "find", "--a", "corpus:c2", "--b", "corpus:c2",
                 "--objective-file", str(p), "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["achieved"] == pytest.approx(0.5, abs=1e-5)
    results = report["results"]
    assert results["lower"] <= 0.5 <= results["upper"] <= results["lower"] + 1e-6
    assert results["dual_floor"] >= 0
    assert results["tangent_dim"] == 1


def test_inconclusive_solver_exits_3(capsys):
    code = main(["joinings", "disjoint", "--a", "corpus:c2", "--b", "corpus:c2",
                 "--max-iter", "1", "--format", "json"])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "inconclusive"
    assert report["results"]["verdict"] == "inconclusive"


def test_reused_parser_matches_fresh_parsers():
    commands = [
        ["joinings", "find", "--a", "corpus:c2", "--b", "corpus:c2", "--objective", "0,0",
         "--width", "1e-3", "--max-iter", "9"],
        ["cesaro-diagonal", "--system", "corpus:c5", "--N", "4", "--format", "json"],
        ["joinings", "disjoint", "--a", "corpus:c2", "--b", "corpus:c3"],
        ["dual", "ornstein", "--group", "corpus:dual_shift", "--window", "0..8"],
    ]
    shared = build_parser()
    assert build_parser() is shared
    for argv in commands + commands[::-1]:
        assert vars(shared.parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))


@pytest.mark.parametrize("argv", [
    "ornstein --system corpus:c2 --window 0..4 --elements a,b",
    "ornstein --system corpus:c2 --window 0..4 --elements 0",
    "ornstein --system corpus:c2 --window 0..4 --elements 0,1,2",
    "ornstein --system corpus:c2 --window 0..4 --elements 0,99",
    "ornstein --system corpus:c2 --window 0..4 --elements=-1,0",
    "ornstein --system corpus:c2 --window 5..2",
    "dual ornstein --group corpus:dual_cycle2 --window 5..2",
    "joinings find --a corpus:c2 --b corpus:c2 --objective 0,9",
    "average --system corpus:c3 --x 9 --y 0 --N 10",
    "average --system corpus:c3 --x=-1 --y 0 --N 10",
    "average --system corpus:c3 --x abc --y 0 --N 10",
    "average --system corpus:c3 --x 0 --y 5.5 --N 10",
    "average --system corpus:c3 --x 0 --y 0 --N 0",
    "cesaro-diagonal --system corpus:c3 --N 0",
    "joinings diagonal --system corpus:pauli --graph-n 1",
    "average --system corpus:c2 --x [true,false] --y 0 --N 4",
    "average --system corpus:c2 --x [[1,false],0] --y 0 --N 4",
    "ornstein --system corpus:c2 --window abc",
    "ornstein --system corpus:c2 --window 1..x",
    "dual orbit --group corpus:dual_mixed --word 'x0 q1'",
    "dual orbit --group corpus:dual_mixed --word 'x0 %'",
    "dual orbit --group corpus:dual_finperm_shift --word '(x0 %)'",
    "dual correlations --group corpus:dual_shift --a ; --b x0 --n 0..3",
    "dual ornstein --group corpus:dual_shift --window 0..3 --elements ;",
    "dual correlations --group corpus:dual_shift --a ' * x0' --b x0 --n 0..3",
    "corpus export",
    "classify --system corpus:nope",
    "dual joining --group corpus:dual_mixed --experiment",
])
def test_argument_errors_exit_2(argv):
    report, code = run(shlex.split(argv))
    assert code == 2, report
    assert report["status"] == "error"
    assert not report["error"].startswith("internal invariant violation")


@pytest.mark.parametrize("name,path,entry", [
    ("c2", ("state", "density", 0, 0), [float("nan"), 0.0]),
    ("c2", ("state", "density", 1, 1), float("nan")),
    ("pauli", ("generators", 0, "unitary", 0, 1), [float("inf"), 0.0]),
    ("pauli", ("generators", 1, "unitary", 1, 1), [0.0, float("-inf")]),
])
def test_non_finite_entries_exit_2(tmp_path, capsys, name, path, entry):
    data = corpus.raw(name)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = entry
    p = tmp_path / "nonfinite.json"
    p.write_text(json.dumps(data))   # json writes NaN and Infinity, and reads them back
    assert main(["classify", "--system", str(p)]) == 2
    assert "not finite" in capsys.readouterr().err
    with pytest.raises(InputFormatError, match="not finite"):
        fileio.load_system(json.loads(p.read_text()))


@pytest.mark.parametrize("path", [("state", "density", 0, 1), ("generators", 0, "unitary", 1, 0)])
@pytest.mark.parametrize("entry,code", [([1e-6, 0.0], 2), ([1e-12, 0.0], 0), ([0.0, 1e-12], 0)])
def test_off_block_entries_are_checked_against_the_tolerance(tmp_path, capsys, path, entry,
                                                             code):
    """A zero remainder outside the blocks takes no SVD; any other remainder
    is measured in operator norm against the loader's 1e-9."""
    data = corpus.raw("c2")
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = entry
    p = tmp_path / "offblock.json"
    p.write_text(json.dumps(data))
    assert main(["classify", "--system", str(p)]) == code
    if code:
        assert "off-block entries of norm 1.000e-06" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify --system", "dual classify --group"])
def test_invalid_json_file_exits_2(tmp_path, command):
    p = tmp_path / "bad.json"
    p.write_text("{bad")
    report, code = run(command.split() + [str(p)])
    assert code == 2
    assert report["status"] == "error"


@pytest.mark.parametrize("term", [{"i": -1, "j": 0}, {"i": 0, "j": 9}, {"i": "x", "j": 0},
                                  {"i": 0, "j": 0, "coef": [float("nan"), 0.0]},
                                  {"i": 1.9, "j": 0}, {"i": True, "j": 0}, {"i": "1", "j": 0},
                                  {"i": 0, "j": 0, "coef": True},
                                  {"i": 0, "j": 0, "coef": [1.0, False]}])
def test_malformed_objective_term_exits_2(tmp_path, term):
    p = tmp_path / "objective.json"
    p.write_text(json.dumps({"terms": [term]}))
    report, code = run(["joinings", "find", "--a", "corpus:c2", "--b", "corpus:c2",
                        "--objective-file", str(p)])
    assert code == 2, report


@pytest.mark.parametrize("term,reason", [
    ({"i": -1, "j": 0}, "index -1 is out of range 0..1"),
    ({"i": 0, "j": 9}, "index 9 is out of range 0..1"),
    ({"i": 1.9, "j": 0}, "objective term i must be an integer, got 1.9"),
    ({"i": 0, "j": "1"}, "objective term j must be an integer, got '1'"),
])
def test_objective_index_errors_name_the_file(tmp_path, term, reason):
    p = tmp_path / "objective.json"
    p.write_text(json.dumps({"terms": [term]}))
    report, code = run(["joinings", "find", "--a", "corpus:c2", "--b", "corpus:c2",
                        "--objective-file", str(p)])
    assert code == 2, report
    assert report["error"].startswith(f"{p}: malformed objective term ")
    assert report["error"].endswith(reason)


@pytest.mark.parametrize("name,content", [
    ("classify --system", []),
    ("dual classify --group", []),
    ("classify --system", {**corpus.raw("c2"), "generators": 5}),
    ("classify --system", {**corpus.raw("c2"), "state": 5}),
    ("classify --system", {**corpus.raw("c2"), "blocks": ["a", 1]}),
    ("dual classify --group", {"family": "free", "tracks": [{"id": "y", "kind": "cycle",
                                                               "m": "x"}]}),
    ("dual classify --group", {"family": "finperm", "tracks": 5}),
    ("dual classify --group", {"family": "finperm", "tracks": [], "h": 5}),
    ("dual classify --group", {"family": "finperm", "tracks": [], "h": {"cycles": [3]}}),
    ("joinings find --a corpus:c2 --b corpus:c2 --objective-file", {"terms": 5}),
    ("joinings find --a corpus:c2 --b corpus:c2 --objective-file", {"terms": [1]}),
    ("joinings find --a corpus:c2 --b corpus:c2 --objective-file", []),
    ("classify --system", {**corpus.raw("c2"), "group": {"kind": "Z", "k": 3}}),
    ("classify --system", {**corpus.raw("c3"), "group": {"kind": "Zm", "m": 3, "k": 2}}),
    ("classify --system", {**corpus.raw("c2"), "group": {"kind": "Zk"}}),
    ("classify --system", {**corpus.raw("c2"), "generators": [
        {"perm": [1, 0], "unitary": [[True, False], [False, True]]}]}),
    ("classify --system", {**corpus.raw("pauli"),
                           "generators": corpus.raw("pauli")["generators"][:1]}),
    ("classify --system", {**corpus.raw("c2"), "group": "Z"}),
    ("classify --system", {**corpus.raw("c2"), "group": {"kind": "Zm"}}),
    ("dual ornstein --window 0..3 --group", {"family": "finperm", "tracks": [
        {"id": "y", "kind": "cycle", "m": 1}]}),
])
def test_malformed_json_shapes_exit_2(tmp_path, name, content):
    p = tmp_path / "shape.json"
    p.write_text(json.dumps(content))
    report, code = run(name.split() + [str(p)])
    assert code == 2, report
    assert report["status"] == "error"
    assert not report["error"].startswith("internal invariant violation")


# integer fields: (command, corpus file, path to the field, value the loader accepts)
INTEGER_FIELDS = [
    ("classify --system", "c2", ("blocks", 0), 1),
    ("classify --system", "c2", ("generators", 0, "perm", 0), 1),
    ("classify --system", "pauli", ("group", "k"), 2),
    ("classify --system", "c2", ("group", "m"), 2),
    ("dual classify --group", "dual_cycle2", ("tracks", 0, "m"), 2),
]


@pytest.mark.parametrize("command,name,path,valid", INTEGER_FIELDS,
                         ids=[".".join(map(str, p)) for _, _, p, _ in INTEGER_FIELDS])
@pytest.mark.parametrize("bad", ["half", "bool"])
def test_non_integer_fields_exit_2(tmp_path, command, name, path, valid, bad):
    """A float is not truncated and a boolean is not read as 0 or 1."""
    data = corpus.raw(name)
    if path[:2] == ("group", "m"):
        data["group"] = {"kind": "Zm", "m": valid}
    target = data
    for key in path[:-1]:
        target = target[key]
    assert target[path[-1]] == valid
    p = tmp_path / "ints.json"
    p.write_text(json.dumps(data))
    report, code = run(command.split() + [str(p)])
    assert code == 0, report
    target[path[-1]] = valid + 0.5 if bad == "half" else valid == 1
    p.write_text(json.dumps(data))
    report, code = run(command.split() + [str(p)])
    assert code == 2, report
    assert "must be an integer" in report["error"]


# the options of every subcommand: a new option shows up as a change to this table
OPTIONS = {
    "classify": {"--system"},
    "average": {"--system", "--x", "--y", "--N"},
    "cesaro-diagonal": {"--system", "--N"},
    "joinings find": {"--a", "--b", "--objective", "--objective-file", "--max-iter", "--width"},
    "joinings disjoint": {"--a", "--b", "--max-iter", "--width"},
    "joinings diagonal": {"--system", "--graph-n"},
    "ornstein": {"--system", "--window", "--elements"},
    "dual classify": {"--group", "--samples", "--seed"},
    "dual orbit": {"--group", "--word"},
    "dual correlations": {"--group", "--a", "--b", "--n"},
    "dual ornstein": {"--group", "--window", "--elements"},
    "dual joining": {"--group", "--experiment"},
    "corpus": {"action", "name"},
}


def _subcommands(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


def test_each_subcommand_takes_its_own_options():
    surface = {
        name: {opt for a in p._actions if not isinstance(a, argparse._HelpAction)
               for opt in a.option_strings or [a.dest]}
        for name, p in _subcommands(build_parser())
    }
    assert surface == {name: opts | {"--format"} for name, opts in OPTIONS.items()}


def test_format_abbreviation_is_read_by_the_parser(capsys):
    assert main(["classify", "--system", "corpus:c2", "--form", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


@pytest.mark.parametrize("argv", [
    "classify --system corpus:c2 --width 1e-3",
    "ornstein --system corpus:c2 --window 0..4 --max-iter 9",
    "dual ornstein --group corpus:dual_cycle2 --window 0..8 --seed 3",
    "joinings find --a corpus:c2 --b corpus:c2 --objective 0,0 --width nan",
    "joinings find --a corpus:c2 --b corpus:c2 --objective 0,0 --width inf",
    "joinings find --a corpus:c2 --b corpus:c2 --objective 0,0 --width 0",
    "joinings find --a corpus:c2 --b corpus:c2 --objective 0,0 --width=-1e-3",
    "joinings find --a corpus:c2 --b corpus:c2 --objective 0,0 --max-iter=-1",
    "joinings disjoint --a corpus:c2 --b corpus:c2 --width nan",
    "joinings disjoint --a corpus:c2 --b corpus:c2 --max-iter=-1",
    "dual classify --group corpus:dual_shift --samples=-3",
    "joinings find --a corpus:c2 --b corpus:c2 --objective 0,1 --objective-file objective.json",
])
def test_foreign_or_out_of_range_options_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["c2", "pauli"])
def test_wide_witness_exceeds_the_product(name, capsys):
    assert main(["joinings", "disjoint", "--a", f"corpus:{name}", "--b", f"corpus:{name}",
                 "--width", "1", "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["verdict"] == "not_disjoint"
    assert results["witness"]["gap"] > 0.1
    assert residual_magnitude(results["witness"]["residuals"]) < 1e-8


def _source_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's ncjoin."""
    src = str(Path(ncjoin.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_closed_stdout_exits_quietly():
    """A reader that goes away before the report is written (`| head`) gets
    no traceback, and the command keeps its exit code."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "ncjoin.cli", "classify", "--system", "corpus:c2",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_source_env())
    proc.stdout.close()   # before the interpreter has even imported numpy
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


_FINITE_PATH_PROBE = """
import sys
from ncjoin import cli, corpus, fileio, joinings
codes = [cli.run(argv)[1] for argv in (
    ["classify", "--system", "corpus:c3"],
    ["joinings", "disjoint", "--a", "corpus:c2", "--b", "corpus:c3"],
    ["ornstein", "--system", "corpus:c3", "--window", "0..8"])]
corpus.system("c3")
finite_path = [m for m in ("ncjoin.dual", "fractions") if m in sys.modules]
code = cli.run(["dual", "orbit", "--group", "corpus:dual_mixed", "--word", "x0 y1"])[1]
print(codes, finite_path, code, "ncjoin.dual" in sys.modules)
"""


def test_finite_commands_never_load_the_dual_layer():
    """In a fresh interpreter, finite commands and the corpus load neither
    `ncjoin.dual` nor `fractions`; the first dual command loads the former."""
    out = subprocess.run([sys.executable, "-c", _FINITE_PATH_PROBE], env=_source_env(),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.strip() == "[0, 0, 0] [] 0 True"


_DUAL_FILE_PROBE = """
import sys
from ncjoin.dual import load_dual
sysd = load_dual({"family": "finperm", "tracks": [{"id": "x", "kind": "shift"}],
                  "h": {"cycles": [["p", "q"]]}})
print(sysd.format(sysd.parse("(p q)")),
      [m for m in ("numpy", "ncjoin.fileio", "ncjoin.algebra") if m in sys.modules])
"""


def test_dual_files_load_without_the_finite_layers():
    """In a fresh interpreter, reading a dual-system file loads neither
    numpy nor the finite format and algebra."""
    out = subprocess.run([sys.executable, "-c", _DUAL_FILE_PROBE], env=_source_env(),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.strip() == "(ha0 ha1) []"


def _corpus_file(name: str) -> str:
    """The path of a bundled corpus file, the text `corpus export` writes."""
    return str(Path(corpus.__file__).parent / "corpus" / f"{name}.json")


@pytest.mark.parametrize("argv,message", [
    (["classify", "--system", "corpus:dual_shift"],
     "corpus:dual_shift is a dual system; this command reads a finite system"),
    (["dual", "classify", "--group", "corpus:c3"],
     "corpus:c3 is a finite system; this command reads a dual system"),
    (["classify", "--system", _corpus_file("dual_shift")],
     f"{_corpus_file('dual_shift')} is a dual system; this command reads a finite system"),
    (["dual", "classify", "--group", _corpus_file("c3")],
     f"{_corpus_file('c3')} is a finite system; this command reads a dual system"),
])
def test_corpus_entry_of_the_wrong_family_exits_2(argv, message):
    report, code = run(argv)
    assert code == 2
    assert report["error"] == message
