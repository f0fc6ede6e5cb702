import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankrange
from rankrange import (InvalidRank, ParseError, ShapeMismatch, build_region,
                       cli, construct_projector, contains, ingest_matrix,
                       ingest_spectrum, verify_projector)
from rankrange import io as io_mod
from rankrange.cli import run
from rankrange.decomposition import Projector, VerificationReport
from rankrange.io import (dump, ingest_document, projector_from_doc,
                          region_to_doc)
from rankrange.svgout import render_region


def matrix_to_doc(A) -> dict:
    """The matrix input document of A."""
    A = np.asarray(A, dtype=complex)
    return {"n": A.shape[0], "re": A.real.tolist(), "im": A.imag.tolist()}


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(
        {"phases": (2 * np.pi * np.arange(5) / 5).tolist()}))
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    mat = np.diag(np.exp(2j * np.pi * np.arange(5) / 5))
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix_to_doc(mat)))
    return str(path)


def test_ingest_document_matrix_and_spectrum():
    mat = np.diag([1.0, 1j])
    es = ingest_document(matrix_to_doc(mat), tol=1e-9)
    assert es.dim == 2
    es2 = ingest_document({"phases": [0.0, np.pi]}, tol=1e-9)
    assert es2.dim == 2


def test_region_doc_schema():
    es = ingest_spectrum([0.0, 0.0, 1.0])
    doc = region_to_doc(build_region(es, 2))
    assert doc["k"] == 2
    assert len(doc["constraints"]) == 3
    for c in doc["constraints"]:
        assert set(c) == {"i", "a", "b", "sign", "degenerate", "span"}
    assert any(c["degenerate"] for c in doc["constraints"])


def test_cli_spectrum(pentagon_file, capsys):
    assert run(["spectrum", pentagon_file]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert len(doc["phases"]) == 5


def test_cli_member_inside(pentagon_file, capsys):
    code = run(["member", pentagon_file, "--k", "2", "--lambda", "0,0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "inside"


def test_cli_member_oracle_agrees(pentagon_file, capsys):
    code = run(["member", pentagon_file, "--k", "2", "--lambda", "0,0",
                "--oracle"])
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle: inside" in out


def test_cli_member_outside(pentagon_file, capsys):
    code = run(["member", pentagon_file, "--k", "2", "--lambda", "0.99,0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "outside"


def test_cli_project_verify_roundtrip(pentagon_file, matrix_file, tmp_path,
                                      capsys):
    proj_path = str(tmp_path / "proj.json")
    code = run(["project", pentagon_file, "--k", "2", "--lambda", "0,0",
                "--out", proj_path])
    assert code == 0
    with open(proj_path) as fh:
        doc = json.load(fh)
    P, k, lam, residuals = projector_from_doc(doc)
    assert k == 2 and lam == 0j
    assert residuals["compression"] <= 1e-8

    code = run(["verify", matrix_file, "--projector", proj_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass" in out
    # residuals recomputed by verify match the stored ones to 1e-12
    for line in out.splitlines():
        if line.startswith("compression:"):
            value = float(line.split()[1])
            assert abs(value - residuals["compression"]) <= 1e-12


def test_cli_project_forms_dense_projector_once(pentagon_file, tmp_path,
                                                monkeypatch):
    # the dense P that the check reads is the one written
    formed = []
    dense = Projector.matrix

    def counted(self):
        formed.append(self)
        return dense.fget(self)

    monkeypatch.setattr(Projector, "matrix", property(counted))
    proj_path = tmp_path / "proj.json"
    assert run(["project", pentagon_file, "--k", "2", "--lambda", "0,0",
                "--out", str(proj_path)]) == 0
    assert len(formed) == 1
    P, k, lam, _ = projector_from_doc(json.loads(proj_path.read_text()))
    assert np.array_equal(P, formed[0].matrix)
    assert (k, lam) == (2, 0j)


def test_cli_project_verify_at_tol_zero(pentagon_file, tmp_path, capsys):
    # --tol sets no verification threshold: a witness that project writes
    # at --tol 0 passes verify at --tol 0
    proj_path = str(tmp_path / "p.json")
    assert run(["project", pentagon_file, "--k", "2", "--lambda", "0,0",
                "--tol", "0", "--out", proj_path]) == 0
    capsys.readouterr()
    assert run(["verify", pentagon_file, "--projector",
                proj_path, "--tol", "0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "pass"
    assert "compression: " in out and "(<= 1.0e-08)" in out


@pytest.mark.parametrize("target", ["inf,0", "nan,0", "0,-inf"])
def test_verify_non_finite_target_is_parse_error(pentagon_file, tmp_path,
                                                 capsys, target):
    # an infinite target read compression nan, FAIL and exit 3, the code of
    # an internal failure, with a numpy warning on the way
    proj_path = str(tmp_path / "p.json")
    assert run(["project", pentagon_file, "--k", "2", "--lambda", "0,0",
                "--out", proj_path]) == 0
    capsys.readouterr()
    assert run(["verify", pentagon_file, "--projector", proj_path,
                "--lambda", target]) == 1
    assert "ParseError" in capsys.readouterr().err
    P, k, _, _ = projector_from_doc(io_mod.read_json(proj_path))
    sigma = np.diag(np.exp(2j * np.pi * np.arange(5) / 5))
    with pytest.raises(ParseError, match="target must be finite"):
        verify_projector(P, sigma, cli._parse_complex(target), k)


def test_cli_verify_takes_no_rank(pentagon_file, tmp_path, capsys):
    # verify reads the rank from the projector document; a --k that it
    # would never read is a usage error, not a check that passes
    proj_path = str(tmp_path / "p.json")
    assert run(["project", pentagon_file, "--k", "2", "--lambda", "0,0",
                "--out", proj_path]) == 0
    assert run(["verify", pentagon_file, "--projector", proj_path]) == 0
    capsys.readouterr()
    assert run(["verify", pentagon_file, "--k", "2", "--projector",
                proj_path]) == 1


@pytest.mark.parametrize("field, value", [
    ("k", 2.5), ("k", "x"), ("k", None), ("k", True), ("n", 5.0),
    ("n", "5"), ("lambda", [0.0]), ("lambda", ["0", "0"]), ("lambda", None),
    ("re", "x"), ("im", [[0.0]]), ("re", None),
    ("k", ...), ("n", ...), ("lambda", ...), ("re", ...), ("im", ...)],
    ids=repr)
def test_cli_verify_bad_projector_document(pentagon_file, tmp_path, capsys,
                                           field, value):
    # a non-integer n or k, or a missing or non-numeric lambda, re or im
    # (``...``: the field is missing), is a parse error, exit 1: never
    # read as another rank nor escaping the command
    proj_path = tmp_path / "p.json"
    assert run(["project", pentagon_file, "--k", "2", "--lambda", "0,0",
                "--out", str(proj_path)]) == 0
    doc = json.loads(proj_path.read_text())
    if value is ...:
        del doc[field]
    else:
        doc[field] = value
    proj_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", pentagon_file, "--projector", str(proj_path)]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_cli_project_fails_loudly(pentagon_file, tmp_path, monkeypatch,
                                  capsys):
    # a witness that fails its own dense check is an internal error, and
    # nothing is written
    def failing(*args):
        return VerificationReport(residuals={"compression": 1.0},
                                  thresholds={"compression": 1e-8},
                                  passed=False)

    monkeypatch.setattr(cli, "verify_projector", failing)
    out_path, plan_path = tmp_path / "p.json", tmp_path / "plan.json"
    assert run(["project", pentagon_file, "--k", "2", "--lambda", "0,0",
                "--out", str(out_path), "--plan", str(plan_path)]) == 3
    captured = capsys.readouterr()
    assert "InternalInvariantError" in captured.err
    assert "fails its dense check" in captured.err
    assert captured.out == ""
    assert not out_path.exists() and not plan_path.exists()


def test_cli_project_unsupported_dimension(tmp_path, capsys):
    path = tmp_path / "seven.json"
    path.write_text(json.dumps({"phases": np.linspace(0.1, 6.0, 7).tolist()}))
    out_path = tmp_path / "proj.json"
    code = run(["project", str(path), "--k", "3", "--out", str(out_path)])
    assert code == 2
    assert "UnsupportedDimension" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_project_default_target_pinned(tmp_path, capsys):
    # four coincident eigenvalues pin the rank-2 region to the point 1
    path = tmp_path / "ident.json"
    path.write_text(json.dumps({"phases": [0, 0, 0, 0]}))
    out_path = tmp_path / "proj.json"
    assert run(["project", str(path), "--k", "2",
                "--out", str(out_path)]) == 0
    _, k, lam, residuals = projector_from_doc(json.loads(out_path.read_text()))
    assert k == 2 and lam == 1 + 0j
    assert residuals["compression"] <= 1e-8


def test_cli_project_no_default_target(tmp_path, capsys):
    # the equilateral spectrum has an empty rank-2 region
    path = tmp_path / "equilateral.json"
    path.write_text(json.dumps(
        {"phases": [0.0, 2 * np.pi / 3, 4 * np.pi / 3]}))
    out_path = tmp_path / "proj.json"
    code = run(["project", str(path), "--k", "2", "--out", str(out_path)])
    assert code == 2
    assert "no usable interior target" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_project_single_point_region(tmp_path, capsys):
    # spectrum 0 of test_battery's (4,2) stream: the LP point has margin
    # ~1e-17, which is not a usable interior target
    rng = np.random.default_rng(0)
    path = tmp_path / "four.json"
    path.write_text(json.dumps(
        {"phases": np.sort(rng.uniform(0, 2 * np.pi, 4)).tolist()}))
    out_path = tmp_path / "proj.json"
    code = run(["project", str(path), "--k", "2", "--out", str(out_path)])
    assert code == 2
    assert "no usable interior target" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_usage_error(tmp_path):
    assert run(["member", str(tmp_path / "nope.json"), "--k", "2",
                "--lambda", "0,0"]) == 1
    assert run(["bogus"]) == 1


def test_cli_not_unitary(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix_to_doc(np.diag([1.0, 2.0]))))
    code = run(["spectrum", str(path)])
    assert code == 2
    assert "NotUnitary" in capsys.readouterr().err


def test_cli_region_svg_purity(pentagon_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    svg = tmp_path / "region.svg"
    assert run(["region", pentagon_file, "--k", "2",
                "--out", str(out1)]) == 0
    assert run(["region", pentagon_file, "--k", "2", "--out", str(out2),
                "--svg", str(svg)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "circle" in text and "polyline" in text and "line" in text


def test_svg_render_degenerate():
    es = ingest_spectrum([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    text = render_region(build_region(es, 2))
    assert "empty region" in text


def test_tol_flag_loosens_unitarity(tmp_path, capsys):
    # ||A^H A - I||_F = 1e-6: rejected at the default 1e-9, read at 1e-5
    mat = np.diag([1.0, 1.0 + 5e-7])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_doc(mat)))
    assert run(["spectrum", str(path)]) == 2
    capsys.readouterr()
    assert run(["spectrum", str(path), "--tol", "1e-5"]) == 0


def test_cli_tol_zero_is_honoured(pentagon_file, capsys):
    # 3e-10 inside the inner pentagon's edge: within the default 1e-9 of
    # the boundary, strictly inside at tolerance 0
    z = complex((1.0 - 1e-9) * (1.0 + np.exp(0.8j * np.pi)) / 2.0)
    target = f"{z.real!r},{z.imag!r}"
    assert run(["member", pentagon_file, "--k", "2",
                "--lambda", target]) == 0
    assert capsys.readouterr().out.strip() == "boundary"
    assert run(["member", pentagon_file, "--k", "2", "--lambda", target,
                "--tol", "0"]) == 0
    assert capsys.readouterr().out.strip() == "inside"


@pytest.mark.parametrize("value", ["-1e-9", "nan", "inf"])
def test_cli_bad_tolerance_is_parse_error(pentagon_file, capsys, value):
    assert run(["member", pentagon_file, "--k", "2", "--lambda", "0,0",
                f"--tol={value}"]) == 1
    captured = capsys.readouterr()
    assert "ParseError" in captured.err
    assert captured.out == ""


def test_cli_spectrum_out_writes_only_the_file(pentagon_file, tmp_path,
                                               capsys):
    out = tmp_path / "s.json"
    assert run(["spectrum", pentagon_file, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["phases"]) == 5
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["member", "verify"])
def test_cli_out_only_where_a_document_is_written(pentagon_file, tmp_path,
                                                  capsys, command):
    # member and verify print a verdict and write no document, so they
    # take no --out; it was accepted and ignored
    proj = tmp_path / "p.json"
    assert run(["project", pentagon_file, "--k", "2", "--out",
                str(proj)]) == 0
    out = tmp_path / "x.json"
    argv = {"member": ["member", pentagon_file, "--k", "2", "--lambda",
                       "0,0"],
            "verify": ["verify", pentagon_file, "--projector", str(proj)]}
    assert run(argv[command] + ["--out", str(out)]) == 1
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["member", "project", "verify"])
def test_cli_negative_target(pentagon_file, tmp_path, capsys, command):
    # argparse took "-0.1,-0.05" for an option, so only the "=" form parsed
    proj = tmp_path / "p.json"
    assert run(["project", pentagon_file, "--k", "2", "--lambda=-0.1,-0.05",
                "--out", str(proj)]) == 0
    capsys.readouterr()
    argv = {"member": ["member", pentagon_file, "--k", "2", "--oracle"],
            "project": ["project", pentagon_file, "--k", "2", "--out",
                        str(proj)],
            "verify": ["verify", pentagon_file, "--projector", str(proj)]}
    assert run(argv[command] + ["--lambda", "-0.1,-0.05"]) == 0
    out = capsys.readouterr().out
    if command == "member":
        assert out == "inside\noracle: inside\n"
    elif command == "project":
        assert json.loads(proj.read_text())["lambda"] == [-0.1, -0.05]
    else:
        assert out.splitlines()[-1] == "pass"


def test_cli_target_followed_by_option_is_usage_error(pentagon_file,
                                                      capsys):
    assert run(["member", pentagon_file, "--k", "2", "--lambda",
                "--oracle"]) == 1
    assert "--lambda: expected one argument" in capsys.readouterr().err


def test_parse_error_is_one_class():
    # the library's tolerance check and the document readers raise it
    assert io_mod.ParseError is ParseError


def test_cli_demo_has_no_tolerance_option(capsys):
    # the battery keeps its own tolerances, so demo takes no --tol
    assert run(["demo", "--tol", "1e-3"]) == 1
    assert "--tol" in capsys.readouterr().err


def test_cli_demo_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert run(["demo", "--seed", "7", "--repeats", "1",
                "--out", str(out1)]) == 0
    assert run(["demo", "--seed", "7", "--repeats", "1",
                "--out", str(out2)]) == 0

    def strip(path):
        rows = []
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            doc.pop("wall_ms", None)
            rows.append(json.dumps(doc, sort_keys=True))
        return rows

    assert strip(out1) == strip(out2)
    records = [json.loads(line) for line in out1.read_text().splitlines()]
    assert any(r.get("skipped") == "empty region" for r in records)
    assert all(r["pass"] for r in records)


@pytest.mark.parametrize("args", [["--seed", "-1"], ["--repeats", "0"],
                                  ["--repeats", "-1"]], ids=" ".join)
def test_cli_demo_bad_seed_or_repeats_is_parse_error(capsys, args):
    # a negative seed escaped as numpy's ValueError; no repeats ran the two
    # crafted instances alone and reported a pass
    assert run(["demo", *args]) == 1
    captured = capsys.readouterr()
    assert "ParseError" in captured.err and captured.out == ""


def test_cli_tour_demo_leaves_no_files(tmp_path):
    # the CLI tour demo writes its files to a temporary directory that it
    # removes, and prints only their names: two runs print the same and
    # leave nothing in the temp folder
    demo = Path(__file__).resolve().parents[1] / "demos" / "04_cli_tour.py"
    src = str(Path(rankrange.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    runs = [subprocess.run([sys.executable, "-W", "error", str(demo)],
                           env=env, capture_output=True, text=True,
                           timeout=120) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert "records.jsonl" in runs[0].stdout
    assert list(tmp_path.iterdir()) == []


def test_dump_writes_file(tmp_path):
    path = tmp_path / "x.json"
    text = dump({"a": 1}, str(path))
    assert path.read_text() == text + "\n"


def test_malformed_document_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    assert run(["spectrum", str(path)]) == 1


@pytest.mark.parametrize("field, value", [
    ("n", "x"), ("n", None), ("n", 2.0), ("re", "x"), ("im", [[1, [2]]])],
    ids=repr)
def test_matrix_input_fields_are_parsed(tmp_path, capsys, field, value):
    # a matrix input reads its fields as a projector document does: a
    # non-integer n, or re or im that are not numbers, exits 1
    doc = matrix_to_doc(np.eye(2))
    doc[field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run(["spectrum", str(path)]) == 1
    assert "ParseError" in capsys.readouterr().err


def _pentagon_region():
    return build_region(ingest_spectrum(2 * np.pi * np.arange(5) / 5), 2)


def _cli_spectrum(phases):
    """``rankrange spectrum`` on a document whose phases are ``phases``."""
    def call(tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"phases": phases}))
        return run(["spectrum", str(path)])
    return call


MALFORMED = {
    "spectrum-string": (lambda _: ingest_spectrum(["a"]), ParseError),
    "spectrum-complex": (lambda _: ingest_spectrum([1j]), ParseError),
    "matrix-strings": (lambda _: ingest_matrix([["a", "b"], ["c", "d"]]),
                       ParseError),
    "matrix-ragged": (lambda _: ingest_matrix([[1, 0], [0]]), ShapeMismatch),
    "matrix-tol-string": (lambda _: ingest_matrix(np.eye(2), tol="x"),
                          ParseError),
    "matrix-tol-none": (lambda _: ingest_matrix(np.eye(2), tol=None),
                        ParseError),
    "contains-tol-string": (lambda _: contains(_pentagon_region(), 0j, "x"),
                            ParseError),
    "contains-target-string": (lambda _: contains(_pentagon_region(), "x"),
                               ParseError),
    "construct-target-string": (lambda _: construct_projector(
        ingest_spectrum([0.0, 2.0, 4.0]), 1, "x"), ParseError),
    "verify-rank-string": (lambda _: verify_projector(
        np.eye(2), np.eye(2), 1, "x"), InvalidRank),
    "cli-mixed": (_cli_spectrum(["a", 1]), ParseError),
    "cli-ragged": (_cli_spectrum([[1, 2], [3]]), ShapeMismatch),
    "cli-string": (_cli_spectrum("abc"), ParseError),
    "cli-object": (_cli_spectrum({"x": 1}), ParseError),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_raises_typed_error(name, tmp_path, capsys):
    # each of these escaped as a bare ValueError, TypeError or
    # UFuncTypeError; a CLI document exits with its error's code instead
    call, error = MALFORMED[name]
    if name.startswith("cli-"):
        assert call(tmp_path) == error.exit_code
        assert f"error: {error.__name__}:" in capsys.readouterr().err
    else:
        with pytest.raises(error):
            call(tmp_path)


def test_cli_project_plan_output(pentagon_file, tmp_path):
    plan_path = tmp_path / "plan.json"
    code = run(["project", pentagon_file, "--k", "2", "--lambda", "0,0",
                "--out", str(tmp_path / "p.json"), "--plan", str(plan_path)])
    assert code == 0
    doc = json.loads(plan_path.read_text())
    assert doc["case"] == "three_k_minus_1"
    assert doc["triangles"] == [[1, 3, 5], [1, 2, 4]]
    assert doc["pairings"] == [{"shared": 1, "triangles": [0, 1]}]
    assert doc["reflected"] is False


def test_member_oracle_never_internal_error_on_battery_sizes(tmp_path):
    # across small battery-style instances the chord verdicts and the
    # brute-force oracle must never disagree (exit 3)
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(5, 10))
        k = int(rng.integers(1, 4))
        path = tmp_path / f"s{n}_{k}.json"
        path.write_text(json.dumps(
            {"phases": np.sort(rng.uniform(0, 2 * np.pi, n)).tolist()}))
        for _ in range(5):
            z = rng.uniform(-1, 1, 2)
            code = run(["member", str(path), "--k", str(k),
                        "--lambda", f"{z[0]},{z[1]}", "--oracle"])
            assert code != 3
