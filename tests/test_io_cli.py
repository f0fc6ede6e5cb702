import json

import numpy as np
import pytest

from rankrange import build_region, ingest_spectrum
from rankrange.cli import run
from rankrange.io import (dump, ingest_document, matrix_to_doc,
                          projector_from_doc, region_to_doc)
from rankrange.svgout import render_region


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

    code = run(["verify", matrix_file, "--k", "2",
                "--projector", proj_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass" in out
    # residuals recomputed by verify match the stored ones to 1e-12
    for line in out.splitlines():
        if line.startswith("compression:"):
            value = float(line.split()[1])
            assert abs(value - residuals["compression"]) <= 1e-12


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


def test_env_tolerance_override(tmp_path, monkeypatch, capsys):
    # a slightly non-unitary matrix passes under a loose global tolerance
    mat = np.diag([1.0, 1.0 + 5e-7])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_doc(mat)))
    assert run(["spectrum", str(path)]) == 2
    capsys.readouterr()
    monkeypatch.setenv("RANKRANGE_TOL", "1e-5")
    assert run(["spectrum", str(path)]) == 0


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


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("value", ["-1e-9", "nan", "inf"])
def test_cli_bad_tolerance_is_parse_error(pentagon_file, monkeypatch,
                                          capsys, source, value):
    argv = ["member", pentagon_file, "--k", "2", "--lambda", "0,0"]
    if source == "flag":
        argv.append(f"--tol={value}")
    else:
        monkeypatch.setenv("RANKRANGE_TOL", value)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "ParseError" in captured.err
    assert captured.out == ""


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


def test_dump_writes_file(tmp_path):
    path = tmp_path / "x.json"
    text = dump({"a": 1}, str(path))
    assert path.read_text() == text + "\n"


def test_malformed_document_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    assert run(["spectrum", str(path)]) == 1


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
