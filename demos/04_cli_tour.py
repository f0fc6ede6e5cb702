"""
Command-line tour
=================

The same pipeline is reachable from the shell: JSON in, JSON out, with
exit codes 0 (ok), 1 (usage/parse), 2 (mathematical rejection) and
3 (internal invariant failure). This script drives the CLI in-process and
checks every exit code; it exits 1 if any differs from the expected one.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from rankrange.cli import run

workdir = Path(tempfile.mkdtemp(prefix="rankrange-demo-"))
mismatches = []


def expect(code, args):
    """Run the CLI on ``args`` and record it if it does not exit ``code``."""
    got = run(args)
    if got != code:
        mismatches.append((args[0], code, got))
    return got


spectrum = workdir / "octagon.json"
spectrum.write_text(json.dumps(
    {"phases": (2 * np.pi * np.arange(8) / 8).tolist()}))

print("== spectrum ==")
expect(0, ["spectrum", str(spectrum)])

print("== region (k = 3), with SVG ==")
region_json = workdir / "region.json"
svg = workdir / "region.svg"
expect(0, ["region", str(spectrum), "--k", "3",
           "--out", str(region_json), "--svg", str(svg)])
print(f"wrote {region_json.name} and {svg.name}")

print("== membership, with oracle cross-check ==")
expect(0, ["member", str(spectrum), "--k", "3", "--lambda", "0.1,0.1",
           "--oracle"])

print("== projector construction and verification ==")
proj = workdir / "projector.json"
expect(0, ["project", str(spectrum), "--k", "3", "--out", str(proj)])
matrix = workdir / "matrix.json"
mat = np.diag(np.exp(2j * np.pi * np.arange(8) / 8))
matrix.write_text(json.dumps(
    {"n": 8, "re": mat.real.tolist(), "im": mat.imag.tolist()}))
expect(0, ["verify", str(matrix), "--projector", str(proj)])

print("== unsupported dimension is a clean exit 2 ==")
seven = workdir / "seven.json"
seven.write_text(json.dumps({"phases": np.linspace(0.1, 6.0, 7).tolist()}))
code = expect(2, ["project", str(seven), "--k", "3"])
print(f"exit code: {code}")

print("== the seeded demo battery ==")
expect(0, ["demo", "--seed", "42", "--repeats", "1", "--out",
           str(workdir / "records.jsonl")])
print(f"artifacts in {workdir}")

for command, want, got in mismatches:
    print(f"{command}: exit code {got}, expected {want}", file=sys.stderr)
sys.exit(1 if mismatches else 0)
