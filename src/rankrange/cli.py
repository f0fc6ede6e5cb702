"""Command-line interface.

Subcommands: spectrum, region, member, project, verify, demo. Exit codes:
0 success, 1 usage or parse error, 2 mathematical rejection (not unitary,
target outside the region, unsupported dimension), 3 internal invariant
failure (orthonormality assertion, oracle mismatch).

The global tolerance default can be overridden with the RANKRANGE_TOL
environment variable or per-invocation with --tol (not for demo).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import battery as battery_mod
from . import io as io_mod
from . import svgout
from .decomposition import construct_projector, verify_projector
from .errors import InternalInvariantError, MathRejection, RankRangeError
from .region import BruteForceOracle, build_region, contains
from .spectra import DEFAULT_TOL


def _checked_tol(value: float, source: str) -> float:
    """A tolerance must be finite and >= 0: a negative or NaN one would
    silently flip verdicts."""
    if not np.isfinite(value) or value < 0:
        raise io_mod.ParseError(
            f"{source} must be a finite number >= 0, got {value!r}")
    return value


def _default_tol() -> float:
    env = os.environ.get("RANKRANGE_TOL")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise io_mod.ParseError(f"bad RANKRANGE_TOL value: {env!r}")
        return _checked_tol(value, "RANKRANGE_TOL")
    return DEFAULT_TOL


def _parse_complex(text: str) -> complex:
    try:
        re, im = text.split(",")
        return complex(float(re), float(im))
    except ValueError:
        raise io_mod.ParseError(
            f"expected a complex value as RE,IM, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rankrange",
        description="rank-k admissible regions and compression projectors "
                    "of unitary matrices")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_k=True):
        p.add_argument("input", help="matrix or spectrum JSON file")
        if needs_k:
            p.add_argument("--k", type=int, required=True,
                           help="rank parameter")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override")
        p.add_argument("--out", default=None, help="output JSON path")

    p = sub.add_parser("spectrum", help="print the sorted eigenphases")
    common(p, needs_k=False)

    p = sub.add_parser("region", help="emit the constraint set as JSON")
    common(p)
    p.add_argument("--svg", default=None, help="also render an SVG here")

    p = sub.add_parser("member", help="membership verdict for a target")
    common(p)
    p.add_argument("--lambda", dest="target", required=True,
                   help="target value as RE,IM")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force oracle")

    p = sub.add_parser("project", help="construct a compression projector")
    common(p)
    p.add_argument("--lambda", dest="target", default=None,
                   help="target value as RE,IM (default: deep interior point)")
    p.add_argument("--plan", dest="plan_out", default=None,
                   help="also write the decomposition plan JSON here")

    p = sub.add_parser("verify", help="recheck a projector JSON")
    common(p)
    p.add_argument("--lambda", dest="target", default=None,
                   help="target override as RE,IM (default: from the file)")
    p.add_argument("--projector", required=True,
                   help="projector JSON produced by 'project'")

    p = sub.add_parser("demo", help="run the seeded acceptance battery")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", default=None, help="write JSONL records here")
    return ap


def _cmd_spectrum(args, tol):
    es = io_mod.load_input(args.input, tol)
    text = io_mod.dump({"phases": es.phases.tolist()}, args.out)
    print(text)
    return 0


def _cmd_region(args, tol):
    es = io_mod.load_input(args.input, tol)
    region = build_region(es, args.k)
    doc = io_mod.region_to_doc(region)
    text = io_mod.dump(doc, args.out)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(svgout.render_region(region))
    if args.out is None:
        print(text)
    return 0


def _cmd_member(args, tol):
    es = io_mod.load_input(args.input, tol)
    z = _parse_complex(args.target)
    region = build_region(es, args.k)
    verdict = contains(region, z, tol)
    print(verdict)
    if args.oracle:
        oracle = BruteForceOracle(es, args.k).verdict(z, tol)
        print(f"oracle: {oracle}")
        if oracle != verdict:
            raise InternalInvariantError(
                f"membership mismatch: chords say {verdict}, "
                f"oracle says {oracle}")
    return 0


def _cmd_project(args, tol):
    es = io_mod.load_input(args.input, tol)
    if args.target is not None:
        lam = _parse_complex(args.target)
    else:
        lam = battery_mod.pick_target(es, args.k)
        if lam is None:
            raise MathRejection("region has no usable interior target")
    proj = construct_projector(es, args.k, lam)
    report = verify_projector(proj.matrix, es.matrix, lam, args.k, tol)
    doc = io_mod.projector_to_doc(proj, report.residuals)
    text = io_mod.dump(doc, args.out)
    if args.out is None:
        print(text)
    if args.plan_out:
        if proj.plan is not None:
            io_mod.dump(io_mod.plan_to_doc(proj.plan), args.plan_out)
        else:
            io_mod.dump({"case": proj.strategy, "triangles": [],
                         "pairings": [], "reflected": False}, args.plan_out)
    for key, value in sorted(report.residuals.items()):
        print(f"{key}: {value:.3e}", file=sys.stderr)
    return 0


def _cmd_verify(args, tol):
    es = io_mod.load_input(args.input, tol)
    with open(args.projector) as fh:
        doc = json.load(fh)
    P, k, lam, _ = io_mod.projector_from_doc(doc)
    if args.target is not None:
        lam = _parse_complex(args.target)
    report = verify_projector(P, es.matrix, lam, k, tol)
    for key, value in sorted(report.residuals.items()):
        print(f"{key}: {value:.3e} (<= {report.thresholds[key]:.1e})")
    print("pass" if report.passed else "FAIL")
    return 0 if report.passed else 3


def _cmd_demo(args, tol):
    records = battery_mod.demo_battery(seed=args.seed, repeats=args.repeats)
    out_lines = [json.dumps(r.to_doc(), sort_keys=True) for r in records]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(out_lines) + "\n")
    else:
        print("\n".join(out_lines))
    npass = sum(1 for r in records if r.passed and not r.skipped)
    nskip = sum(1 for r in records if r.skipped)
    nfail = sum(1 for r in records if not r.passed)
    print(f"pass {npass} skip {nskip} fail {nfail}", file=sys.stderr)
    return 0 if nfail == 0 else 3


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "region": _cmd_region,
    "member": _cmd_member,
    "project": _cmd_project,
    "verify": _cmd_verify,
    "demo": _cmd_demo,
}


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        tol = _default_tol() if getattr(args, "tol", None) is None \
            else _checked_tol(args.tol, "--tol")
        return _HANDLERS[args.command](args, tol)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RankRangeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
