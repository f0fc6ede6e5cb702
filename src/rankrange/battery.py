"""Seeded end-to-end batteries: random instances over every supported
dimension family, constructed and verified, with per-instance records.

The record stream is deterministic for a fixed seed apart from the wall
time field, which is reported for information only.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .decomposition import construct_projector, verify_projector
from .errors import MathRejection, ParseError, RankRangeError
from .region import build_region, interior_point
from .spectra import EigenSystem, ingest_matrix, ingest_spectrum

#: (case label, N, k) triples covering all construction branches
DEFAULT_SIZES = (
    ("three_k", 3, 1),
    ("three_k", 6, 2),
    ("three_k", 9, 3),
    ("three_k_minus_1", 5, 2),
    ("three_k_minus_1", 8, 3),
    ("three_k_minus_1", 11, 4),
    ("three_k_minus_2", 13, 5),
    ("three_k_minus_2", 16, 6),
    ("rank1", 7, 1),
)


@dataclass
class ReportRecord:
    n: int
    k: int
    target: complex
    case: str
    conjugated: bool
    seed: int
    passed: bool = True
    residuals: dict = field(default_factory=dict)
    skipped: str = None
    wall_ms: float = 0.0
    strategy: str = ""    # the construction rung that built the witness

    def to_doc(self) -> dict:
        doc = {
            "n": self.n, "k": self.k,
            "lambda": [self.target.real, self.target.imag],
            "case": self.case, "strategy": self.strategy,
            "conjugated": self.conjugated, "seed": self.seed,
            "pass": self.passed, "residuals": self.residuals,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.skipped:
            doc["skipped"] = self.skipped
        return doc


def random_unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_instance(rng, n: int, conjugate: bool) -> EigenSystem:
    phases = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    if not conjugate:
        return ingest_spectrum(phases)
    q = random_unitary(rng, n)
    u = q @ np.diag(np.exp(1j * phases)) @ q.conj().T
    return ingest_matrix(u, tol=1e-8)


def pick_target(es: EigenSystem, k: int):
    """The point constraint when the rank-k region is pinned to a point,
    else its deepest interior point, or None when it has no usable target."""
    region = build_region(es, k)
    if region.point_constraints:
        return region.point_constraints[0]
    return interior_point(region)


def run_one(es: EigenSystem, k: int, case: str, conjugated: bool,
            seed: int) -> ReportRecord:
    start = time.perf_counter()
    target = pick_target(es, k)
    rec = ReportRecord(es.dim, k, 0j if target is None else complex(target),
                       case, conjugated, seed)
    if target is None:
        rec.skipped = "empty region"
    else:
        try:
            proj = construct_projector(es, k, target)
            report = verify_projector(proj.matrix, es.matrix, target, k)
            rec.passed, rec.residuals = report.passed, report.residuals
            rec.strategy = proj.strategy
        except MathRejection as exc:
            rec.skipped = f"rejected: {exc}"
        except RankRangeError as exc:
            rec.passed, rec.residuals = False, {"error": str(exc)}
    rec.wall_ms = 1e3 * (time.perf_counter() - start)
    return rec


def demo_battery(seed: int = 42, sizes=DEFAULT_SIZES, repeats: int = 3):
    """Deterministic instance stream covering every dimension case.

    Returns ReportRecords; spectra whose region is empty are skipped with a
    note rather than failed. Alternates diagonal and conjugated inputs.
    Raises ParseError unless seed is an integer >= 0 and repeats an integer
    >= 1: a negative seed fails inside numpy, and no repeats would run the
    crafted instances alone.
    """
    try:
        seed, repeats = operator.index(seed), operator.index(repeats)
    except TypeError:
        raise ParseError(f"seed and repeats must be integers, got "
                         f"{seed!r} and {repeats!r}") from None
    if seed < 0 or repeats < 1:
        raise ParseError(f"need seed >= 0 and repeats >= 1, got {seed} "
                         f"and {repeats}")
    records = []
    for pos, (case, n, k) in enumerate(sizes):
        for rep in range(repeats):
            sub_seed = int(np.random.SeedSequence(
                entropy=seed, spawn_key=(pos, rep)).generate_state(1)[0])
            rng = np.random.default_rng(sub_seed)
            conjugated = rep % 2 == 1
            es = random_instance(rng, n, conjugated)
            records.append(run_one(es, k, case, conjugated, sub_seed))
    # crafted degenerate instances: identity spectrum and an empty region
    ident = ingest_spectrum([0.0] * 4)
    records.append(run_one(ident, 2, "degenerate_point", False, seed))
    equilateral = ingest_spectrum([0.0, 2.0 * np.pi / 3, 4.0 * np.pi / 3])
    records.append(run_one(equilateral, 2, "empty_region", False, seed))
    return records
