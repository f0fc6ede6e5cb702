"""JSON schemas for matrices, spectra, regions, plans and projectors.

Matrices travel as separate real/imaginary row-major arrays to avoid
complex-literal ambiguity:

    matrix    {"n": N, "re": [[...]], "im": [[...]]}
    spectrum  {"phases": [...]}                      (radians)
    region    {"k", "constraints": [{"i", "a", "b", "sign",
               "degenerate", "span"}]}
    projector {"n", "k", "lambda": [re, im], "re", "im", "residuals"}
    plan      {"case", "triangles", "pairings", "reflected"}
"""

from __future__ import annotations

import json

import numpy as np

from .decomposition import DecompositionPlan
from .errors import ParseError
from .region import OmegaRegion
from .spectra import EigenSystem, ingest_matrix, ingest_spectrum


def _as_matrix(doc) -> np.ndarray:
    n = int(doc["n"])
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ParseError(f"matrix arrays must be {n}x{n}")
    return re + 1j * im


def matrix_to_doc(A) -> dict:
    A = np.asarray(A, dtype=complex)
    return {"n": A.shape[0], "re": A.real.tolist(), "im": A.imag.tolist()}


def load_input(path, tol: float) -> EigenSystem:
    """Read either a matrix document or a spectrum document."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return ingest_document(doc, tol)


def ingest_document(doc, tol: float) -> EigenSystem:
    if not isinstance(doc, dict):
        raise ParseError("input document must be a JSON object")
    if "phases" in doc:
        return ingest_spectrum(doc["phases"])
    if {"n", "re", "im"} <= set(doc):
        return ingest_matrix(_as_matrix(doc), tol)
    raise ParseError(
        "input must carry either 'phases' or 'n'/'re'/'im' fields")


def region_to_doc(region: OmegaRegion) -> dict:
    constraints = []
    for c in region.constraints:
        constraints.append({
            "i": c.start_index,
            "a": [c.endpoint_a.real, c.endpoint_a.imag],
            "b": [c.endpoint_b.real, c.endpoint_b.imag],
            "sign": c.inward_sign,
            "degenerate": bool(c.degenerate),
            "span": c.span,
        })
    return {"k": region.k, "constraints": constraints}


def projector_to_doc(P, k: int, lam: complex, residuals: dict) -> dict:
    """The projector document of the dense rank-k projector P onto the
    target lam, with the residuals its dense check reported (see
    ``verify_projector``); ``projector_from_doc`` reads it back."""
    return {
        "n": P.shape[0],
        "k": k,
        "lambda": [lam.real, lam.imag],
        "re": P.real.tolist(),
        "im": P.imag.tolist(),
        "residuals": residuals,
    }


def projector_from_doc(doc: dict):
    n = int(doc["n"])
    P = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    if P.shape != (n, n):
        raise ParseError(f"projector arrays must be {n}x{n}")
    lam = complex(doc["lambda"][0], doc["lambda"][1])
    return P, int(doc["k"]), lam, doc.get("residuals", {})


def plan_to_doc(plan: DecompositionPlan) -> dict:
    if plan.dimension_case == "rank1":
        triangles = [list(plan.rank1_support)]
    else:
        triangles = [list(t.indices) for t in plan.triangles]
    return {
        "case": plan.dimension_case,
        "triangles": triangles,
        "pairings": [{"triangles": [p.first, p.second], "shared": p.shared}
                     for p in plan.pairings],
        "reflected": plan.reflection_pivot is not None,
    }


def dump(doc, path=None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
