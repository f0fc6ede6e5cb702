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


def _integer(doc, key: str) -> int:
    """``doc[key]`` when it is an integer, else ParseError: ``int()``
    would read 2.5 as 2."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParseError(f"field {key!r} must be an integer")
    return int(value)


def _reals(doc: dict, key: str) -> np.ndarray:
    """``doc[key]`` as a float array when it holds only numbers, else
    ParseError."""
    try:
        value = np.asarray(doc[key])
        if value.dtype.kind in "iuf":
            return value.astype(float)
    except (KeyError, ValueError):
        pass
    raise ParseError(f"field {key!r} must hold numbers")


def _as_matrix(doc) -> np.ndarray:
    n = _integer(doc, "n")
    re, im = _reals(doc, "re"), _reals(doc, "im")
    if re.shape != (n, n) or im.shape != (n, n):
        raise ParseError(f"arrays 're' and 'im' must be {n}x{n}")
    return re + 1j * im


def read_json(path):
    """The JSON document at ``path``; ParseError if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def load_input(path, tol: float) -> EigenSystem:
    """Read either a matrix document or a spectrum document."""
    return ingest_document(read_json(path), tol)


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
    """The matrix, rank, target and residuals of a projector document;
    ParseError for a non-integer n or k, or a malformed lambda, re or im."""
    P = _as_matrix(doc)
    lam = _reals(doc, "lambda")
    if lam.shape != (2,):
        raise ParseError("field 'lambda' must be [re, im]")
    return P, _integer(doc, "k"), complex(*lam), doc.get("residuals", {})


def plan_to_doc(plan: DecompositionPlan) -> dict:
    triangles = [list(plan.rank1_support)] if plan.rank1_support \
        else [list(t.indices) for t in plan.triangles]
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
