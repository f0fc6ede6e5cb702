"""Triangles of eigenvalues: gap rules and barycentric weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvexSolution
from .spectra import EigenSystem

WEIGHT_FLOOR = -1e-12
VALUE_TOL = 1e-9
SUM_TOL = 1e-10


@dataclass(frozen=True)
class TriangleSpec:
    """Index triple 1 <= a < b < c <= N with its cyclic gaps."""
    indices: tuple
    dim: int

    def __post_init__(self):
        a, b, c = self.indices
        if not (1 <= a < b < c <= self.dim):
            raise ValueError(f"indices {self.indices} not strictly increasing "
                             f"within 1..{self.dim}")

    @property
    def gaps(self):
        a, b, c = self.indices
        return (b - a, c - b, self.dim + a - c)

    def max_gap(self) -> int:
        return max(self.gaps)


def triangle(a: int, b: int, c: int, dim: int) -> TriangleSpec:
    return TriangleSpec(indices=tuple(sorted((a, b, c))), dim=dim)


def validate_triangle(t: TriangleSpec, k: int) -> bool:
    """Gap rule: every cyclic gap <= k.

    With sorted eigenvalues, a chord skipping at most k-1 indices supports
    a half-plane that contains the whole rank-k region, so a triangle whose
    three gaps are all <= k contains it; the inclusive threshold is
    exercised by the standard constructions (gaps equal to k).
    """
    return t.max_gap() <= k


@dataclass(frozen=True)
class BarycentricWeights:
    triangle: TriangleSpec
    weights: tuple
    residual: float

    def weight_of(self, index: int) -> float:
        return self.weights[self.triangle.indices.index(index)]


def _try_full_solve(pts, lam):
    A = np.array([[1.0, 1.0, 1.0],
                  [p.real for p in pts],
                  [p.imag for p in pts]])
    b = np.array([1.0, lam.real, lam.imag])
    try:
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    return w


def _edge_solution(lam, pa, pb):
    e = pb - pa
    L2 = abs(e) ** 2
    if L2 == 0.0:
        return None
    t = ((lam - pa).real * e.real + (lam - pa).imag * e.imag) / L2
    t = min(1.0, max(0.0, t))
    if abs(pa + t * e - lam) > VALUE_TOL:
        return None
    return 1.0 - t, t


def solve_barycentric(es: EigenSystem, t: TriangleSpec, lam: complex) -> BarycentricWeights:
    """Nonnegative convex weights expressing lam over the triangle vertices.

    Tries the full 3x3 linear system first; on singularity or infeasibility
    falls back to each edge as a 2-point combination, then to exact vertex
    matches. Weights are clamped into [0, 1]; the reconstruction residual
    is re-checked on every exit path.
    """
    lam = complex(lam)
    pts = [es.eigenvalue(j) for j in t.indices]

    w = _try_full_solve(pts, lam)
    if w is not None and (w > WEIGHT_FLOOR).all():
        w = np.clip(w, 0.0, 1.0)
        resid = abs(sum(wi * p for wi, p in zip(w, pts)) - lam)
        if resid <= VALUE_TOL and abs(w.sum() - 1.0) <= SUM_TOL:
            return BarycentricWeights(t, tuple(float(x) for x in w),
                                      float(resid))

    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        sol = _edge_solution(lam, pts[i], pts[j])
        if sol is None:
            continue
        w = [0.0, 0.0, 0.0]
        w[i], w[j] = sol
        resid = abs(sum(wi * p for wi, p in zip(w, pts)) - lam)
        if resid <= VALUE_TOL:
            return BarycentricWeights(t, tuple(w), float(resid))

    for i in range(3):
        if abs(pts[i] - lam) <= VALUE_TOL:
            w = [0.0, 0.0, 0.0]
            w[i] = 1.0
            return BarycentricWeights(t, tuple(w), float(abs(pts[i] - lam)))

    raise NoConvexSolution(
        f"no convex combination of triangle {t.indices} reaches {lam}")
