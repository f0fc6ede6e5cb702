"""Triangles of eigenvalues: gap rules and barycentric weights.

``solve_barycentric`` is the one rule for which convex weights of a
triangle of eigenvalues reach a target: one TriangleSpec, or a stack of
index rows solved together, each row ``==`` to its solve alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvexSolution, ParseError
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
            raise ParseError(f"indices {self.indices} not strictly increasing "
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


def _distance(z, lam):
    """|z - lam| by ``np.hypot``, which rounds as Python's complex ``abs``
    (numpy's complex ``abs`` need not)."""
    d = z - lam
    return np.hypot(d.real, d.imag)


def _full_solves(pts, lam):
    """The 3 x 3 solve of lam over each triangle of vertices ``pts`` (T, 3)
    in one stacked solve: the weights clipped into [0, 1], their
    reconstruction residuals, and whether each row passes its gates
    (WEIGHT_FLOOR, VALUE_TOL, SUM_TOL). An exactly singular row (the stack
    then raises LinAlgError, and is solved again without its rows of zero
    determinant) fails them."""
    A = np.ones((len(pts), 3, 3))
    A[:, 1], A[:, 2] = pts.real, pts.imag
    b = np.broadcast_to([1.0, lam.real, lam.imag], (len(pts), 3))[..., None]
    try:
        w = np.linalg.solve(A, b)[..., 0]
    except np.linalg.LinAlgError:
        w = np.full((len(pts), 3), np.nan)
        live = np.linalg.det(A) != 0.0
        try:
            w[live] = np.linalg.solve(A[live], b[live])[..., 0]
        except np.linalg.LinAlgError:
            pass            # every row fails
    ok = (w > WEIGHT_FLOOR).all(axis=1)
    w = np.clip(w, 0.0, 1.0)
    resid = _distance(w[:, 0] * pts[:, 0] + w[:, 1] * pts[:, 1]
                      + w[:, 2] * pts[:, 2], lam)
    ok &= (resid <= VALUE_TOL) & (np.abs(w.sum(axis=1) - 1.0) <= SUM_TOL)
    return w, resid, ok


def _first(hit):
    """Rows of the (M, 3) mask ``hit`` that hold a True, and the column of
    the first True in each."""
    rows, col = np.nonzero(hit)
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    return rows[first], col[first]


def _edge_or_vertex(pts, lam):
    """Weights (M, 3) and residuals of lam over the triangles ``pts`` (M, 3)
    from an edge, else a vertex, NaN where neither reaches it.

    Edge c runs from vertex (0, 0, 1)[c] to vertex (1, 2, 2)[c]; the three
    edges of every row are taken in one (M, 3) pass, and the first that
    holds wins: a live edge (length > 0) whose nearest point to lam, at
    position t in [0, 1], lies within VALUE_TOL, and whose weights
    (1 - t, t) reconstruct lam within VALUE_TOL. A row with no such edge
    takes its first vertex within VALUE_TOL of lam. The arithmetic is on
    real and imaginary parts, each step rounded as the complex one; the
    squared length is ``np.float_power``'s pow, as Python's ``** 2`` of a
    float rounds it, where ``np.square`` may not."""
    x, y, lx, ly = pts.real, pts.imag, lam.real, lam.imag
    w = np.full(pts.shape, np.nan)
    out = np.full(len(pts), np.nan)
    vert = _distance(pts, lam)
    rows, col = _first(vert <= VALUE_TOL)
    w[rows] = np.eye(3)[col]
    out[rows] = vert[rows, col]
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    ex, ey = x[:, j] - x[:, i], y[:, j] - y[:, i]
    L2 = np.float_power(np.hypot(ex, ey), 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(((lx - x[:, i]) * ex + (ly - y[:, i]) * ey) / L2, 0.0, 1.0)
    near = (L2 != 0.0) & (np.hypot((x[:, i] + t * ex) - lx,
                                   (y[:, i] + t * ey) - ly) <= VALUE_TOL)
    if near.any():
        rows, col = np.nonzero(near)
        s, a, b = t[rows, col], pts[rows, i[col]], pts[rows, j[col]]
        resid = np.full(near.shape, np.inf)
        resid[rows, col] = np.hypot((1.0 - s) * a.real + s * b.real - lx,
                                    (1.0 - s) * a.imag + s * b.imag - ly)
        rows, col = _first(resid <= VALUE_TOL)
        w[rows] = 0.0
        w[rows, i[col]] = 1.0 - t[rows, col]
        w[rows, j[col]] = t[rows, col]
        out[rows] = resid[rows, col]
    return w, out


def solve_barycentric(es: EigenSystem, t, lam: complex, first=False):
    """Nonnegative convex weights expressing lam over triangle vertices.

    ``t`` is one TriangleSpec, which gives its BarycentricWeights or raises
    NoConvexSolution, or a (T, 3) stack of ascending 1-based index rows,
    which gives weights (T, 3), a row of NaN where no weights reach lam.
    Every row goes through one stacked 3 x 3 solve (``_full_solves``);
    only the rows that miss its gates go on to the edges and then the
    vertices (``_edge_or_vertex``). Weights are clamped into [0, 1]; the
    reconstruction residual is re-checked on every exit path.

    With ``first``, a stack is solved only as far as the first row that
    passes the full solve: only the misses before it go on to the edges,
    and every row after it reads NaN. The rows up to it are those of the
    whole stack, so its first row with weights is too.
    """
    lam = complex(lam)
    single = isinstance(t, TriangleSpec)
    pts = es.mu[np.atleast_2d(t.indices if single else t) - 1]
    w, resid, ok = _full_solves(pts, lam)
    stop = len(ok)
    if first and ok.any():
        stop = int(np.argmax(ok))
        w[stop + 1:] = np.nan
    miss = np.flatnonzero(~ok[:stop])
    if miss.size:
        w[miss], resid[miss] = _edge_or_vertex(pts[miss], lam)
    if not single:
        return w
    if np.isnan(resid[0]):
        raise NoConvexSolution(
            f"no convex combination of triangle {t.indices} reaches {lam}")
    return BarycentricWeights(t, tuple(w[0].tolist()), float(resid[0]))
