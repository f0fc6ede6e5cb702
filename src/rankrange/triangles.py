"""Triangles of eigenvalues: gap rules and barycentric weights.

``solve_barycentric`` is the one rule for which convex weights of a
triangle of eigenvalues reach a target. It takes a stack of index rows,
checked as a TriangleSpec checks its indices, solves them together and
gives one row of weights for each, ``==`` to that row's solve alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError
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


def _distance(z, lam):
    """|z - lam| by ``np.hypot``, which rounds as Python's complex ``abs``
    (numpy's complex ``abs`` need not)."""
    d = z - lam
    return np.hypot(d.real, d.imag)


def _full_solves(pts, lam):
    """The 3 x 3 solve of lam over each triangle of vertices ``pts`` (T, 3)
    in one stacked solve: the weights clipped into [0, 1], and whether each
    row passes its gates (WEIGHT_FLOOR, VALUE_TOL on the reconstruction
    residual, SUM_TOL). An exactly singular row (the stack then raises
    LinAlgError, and is solved again without its rows of zero determinant)
    fails them."""
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
    return w, ok


def _first(hit):
    """Rows of the (M, 3) mask ``hit`` that hold a True, and the column of
    the first True in each."""
    rows, col = np.nonzero(hit)
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    return rows[first], col[first]


def _edge_or_vertex(pts, lam):
    """Weights (M, 3) of lam over the triangles ``pts`` (M, 3) from an edge,
    else a vertex, NaN where neither reaches it.

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
    rows, col = _first(_distance(pts, lam) <= VALUE_TOL)
    w[rows] = np.eye(3)[col]
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
    return w


def solve_barycentric(es: EigenSystem, rows, lam: complex):
    """Nonnegative convex weights expressing lam over triangles of
    eigenvalues: weights (T, 3) for a (T, 3) stack of 1-based index rows,
    or for one row read as T = 1, with a row of NaN where no weights reach
    lam.

    Every row must be integers 1 <= a < b < c <= N, as a TriangleSpec
    holds them; any other input raises ParseError. Every row goes through
    one stacked 3 x 3 solve (``_full_solves``); only the rows that miss
    its gates go on to the edges and then the vertices
    (``_edge_or_vertex``), so each row is ``==`` to its solve alone.
    Weights are clamped into [0, 1]; the reconstruction residual is
    re-checked on every exit path.
    """
    try:
        rows = np.atleast_2d(rows)
    except ValueError as exc:           # a ragged stack
        raise ParseError(f"triangle rows must be rows of 3: {exc}") from None
    if rows.dtype.kind not in "iu" or rows.ndim != 2 or rows.shape[1] != 3:
        raise ParseError(f"triangle rows must be integer rows of 3, got "
                         f"{rows.dtype} of shape {rows.shape}")
    a, b, c = rows.T
    valid = (1 <= a) & (a < b) & (b < c) & (c <= es.dim)
    if not valid.all():
        raise ParseError(f"triangle row {rows[np.argmin(valid)].tolist()} "
                         f"not strictly increasing within 1..{es.dim}")
    lam = complex(lam)
    pts = es.mu[rows - 1]
    w, ok = _full_solves(pts, lam)
    miss = np.flatnonzero(~ok)
    if miss.size:
        w[miss] = _edge_or_vertex(pts[miss], lam)
    return w
