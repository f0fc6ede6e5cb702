"""Dimension families, the paper's templates, synthesis and assembly.

``dimension_case`` holds the rule of the supported dimension families: N =
3k, N = 3k-1 (k >= 2), N = 3k-2 (k >= 5) and k = 1. ``plan`` emits the
paper's combinatorial template for each: k disjoint triangles for N = 3k,
one shared-vertex pairing for N = 3k-1, two pairings for N = 3k-2, and a
direct convex decomposition for k = 1. Weak-vertex probes decide the
branch; when the opening vertex is heavy the whole template is reflected
through an orientation-reversing relabeling and mapped back. The
templates are the reference that the acceptance criteria check and that
``project --plan`` writes; no construction reads them.

``construct_projector`` builds a witness whose compression of the input
matrix is the scalar target, and keeps it as its pieces: on each disjoint
triangle, one column of square roots of barycentric weights, every
triangle of a candidate solved in one ``solve_barycentric`` call; on each
5-index pair block, two jointly solved columns. As the supports are
disjoint, the Gram and compression gates run per piece, in O(k), and the
N x k frame is formed from the pieces only when it is read. All the pair
blocks of a candidate are solved in one stacked ``isotropic_pair`` call.
A spectrum input's basis is never read, so its whole construction is O(N)
in memory.
It climbs one ladder of strategies and returns the first witness that
passes the gates:

1. ``eigenspace``: k eigenvalues at the target are their own witness;
2. ``caratheodory`` for k = 1: of the fan triangles (1, j, j+1) of the
   hull, only the rows that a side test of the target against their two
   diagonals cannot rule out, the fan window, solved in one
   ``solve_barycentric`` call;
3. one block-first call (``_search_pieces``) for N = 3k, 3k-1 and 3k-2,
   once ``dimension_case`` has checked the dimension. At N = 3k it is the
   leaf alone, the paper's triangles (m, k+m, 2k+m), labelled
   ``planned``. At 3k-1 and 3k-2 it is ``blockwise``: each pair block is
   the 5-index candidate, evenly spaced or the paper's shared-vertex
   block, with the best min of its own rank-2 margin and its
   remainder's margin, one step per pair block still needed, with no
   backtracking. Each step scores one chord table (n starts by the few
   spans that the candidates' chords take, and the six spans r .. r+5 of a
   remainder's rank-r chords); the layout of the candidates is built once
   per size and cached, stored by chord so that each candidate's min is 5
   contiguous gathers. A partition picks the BLOCK_SHORTLIST best blocks,
   and each chord of their remainders is one more gather from the same
   table; only when none of them leaves a feasible remainder does the step
   score the remainder of every candidate whose block margin is at least
   BLOCK_FLOOR, REMAINDER_CHUNK entries at a time. The 3m indices left take
   the triangles (j, j+m, j+2m), which a positive rank-m margin of the
   remainder makes feasible. The pieces stay index arrays, one (B, 5) of
   pair blocks and one (T, 3) of triangles, from the search to the gates.

When the call misses, the construction raises NoSolution. The witness is
its own record: its ``strategy`` names the rung, and its pieces the
supports it was built on.

Margins of sub-spectra, ``subspectrum_margin(es, j, lam, rows)``, take
their chord ends from ``region.chord_ends`` and score them with
``region.chord_margins``: the region and every scorer share one chord-end
rule and one chord rule. The construction reads its margins from the
block-first chord table, and ``subspectrum_margin`` is the row-form
reference that table is ``==`` to. Each pair block's rank-2 margin is
scored once, by the step that proposes it; every triangle of a candidate
is solved before any of its blocks, so one with an infeasible triangle
never pays the pair solve.
"""

from __future__ import annotations

import cmath
import functools
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import blocks
from .errors import (GramFailure, LambdaOutsideRegion, NoConvexSolution,
                     NoSolution, ParseError, ShapeMismatch,
                     UnsupportedDimension, checked_complex, checked_rank)
from .region import (BOUNDARY, FAR, INSIDE, MEMBERSHIP_TOL, build_region,
                     chord_ends, chord_margins, contains, successor)
from .spectra import EigenSystem, ReflectionMap, reflect_labels
from .triangles import (SUM_TOL, VALUE_TOL, solve_barycentric, triangle,
                        validate_triangle)

GRAM_GATE = 1e-9
COMPRESSION_GATE = 1e-9
# eigenvalues this close to the target act as exact matches: k of them give
# a projector with compression residual <= sqrt(k) * EIGEN_MATCH, inside
# the verification threshold
EIGEN_MATCH = 1e-9
FEASIBILITY_FLOOR = 1e-9
# the block-first rung tries a pair block whose 5 eigenvalues hold the
# target in their closed rank-2 region: on a symmetric spectrum no block
# need hold it strictly inside, as at the centre of the regular octagon at
# k = 3, and isotropic_pair still solves a block that holds it on its
# boundary
BLOCK_FLOOR = 0.0
# pair-block candidates whose remainders a block-first step scores first,
# best block margins first; scoring all of them takes about 81 N rows of
# length N - 5, which the step builds only when these leave no feasible
# remainder
BLOCK_SHORTLIST = 64
# remainder entries that a block-first step builds at once, so that its
# arrays stay near 8 MB each at any N: about 2^20 / N remainders a chunk
REMAINDER_CHUNK = 1 << 20

# no weights that the triangle solver accepts place lam more than VALUE_TOL
# + SUM_TOL outside the unit circle (they sum to at most 1 + SUM_TOL and
# reconstruct lam within VALUE_TOL), nor does a vertex or hull edge within
# MEMBERSHIP_TOL = VALUE_TOL; the rank-1 scan rejects a lam beyond twice
# that reach at once, so no product of its arithmetic can overflow
RANK1_REACH = 1.0 + 2 * (VALUE_TOL + SUM_TOL)
# a fan row that the full solve passes places lam within VALUE_TOL + SUM_TOL
# = 1.1e-9 of its triangle, and the edge pass within VALUE_TOL; lam's
# signed distance from a diagonal is rounded by about 1e-15 at |lam| <=
# RANK1_REACH, so the rank-1 scan's fan window keeps every row that lam is
# within FAN_SLACK of, about 9 times that reach
FAN_SLACK = 1e-8

CASE_THREE_K = "three_k"
CASE_THREE_K_MINUS_1 = "three_k_minus_1"
CASE_THREE_K_MINUS_2 = "three_k_minus_2"
CASE_THREE_K_MINUS_2_C1 = "three_k_minus_2_case1"
CASE_THREE_K_MINUS_2_C2 = "three_k_minus_2_case2"
CASE_RANK_1 = "rank1"


@dataclass(frozen=True)
class Pairing:
    first: int
    second: int
    shared: int


@dataclass(frozen=True)
class DecompositionPlan:
    dimension_case: str
    k: int
    dim: int
    triangles: tuple
    pairings: tuple
    reflection_pivot: int = None
    branch: str = None
    rank1_support: tuple = None


@dataclass(frozen=True, eq=False)
class Projector:
    """A constructed witness, held as its pieces: P = W W^H.

    ``pieces`` holds one stack per piece shape, ``(rows, coef)``: rows
    (G, r) are the 0-based eigenbasis positions of G disjoint supports and
    coef (G, r, c) their coefficient blocks. A triangle is one column on 3
    rows, a pair block two columns on 5, and the ``eigenspace`` and
    ``caratheodory`` witnesses are one piece each.
    The frame W takes, stack after stack and piece after piece, the c
    columns ``basis[:, rows[g]] @ coef[g]``; ``basis`` None is the
    standard basis of a spectrum input."""
    pieces: tuple = field(repr=False)
    dim: int
    basis: np.ndarray = field(repr=False)
    target: complex
    strategy: str

    @functools.cached_property
    def frame(self) -> np.ndarray:
        """The N x k isometry W in the caller's basis, formed from the
        pieces on first access, in O(N k). In the standard basis each
        coefficient block is scattered onto its rows, ``==`` to the
        product with the identity, whose every term is 1 c or 0 c; else
        the basis columns of each piece's rows are gathered and
        multiplied."""
        if self.basis is None:
            W = np.zeros((self.dim, self.rank), dtype=complex)
            col = 0
            for rows, coef in self.pieces:
                g, _, c = coef.shape
                W[rows[:, :, None],
                  col + np.arange(g * c).reshape(g, 1, c)] = coef
                col += g * c
            return W
        return np.concatenate(
            [np.matmul(np.take(self.basis, rows, axis=1).transpose(1, 0, 2),
                       coef).transpose(1, 0, 2).reshape(self.dim, -1)
             for rows, coef in self.pieces], axis=1)

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x N projector, formed on each access."""
        return self.frame @ self.frame.conj().T

    @property
    def rank(self) -> int:
        return sum(coef.shape[0] * coef.shape[2] for _, coef in self.pieces)


def projector_thresholds() -> dict:
    """The fixed bound on each residual of ``projector_residuals``: no
    tolerance setting rescales them."""
    return {"hermiticity": 1e-10, "idempotency": 1e-9, "trace": 1e-9,
            "compression": 1e-8}


# ---------------------------------------------------------------------------
# planning


def three_k_patterns(k: int):
    """Index triples of the k disjoint triangles for N = 3k."""
    return [(m, k + m, 2 * k + m) for m in range(1, k + 1)]


def three_k_minus_1_patterns(k: int):
    """Triples for N = 3k-1 in canonical numbering (vertex 1 weak in the
    probe): probe, partner, then the k-2 remainder triangles. The remainder
    third index is 3k-m; the off-by-one variant 3k-m-1 collides with vertex
    2k+1 at m = k-2 and never covers index 3k-1."""
    tris = [(1, k + 1, 2 * k + 1), (1, k, 2 * k)]
    tris += [(k - m, 2 * k - m, 3 * k - m) for m in range(1, k - 1)]
    return tris, 1


def three_k_minus_2_patterns(k: int, case: int):
    """Triples for N = 3k-2 in canonical numbering; ``case`` picks which
    vertex of the second probe is weak (1: index 2k-2, 2: index 3k-3).
    The case-2 remainder runs over (m, k+m, 2k+m) for m = 2..k-4; the
    printed variant (m, k+m, 2k+m-1) collides with vertex 2k+1 at m = 2."""
    tris = [(1, k - 1, 2 * k - 1), (1, k + 1, 2 * k + 1),
            (k - 2, 2 * k - 2, 3 * k - 3)]
    if case == 1:
        tris += [(k, 2 * k - 2, 3 * k - 2), (2, k + 2, 2 * k)]
        tris += [(m, k + m, 2 * k + m - 1) for m in range(3, k - 2)]
        shared2 = 2 * k - 2
    else:
        tris += [(k - 3, 2 * k - 3, 3 * k - 3), (k, 2 * k, 3 * k - 2)]
        tris += [(m, k + m, 2 * k + m) for m in range(2, k - 3)]
        shared2 = 3 * k - 3
    return tris, (1, shared2)


def _tri(pattern, refl, n):
    idx = pattern if refl is None else refl.indices(pattern)
    return triangle(*idx, dim=n)


def _check_plan(plan: DecompositionPlan):
    counts = Counter(j for t in plan.triangles for j in t.indices)
    shared = {p.shared for p in plan.pairings}
    for j in range(1, plan.dim + 1):
        expected = 2 if j in shared else 1
        if counts[j] != expected:
            raise NoSolution(f"plan covers index {j} {counts[j]} times, "
                             f"expected {expected}")
    for t in plan.triangles:
        if not validate_triangle(t, plan.k):
            raise NoSolution(f"planned triangle {t.indices} violates gap rule")
    for p in plan.pairings:
        for pos in (p.first, p.second):
            if p.shared not in plan.triangles[pos].indices:
                raise NoSolution("pairing vertex missing from its triangle")


def dimension_case(n: int, k) -> tuple:
    """``checked_rank(k, n)`` and the first family that holds (n, k), so
    that (3, 1) is CASE_THREE_K; UnsupportedDimension if none does."""
    k = checked_rank(k, n)
    if n == 3 * k:
        return k, CASE_THREE_K
    if n == 3 * k - 1 and k >= 2:
        return k, CASE_THREE_K_MINUS_1
    if n == 3 * k - 2 and k >= 5:
        return k, CASE_THREE_K_MINUS_2
    if k == 1:
        return k, CASE_RANK_1
    raise UnsupportedDimension(f"no construction for N={n}, k={k}; supported: "
                               "N=3k, N=3k-1 (k>=2), N=3k-2 (k>=5), k=1")


def plan(es: EigenSystem, k: int, lam: complex) -> DecompositionPlan:
    """The paper's template for (N, k) and lam: dimension dispatch by
    ``dimension_case`` and weak-vertex branching (pure combinatorics)."""
    k, case = dimension_case(es.dim, k)
    lam = checked_complex(lam)
    if case == CASE_THREE_K_MINUS_1:
        return _plan_three_k_minus_1(es, k, lam)
    if case == CASE_THREE_K_MINUS_2:
        return _plan_three_k_minus_2(es, k, lam)
    if case == CASE_RANK_1:
        return DecompositionPlan(case, 1, es.dim, (), (), rank1_support=tuple(
            _caratheodory_support(es, lam)[0]))
    return _plan_template(case, k, es.dim, None)


def _plan_template(case: str, k: int, n: int, pivot) -> DecompositionPlan:
    """The plan of one shape, its triangles relabeled through the
    reflection about ``pivot`` (None: not reflected), checked by
    ``_check_plan``; NoSolution if the check fails."""
    refl = None if pivot is None else ReflectionMap(pivot=pivot, dim=n)
    if case == CASE_THREE_K:
        patterns, shared, branch = three_k_patterns(k), (), None
    elif case == CASE_THREE_K_MINUS_1:
        patterns, one = three_k_minus_1_patterns(k)
        shared, branch = (one,), "vertex1" if refl is None else "reflected"
    else:
        case_no = 1 if case == CASE_THREE_K_MINUS_2_C1 else 2
        patterns, shared = three_k_minus_2_patterns(k, case_no)
        branch = f"case{case_no}"
    out = DecompositionPlan(
        case, k, n, tuple(_tri(t, refl, n) for t in patterns),
        tuple(Pairing(2 * i, 2 * i + 1, j if refl is None else refl(j))
              for i, j in enumerate(shared)),
        reflection_pivot=pivot, branch=branch)
    _check_plan(out)
    return out


def _probe_weights(es: EigenSystem, rows, lam: complex):
    """The weights of lam on the probe triangles ``rows``, all solved in one
    call, as a reader: ``weight(r, j)`` is row r's weight on index j, and
    raises NoConvexSolution for a row without weights, so only the rows
    that a branch reads must have them."""
    w = solve_barycentric(es, np.array(rows), lam)

    def weight(row, index):
        if np.isnan(w[row, 0]):
            raise NoConvexSolution(f"no convex combination of triangle "
                                   f"{rows[row]} reaches {lam}")
        return w[row, rows[row].index(index)]
    return weight


def _plan_three_k_minus_1(es: EigenSystem, k: int, lam: complex):
    # if vertex 1 is heavy, vertex 2k+1 is necessarily weak; renumber so it
    # plays vertex 1
    heavy = _probe_weights(es, [(1, k + 1, 2 * k + 1)], lam)(0, 1) > 0.5
    return _plan_template(CASE_THREE_K_MINUS_1, k, es.dim,
                          2 * k + 1 if heavy else None)


def _plan_three_k_minus_2(es: EigenSystem, k: int, lam: complex):
    """Probe 1 and probe 2 in both labelings are solved in one call."""
    n = es.dim
    refl = reflect_labels(es, k - 1)
    probe2 = (k - 2, 2 * k - 2, 3 * k - 3)
    weight = _probe_weights(es, [(1, k - 1, 2 * k - 1), probe2,
                                 tuple(sorted(refl.indices(probe2)))], lam)
    if weight(0, 1) <= 0.5:
        refl, second = None, weight(1, 2 * k - 2)
    else:
        # vertex k-1 is weak instead; renumber so it plays vertex 1
        second = weight(2, refl(2 * k - 2))
    case = CASE_THREE_K_MINUS_2_C1 if second <= 0.5 \
        else CASE_THREE_K_MINUS_2_C2
    return _plan_template(case, k, n, None if refl is None else refl.pivot)


def _segment_distances(lam, a, b):
    """Distance from lam to each segment a -> b (to a when a == b) and the
    position t in [0, 1] of the nearest point on each."""
    e = b - a
    L2 = e.real ** 2 + e.imag ** 2
    d = lam - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(L2 > 0.0, np.clip((d.real * e.real + d.imag * e.imag)
                                       / L2, 0.0, 1.0), 0.0)
    return np.abs(a + t * e - lam), t


def _caratheodory_support(es: EigenSystem, lam: complex):
    """At most three eigenvalues whose hull holds lam, in O(N).

    The sorted eigenvalues lie on the circle in convex position, so lam is
    an eigenvalue, on a cyclic hull edge (j, j+1), or in a triangle of the
    fan (1, j, j+1), checked in that order. A lam beyond RANK1_REACH is
    rejected before any arithmetic on it. Fan row r (0-based), the
    triangle (1, r+2, r+3), lies left of the diagonal mu_1 -> mu_{r+2} and
    right of mu_1 -> mu_{r+3}, so lam's signed distance from each diagonal
    bounds its distance to the triangle: only the rows within FAN_SLACK
    of both sides, the fan window, can have weights, and only they are
    solved, in fan order, in one ``solve_barycentric`` call. The first
    that has weights gives the support and weights, as the first of all
    N - 2 rows would: each row of a stack is ``==`` to its solve alone."""
    lam = complex(lam)
    if not abs(lam) <= RANK1_REACH:
        raise LambdaOutsideRegion(
            f"{lam} is not in the convex hull of the spectrum")
    mu = es.mu
    n = es.dim
    hit = np.nonzero(np.abs(mu - lam) <= MEMBERSHIP_TOL)[0]
    if hit.size:
        return (int(hit[0]) + 1,), (1.0,)
    # edge j runs from mu[j] to mu[j+1]; an edge of length zero is its
    # vertex, which the test above has rejected
    edge, t = _segment_distances(lam, mu, np.roll(mu, -1))
    on_edge = np.nonzero(edge <= MEMBERSHIP_TOL)[0]
    if on_edge.size:
        j = int(on_edge[0])
        tj = float(t[j])
        if j + 1 < n:
            return (j + 1, j + 2), (1.0 - tj, tj)
        return (1, n), (tj, 1.0 - tj)
    if n >= 3:
        # the cross product of diagonal i (mu_1 -> mu_{i+2}) with lam - mu_1
        # is lam's signed distance from it times its length, so a diagonal
        # of length zero (an eigenvalue at mu_1) keeps its rows
        diag = mu[1:] - mu[0]
        off = lam - mu[0]
        cross = diag.real * off.imag - diag.imag * off.real
        slack = FAN_SLACK * np.hypot(diag.real, diag.imag)
        rows = np.flatnonzero((cross[:-1] >= -slack[:-1])
                              & (cross[1:] <= slack[1:]))
        if rows.size:
            w = solve_barycentric(es, np.stack(
                [np.ones_like(rows), rows + 2, rows + 3], axis=1), lam)
            found = np.flatnonzero(~np.isnan(w[:, 0]))
            if found.size:
                r = int(rows[found[0]])
                return (1, r + 2, r + 3), tuple(w[found[0]].tolist())
    raise LambdaOutsideRegion(
        f"{lam} is not in the convex hull of the spectrum")


# ---------------------------------------------------------------------------
# feasibility margins for sub-spectra


def subspectrum_margin(es: EigenSystem, j: int, lam: complex, rows):
    """Signed margin of lam inside the rank-j region of sub-spectra of es.

    ``rows`` holds ascending 0-based positions into the spectrum, one row
    (m,) or a (C, m) stack. A chord runs from a position to its rank-j
    successor (``region.successor``), and ``region.chord_ends`` forms its
    ends. A stack returns C margins, each ``==`` to its row's alone.

    The chords follow ``region.chord_rule`` and are scored by
    ``region.chord_margins``, which the pair-block scorer ``_block_scores``
    shares, so a sub-spectrum's margin is ``==`` to ``region_margin`` of
    the region built on it. A rank j above the sub-spectrum size gives
    -inf; j < 1, or a j that is not an integer, raises InvalidRank. A lam
    beyond ``region.FAR`` reads its disk term, as ``region_margin`` does.
    """
    j = checked_rank(j)
    single = np.ndim(rows) == 1
    rows = np.atleast_2d(rows)
    if rows.shape[1] == 0 or j > rows.shape[1]:
        out = np.full(rows.shape[0], -np.inf)
    else:
        ends = chord_ends(es, rows, successor(rows, j, es.dim))
        out = np.minimum(1.0 - np.abs(lam), chord_margins(
            *ends, 0j if abs(lam) > FAR else lam).min(axis=1))
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# synthesis


def _try_pieces(es, lam, pieces):
    """The stacked pieces (see ``Projector``) of a candidate partition, or
    None when one of them is infeasible: its pair blocks, rows (B, 5) and
    isotropic pairs (B, 5, 2), then its triangles, rows (T, 3) and the
    square roots of their barycentric weights (T, 3, 1).

    ``pieces`` is the ``(blocks, triangles)`` pair of ``_search_pieces``:
    index arrays (B, 5) and (T, 3), 1-based, each row ascending; an empty
    one adds no stack. Every triangle is solved first, in one
    ``solve_barycentric`` call, so a candidate with a triangle that has no
    weights never pays ``isotropic_pair``, which then solves all the pair
    blocks in one stacked call. Each pair block arrives scored by the
    block-first step that proposed it, at a rank-2 margin of at least
    BLOCK_FLOOR, and is not scored again here."""
    blks, tris = pieces
    out = []
    if len(tris):
        w = solve_barycentric(es, tris, lam)
        if np.isnan(w[:, 0]).any():
            return None
        out.append((tris - 1, np.sqrt(np.maximum(0.0, w))[:, :, None]
                    .astype(complex)))
    if len(blks):
        rows = blks - 1
        try:
            coef = blocks.isotropic_pair(es.mu[rows] - lam)
        except NoSolution:
            return None
        out.insert(0, (rows, coef))
    return out


def _remainders(n: int, chosen: np.ndarray) -> np.ndarray:
    """Positions 0..n-1 left after removing each row of ``chosen`` (distinct
    positions per row), one ascending row per row of ``chosen``."""
    keep = np.ones((chosen.shape[0], n), dtype=bool)
    keep[np.arange(chosen.shape[0])[:, None], chosen] = False
    return np.tile(np.arange(n), chosen.shape[0])[keep.ravel()].reshape(
        chosen.shape[0], -1)


def _spaced_blocks(n: int) -> np.ndarray:
    """The 5-position pair-block candidates on positions 0..n-1: the evenly
    spaced ones and the paper's.

    The rows are j + (0, g1, g2, g3, g4) mod n for every start j, each row
    sorted, start by start. The patterns are every (g1, .., g4) with each
    g_i within 1 of round(i*n/5) and 0 < g1 < g2 < g3 < g4 < n, then, when
    it is not one of them, the paper's shared-vertex block: cyclic gaps (a,
    d, a, d, a) with d = 3 - n mod 3 and a = (n - 2d) / 3, the union of the
    triangles (1, k+1, 2k+1) and (1, k, 2k) at n = 3k-1, and of (1, k-1,
    2k-1) and (1, k+1, 2k+1) at n = 3k-2. No repeat is built: row (j, p)
    repeats an earlier row exactly when p rotated to its position c > 0 is
    a pattern too and j + g_c wraps past n, so p keeps the starts j < n -
    max g_c."""
    near = np.rint(np.arange(1, 5) * n / 5).astype(int)
    offs = near + np.array(list(product((-1, 0, 1), repeat=4)))
    offs = offs[(offs[:, 0] > 0) & (offs[:, 3] < n)
                & (np.diff(offs, axis=1) > 0).all(axis=1)]
    d = 3 - n % 3
    a = (n - 2 * d) // 3
    paper = np.cumsum([a, d, a, d])
    if a > 0 and not (offs == paper).all(axis=1).any():
        offs = np.concatenate([offs, paper[None]])
    offs = np.concatenate([np.zeros((len(offs), 1), dtype=int), offs], axis=1)
    # a pattern is fixed by its 5 cyclic gaps, a rotation by them rolled
    gaps = np.diff(offs, axis=1, append=n).tolist()
    family = set(map(tuple, gaps))
    lim = [n - max([p[c] for c in range(1, 5)
                    if tuple(g[c:] + g[:c]) in family], default=0)
           for p, g in zip(offs.tolist(), gaps)]
    j, p = np.nonzero(np.arange(n)[:, None] < lim)
    return np.sort((j[:, None] + offs[p]) % n, axis=1)


# one entry holds about 2.7 MB at n = 2,999
@functools.lru_cache(maxsize=8)
def _block_layout(n: int):
    """Read-only layout of one block-first step on n positions: the spans S
    of its chord table, ascending, and the flat indices (5, C) of the
    rank-2 chords of the pair-block candidates ``_spaced_blocks(n)`` in
    that table.

    The table is n x |S|: entry (s, i) is the chord from position s to
    position s + S[i], wrapping past n - 1. The step's rank kk = (n + 2)
    // 3 is fixed by n (n = 3kk - 1 or 3kk - 2), and so is its remainders'
    rank r = kk - 2. A remainder's rank-r chord from a position ends r + c
    positions on, c <= 5 the number of block positions it skips, so S holds
    the candidates' spans and, for r > 0, the six spans r .. r + 5, which
    are consecutive in S as they are consecutive integers.

    Column j of the indices belongs to candidate j, and its entry c to the
    candidate's chord c, which runs from its position c to its position
    c + 2 (mod 5); stored by chord, each of the 5 is one contiguous gather.
    The candidates' rows are not stored: position c of row j is the start
    of its chord c (``_layout_rows``). The indices are int32, half the
    bytes of numpy's index type."""
    five = _spaced_blocks(n)
    spans = np.concatenate([five[:, 2:], five[:, :2] + n], axis=1) - five
    r = (n + 2) // 3 - 2
    distinct = np.union1d(spans, r + np.arange(6 if r > 0 else 0))
    idx = np.ascontiguousarray(
        (five * distinct.size + np.searchsorted(distinct, spans)).T,
        dtype=np.int32)
    for arr in (distinct, idx):
        arr.setflags(write=False)
    return distinct, idx


def _layout_rows(n: int, cols) -> np.ndarray:
    """Rows (len(cols), 5) of the ``_block_layout(n)`` candidates
    ``cols``, ``==`` to ``_spaced_blocks(n)[cols]``."""
    spans, idx = _block_layout(n)
    return (idx[:, cols] // spans.size).T


def _block_scores(es, act, lam):
    """The chord table of one block-first step over the active indices
    ``act`` (1-based, ascending), flat, and the rank-2 margins of the
    ``_block_layout`` candidates, ``==`` to ``subspectrum_margin(es, 2,
    lam, act[_spaced_blocks(act.size)] - 1)``.

    The n x |S| table is scored once by ``region.chord_margins``, on the
    chord ends that ``region.chord_ends`` gathers, as for
    ``subspectrum_margin``, the starts one column of the n positions and
    an end past the step's last one turn on (spectrum position + N). Each
    candidate takes the min of its 5 entries, as the running
    ``np.minimum`` of the layout's 5 gathers."""
    n = act.size
    spans, idx = _block_layout(n)
    pos = act - 1
    end = np.concatenate([pos, pos + es.dim])[np.arange(n)[:, None] + spans]
    t0, t1, a, b = chord_ends(es, pos[:, None], end)
    table = chord_margins(t0, t1, a.repeat(spans.size, axis=1), b,
                          lam).ravel()
    idx = idx.astype(np.intp)     # one cast, not one per gather
    out = np.minimum(table[idx[0]], 1.0 - np.abs(lam))
    for chord in idx[1:]:
        np.minimum(out, table[chord], out=out)
    return table, out


def _remainder_scores(table, n, rest, lam):
    """The rank-r margins (r = (n + 2) // 3 - 2 > 0, see ``_block_layout``)
    of the remainders ``rest`` (G, n - 5), ascending positions of the
    step's n, read from its chord table ``table`` (``_block_scores``):
    ``==`` to ``subspectrum_margin`` of those sub-spectra. The chord from
    ``rest[i]`` ends at its rank-r successor (``region.successor``), one
    turn on past the remainder's last r, and its span in the step is the
    difference: one of r .. r + 5, whose columns are consecutive. Each
    chord is one more gather."""
    spans, _ = _block_layout(n)
    r = (n + 2) // 3 - 2
    # entry (rest[i], column of span s) = rest[i] |S| + s + (column of r) - r
    flat = successor(rest, r, n) + rest * (spans.size - 1) \
        + (np.searchsorted(spans, r) - r)
    return np.minimum(1.0 - np.abs(lam), table[flat].min(axis=1))


def _shortlist(good, m):
    """The BLOCK_SHORTLIST entries of ``good`` of largest margin ``m``,
    largest first, ties in the order of ``good``: ``==`` to
    ``good[np.argsort(-m, kind="stable")[:BLOCK_SHORTLIST]]``. ``good`` is
    in family order (``_spaced_blocks``: start by start, then pattern order
    within a start), so among exactly equal margins the first in family
    order comes first. A partition keeps every margin at least the
    BLOCK_SHORTLIST-th largest, ties included, and only those are
    sorted."""
    cut = m.size - BLOCK_SHORTLIST
    if cut > 0:
        keep = m >= np.partition(m, cut)[cut]
        good, m = good[keep], m[keep]
    return good[np.argsort(-m, kind="stable")[:BLOCK_SHORTLIST]]


def _search_pieces(es, kk, lam, act):
    """Block-first pieces of the active indices ``act`` (1-based,
    ascending) for rank kk, or None: the one call of ``construct_projector``
    for N = 3kk (the leaf alone), 3kk-1 (one pair block) or 3kk-2 (two).
    The pieces are one pair of index arrays, ``(blocks, triangles)``, of
    shapes (B, 5) and (T, 3), each row ascending, that ``_try_pieces``
    reads as they are.

    With 3kk indices left they take the triangles (j, j+m, j+2m): the
    rank-m region of 3m points is the intersection of those triangles (Li
    and Sze, Proc. AMS 136, 2008), so the remainder's positive margin makes
    each feasible; at N = 3kk these are the paper's triangles (m, kk+m,
    2kk+m). The leaf's triangles are ``act`` read as 3 rows of m and
    transposed, one (m, 3) view with no row built apart; with no index
    left (the pentagon's leaf) it is empty. Otherwise one step picks the
    pair block, one row of ``act``, and recurses
    once on its remainder, with no backtracking. It scores one chord table
    (``_block_scores``): every ``_spaced_blocks`` candidate's rank-2 margin
    is the min of 5 of its entries. Among the candidates whose block margin
    is at least BLOCK_FLOOR (a block may hold the target on the boundary of
    its own rank-2 region), it scores the remainders of the BLOCK_SHORTLIST
    best (``_shortlist``), each chord one more gather from the table
    (``_remainder_scores``), and picks ``_best_block`` among them; only
    when that finds none, it scores the remainder of every candidate, in
    family order. Among exactly equal scores the first candidate in family
    order wins (start by start, then pattern order within a start), save
    that in the shortlist at kk > 2 a larger block margin comes first
    (``_best_block``); one ulp in the margin arithmetic can still make or
    break a tie."""
    n = act.size
    if n == 3 * kk:
        # triangle j is (act[j], act[j + m], act[j + 2m]): column j of act
        # read as 3 rows of m
        return act[:0].reshape(0, 5), act.reshape(3, -1).T
    table, m_blk = _block_scores(es, act, lam)
    good = np.nonzero(m_blk >= BLOCK_FLOOR)[0]
    for cand in (_shortlist(good, m_blk[good]), good):
        best = _best_block(table, n, kk, cand, m_blk[cand], lam)
        if best is not None:
            break
    else:
        return None
    five = _layout_rows(n, cand[best:best + 1])
    tail = _search_pieces(es, kk - 2, lam, act[_remainders(n, five)[0]])
    if tail is None:
        return None
    return np.concatenate([act[five], tail[0]]), tail[1]


def _best_block(table, n, kk, cand, m_blk, lam):
    """The position in ``cand`` of the pair block of one block-first step,
    or None: among the candidates whose remainder margin is at least
    FEASIBILITY_FLOOR, the largest min of the block margin ``m_blk`` and
    the remainder margin, the first in the order of ``cand`` among exactly
    equal scores. The remainders are built REMAINDER_CHUNK entries at a
    time; at kk = 2 nothing is left, and the block margin alone decides.

    The tie rule: the full pass reads ``cand`` in family order, and the
    shortlist by block margin, largest first, then family order
    (``_shortlist``). So among equal scores the first in family order wins,
    save that in the shortlist at kk > 2 a larger block margin comes before
    it. One ulp in the margin arithmetic can still make or break a tie: at
    ``search`` seed 5, (28,10) #13, 16 of 64 candidates tied."""
    if cand.size == 0:
        return None
    score = m_blk
    if kk > 2:
        step = max(1, REMAINDER_CHUNK // n)
        m_rest = np.concatenate([
            _remainder_scores(table, n, _remainders(
                n, _layout_rows(n, cand[s:s + step])), lam)
            for s in range(0, cand.size, step)])
        score = np.where(m_rest >= FEASIBILITY_FLOOR,
                         np.minimum(score, m_rest), -np.inf)
    best = int(np.argmax(score))
    return None if score[best] == -np.inf else best


def _piece_gates(es: EigenSystem, lam: complex, pieces):
    """The largest Gram deviation |V^H V - I|, diagonal compression residual
    and compression residual |V^H D V| of the stacked pieces, each piece's
    c x c blocks computed alone."""
    d = es.mu - lam
    gram = diag = comp = 0.0
    for rows, coef in pieces:
        adj = coef.conj().transpose(0, 2, 1)
        gram = max(gram, np.abs(adj @ coef - np.eye(coef.shape[2])).max())
        c = adj @ (d[rows][:, :, None] * coef)
        diag = max(diag, np.abs(np.diagonal(c, axis1=1, axis2=2)).max())
        comp = max(comp, np.abs(c).max())
    return gram, diag, comp


def _assemble(es: EigenSystem, lam: complex, pieces,
              strategy: str) -> Projector:
    """Gate the stacked pieces of a witness and return its Projector.

    The supports must be disjoint, else GramFailure. Then the Gram V^H V
    and the compression V^H D V, D = diag(mu - lam), of the eigenbasis
    frame V are block diagonal, one c x c block per piece and exactly zero
    elsewhere, so each gate reads the pieces alone, stacked by shape: 1 x 1
    per triangle and 2 x 2 per pair block. For an orthonormal V the
    compression residual of P = V V^H is that of V^H D V, so no N x N
    product is needed. A spectrum input's basis is not read: the Projector
    keeps None for its standard basis."""
    rows = np.concatenate([r.ravel() for r, _ in pieces])
    if np.bincount(rows, minlength=es.dim).max() > 1:
        raise GramFailure("the supports of the pieces overlap")
    gram, diag, comp = _piece_gates(es, lam, pieces)
    if gram > GRAM_GATE:
        raise GramFailure(f"frame Gram deviates by {gram:.2e}")
    if diag > COMPRESSION_GATE:
        raise GramFailure(f"diagonal compression residual {diag:.2e}")
    if comp > COMPRESSION_GATE:
        raise GramFailure(f"off-diagonal compression residual {comp:.2e}")
    return Projector(pieces=tuple(pieces), dim=es.dim,
                     basis=None if es.standard_basis else es.basis,
                     target=lam, strategy=strategy)


def projector_residuals(P, sigma, lam, k) -> dict:
    """The four residuals of P against sigma and lam. A lam beyond
    ``region.FAR`` is scaled out of the compression residual, s ||P sigma
    P / s - (lam / s) P|| with s = |lam|, so that no product overflows;
    the residual itself may read inf."""
    P = np.asarray(P, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    s = abs(lam)
    if s > FAR:
        comp = s * float(np.linalg.norm(P @ sigma @ P / s - (lam / s) * P))
    else:
        comp = float(np.linalg.norm(P @ sigma @ P - lam * P))
    return {
        "hermiticity": float(np.linalg.norm(P - P.conj().T)),
        "idempotency": float(np.linalg.norm(P @ P - P)),
        "trace": float(abs(np.trace(P) - k)),
        "compression": comp,
    }


def _eigen_matches(es: EigenSystem, lam: complex) -> list:
    """0-based positions of the eigenvalues within EIGEN_MATCH of lam. The
    distances are ``np.hypot``'s, which rounds as Python ``abs`` of
    ``es.eigenvalue(j + 1) - lam`` does (numpy's complex ``abs`` need
    not)."""
    d = es.mu - lam
    return np.flatnonzero(np.hypot(d.real, d.imag) <= EIGEN_MATCH).tolist()


def construct_projector(es: EigenSystem, k: int, lam: complex) -> Projector:
    """Rank-k projector P with P sigma P = lam P, built constructively.

    The ladder of the module docstring: ``eigenspace``, then
    ``caratheodory`` for k = 1, else one block-first call, whose steps
    score every candidate only where their shortlist gives up. ``plan`` is
    not called: ``dimension_case`` checks the dimension, and the witness is
    its own record. ``strategy`` names the rung that built it: ``planned``
    at N = 3k, whose triangles are the paper's, and ``blockwise`` at 3k-1
    and 3k-2, whose pair blocks come from the block-first family and need
    not be those of the paper's template.

    Raises InvalidRank unless k is an integer in 1..N, LambdaOutsideRegion
    unless lam is strictly inside the rank-k region at MEMBERSHIP_TOL (k =
    1 also accepts boundary points), UnsupportedDimension for dimension
    pairs without a construction, GramFailure if an internal
    orthonormality check fails, and NoSolution when the block-first call
    misses.
    """
    n = es.dim
    k = checked_rank(k, n)
    lam = checked_complex(lam)

    region = build_region(es, k)
    verdict = contains(region, lam)
    if verdict != INSIDE and not (k == 1 and verdict == BOUNDARY):
        raise LambdaOutsideRegion(
            f"{lam} is {verdict} for rank {k}; need a strict interior point")

    # eigenspace shortcut: a k-fold eigenvalue at lam is its own witness,
    # valid at any (N, k)
    close = _eigen_matches(es, lam)
    if len(close) >= k:
        return _assemble(es, lam, [(np.array([close[:k]]),
                                    np.eye(k, dtype=complex)[None])],
                         "eigenspace")

    _, case = dimension_case(n, k)
    if case == CASE_RANK_1:
        # (3, 1) is three_k; any other rank-1 witness is one support scan
        return caratheodory_rank1(es, lam)

    pieces = _search_pieces(es, k, lam, np.arange(1, n + 1))
    found = None if pieces is None else _try_pieces(es, lam, pieces)
    if found is None:
        raise NoSolution(
            f"no feasible decomposition found for N={n}, k={k}, lam={lam}")
    return _assemble(es, lam, found,
                     "planned" if case == CASE_THREE_K else "blockwise")


def caratheodory_rank1(es: EigenSystem, lam: complex) -> Projector:
    """Rank-1 witness: at most three eigenvalues whose hull carries lam."""
    lam = checked_complex(lam)
    support, weights = _caratheodory_support(es, lam)
    v = np.sqrt(np.maximum(0.0, weights)).astype(complex)
    return _assemble(es, lam, [(np.array([support]) - 1,
                                (v / np.linalg.norm(v))[None, :, None])],
                     "caratheodory")


@dataclass(frozen=True)
class VerificationReport:
    residuals: dict
    thresholds: dict
    passed: bool


def verify_projector(P, sigma, lam: complex, k: int) -> VerificationReport:
    """Standalone recheck of an alleged projector against a matrix, each
    residual against its fixed bound in ``projector_thresholds``. Raises
    ShapeMismatch for a non-square P or one of another shape than sigma,
    ParseError for a lam that ``complex()`` cannot read or that is not
    finite, and InvalidRank unless k is an integer in 1..N."""
    P = np.asarray(P, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ShapeMismatch(f"projector must be square, got {P.shape}")
    if P.shape != sigma.shape:
        raise ShapeMismatch(
            f"projector {P.shape} does not match matrix {sigma.shape}")
    lam = checked_complex(lam)
    if not cmath.isfinite(lam):
        raise ParseError(f"target must be finite, got {lam!r}")
    residuals = projector_residuals(P, sigma, lam,
                                    checked_rank(k, P.shape[0]))
    th = projector_thresholds()
    passed = all(residuals[key] <= th[key] for key in th)
    return VerificationReport(residuals=residuals, thresholds=th,
                              passed=passed)
