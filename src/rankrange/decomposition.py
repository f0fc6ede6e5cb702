"""Plan selection, vector synthesis and projector assembly.

``plan`` emits the combinatorial template for each supported dimension
family: k disjoint triangles for N = 3k, one shared-vertex pairing for
N = 3k-1, two pairings for N = 3k-2 (k >= 5), and a direct convex
decomposition for k = 1. Weak-vertex probes decide the branch; when the
opening vertex is heavy the whole template is reflected through an
orientation-reversing relabeling and mapped back. The probes run on every
call, one triangle solve; each template is built and checked once per
shape and shared.

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
2. ``caratheodory`` for k = 1 (the fan triangles of the hull solved in one
   ``solve_barycentric`` call), else ``planned``: the plan's own pieces,
   its pair blocks first checked for feasibility in one margin call (the
   target must lie in the rank-2 region of each block's own 5
   eigenvalues);
3. ``blockwise``, for N = 3k-1 and 3k-2 only: each pair block is the
   evenly spaced 5-index candidate with the best min of its own rank-2
   margin and its remainder's margin. Each step scores one chord table
   (n starts by the few spans near 2n/5 that the candidates' chords take,
   and the six spans r .. r+5 of a remainder's rank-r chords); the layout
   of the candidates is built once per size and cached, stored by chord
   so that each candidate's min is 5 contiguous gathers. A partition
   picks the BLOCK_SHORTLIST best blocks, and each chord of their
   remainders is one more gather from the same table. The 3m indices left
   take the triangles (j, j+m, j+2m), which a positive rank-m margin of
   the remainder makes feasible;
4. ``adaptive``: a deterministic search re-partitions the indices among
   feasible triangles and blocks. It scores every triangle of the spectrum
   once per construction, and each of its steps keeps the rows of that
   table whose indices it still holds. Each step inherits the margin its
   parent scored for it.

When all four miss, the construction raises NoSolution.

Margins of sub-spectra, ``subspectrum_margin(es, j, lam, rows)``, take
their chord ends from ``region.chord_ends`` and score them with
``region.chord_margins``: the region and every scorer share one chord-end
rule and one chord rule. Each pair block's rank-2 margin is scored once,
by the rung that proposes it; every triangle of a candidate is solved
before any of its blocks, so one with an infeasible triangle never pays
the pair solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from . import blocks
from .errors import (GramFailure, InvalidRank, LambdaOutsideRegion,
                     NoConvexSolution, NoSolution, ShapeMismatch,
                     UnsupportedDimension)
from .region import (BOUNDARY, INSIDE, MEMBERSHIP_TOL, build_region,
                     chord_ends, chord_margins, contains, successor)
from .spectra import EigenSystem, ReflectionMap, reflect_labels
from .triangles import solve_barycentric, triangle, validate_triangle

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
# pair-block candidates whose remainders the block-first rung scores, best
# block margins first; scoring all of them would take about 81 N rows of
# length N - 5
BLOCK_SHORTLIST = 64

CASE_THREE_K = "three_k"
CASE_THREE_K_MINUS_1 = "three_k_minus_1"
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

    def covered(self):
        out = []
        for t in self.triangles:
            out.extend(t.indices)
        return out


@dataclass(frozen=True)
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
    plan: DecompositionPlan = field(default=None, repr=False)

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


def projector_thresholds(tol: float = MEMBERSHIP_TOL) -> dict:
    scale = tol / MEMBERSHIP_TOL
    return {"hermiticity": 1e-10 * scale, "idempotency": 1e-9 * scale,
            "trace": 1e-9 * scale, "compression": 1e-8 * scale}


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
    n, k = plan.dim, plan.k
    counts = {}
    for j in plan.covered():
        counts[j] = counts.get(j, 0) + 1
    shared = {p.shared for p in plan.pairings}
    for j in range(1, n + 1):
        expected = 2 if j in shared else 1
        if counts.get(j, 0) != expected:
            raise NoSolution(
                f"plan covers index {j} {counts.get(j, 0)} times, "
                f"expected {expected}")
    for t in plan.triangles:
        if not validate_triangle(t, k):
            raise NoSolution(f"planned triangle {t.indices} violates gap rule")
    for p in plan.pairings:
        for pos in (p.first, p.second):
            if p.shared not in plan.triangles[pos].indices:
                raise NoSolution("pairing vertex missing from its triangle")


def plan(es: EigenSystem, k: int, lam: complex) -> DecompositionPlan:
    """Dimension dispatch and weak-vertex branching (pure combinatorics).

    The probes run on every call; the plan they select is built and
    checked once per shape (``_plan_template``) and shared."""
    n = es.dim
    lam = complex(lam)
    if k < 1:
        raise UnsupportedDimension(f"rank k={k} must be positive")
    if n == 3 * k:
        return _plan_template(CASE_THREE_K, k, n, None)
    if n == 3 * k - 1 and k >= 2:
        return _plan_three_k_minus_1(es, k, lam)
    if n == 3 * k - 2 and k >= 5:
        return _plan_three_k_minus_2(es, k, lam)
    if k == 1:
        return _plan_rank1(es, lam)
    raise UnsupportedDimension(
        f"no construction for N={n}, k={k}; supported: N=3k, N=3k-1 "
        f"(k>=2), N=3k-2 (k>=5), k=1")


# one plan per (case, k, N, pivot); a 3k-2 size has 4 shapes
@functools.lru_cache(maxsize=64)
def _plan_template(case: str, k: int, n: int, pivot) -> DecompositionPlan:
    """The plan of one shape, its triangles relabeled through the
    reflection about ``pivot`` (None: not reflected), checked by
    ``_check_plan`` once; NoSolution, which is not cached, if the check
    fails."""
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


def _plan_three_k_minus_1(es: EigenSystem, k: int, lam: complex):
    probe = triangle(1, k + 1, 2 * k + 1, dim=es.dim)
    pivot = None
    if solve_barycentric(es, probe, lam).weight_of(1) > 0.5:
        # vertex 2k+1 is necessarily weak; renumber so it plays vertex 1
        pivot = 2 * k + 1
    return _plan_template(CASE_THREE_K_MINUS_1, k, es.dim, pivot)


def _plan_three_k_minus_2(es: EigenSystem, k: int, lam: complex):
    """Probe 1 and probe 2 in both labelings are solved in one call; only a
    row that the branch reads must have weights."""
    n = es.dim
    refl = reflect_labels(es, k - 1)
    probe2 = (k - 2, 2 * k - 2, 3 * k - 3)
    rows = [(1, k - 1, 2 * k - 1), probe2, tuple(sorted(refl.indices(probe2)))]
    w = solve_barycentric(es, np.array(rows), lam)

    def weight(row, index):
        if np.isnan(w[row, 0]):
            raise NoConvexSolution(f"no convex combination of triangle "
                                   f"{rows[row]} reaches {lam}")
        return w[row, rows[row].index(index)]

    if weight(0, 1) <= 0.5:
        refl, second = None, weight(1, 2 * k - 2)
    else:
        # vertex k-1 is weak instead; renumber so it plays vertex 1
        second = weight(2, refl(2 * k - 2))
    case = CASE_THREE_K_MINUS_2_C1 if second <= 0.5 \
        else CASE_THREE_K_MINUS_2_C2
    return _plan_template(case, k, n, None if refl is None else refl.pivot)


def _plan_rank1(es: EigenSystem, lam: complex) -> DecompositionPlan:
    support, _ = _caratheodory_support(es, lam)
    return DecompositionPlan(CASE_RANK_1, 1, es.dim, (), (),
                             rank1_support=tuple(support))


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
    fan (1, j, j+1), checked in that order. The N - 2 fan triangles are
    solved in one ``solve_barycentric`` call, and the first in fan order
    that has weights gives the support and weights; only the fan rows
    before the first one that the full solve passes can come first, so
    only those of them that it misses go on to the edge pass."""
    lam = complex(lam)
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
        # fan row r is the triangle (1, r+2, r+3)
        w = solve_barycentric(es, np.stack(
            [np.ones(n - 2, dtype=int), np.arange(2, n), np.arange(3, n + 1)],
            axis=1), lam, first=True)
        found = np.flatnonzero(~np.isnan(w[:, 0]))
        if found.size:
            r = int(found[0])
            return (1, r + 2, r + 3), tuple(w[r].tolist())
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
    -inf; j < 1 raises InvalidRank.
    """
    if j < 1:
        raise InvalidRank(f"rank j={j} must be positive")
    single = np.ndim(rows) == 1
    rows = np.atleast_2d(rows)
    if rows.shape[1] == 0 or j > rows.shape[1]:
        out = np.full(rows.shape[0], -np.inf)
    else:
        ends = chord_ends(es, rows, successor(rows, j, es.dim))
        out = np.minimum(1.0 - np.abs(lam),
                         chord_margins(*ends, lam).min(axis=1))
    return float(out[0]) if single else out


def _margin_of(es: EigenSystem, indices, j: int, lam: complex) -> float:
    return subspectrum_margin(es, j, lam, np.sort(indices) - 1)


# ---------------------------------------------------------------------------
# synthesis


def _planned_pieces(pl: DecompositionPlan):
    """(kind, data) synthesis pieces for a plan: 'block' for each pairing's
    5-index union, 'tri' for every unpaired triangle."""
    paired_positions = set()
    pieces = []
    for p in pl.pairings:
        paired_positions.update((p.first, p.second))
        support = sorted(set(pl.triangles[p.first].indices)
                         | set(pl.triangles[p.second].indices))
        pieces.append(("block", tuple(support)))
    for pos, t in enumerate(pl.triangles):
        if pos not in paired_positions:
            pieces.append(("tri", t.indices))
    return pieces


def _try_pieces(es, lam, pieces, kk):
    """The stacked pieces (see ``Projector``) of a candidate partition, or
    None when one of them is infeasible: its pair blocks, rows (B, 5) and
    isotropic pairs (B, 5, 2), then its triangles, rows (T, 3) and the
    square roots of their barycentric weights (T, 3, 1).

    Every triangle is solved first, in one ``solve_barycentric`` call, so
    a candidate with a triangle that has no weights never pays
    ``isotropic_pair``, which then solves all the pair blocks in one
    stacked call. Each pair block arrives scored by the
    rung that proposed it, at a rank-2 margin of at least
    FEASIBILITY_FLOOR (BLOCK_FLOOR for the block-first rung), and is not
    scored again here."""
    if sum(1 if kind == "tri" else 2 for kind, _ in pieces) != kk:
        return None
    tris, blks = ([idx for kind, idx in pieces if kind == want]
                  for want in ("tri", "block"))
    out = []
    if tris:
        tris = np.sort(tris, axis=1)
        w = solve_barycentric(es, tris, lam)
        if np.isnan(w[:, 0]).any():
            return None
        out.append((tris - 1, np.sqrt(np.maximum(0.0, w))[:, :, None]
                    .astype(complex)))
    if blks:
        rows = np.sort(blks, axis=1) - 1
        try:
            coef = blocks.isotropic_pair(es.mu[rows] - lam)
        except NoSolution:
            return None
        out.insert(0, (rows, coef))
    return out


def _blocks_feasible(es, pieces, lam) -> bool:
    """Whether every pair block of ``pieces`` has a rank-2 margin of at least
    FEASIBILITY_FLOOR, scored in one row-form call."""
    blks = [idx for kind, idx in pieces if kind == "block"]
    return not blks or subspectrum_margin(
        es, 2, lam, np.sort(blks, axis=1) - 1).min() >= FEASIBILITY_FLOOR


def _feasible_triples(es, active, lam):
    """The triangle table of ``active``: the smallest barycentric weight of
    each index triple whose triangle holds lam, shape (T,), and the triple's
    1-based indices, shape (T, 3), largest weight first, ties in
    combination order, by one batched Cramer solve.

    Each Cramer term depends on at most two of a triple's vertices, so it
    is tabulated once per vertex pair and gathered per triple. A row's
    weight therefore does not depend on the other active indices, and
    ``_restrict`` of this table to a subset is the table of that subset."""
    act = np.asarray(active)
    pts = es.mu[act - 1]
    n = act.size
    if n < 3:
        return np.empty(0), np.empty((0, 3), dtype=act.dtype)
    # every a < b < c in the order of combinations(range(n), 3): each pair
    # a < b < n - 1 in order, repeated once for each c above b
    a, b = np.triu_indices(n - 1, 1)
    per_pair = n - 1 - b
    ends = np.cumsum(per_pair)
    a, b = np.repeat(a, per_pair), np.repeat(b, per_pair)
    c = np.arange(ends[-1]) - np.repeat(ends - per_pair, per_pair) + b + 1
    ab, ac, bc = a * n + b, a * n + c, b * n + c
    x, y = pts.real, pts.imag
    X, Y = lam.real, lam.imag
    cross = x[:, None] * y[None, :] - x[None, :] * y[:, None]
    to_lam = X * y - x * Y
    from_lam = x * Y - X * y
    num_a = ((cross - to_lam[None, :]) + to_lam[:, None]).ravel()
    num_b = ((to_lam[None, :] - cross) + from_lam[:, None]).ravel()
    num_c = ((from_lam[None, :] - from_lam[:, None]) + cross).ravel()
    cross = cross.ravel()
    det = (cross[bc] - cross[ac]) + cross[ab]
    ok = np.abs(det) > 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        min_w = np.minimum(np.minimum(num_a[bc] / det, num_b[ac] / det),
                           num_c[ab] / det)
    feas = ok & (min_w >= -1e-12)
    order = np.argsort(-min_w[feas], kind="stable")
    rows = np.nonzero(feas)[0][order]
    return min_w[rows], act[np.stack([a[rows], b[rows], c[rows]], axis=1)]


def _restrict(table, active, dim):
    """The rows of a triangle table whose three indices are all in
    ``active``, in the table's order."""
    weights, tris = table
    inside = np.zeros(dim + 1, dtype=bool)
    inside[list(active)] = True
    keep = inside[tris[:, 0]] & inside[tris[:, 1]] & inside[tris[:, 2]]
    # compress copies rows several times faster than boolean indexing
    return weights.compress(keep), tris.compress(keep, axis=0)


def _remainders(n: int, chosen: np.ndarray) -> np.ndarray:
    """Positions 0..n-1 left after removing each row of ``chosen`` (distinct
    positions per row), one ascending row per row of ``chosen``."""
    keep = np.ones((chosen.shape[0], n), dtype=bool)
    keep[np.arange(chosen.shape[0])[:, None], chosen] = False
    return np.tile(np.arange(n), chosen.shape[0])[keep.ravel()].reshape(
        chosen.shape[0], -1)


def _spaced_blocks(n: int) -> np.ndarray:
    """Evenly spaced 5-position pair-block candidates on positions 0..n-1.

    The rows are j + (0, g1, g2, g3, g4) mod n for every start j, with each
    g_i within 1 of round(i*n/5) and 0 < g1 < g2 < g3 < g4 < n, each row
    sorted, start by start, and no repeat built: row (j, p) repeats an
    earlier row exactly when p rotated to its position c > 0 is a pattern
    too and j + g_c wraps past n, so p keeps the starts j < n - max g_c."""
    near = np.rint(np.arange(1, 5) * n / 5).astype(int)
    offs = near + np.array(list(product((-1, 0, 1), repeat=4)))
    offs = offs[(offs[:, 0] > 0) & (offs[:, 3] < n)
                & (np.diff(offs, axis=1) > 0).all(axis=1)]
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
    ``good[np.argsort(-m, kind="stable")[:BLOCK_SHORTLIST]]``. A partition
    keeps every margin at least the BLOCK_SHORTLIST-th largest, ties
    included, and only those are sorted."""
    cut = m.size - BLOCK_SHORTLIST
    if cut > 0:
        keep = m >= np.partition(m, cut)[cut]
        good, m = good[keep], m[keep]
    return good[np.argsort(-m, kind="stable")[:BLOCK_SHORTLIST]]


def _blockwise_pieces(es, kk, lam):
    """Block-first pieces for N = 3kk-1 (one pair block) or 3kk-2 (two),
    or None.

    Each block still needed is the evenly spaced candidate (``_spaced_blocks``
    of the indices left) with the best min of its own rank-2 margin and its
    remainder's rank kk-2 margin. Each step scores one chord table
    (``_block_scores``): every candidate's block margin is the min of 5 of
    its entries, and each remainder chord of the BLOCK_SHORTLIST best
    blocks is one more (``_remainder_scores``). The 3m indices left then
    take the triangles (j, j+m, j+2m): the rank-m region of 3m points is
    the intersection of those triangles (Li and Sze, Proc. AMS 136, 2008),
    so the remainder's positive margin makes each feasible. A block may
    hold the target on the boundary of its own rank-2 region
    (BLOCK_FLOOR)."""
    act = np.arange(1, es.dim + 1)
    pieces = []
    while act.size < 3 * kk:
        table, m_blk = _block_scores(es, act, lam)
        good = np.nonzero(m_blk >= BLOCK_FLOOR)[0]
        if good.size == 0:
            return None
        good = _shortlist(good, m_blk[good])
        five = _layout_rows(act.size, good)
        rest = _remainders(act.size, five)
        if kk == 2:
            m_rest = np.full(good.size, np.inf)    # nothing is left
        else:
            m_rest = _remainder_scores(table, act.size, rest, lam)
        best = int(np.argmax(np.minimum(m_blk[good], m_rest)))
        if m_rest[best] < FEASIBILITY_FLOOR:
            return None
        pieces.append(("block", tuple(act[five[best]].tolist())))
        act = act[rest[best]]
        kk -= 2
    # triangle j is (act[j], act[j + m], act[j + 2m]): column j of act
    # read as 3 rows of m
    return pieces + [("tri", t) for t in
                     map(tuple, act.reshape(3, -1).T.tolist())]


def _block_candidates(es, act, lam, tris, kk, floor):
    """5-index blocks built from vertex-sharing feasible triangles, scored
    by the weaker of the block's own rank-2 margin and the remainder's.
    ``act`` holds the active indices ascending; ``tris`` holds the index
    rows of the best feasible triangles, best first. Each candidate carries
    the positions of its remainder in ``act`` and the remainder's rank
    kk-2 margin."""
    top = tris[:40]
    i, j = np.triu_indices(len(top), 1)
    shared = (top[i][:, :, None] == top[j][:, None, :]).sum(axis=(1, 2))
    i, j = i[shared == 1], j[shared == 1]
    if i.size == 0:
        return []
    # the sorted six vertices of a pair hold its shared vertex twice, side
    # by side: drop the second copy
    six = np.sort(np.concatenate([top[i], top[j]], axis=1), axis=1)
    keep = np.ones(six.shape, dtype=bool)
    keep[:, 1:] = six[:, 1:] != six[:, :-1]
    five = six[keep].reshape(-1, 5)
    _, first = np.unique(five, axis=0, return_index=True)
    five = five[np.sort(first)]     # distinct blocks, in order of first pair
    blks = list(map(tuple, five.tolist()))
    m_blk = subspectrum_margin(es, 2, lam, five - 1)
    good = np.nonzero(m_blk >= floor)[0]
    if good.size == 0:
        return []
    rest = _remainders(act.size, np.searchsorted(act, five[good]))
    m_rest = subspectrum_margin(es, kk - 2, lam, act[rest] - 1)
    cands = [(min(mb, mr), blks[g], r, mr)
             for g, mb, mr, r in zip(good.tolist(), m_blk[good].tolist(),
                                     m_rest.tolist(), rest)
             if mr >= floor]
    cands.sort(key=lambda c: (-c[0], c[1]))
    return cands


def _search_pieces(es, kk, lam, active, table, margin=None):
    """Deterministic re-partition of ``active`` (sorted 1-based indices)
    into feasible triangles and 5-index pair blocks for rank kk.

    ``table`` is a ``_feasible_triples`` table over a superset of
    ``active``: the search scores the triangles once, at its root, and each
    node keeps the rows whose indices it still holds and hands them to its
    children. A node scores its candidate moves in batched margin calls and
    tries the children in the order of those scores, so the nodes visited,
    and their order, depend only on the input. Each child receives as
    ``margin`` the rank-kk margin of its ``active`` that its parent scored;
    only the root, called without one, scores its own."""
    active = tuple(sorted(active))
    n_act = len(active)
    if kk == 1:
        _, tris = _restrict(table, active, es.dim)
        if len(tris):
            return [("tri", tuple(tris[0].tolist()))]
        return None
    if kk == 2:
        if n_act == 5:
            if margin is None:
                margin = _margin_of(es, active, 2, lam)
            if margin >= FEASIBILITY_FLOOR:
                return [("block", active)]
            return None
        if n_act == 6:
            # the 10 splits into two triangles, the one holding active[0]
            # first, as 20 rows; the split whose least weight is largest
            # wins, the first of equals
            firsts = [c for c in combinations(active, 3) if c[0] == active[0]]
            rests = [tuple(j for j in active if j not in c) for c in firsts]
            w = solve_barycentric(es, np.array(firsts + rests), lam).min(axis=1)
            m = np.minimum(w[:10], w[10:])
            if np.isnan(m).all():
                return None
            best = int(np.nanargmax(m))
            return [("tri", firsts[best]), ("tri", rests[best])]
        return None
    if n_act < 3 * kk - 2:
        return None

    blocks_required = 3 * kk - n_act  # 0, 1 or 2 pair blocks still needed
    if margin is None:
        margin = _margin_of(es, active, kk, lam)
    threshold = max(FEASIBILITY_FLOOR, 0.25 * margin)
    table = _restrict(table, active, es.dim)
    tris = table[1][:60]
    act = np.array(active)

    def triangle_moves():
        if not len(tris):
            return None
        rest = _remainders(n_act, np.searchsorted(act, tris))
        margins = subspectrum_margin(es, kk - 1, lam, act[rest] - 1)
        scored = [(m, idx, r)
                  for m, idx, r in zip(margins.tolist(),
                                       map(tuple, tris.tolist()), rest)
                  if m >= FEASIBILITY_FLOOR]
        scored.sort(key=lambda c: (-c[0], c[1]))
        ordered = [c for c in scored if c[0] >= threshold] or scored
        for m, idx, r in ordered[:12]:
            tail = _search_pieces(es, kk - 1, lam, tuple(act[r].tolist()),
                                  table, m)
            if tail is not None:
                return [("tri", idx)] + tail
        return None

    def block_moves():
        if blocks_required < 1 or kk < 3:
            return None
        for _, blk, r, m in _block_candidates(es, act, lam, tris, kk,
                                              FEASIBILITY_FLOOR)[:12]:
            tail = _search_pieces(es, kk - 2, lam, tuple(act[r].tolist()),
                                  table, m)
            if tail is not None:
                return [("block", blk)] + tail
        return None

    movers = (block_moves, triangle_moves) if blocks_required >= 2 \
        else (triangle_moves, block_moves)
    for mover in movers:
        found = mover()
        if found is not None:
            return found
    return None


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


def _assemble(es: EigenSystem, lam: complex, pieces, strategy: str,
              pl: DecompositionPlan) -> Projector:
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
                     target=lam, strategy=strategy, plan=pl)


def projector_residuals(P, sigma, lam, k) -> dict:
    P = np.asarray(P, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    return {
        "hermiticity": float(np.linalg.norm(P - P.conj().T)),
        "idempotency": float(np.linalg.norm(P @ P - P)),
        "trace": float(abs(np.trace(P) - k)),
        "compression": float(np.linalg.norm(P @ sigma @ P - lam * P)),
    }


def _eigen_matches(es: EigenSystem, lam: complex) -> list:
    """0-based positions of the eigenvalues within EIGEN_MATCH of lam. The
    distances are ``np.hypot``'s, which rounds as Python ``abs`` of
    ``es.eigenvalue(j + 1) - lam`` does (numpy's complex ``abs`` need
    not)."""
    d = es.mu - lam
    return np.flatnonzero(np.hypot(d.real, d.imag) <= EIGEN_MATCH).tolist()


def construct_projector(es: EigenSystem, k: int, lam: complex,
                        tol: float = MEMBERSHIP_TOL) -> Projector:
    """Rank-k projector P with P sigma P = lam P, built constructively.

    Raises LambdaOutsideRegion unless lam is strictly inside the rank-k
    region (k = 1 also accepts boundary points), UnsupportedDimension for
    dimension pairs without a construction, GramFailure if an internal
    orthonormality check fails, and NoSolution when every rung misses.
    """
    n = es.dim
    lam = complex(lam)
    if k < 1 or k > n:
        raise UnsupportedDimension(f"rank k={k} outside 1..{n}")

    region = build_region(es, k)
    verdict = contains(region, lam, tol)
    if verdict != INSIDE and not (k == 1 and verdict == BOUNDARY):
        raise LambdaOutsideRegion(
            f"{lam} is {verdict} for rank {k}; need a strict interior point")

    # eigenspace shortcut: a k-fold eigenvalue at lam is its own witness,
    # valid at any (N, k)
    close = _eigen_matches(es, lam)
    if len(close) >= k:
        return _assemble(es, lam, [(np.array([close[:k]]),
                                    np.eye(k, dtype=complex)[None])],
                         "eigenspace", None)

    if k == 1 and n != 3:
        # plan's rank-1 case ((3, 1) is three_k): the plan is the
        # Caratheodory support, so build it from a single scan
        return caratheodory_rank1(es, lam)

    pl = plan(es, k, lam)
    pieces = _planned_pieces(pl)
    if _blocks_feasible(es, pieces, lam):
        found = _try_pieces(es, lam, pieces, k)
        if found is not None:
            return _assemble(es, lam, found, "planned", pl)

    if pl.pairings:
        pieces = _blockwise_pieces(es, k, lam)
        if pieces is not None:
            found = _try_pieces(es, lam, pieces, k)
            if found is not None:
                return _assemble(es, lam, found, "blockwise", pl)

    everything = tuple(range(1, n + 1))
    pieces = _search_pieces(es, k, lam, everything,
                            _feasible_triples(es, everything, lam))
    if pieces is not None:
        found = _try_pieces(es, lam, pieces, k)
        if found is not None:
            return _assemble(es, lam, found, "adaptive", pl)

    raise NoSolution(
        f"no feasible decomposition found for N={n}, k={k}, lam={lam}")


def caratheodory_rank1(es: EigenSystem, lam: complex) -> Projector:
    """Rank-1 witness: at most three eigenvalues whose hull carries lam."""
    lam = complex(lam)
    support, weights = _caratheodory_support(es, lam)
    v = np.sqrt(np.maximum(0.0, weights)).astype(complex)
    pl = DecompositionPlan(CASE_RANK_1, 1, es.dim, (), (),
                           rank1_support=tuple(support))
    return _assemble(es, lam, [(np.array([support]) - 1,
                                (v / np.linalg.norm(v))[None, :, None])],
                     "caratheodory", pl)


@dataclass(frozen=True)
class VerificationReport:
    residuals: dict
    thresholds: dict
    passed: bool


def verify_projector(P, sigma, lam: complex, k: int,
                     tol: float = MEMBERSHIP_TOL) -> VerificationReport:
    """Standalone recheck of an alleged projector against a matrix."""
    P = np.asarray(P, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ShapeMismatch(f"projector must be square, got {P.shape}")
    if P.shape != sigma.shape:
        raise ShapeMismatch(
            f"projector {P.shape} does not match matrix {sigma.shape}")
    residuals = projector_residuals(P, sigma, complex(lam), k)
    th = projector_thresholds(tol)
    passed = all(residuals[key] <= th[key] for key in th)
    return VerificationReport(residuals=residuals, thresholds=th,
                              passed=passed)
