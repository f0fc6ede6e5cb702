"""Chord-constraint representation of the rank-k admissible region.

For a unitary spectrum sorted counterclockwise, the region is the
intersection of N disk segments: for each i the segment bounded by the
chord from eigenvalue i to eigenvalue i+k (cyclic) and the
counterclockwise arc from eigenvalue i+k back to eigenvalue i (Li & Sze,
Proc. AMS 136, 2008). ``chord_ends`` forms the ends of every chord, an
end at N or past one turn on, and ``chord_rule`` holds the chord semantics,
for the region and for every sub-spectrum scorer. A chord is live when its
length exceeds DEGENERATE_CHORD_TOL, and a live chord always faces inward with
sign +1: the circle runs counterclockwise, so the arc from b back to a
lies to the left of a -> b. A dead chord (endpoints within
DEGENERATE_CHORD_TOL) carries no constraint when its k-step angular span
is at most pi (k+1 coincident eigenvalues), and pins the region to its
endpoint when the span is wider (the complementary N-k+1 eigenvalues
coincide). The batched region queries (``constraint_margins``,
``region_margin``) and every sub-spectrum scorer (``chord_margins``) score
live chords with one half-plane kernel, ``_halfplane_margins``. A region
stores its live chords in the rows that kernel reads, built once, and
forms its per-chord ``constraints`` from its eigensystem when first read.
``contains`` reads a region of more than SCALAR_CHORDS live chords with the
same kernel, and a smaller one in a plain-float loop over one tuple per
chord, built on the region's first such query: below the cut-over numpy's
per-call cost exceeds the loop's. The loop does the kernel's
floating-point operations in its order, so both forms give the same least
margin and verdict. The brute-force oracle below implements the defining
intersection of convex hulls of (N-k+1)-point sub-multisets and is used
to cross-validate the chord semantics.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, inf

import numpy as np
from scipy.optimize import linprog

from .errors import (EmptyRegion, ParseError, TooLarge, checked_complex,
                     checked_rank, checked_tol)
from .geometry import clip_polygon, convex_hull, line_margin
from .spectra import EigenSystem

DEGENERATE_CHORD_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9
#: ``contains`` takes the least margin of a region with at most this many
#: live chords in a plain-float loop, and of a larger one in the array
#: kernel. Near the crossover: per query on random spectra (Python 3.11,
#: 2-vCPU VM), the loop took 1.4 us at 9 chords, 3.6 at 32, 4.3 at 40 and
#: 4.8 at 44, the kernel 4.5-4.8 us at every one of those sizes
SCALAR_CHORDS = 40
#: a point farther than FAR from the origin is outside every region by
#: about its modulus: its margin from any chord, point constraint or hull of
#: eigenvalues is within 2 of the disk term 1 - |z|, far below one ulp of
#: it, so ``region_margin``, ``decomposition.subspectrum_margin`` and the
#: oracle read the disk term there and form no product of z that could
#: overflow
FAR = 1e150

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


@dataclass(frozen=True)
class ChordConstraint:
    """Half-plane (or point) constraint cut by one chord.

    ``span`` is the ccw angle from endpoint_a to endpoint_b (sum of k
    consecutive gaps, in [0, 2pi]). ``inward_sign`` is +1 for every live
    chord: the ccw arc from endpoint_b back to endpoint_a lies to the left
    of endpoint_a -> endpoint_b. A dead chord reads +1 when it pins the
    region and -1 when it adds no constraint.
    """
    start_index: int
    end_index: int
    endpoint_a: complex
    endpoint_b: complex
    inward_sign: int
    degenerate: bool
    span: float

    def margin(self, z):
        """Signed inward distance from the chord line (vectorized over z)."""
        return self.inward_sign * line_margin(self.endpoint_a,
                                              self.endpoint_b, z)


@dataclass(frozen=True, eq=False)
class OmegaRegion:
    """The rank-k region of one spectrum: k, dim, the point constraints,
    the eigensystem ``es`` and ``rows``, the live chords as the read-only,
    contiguous rows (ax, ay, ex, ey, length) that ``_halfplane_margins``
    reads, one entry per live chord: the x and y of endpoint_a, of the edge
    b - a, and the edge length. The queries read only ``rows`` and the
    point constraints; the per-chord ``constraints`` and the
    ``eigenvalues`` are formed from ``es`` when first read. Equality and
    hash are by identity."""
    k: int
    dim: int
    point_constraints: tuple
    rows: tuple = field(repr=False)
    es: EigenSystem = field(repr=False)

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        return self.es.eigenvalues()

    @functools.cached_property
    def constraints(self) -> tuple:
        """One ChordConstraint per start index i = 1..N, from the chord
        ends and rule that ``build_region`` reads."""
        n = self.dim
        start = np.arange(n)
        t0, t1, a, b = chord_ends(self.es, start, successor(start, self.k, n))
        _, _, live, pinned = chord_rule(t0, t1, a, b)
        return tuple(
            ChordConstraint(start_index=i + 1, end_index=(i + self.k) % n + 1,
                            endpoint_a=ca, endpoint_b=cb, inward_sign=s,
                            degenerate=not lv, span=sp)
            for i, (ca, cb, s, lv, sp) in enumerate(zip(
                a.tolist(), b.tolist(),
                np.where(live | pinned, 1, -1).tolist(), live.tolist(),
                (t1 - t0).tolist())))

    @functools.cached_property
    def halfplane_tuples(self) -> tuple:
        """``rows`` as one (ax, ay, ex, ey, length) tuple of floats per
        live chord, the rows of ``contains``' plain-float loop; built on its
        first read."""
        return tuple(zip(*(r.tolist() for r in self.rows)))

    def halfplanes(self):
        return [c for c in self.constraints
                if not c.degenerate]


def chord_rule(t0, t1, a, b):
    """The chord rule for chords a = exp(1j * t0) -> b = exp(1j * t1),
    t1 >= t0, elementwise: the edge b - a, its length, whether the chord is
    live (longer than DEGENERATE_CHORD_TOL), and whether a dead chord pins
    the region to a (its span exceeds pi). A live chord faces inward with
    sign +1; a dead chord that does not pin adds no constraint."""
    edge = b - a
    length = np.hypot(edge.real, edge.imag)
    live = length > DEGENERATE_CHORD_TOL
    return edge, length, live, ~live & (t1 - t0 > np.pi)


def successor(rows, j: int, n: int) -> np.ndarray:
    """The rank-j successor of the ascending positions ``rows`` (last axis)
    on a cycle of n: ``rows[i + j]``, the last j wrapped one turn on (+ n)."""
    return np.concatenate([rows[..., j:], rows[..., :j] + n], axis=-1)


def chord_ends(es: EigenSystem, start, end):
    """The ends (t0, t1, a, b) that ``chord_rule`` and ``chord_margins``
    read, of the chords from 0-based eigenvalue positions ``start`` to
    ``end``, elementwise; an end in N .. 2N-1 is eigenvalue ``end - N`` one
    turn on, its phase and point read from ``es.two_turns``."""
    phases, points = es.two_turns
    return es.phases[start], phases[end], es.mu[start], points[end]


def build_region(es: EigenSystem, k: int) -> OmegaRegion:
    """The region's rows, of the live chords among the N from start index
    i = 1..N to end index i+k cyclic, and the point constraints of its
    pinning chords, each distinct endpoint once."""
    n = es.dim
    k = checked_rank(k, n)
    start = np.arange(n)
    t0, t1, a, b = chord_ends(es, start, successor(start, k, n))
    edge, length, live, pinned = chord_rule(t0, t1, a, b)
    al, el = a[live], edge[live]
    rows = np.stack([al.real, al.imag, el.real, el.imag, length[live]])
    rows.setflags(write=False)      # and so every row view of it
    return OmegaRegion(k=k, dim=n,
                       point_constraints=tuple(dict.fromkeys(
                           a[pinned].tolist())),
                       rows=tuple(rows), es=es)


def _halfplane_margins(rows, x, y):
    """Inward margins at (x, y) of the chords in ``rows`` = (ax, ay, ex,
    ey, length), five arrays of one shape that broadcasts against x and y:
    ``(ex * (y - ay) - ey * (x - ax)) / length``, the floating-point
    operations of ``ChordConstraint.margin``, bit for bit. It allocates
    only the two differences; the products, their difference and the
    division are taken in place (a product's operands commute exactly)."""
    ax, ay, ex, ey, length = rows
    m = y - ay
    m *= ex
    d = x - ax
    d *= ey
    m -= d
    m /= length
    return m


def chord_margins(t0, t1, a, b, z):
    """Margin of the point z from each chord a -> b under ``chord_rule``,
    elementwise, with the ends from ``chord_ends`` (t0 may be a column):
    ``_halfplane_margins`` for a live chord, -|z - a| for a pinning one and
    +inf for any other dead chord. The min over a spectrum's chords and its
    disk term is ``region_margin`` of the region built on it."""
    edge, length, live, pinned = chord_rule(t0, t1, a, b)
    m = _halfplane_margins((a.real, a.imag, edge.real, edge.imag,
                            np.where(live, length, 1.0)), z.real, z.imag)
    m[~live] = np.inf
    m[pinned] = -np.abs(z - a[pinned])
    return m


def _points(z) -> np.ndarray:
    """``z`` as a complex array, else ParseError: a string or a dict would
    fail untyped, and None would read as NaN."""
    a = np.asarray(z)
    if a.dtype.kind not in "biufc":
        raise ParseError(
            f"points must be complex numbers, not {type(z).__name__}")
    return a.astype(complex, copy=False)


def constraint_margins(region: OmegaRegion, z):
    """Stacked inward margins of all half-plane constraints at z.

    Returns an array of shape (#halfplanes,) + shape(z); empty first axis
    when every constraint is degenerate. Points that are not numbers raise
    ParseError.
    """
    z = _points(z)
    lead = (1,) * z.ndim
    return _halfplane_margins([r.reshape(r.shape + lead)
                               for r in region.rows],
                              z.real, z.imag)


def region_margin(region: OmegaRegion, z):
    """Overall signed margin: min of chord margins, the disk margin and
    (negated) distance to any point constraint. Positive only for points
    with room inside every constraint. A point beyond FAR reads its disk
    term: the constraints score the origin in its place, whose every margin
    is at least -1. Points that are not numbers raise ParseError."""
    z = _points(z)
    disk = 1.0 - np.abs(z)
    near = np.where(disk < 1.0 - FAR, 0j, z)
    m = np.minimum(disk, constraint_margins(region, near).min(
        axis=0, initial=np.inf))
    for p in region.point_constraints:
        m = np.minimum(m, -np.abs(near - p))
    return m


def _least_halfplane_margin(region: OmegaRegion, x, y):
    """The least inward margin at (x, y) over the region's live chords,
    +inf when none is live. Up to SCALAR_CHORDS chords, a plain-float loop
    over ``region.halfplane_tuples`` computes each margin as ``((y - ay) *
    ex - (x - ax) * ey) / length``, the floating-point operations of
    ``_halfplane_margins`` in its order, so the least margin is ``==`` to
    the kernel's; above it, one ``_halfplane_margins`` call on
    ``region.rows`` and one ``np.minimum.reduce``. A NaN margin never
    compares below another, so the loop may skip one that the kernel would
    return."""
    rows = region.rows
    if len(rows[0]) > SCALAR_CHORDS:
        return np.minimum.reduce(_halfplane_margins(rows, x, y),
                                 initial=np.inf)
    least = inf
    for ax, ay, ex, ey, length in region.halfplane_tuples:
        m = ((y - ay) * ex - (x - ax) * ey) / length
        if m < least:
            least = m
    return least


def contains(region: OmegaRegion, z: complex, tol: float = MEMBERSHIP_TOL) -> str:
    """Membership verdict: inside | boundary | outside.

    inside: |z| <= 1 + tol, every half-plane satisfied with margin > tol,
    every point constraint matched within tol. boundary: within tol of an
    active constraint while violating none by more than tol.

    The least half-plane margin is ``_least_halfplane_margin``: a
    plain-float loop on a region of at most SCALAR_CHORDS live chords,
    where numpy's per-call cost exceeds the loop's, and the array kernel
    on a larger one, both ``==``. The point constraints are visited only
    when the region has some and z passes the other two tests. A NaN or
    infinite z is outside, whatever margin either form reads: ``abs(z)``
    is NaN or inf, so z fails the disk test. A z that ``complex()`` cannot
    read, or a tol that is negative, non-finite or not a number, raises
    ParseError.
    """
    tol = checked_tol(tol)
    # a numpy scalar z would run the plain-float loop in numpy's scalar
    # arithmetic, about twice as slow (same values); the typed check is
    # reached only when complex() fails, so the normal path pays nothing
    try:
        z = complex(z)
    except (TypeError, ValueError):
        z = checked_complex(z)   # raises ParseError
    hp_min = _least_halfplane_margin(region, z.real, z.imag)
    weak_ok = hp_min >= -tol and 1.0 - abs(z) >= -tol
    if weak_ok and region.point_constraints:
        weak_ok = max(abs(z - p) for p in region.point_constraints) <= tol
    if weak_ok and hp_min > tol:
        return INSIDE
    if weak_ok:
        return BOUNDARY
    return OUTSIDE


class BruteForceOracle:
    """Membership via the defining intersection of sub-multiset hulls.

    Enumerates every (N-k+1)-point subset of the (indexed) eigenvalues and
    extracts each subset's convex hull once, at construction; a query
    point is inside iff it is inside every hull. The edges of all hulls
    sit in one table, so a query is one vectorized pass: per hull, the
    least edge margin when the point is inside it, else minus its distance
    to the hull; then the least over hulls. A 2-point hull is one segment
    and a 1-point hull a segment of length zero, both scored by distance.
    """

    #: enumeration guard
    MAX_DIM = 16

    def __init__(self, es: EigenSystem, k: int):
        n = es.dim
        k = checked_rank(k, n)
        if n > self.MAX_DIM:
            raise TooLarge(
                f"N={n} exceeds brute-force guard {self.MAX_DIM}")
        count = comb(n, n - k + 1)
        if count > 200_000:
            raise TooLarge(f"{count} subsets exceed enumeration budget")
        pts = es.eigenvalues()
        self.hulls = [tuple(convex_hull(pts[list(sub)]))
                      for sub in combinations(range(n), n - k + 1)]
        starts, ends = [], []
        for hull in self.hulls:
            if len(hull) > 2:
                starts.extend(hull)
                ends.extend(hull[1:] + hull[:1])
            else:
                starts.append(hull[0])
                ends.append(hull[-1])
        sizes = np.array([len(h) if len(h) > 2 else 1 for h in self.hulls])
        self._offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        self._solid = sizes > 2
        a = np.array(starts, dtype=complex)
        e = np.array(ends, dtype=complex) - a
        length = np.hypot(e.real, e.imag)
        moved = length > 0.0
        self._edges = np.stack([a.real, a.imag, e.real, e.imag,
                                np.where(moved, length, 1.0),
                                np.where(moved, length ** 2, 1.0)])

    def margin(self, z: complex) -> float:
        """The least margin of z over the hulls; beyond FAR, where every
        hull's is within 2 of it, the disk term 1 - |z|. A z that
        ``complex()`` cannot read raises ParseError."""
        z = checked_complex(z)
        if abs(z) > FAR:
            return float(1.0 - abs(z))
        ax, ay, ex, ey, length, length2 = self._edges
        dx = z.real - ax
        dy = z.imag - ay
        depth = np.minimum.reduceat((ex * dy - ey * dx) / length,
                                    self._offsets)
        t = np.clip((dx * ex + dy * ey) / length2, 0.0, 1.0)
        dist = np.minimum.reduceat(
            np.hypot(z.real - (ax + t * ex), z.imag - (ay + t * ey)),
            self._offsets)
        return float(np.where(self._solid & (depth >= 0.0), depth,
                              -dist).min())

    def verdict(self, z: complex, tol: float = MEMBERSHIP_TOL) -> str:
        """inside when the margin exceeds tol, boundary within tol of 0,
        else outside; a negative or non-finite tol raises ParseError."""
        tol = checked_tol(tol)
        m = self.margin(z)
        if m > tol:
            return INSIDE
        if m >= -tol:
            return BOUNDARY
        return OUTSIDE


def interior_point(region: OmegaRegion):
    """The deepest point of the region: the Chebyshev centre of its chord
    half-planes, one linear program over (x, y, r) that maximizes the
    radius r of a disk inside every half-plane. Returns None for a region
    with point constraints, or when the solution's margin is not above
    MEMBERSHIP_TOL, so that ``contains`` calls the point inside (empty,
    point or segment regions give None)."""
    if region.point_constraints:
        return None
    ax, ay, ex, ey, length = region.rows
    # margin(x, y) >= r, rearranged into one row of A_ub @ (x, y, r) <= b_ub:
    # (ey x - ex y) / length + r <= (ey ax - ex ay) / length
    rows = np.stack([ey / length, -ex / length, np.ones_like(length)], axis=1)
    res = linprog([0.0, 0.0, -1.0], A_ub=rows,
                  b_ub=(ey * ax - ex * ay) / length,
                  bounds=[(-1.0, 1.0), (-1.0, 1.0), (None, 1.0)],
                  method="highs")
    if res.status != 0:
        return None
    best = complex(res.x[0], res.x[1])
    if not region_margin(region, best) > MEMBERSHIP_TOL:
        return None
    return best


def boundary_polygon(region: OmegaRegion):
    """Exact boundary polygon: the eigenvalue hull clipped by every chord.

    Valid because the region is always contained in the hull of the
    spectrum, so the disk constraint is implied. Returns a ccw list of
    vertices (possibly a segment or single point for degenerate spectra).
    A two-point hull a -> b keeps the part of the segment that no chord
    violates by more than MEMBERSHIP_TOL, as ``contains`` decides: a chord
    cuts it where its margin, linear along the segment, reaches
    -MEMBERSHIP_TOL.
    """
    if region.point_constraints:
        p = region.point_constraints[0]
        return [p]
    poly = convex_hull(region.eigenvalues)
    if len(poly) == 2:
        a, b = poly
        lo, hi = 0.0, 1.0
        for c in region.halfplanes():
            va = c.margin(a) + MEMBERSHIP_TOL
            vb = c.margin(b) + MEMBERSHIP_TOL
            if min(va, vb) >= 0.0:
                continue
            if max(va, vb) < 0.0:
                return []
            t = va / (va - vb)
            if vb < va:
                hi = min(hi, t)
            else:
                lo = max(lo, t)
        if lo > hi:
            return []
        return [a + lo * (b - a), a + hi * (b - a)]
    if len(poly) < 2:
        return poly
    for c in region.halfplanes():
        poly = clip_polygon(poly, c.endpoint_a, c.endpoint_b,
                            float(c.inward_sign))
        if not poly:
            return []
    return poly


def boundary_samples(region: OmegaRegion, count: int = 64):
    """Points along the region boundary, counterclockwise, vertices included;
    each edge is sampled at uniform length. Raises EmptyRegion when there is
    nothing to sample and ParseError unless count is an integer >= 3."""
    try:
        count = operator.index(count)
    except TypeError:
        raise ParseError(f"count must be an integer, got {count!r}") from None
    if count < 3:
        raise ParseError(f"count must be at least 3, got {count!r}")
    poly = boundary_polygon(region)
    if not poly:
        raise EmptyRegion("region is empty at sampling resolution")
    if len(poly) == 1:
        return [poly[0]] * count
    if len(poly) == 2:
        a, b = poly
        ts = np.linspace(0.0, 1.0, count)
        return [a + t * (b - a) for t in ts]
    # rotate to a deterministic start vertex
    start = min(range(len(poly)), key=lambda i: (poly[i].real, poly[i].imag))
    poly = poly[start:] + poly[:start]
    edges = [(poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly))]
    lengths = np.array([abs(b - a) for a, b in edges])
    total = lengths.sum()
    if total == 0.0:
        return [poly[0]] * count
    # one sample at each vertex, the rest distributed by edge length
    counts = np.maximum(1, np.floor(count * lengths / total).astype(int))
    while counts.sum() > count:
        counts[np.argmax(counts)] -= 1
    while counts.sum() < count:
        counts[np.argmax(lengths / counts)] += 1
    out = []
    for (a, b), m in zip(edges, counts):
        ts = np.arange(m) / m
        out.extend(a + t * (b - a) for t in ts)
    return out
