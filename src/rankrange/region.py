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
coincide). Every region query (``contains``, ``constraint_margins``,
``region_margin``) and every sub-spectrum scorer (``chord_margins``) scores
live chords with one half-plane kernel, ``_halfplane_margins``; the region
keeps its live chords in the rows that kernel reads, built once. The
brute-force oracle below implements the defining intersection of convex
hulls of (N-k+1)-point sub-multisets and is used to cross-validate the
chord semantics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np
from scipy.optimize import linprog

from .errors import EmptyRegion, InvalidRank, TooLarge
from .geometry import clip_polygon, convex_hull, line_margin, polygon_area
from .spectra import EigenSystem

DEGENERATE_CHORD_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9

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


@dataclass(frozen=True)
class ChordTable:
    """The N chords as arrays; entry i-1 belongs to start index i.

    ``halfplanes`` holds the live chords in the rows that
    ``_halfplane_margins`` reads: a tuple (ax, ay, ex, ey, length) of
    read-only, contiguous arrays, one entry per live chord, holding the x
    and y of endpoint_a, of the edge b - a, and the edge length.
    ``contains`` reads them as they are, with no unpacking of a 2-D array
    or reshaping; ``constraint_margins`` reshapes them only to broadcast
    against an array z.
    """
    endpoint_a: np.ndarray
    endpoint_b: np.ndarray
    inward_sign: np.ndarray
    span: np.ndarray
    live: np.ndarray
    halfplanes: tuple


@dataclass(frozen=True)
class OmegaRegion:
    """The full constraint set: N chords plus any point constraints.

    Membership, margins and the interior point read the chords from
    ``table``; the per-chord ``constraints`` are built from it only when
    first read."""
    k: int
    dim: int
    point_constraints: tuple
    eigenvalues: np.ndarray
    table: ChordTable = field(repr=False, compare=False)

    @functools.cached_property
    def constraints(self) -> tuple:
        """One ChordConstraint per start index i = 1..N, from ``table``."""
        t, n = self.table, self.dim
        return tuple(
            ChordConstraint(start_index=i + 1, end_index=(i + self.k) % n + 1,
                            endpoint_a=ca, endpoint_b=cb, inward_sign=s,
                            degenerate=not lv, span=sp)
            for i, (ca, cb, s, lv, sp) in enumerate(zip(
                t.endpoint_a.tolist(), t.endpoint_b.tolist(),
                t.inward_sign.tolist(), t.live.tolist(), t.span.tolist())))

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
    """The chord table, one chord per start index i = 1..N with end index
    i+k cyclic, and the point constraints of its pinning chords, each
    distinct endpoint once."""
    n = es.dim
    if k < 1 or k > n:
        raise InvalidRank(f"rank k={k} outside 1..{n}")
    start = np.arange(n)
    t0, t1, a, b = chord_ends(es, start, successor(start, k, n))
    edge, length, live, pinned = chord_rule(t0, t1, a, b)
    al, el = a[live], edge[live]
    halfplanes = np.stack([al.real, al.imag, el.real, el.imag, length[live]])
    halfplanes.setflags(write=False)      # and so every row view of it
    table = ChordTable(endpoint_a=a, endpoint_b=b,
                       inward_sign=np.where(live | pinned, 1, -1),
                       span=t1 - t0, live=live, halfplanes=tuple(halfplanes))
    return OmegaRegion(k=k, dim=n,
                       point_constraints=tuple(dict.fromkeys(
                           a[pinned].tolist())),
                       eigenvalues=es.eigenvalues(), table=table)


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


def constraint_margins(region: OmegaRegion, z):
    """Stacked inward margins of all half-plane constraints at z.

    Returns an array of shape (#halfplanes,) + shape(z); empty first axis
    when every constraint is degenerate.
    """
    z = np.asarray(z, dtype=complex)
    lead = (1,) * z.ndim
    return _halfplane_margins([r.reshape(r.shape + lead)
                               for r in region.table.halfplanes],
                              z.real, z.imag)


def region_margin(region: OmegaRegion, z):
    """Overall signed margin: min of chord margins, the disk margin and
    (negated) distance to any point constraint. Positive only for points
    with room inside every constraint."""
    z = np.asarray(z, dtype=complex)
    m = np.minimum(1.0 - np.abs(z),
                   constraint_margins(region, z).min(axis=0, initial=np.inf))
    for p in region.point_constraints:
        m = np.minimum(m, -np.abs(z - p))
    return m


def contains(region: OmegaRegion, z: complex, tol: float = MEMBERSHIP_TOL) -> str:
    """Membership verdict: inside | boundary | outside.

    inside: |z| <= 1 + tol, every half-plane satisfied with margin > tol,
    every point constraint matched within tol. boundary: within tol of an
    active constraint while violating none by more than tol.

    The least half-plane margin is one ``_halfplane_margins`` call on the
    table's rows and one ``np.minimum.reduce`` (+inf when no chord is
    live); the point constraints are visited only when the region has
    some and z passes the other two tests. A NaN z is outside.
    """
    hp_min = np.minimum.reduce(
        _halfplane_margins(region.table.halfplanes, z.real, z.imag),
        initial=np.inf)
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
        if k < 1 or k > n:
            raise InvalidRank(f"rank k={k} outside 1..{n}")
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
        m = self.margin(z)
        if m > tol:
            return INSIDE
        if m >= -tol:
            return BOUNDARY
        return OUTSIDE


def brute_force_contains(es: EigenSystem, k: int, z: complex,
                         tol: float = MEMBERSHIP_TOL) -> str:
    """One-shot oracle query; build a BruteForceOracle for batches."""
    return BruteForceOracle(es, k).verdict(z, tol)


def interior_point(region: OmegaRegion):
    """The deepest point of the region: the Chebyshev centre of its chord
    half-planes, one linear program over (x, y, r) that maximizes the
    radius r of a disk inside every half-plane. Returns None for a region
    with point constraints, or when the solution's margin is not above
    MEMBERSHIP_TOL, so that ``contains`` calls the point inside (empty,
    point or segment regions give None)."""
    if region.point_constraints:
        return None
    ax, ay, ex, ey, length = region.table.halfplanes
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
    """
    if region.point_constraints:
        p = region.point_constraints[0]
        return [p]
    poly = convex_hull(region.eigenvalues)
    if len(poly) == 2:
        a, b = poly
        lo, hi = 0.0, 1.0
        for c in region.halfplanes():
            va = c.margin(a)
            vb = c.margin(b)
            if abs(vb - va) < 1e-15:
                if va < 0:
                    return []
                continue
            t = va / (va - vb)
            if vb < va:
                hi = min(hi, t)
            else:
                lo = max(lo, t)
        if lo > hi + 1e-12:
            return []
        return [a + lo * (b - a), a + hi * (b - a)]
    if len(poly) < 2:
        return poly
    if polygon_area(poly) < 0:
        poly = poly[::-1]
    for c in region.halfplanes():
        poly = clip_polygon(poly, c.endpoint_a, c.endpoint_b,
                            float(c.inward_sign))
        if not poly:
            return []
    return poly


def boundary_samples(region: OmegaRegion, count: int = 64):
    """Points along the region boundary, counterclockwise, vertices included;
    each edge is sampled at uniform length. Raises EmptyRegion when there is
    nothing to sample."""
    if count < 3:
        raise InvalidRank("count must be at least 3")
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
