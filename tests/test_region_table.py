"""The region's half-plane rows and the oracle's edge table against the
per-chord and per-hull code they replace.

Each ``_old_*`` function below is a copy of the earlier implementation,
kept here as the reference: margins must be ``==`` to it, verdicts
identical, and oracle margins within 1e-15. The interior point, now the
exact Chebyshev centre, must be at least as deep as the old grid point.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from rankrange import (BruteForceOracle, build_region, constraint_margins,
                       contains, ingest_spectrum, interior_point,
                       region_margin)
from rankrange.geometry import convex_hull, line_margin
from rankrange import region as region_module
from rankrange.region import (BOUNDARY, DEGENERATE_CHORD_TOL, INSIDE,
                              MEMBERSHIP_TOL, OUTSIDE, SCALAR_CHORDS,
                              _least_halfplane_margin)
from rankrange.spectra import TWO_PI

from clustered import clustered_phases
from planar import point_segment_distance

# ---------------------------------------------------------------------------
# the earlier per-chord and per-hull code


def _old_phase_extended(es, j):
    canonical = (j - 1) % es.dim + 1
    offset = TWO_PI * ((j - 1) // es.dim)
    return float(es.phases[canonical - 1] + offset)


def _old_chords(es, k):
    """(start, end, a, b, sign, degenerate, span) per chord, and the
    deduplicated point constraints."""
    n = es.dim
    rows, points = [], []
    for i in range(1, n + 1):
        t0 = _old_phase_extended(es, i)
        t1 = _old_phase_extended(es, i + k)
        a = complex(np.exp(1j * t0))
        b = complex(np.exp(1j * t1))
        span = t1 - t0
        if abs(b - a) <= DEGENERATE_CHORD_TOL:
            sign = 1 if span > np.pi else -1
            if span > np.pi:
                points.append(a)
            rows.append((i, (i + k - 1) % n + 1, a, b, sign, True, span))
            continue
        mid = complex(np.exp(1j * (t0 + t1 + TWO_PI) / 2.0))
        sign = 1 if line_margin(a, b, mid) > 0 else -1
        rows.append((i, (i + k - 1) % n + 1, a, b, sign, False, span))
    unique = []
    for p in points:
        if all(abs(p - q) > 1e-12 for q in unique):
            unique.append(p)
    return rows, tuple(unique)


def _old_constraint_margins(rows, z):
    hp = [r for r in rows if not r[5]]
    if not hp:
        return np.empty((0,) + np.shape(z))
    return np.stack([r[4] * line_margin(r[2], r[3], z) for r in hp])


def _old_region_margin(rows, points, z):
    z = np.asarray(z, dtype=complex)
    m = 1.0 - np.abs(z)
    hp = _old_constraint_margins(rows, z)
    if hp.shape[0]:
        m = np.minimum(m, hp.min(axis=0))
    for p in points:
        m = np.minimum(m, -np.abs(z - p))
    return m


def _old_contains(rows, points, z, tol=MEMBERSHIP_TOL):
    hp = _old_constraint_margins(rows, z)
    hp_min = float(hp.min()) if hp.shape[0] else np.inf
    disk = 1.0 - abs(z)
    pt_miss = max((abs(z - p) for p in points), default=None)
    points_ok = pt_miss is None or pt_miss <= tol
    weak_ok = hp_min >= -tol and disk >= -tol and points_ok
    if weak_ok and hp_min > tol:
        return INSIDE
    if weak_ok:
        return BOUNDARY
    return OUTSIDE


def _old_grid_best(rows, points, xs, ys):
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = X + 1j * Y
    M = _old_region_margin(rows, points, Z)
    idx = np.unravel_index(np.argmax(M), M.shape)
    return complex(Z[idx]), float(M[idx]), \
        (xs[1] - xs[0] if len(xs) > 1 else 1.0)


def _old_interior_point(rows, points, resolution=64):
    xs = np.linspace(-1.0, 1.0, resolution)
    best, margin, cell = _old_grid_best(rows, points, xs, xs)
    for _ in range(2):
        xs = np.linspace(best.real - cell, best.real + cell, resolution)
        ys = np.linspace(best.imag - cell, best.imag + cell, resolution)
        cand, m, cell = _old_grid_best(rows, points, xs, ys)
        if m > margin:
            best, margin = cand, m
    if margin <= 0.0:
        return None
    return best


def _old_hull_signed_distance(z, points):
    """Signed distance of z to conv(points): positive depth when inside,
    negative distance when outside. Handles degenerate hulls."""
    hull = convex_hull(points)
    if len(hull) == 1:
        return -abs(z - hull[0])
    if len(hull) == 2:
        return -point_segment_distance(z, hull[0], hull[1])
    margins = [line_margin(hull[i], hull[(i + 1) % len(hull)], z)
               for i in range(len(hull))]
    m = min(margins)
    if m >= 0.0:
        return float(m)
    # outside: true distance to the polygon
    return -min(point_segment_distance(z, hull[i], hull[(i + 1) % len(hull)])
                for i in range(len(hull)))


def _old_oracle_margin(es, k, z):
    pts = es.eigenvalues()
    n = es.dim
    return min(_old_hull_signed_distance(z, tuple(pts[list(sub)]))
               for sub in combinations(range(n), n - k + 1))


def _old_verdict(m, tol=MEMBERSHIP_TOL):
    if m > tol:
        return INSIDE
    if m >= -tol:
        return BOUNDARY
    return OUTSIDE


# ---------------------------------------------------------------------------
# spectra and query points

# the degenerate and pinned spectra of tests/test_region.py, plus clusters
SPECIAL = [
    ([0.0, 0.0, 0.0, 0.0], 2),
    ([0.0, 0.0, 1.3], 2),
    (2 * np.pi * np.arange(5) / 5, 5),
    (2 * np.pi * np.arange(5) / 5, 2),
    ([0.0, 0.0, 0.0], 3),
    ([0.0, 0.0, 0.0], 2),
    ([0.0, np.pi], 1),
    ([0.0, 2 * np.pi / 3, 4 * np.pi / 3], 2),
    ([0.1, 1.0, 2.4, 4.0], 1),
    ([0.5, 0.5, 0.5, 2.0, 2.0, 4.0, 4.0], 2),
    ([1.0] * 5 + [3.0, 5.0], 3),
    ([0.2, 0.2 + 1e-11, 2.0, 2.0, 4.5, 5.0, 5.0, 5.0, 6.0], 3),
]


def _random_spectra():
    rng = np.random.default_rng(31)
    out = []
    for n in (5, 6, 7, 9, 12, 13, 29, 64, 150, 600):
        phases = np.sort(rng.uniform(0.0, 2 * np.pi, n))
        for k in sorted({1, 2, max(1, n // 3), n // 2, n - 1, n} - {0}):
            out.append((phases, k))
    return out


CASES = SPECIAL + _random_spectra()


def _queries(es, rng, count=120):
    z = rng.uniform(-1.1, 1.1, count) + 1j * rng.uniform(-1.1, 1.1, count)
    pts = es.eigenvalues()
    mids = (pts + np.roll(pts, -1)) / 2
    some = np.unique(np.linspace(0, es.dim - 1, 40).astype(int))
    return np.concatenate([z, pts[some], mids[some], [0j, 1 + 0j, 1.2j]])


#: NaN, infinite and huge query points
NONFINITE = [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
             complex(-np.inf, 0.0), complex(0.0, np.inf),
             complex(0.0, -np.inf), complex(1e300, 0.0),
             complex(-1e300, 1e300), complex(0.0, -1e300)]


def _edge_queries(rows):
    """NONFINITE, and the points 0, +-tol and +-2 tol from the midpoint of
    the first and of the last live chord along its inward normal, so that
    a margin close to +-MEMBERSHIP_TOL decides the verdict."""
    out = list(NONFINITE)
    live = [r for r in rows if not r[5]]
    for _, _, a, b, sign, _, _ in live[:1] + live[-1:]:
        normal = sign * 1j * (b - a) / abs(b - a)
        out += [(a + b) / 2 + s * MEMBERSHIP_TOL * normal
                for s in (0.0, 1.0, -1.0, 2.0, -2.0)]
    return out


# ---------------------------------------------------------------------------
# the region's rows and its per-chord constraints


@pytest.mark.parametrize("phases,k", CASES)
def test_chord_constraints_equal_old(phases, k):
    es = ingest_spectrum(phases)
    region = build_region(es, k)
    rows, points = _old_chords(es, k)
    got = [(c.start_index, c.end_index, c.endpoint_a, c.endpoint_b,
            c.inward_sign, c.degenerate, c.span) for c in region.constraints]
    assert got == rows
    assert [type(v) for v in got[0]] == [type(v) for v in rows[0]]
    assert region.point_constraints == points
    live = [r for r in rows if not r[5]]
    assert len(region.rows[0]) == len(live)
    assert (region.rows[0] + 1j * region.rows[1]).tolist() == \
        [r[2] for r in live]


@pytest.mark.parametrize("phases,k", CASES)
def test_margins_and_verdicts_equal_old(phases, k, monkeypatch):
    es = ingest_spectrum(phases)
    region = build_region(es, k)
    rows, points = _old_chords(es, k)
    rng = np.random.default_rng(es.dim * 100 + k)
    zs = _queries(es, rng)
    grid = zs[:100].reshape(10, 10)
    for z in (zs, grid, zs[3]):
        assert np.array_equal(constraint_margins(region, z),
                              _old_constraint_margins(rows, z))
        assert np.array_equal(region_margin(region, z),
                              _old_region_margin(rows, points, z))
    # contains through both forms of its least margin
    queries = zs.tolist() + _edge_queries(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        old = [_old_contains(rows, points, z) for z in queries]
        for cut in FORMS.values():
            monkeypatch.setattr(region_module, "SCALAR_CHORDS", cut)
            assert [contains(region, z) for z in queries] == old


# ---------------------------------------------------------------------------
# contains' two forms of the least margin

#: SCALAR_CHORDS values that send every region through the array kernel, and
#: every region through the plain-float loop
FORMS = {"kernel": 0, "loop": 10 ** 9}


def _form_spectra(kind, n, rng):
    """(phases, k) pairs of size n: random; clustered; or coincident, with
    k + 1 equal eigenvalues (dead chords that add no constraint) and with
    n - k + 1 (dead chords that pin the region)."""
    ks = sorted({1, max(1, n // 3), n - 1})
    if kind == "random":
        return [(np.sort(rng.uniform(0, 2 * np.pi, n)), k) for k in ks]
    if kind == "clustered":
        return [(clustered_phases(int(rng.integers(1 << 30)), 3, n), k)
                for k in ks]
    out = []
    for k in ks:
        for equal in {k + 1, n - k + 1}:
            out.append((np.sort(np.r_[np.full(equal, 0.4), rng.uniform(
                0, 2 * np.pi, n - equal)]), k))
    return out


def _near_chords(region, rng):
    """Points in the disk, and points 0 and +-1e-12 from the midpoints of
    about eight live chords along their inward normals."""
    zs = list(rng.uniform(-0.8, 0.8, 16) + 1j * rng.uniform(-0.8, 0.8, 16))
    ax, ay, ex, ey, length = region.rows
    for i in range(0, len(ax), max(1, len(ax) // 8)):
        mid = complex(ax[i] + ex[i] / 2, ay[i] + ey[i] / 2)
        normal = 1j * complex(ex[i], ey[i]) / length[i]
        zs += [mid + s * 1e-12 * normal for s in (0.0, 1.0, -1.0)]
    return zs


@pytest.mark.parametrize("kind", ["random", "clustered", "coincident"])
def test_least_margin_of_both_forms_is_equal(kind, monkeypatch):
    # every live-chord count from 3 to twice the cut-over
    rng = np.random.default_rng(["random", "clustered",
                                 "coincident"].index(kind))
    for n in range(3, 2 * SCALAR_CHORDS + 1):
        for phases, k in _form_spectra(kind, n, rng):
            region = build_region(ingest_spectrum(phases), k)
            zs = _near_chords(region, rng)
            least = {}
            for form, cut in FORMS.items():
                monkeypatch.setattr(region_module, "SCALAR_CHORDS", cut)
                least[form] = [_least_halfplane_margin(region, z.real, z.imag)
                               for z in zs]
            assert least["loop"] == least["kernel"], (n, k)


def test_contains_form_follows_live_chord_count(monkeypatch):
    def refuse(*args):
        raise AssertionError("contains called the array kernel")

    es, regions = {}, {}
    for n, k in ((12, 4), (64, 21)):
        es[n] = ingest_spectrum(np.sort(np.random.default_rng(n).uniform(
            0, 2 * np.pi, n)))
        regions[n] = build_region(es[n], k)
    small, large = regions[12], regions[64]
    assert len(small.rows[0]) <= SCALAR_CHORDS < len(large.rows[0])
    zs = _near_chords(small, np.random.default_rng(1)) + [0j, 1.2j]
    # below the cut-over, the plain-float loop alone
    monkeypatch.setattr(region_module, "_halfplane_margins", refuse)
    rows, points = _old_chords(es[12], 4)
    for z in zs:
        assert contains(small, z) == _old_contains(rows, points, z), z
    with pytest.raises(AssertionError, match="array kernel"):
        contains(large, 0j)
    # above it, the kernel alone: no row tuples are built
    monkeypatch.undo()
    rows, points = _old_chords(es[64], 21)
    for z in zs:
        assert contains(large, z) == _old_contains(rows, points, z), z
    assert "halfplane_tuples" not in vars(large)
    assert len(small.halfplane_tuples) == 12


def test_halfplane_rows_are_read_only():
    region = build_region(ingest_spectrum(2 * np.pi * np.arange(5) / 5), 2)
    rows = region.rows
    assert len(rows) == 5
    for row in rows:
        assert row.shape == (5,) and row.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0


def test_region_keeps_only_its_rows_at_n300000():
    # the five float rows of the live chords are 5 x 8 x 300,000 bytes,
    # 11.44 MiB; the earlier chord table and eigenvalue copy kept 30.04
    es = ingest_spectrum(np.sort(np.random.default_rng(0).uniform(
        0, 2 * np.pi, 300_000)))
    es.mu, es.two_turns     # the eigensystem's arrays, not the region's
    tracemalloc.start()
    try:
        region = build_region(es, 100_000)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 13 * 2 ** 20, kept / 2 ** 20
    assert "constraints" not in vars(region)
    assert "eigenvalues" not in vars(region)
    assert np.array_equal(region.eigenvalues, es.mu)
    assert "eigenvalues" in vars(region)


@pytest.mark.parametrize("n,k", [(9, 3), (12, 4), (64, 21), (600, 200)])
def test_interior_point_as_deep_as_old(n, k):
    rng = np.random.default_rng(n)
    es = ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, n)))
    region = build_region(es, k)
    rows, points = _old_chords(es, k)
    z = interior_point(region)
    assert contains(region, z) == INSIDE
    assert region_margin(region, z) >= \
        _old_region_margin(rows, points, _old_interior_point(rows, points))


# ---------------------------------------------------------------------------
# the oracle


def test_hull_signed_distance():
    square = [0j, 2 + 0j, 2 + 2j, 2j]
    np.testing.assert_allclose(_old_hull_signed_distance(1 + 1j, square), 1.0)
    np.testing.assert_allclose(_old_hull_signed_distance(3 + 1j, square),
                               -1.0)
    # degenerate: segment
    assert _old_hull_signed_distance(1j, [-1 + 0j, 1 + 0j]) == -1.0

ORACLE_CASES = [case for case in SPECIAL if len(case[0]) <= 9] + [
    (np.sort(np.random.default_rng(n).uniform(0, 2 * np.pi, n)), k)
    for n, k in ((5, 2), (7, 2), (8, 3), (9, 3), (10, 4), (12, 4))]


@pytest.mark.parametrize("phases,k", ORACLE_CASES)
def test_oracle_equals_old_hull_loop(phases, k):
    es = ingest_spectrum(phases)
    oracle = BruteForceOracle(es, k)
    assert len(oracle.hulls) == len(list(
        combinations(range(es.dim), es.dim - k + 1)))
    rng = np.random.default_rng(es.dim * 10 + k)
    zs = _queries(es, rng, count=30)
    for z in zs.tolist():
        old = _old_oracle_margin(es, k, z)
        assert abs(oracle.margin(z) - old) <= 1e-15, z
        assert oracle.verdict(z) == _old_verdict(old), z


# ---------------------------------------------------------------------------
# the per-chord constraints are built on demand


def test_constraints_built_only_when_read(monkeypatch):
    from rankrange import construct_projector, decomposition

    built = []

    def kept(es, k):
        built.append(build_region(es, k))
        return built[-1]

    monkeypatch.setattr(decomposition, "build_region", kept)
    es = ingest_spectrum(np.sort(np.random.default_rng(5).uniform(
        0, 2 * np.pi, 14)))
    region = build_region(es, 5)
    lam = interior_point(region)
    assert contains(region, lam) == INSIDE
    construct_projector(es, 5, lam)
    assert len(built) == 1
    for r in (region, built[0]):
        assert "constraints" not in vars(r)
    # the first read builds them once, equal to the earlier per-chord code
    first = region.constraints
    assert region.constraints is first
    rows, _ = _old_chords(es, 5)
    assert [(c.start_index, c.end_index, c.endpoint_a, c.endpoint_b,
             c.inward_sign, c.degenerate, c.span) for c in first] == rows
