import numpy as np
import pytest

from rankrange import (BOUNDARY, INSIDE, OUTSIDE, BruteForceOracle,
                       EmptyRegion, InvalidRank, LambdaOutsideRegion,
                       ParseError, TooLarge, boundary_samples,
                       build_region, construct_projector, contains,
                       ingest_spectrum, interior_point, region_margin, subspectrum_margin)

from rankrange import region as region_module
from rankrange.region import (SCALAR_CHORDS, chord_ends, chord_margins,
                              chord_rule, successor)
from rankrange.svgout import render_region

from clustered import clustered_phases

PENTAGON = ingest_spectrum(2 * np.pi * np.arange(5) / 5)


def pentagon_region():
    return build_region(PENTAGON, 2)


def test_pentagon_chord_distances():
    region = pentagon_region()
    assert len(region.constraints) == 5
    for c in region.halfplanes():
        assert abs(c.margin(0j) - np.cos(2 * np.pi / 5)) <= 1e-9


def test_pentagon_membership():
    region = pentagon_region()
    assert contains(region, 0j) == INSIDE
    # midpoint of the chord from eigenvalue 1 to eigenvalue 3 is on the edge
    mid = (PENTAGON.eigenvalue(1) + PENTAGON.eigenvalue(3)) / 2
    assert contains(region, mid) == BOUNDARY
    assert contains(region, 0.99 + 0j) == OUTSIDE
    assert BruteForceOracle(PENTAGON, 2).verdict(0.99 + 0j) == OUTSIDE


def test_identity_spectrum_degenerate_point_region():
    es = ingest_spectrum([0.0, 0.0, 0.0, 0.0])
    region = build_region(es, 2)
    assert all(c.degenerate for c in region.constraints)
    assert region.point_constraints
    assert contains(region, 1.0 + 0j) == INSIDE
    assert contains(region, 0.9 + 0j) == OUTSIDE


def test_two_coincident_plus_one():
    theta = 1.3
    es = ingest_spectrum([0.0, 0.0, theta])
    region = build_region(es, 2)
    degenerate = [c for c in region.constraints if c.degenerate]
    assert len(degenerate) == 1
    assert region.point_constraints == (1 + 0j,)
    # the region is exactly {1}; the point sits on two live chords, so the
    # verdict is boundary rather than inside
    assert contains(region, 1 + 0j) == BOUNDARY
    assert contains(region, np.exp(1j * theta)) == OUTSIDE
    assert contains(region, 0.5 * (1 + np.exp(1j * theta))) == OUTSIDE
    # the oracle agrees the region is exactly {1}: every other candidate is
    # outside, and 1 itself sits on each 2-point hull
    oracle = BruteForceOracle(es, 2)
    assert abs(oracle.margin(1 + 0j)) <= 1e-12
    assert oracle.verdict(0.5 + 0j) == OUTSIDE


def test_brute_force_examples():
    assert BruteForceOracle(PENTAGON, 2).verdict(0j) == INSIDE
    # k = 1: single subset, hull of the full spectrum contains the mean
    es = ingest_spectrum([0.1, 1.0, 2.4, 4.0])
    mean = es.eigenvalues().mean()
    assert BruteForceOracle(es, 1).verdict(complex(mean)) == INSIDE
    # k = 2, three distinct phases: each eigenvalue is outside (the three
    # segments only share interior points if one lies on the others' chord)
    es3 = ingest_spectrum([0.2, 2.0, 4.4])
    assert BruteForceOracle(es3, 2).verdict(es3.eigenvalue(1)) == OUTSIDE


def test_brute_force_guard():
    es = ingest_spectrum(np.linspace(0, 6.0, 17))
    with pytest.raises(TooLarge):
        BruteForceOracle(es, 2)


def test_invalid_rank():
    with pytest.raises(InvalidRank):
        build_region(PENTAGON, 0)
    with pytest.raises(InvalidRank):
        build_region(PENTAGON, 6)


def test_rank_that_is_not_an_integer_is_invalid():
    # a float rank raised an untyped TypeError from the index arithmetic;
    # numpy integers are ranks
    es = ingest_spectrum(2 * np.pi * np.arange(9) / 9 + 0.1)
    for k in (3.0, 2.5, np.float64(3.0), "3", None):
        with pytest.raises(InvalidRank):
            build_region(es, k)
        with pytest.raises(InvalidRank):
            BruteForceOracle(es, k)
    # the construction reads the rank through build_region
    for k in (3.0, 2.5):
        with pytest.raises(InvalidRank):
            construct_projector(es, k, 0j)
    for k in (np.int64(3), np.int32(3), np.uint8(3)):
        region = build_region(es, k)
        assert region.k == 3 and type(region.k) is int
        assert region_margin(region, 0j) == region_margin(
            build_region(es, 3), 0j)
        assert BruteForceOracle(es, k).margin(0j) == \
            BruteForceOracle(es, 3).margin(0j)
        assert construct_projector(es, k, 0j).rank == 3


def test_rank_equal_to_dimension():
    # k = N: every chord degenerates with a full-turn span, pinning the
    # region to each eigenvalue simultaneously: empty for distinct phases
    region = build_region(PENTAGON, 5)
    assert len(region.point_constraints) == 5
    assert contains(region, 1 + 0j) == OUTSIDE
    assert contains(region, 0j) == OUTSIDE
    # ...and the single point for a one-point spectrum
    ident = ingest_spectrum([0.0, 0.0, 0.0])
    assert contains(build_region(ident, 3), 1 + 0j) == INSIDE


def test_oracle_equivalence_random(monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(5, 10))
        k = int(rng.integers(2, 4))
        if k > n:
            continue
        es = ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, n)))
        region = build_region(es, k)
        oracle = BruteForceOracle(es, k)
        zs = rng.uniform(-1, 1, (60, 2))
        # contains through the array kernel, then the plain-float loop
        for cut in (0, 10 ** 9):
            monkeypatch.setattr(region_module, "SCALAR_CHORDS", cut)
            for x, y in zs:
                z = complex(x, y)
                if abs(z) > 1:
                    continue
                if abs(region_margin(region, z)) <= 1e-7:
                    continue
                if abs(oracle.margin(z)) <= 1e-7:
                    continue
                assert contains(region, z) == oracle.verdict(z), (n, k, z)


def test_monotonicity_in_k():
    rng = np.random.default_rng(8)
    for _ in range(8):
        n = int(rng.integers(5, 10))
        es = ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, n)))
        r2 = build_region(es, 2)
        r3 = build_region(es, 3)
        for _ in range(40):
            z = complex(*rng.uniform(-1, 1, 2))
            if contains(r3, z) == INSIDE:
                assert contains(r2, z) in (INSIDE, BOUNDARY)


def test_rotation_equivariance():
    rng = np.random.default_rng(9)
    phases = np.sort(rng.uniform(0, 2 * np.pi, 7))
    es = ingest_spectrum(phases)
    region = build_region(es, 2)
    phi = 1.234
    es_rot = ingest_spectrum(phases + phi)
    region_rot = build_region(es_rot, 2)
    rot = np.exp(1j * phi)
    for _ in range(80):
        z = complex(*rng.uniform(-1, 1, 2))
        if abs(region_margin(region, z)) <= 1e-9:
            continue
        assert contains(region_rot, rot * z) == contains(region, z)


def test_rank1_values_never_outside():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        es = ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, n)))
        region = build_region(es, 1)
        sigma = np.diag(es.eigenvalues())
        for _ in range(20):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            val = complex(v.conj() @ sigma @ v)
            assert contains(region, val) in (INSIDE, BOUNDARY)


def test_interior_point_pentagon():
    z = interior_point(pentagon_region())
    assert z is not None and abs(z) <= 1e-2


def test_interior_point_is_chebyshev_centre():
    # the rank-2 pentagon region is a regular pentagon: its deepest point is
    # the origin, at the chords' distance cos(2pi/5) from every chord
    z = interior_point(pentagon_region())
    assert abs(z) <= 1e-9
    assert abs(region_margin(pentagon_region(), z)
               - np.cos(2 * np.pi / 5)) <= 1e-9


def test_interior_point_point_region_empty():
    es = ingest_spectrum([0.0, 0.0, 0.0])
    region = build_region(es, 2)
    assert interior_point(region) is None
    # caller-side fallback is the point constraint itself
    assert region.point_constraints == (1 + 0j,)


def test_interior_point_segment_region_empty():
    # two antipodal eigenvalues at k = 1: the region is the diameter
    # segment, which has no interior under margin semantics
    es = ingest_spectrum([0.0, np.pi])
    region = build_region(es, 1)
    assert interior_point(region) is None
    assert contains(region, 0j) == BOUNDARY
    assert BruteForceOracle(es, 1).verdict(0j) == BOUNDARY
    assert contains(region, 0.1 + 0.1j) == OUTSIDE


@pytest.mark.parametrize("phases, k", [([0.0, np.pi], 1),
                                       ([0.0, 0.0, np.pi, np.pi], 2)])
def test_segment_region_is_sampled(phases, k):
    # the region is the diameter [-1, 1]: its chords run along it, with
    # margins of about +-1e-16 at its ends, which the two-point branch
    # reads at MEMBERSHIP_TOL as contains does
    es = ingest_spectrum(phases)
    region = build_region(es, k)
    assert contains(region, 0j) == BOUNDARY
    assert BruteForceOracle(es, k).verdict(0j) == BOUNDARY
    samples = boundary_samples(region, 9)
    assert {samples[0], samples[-1]} == {-1 + 0j, 1 + 0j}
    np.testing.assert_allclose(np.array(samples).imag, 0.0, atol=1e-15)
    assert np.all(np.abs(np.diff(np.array(samples).real)) > 0.2)
    text = render_region(region)
    assert "polyline" in text and "empty region" not in text


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_bad_membership_tolerance_is_parse_error(tol):
    # a NaN tolerance called the centre of the pentagon's region outside
    region = pentagon_region()
    assert contains(region, 0j) == INSIDE
    with pytest.raises(ParseError, match="tol must be a finite number"):
        contains(region, 0j, tol=tol)
    oracle = BruteForceOracle(PENTAGON, 2)
    assert oracle.verdict(0j) == INSIDE
    with pytest.raises(ParseError, match="tol must be a finite number"):
        oracle.verdict(0j, tol=tol)


@pytest.mark.parametrize("n,k", [(12, 4), (64, 21)])
@pytest.mark.parametrize("z", [float("nan"), complex(float("nan"), 0.0),
                               complex(0.0, float("inf")),
                               complex(float("-inf"), 0.0)])
def test_nan_or_infinite_z_is_outside(n, k, z):
    # one region on each side of the cut-over: the plain-float loop skips
    # a NaN margin that the array kernel returns, and the disk test must
    # call z outside under both
    es = ingest_spectrum(np.sort(np.random.default_rng(n).uniform(
        0, 2 * np.pi, n)))
    region = build_region(es, k)
    assert (region.table.live.sum() <= SCALAR_CHORDS) == (n == 12)
    with np.errstate(invalid="ignore"):
        assert contains(region, z) == OUTSIDE


@pytest.mark.parametrize("count", [2, 0, -5])
def test_boundary_samples_count_below_three_is_parse_error(count):
    with pytest.raises(ParseError, match="count must be at least 3"):
        boundary_samples(pentagon_region(), count)


@pytest.mark.parametrize("count", [3.5, 4.0, "4", None])
def test_boundary_samples_count_not_an_integer_is_parse_error(count):
    # 3.5 gave 4 points and a divide-by-zero warning; "4" and None raised
    # a bare TypeError
    with pytest.raises(ParseError, match="count must be an integer"):
        boundary_samples(pentagon_region(), count)
    assert len(boundary_samples(pentagon_region(), np.int64(4))) == 4


def test_boundary_samples_pentagon_vertices():
    region = pentagon_region()
    samples = boundary_samples(region, 25)
    assert len(samples) == 25
    # expected vertices: adjacent chord intersections, computed directly
    pts = PENTAGON.eigenvalues()
    def line(p, q):  # returns (a, b, c) with a x + b y = c
        d = q - p
        return d.imag, -d.real, d.imag * p.real - d.real * p.imag
    expected = []
    for i in range(5):
        a1, b1, c1 = line(pts[i], pts[(i + 2) % 5])
        a2, b2, c2 = line(pts[(i + 1) % 5], pts[(i + 3) % 5])
        det = a1 * b2 - a2 * b1
        expected.append(complex((c1 * b2 - c2 * b1) / det,
                                (a1 * c2 - a2 * c1) / det))
    for v in expected:
        assert min(abs(v - s) for s in samples) <= 1e-6


def test_boundary_samples_triangle_k1():
    es = ingest_spectrum([0.0, 2.2, 4.0])
    region = build_region(es, 1)
    samples = boundary_samples(region, 30)
    for v in es.eigenvalues():
        assert min(abs(v - s) for s in samples) <= 1e-9


def test_boundary_samples_degenerate_point():
    es = ingest_spectrum([0.0, 0.0, 0.0])
    region = build_region(es, 2)
    samples = boundary_samples(region, 5)
    assert samples == [1 + 0j] * 5


def test_boundary_samples_empty_region():
    es = ingest_spectrum([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    region = build_region(es, 2)
    with pytest.raises(EmptyRegion):
        boundary_samples(region, 16)


def test_boundary_samples_ccw_order():
    samples = boundary_samples(pentagon_region(), 40)
    angles = np.unwrap(np.angle(np.array(samples)))
    total = angles[-1] - angles[0]
    assert total > 0  # counterclockwise sweep


# --- one chord rule for the region and every sub-spectrum scorer ----------

def test_short_chords_keep_far_points_outside():
    # every chord of a spectrum inside an arc of 1e-12 to 1e-5 is short; a
    # live one still faces inward, so points 0.1 or more from the arc are
    # outside for contains, the oracle and the sub-spectrum margin alike
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(3, 10))
        width = 10.0 ** rng.uniform(-12, -5)
        start = rng.uniform(0, 2 * np.pi)
        es = ingest_spectrum(start + rng.uniform(0, width, n))
        centre = np.exp(1j * (start + width / 2))
        zs = rng.uniform(-1, 1, 30) + 1j * rng.uniform(-1, 1, 30)
        zs = zs[(np.abs(zs) <= 1) & (np.abs(zs - centre) >= 0.1 + width)]
        for k in range(1, n + 1):
            region = build_region(es, k)
            oracle = BruteForceOracle(es, k)
            for z in zs.tolist():
                assert contains(region, z) == OUTSIDE, (es.phases, k, z)
                assert oracle.verdict(z) == OUTSIDE, (es.phases, k, z)
                assert subspectrum_margin(es, k, z, np.arange(n)) < 0, \
                    (es.phases, k, z)


def test_short_chord_target_is_rejected_at_once():
    # 5 eigenvalues inside an arc of 1.16e-8: chords of 1.3e-9 to 1.2e-8,
    # whose inward side no midpoint test can resolve
    es = ingest_spectrum([0.0, 9.5e-9, 9.8e-9, 1.03e-8, 1.16e-8])
    for lam in (0j, -0.5 + 0j, 0.5j):
        with pytest.raises(LambdaOutsideRegion):
            construct_projector(es, 2, lam)


def test_chords_of_at_most_1e9_are_dead():
    # spans 0.9e-9, 1.1e-9, 0.5, and full turns short of 0.9e-9 and 1.1e-9
    t0 = np.zeros(5)
    t1 = np.array([0.9e-9, 1.1e-9, 0.5, 2 * np.pi - 0.9e-9,
                   2 * np.pi - 1.1e-9])
    a, b = np.exp(1j * t0), np.exp(1j * t1)
    _, length, live, pinned = chord_rule(t0, t1, a, b)
    assert length.tolist() == [abs(e) for e in (b - a).tolist()]
    assert live.tolist() == [False, True, True, False, True]
    assert pinned.tolist() == [False, False, False, True, False]
    z = -0.5 + 0.25j
    m = chord_margins(t0, t1, a, b, z)
    assert m[0] == np.inf and m[3] == -np.abs(z - a[3])
    # every live chord faces inward, however short: z lies on the side of
    # the long arc back for chords 1 and 2, and outside the thin cap that
    # the near-full turn of chord 4 leaves
    assert m[1] > 0 and m[2] > 0 and m[4] < 0


def test_chord_ends_wrap_one_turn_on():
    # an end at N or past is its eigenvalue one turn on: phase + 2pi and
    # point exp(1j * (phase + 2pi)), bit for bit; that point need not be
    # es.mu, and reading es.mu there would move margins by ulps
    rng = np.random.default_rng(23)
    moved = 0
    for n in (1, 2, 5, 12, 40):
        spectra = [rng.uniform(0, 2 * np.pi, n),
                   np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, n - 1)]),
                   rng.choice(rng.uniform(0, 2 * np.pi, 3), n)]
        for phases in spectra:
            es = ingest_spectrum(phases)
            start = rng.integers(0, n, (6, 9))
            end = rng.integers(0, 2 * n, (6, 9))
            t0, t1, a, b = chord_ends(es, start, end)
            want = es.phases[end % n] + 2 * np.pi * (end >= n)
            for got, ref in ((t0, es.phases[start]), (t1, want),
                             (a, np.exp(1j * es.phases[start])),
                             (b, np.exp(1j * want))):
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
            moved += int((b != es.mu[end % n]).sum())
    assert moved > 0


def test_successor_ends_last_j_one_turn_on():
    rows = np.array([[0, 2, 3, 7], [1, 4, 5, 6]])
    assert successor(rows, 1, 8).tolist() == [[2, 3, 7, 8], [4, 5, 6, 9]]
    assert successor(rows, 3, 8).tolist() == [[7, 8, 10, 11],
                                              [6, 9, 12, 13]]
    assert successor(rows[0], 4, 8).tolist() == [8, 10, 11, 15]
    for n in (1, 5, 12):
        for k in range(1, n + 1):
            assert successor(np.arange(n), k, n).tolist() == \
                (np.arange(n) + k).tolist()


def _margin_spectra():
    rng = np.random.default_rng(11)
    out = [
        [0.0, 0.0, 0.0, 0.0],                  # every chord dead; pinned
        [0.0, 0.0, 1.3],
        [1.0] * 5 + [3.0, 5.0],
        [0.2, 0.2 + 1e-11, 2.0, 2.0, 4.5, 5.0, 5.0, 5.0, 6.0],
        [0.0, 1e-13, 2e-13, 1.3],              # two pins 1e-13 apart
        [0.0, 9.5e-9, 9.8e-9, 1.03e-8, 1.16e-8],
        list(1e-8 * np.arange(6) / 5),         # chords near the threshold
    ]
    for n in (4, 7, 12, 29, 64):
        out.append(rng.uniform(0, 2 * np.pi, n))
        out.append(clustered_phases([11, n], 4, n))
        out.append(2 * np.pi * np.arange(n) / n)
    return out


def test_subspectrum_margin_is_region_margin():
    rng = np.random.default_rng(12)
    for phases in _margin_spectra():
        es = ingest_spectrum(phases)
        pts = es.eigenvalues()
        zs = np.concatenate([
            rng.uniform(-1.1, 1.1, 12) + 1j * rng.uniform(-1.1, 1.1, 12),
            pts[:6], (pts + np.roll(pts, -1))[:6] / 2, [0j]])
        for k in range(1, es.dim + 1):
            region = build_region(es, k)
            for z in zs.tolist():
                assert subspectrum_margin(es, k, z, np.arange(es.dim)) == \
                    region_margin(region, z), (es.phases, k, z)
