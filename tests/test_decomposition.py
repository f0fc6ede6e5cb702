import inspect
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from rankrange import (EigenSystem, GramFailure, InvalidRank,
                       LambdaOutsideRegion, NoConvexSolution, NoSolution,
                       UnsupportedDimension, blocks, build_region,
                       caratheodory_rank1, construct_projector,
                       decomposition, ingest_matrix, ingest_spectrum,
                       interior_point, plan, region_margin,
                       solve_barycentric, subspectrum_margin,
                       three_k_minus_1_patterns, three_k_minus_2_patterns,
                       three_k_patterns, triangle, validate_triangle,
                       verify_projector)
from rankrange.battery import pick_target, random_instance
from rankrange.region import MEMBERSHIP_TOL, chord_rule
from rankrange.spectra import TWO_PI
from rankrange.triangles import _edge_or_vertex, _full_solves

from clustered import clustered_phases
from deadline import deadline
from test_blocks import scan_targets
from test_triangles import _old_solve_barycentric

PENTAGON = ingest_spectrum(2 * np.pi * np.arange(5) / 5)


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def cover_counts(triangles):
    counts = {}
    for t in triangles:
        for j in t:
            counts[j] = counts.get(j, 0) + 1
    return counts


def assert_exact_cover(triangles, n, shared):
    counts = cover_counts(triangles)
    for j in range(1, n + 1):
        want = 2 if j in shared else 1
        assert counts.get(j, 0) == want, (j, counts.get(j, 0), want)


# --- plan combinatorics (pure integer tests) -------------------------------

def test_three_k_patterns_cover_and_gaps():
    for k in range(1, 9):
        tris = three_k_patterns(k)
        assert_exact_cover(tris, 3 * k, set())
        for t in tris:
            assert validate_triangle(triangle(*t, dim=3 * k), k)


def test_three_k_minus_1_patterns_cover_and_gaps():
    for k in range(2, 13):
        tris, shared = three_k_minus_1_patterns(k)
        assert len(tris) == k
        assert_exact_cover(tris, 3 * k - 1, {shared})
        for t in tris:
            assert validate_triangle(triangle(*t, dim=3 * k - 1), k)


def test_three_k_minus_2_patterns_cover_and_gaps():
    for k in range(5, 21):
        for case in (1, 2):
            tris, (s1, s2) = three_k_minus_2_patterns(k, case)
            assert len(tris) == k
            assert_exact_cover(tris, 3 * k - 2, {s1, s2})
            for t in tris:
                assert validate_triangle(triangle(*t, dim=3 * k - 2), k)


def test_plan_pentagon_weak_vertex_one():
    # the origin gives vertex 1 weight 0.2764 <= 1/2 in T{1,3,5}
    pl = plan(PENTAGON, 2, 0j)
    assert pl.dimension_case == "three_k_minus_1"
    assert pl.branch == "vertex1"
    assert [t.indices for t in pl.triangles] == [(1, 3, 5), (1, 2, 4)]
    assert pl.pairings[0].shared == 1


def test_plan_pentagon_reflected_branch():
    # a target close to eigenvalue 1 makes vertex 1 heavy, vertex 5 weak
    lam = 0.8 * PENTAGON.eigenvalue(1) + 0.1 * PENTAGON.eigenvalue(3) \
        + 0.1 * PENTAGON.eigenvalue(5)
    w = solve_barycentric(PENTAGON, triangle(1, 3, 5, dim=5), lam)
    assert w.weight_of(1) > 0.5
    pl = plan(PENTAGON, 2, lam)
    assert pl.branch == "reflected"
    assert pl.reflection_pivot == 5
    tris = {t.indices for t in pl.triangles}
    assert tris == {(1, 3, 5), (2, 4, 5)}
    assert pl.pairings[0].shared == 5


def force_case_instance(k, want_case, seed0=0):
    """Random (3k-2, k) instance whose second probe lands in want_case."""
    n = 3 * k - 2
    rng = np.random.default_rng(seed0)
    for _ in range(600):
        es = ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, n)))
        lam = interior_point(build_region(es, k))
        if lam is None:
            continue
        pl = plan(es, k, lam)
        if pl.dimension_case.endswith(want_case):
            return es, lam, pl
    raise AssertionError(f"no case {want_case} instance found")


def test_plan_13_5_case1_structure():
    es, lam, pl = force_case_instance(5, "case1")
    if pl.reflection_pivot is None:
        assert [t.indices for t in pl.triangles] == [
            (1, 4, 9), (1, 6, 11), (3, 8, 12), (5, 8, 13), (2, 7, 10)]
        assert [(p.first, p.second, p.shared) for p in pl.pairings] == \
            [(0, 1, 1), (2, 3, 8)]
    assert_exact_cover([t.indices for t in pl.triangles], 13,
                       {p.shared for p in pl.pairings})


def test_plan_13_5_case2_structure():
    es, lam, pl = force_case_instance(5, "case2")
    if pl.reflection_pivot is None:
        assert [t.indices for t in pl.triangles] == [
            (1, 4, 9), (1, 6, 11), (3, 8, 12), (2, 7, 12), (5, 10, 13)]
        assert [(p.first, p.second, p.shared) for p in pl.pairings] == \
            [(0, 1, 1), (2, 3, 12)]
    assert_exact_cover([t.indices for t in pl.triangles], 13,
                       {p.shared for p in pl.pairings})


def test_plan_reflected_instances_still_cover():
    # reflection preserves gap validity and exact cover
    rng = np.random.default_rng(4)
    seen_reflected = 0
    for _ in range(200):
        es = ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, 8)))
        lam = interior_point(build_region(es, 3))
        if lam is None:
            continue
        pl = plan(es, 3, lam)
        assert_exact_cover([t.indices for t in pl.triangles], 8,
                           {p.shared for p in pl.pairings})
        for t in pl.triangles:
            assert validate_triangle(t, 3)
        if pl.branch == "reflected":
            seen_reflected += 1
            proj = construct_projector(es, 3, lam)
            assert verify_projector(proj.matrix, es.matrix, lam, 3).passed
        if seen_reflected >= 3:
            break
    assert seen_reflected > 0


def test_plan_template_is_shared(monkeypatch):
    # the weak-vertex probe runs on every call, one triangle solve, and
    # equal shapes give equal plans; a 3k-2 plan solves its probes in one
    # call of three rows
    probes = []
    solve = decomposition.solve_barycentric

    def counted(es, t, lam):
        probes.append(len(np.atleast_2d(getattr(t, "indices", t))))
        return solve(es, t, lam)

    monkeypatch.setattr(decomposition, "solve_barycentric", counted)
    first = plan(PENTAGON, 2, 0j)
    again = plan(PENTAGON, 2, 0.01 + 0.02j)
    assert again == first and probes == [1, 1]
    other = ingest_spectrum(np.sort(np.random.default_rng(3).uniform(
        0, 2 * np.pi, 5)))
    lam = interior_point(build_region(other, 2))
    pl = plan(other, 2, lam)
    assert probes == [1, 1, 1]
    assert (pl == first) == (pl.branch == first.branch)
    es13 = ingest_spectrum(np.sort(np.random.default_rng(4).uniform(
        0, 2 * np.pi, 13)))
    plan(es13, 5, interior_point(build_region(es13, 5)))
    assert probes == [1, 1, 1, 3]


def test_plan_template_rejects_broken_pattern(monkeypatch):
    # the printed remainder (k-m, 2k-m, 3k-m-1) collides with vertex 2k+1
    # at m = k-2 and never covers index 3k-1
    def broken(k):
        tris, shared = three_k_minus_1_patterns(k)
        return tris[:2] + [(k - m, 2 * k - m, 3 * k - m - 1)
                           for m in range(1, k - 1)], shared

    es = ingest_spectrum(np.sort(np.random.default_rng(6).uniform(
        0, 2 * np.pi, 11)))
    lam = interior_point(build_region(es, 4))
    monkeypatch.setattr(decomposition, "three_k_minus_1_patterns", broken)
    with pytest.raises(NoSolution, match="covers index"):
        plan(es, 4, lam)


def test_plan_unsupported_dimensions():
    for (n, k) in ((7, 3), (10, 4), (4, 2), (12, 5)):
        es = ingest_spectrum(np.linspace(0.1, 6.0, n))
        with pytest.raises(UnsupportedDimension):
            plan(es, k, 0.05 + 0.05j)


@pytest.mark.parametrize("k", [3.0, "3", None, 0, -1, 10], ids=repr)
def test_plan_reads_its_rank_typed(k):
    # plan reads its rank as construct_projector does, through
    # dimension_case and checked_rank: a rank that is not an integer in
    # 1..N raises InvalidRank, never a bare TypeError or
    # UnsupportedDimension
    es = ingest_spectrum(2 * np.pi * np.arange(9) / 9)
    with pytest.raises(InvalidRank):
        plan(es, k, 0.05 + 0.05j)
    with pytest.raises(InvalidRank):
        decomposition.dimension_case(9, k)


def test_construction_never_plans(monkeypatch):
    # at 3k-1 and 3k-2 the witness makes one solve_barycentric call, for
    # the triangles of its block-first call, and no probe: plan is not
    # called, nor are its probes or its template
    solves = []
    solve = decomposition.solve_barycentric

    def counted(*args, **kwargs):
        solves.append(args[1])
        return solve(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the construction reached the template")

    monkeypatch.setattr(decomposition, "solve_barycentric", counted)
    for name in ("plan", "_plan_template", "reflect_labels"):
        monkeypatch.setattr(decomposition, name, forbidden)
    for n, k in ((8, 3), (11, 4), (13, 5), (16, 6), (28, 10), (29, 10)):
        rng = np.random.default_rng([n, k])
        for i in range(4):
            es = random_instance(rng, n, i % 2 == 1)
            lam = pick_target(es, k)
            solves.clear()
            proj = construct_projector(es, k, lam)
            assert proj.strategy == "blockwise", (n, k, i)
            assert len(solves) == 1, (n, k, i)
            assert np.shape(solves[0]) == (k - 2 * (3 * k - n), 3)


# --- construction ----------------------------------------------------------

def test_eigen_matches_equal_scalar_loop():
    # eigenvalues near 1 whose distance from the target 1 is their phase,
    # exactly: a few ulps either side of EIGEN_MATCH, and the threshold
    # itself; then targets near the eigenvalue 1 itself whose distance from
    # it falls within a few ulps of EIGEN_MATCH, among them distances that
    # numpy's complex abs and Python's abs round to opposite sides of it
    match = decomposition.EIGEN_MATCH
    near = [match]
    for _ in range(4):
        near = [np.nextafter(near[0], 0.0)] + near + \
            [np.nextafter(near[-1], 1.0)]
    es = ingest_spectrum([0.0] + near + [0.5, 2.0, 4.0])
    rng = np.random.default_rng(8)
    targets = [1 + 0j, complex(np.nextafter(1.0, 2.0)), 1 + 1e-9j,
               complex(es.eigenvalue(10)) + match * np.exp(2j)]
    targets += list(es.eigenvalues()[rng.integers(0, es.dim, 8)]
                    + match * np.exp(1j * rng.uniform(0, 7, 8))
                    * rng.uniform(0.999999, 1.000001, 8))
    for m in (13, 1000):
        dx = m * 2.0 ** -53
        ys = np.sqrt(match ** 2 - dx ** 2) \
            + np.spacing(match) * np.arange(-30, 31)
        targets += list((1.0 - dx) - 1j * ys)
    hits = set()
    for lam in targets:
        want = [j for j in range(es.dim)
                if abs(es.eigenvalue(j + 1) - lam) <= match]
        assert decomposition._eigen_matches(es, lam) == want, lam
        hits.add(len(want))
    # at the target 1 the threshold splits the near eigenvalues
    assert decomposition._eigen_matches(es, 1 + 0j) == list(range(6))
    assert hits >= {0, 1}


def test_identity_any_rank():
    es = ingest_matrix(np.eye(5))
    for k in (1, 2, 4):
        proj = construct_projector(es, k, 1.0 + 0j)
        rep = verify_projector(proj.matrix, np.eye(5), 1.0 + 0j, k)
        assert rep.passed
        assert np.linalg.norm(proj.matrix @ np.eye(5) @ proj.matrix
                              - proj.matrix) <= 1e-12


def test_pentagon_rank2_origin():
    proj = construct_projector(PENTAGON, 2, 0j)
    sigma = PENTAGON.matrix
    assert np.linalg.norm(proj.matrix @ sigma @ proj.matrix) <= 1e-9
    assert abs(np.trace(proj.matrix) - 2) <= 1e-9


def test_random_diagonal_8_3():
    rng = np.random.default_rng(11)
    es = ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, 8)))
    lam = interior_point(build_region(es, 3))
    proj = construct_projector(es, 3, lam)
    rep = verify_projector(proj.matrix, es.matrix, lam, 3)
    assert rep.passed, rep.residuals


def test_conjugated_instance():
    rng = np.random.default_rng(12)
    q = random_unitary(rng, 11)
    phases = np.sort(rng.uniform(0, 2 * np.pi, 11))
    u = q @ np.diag(np.exp(1j * phases)) @ q.conj().T
    es = ingest_matrix(u)
    lam = interior_point(build_region(es, 4))
    proj = construct_projector(es, 4, lam)
    rep = verify_projector(proj.matrix, u, lam, 4)
    assert rep.passed, rep.residuals


def test_lambda_outside_rejected():
    with pytest.raises(LambdaOutsideRegion):
        construct_projector(PENTAGON, 2, 0.9 + 0j)


def test_boundary_lambda_rejected_for_k2():
    mid = (PENTAGON.eigenvalue(1) + PENTAGON.eigenvalue(3)) / 2
    with pytest.raises(LambdaOutsideRegion):
        construct_projector(PENTAGON, 2, mid)


def test_construct_rejects_rank_that_is_not_in_range():
    # k is read before anything else: a string, None, a float, and an
    # integer outside 1..N are each InvalidRank (exit code 2), not an
    # untyped TypeError or UnsupportedDimension
    es = ingest_spectrum(np.linspace(0.1, 6.0, 9))
    for k in ("3", None, 2.5, np.float64(3.0), 0, -1, 10):
        with pytest.raises(InvalidRank):
            construct_projector(es, k, 0j)
    assert InvalidRank.exit_code == 2
    assert construct_projector(es, np.int64(3), 0j).rank == 3


def test_unsupported_dimension_construct():
    es = ingest_spectrum(np.linspace(0.1, 6.0, 7))
    lam = interior_point(build_region(es, 3))
    assert lam is not None
    with pytest.raises(UnsupportedDimension):
        construct_projector(es, 3, lam)


def test_basis_independence_for_degenerate_spectrum():
    # two different orthonormal bases of the same degenerate unitary
    rng = np.random.default_rng(13)
    phases = np.array([0.4, 0.4, 1.5, 2.8, 3.9, 5.2])
    q1 = random_unitary(rng, 6)
    u = q1 @ np.diag(np.exp(1j * phases)) @ q1.conj().T
    es_a = ingest_matrix(u)
    # rotate the basis inside the degenerate eigenspace
    es_b = ingest_matrix(u.conj().T.conj().T)  # fresh factorization object
    lam = interior_point(build_region(es_a, 2))
    for es in (es_a, es_b):
        proj = construct_projector(es, 2, lam)
        assert verify_projector(proj.matrix, u, lam, 2).passed


def test_caratheodory_examples():
    # lam equal to an eigenvalue: rank-1 projector onto that eigenvector
    proj = caratheodory_rank1(PENTAGON, PENTAGON.eigenvalue(2))
    expected = np.zeros((5, 5), dtype=complex)
    expected[1, 1] = 1.0
    np.testing.assert_allclose(proj.matrix, expected, atol=1e-8)

    es2 = ingest_spectrum([0.0, np.pi])
    proj2 = caratheodory_rank1(es2, 0j)
    sigma = np.diag(es2.eigenvalues())
    assert np.linalg.norm(proj2.matrix @ sigma @ proj2.matrix) <= 1e-12
    np.testing.assert_allclose(np.diag(proj2.matrix).real, [0.5, 0.5],
                               atol=1e-12)

    proj3 = caratheodory_rank1(PENTAGON, 0j)
    assert np.linalg.norm(
        proj3.matrix @ PENTAGON.matrix @ proj3.matrix) <= 1e-10
    assert abs(np.trace(proj3.matrix) - 1) <= 1e-10


def test_rank1_construct_scans_once(monkeypatch):
    rng = np.random.default_rng(5)
    es = ingest_spectrum(rng.uniform(0.0, 2 * np.pi, 40))
    mid = (es.eigenvalue(1) + es.eigenvalue(2)) / 2
    targets = (0.1 + 0.2j, -0.3 + 0.05j, mid)
    wants = [(caratheodory_rank1(es, lam), plan(es, 1, lam))
             for lam in targets]
    scans = []
    scan = decomposition._caratheodory_support

    def counted(*args):
        scans.append(args[1])
        return scan(*args)

    monkeypatch.setattr(decomposition, "_caratheodory_support", counted)
    for lam, (want, want_plan) in zip(targets, wants):
        scans.clear()
        got = construct_projector(es, 1, lam)
        assert len(scans) == 1, lam
        assert got.strategy == want.strategy == "caratheodory"
        assert tuple(got.pieces[0][0][0] + 1) == want_plan.rank1_support
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.frame, want.frame)
    assert len(wants[2][1].rank1_support) == 2
    # (3, 1) is N = 3k: it keeps the three_k route and never scans
    scans.clear()
    got = construct_projector(ingest_spectrum([0.0, 2.0, 4.0]), 1, 0j)
    assert got.strategy == "planned" and scans == []


def test_rank1_outside_rejected():
    with pytest.raises(LambdaOutsideRegion):
        caratheodory_rank1(PENTAGON, 1.2 + 0j)


def test_rank1_scan_is_linear(monkeypatch):
    # the scan solves only the fan triangles (1, j, j+1) that lam's side
    # test against their two diagonals cannot rule out, in one
    # solve_barycentric call in its first-hit form: at an interior lam,
    # the one triangle that holds it, of the N - 2 = 198
    n = 200
    es = ingest_spectrum(np.random.default_rng(5).uniform(0.0, 2 * np.pi, n))
    lam = interior_point(build_region(es, 1))
    calls = []
    solve = decomposition.solve_barycentric

    def counted(es, t, lam, **kwargs):
        calls.append((np.shape(t), kwargs))
        return solve(es, t, lam, **kwargs)

    monkeypatch.setattr(decomposition, "solve_barycentric", counted)
    proj = construct_projector(es, 1, lam)
    assert proj.strategy == "caratheodory"
    assert calls == [((1, 3), {"first": True})]
    assert verify_projector(proj.matrix, es.matrix, lam, 1).passed


def scalar_fan_support(es, lam):
    """The Caratheodory support as the scalar scan found it: an eigenvalue
    within MEMBERSHIP_TOL, else the first hull edge within it, else the
    first fan triangle (1, j, j+1) that the old scalar solver solves, one
    call per triangle. Also the stage of that solver that gave the
    weights, or None."""
    mu = es.eigenvalues()
    n = es.dim
    hit = np.nonzero(np.abs(mu - lam) <= MEMBERSHIP_TOL)[0]
    if hit.size:
        return ((int(hit[0]) + 1,), (1.0,)), None
    e = np.roll(mu, -1) - mu
    L2 = e.real ** 2 + e.imag ** 2
    d = lam - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip((d.real * e.real + d.imag * e.imag) / L2, 0.0, 1.0)
    on_edge = np.nonzero((L2 > 0.0)
                         & (np.abs(mu + t * e - lam) <= MEMBERSHIP_TOL))[0]
    if on_edge.size:
        j = int(on_edge[0])
        tj = float(t[j])
        if j + 1 < n:
            return ((j + 1, j + 2), (1.0 - tj, tj)), None
        return ((1, n), (tj, 1.0 - tj)), None
    for j in range(2, n):
        try:
            w, stage = _old_solve_barycentric(
                es, triangle(1, j, j + 1, dim=n), lam)
        except NoConvexSolution:
            continue
        return (w.triangle.indices, w.weights), stage
    raise LambdaOutsideRegion(f"{lam} is not in the hull")


def fan_rows(n):
    """The N - 2 fan triangles (1, j, j+1) of the rank-1 scan, in fan
    order."""
    return np.stack([np.ones(n - 2, dtype=int), np.arange(2, n),
                     np.arange(3, n + 1)], axis=1)


def record_fan_windows(monkeypatch):
    """A list that collects the fan rows (0-based) that each
    ``solve_barycentric`` call of the rank-1 scan receives."""
    windows = []
    solve = decomposition.solve_barycentric

    def recorded(es, t, lam, **kwargs):
        windows.append(np.asarray(t)[:, 1] - 2)
        return solve(es, t, lam, **kwargs)

    monkeypatch.setattr(decomposition, "solve_barycentric", recorded)
    return windows


def fan_case(rng, case, seed, n, where):
    """One rank-1 scan case: a uniform, 4-cluster (width 1e-7) or equally
    spaced spectrum of n phases by ``case`` mod 3, and lam at random in the
    disk (so in the hull or outside it), on a fan diagonal, on a hull edge,
    within 1e-12 of an eigenvalue, or 3e-10 off a fan diagonal by
    ``where``."""
    kind = case % 3
    if kind == 0:
        phases = rng.uniform(0.0, 2 * np.pi, n)
    elif kind == 1:
        phases = clustered_phases([seed, case], 4, n, 1e-7)
    else:
        phases = 2 * np.pi * np.arange(n) / n + rng.uniform(0.0, 1.0)
    es = ingest_spectrum(phases)
    mu = es.eigenvalues()
    j, s = int(rng.integers(1, n)), rng.uniform()
    if where == 0:
        lam = complex(rng.uniform(-1.1, 1.1), rng.uniform(-1.1, 1.1))
    elif where == 1:
        lam = complex(s * mu[0] + (1 - s) * mu[j])
    elif where == 2:
        lam = complex(s * mu[j - 1] + (1 - s) * mu[j])
    elif where == 3:
        lam = complex(mu[j] + 1e-12 * np.exp(2j * np.pi * s))
    else:
        d = (mu[j] - mu[0]) / abs(mu[j] - mu[0])
        lam = complex(s * mu[0] + (1 - s) * mu[j]
                      + 3e-10j * d * (1 if rng.uniform() < 0.5 else -1))
    return es, lam


def test_fan_window_drops_only_rows_without_weights(monkeypatch):
    # N 3-119 on the three spectrum kinds and five lam placements of
    # fan_case: no fan row outside the window that the scan solves has
    # weights in a solve of all N - 2 rows, and the support is the scalar
    # scan's, or both find none
    rng = np.random.default_rng(35)
    windows = record_fan_windows(monkeypatch)
    dropped = kept = outside = 0
    for case in range(1000):
        n = int(rng.integers(3, 120))
        es, lam = fan_case(rng, case, 35, n, (case // 3) % 5)
        windows.clear()
        try:
            want, _ = scalar_fan_support(es, lam)
        except LambdaOutsideRegion:
            outside += 1
            with pytest.raises(LambdaOutsideRegion):
                decomposition._caratheodory_support(es, lam)
        else:
            assert decomposition._caratheodory_support(es, lam) == want, \
                (case, n, lam)
        if not windows:         # an eigenvalue, a hull edge or no window
            continue
        (window,) = windows
        assert (np.diff(window) > 0).all()
        w = solve_barycentric(es, fan_rows(n), lam)
        out = np.setdiff1d(np.arange(n - 2), window)
        assert np.isnan(w[out]).all(), (case, n, lam)
        dropped += out.size
        kept += window.size
    assert outside > 50 and dropped > 20 * kept


def test_stacked_fan_scan_equals_scalar_loop(monkeypatch):
    # uniform, 4-cluster (width 1e-7) and equally spaced spectra, N 3-79;
    # lam at random in the disk (so in the hull or outside it), on a fan
    # diagonal, on a hull edge and within 1e-12 of an eigenvalue. The edge
    # pass receives just the rows of the fan window that the full solve
    # misses before its first hit in it, or every row of the window when
    # it hits none
    rng = np.random.default_rng(17)
    outside = 0
    stages = []
    sent, before, whole = [], [], []
    windows = record_fan_windows(monkeypatch)

    def counted(pts, lam):
        sent[-1] += len(pts)
        return _edge_or_vertex(pts, lam)

    monkeypatch.setattr("rankrange.triangles._edge_or_vertex", counted)
    for case in range(1200):
        n = int(rng.integers(3, 80))
        es, lam = fan_case(rng, case, 17, n, (case // 3) % 4)
        mu = es.eigenvalues()
        sent.append(0)
        windows.clear()
        try:
            want, stage = scalar_fan_support(es, lam)
        except LambdaOutsideRegion:
            outside += 1
            with pytest.raises(LambdaOutsideRegion):
                decomposition._caratheodory_support(es, lam)
            stage = "none"
        else:
            got = decomposition._caratheodory_support(es, lam)
            stages.append(stage)
            assert got == want, (case, n, lam)
            assert [type(i) for i in got[0]] == [int] * len(want[0])
        if stage is None:       # an eigenvalue or a hull edge: no fan
            before.append(0)
            whole.append(0)
            continue
        _, _, ok = _full_solves(mu[fan_rows(n) - 1], lam)
        whole.append(int((~ok).sum()))
        ok = ok[windows[0]] if windows else ok[:0]
        hits = np.flatnonzero(ok)
        before.append(int((~ok[:hits[0] if hits.size else ok.size]).sum()))
    # the targets outside, fan weights from the full solve and fan weights
    # from an edge are all reached
    assert outside > 50
    assert stages.count("full") > 100 and stages.count("edge") > 10
    assert sent == before
    assert sum(sent) < sum(whole)


# --- the frame is the result -----------------------------------------------

# (16,6) targets near the region's boundary at which the first block-first
# step's shortlist gives up and the step closes them by scoring every
# candidate: a uniform spectrum and one of five clusters, each 0.99 of the
# way from the region's Chebyshev centre to its boundary
GIVES_UP = [
    (np.sort(np.random.default_rng([3, 16, 0]).uniform(0, 2 * np.pi, 16)),
     -0.20417225604445027 - 0.40022583722061833j),
    (clustered_phases([2, 16, 2], 5, 16),
     -0.6446254813463665 + 0.47143878660523464j),
]


# sizes whose default_rng(1) random_instance streams hold the targets that
# a re-partition search over every index triple once cut off at its node
# budget
BENCHMARK_STREAMS = ((13, 5), (28, 10), (29, 10), (44, 15), (58, 20),
                     (59, 20))


def _one_per_strategy(conjugate=True):
    """(es, k, lam, strategy) reaching each rung of the ladder, and a
    ``blockwise`` witness whose first step scores every candidate; matrix
    inputs by default, so the frame is mapped out of the eigenbasis, else
    spectrum inputs of the same eigenvalues."""
    if conjugate:
        cases = [(ingest_matrix(np.eye(5)), 2, 1.0 + 0j, "eigenspace")]
    else:
        cases = [(ingest_spectrum(np.zeros(5)), 2, 1.0 + 0j, "eigenspace")]
    for n, k, strategy in ((9, 3, "planned"), (11, 4, "blockwise"),
                           (7, 1, "caratheodory")):
        es = random_instance(np.random.default_rng(1), n, conjugate)
        cases.append((es, k, pick_target(es, k), strategy))
    phases, lam = GIVES_UP[0]
    if conjugate:
        q = random_unitary(np.random.default_rng(0), 16)
        es = ingest_matrix(q @ np.diag(np.exp(1j * phases)) @ q.conj().T)
    else:
        es = ingest_spectrum(phases)
    cases.append((es, 6, lam, "blockwise"))
    return cases


def test_frame_is_the_result():
    for conjugate in (True, False):
        for es, k, lam, strategy in _one_per_strategy(conjugate):
            proj = construct_projector(es, k, lam)
            assert proj.strategy == strategy
            W = proj.frame
            assert W.shape == (es.dim, k) and proj.rank == k
            assert np.abs(W.conj().T @ W - np.eye(k)).max() <= 1e-9, strategy
            assert np.array_equal(proj.matrix, W @ W.conj().T)
            assert verify_projector(proj.matrix, es.matrix, lam, k).passed


def eigenbasis_frame(proj, n):
    """The N x k eigenbasis frame V of a projector's pieces, as the dense
    assembly held it: each piece's coefficient block on its rows, in the
    frame's column order."""
    V = np.zeros((n, proj.rank), dtype=complex)
    col = 0
    for rows, coef in proj.pieces:
        for r, c in zip(rows, coef):
            V[r, col:col + c.shape[1]] = c
            col += c.shape[1]
    return V


def dense_gates(es, lam, V):
    """The dense gates of the eigenbasis frame V: its Gram deviation, and
    its diagonal and full compression residuals."""
    gram = np.abs(V.conj().T @ V - np.eye(V.shape[1])).max()
    comp = V.conj().T @ ((es.eigenvalues() - lam)[:, None] * V)
    return gram, np.abs(np.diag(comp)).max(), np.abs(comp).max()


def test_piece_gates_equal_dense_gates():
    for conjugate in (True, False):
        for es, k, lam, strategy in _one_per_strategy(conjugate):
            proj = construct_projector(es, k, lam)
            want = dense_gates(es, lam, eigenbasis_frame(proj, es.dim))
            got = decomposition._piece_gates(es, lam, proj.pieces)
            assert np.abs(np.subtract(got, want)).max() <= 1e-15, strategy


def test_lazy_frame_equals_dense_product():
    # a spectrum input's basis is the identity, so the pieces give the
    # dense product exactly; a matrix input sums in another order
    for conjugate in (True, False):
        for es, k, lam, strategy in _one_per_strategy(conjugate):
            proj = construct_projector(es, k, lam)
            dense = es.basis @ eigenbasis_frame(proj, es.dim)
            if conjugate:
                assert np.allclose(proj.frame, dense, rtol=0, atol=1e-14)
            else:
                assert np.array_equal(proj.frame, dense), strategy


def test_overlapping_pieces_raise_gram_failure():
    found = decomposition._try_pieces(PENTAGON, 0j,
                                      as_pieces(blks=[(1, 2, 3, 4, 5)]))
    assert decomposition._assemble(PENTAGON, 0j, found,
                                   "blockwise").rank == 2
    # the same block twice, or a triangle on two of its rows: the gates of
    # each piece alone would pass
    rows, coef = found[0]
    tri_rows = np.array([[0, 1, 2]])
    tri_coef = np.full((1, 3, 1), 1 / np.sqrt(3), dtype=complex)
    for pieces in ([(rows, coef), (rows, coef)],
                   [(rows, coef), (tri_rows, tri_coef)]):
        with pytest.raises(GramFailure, match="overlap"):
            decomposition._assemble(PENTAGON, 0j, pieces, "blockwise")


def test_construct_runs_no_dense_check(monkeypatch):
    def dense_check(*args):
        raise AssertionError("construct_projector ran the dense residuals")

    monkeypatch.setattr(decomposition, "projector_residuals", dense_check)
    for es, k, lam, strategy in _one_per_strategy():
        assert construct_projector(es, k, lam).strategy == strategy


def test_verify_rejects_zero_matrix():
    rep = verify_projector(np.zeros((4, 4)), np.eye(4), 0.5 + 0j, 2)
    assert not rep.passed


def test_verify_identity_full_rank():
    rep = verify_projector(np.eye(4), np.eye(4), 1.0 + 0j, 4)
    assert rep.passed


def test_verify_thresholds_are_fixed():
    # no tolerance rescales the verification thresholds, and neither the
    # construction nor the verifier takes one
    rep = verify_projector(np.eye(4), np.eye(4), 1.0 + 0j, 4)
    assert rep.thresholds == {"hermiticity": 1e-10, "idempotency": 1e-9,
                              "trace": 1e-9, "compression": 1e-8}
    for fn in (construct_projector, verify_projector,
               decomposition.projector_thresholds):
        assert "tol" not in inspect.signature(fn).parameters


def test_verify_shape_mismatch():
    from rankrange import ShapeMismatch
    with pytest.raises(ShapeMismatch):
        verify_projector(np.zeros((3, 4)), np.eye(4), 0j, 2)
    with pytest.raises(ShapeMismatch):
        verify_projector(np.zeros((3, 3)), np.eye(4), 0j, 2)


def test_pipeline_closure_families():
    rng = np.random.default_rng(14)
    for (n, k) in ((6, 2), (9, 3), (5, 2), (8, 3), (11, 4), (13, 5), (16, 6)):
        for _ in range(3):
            es = ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, n)))
            lam = interior_point(build_region(es, k))
            if lam is None:
                continue
            proj = construct_projector(es, k, lam)
            rep = verify_projector(proj.matrix, es.matrix, lam, k)
            assert rep.passed, (n, k, rep.residuals)


# --- sub-spectrum margins and the exact block step -------------------------

def exact_spectrum(phases):
    """The EigenSystem of exactly the sorted ``phases``, with no round trip
    through ``ingest_spectrum``'s canonical phases."""
    th = np.sort(np.asarray(phases, dtype=float))
    return EigenSystem(dim=th.size, phases=th, basis=None,
                       unitarity_residual=0.0, eigen_residual=0.0)


def reference_margin(phases, j, lam):
    """The margin of lam in the rank-j region built on exactly ``phases``
    (sorted)."""
    return float(region_margin(build_region(exact_spectrum(phases), j), lam))


def as_rows(stack):
    """One sorted spectrum holding every row of ``stack``, and the ascending
    positions of each row in it: ``phases[rows] == stack``."""
    flat = stack.ravel()
    order = np.argsort(flat, kind="stable")
    rows = np.empty_like(order)
    rows[order] = np.arange(flat.size)
    return flat[order], rows.reshape(stack.shape)


def test_subspectrum_margin_batched_equals_rows():
    rng = np.random.default_rng(5)
    for m in range(3, 61):
        stack = np.sort(rng.uniform(0, 2 * np.pi, (5, m)), axis=1)
        stack[1, 1] = stack[1, 0]    # one zero-span chord at every j < m
        stack[2, :] = stack[2, 0]    # every chord dead; pinned when it wraps
        # three clusters of widths 1e-13 to 1e-6
        width = 10.0 ** rng.uniform(-13, -6, m)
        stack[3] = np.sort(rng.choice(stack[0, :3], m)
                           + rng.uniform(0, 1, m) * width)
        # inside an arc of 1e-12 to 1e-7: every chord is short, dead at or
        # below DEGENERATE_CHORD_TOL (a wrapping dead one pins the region)
        # and otherwise facing inward
        stack[4] = stack[0, 0] + np.sort(
            rng.uniform(0, 10.0 ** rng.uniform(-12, -7), m))
        phases, rows = as_rows(stack)
        assert np.array_equal(phases[rows], stack)
        es = exact_spectrum(phases)
        for j in range(1, m + 1):
            a = np.exp(1j * stack[0, 0])
            b = np.exp(1j * stack[0, j % m])
            # 1e-10 inside the midpoint of row 0's chord 1 -> 1+j
            lam = complex((a + b) / 2 * (1 - 1e-10))
            want = [reference_margin(r, j, lam) for r in stack]
            got = subspectrum_margin(es, j, lam, rows)
            assert got.shape == (5,)
            assert got.tolist() == want, (m, j)
            assert [subspectrum_margin(es, j, lam, r) for r in rows] == want
    too_few = subspectrum_margin(exact_spectrum(np.zeros(6)), 4, 0j,
                                 np.arange(6).reshape(2, 3))
    assert too_few.tolist() == [-np.inf] * 2


def test_subspectrum_margin_rejects_rank_below_one():
    # through wrapped index arithmetic, j = 0 read 1.0 and j = -1 -0.0707
    es = exact_spectrum([0.0, 1.0, 2.0, 3.0])
    for j in (0, -1):
        with pytest.raises(InvalidRank):
            subspectrum_margin(es, j, 0j, np.arange(4))
        with pytest.raises(InvalidRank):
            subspectrum_margin(es, j, 0j, np.array([[0, 1, 2], [1, 2, 3]]))
    assert subspectrum_margin(es, 5, 0j, np.arange(4)) == -np.inf


def test_subspectrum_margin_rejects_rank_that_is_not_an_integer():
    es = exact_spectrum([0.0, 1.0, 2.0, 3.0, 4.0])
    rows = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    for j in (2.0, 2.5, np.float64(2.0), "2"):
        with pytest.raises(InvalidRank):
            subspectrum_margin(es, j, 0j, rows)
        with pytest.raises(InvalidRank):
            subspectrum_margin(es, j, 0j, rows[0])
    want = subspectrum_margin(es, 2, 0j, rows)
    for j in (np.int64(2), np.int8(2)):
        assert subspectrum_margin(es, j, 0j, rows).tolist() == want.tolist()


def piece_rows(pieces):
    """The ``(blocks, triangles)`` arrays of ``_search_pieces`` as one list
    of rows, ("block", row) then ("tri", row), the form of the pins and of
    ``reference_search_pieces``; None stays None."""
    if pieces is None:
        return None
    blks, tris = pieces
    return [("block", tuple(r)) for r in blks.tolist()] + \
        [("tri", tuple(r)) for r in tris.tolist()]


def as_pieces(blks=(), tris=()):
    """The ``(blocks, triangles)`` index arrays that ``_try_pieces`` reads,
    from rows of 5 and of 3."""
    return (np.array(blks, dtype=int).reshape(-1, 5),
            np.array(tris, dtype=int).reshape(-1, 3))


def reference_search_pieces(es, kk, lam, act, shortlist=True):
    """_search_pieces with the row-form scorer: one subspectrum_margin call
    over every candidate row, the shortlist by a full sort (none when
    ``shortlist`` is False), then one call over the remainders of the
    shortlist and, only when it has no feasible remainder, one over every
    candidate's, with the same argmax of the min of the two margins."""
    n = act.size
    if n == 3 * kk:
        m = n // 3
        return [("tri", tuple(act[[j, j + m, j + 2 * m]].tolist()))
                for j in range(m)]
    five = decomposition._spaced_blocks(n)
    m_blk = subspectrum_margin(es, 2, lam, act[five] - 1)
    good = np.nonzero(m_blk >= decomposition.BLOCK_FLOOR)[0]
    short = full_sort_shortlist(good, m_blk[good]) if shortlist else good[:0]
    for cand in (short, good):
        if cand.size == 0:
            continue
        rest = decomposition._remainders(n, five[cand])
        score = m_blk[cand]
        if kk > 2:
            m_rest = subspectrum_margin(es, kk - 2, lam, act[rest] - 1)
            score = np.where(m_rest >= decomposition.FEASIBILITY_FLOOR,
                             np.minimum(score, m_rest), -np.inf)
        best = int(np.argmax(score))
        if score[best] > -np.inf:
            break
    else:
        return None
    tail = reference_search_pieces(es, kk - 2, lam, act[rest[best]],
                                   shortlist)
    if tail is None:
        return None
    return [("block", tuple(act[five[cand[best]]].tolist()))] + tail


def no_shortlist(good, m):
    """A ``_shortlist`` that gives up at once, so that every step scores
    the remainder of every candidate."""
    return good[:0]


def stream_cases(count):
    """(es, k, lam) of the first ``count`` default_rng(1) instances of each
    of the BENCHMARK_STREAMS sizes."""
    cases = []
    for n, k in BENCHMARK_STREAMS:
        rng = np.random.default_rng(1)
        for i in range(count):
            es = random_instance(rng, n, i % 2 == 1)
            cases.append((es, k, pick_target(es, k)))
    return cases


def test_search_pieces_equal_row_form_reference(monkeypatch):
    # with the shortlist made to give up, every step scores every
    # candidate: the benchmark streams, and (154,52), whose first step's
    # 6,930 candidates take two chunks of remainders
    cases = stream_cases(10)
    es = ingest_spectrum(np.random.default_rng(0).uniform(0, 2 * np.pi, 154))
    cases.append((es, 52, interior_point(build_region(es, 52))))
    chunks = []
    scores = decomposition._remainder_scores

    def counted(table, n, rest, lam):
        chunks.append(n)
        return scores(table, n, rest, lam)

    monkeypatch.setattr(decomposition, "_remainder_scores", counted)
    monkeypatch.setattr(decomposition, "_shortlist", no_shortlist)
    for es, k, lam in cases:
        act = np.arange(1, es.dim + 1)
        got = decomposition._search_pieces(es, k, lam, act)
        assert got is not None, (es.dim, k, lam)
        assert piece_rows(got) == \
            reference_search_pieces(es, k, lam, act, False), (es.dim, k, lam)
    assert chunks.count(154) == 2 and chunks.count(149) == 1


# (n, k, seed, target, pieces); spectra are default_rng(seed).uniform(0,
# 2pi, n), searched from every index with the shortlist made to give up, so
# that every step scores every candidate: N = 3k - 2 takes two pair
# blocks, so 3 nodes each
SEARCH_PINS = [
    (13, 5, 0, 0.469036 - 0.473619j,
     [("block", (1, 4, 7, 9, 12)), ("block", (3, 5, 8, 10, 13)),
      ("tri", (2, 6, 11))]),
    (13, 5, 1, -0.225026 + 0.054522j,
     [("block", (1, 3, 6, 9, 11)), ("block", (2, 5, 7, 10, 13)),
      ("tri", (4, 8, 12))]),
    (28, 10, 0, 0.301995 - 0.262859j,
     [("block", (1, 7, 11, 19, 23)), ("block", (2, 8, 12, 20, 25)),
      ("tri", (3, 13, 21)), ("tri", (4, 14, 22)), ("tri", (5, 15, 24)),
      ("tri", (6, 16, 26)), ("tri", (9, 17, 27)), ("tri", (10, 18, 28))]),
    (28, 10, 9, 0.384148 - 0.555883j,
     [("block", (3, 8, 14, 19, 24)), ("block", (4, 10, 16, 20, 26)),
      ("tri", (1, 11, 21)), ("tri", (2, 12, 22)), ("tri", (5, 13, 23)),
      ("tri", (6, 15, 25)), ("tri", (7, 17, 27)), ("tri", (9, 18, 28))]),
]


def test_search_tree_pinned(monkeypatch):
    nodes = []
    search = decomposition._search_pieces

    def counted(*args, **kwargs):
        nodes.append(args[3])
        return search(*args, **kwargs)

    monkeypatch.setattr(decomposition, "_search_pieces", counted)
    monkeypatch.setattr(decomposition, "_shortlist", no_shortlist)
    for n, k, seed, lam, want in SEARCH_PINS:
        rng = np.random.default_rng(seed)
        es = ingest_spectrum(rng.uniform(0.0, 2 * np.pi, n))
        nodes.clear()
        got = decomposition._search_pieces(es, k, lam, np.arange(1, n + 1))
        assert piece_rows(got) == want, (n, k, seed)
        assert [a.size for a in nodes] == [n, n - 5, n - 10], (n, k, seed)
        assert decomposition._try_pieces(es, lam, got) is not None


def test_search_takes_one_node_per_pair_block(monkeypatch):
    nodes = []
    search = decomposition._search_pieces

    def counted(*args, **kwargs):
        nodes.append(args[3].size)
        return search(*args, **kwargs)

    monkeypatch.setattr(decomposition, "_search_pieces", counted)
    phases, lam = GIVES_UP[0]
    proj = construct_projector(ingest_spectrum(phases), 6, lam)
    assert proj.strategy == "blockwise"
    assert nodes == [16, 11, 6]


# the three (16,6) targets of the ROADMAP rate-of-use scan at which the
# first step's shortlist gives up: uniform seed 3, and 5 clusters seed 2,
# twice
SCAN_PAST_SHORTLIST = [
    (np.sort(np.random.default_rng([3, 16, 0]).uniform(0, 2 * np.pi, 16)),
     -0.2276146484301223 - 0.39988006288358613j),
    (clustered_phases([2, 16, 2], 5, 16),
     -0.644626334491316 + 0.4714446299164064j),
    (clustered_phases([2, 16, 2], 5, 16),
     -0.6446294220428578 + 0.4714415423648647j),
]


def record_steps(monkeypatch):
    """Record, for each pick of a block-first step, how many candidates it
    weighed and whether it found a block."""
    steps = []
    pick = decomposition._best_block

    def counted(table, n, kk, cand, m_blk, lam):
        best = pick(table, n, kk, cand, m_blk, lam)
        steps.append((cand.size, best is not None))
        return best

    monkeypatch.setattr(decomposition, "_best_block", counted)
    return steps


def test_first_step_score_is_region_margin(monkeypatch):
    # the first block-first step's chosen score, the min of its block
    # margin and its remainder margin, is the target's margin in the rank-k
    # region, to 1e-9 relative: the split gives up none of its depth; on
    # the scan's spectra of seed 0, uniform and clustered of kinds 1 and 2
    picks = []
    pick = decomposition._best_block

    def scored(table, n, kk, cand, m_blk, lam):
        best = pick(table, n, kk, cand, m_blk, lam)
        if best is not None:
            score = m_blk[best]
            if kk > 2:
                rest = decomposition._remainders(
                    n, decomposition._layout_rows(n, cand[best:best + 1]))
                score = min(score, decomposition._remainder_scores(
                    table, n, rest, lam)[0])
            picks.append(score)
        return best

    monkeypatch.setattr(decomposition, "_best_block", scored)
    checked = 0
    for (n, k), kind in product([(8, 3), (11, 4), (13, 5), (16, 6), (29, 10)],
                                (0, 1, 2)):
        es = ingest_spectrum(clustered_phases([0, n, kind], 3 + kind, n)
                             if kind else np.sort(np.random.default_rng(
                                 [0, n, 0]).uniform(0, 2 * np.pi, n)))
        region = build_region(es, k)
        for lam in scan_targets(es, k)[::6]:
            picks.clear()
            construct_projector(es, k, lam)
            want = region_margin(region, lam)
            assert abs(picks[0] - want) <= 1e-9 * abs(want), (n, k, lam)
            checked += 1
    assert checked == 58


@pytest.mark.parametrize("phases, lam", SCAN_PAST_SHORTLIST,
                         ids=["uniform", "clustered-a", "clustered-b"])
def test_scan_targets_past_shortlist_are_blockwise(monkeypatch, phases, lam):
    # the first step's shortlist of 64 leaves no feasible remainder; the
    # step then weighs every candidate (200 or 174) and finds one, and
    # the second step's shortlist finds its block
    steps = record_steps(monkeypatch)
    es = ingest_spectrum(phases)
    with deadline(2.0):
        proj = construct_projector(es, 6, lam)
    assert proj.strategy == "blockwise"
    assert verify_projector(proj.matrix, es.matrix, lam, 6).passed
    assert [found for _, found in steps] == [False, True, True]
    assert steps[0][0] == decomposition.BLOCK_SHORTLIST < steps[1][0]


def test_triangle_solve_errors_propagate(monkeypatch):
    # only "no weights" means infeasible; any other error, from the stacked
    # 3 x 3 solve, from the edge pass of a row that misses it, or from the
    # triangle solve as a whole, is a fault and must not send the
    # construction down to a fallback rung
    solve = np.linalg.solve

    def broken_stack(a, b):
        if np.ndim(a) == 3:
            raise RuntimeError("broken stacked solve")
        return solve(a, b)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", broken_stack)
        es = ingest_spectrum(2 * np.pi * np.arange(6) / 6)
        with pytest.raises(RuntimeError, match="broken stacked solve"):
            construct_projector(es, 2, 0.1 + 0.05j)

    def broken(*args, **kwargs):
        raise RuntimeError("broken triangle solve")

    # two coincident eigenvalues make the one planned triangle singular, so
    # its row goes on to the edge pass; the target is on its edge, a rank-1
    # boundary point
    es = ingest_spectrum([0.0, 0.0, np.pi / 2])
    with monkeypatch.context() as m:
        m.setattr(np, "float_power", broken)
        with pytest.raises(RuntimeError, match="broken triangle solve"):
            construct_projector(es, 1, 0.5 + 0.5j)
    monkeypatch.setattr(decomposition, "solve_barycentric", broken)
    with pytest.raises(RuntimeError, match="broken triangle solve"):
        construct_projector(es, 1, 0.5 + 0.5j)


# --- the stacked triangle solve -------------------------------------------

def assert_kernel_rows(es, tris, lam):
    """solve_barycentric over the rows ``tris`` gives, row by row, the old
    scalar solver's verdict and weights: ``==`` where its full solve
    answered, within 2.3e-16 where an edge or a vertex did, and NaN where
    it raised. Each row's weights are ``==`` to those of that row alone.
    Returns the number of rows with weights."""
    tris = np.array(tris)
    got = solve_barycentric(es, tris, lam)
    solved = 0
    for i, row in enumerate(tris.tolist()):
        assert np.array_equal(solve_barycentric(es, tris[[i]], lam)[0],
                              got[i], equal_nan=True)
        try:
            want, stage = _old_solve_barycentric(
                es, triangle(*row, dim=es.dim), lam)
        except NoConvexSolution:
            assert np.isnan(got[i]).all(), (row, lam)
            continue
        solved += 1
        tol = 0.0 if stage == "full" else 2.3e-16
        assert np.abs(got[i] - want.weights).max() <= tol, (row, lam, stage)
    return solved


def test_triangle_kernel_clustered_points():
    rng = np.random.default_rng(21)
    solved = 0
    for width in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        es = ingest_spectrum(clustered_phases([21, int(-np.log10(width))],
                                              3, 9, width))
        mu = es.eigenvalues()
        tris = list(combinations(range(1, 10), 3))
        # the centroid, a point inside a cluster's hull, the midpoint of a
        # chord between clusters, an eigenvalue and a point outside
        for lam in (complex(mu.mean()), complex(mu[:3].mean()),
                    complex((mu[0] + mu[-1]) / 2), complex(mu[4]),
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1))):
            solved += assert_kernel_rows(es, tris, lam)
    assert solved > 0


def test_triangle_kernel_degenerate_triples():
    # exact multiplicities: triples with two coincident vertices are
    # segments, with three they are points
    es = ingest_spectrum([0.0, 0.0, 0.0, 2.0, 2.0, 4.0])
    mu = es.eigenvalues()
    tris = list(combinations(range(1, 7), 3))
    edge = complex((mu[0] + mu[3]) / 2)           # on the segment 1 -> 4
    inside = complex((mu[0] + mu[3] + mu[5]) / 3)
    for lam in (edge, inside, complex(mu[0]), complex(mu[5]),
                0.999 * edge, 1.2 + 0.1j):
        assert_kernel_rows(es, tris, lam)


def test_triangle_kernel_edge_vertex_outside():
    es = ingest_spectrum(np.sort(np.random.default_rng(22).uniform(
        0, 2 * np.pi, 7)))
    mu = es.eigenvalues()
    tris = list(combinations(range(1, 8), 3))
    for lam in (complex((mu[1] + mu[4]) / 2), complex((mu[0] + mu[6]) / 2),
                complex(mu[2]), complex(mu.mean()), 0.9 * complex(mu[3]),
                1.1 * complex(mu[3])):
        assert_kernel_rows(es, tris, lam)


def test_triangle_kernel_falls_back_per_row():
    # (1, 2, 3) is exactly singular, so the stacked solve raises and is
    # solved again without it; that row alone goes on to the edge pass, and
    # its edge solution holds
    es = ingest_spectrum([0.0, 0.0, 2.0, 3.0, 4.0, 5.0])
    mu = es.eigenvalues()
    lam = complex((mu[0] + mu[2]) / 2)
    tris = np.array([(1, 3, 5), (1, 2, 3), (2, 3, 6)])
    assert assert_kernel_rows(es, tris, lam) == 3
    assert solve_barycentric(es, tris, lam)[1].tolist() == [0.5, 0.0, 0.5]
    # an infeasible singular row is NaN; the other rows keep their weights,
    # and a candidate holding it is rejected
    got = solve_barycentric(es, tris, 0.99 * lam)
    assert np.isnan(got[1]).all() and not np.isnan(got[[0, 2]]).any()
    assert assert_kernel_rows(es, tris, 0.99 * lam) == 2
    assert decomposition._try_pieces(es, 0.99 * lam,
                                     as_pieces(tris=[(1, 2, 3)])) is None


# ---------------------------------------------------------------------------
# a pair block that misses every tier of the pair solve


def _pair_solve_misses(monkeypatch, miss):
    """Make the closed-form frame of each block for which ``miss(d)`` holds
    read inf (none formed), so that the block takes the two-segment step,
    and record the blocks (B, 5) of each two-segment call and their
    residuals."""
    seen = []
    closed_chain, two_segment = blocks._closed_chain, blocks._two_segment

    def missing(d, nu):
        V, r = closed_chain(d, nu)
        return V, np.where(miss(d), np.inf, r)

    def counted(d, nu):
        V, r = two_segment(d, nu)
        seen.append((d.copy(), r.copy()))
        return V, r

    monkeypatch.setattr(blocks, "_closed_chain", missing)
    monkeypatch.setattr(blocks, "_two_segment", counted)
    return seen


def test_every_pair_block_miss_raises_at_once(monkeypatch):
    # three clusters of width ~1e-4; the target is 0.9 of the way from the
    # region's Chebyshev centre to its boundary, in the +imaginary
    # direction. Made to miss the closed form, the block that the
    # block-first call picks, (1, 2, 5, 6, 8), is not on one line through
    # the target, so the two-segment frame misses too: the one pair solve
    # raises, and the construction raises NoSolution at once
    es = ingest_spectrum(clustered_phases(44, 3, 8))
    lam = -0.22069262232778145 + 0.6124527386670806j
    picked = es.mu[[0, 1, 4, 5, 7]] - lam
    assert construct_projector(es, 3, lam).strategy == "blockwise"
    seen = _pair_solve_misses(monkeypatch,
                              lambda d: np.ones(len(d), dtype=bool))
    with deadline(2.0), pytest.raises(NoSolution):
        construct_projector(es, 3, lam)
    assert len(seen) == 1 and np.array_equal(seen[0][0], picked[None])
    assert seen[0][1][0] > blocks.BLOCK_RESIDUAL_GATE


def test_regular_octagon_centre_is_built_by_block_rungs():
    # any 5 of the 8 vertices have a chord of their rank-2 region spanning
    # at least a half turn, so no pair block holds the centre strictly
    # inside; a block whose widest such chord is a diameter holds it on its
    # boundary, and the pair solve closes that block
    for rot in (0.0, 0.3, 1.1):
        es = ingest_spectrum(np.mod(2 * np.pi * np.arange(8) / 8 + rot,
                                    2 * np.pi))
        targets = [0j, interior_point(build_region(es, 3))]
        targets += [complex(r * np.exp(1j * th)) for r in (1e-12, 1e-10, 1e-9)
                    for th in 0.2 + np.pi / 2 * np.arange(4)]
        for lam in targets:
            proj = construct_projector(es, 3, lam)
            assert proj.strategy in ("planned", "blockwise"), (rot, lam)
            assert verify_projector(proj.matrix, es.matrix, lam, 3).passed


def test_clustered_target_closes_past_shortlist(monkeypatch):
    # six clusters of width 7e-6 holding 2 to 7 eigenvalues each: the
    # block-first rung closes this target from its shortlists
    phases = np.repeat([0.96099, 1.282885, 1.526565, 2.10249, 2.817509,
                        4.643176], [5, 3, 2, 5, 4, 7])
    es = ingest_spectrum(np.sort(
        phases + 7e-6 * np.random.default_rng(0).standard_normal(26)))
    lam = -0.051306 + 0.6964j
    proj = construct_projector(es, 9, lam)
    assert proj.strategy == "blockwise"
    assert verify_projector(proj.matrix, es.matrix, lam, 9).passed
    # with the shortlist made to give up, each step scores every block's
    # remainder and builds the witness
    monkeypatch.setattr(decomposition, "_shortlist", no_shortlist)
    with deadline(2.0):
        proj = construct_projector(es, 9, lam)
    assert proj.strategy == "blockwise"
    assert verify_projector(proj.matrix, es.matrix, lam, 9).passed


# ---------------------------------------------------------------------------
# the block-first rung


def reference_spaced_blocks(n, paper=True):
    """_spaced_blocks by enumeration: every start, every offset pattern in
    product order and then, if ``paper``, the paper's shared-vertex
    pattern, cyclic gaps (a, d, a, d, a) with d = 3 - n mod 3, each sorted
    row kept at its first occurrence."""
    near = [round(i * n / 5) for i in range(1, 5)]
    patterns = [[x + y for x, y in zip(near, delta)]
                for delta in product((-1, 0, 1), repeat=4)]
    patterns = [g for g in patterns if 0 < g[0] < g[1] < g[2] < g[3] < n]
    d = 3 - n % 3
    a = (n - 2 * d) // 3
    if paper and a > 0:
        patterns.append([a, a + d, 2 * a + d, 2 * a + 2 * d])
    seen, out = set(), []
    for j in range(n):
        for g in patterns:
            row = tuple(sorted((j + x) % n for x in [0] + g))
            if row not in seen:
                seen.add(row)
                out.append(row)
    return out


def test_spaced_blocks_rows():
    for n in (5, 6, 8, 11, 13, 23, 29, 58, 148, 299):
        rows = decomposition._spaced_blocks(n)
        assert rows.shape[1] == 5
        assert list(map(tuple, rows.tolist())) == reference_spaced_blocks(n)
        assert len(set(map(tuple, rows.tolist()))) == len(rows)
        assert (np.diff(rows, axis=1) > 0).all()
        assert rows.min() >= 0 and rows.max() < n
    assert decomposition._spaced_blocks(5).tolist() == [[0, 1, 2, 3, 4]]


def test_plan_first_pair_block_is_a_spaced_block():
    # the first pair block of the paper's template, in every branch of the
    # weak-vertex probes, is a candidate of the block-first family
    C = decomposition
    shapes = [(3 * k - 1, k, C.CASE_THREE_K_MINUS_1, pivot)
              for k in range(2, 21) for pivot in (None, 2 * k + 1)]
    shapes += [(3 * k - 2, k, case, pivot) for k in range(5, 21)
               for case in (C.CASE_THREE_K_MINUS_2_C1,
                            C.CASE_THREE_K_MINUS_2_C2)
               for pivot in (None, k - 1)]
    branches = set()
    for n, k, case, pivot in shapes:
        pl = C._plan_template(case, k, n, pivot)
        branches.add(pl.branch)
        p = pl.pairings[0]
        block = set(pl.triangles[p.first].indices) \
            | set(pl.triangles[p.second].indices)
        rows = set(map(tuple, C._spaced_blocks(n).tolist()))
        assert tuple(sorted(j - 1 for j in block)) in rows, (n, k, case,
                                                             pivot)
    assert branches == {"vertex1", "reflected", "case1", "case2"}


def test_only_the_papers_block_closes_pinned_target(monkeypatch):
    # 4 clusters of width 1e-4 at (58,20): the paper's template built this
    # target, and the block-first family builds it from the paper's
    # shared-vertex block; from evenly spaced blocks alone the block-first
    # call misses
    es = ingest_spectrum(clustered_phases([2, 58, 1], 4, 58))
    lam = 0.9185665663696683 + 0.1766741316192685j
    with deadline(2.0):
        proj = construct_projector(es, 20, lam)
    assert proj.strategy == "blockwise"
    assert verify_projector(proj.matrix, es.matrix, lam, 20).passed
    monkeypatch.setattr(decomposition, "_spaced_blocks", lambda n: np.array(
        reference_spaced_blocks(n, paper=False)))
    decomposition._block_layout.cache_clear()
    try:
        with deadline(2.0), pytest.raises(NoSolution):
            construct_projector(es, 20, lam)
    finally:
        decomposition._block_layout.cache_clear()


def test_block_layout_is_cached_and_read_only():
    layout = decomposition._block_layout(58)
    assert decomposition._block_layout(58) is layout
    spans, idx = layout
    five = decomposition._spaced_blocks(58)
    # stored by chord: column j holds candidate j's 5 chords, each chord's
    # indices one contiguous gather; a row's chord c runs from its position
    # c to its position c + 2, and the rows are recovered from the indices
    assert idx.shape == (5, len(five)) and idx.flags.c_contiguous
    assert idx.dtype == np.int32
    assert np.array_equal(
        decomposition._layout_rows(58, np.arange(len(five))), five)
    ends = np.concatenate([five[:, 2:], five[:, :2] + 58], axis=1)
    assert np.array_equal(spans[idx.T % spans.size], ends - five)
    # at n = 58 the remainders have rank r = 18, whose spans 18 .. 23 are
    # table columns too, consecutive
    col = np.searchsorted(spans, 18)
    assert spans[col:col + 6].tolist() == list(range(18, 24))
    for arr in layout:
        with pytest.raises(ValueError):
            arr[0] = 0
    assert decomposition._block_layout.cache_info().maxsize is not None
    # the pentagon's one step has no remainder, and its table one column
    assert decomposition._block_layout(5)[0].tolist() == [2]


def test_block_layout_holds_half_the_bytes():
    # the layout kept the rows (C, 5) and the indices (5, C), both of
    # numpy's index type, 10.8 MB at n = 2,999; it keeps the indices alone
    n = 2999
    before = 2 * 5 * len(decomposition._spaced_blocks(n)) \
        * np.dtype(np.intp).itemsize
    decomposition._block_layout.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        decomposition._block_layout(n)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= before / 2, (held, before)


def full_sort_shortlist(good, m):
    return good[np.argsort(-m, kind="stable")[:decomposition.BLOCK_SHORTLIST]]


def test_block_shortlist_equals_full_sort():
    size = decomposition.BLOCK_SHORTLIST
    cut_ties = 0
    cases = []
    # block margins of equally spaced spectra, whose rotations tie, and of
    # spectra of 3 to 5 exact multiplicities
    rng = np.random.default_rng(21)
    for n in (13, 28, 29, 43, 44, 58, 59, 88):
        spectra = [2 * np.pi * np.arange(n) / n]
        spectra += [np.sort(rng.choice(2 * np.pi * np.arange(m) / m, n))
                    for m in (3, 4, 5)]
        for phases in spectra:
            es = ingest_spectrum(phases)
            act = np.arange(1, n + 1)
            for lam in (0j, 0.1 + 0.05j, complex(es.eigenvalues()[:3].mean())):
                _, m = decomposition._block_scores(es, act, lam)
                cases.append(m)
    # synthetic margins made of a few values, each repeated, so that the
    # cut falls inside a run of ties
    for reps in (1, 7, 30, 64, 65, 100):
        m = np.repeat(rng.uniform(0.1, 1.0, 300 // reps + 2), reps)
        cases.append(rng.permutation(m))
    cases.append(np.full(200, 0.5))
    for m in cases:
        good = np.nonzero(m >= decomposition.BLOCK_FLOOR)[0]
        want = full_sort_shortlist(good, m[good])
        assert np.array_equal(decomposition._shortlist(good, m[good]), want)
        ordered = np.sort(m[good])[::-1]
        if ordered.size > size and ordered[size - 1] == ordered[size]:
            cut_ties += 1
    assert cut_ties >= 10


def block_score_cases(n, rng):
    """Spectra of n + 5 (odd n) or n eigenvalues, each with n ascending
    active indices: uniform, 4 clusters of widths 1e-4, 1e-7 and 1e-12,
    3 exact multiplicities, and one eigenvalue of multiplicity n + 3 or
    n - 2, whose dead chords that wrap a full turn are pinned."""
    full = n + 5 * (n % 2)
    spectra = [np.sort(rng.uniform(0, 2 * np.pi, full))]
    spectra += [clustered_phases([n, w], 4, full, width)
                for w, width in enumerate((1e-4, 1e-7, 1e-12))]
    spectra.append(np.sort(rng.choice(rng.uniform(0, 2 * np.pi, 3), full)))
    spectra.append(np.sort(np.concatenate(
        [np.full(full - 2, 1.0), rng.uniform(0, 2 * np.pi, 2)])))
    for phases in spectra:
        act = np.sort(rng.choice(np.arange(1, full + 1), n, replace=False))
        yield ingest_spectrum(phases), act


def test_block_scores_equal_row_form():
    rng = np.random.default_rng(12)
    signs = set()
    for n in list(range(5, 61)) + list(range(67, 300, 29)):
        rows = decomposition._spaced_blocks(n)
        for es, act in block_score_cases(n, rng):
            mu = es.eigenvalues()[act - 1]
            # the centroid and 0 (mostly inside), the midpoint of a chord,
            # a point just inside an eigenvalue and one outside the disk
            for lam in (complex(mu.mean()), 0j, complex(mu[0] + mu[2]) / 2,
                        complex(0.999 * mu[1]), 1.5 + 0j):
                _, got = decomposition._block_scores(es, act, lam)
                want = subspectrum_margin(es, 2, lam, act[rows] - 1)
                assert got.tolist() == want.tolist(), (n, lam)
                signs.update(np.sign(want).tolist())
    assert {-1.0, 1.0} <= signs


def remainder_chord_kinds(phases, j, rows):
    """How many of the rank-j chords of the sub-spectra ``phases[rows]``
    are dead, and how many of those pin the region (``region.chord_rule``
    on the chords that ``subspectrum_margin`` scores)."""
    t0 = phases[rows]
    t1 = np.concatenate([t0[:, j:], t0[:, :j] + TWO_PI], axis=1)
    _, _, live, pinned = chord_rule(t0, t1, np.exp(1j * t0), np.exp(1j * t1))
    return int((~live).sum()), int(pinned.sum())


def test_remainder_scores_equal_row_form():
    # every n = 3kk - 1 and 3kk - 2 from 8 to 119: the step table's
    # remainder margins of up to 96 candidates per spectrum, among them
    # the first and the last, == to subspectrum_margin's at rank kk - 2
    rng = np.random.default_rng(19)
    dead = pinned = 0
    signs = set()
    for n in [n for n in range(8, 120) if n % 3]:
        r = (n + 2) // 3 - 2
        five = decomposition._spaced_blocks(n)
        pick = np.unique(np.concatenate([
            [0, len(five) - 1], rng.choice(len(five), min(94, len(five)),
                                           replace=False)]))
        cases = list(block_score_cases(n, rng))
        cases.append((ingest_spectrum(2 * np.pi * np.arange(n) / n),
                      np.arange(1, n + 1)))
        for es, act in cases:
            rest = decomposition._remainders(n, five[pick])
            kinds = remainder_chord_kinds(es.phases, r, act[rest] - 1)
            dead, pinned = dead + kinds[0], pinned + kinds[1]
            mu = es.eigenvalues()[act - 1]
            for lam in (complex(mu.mean()), 0j, complex(mu[0] + mu[2]) / 2,
                        complex(0.999 * mu[1]), 1.5 + 0j):
                table, _ = decomposition._block_scores(es, act, lam)
                got = decomposition._remainder_scores(table, n, rest, lam)
                want = subspectrum_margin(es, r, lam, act[rest] - 1)
                assert got.tolist() == want.tolist(), (n, lam)
                signs.update(np.sign(want).tolist())
    assert {-1.0, 1.0} <= signs
    assert dead > 0 and pinned > 0


def test_blockwise_pieces_equal_row_form_scorer():
    # unpatched: the shortlist closes every step of the streams, and gives
    # up at the first step of the GIVES_UP targets
    cases = [(ingest_spectrum(phases), 6, lam) for phases, lam in GIVES_UP]
    for es, k, lam in cases + stream_cases(20):
        act = np.arange(1, es.dim + 1)
        assert piece_rows(decomposition._search_pieces(es, k, lam, act)) \
            == reference_search_pieces(es, k, lam, act), (es.dim, k, lam)


def test_blockwise_pentagon_has_no_remainder(monkeypatch):
    ranks, tables = [], []
    margin, chords = decomposition.subspectrum_margin, \
        decomposition.chord_margins

    def counted(*args, **kwargs):
        ranks.append(args[1])
        return margin(*args, **kwargs)

    def counted_chords(*args):
        tables.append(args[0].shape)
        return chords(*args)

    monkeypatch.setattr(decomposition, "subspectrum_margin", counted)
    monkeypatch.setattr(decomposition, "chord_margins", counted_chords)
    pieces = decomposition._search_pieces(PENTAGON, 2, 0j, np.arange(1, 6))
    assert piece_rows(pieces) == [("block", (1, 2, 3, 4, 5))]
    # the leaf is the empty (0, 3) triangle array, and adds no stack
    assert pieces[1].shape == (0, 3)
    # one rank-2 scoring, from the block's 5 x 1 chord table; the empty
    # remainder is not scored: rank 0 would raise InvalidRank
    assert ranks == [] and tables == [(5, 1)]
    found = decomposition._try_pieces(PENTAGON, 0j, pieces)
    assert [rows.shape for rows, _ in found] == [(1, 5)]
    proj = decomposition._assemble(PENTAGON, 0j, found, "blockwise")
    assert verify_projector(proj.matrix, PENTAGON.matrix, 0j, 2).passed


def test_blockwise_is_deterministic():
    for n, k in ((58, 20), (59, 20)):
        es = random_instance(np.random.default_rng(2), n, False)
        lam = pick_target(es, k)
        act = np.arange(1, n + 1)
        first = piece_rows(decomposition._search_pieces(es, k, lam, act))
        assert first is not None
        assert piece_rows(decomposition._search_pieces(es, k, lam, act)) \
            == first
        # 3k - n pair blocks and triangles that partition the indices
        assert [kind for kind, _ in first].count("block") == 3 * k - n
        assert sorted(j for _, idx in first for j in idx) == \
            list(range(1, n + 1))


def test_blockwise_closes_benchmark_streams(monkeypatch):
    # every step's shortlist finds its block: no step scores every
    # candidate
    steps = record_steps(monkeypatch)
    for n, k in BENCHMARK_STREAMS:
        rng = np.random.default_rng(1)
        strategies = []
        for i in range(20):
            es = random_instance(rng, n, i % 2 == 1)
            lam = pick_target(es, k)
            proj = construct_projector(es, k, lam)
            strategies.append(proj.strategy)
            assert verify_projector(proj.matrix, es.matrix, lam, k).passed
        assert set(strategies) <= {"planned", "blockwise"}, (n, k)
        assert "blockwise" in strategies, (n, k)
    assert steps and all(found for _, found in steps)
    assert max(size for size, _ in steps) <= decomposition.BLOCK_SHORTLIST


def test_blockwise_gives_up_to_search(monkeypatch):
    # the first step's shortlist of 64 leaves no feasible remainder, so
    # the step scores every candidate's and finds a block; the next step's
    # shortlist finds its own
    steps = record_steps(monkeypatch)
    for phases, lam in GIVES_UP:
        es = ingest_spectrum(phases)
        steps.clear()
        proj = construct_projector(es, 6, lam)
        assert proj.strategy == "blockwise"
        assert verify_projector(proj.matrix, es.matrix, lam, 6).passed
        assert [found for _, found in steps] == [False, True, True]
        assert steps[0][0] == decomposition.BLOCK_SHORTLIST < steps[1][0]
