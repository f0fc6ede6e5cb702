import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itertools import combinations

from rankrange import (BarycentricWeights, EmptyRegion, NoConvexSolution,
                       ParseError, boundary_samples, build_region, ingest_spectrum,
                       solve_barycentric, triangle, validate_triangle)
from rankrange.triangles import SUM_TOL, VALUE_TOL, WEIGHT_FLOOR

from clustered import clustered_phases
from planar import point_in_triangle

PENTAGON = ingest_spectrum(2 * np.pi * np.arange(5) / 5)

# weights of the origin over T{1,3,5} on fifth roots: the triangle
# (0, 4pi/5, 8pi/5) is mirror-symmetric about its middle vertex, which
# carries 1/sqrt(5); the outer two split the remainder evenly
APEX = 1 / np.sqrt(5)
OUTER = (1 - APEX) / 2


def test_validate_examples():
    assert validate_triangle(triangle(1, 3, 5, dim=5), 2)
    assert validate_triangle(triangle(1, 4, 9, dim=13), 5)
    assert not validate_triangle(triangle(1, 2, 5, dim=5), 2)


@pytest.mark.parametrize("a, b, c, dim", [(1, 1, 2, 3), (1, 2, 9, 5),
                                          (0, 1, 2, 3)])
def test_bad_triangle_is_parse_error(a, b, c, dim):
    # a repeated index or one outside 1..dim raised a bare ValueError
    with pytest.raises(ParseError, match="not strictly increasing"):
        triangle(a, b, c, dim=dim)


def test_vertex_case():
    t = triangle(1, 3, 5, dim=5)
    w = solve_barycentric(PENTAGON, t, PENTAGON.eigenvalue(1))
    np.testing.assert_allclose(w.weights, (1.0, 0.0, 0.0), atol=1e-9)


def test_pentagon_origin_weights():
    t = triangle(1, 3, 5, dim=5)
    w = solve_barycentric(PENTAGON, t, 0j)
    np.testing.assert_allclose(w.weights, (OUTER, APEX, OUTER), atol=1e-9)
    # independent reconstruction: weights against the actual eigenvalues
    value = sum(wi * PENTAGON.eigenvalue(j)
                for wi, j in zip(w.weights, t.indices))
    assert abs(value) <= 1e-12
    # the conjugate-symmetric triangle T{1,3,4} carries 1/sqrt(5) on vertex 1:
    # 0.4472*1 + 0.2764*(exp(4i pi/5) + exp(6i pi/5)) = 0
    w134 = solve_barycentric(PENTAGON, triangle(1, 3, 4, dim=5), 0j)
    np.testing.assert_allclose(w134.weights, (APEX, OUTER, OUTER), atol=1e-9)


def test_equilateral_symmetric_weights():
    es = ingest_spectrum([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    w = solve_barycentric(es, triangle(1, 2, 3, dim=3), 0j)
    np.testing.assert_allclose(w.weights, (1 / 3, 1 / 3, 1 / 3), atol=1e-12)


def test_infeasible_raises():
    t = triangle(1, 3, 5, dim=5)
    # a point near the second root of unity, outside T{1,3,5}
    with pytest.raises(NoConvexSolution):
        solve_barycentric(PENTAGON, t, 0.99 * np.exp(2j * np.pi / 5))


def test_degenerate_triangle_vertex_fallback():
    es = ingest_spectrum([0.0, 0.0, 0.0])
    w = solve_barycentric(es, triangle(1, 2, 3, dim=3), 1 + 0j)
    assert w.residual <= 1e-9
    assert abs(sum(w.weights) - 1.0) <= 1e-10


def test_degenerate_edge_fallback():
    es = ingest_spectrum([0.0, 0.0, np.pi / 2])
    lam = 0.5 + 0.5j  # midpoint of the segment from 1 to i
    w = solve_barycentric(es, triangle(1, 2, 3, dim=3), lam)
    value = sum(wi * es.eigenvalue(j)
                for wi, j in zip(w.weights, w.triangle.indices))
    assert abs(value - lam) <= 1e-9


def containment_check(es, t, k, samples=64):
    """Numerical check of the gap rule: every sampled boundary point of the
    rank-k region lies in the closed triangle (tolerance 1e-8)."""
    pts = [es.eigenvalue(j) for j in t.indices]
    try:
        boundary = boundary_samples(build_region(es, k), samples)
    except EmptyRegion:
        return True
    return all(point_in_triangle(z, *pts, tol=1e-8) for z in boundary)


def test_containment_examples():
    assert containment_check(PENTAGON, triangle(1, 3, 5, dim=5), 2)
    assert not containment_check(PENTAGON, triangle(1, 2, 3, dim=5), 2)
    es = ingest_spectrum([0.0, 0.0, 1.0])
    assert containment_check(es, triangle(1, 2, 3, dim=3), 2)


def test_gap_rule_soundness_random():
    rng = np.random.default_rng(1)
    for _ in range(4):
        n = int(rng.integers(5, 10))
        k = int(rng.integers(2, 4))
        es = ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, n)))
        for idx in combinations(range(1, n + 1), 3):
            t = triangle(*idx, dim=n)
            if validate_triangle(t, k):
                assert containment_check(es, t, k, samples=48), (n, k, idx)


def test_determinism():
    t = triangle(1, 3, 5, dim=5)
    w1 = solve_barycentric(PENTAGON, t, 0.1 + 0.05j)
    w2 = solve_barycentric(PENTAGON, t, 0.1 + 0.05j)
    assert w1.weights == w2.weights and w1.residual == w2.residual


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reconstruction_property(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(5, 12))
    es = ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, n)))
    idx = sorted(rng.choice(np.arange(1, n + 1), size=3, replace=False))
    t = triangle(*(int(j) for j in idx), dim=n)
    mix = rng.dirichlet(np.ones(3))
    lam = sum(m * es.eigenvalue(j) for m, j in zip(mix, t.indices))
    w = solve_barycentric(es, t, lam)
    assert abs(sum(w.weights) - 1.0) <= 1e-10
    value = sum(wi * es.eigenvalue(j) for wi, j in zip(w.weights, t.indices))
    assert abs(value - lam) <= 1e-9


# --- the scalar solver that the stacked solve replaced, kept as a reference


def _old_full_solve(pts, lam):
    A = np.array([[1.0, 1.0, 1.0],
                  [p.real for p in pts],
                  [p.imag for p in pts]])
    b = np.array([1.0, lam.real, lam.imag])
    try:
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    return w


def _old_edge_solution(lam, pa, pb):
    e = pb - pa
    L2 = abs(e) ** 2
    if L2 == 0.0:
        return None
    t = ((lam - pa).real * e.real + (lam - pa).imag * e.imag) / L2
    t = min(1.0, max(0.0, t))
    if abs(pa + t * e - lam) > VALUE_TOL:
        return None
    return 1.0 - t, t


def _old_solve_barycentric(es, t, lam):
    """The scalar solver, one triangle per call: the full 3 x 3 solve, then
    each edge, then each vertex. Returns its BarycentricWeights and the
    stage that gave them ("full", "edge" or "vertex"), or raises
    NoConvexSolution."""
    lam = complex(lam)
    pts = [es.eigenvalue(j) for j in t.indices]

    w = _old_full_solve(pts, lam)
    if w is not None and (w > WEIGHT_FLOOR).all():
        w = np.clip(w, 0.0, 1.0)
        resid = abs(sum(wi * p for wi, p in zip(w, pts)) - lam)
        if resid <= VALUE_TOL and abs(w.sum() - 1.0) <= SUM_TOL:
            return BarycentricWeights(t, tuple(float(x) for x in w),
                                      float(resid)), "full"

    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        sol = _old_edge_solution(lam, pts[i], pts[j])
        if sol is None:
            continue
        w = [0.0, 0.0, 0.0]
        w[i], w[j] = sol
        resid = abs(sum(wi * p for wi, p in zip(w, pts)) - lam)
        if resid <= VALUE_TOL:
            return BarycentricWeights(t, tuple(w), float(resid)), "edge"

    for i in range(3):
        if abs(pts[i] - lam) <= VALUE_TOL:
            w = [0.0, 0.0, 0.0]
            w[i] = 1.0
            return BarycentricWeights(t, tuple(w),
                                      float(abs(pts[i] - lam))), "vertex"

    raise NoConvexSolution(
        f"no convex combination of triangle {t.indices} reaches {lam}")


def _scan_spectra():
    """9-point spectra: uniform, clustered at widths 1e-4 to 1e-12, with
    exact multiplicities (a triple among them) and equally spaced."""
    rng = np.random.default_rng(23)
    for seed in range(16):
        yield np.sort(rng.uniform(0, 2 * np.pi, 9))
    for width in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        for seed in range(6):
            yield clustered_phases([23, seed, int(-np.log10(width))], 3, 9,
                                   width)
    for seed in range(12):
        a, b, c = np.sort(rng.uniform(0, 2 * np.pi, 3))
        yield np.sort([a, a, a, b, b, c, *rng.uniform(0, 2 * np.pi, 3)])
    for seed in range(8):
        yield 2 * np.pi * np.arange(9) / 9 + rng.uniform(0, 1)


def _scan_targets(mu, rng):
    """Centroids, points on chords, points at and 1e-12 from eigenvalues,
    and points outside the hull."""
    tri = rng.integers(0, mu.size, (3, 3))
    out = [complex(mu.mean())] + [complex(mu[r].mean()) for r in tri]
    for _ in range(4):
        i, j = rng.choice(mu.size, 2, replace=False)
        s = rng.uniform()
        out.append(complex(s * mu[i] + (1 - s) * mu[j]))
    for j in rng.choice(mu.size, 4, replace=False):
        out += [complex(mu[j]),
                complex(mu[j] + 1e-12 * np.exp(2j * np.pi * rng.uniform()))]
    out += [complex(1.05 * mu[rng.integers(mu.size)]),
            complex(0.999 * mu[rng.integers(mu.size)]),
            complex(rng.uniform(-1.1, 1.1), rng.uniform(-1.1, 1.1))]
    return out


def test_row_solve_matches_old_scalar_solver():
    # every index triple of each scan spectrum at each target, one stack
    # per target: no verdict flips, full-solve rows ==, edge and vertex
    # rows within 2.3e-16; every stage of the scalar solver is reached
    rng = np.random.default_rng(24)
    rows = np.array(list(combinations(range(1, 10), 3)))
    stages = {"full": 0, "edge": 0, "vertex": 0, "none": 0}
    worst = 0.0
    for phases in _scan_spectra():
        es = ingest_spectrum(phases)
        for lam in _scan_targets(es.eigenvalues(), rng):
            got = solve_barycentric(es, rows, lam)
            for row, w in zip(rows.tolist(), got.tolist()):
                try:
                    want, stage = _old_solve_barycentric(
                        es, triangle(*row, dim=9), lam)
                except NoConvexSolution:
                    stages["none"] += 1
                    assert np.isnan(w).all(), (row, lam)
                    continue
                stages[stage] += 1
                if stage == "full":
                    assert tuple(w) == want.weights, (row, lam)
                else:
                    gap = np.abs(np.subtract(w, want.weights)).max()
                    worst = max(worst, gap)
                    assert gap <= 2.3e-16, (row, lam, stage)
    assert sum(stages.values()) >= 100_000
    assert min(stages.values()) > 0, stages
    assert worst <= 2.3e-16


def test_spec_and_row_forms_agree():
    # one TriangleSpec gives the weights of its row in a stack, with the
    # residual of the scalar solver; a row without weights raises
    es = ingest_spectrum([0.0, 0.0, 0.0, 1.0, 2.5, 4.0])
    mu = es.eigenvalues()
    rows = np.array(list(combinations(range(1, 7), 3)))
    for lam in (complex(mu[0]), complex((mu[0] + mu[3]) / 2),
                complex(mu[3:].mean()), 1.1 + 0j):
        stack = solve_barycentric(es, rows, lam)
        for row, w in zip(rows.tolist(), stack.tolist()):
            t = triangle(*row, dim=6)
            if np.isnan(w).all():
                with pytest.raises(NoConvexSolution):
                    solve_barycentric(es, t, lam)
                continue
            got = solve_barycentric(es, t, lam)
            want, _ = _old_solve_barycentric(es, t, lam)
            assert got.weights == tuple(w)
            assert got.residual == want.residual
