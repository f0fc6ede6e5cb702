import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankrange import (EmptyRegion, NoConvexSolution, boundary_samples,
                       build_region, ingest_spectrum, solve_barycentric,
                       triangle, validate_triangle)

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
    from itertools import combinations
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
