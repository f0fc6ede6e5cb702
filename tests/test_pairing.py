import numpy as np
import pytest

from rankrange import (BothHeavy, NoSolution, ParseError,
                       SharedVertexProblem, discriminant_coeffs,
                       gauge_parameters, ingest_spectrum, solve_barycentric,
                       solve_pair)


def dense(vec, n):
    return vec.dense(n)


def make_problem(es, tri1, tri2, lam):
    """Shared-vertex problem from two ascending triangles sharing exactly
    one index, solved in one call; None when either has no weights."""
    shared = set(tri1) & set(tri2)
    assert len(shared) == 1
    v = shared.pop()
    w1, w2 = solve_barycentric(es, [tri1, tri2], lam).tolist()
    if np.isnan(w1[0]) or np.isnan(w2[0]):
        return None
    t_weights = {j: w for j, w in zip(tri1, w1) if j != v}
    r_weights = {j: w for j, w in zip(tri2, w2) if j != v}
    return SharedVertexProblem(v, w1[tri1.index(v)], w2[tri2.index(v)],
                               t_weights, r_weights, lam)


def r_side(es, lam):
    """The weights of lam on the R side, triangle (1, 2, 4): the shared
    vertex 1's, then {2: ..., 4: ...}."""
    q1, q2, q4 = solve_barycentric(es, [1, 2, 4], lam)[0].tolist()
    assert not np.isnan(q1), lam
    return q1, {2: q2, 4: q4}


def random_problem(rng):
    """Random feasible shared-vertex problem with p1 <= 1/2; a draw is
    retried only when a triangle has no weights at it."""
    while True:
        phases = np.sort(rng.uniform(0, 2 * np.pi, 5))
        es = ingest_spectrum(phases)
        z = complex(*rng.uniform(-0.9, 0.9, 2))
        prob = make_problem(es, (1, 3, 5), (1, 2, 4), z)
        if prob is None or prob.p1 > 0.5:
            continue
        return es, prob


def test_discriminant_examples():
    # symmetric thirds with the gauge angle: numerator of B vanishes
    a, b = discriminant_coeffs(1 / 3, 1 / 3, 2 * np.pi / 3)
    assert abs(b) <= 1e-12
    a, b = discriminant_coeffs(0.5, 0.25, np.pi)
    assert abs(a) <= 1e-12 and abs(b) <= 1e-12
    a, b = discriminant_coeffs(0.3, 0.4, 0.0)
    assert abs(b - 1.0) <= 1e-12


def test_gauge_symmetric_thirds():
    params = gauge_parameters(1 / 3, 1 / 3)
    assert abs(params.alpha - 2 * np.pi / 3) <= 1e-12
    assert abs(params.tau - np.pi / 3) <= 1e-12
    assert params.theta == 0.0 and params.beta == 0.0
    assert abs(params.B) <= 1e-12
    e1, e2, e3 = params.equation_residuals(1 / 3, 1 / 3)
    assert max(e1, e2, e3) <= 1e-10


def test_gauge_half_threshold():
    params = gauge_parameters(0.5, 0.3)
    assert abs(params.alpha - np.pi) <= 1e-12
    assert abs(params.tau) <= 1e-12


def test_pair_gram_identity():
    rng = np.random.default_rng(0)
    es, prob = random_problem(rng)
    phi1, phi2 = solve_pair(prob, es)
    v1, v2 = dense(phi1, 5), dense(phi2, 5)
    gram = np.array([[np.vdot(v1, v1), np.vdot(v1, v2)],
                     [np.vdot(v2, v1), np.vdot(v2, v2)]])
    assert np.abs(gram - np.eye(2)).max() <= 1e-12


def test_pair_half_weight_closed_form():
    # p1 = 1/2 exactly: phi1 = sqrt(1/2)|v> - sum sqrt(p_t)|t>,
    # phi2 = sqrt(1/2)|v> + sum sqrt(p_t)|t>
    es = ingest_spectrum([0.0, 1.2, 2.1, 3.8, 5.0])
    v, t1, t2 = 1, 3, 5
    pt = {t1: 0.3, t2: 0.2}
    lam = 0.5 * es.eigenvalue(v) + sum(w * es.eigenvalue(j)
                                       for j, w in pt.items())
    # build an R side reaching the same lam
    q1, r = r_side(es, lam)
    prob = SharedVertexProblem(v, 0.5, q1, pt, r, lam)
    phi1, phi2 = solve_pair(prob, es)
    a, b = dense(phi1, 5), dense(phi2, 5)
    np.testing.assert_allclose(a[0], np.sqrt(0.5), atol=1e-12)
    np.testing.assert_allclose(a[2], -np.sqrt(0.3), atol=1e-12)
    np.testing.assert_allclose(a[4], -np.sqrt(0.2), atol=1e-12)
    np.testing.assert_allclose(b[0], np.sqrt(0.5), atol=1e-12)
    np.testing.assert_allclose(b[2], np.sqrt(0.3), atol=1e-12)
    assert abs(np.vdot(a, b)) <= 1e-12


def test_pair_zero_shared_weight_disjoint_support():
    es = ingest_spectrum([0.0, 1.2, 2.1, 3.8, 5.0])
    # p1 = 0: lam on the segment through t-vertices
    lam = 0.5 * es.eigenvalue(3) + 0.5 * es.eigenvalue(5)
    q1, r = r_side(es, lam)
    prob = SharedVertexProblem(1, 0.0, q1, {3: 0.5, 5: 0.5}, r, lam)
    phi1, phi2 = solve_pair(prob, es)
    assert all(j in (3, 5) for j, z in phi1.coefficients.items()
               if abs(z) > 1e-14)
    assert all(j in (1, 2, 4) for j, z in phi2.coefficients.items()
               if abs(z) > 1e-14)
    assert abs(np.vdot(dense(phi1, 5), dense(phi2, 5))) <= 1e-12


def test_pair_battery_small():
    rng = np.random.default_rng(1)
    for _ in range(400):
        es, prob = random_problem(rng)
        phi1, phi2 = solve_pair(prob, es)
        v1, v2 = dense(phi1, 5), dense(phi2, 5)
        assert abs(np.vdot(v1, v1) - 1) <= 1e-10
        assert abs(np.vdot(v2, v2) - 1) <= 1e-10
        assert abs(np.vdot(v1, v2)) <= 1e-10
        assert phi1.compression_residual <= 1e-10
        assert phi2.compression_residual <= 1e-10
        params = gauge_parameters(prob.p1, prob.q1)
        e1, e2, e3 = params.equation_residuals(prob.p1, prob.q1)
        assert max(e1, e2, e3) <= 1e-10
        assert abs(params.B) <= 1e-12


def test_spurious_root_rejected():
    # the other root of the gauge quadratic (x = -A) violates the second
    # orthogonality equation whenever sin(alpha) != 0
    p1, q1 = 0.3, 0.35
    params = gauge_parameters(p1, q1)
    assert params.x == 0.0
    x_bad = -params.A
    assert abs(x_bad) > 1e-6
    y = params.y
    e2_bad = np.sqrt(p1 * q1) * (x_bad - y) + np.sin(params.alpha) * (1 - p1)
    assert abs(e2_bad) > 1e-6


def test_continuity_toward_zero_shared_weight():
    es = ingest_spectrum([0.0, 1.2, 2.1, 3.8, 5.0])

    def pair_at(p1):
        t = {3: 0.5 * (1 - p1), 5: 0.5 * (1 - p1)}
        lam_p = p1 * es.eigenvalue(1) + sum(w * es.eigenvalue(j)
                                            for j, w in t.items())
        q1, r = r_side(es, lam_p)
        prob = SharedVertexProblem(1, p1, q1, t, r, lam_p)
        return solve_pair(prob, es)

    a1, a2 = pair_at(1e-6)
    b1, b2 = pair_at(0.0)
    assert np.abs(dense(a1, 5) - dense(b1, 5)).max() <= 1e-3
    assert np.abs(dense(a2, 5) - dense(b2, 5)).max() <= 1e-3


def test_both_heavy_rejected():
    es = ingest_spectrum([0.0, 1.2, 2.1, 3.8, 5.0])
    prob = SharedVertexProblem(1, 0.6, 0.7, {3: 0.2, 5: 0.2},
                               {2: 0.15, 4: 0.15}, 0.1 + 0j)
    with pytest.raises(BothHeavy):
        solve_pair(prob, es)


def test_swap_when_only_q_light():
    rng = np.random.default_rng(3)
    while True:
        es, prob = random_problem(rng)
        if prob.q1 <= 0.5 < 1 - 1e-9 and prob.p1 < 0.5:
            swapped = prob.swapped()
            if swapped.p1 > 0.5:
                continue
            # force the solver through the swap branch
            heavy = SharedVertexProblem(prob.shared_index, 0.6, prob.q1,
                                        prob.t_weights, prob.r_weights,
                                        prob.target)
            break
    # heavy.p1 > 1/2 but q1 <= 1/2: must not raise
    try:
        solve_pair(heavy, es)
    except BothHeavy:
        pytest.fail("swap branch not taken")
    except NoSolution:
        pass  # weights are inconsistent by construction; only routing matters


def test_problem_validation():
    with pytest.raises(ParseError, match="index sets overlap"):
        SharedVertexProblem(1, 0.2, 0.2, {2: 0.4, 3: 0.4}, {3: 0.4, 4: 0.4},
                            0j)
    with pytest.raises(ParseError, match="shared index"):
        SharedVertexProblem(1, 0.2, 0.2, {1: 0.4, 3: 0.4}, {4: 0.8}, 0j)

