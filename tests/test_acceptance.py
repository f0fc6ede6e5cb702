"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; any failure raises inside the corresponding test.
"""

import time

import numpy as np
import pytest

from rankrange import (BOUNDARY, INSIDE, OUTSIDE, BruteForceOracle,
                       SharedVertexProblem, UnsupportedDimension,
                       build_region, construct_projector, contains,
                       gauge_parameters, ingest_matrix, ingest_spectrum,
                       interior_point, plan, region_margin, solve_pair,
                       three_k_minus_2_patterns, triangle, validate_triangle,
                       verify_projector)
from rankrange.cli import run

THRESHOLDS = {"compression": 1e-8, "idempotency": 1e-9,
              "hermiticity": 1e-10, "trace": 1e-9}


def report(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def seeded_instances(seed, n, count, conjugate_half=True, min_margin=1e-3,
                     k=None):
    """Deterministic stream of eigensystems with a usable interior target."""
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 40 * count:
        attempts += 1
        phases = np.sort(rng.uniform(0, 2 * np.pi, n))
        conjugated = conjugate_half and (len(out) % 2 == 1)
        if conjugated:
            q = random_unitary(rng, n)
            es = ingest_matrix(q @ np.diag(np.exp(1j * phases)) @ q.conj().T)
        else:
            es = ingest_spectrum(phases)
        if k is not None:
            lam = interior_point(build_region(es, k))
            if lam is None or region_margin(build_region(es, k),
                                            lam) < min_margin:
                continue
            out.append((es, lam))
        else:
            out.append((es, None))
    assert len(out) == count, f"only {len(out)} usable instances"
    return out


def run_family(n_of_k, ks, seed):
    """Construct + verify 50 instances per k; returns the counters of the
    branches of the paper's template (``plan``) at their targets."""
    counters = {}
    for k in ks:
        n = n_of_k(k)
        for es, lam in seeded_instances(seed + k, n, 50, k=k):
            proj = construct_projector(es, k, lam)
            rep = verify_projector(proj.matrix, es.matrix, lam, k)
            assert rep.passed, (n, k, rep.residuals)
            for key, thr in THRESHOLDS.items():
                assert rep.residuals[key] <= thr, (n, k, key, rep.residuals)
            branch = "shortcut" if proj.strategy == "eigenspace" \
                else plan(es, k, lam).branch
            counters[branch] = counters.get(branch, 0) + 1
    return counters


def test_criterion_1_pentagon_fidelity():
    t0 = time.perf_counter()
    es = ingest_spectrum(2 * np.pi * np.arange(5) / 5)
    region = build_region(es, 2)
    target = np.cos(2 * np.pi / 5)
    hp = region.halfplanes()
    assert len(hp) == 5
    for c in hp:
        assert abs(c.margin(0j) - target) <= 1e-9
    assert contains(region, 0j) == INSIDE
    for c in hp:
        # unit inward normal from the chord, anchored at the origin: walk
        # 0.32 from the origin against it, past the chord at 0.309
        e = c.endpoint_b - c.endpoint_a
        normal = 1j * e / abs(e) * c.inward_sign
        z = -0.32 * normal
        assert contains(region, z) == OUTSIDE, z
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, True, f"pentagon fidelity ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def equivalence_spectra():
    rng = np.random.default_rng(20240601)
    out = []
    for i in range(50):
        n = int(rng.integers(5, 10))
        k = int(rng.integers(2, 4))
        phases = np.sort(rng.uniform(0, 2 * np.pi, n))
        out.append((ingest_spectrum(phases), k, rng.integers(1 << 31)))
    return out


def test_criterion_2_definition_equivalence(equivalence_spectra):
    t0 = time.perf_counter()
    checked = 0
    for es, k, pseed in equivalence_spectra:
        region = build_region(es, k)
        oracle = BruteForceOracle(es, k)
        prng = np.random.default_rng(pseed)
        pts = prng.uniform(-1, 1, (400, 2))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 1.0][:200]
        for x, y in pts:
            z = complex(x, y)
            if abs(region_margin(region, z)) <= 1e-7:
                continue
            verdict = contains(region, z)
            assert verdict == oracle.verdict(z), (es.phases, k, z)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, True, f"chords == oracle on {checked} points ({elapsed:.1f}s)")


def test_criterion_3_witness_three_k_minus_1():
    t0 = time.perf_counter()
    counters = run_family(lambda k: 3 * k - 1, (2, 3, 4, 5, 6), seed=31)
    assert counters.get("vertex1", 0) > 0, counters
    assert counters.get("reflected", 0) > 0, counters
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, True, f"250 instances, branches {counters} ({elapsed:.1f}s)")


def test_criterion_4_witness_three_k_minus_2():
    t0 = time.perf_counter()
    counters = run_family(lambda k: 3 * k - 2, (5, 6, 7, 8), seed=41)
    assert counters.get("case1", 0) > 0, counters
    assert counters.get("case2", 0) > 0, counters
    # corrected case-2 loop indices: integer exact cover for all k up to 20
    for k in range(5, 21):
        for case in (1, 2):
            tris, (s1, s2) = three_k_minus_2_patterns(k, case)
            counts = {}
            for t in tris:
                for j in t:
                    counts[j] = counts.get(j, 0) + 1
            for j in range(1, 3 * k - 1):
                want = 2 if j in (s1, s2) else 1
                assert counts.get(j, 0) == want, (k, case, j)
            for t in tris:
                assert validate_triangle(triangle(*t, dim=3 * k - 2), k)
    elapsed = time.perf_counter() - t0
    report(4, True, f"200 instances, branches {counters}, covers to k=20 "
                    f"({elapsed:.1f}s)")


def test_criterion_5_witness_three_k():
    t0 = time.perf_counter()
    counters = {}
    for k in (1, 2, 3, 4, 5, 6):
        n = 3 * k
        for es, lam in seeded_instances(51 + k, n, 50, k=k):
            pl = plan(es, k, lam)
            assert pl.dimension_case == "three_k"
            assert pl.pairings == ()
            proj = construct_projector(es, k, lam)
            rep = verify_projector(proj.matrix, es.matrix, lam, k)
            assert rep.passed, (n, k, rep.residuals)
            for key, thr in THRESHOLDS.items():
                assert rep.residuals[key] <= thr, (n, k, key)
            counters[k] = counters.get(k, 0) + 1
    elapsed = time.perf_counter() - t0
    report(5, True, f"{sum(counters.values())} disjoint-plan instances "
                    f"({elapsed:.1f}s)")


def _pair_problem_stream(rng, count):
    """Deterministic stream of feasible shared-vertex problems, p1 <= 1/2."""
    produced = 0
    while produced < count:
        m = 4096
        phases = np.sort(rng.uniform(0, 2 * np.pi, (m, 5)), axis=1)
        zs = rng.uniform(-0.95, 0.95, (m, 2))
        mus = np.exp(1j * phases)
        z = zs[:, 0] + 1j * zs[:, 1]
        w1 = _bary_rows(mus[:, [0, 2, 4]], z)
        w2 = _bary_rows(mus[:, [0, 1, 3]], z)
        ok = ~np.isnan(w1).any(axis=1) & ~np.isnan(w2).any(axis=1)
        ok &= w1[:, 0] <= 0.5
        for i in np.nonzero(ok)[0]:
            es = ingest_spectrum(phases[i])
            prob = SharedVertexProblem(
                1, float(w1[i, 0]), float(w2[i, 0]),
                {3: float(w1[i, 1]), 5: float(w1[i, 2])},
                {2: float(w2[i, 1]), 4: float(w2[i, 2])}, complex(z[i]))
            yield es, prob
            produced += 1
            if produced >= count:
                return


def _bary_rows(pts, z):
    """Row-wise barycentric weights: pts (m,3) complex, z (m,) complex."""
    xa, ya = pts[:, 0].real, pts[:, 0].imag
    xb, yb = pts[:, 1].real, pts[:, 1].imag
    xc, yc = pts[:, 2].real, pts[:, 2].imag
    X, Y = z.real, z.imag
    det = (xb * yc - xc * yb) - (xa * yc - xc * ya) + (xa * yb - xb * ya)
    da = (xb * yc - xc * yb) - (X * yc - xc * Y) + (X * yb - xb * Y)
    db = (X * yc - xc * Y) - (xa * yc - xc * ya) + (xa * Y - X * ya)
    dc = (xb * Y - X * yb) - (xa * Y - X * ya) + (xa * yb - xb * ya)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.stack([da, db, dc], axis=1) / det[:, None]
    w[np.abs(det) < 1e-12] = np.nan
    w[(w < 1e-9).any(axis=1)] = np.nan
    return w


def test_criterion_6_pair_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)
    worst_gram = worst_eq9 = worst_eq = worst_b = 0.0
    for es, prob in _pair_problem_stream(rng, 10_000):
        phi1, phi2 = solve_pair(prob, es)
        v1, v2 = phi1.dense(5), phi2.dense(5)
        gram = np.array([[np.vdot(v1, v1) - 1, np.vdot(v1, v2)],
                         [np.vdot(v2, v1), np.vdot(v2, v2) - 1]])
        worst_gram = max(worst_gram, np.abs(gram).max())
        worst_eq9 = max(worst_eq9, phi1.compression_residual,
                        phi2.compression_residual)
        params = gauge_parameters(prob.p1, prob.q1)
        e1, e2, e3 = params.equation_residuals(prob.p1, prob.q1)
        worst_eq = max(worst_eq, e1, e2, e3)
        worst_b = max(worst_b, abs(params.B))
    assert worst_gram <= 1e-10
    assert worst_eq9 <= 1e-10
    assert worst_eq <= 1e-10
    assert worst_b <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, True, f"1e4 pairs: gram {worst_gram:.1e}, eq9 {worst_eq9:.1e}, "
                    f"eqs {worst_eq:.1e}, B {worst_b:.1e} ({elapsed:.1f}s)")


def test_criterion_7_rank1_values_inside():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        es = ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, n)))
        region = build_region(es, 1)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        val = complex(v.conj() @ np.diag(es.eigenvalues()) @ v)
        assert contains(region, val, tol=1e-9) in (INSIDE, BOUNDARY), val
    report(7, True, "1e3 rank-1 values never strictly outside")


def test_criterion_8_monotonicity(equivalence_spectra):
    checked = 0
    for es, k, pseed in equivalence_spectra:
        if k + 1 > es.dim:
            continue
        lower = build_region(es, k)
        upper = build_region(es, k + 1)
        prng = np.random.default_rng(pseed)
        pts = prng.uniform(-1, 1, (200, 2))
        for x, y in pts:
            z = complex(x, y)
            if abs(z) > 1:
                continue
            if contains(upper, z) == INSIDE:
                assert contains(lower, z) in (INSIDE, BOUNDARY), (z, k)
                checked += 1
    report(8, True, f"monotonicity on {checked} nested memberships")


def test_criterion_9_unsupported_dimension_guard(tmp_path, capsys):
    import json
    for n, k in ((7, 3), (10, 4)):
        path = tmp_path / f"spec{n}.json"
        path.write_text(json.dumps(
            {"phases": np.linspace(0.1, 6.0, n).tolist()}))
        out = tmp_path / f"proj{n}.json"
        code = run(["project", str(path), "--k", str(k), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, (n, k, code)
        assert "UnsupportedDimension" in err
        assert not out.exists()
    with pytest.raises(UnsupportedDimension):
        es = ingest_spectrum(np.linspace(0.1, 6.0, 7))
        lam = interior_point(build_region(es, 3))
        construct_projector(es, 3, lam)
    report(9, True, "(7,3) and (10,4) rejected with exit 2, no artifacts")
