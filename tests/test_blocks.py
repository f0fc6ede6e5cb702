import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankrange import (NoSolution, blocks, build_region, ingest_spectrum,
                       interior_point, isotropic_pair,
                       pair_isotropy_residual, subspectrum_margin)


def feasible_instance(rng):
    while True:
        phases = np.sort(rng.uniform(0, 2 * np.pi, 5))
        es = ingest_spectrum(phases)
        lam = interior_point(build_region(es, 2))
        if lam is None:
            continue
        if subspectrum_margin(phases, 2, lam) < 1e-4:
            continue
        return es, lam


def test_random_blocks_full_isotropy():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(250):
        es, lam = feasible_instance(rng)
        d = es.eigenvalues() - lam
        V = isotropic_pair(d)
        worst = max(worst, pair_isotropy_residual(V, d))
    assert worst <= 1e-10


def test_block_deterministic():
    rng = np.random.default_rng(1)
    es, lam = feasible_instance(rng)
    d = es.eigenvalues() - lam
    V1 = isotropic_pair(d)
    V2 = isotropic_pair(d)
    assert np.array_equal(V1, V2)


def test_block_rejects_eigenvalue_target():
    es = ingest_spectrum([0.0, 1.0, 2.0, 3.5, 5.0])
    d = es.eigenvalues() - es.eigenvalue(2)
    with pytest.raises(NoSolution):
        isotropic_pair(d)


def test_block_needs_five_points():
    with pytest.raises(NoSolution):
        isotropic_pair(np.array([1.0, -1.0, 1j, -1j]))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), clustered=st.booleans())
def test_block_property_wide(seed, clustered):
    # uneven spectra, including tight angle clusters, as long as the target
    # keeps a real margin inside the rank-2 region of the five points
    rng = np.random.default_rng(seed)
    if clustered:
        base = rng.uniform(0, 2 * np.pi, 2)
        phases = np.sort(np.concatenate([
            base[0] + rng.uniform(0, 0.2, 3),
            base[1] + rng.uniform(0, 0.2, 2)]) % (2 * np.pi))
    else:
        phases = np.sort(rng.uniform(0, 2 * np.pi, 5))
    es = ingest_spectrum(phases)
    lam = interior_point(build_region(es, 2))
    if lam is None or subspectrum_margin(phases, 2, lam) < 1e-5:
        return
    d = es.eigenvalues() - lam
    V = isotropic_pair(d)
    assert pair_isotropy_residual(V, d) <= 1e-10


def test_frame_solve_budget_counts_jacobian_columns():
    d = np.exp(2j * np.pi * np.arange(7) / 7)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((7, 2))
                        + 1j * rng.standard_normal((7, 2)))
    # without a budget the seed closes after about 65 function evaluations
    # and 28 Jacobians of 2 * 7 * 2 = 28 columns each
    V = blocks.frame_solve(d, 2, [q])
    assert V is not None and pair_isotropy_residual(V, d) <= 1e-10
    # 28 does not fit one Jacobian and its first point, so nothing runs;
    # 200 covers the function evaluations alone, and only counting the
    # Jacobian columns stops it
    for max_evals in (28, 200):
        with pytest.raises(NoSolution):
            blocks.frame_solve(d, 2, [q], max_evals)
