import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rankrange import (EigensolveFailed, EmptySpectrum, NotUnitary,
                       ParseError, canonical_phase, ingest_matrix,
                       ingest_spectrum, reflect_labels)
from rankrange.spectra import (CLUSTER_GAP, DEFAULT_TOL, EVR_FROM_N,
                               HERMITIAN_ROTATION, unitarity_residual)


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_identity_matrix():
    es = ingest_matrix(np.eye(4), tol=1e-10)
    assert es.dim == 4
    np.testing.assert_allclose(es.phases, 0.0)
    np.testing.assert_allclose(es.basis, np.eye(4))


def test_diagonal_fifth_roots():
    es = ingest_matrix(np.diag(np.exp(2j * np.pi * np.arange(5) / 5)))
    np.testing.assert_allclose(es.phases, 2 * np.pi * np.arange(5) / 5,
                               atol=1e-15)
    np.testing.assert_allclose(es.basis, np.eye(5))


def test_conjugated_fifth_roots_residual():
    rng = np.random.default_rng(0)
    q = random_unitary(rng, 5)
    u = q @ np.diag(np.exp(2j * np.pi * np.arange(5) / 5)) @ q.conj().T
    es = ingest_matrix(u, tol=1e-10)
    np.testing.assert_allclose(es.phases, 2 * np.pi * np.arange(5) / 5,
                               atol=1e-12)
    # the residual contract, verified directly
    res = np.abs(u @ es.basis - es.basis * np.exp(1j * es.phases)[None, :])
    assert res.max() <= 1e-10


def test_basis_unitary_and_residual_for_random_unitaries():
    rng = np.random.default_rng(1)
    for n in (2, 7, 16, 33):
        u = random_unitary(rng, n)
        es = ingest_matrix(u)
        gram = es.basis.conj().T @ es.basis - np.eye(n)
        assert np.linalg.norm(gram) <= 1e-10
        res = np.abs(u @ es.basis - es.basis * np.exp(1j * es.phases)[None, :])
        assert res.max() <= 1e-9


def test_degenerate_spectrum_basis_still_orthonormal():
    rng = np.random.default_rng(2)
    q = random_unitary(rng, 6)
    phases = np.array([0.3, 0.3, 0.3, 1.2, 1.2, 4.0])
    u = q @ np.diag(np.exp(1j * phases)) @ q.conj().T
    es = ingest_matrix(u)
    assert np.linalg.norm(es.basis.conj().T @ es.basis - np.eye(6)) <= 1e-10
    np.testing.assert_allclose(np.sort(es.phases), np.sort(phases), atol=1e-12)


def schur_reference(A):
    """Sorted phases from one complex Schur of the whole matrix: the
    eigensolve the Hermitian-part ingest replaced."""
    T, _ = scipy.linalg.schur(A, output="complex")
    return np.sort(canonical_phase(np.diag(T)))


def circle_distance(a, b):
    """Largest distance on the unit circle between two sorted phase lists,
    allowing one phase to sit across the cut at 0 in one list only."""
    za, zb = np.exp(1j * a), np.exp(1j * b)
    return min(np.abs(np.roll(za, s) - zb).max() for s in (-1, 0, 1))


def clustered(rng, n, clusters, width):
    centres = rng.uniform(0.0, 2 * np.pi, clusters)
    return (np.repeat(centres, n // clusters)
            + rng.uniform(0.0, width, n - n % clusters))


ALPHA = HERMITIAN_ROTATION
SPECTRA = {
    "uniform-58": lambda rng: rng.uniform(0.0, 2 * np.pi, 58),
    "uniform-300": lambda rng: rng.uniform(0.0, 2 * np.pi, 300),
    "uniform-600": lambda rng: rng.uniform(0.0, 2 * np.pi, 600),
    "clusters-1e-4": lambda rng: clustered(rng, 60, 5, 1e-4),
    "clusters-7e-6": lambda rng: clustered(rng, 60, 5, 7e-6),
    "multiplicities": lambda rng: np.repeat([0.3, 1.2, 2.5, 4.0, 5.9],
                                            [4, 1, 3, 2, 6]),
    "symmetric-about-alpha": lambda rng: ALPHA + np.r_[1, -1] * rng.uniform(
        0.0, np.pi, 20)[:, None],
    # pairs 1e-9 from symmetric share no H-eigenvalue, but eigh alone would
    # mix them by ~1e-7
    "nearly-symmetric-about-alpha": lambda rng: ALPHA + np.r_[1, -1] * (
        rng.uniform(0.0, np.pi, 20)[:, None] + np.r_[0.0, 1e-9]),
    "near-alpha": lambda rng: ALPHA + rng.uniform(-1e-3, 1e-3, 30),
    "near-alpha-plus-pi": lambda rng: ALPHA + np.pi
    + rng.uniform(-1e-3, 1e-3, 30),
    "equally-spaced": lambda rng: 2 * np.pi * np.arange(48) / 48,
    "two-point": lambda rng: np.repeat([ALPHA - 0.7, ALPHA + 0.7], 20),
}


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_ingest_matches_schur_reference(name):
    rng = np.random.default_rng(sorted(SPECTRA).index(name))
    phases = np.ravel(SPECTRA[name](rng))
    q = random_unitary(rng, phases.size)
    u = q @ np.diag(np.exp(1j * phases)) @ q.conj().T
    es = ingest_matrix(u)
    n = phases.size
    assert circle_distance(es.phases, schur_reference(u)) <= 1e-12
    res = np.abs(u @ es.basis - es.basis * np.exp(1j * es.phases)[None, :])
    assert res.max() <= 1e-10 and es.eigen_residual <= 1e-10
    assert np.linalg.norm(es.basis.conj().T @ es.basis - np.eye(n)) <= 1e-10


def _recorded_solves(monkeypatch):
    """The column count of every scipy.linalg eigh and schur call, by
    name, as ingest_matrix makes them."""
    seen = {"eigh": [], "schur": []}
    for name, calls in seen.items():
        def record(a, *args, _solve=getattr(scipy.linalg, name),
                   _calls=calls, **kwargs):
            _calls.append(a.shape[1])
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(scipy.linalg, name, record)
    return seen


def test_paired_spectrum_is_split_before_its_schur(monkeypatch):
    # e^{i(alpha +- 0.7)} share one eigenvalue of H at alpha: unrotated, one
    # Schur of all N columns; one turn to SPLIT_ROTATION parts the pairs
    n = 300
    rng = np.random.default_rng(29)
    phases = np.repeat([ALPHA - 0.7, ALPHA + 0.7], n // 2)
    q = random_unitary(rng, n)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    seen = _recorded_solves(monkeypatch)
    es = ingest_matrix(u)
    assert len(seen["eigh"]) == 2
    assert seen["schur"] and max(seen["schur"]) <= n // 2
    assert es.eigen_residual <= DEFAULT_TOL
    assert circle_distance(es.phases, np.sort(phases)) <= 1e-12


def test_one_eigenvalue_above_half_is_not_rotated(monkeypatch):
    # no rotation parts one eigenvalue: its cluster's columns are
    # eigenvectors already, so the first eigh is kept
    n = 60
    rng = np.random.default_rng(30)
    phases = np.r_[np.full(40, 2.5), rng.uniform(0.0, 2 * np.pi, n - 40)]
    q = random_unitary(rng, n)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    seen = _recorded_solves(monkeypatch)
    es = ingest_matrix(u)
    assert seen["eigh"] == [n]
    assert max(seen["schur"]) == 40
    assert es.eigen_residual <= DEFAULT_TOL
    assert circle_distance(es.phases, np.sort(phases)) <= 1e-12


def test_tight_cluster_about_alpha_takes_one_eigh(monkeypatch):
    # 600 eigenvalues within 1e-3 rad of alpha are one cluster of H, but
    # their H-eigenvalues are distinct and eigh's columns are eigenvectors
    # to about 1e-8, under CLUSTER_GAP: the first eigh is kept
    n = 600
    rng = np.random.default_rng(32)
    phases = ALPHA + rng.uniform(-1e-3, 1e-3, n)
    q = random_unitary(rng, n)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    seen = _recorded_solves(monkeypatch)
    es = ingest_matrix(u)
    assert seen["eigh"] == [n]
    assert es.eigen_residual <= DEFAULT_TOL
    assert circle_distance(es.phases, np.sort(phases)) <= 1e-12


def test_two_tight_groups_about_alpha_are_split(monkeypatch):
    # e^{i(alpha +- 1e-4)} share one eigenvalue of H at alpha, and the
    # columns mix them (residual about 1e-4); at SPLIT_ROTATION they are
    # 1.7e-4 apart in H, so the retry parts them into two Schurs of N/2
    n = 300
    rng = np.random.default_rng(33)
    phases = np.repeat([ALPHA - 1e-4, ALPHA + 1e-4], n // 2)
    q = random_unitary(rng, n)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    seen = _recorded_solves(monkeypatch)
    es = ingest_matrix(u)
    assert len(seen["eigh"]) == 2
    assert sorted(seen["schur"]) == [n // 2, n // 2]
    assert es.eigen_residual <= DEFAULT_TOL
    assert circle_distance(es.phases, np.sort(phases)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 28, 150, 600])
def test_unitarity_residual_matches_reference(n):
    # the zherk Gram's residual is the general product's to rounding: both
    # are a few ulps x N
    rng = np.random.default_rng(n)
    u = random_unitary(rng, n)
    ref = np.linalg.norm(u.conj().T @ u - np.eye(n))
    assert abs(unitarity_residual(u) - ref) <= 4 * n * np.finfo(float).eps


@pytest.mark.parametrize("n", [2, 28, 150])
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_not_unitary_fires_on_the_side_of_tol(n, scale):
    # A = q (I + e E) with E = q + q^H is normal, so its eigenvectors are
    # q's, and A^H A - I = 2 e E + O(e^2): its residual is scale * tol to a
    # relative 1e-9
    rng = np.random.default_rng([n, int(4 * scale)])
    tol = DEFAULT_TOL
    q = random_unitary(rng, n)
    E = q + q.conj().T
    u = q @ (np.eye(n) + scale * tol / (2 * np.linalg.norm(E)) * E)
    ref = np.linalg.norm(u.conj().T @ u - np.eye(n))
    assert (ref > tol) == (scale > 1)
    assert (unitarity_residual(u) > tol) == (scale > 1)
    if scale > 1:
        with pytest.raises(NotUnitary):
            ingest_matrix(u, tol=tol)
    else:
        assert ingest_matrix(u, tol=tol).unitarity_residual <= tol


def _recorded_drivers(monkeypatch):
    """(column count, driver) of every scipy.linalg eigh call."""
    seen = []

    def record(a, *args, _eigh=scipy.linalg.eigh, **kwargs):
        seen.append((a.shape[1], kwargs.get("driver")))
        return _eigh(a, *args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "eigh", record)
    return seen


@pytest.mark.parametrize("n", [28, EVR_FROM_N - 1, EVR_FROM_N])
def test_eigh_driver_is_chosen_by_size(monkeypatch, n):
    u = random_unitary(np.random.default_rng(n), n)
    seen = _recorded_drivers(monkeypatch)
    es = ingest_matrix(u)
    assert seen == [(n, "evr" if n >= EVR_FROM_N else "evd")]
    assert es.eigen_residual <= DEFAULT_TOL


@pytest.mark.parametrize("n", [EVR_FROM_N - 2, EVR_FROM_N])
def test_paired_spectrum_retry_keeps_evd(monkeypatch, n):
    rng = np.random.default_rng(n)
    phases = np.repeat([ALPHA - 0.7, ALPHA + 0.7], n // 2)
    q = random_unitary(rng, n)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    seen = _recorded_drivers(monkeypatch)
    ingest_matrix(u)
    assert seen == [(n, "evr" if n >= EVR_FROM_N else "evd"), (n, "evd")]


@pytest.mark.parametrize("n", [EVR_FROM_N, 600])
def test_evr_ingest_equals_reference_eigh(n):
    # from EVR_FROM_N up, the Fortran-ordered H is the reference's matrix
    # bit for bit, so MRRR gives the same basis and Rayleigh quotients; the
    # phases lie on one side of ALPHA, spaced so that H has no cluster and
    # no Schur rotates the columns
    rng = np.random.default_rng(n)
    phases = ALPHA + np.linspace(0.05, np.pi - 0.05, n) + rng.uniform(
        -0.2, 0.2, n) * np.pi / n
    q = random_unitary(rng, n)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    R = u * np.exp(-1j * HERMITIAN_ROTATION)
    h, V = scipy.linalg.eigh(0.5 * (R + R.conj().T), driver="evr")
    assert np.diff(h).min() >= CLUSTER_GAP
    phases = canonical_phase(np.einsum("ij,ij->j", V.conj(), u @ V))
    order = np.argsort(phases, kind="stable")
    es = ingest_matrix(u)
    assert np.array_equal(es.phases, phases[order])
    assert np.array_equal(es.basis, V[:, order])


def test_ingest_peak_memory_at_n600():
    # the Gram, H and the residual are formed without N x N temporaries
    # beside them: the peak stays under 5.5 N x N complex arrays
    n = 600
    u = random_unitary(np.random.default_rng(600), n)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ingest_matrix(u)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 5.5 * 16 * n * n


def test_ingest_real_orthogonal():
    # a real orthogonal matrix: the spectrum is symmetric about 0
    rng = np.random.default_rng(11)
    angles = rng.uniform(0.1, np.pi - 0.1, 20)
    rot = np.zeros((40, 40))
    for j, t in enumerate(angles):
        rot[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[np.cos(t), -np.sin(t)],
                                                 [np.sin(t), np.cos(t)]]
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    u = q @ rot @ q.T
    es = ingest_matrix(u)
    assert circle_distance(es.phases, schur_reference(u)) <= 1e-12
    np.testing.assert_allclose(
        es.phases, np.sort(np.r_[angles, 2 * np.pi - angles]), atol=1e-12)
    res = np.abs(u @ es.basis - es.basis * np.exp(1j * es.phases)[None, :])
    assert res.max() <= 1e-10
    assert np.linalg.norm(es.basis.conj().T @ es.basis - np.eye(40)) <= 1e-10


@pytest.mark.parametrize("solver", ["eigh", "schur"])
def test_lapack_failure_raises_eigensolve_failed(monkeypatch, solver):
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(scipy.linalg, solver, fail)
    rng = np.random.default_rng(4)
    q = random_unitary(rng, 6)
    # a double eigenvalue makes a two-column cluster, so a block Schur runs
    u = q @ np.diag(np.exp(1j * np.array([0.3, 0.3, 1.2, 2.0, 3.1, 4.0]))) \
        @ q.conj().T
    with pytest.raises(EigensolveFailed, match="did not converge"):
        ingest_matrix(u)


def test_not_unitary_rejected():
    with pytest.raises(NotUnitary):
        ingest_matrix(np.diag([1.0, 2.0]))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_bad_unitarity_tolerance_is_parse_error(tol):
    # nan > residual is False, so a NaN tolerance would pass this
    # non-unitary matrix with phases [0, 0]
    with pytest.raises(ParseError, match="tol must be a finite number"):
        ingest_matrix(np.diag([2.0, 1.0]), tol=tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_matrix_rejected(bad):
    mat = np.eye(3, dtype=complex)
    mat[1, 2] = bad
    with pytest.raises(NotUnitary, match="non-finite"):
        ingest_matrix(mat)


def test_ingest_spectrum_basic():
    es = ingest_spectrum([0.0])
    assert es.dim == 1 and es.phases[0] == 0.0


def test_ingest_spectrum_mod_reduction_and_sorting():
    es = ingest_spectrum([3 * np.pi, np.pi / 2])
    np.testing.assert_allclose(es.phases, [np.pi / 2, np.pi], atol=1e-15)


def test_ingest_spectrum_multiset():
    es = ingest_spectrum([0.0, 0.0, 0.0])
    assert es.dim == 3
    np.testing.assert_allclose(es.phases, 0.0)


def test_ingest_spectrum_empty_rejected():
    with pytest.raises(EmptySpectrum):
        ingest_spectrum([])


def test_spectrum_matrix_roundtrip_phases():
    # re-ingesting the implied diagonal reproduces the phase list; the trig
    # round trip costs at most a couple of ulp
    rng = np.random.default_rng(3)
    raw = rng.uniform(-30, 30, 9)
    es1 = ingest_spectrum(raw)
    es2 = ingest_matrix(np.diag(np.exp(1j * es1.phases)))
    np.testing.assert_array_max_ulp(es1.phases, es2.phases, maxulp=4)


def test_reflect_examples_n13():
    es = ingest_spectrum(np.linspace(0, 5.0, 13))
    r = reflect_labels(es, 4)  # pivot k-1 for k=5 maps index 4 to 1
    assert r(4) == 1
    assert r(1) == 4
    assert r(9) == 9


def test_reflect_examples_n5():
    es = ingest_spectrum(np.linspace(0, 5.0, 5))
    r = reflect_labels(es, 5)
    assert r(5) == 1 and r(4) == 2 and r(3) == 3


@given(n=st.integers(1, 40), j=st.integers(1, 40), c=st.integers(1, 40))
def test_reflect_involution(n, j, c):
    j = (j - 1) % n + 1
    c = (c - 1) % n + 1
    es = ingest_spectrum(np.linspace(0, 6.0, n))
    r = reflect_labels(es, c)
    assert r(r(j)) == j


def cyclic_gap_multiset(indices, n):
    s = sorted(indices)
    gaps = [s[i + 1] - s[i] for i in range(len(s) - 1)]
    gaps.append(n + s[0] - s[-1])
    return sorted(gaps)


@settings(max_examples=200)
@given(data=st.data())
def test_reflect_preserves_gap_multisets(data):
    n = data.draw(st.integers(4, 30))
    c = data.draw(st.integers(1, n))
    idx = data.draw(st.lists(st.integers(1, n), min_size=3, max_size=3,
                             unique=True))
    es = ingest_spectrum(np.linspace(0, 6.0, n))
    r = reflect_labels(es, c)
    mapped = [r(j) for j in idx]
    assert len(set(mapped)) == 3
    assert cyclic_gap_multiset(idx, n) == cyclic_gap_multiset(mapped, n)
