"""Eigensystem ingestion and cyclic index bookkeeping for unitary matrices.

The whole pipeline works with a validated :class:`EigenSystem`: unit-circle
eigenphases sorted ascending in [0, 2pi), an orthonormal eigenvector basis,
and 1-based indices taken cyclically (index N+1 is index 1). A raw
spectrum is a diagonal sigma: its basis is the standard one and is not
stored, so it costs O(N).

A unitary matrix is diagonalized through its Hermitian part. sigma is
normal, so H = (R + R^H) / 2 with R = e^{-i alpha} sigma and alpha =
HERMITIAN_ROTATION shares its eigenvectors, and H's eigenvalue for the
eigenvalue e^{i phi} of sigma is cos(phi - alpha). One Hermitian
``eigh`` of H gives an orthonormal basis V, and the eigenvalues of sigma
are the Rayleigh quotients diag(V^H sigma V). The map phi -> cos(phi -
alpha) is 2-to-1 and flat at phi = alpha and alpha + pi, so distinct
eigenvalues of sigma can share an eigenvalue of H. Eigenvalues of H
closer than CLUSTER_GAP are therefore grouped, and the columns of each
group of m are rotated by the complex Schur factor of their m x m
compression V_g^H sigma V_g. Between columns whose H-eigenvalues are at
least delta apart, eigh's mixing adds at most ~2 eps ||H|| / delta to
the eigenresidual: ~4e-11 for delta = CLUSTER_GAP, well under
DEFAULT_TOL. A cluster's Schur costs O(m^3), so when one cluster holds
more than half the spectrum and is not one eigenvalue of sigma (its
columns are not yet eigenvectors), the ``eigh`` is taken once more at
alpha = SPLIT_ROTATION, where eigenvalues paired about HERMITIAN_ROTATION
no longer share an eigenvalue of H.

Each N x N step is taken once, in the layout its BLAS or LAPACK call
reads. The unitarity residual comes from one ``zherk`` on the Fortran
view A^T (``unitarity_residual``), half the flops of A^H A. H is formed
in Fortran order, so ``eigh`` factors it in place. The first ``eigh``
uses divide and conquer ("evd") below EVR_FROM_N and MRRR ("evr") from
it up; the retry at SPLIT_ROTATION always uses "evd". Best of runs of
one ``eigh`` of H, in ms, one BLAS thread, 2-vCPU x86-64 VM:

    N      28     44     58    100    150    200    250    275    300    600
    evr  0.118  0.297  0.578   2.09   5.22   9.81   16.0   21.0   24.7    153
    evd  0.096  0.245  0.458   1.71   4.45   9.17   16.0   20.7   25.8    245

From EVR_FROM_N up, H is bit for bit the matrix that the general product
(R_0 + R_0^H) / 2 gives, so the phases and basis are those of that
matrix's "evr" solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.blas

from .errors import (EigensolveFailed, EmptySpectrum, MathRejection,
                     NotUnitary, ParseError, ShapeMismatch, checked_tol)

TWO_PI = 2.0 * np.pi

#: default tolerance for unitarity and eigenresidual checks
DEFAULT_TOL = 1e-9
#: sigma is rotated by e^{-i HERMITIAN_ROTATION} before its Hermitian part is
#: taken; not 0, so that the conjugate pairs e^{+-i phi} of a real orthogonal
#: input do not all share an eigenvalue of H
HERMITIAN_ROTATION = 1.0
#: the rotation of the one retry, when a cluster holds more than half the
#: spectrum: e^{i(1 + phi)} and e^{i(1 - phi)} give cos(phi - 1) and
#: cos(phi + 1), which differ by 2 sin(phi) sin(1), nonzero unless the two
#: are one eigenvalue
SPLIT_ROTATION = 2.0
#: eigenvalues of H closer than this are one cluster, rotated by a Schur of
#: its compression (see the module docstring for the error bound)
CLUSTER_GAP = 1e-5
#: the first eigh of a matrix uses MRRR ("evr") from this N up and divide
#: and conquer ("evd") below it: the two cross between N = 275 and 300
#: (the module docstring's table)
EVR_FROM_N = 280


def canonical_phase(z) -> np.ndarray:
    """Principal argument mapped into [0, 2pi)."""
    a = np.angle(z) % TWO_PI
    # -eps % 2pi can round to 2pi exactly; fold it back
    return np.where(a >= TWO_PI, 0.0, a)


class EigenSystem:
    """Sorted unit-circle spectrum with an orthonormal eigenbasis.

    ``phases[j-1]`` and ``basis[:, j-1]`` belong to eigenvalue j (1-based).
    ``matrix`` keeps the ingested operator so verification can run against
    the caller's own data rather than a reconstruction.

    ``basis=None`` marks the standard basis of a diagonal sigma, as
    ``ingest_spectrum`` gives: ``standard_basis`` is then True and the
    system holds no N x N array. ``basis`` and ``matrix`` still read as
    ``np.eye(N)`` and ``np.diag(exp(1j * phases))``, each built on its
    first read and kept; the construction never reads them.
    """

    def __init__(self, dim: int, phases: np.ndarray, basis: np.ndarray,
                 unitarity_residual: float, eigen_residual: float,
                 matrix: np.ndarray = None):
        self.dim = dim
        self.phases = phases
        self.unitarity_residual = unitarity_residual
        self.eigen_residual = eigen_residual
        self.standard_basis = basis is None
        if basis is not None:
            self.basis = basis
            self.matrix = matrix

    @functools.cached_property
    def basis(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return np.diag(self.mu)

    def eigenvalue(self, j: int) -> complex:
        """Eigenvalue at raw cyclic index j (1-based, wrap allowed)."""
        return complex(self.mu[(j - 1) % self.dim])

    @functools.cached_property
    def mu(self) -> np.ndarray:
        return _read_only(np.exp(1j * self.phases))

    @functools.cached_property
    def two_turns(self) -> tuple:
        """Phases and eigenvalues over two turns, read-only (2N,): entry
        N + j is phase j + 2pi and exp(1j * (phase j + 2pi)), which can
        differ from ``mu[j]`` in the last bits."""
        ph = np.concatenate([self.phases, self.phases + TWO_PI])
        return _read_only(ph), _read_only(
            np.concatenate([self.mu, np.exp(1j * ph[self.dim:])]))

    def eigenvalues(self) -> np.ndarray:
        return self.mu.copy()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _numbers(values, dtype, what: str) -> np.ndarray:
    """``values`` as an array of ``dtype`` (float or complex); ParseError
    when an entry is not a number (a real one for float), ShapeMismatch
    when rows differ in length."""
    try:
        a = np.asarray(values)
    except ValueError:
        raise ShapeMismatch(f"{what} rows differ in length") from None
    if a.dtype.kind == "O":
        try:
            a = a.astype(dtype)
        except (TypeError, ValueError):
            pass
    if a.dtype.kind not in ("iuf" if dtype is float else "iufc"):
        raise ParseError(f"{what} must hold "
                         f"{'real ' if dtype is float else ''}numbers")
    return a.astype(dtype, copy=False)


def unitarity_residual(A: np.ndarray) -> float:
    """||A^H A - I||_F of the square complex A.

    One ``zherk`` on the Fortran view A^T fills the upper triangle of
    C = conj(A^H A), half the flops of the general product, and leaves
    the lower one 0. The norm is then sqrt(sum (c_ii - 1)^2 + 2 sum_{i<j}
    |c_ij|^2), the diagonal read and zeroed first: subtracting sum
    |c_ii|^2 (about N) from the total would lose the residual (about
    1e-14) to rounding."""
    C = scipy.linalg.blas.zherk(1.0, A.T)
    d = C.diagonal().real - 1.0
    dev = float(d @ d)
    np.fill_diagonal(C, 0.0)
    # C^T is C-contiguous, so vdot reads it in place
    return float(np.sqrt(dev + 2.0 * np.vdot(C.T, C.T).real))


def _rotated_eigh(A: np.ndarray, alpha: float, driver: str):
    """An orthonormal eigenbasis V of H = R + R^H, R = (e^{-i alpha} / 2)
    A, from the LAPACK ``driver``; A V; the Rayleigh quotients
    diag(V^H A V); and the cluster cuts: 0, N and each position where
    consecutive eigenvalues of H are CLUSTER_GAP or more apart.

    Halving is exact, so H is bit for bit (R_0 + R_0^H) / 2, R_0 = e^{-i
    alpha} A. It is formed as the transpose of conj(R) plus R, in
    Fortran order, which is LAPACK's own layout: ``eigh`` factors it in
    place with no transposing copy."""
    R = A * (0.5 * np.exp(-1j * alpha))
    H = np.conjugate(R).T
    H += R
    del R
    h, V = scipy.linalg.eigh(H, overwrite_a=True, check_finite=False,
                             driver=driver)
    del H
    AV = A @ V
    evals = np.einsum("ij,ij->j", V.conj(), AV)
    cuts = np.r_[0, np.flatnonzero(np.diff(h) >= CLUSTER_GAP) + 1, A.shape[0]]
    return V, AV, evals, cuts


def _hermitian_eigensystem(A: np.ndarray):
    """Eigenvalues, an orthonormal eigenbasis V and the product A V of the
    unitary A, from one ``eigh`` of its rotated Hermitian part and a
    complex Schur of each cluster's compression; the columns of A V of the
    rotated clusters are formed again in one product after their Schurs.
    When the largest cluster holds more than half the columns and is not
    one eigenvalue of A (a column of it has residual ||A v - q v|| of
    CLUSTER_GAP or more, q its Rayleigh quotient), the ``eigh`` is taken
    once more at SPLIT_ROTATION. Raises LinAlgError when LAPACK fails."""
    n = A.shape[0]
    V, AV, evals, cuts = _rotated_eigh(
        A, HERMITIAN_ROTATION, "evr" if n >= EVR_FROM_N else "evd")
    sizes = np.diff(cuts)
    g = int(sizes.argmax())
    lo, hi = int(cuts[g]), int(cuts[g + 1])
    if 2 * sizes[g] > n and np.abs(
            AV[:, lo:hi] - V[:, lo:hi] * evals[lo:hi]).max() >= CLUSTER_GAP:
        # the rotated spectrum still has multiplicities of up to n/2, on
        # which divide and conquer is the faster driver at every N: 267
        # against 521 ms for MRRR at N = 600, two eigenvalues
        del V, AV
        V, AV, evals, cuts = _rotated_eigh(A, SPLIT_ROTATION, "evd")
    # only a group of two or more needs its Schur; singletons are skipped
    # without a Python step each
    groups = [slice(int(cuts[g]), int(cuts[g + 1]))
              for g in np.flatnonzero(np.diff(cuts) > 1).tolist()]
    for cols in groups:
        T, Z = scipy.linalg.schur(V[:, cols].conj().T @ AV[:, cols],
                                  output="complex", check_finite=False)
        V[:, cols] = V[:, cols] @ Z
        evals[cols] = np.diag(T)
    if groups:
        cols = np.r_[tuple(groups)]
        AV[:, cols] = A @ V[:, cols]
    return evals, V, AV


def ingest_matrix(matrix, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Validate a unitary matrix and produce its sorted eigensystem.

    The unitarity residual ||A^H A - I||_F comes from one ``zherk`` Gram
    on the Fortran view A^T (``unitarity_residual``). The eigensystem
    comes from the Hermitian part of e^{-i alpha} sigma, formed in Fortran
    order (see the module docstring): one N x N ``eigh``, by "evd" below
    EVR_FROM_N and "evr" from it up (a second, by "evd", at SPLIT_ROTATION
    when a cluster of more than N/2 is not one eigenvalue), the Rayleigh
    quotients diag(V^H sigma V) as eigenvalues, and a complex Schur of the
    m x m compression of each cluster of H-eigenvalues closer than
    CLUSTER_GAP, which makes the basis orthonormal even across degenerate
    eigenvalues.
    The error this leaves is ~2 eps ||H|| / CLUSTER_GAP in the
    eigenresidual. The residual check subtracts in place from the product
    A V formed for the Rayleigh quotients, so no further N x N product is
    made for it. A diagonal input (as many nonzero entries as nonzero
    diagonal ones) keeps the standard basis vectors, sorted with its
    phases. Raises ParseError when an entry is not a number or tol is
    negative, not finite or not a number, ShapeMismatch when rows differ
    in length or the matrix is not square, NotUnitary when an entry is not
    finite or ||A^H A - I||_F > tol, and EigensolveFailed when LAPACK
    fails or the per-column residual contract ||A v - e^{i theta} v|| <=
    tol is not met.
    """
    tol = checked_tol(tol)
    A = _numbers(matrix, complex, "matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n < 1:
        raise EmptySpectrum("matrix must be at least 1x1")
    if not np.isfinite(A).all():
        # NaN would slip through the gate below: nan > tol is False
        raise NotUnitary("matrix has non-finite entries")
    unit_res = unitarity_residual(A)
    if unit_res > tol:
        raise NotUnitary(
            f"||A^H A - I||_F = {unit_res:.3e} exceeds tolerance {tol:.1e}")

    if np.count_nonzero(A) == np.count_nonzero(A.diagonal()):
        # diagonal fast path: the standard basis is an exact eigenbasis,
        # and A e_j - e^{i theta_j} e_j is 0 but in its entry j
        evals = A.diagonal()
        phases = canonical_phase(evals)
        basis = np.eye(n, dtype=complex)
        eig_res = float(np.abs(evals - np.exp(1j * phases)).max())
    else:
        try:
            evals, basis, AV = _hermitian_eigensystem(A)
        except scipy.linalg.LinAlgError as exc:
            raise EigensolveFailed(str(exc)) from exc
        phases = canonical_phase(evals)
        # in place on A V; its largest entry does not depend on the column
        # order
        AV -= basis * np.exp(1j * phases)
        eig_res = float(np.abs(AV).max())
        del AV
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    basis = basis[:, order]
    if eig_res > tol:
        raise EigensolveFailed(
            f"eigenresidual {eig_res:.3e} exceeds tolerance {tol:.1e}")
    return EigenSystem(dim=n, phases=phases, basis=basis,
                       unitarity_residual=unit_res, eigen_residual=eig_res,
                       matrix=A)


def ingest_spectrum(phases) -> EigenSystem:
    """Build the eigensystem of the diagonal unitary implied by raw phases.

    It keeps only the sorted phases, in O(N) memory: its basis is the
    standard one (``EigenSystem.standard_basis``), and ``basis`` and
    ``matrix`` are built only when first read. Raises ParseError when a
    phase is not a real number, ShapeMismatch when rows differ in length,
    and EmptySpectrum when there is no phase or one is not finite."""
    raw = _numbers(phases, float, "phases").ravel()
    if raw.size == 0:
        raise EmptySpectrum("spectrum must contain at least one phase")
    if not np.isfinite(raw).all():
        raise EmptySpectrum("phases must be finite")
    reduced = np.sort(canonical_phase(np.exp(1j * (raw % TWO_PI))))
    return EigenSystem(dim=reduced.size, phases=reduced, basis=None,
                       unitarity_residual=0.0, eigen_residual=0.0)


@dataclass(frozen=True)
class ReflectionMap:
    """Orientation-reversing relabeling r(j) = ((pivot - j) mod N) + 1.

    Sends the pivot index to 1, is an involution on canonical indices, and
    preserves the multiset of cyclic gaps of any index tuple while reversing
    cyclic orientation.
    """
    pivot: int
    dim: int

    def __call__(self, j: int) -> int:
        return (self.pivot - j) % self.dim + 1

    def indices(self, idx):
        return tuple(self(j) for j in idx)


def reflect_labels(es: EigenSystem, pivot: int) -> ReflectionMap:
    if not 1 <= pivot <= es.dim:
        raise MathRejection(f"pivot {pivot} out of range 1..{es.dim}")
    return ReflectionMap(pivot=pivot, dim=es.dim)
