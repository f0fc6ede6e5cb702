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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (EigensolveFailed, EmptySpectrum, MathRejection,
                     NotUnitary, ShapeMismatch, checked_tol)

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


def _rotated_eigh(A: np.ndarray, alpha: float, driver: str):
    """An orthonormal eigenbasis V of H = (R + R^H) / 2, R = e^{-i alpha}
    A, from the LAPACK ``driver``; A V; the Rayleigh quotients
    diag(V^H A V); and the cluster cuts: 0, N and each position where
    consecutive eigenvalues of H are CLUSTER_GAP or more apart."""
    R = A * np.exp(-1j * alpha)
    h, V = scipy.linalg.eigh(0.5 * (R + R.conj().T), overwrite_a=True,
                             check_finite=False, driver=driver)
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
    V, AV, evals, cuts = _rotated_eigh(A, HERMITIAN_ROTATION, "evr")
    sizes = np.diff(cuts)
    g = int(sizes.argmax())
    lo, hi = int(cuts[g]), int(cuts[g + 1])
    if 2 * sizes[g] > n and np.abs(
            AV[:, lo:hi] - V[:, lo:hi] * evals[lo:hi]).max() >= CLUSTER_GAP:
        # the rotated spectrum still has multiplicities of up to n/2, on
        # which divide and conquer is the faster driver: 267 against 521 ms
        # for MRRR ("evr", scipy's default) at N = 600, two eigenvalues
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

    The eigensystem comes from the Hermitian part of e^{-i alpha} sigma (see
    the module docstring): one N x N ``eigh`` (a second at SPLIT_ROTATION
    when a cluster of more than N/2 is not one eigenvalue), the Rayleigh
    quotients diag(V^H sigma V) as eigenvalues, and a complex Schur of the
    m x m compression of each cluster of H-eigenvalues closer than
    CLUSTER_GAP, which makes the basis orthonormal even across degenerate
    eigenvalues.
    The error this leaves is ~2 eps ||H|| / CLUSTER_GAP in the
    eigenresidual. The residual check reads the product A V formed for the
    Rayleigh quotients, so no further N x N product is made for it. A
    diagonal input keeps the standard basis vectors, sorted with its
    phases. Raises
    ParseError when tol is negative or not finite, NotUnitary when an
    entry is not finite or ||A^H A - I||_F > tol, and EigensolveFailed
    when LAPACK fails or the per-column residual contract
    ||A v - e^{i theta} v|| <= tol is not met.
    """
    tol = checked_tol(tol)
    A = np.asarray(matrix, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n < 1:
        raise EmptySpectrum("matrix must be at least 1x1")
    if not np.isfinite(A).all():
        # NaN would slip through the gate below: nan > tol is False
        raise NotUnitary("matrix has non-finite entries")
    gram = A.conj().T @ A - np.eye(n)
    unit_res = float(np.linalg.norm(gram))
    if unit_res > tol:
        raise NotUnitary(
            f"||A^H A - I||_F = {unit_res:.3e} exceeds tolerance {tol:.1e}")

    offdiag = A - np.diag(np.diag(A))
    if not offdiag.any():
        # diagonal fast path: the standard basis is an exact eigenbasis
        evals = np.diag(A)
        basis, AV = np.eye(n, dtype=complex), A
    else:
        try:
            evals, basis, AV = _hermitian_eigensystem(A)
        except scipy.linalg.LinAlgError as exc:
            raise EigensolveFailed(str(exc)) from exc

    phases = canonical_phase(evals)
    # the largest entry does not depend on the column order
    eig_res = float(np.abs(AV - basis * np.exp(1j * phases)[None, :]).max())
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
    ``matrix`` are built only when first read."""
    raw = np.asarray(phases, dtype=float).ravel()
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
