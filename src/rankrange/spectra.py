"""Eigensystem ingestion and cyclic index bookkeeping for unitary matrices.

The whole pipeline works with a validated :class:`EigenSystem`: unit-circle
eigenphases sorted ascending in [0, 2pi), an orthonormal eigenvector basis,
and 1-based indices taken cyclically (index N+1 is index 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (EigensolveFailed, EmptySpectrum, MathRejection,
                     NotUnitary, ShapeMismatch)

TWO_PI = 2.0 * np.pi

#: default tolerance for unitarity and eigenresidual checks; double precision
#: leaves ample headroom at the dimensions we target (N <= ~64)
DEFAULT_TOL = 1e-9


def canonical_phase(z) -> np.ndarray:
    """Principal argument mapped into [0, 2pi)."""
    a = np.angle(z) % TWO_PI
    # -eps % 2pi can round to 2pi exactly; fold it back
    return np.where(a >= TWO_PI, 0.0, a)


@dataclass(frozen=True)
class EigenSystem:
    """Sorted unit-circle spectrum with an orthonormal eigenbasis.

    ``phases[j-1]`` and ``basis[:, j-1]`` belong to eigenvalue j (1-based).
    ``matrix`` keeps the ingested operator so verification can run against
    the caller's own data rather than a reconstruction.
    """
    dim: int
    phases: np.ndarray
    basis: np.ndarray
    unitarity_residual: float
    eigen_residual: float
    matrix: np.ndarray = field(repr=False, default=None)

    def eigenvalue(self, j: int) -> complex:
        """Eigenvalue at raw cyclic index j (1-based, wrap allowed)."""
        canonical = (j - 1) % self.dim
        return complex(np.exp(1j * self.phases[canonical]))

    def eigenvalues(self) -> np.ndarray:
        return np.exp(1j * self.phases)


def ingest_matrix(matrix, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Validate a unitary matrix and produce its sorted eigensystem.

    Uses a complex Schur decomposition: for a unitary (normal) input the
    Schur factor is diagonal to machine precision and the Schur basis is
    orthonormal even across degenerate eigenvalues. Raises NotUnitary when
    an entry is not finite or ||A^H A - I||_F > tol, and EigensolveFailed
    if the per-column residual contract ||A v - e^{i theta} v|| <= tol
    cannot be met.
    """
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
        basis = np.eye(n, dtype=complex)
    else:
        try:
            T, Z = scipy.linalg.schur(A, output="complex")
        except Exception as exc:  # pragma: no cover - LAPACK failure
            raise EigensolveFailed(str(exc)) from exc
        evals = np.diag(T)
        basis = Z

    phases = canonical_phase(evals)
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    basis = basis[:, order]

    eig_res = float(
        np.abs(A @ basis - basis * np.exp(1j * phases)[None, :]).max())
    if eig_res > tol:
        raise EigensolveFailed(
            f"eigenresidual {eig_res:.3e} exceeds tolerance {tol:.1e}")
    return EigenSystem(dim=n, phases=phases, basis=basis,
                       unitarity_residual=unit_res, eigen_residual=eig_res,
                       matrix=A)


def ingest_spectrum(phases) -> EigenSystem:
    """Build the eigensystem of the diagonal unitary implied by raw phases."""
    raw = np.asarray(phases, dtype=float).ravel()
    if raw.size == 0:
        raise EmptySpectrum("spectrum must contain at least one phase")
    if not np.isfinite(raw).all():
        raise EmptySpectrum("phases must be finite")
    reduced = np.sort(canonical_phase(np.exp(1j * (raw % TWO_PI))))
    n = reduced.size
    matrix = np.diag(np.exp(1j * reduced))
    return EigenSystem(dim=n, phases=reduced,
                       basis=np.eye(n, dtype=complex),
                       unitarity_residual=0.0, eigen_residual=0.0,
                       matrix=matrix)


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
