"""
Two flavors of shared-vertex pairs
==================================

Two triangles that share one vertex support two orthonormal vectors whose
weighted eigenvalue sums both hit the target. The closed-form gauge pair
(solve_pair) delivers exactly that: unit norm, plain orthogonality, and
the per-vector compression condition.

A projector needs more: the compression of sigma must vanish BETWEEN the
two vectors as well (conj(v1)^T (sigma - lambda) v2 = 0 and its mirror).
The gauge pair does not satisfy those cross conditions, which is why the
pipeline solves its pairing blocks with the moment-based isotropic_pair
instead. This demo shows both side by side, and exits 1 if the
isotropic pair's residual is above the block solver's gate.
"""

import sys

import numpy as np

from rankrange import (SharedVertexProblem, ingest_spectrum, isotropic_pair,
                       pair_isotropy_residual, solve_barycentric, solve_pair)
from rankrange.blocks import BLOCK_RESIDUAL_GATE

es = ingest_spectrum([0.0, 1.1, 2.4, 3.9, 5.2])
lam = 0.12 + 0.08j

# the triangles (1, 3, 5) and (1, 2, 4) share vertex 1; one call solves both
(p1, p3, p5), (q1, q2, q4) = solve_barycentric(
    es, [[1, 3, 5], [1, 2, 4]], lam).tolist()
prob = SharedVertexProblem(1, p1, q1, {3: p3, 5: p5}, {2: q2, 4: q4}, lam)

sigma = np.diag(es.eigenvalues())


def compression(v1, v2):
    V = np.stack([v1, v2], axis=1)
    return V.conj().T @ (sigma - lam * np.eye(5)) @ V


# --- the closed-form gauge pair
phi1, phi2 = solve_pair(prob, es)
v1, v2 = phi1.dense(5), phi2.dense(5)
print("gauge pair:")
print(f"  norms           {np.vdot(v1, v1).real:.12f} {np.vdot(v2, v2).real:.12f}")
print(f"  <v1, v2>        {abs(np.vdot(v1, v2)):.2e}")
C = compression(v1, v2)
print(f"  diag residuals  {abs(C[0, 0]):.2e} {abs(C[1, 1]):.2e}")
print(f"  cross residuals {abs(C[0, 1]):.2e} {abs(C[1, 0]):.2e}   <- not zero")

# --- the jointly solved pair used by the projector pipeline
V = isotropic_pair(es.eigenvalues() - lam)
C2 = V.conj().T @ (sigma - lam * np.eye(5)) @ V
print("isotropic pair:")
print(f"  gram deviation  {np.abs(V.conj().T @ V - np.eye(2)).max():.2e}")
print(f"  full residuals  {np.abs(C2).max():.2e}   <- scalar compression")
residual = pair_isotropy_residual(V, es.eigenvalues() - lam)
print(f"  residual        {residual:.2e}   (gate {BLOCK_RESIDUAL_GATE:.0e})")
sys.exit(0 if residual <= BLOCK_RESIDUAL_GATE else 1)
