"""
Constructing a compression projector
====================================

For dimensions N in {3k-2 (k >= 5), 3k-1, 3k} the package builds, for any
strict interior target lambda of the rank-k region, an explicit rank-k
orthogonal projector P with P sigma P = lambda P. The paper's template
covers the spectrum with k triangles, one or two pairs of them sharing a
vertex. The witness is built on its own supports: vectors on disjoint
triangles are square roots of barycentric weights, and each 5-index pair
block carries two jointly solved vectors, so the compression is scalar on
the whole span. Its blocks need not be the template's. It exits 1 if the
verification fails or the projector's rank is not 5.
"""

import sys

import numpy as np

from rankrange import (build_region, construct_projector, ingest_matrix,
                       interior_point, plan, verify_projector)

rng = np.random.default_rng(7)

# a random 13-dimensional unitary with a known spectrum (k = 5 family)
phases = np.sort(rng.uniform(0, 2 * np.pi, 13))
q, r = np.linalg.qr(rng.standard_normal((13, 13))
                    + 1j * rng.standard_normal((13, 13)))
q = q * (np.diag(r) / np.abs(np.diag(r)))
sigma = q @ np.diag(np.exp(1j * phases)) @ q.conj().T

es = ingest_matrix(sigma)
region = build_region(es, k=5)
lam = interior_point(region)
print(f"target lambda = {lam:.4f}")

pl = plan(es, 5, lam)
print(f"paper's template: {pl.dimension_case} (branch {pl.branch})")
print("  triangles:", [t.indices for t in pl.triangles])
print("  pairings:", [(p.first, p.second, p.shared) for p in pl.pairings])

proj = construct_projector(es, 5, lam)
print(f"witness: strategy {proj.strategy}, frame {proj.frame.shape}")
# each piece stack holds 0-based rows: 5-index pair blocks, then triangles
for rows, coef in proj.pieces:
    kind = "pair blocks" if coef.shape[2] == 2 else "triangles"
    print(f"  {kind}:", list(map(tuple, (rows + 1).tolist())))

# the result is the 13 x 5 frame W; P = W W^H is formed on demand
P = proj.matrix
report = verify_projector(P, sigma, lam, 5)
for name, value in sorted(report.residuals.items()):
    print(f"  {name:12s} {value:.2e}")
print("verification:", "pass" if report.passed else "FAIL")

# the compression really is scalar: P sigma P restricted to range(P)
evals = np.linalg.eigvalsh(P.conj().T @ P)
rank = int(np.sum(evals > 0.5))
print(f"rank check: {rank} (should be 5)")
sys.exit(0 if report.passed and rank == 5 else 1)
