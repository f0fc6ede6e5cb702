"""
Rank-k admissible regions of a unitary spectrum
===============================================

The admissible set for rank k is cut out of the unit disk by N chords:
chord i joins eigenvalue i to eigenvalue i+k (counting cyclically). A
value is admissible when it is on the inward side of every chord. This
demo builds the region for the fifth roots of unity, queries a few
points, and cross-checks the chord description against the brute-force
definition (intersection of convex hulls of all (N-k+1)-point subsets).
It exits 1 if the oracle disagrees with the chords on any point.
"""

import sys

import numpy as np

from rankrange import (BruteForceOracle, boundary_samples, build_region,
                       contains, ingest_spectrum, interior_point)
from rankrange.svgout import render_region

# the fifth roots of unity: a regular pentagon on the circle
es = ingest_spectrum(2 * np.pi * np.arange(5) / 5)
region = build_region(es, k=2)

print("chords (start index, inward distance of the origin):")
for c in region.halfplanes():
    print(f"  i={c.start_index}:  {c.margin(0j):.6f}")
print(f"expected inradius cos(2 pi / 5) = {np.cos(2 * np.pi / 5):.6f}")

# membership verdicts
for z in (0j, 0.3 + 0.1j, 0.99 + 0j):
    print(f"contains({z}) = {contains(region, z)}")

# the brute-force oracle enumerates all C(5, 4) = 5 sub-hulls
oracle = BruteForceOracle(es, 2)
rng = np.random.default_rng(0)
agree = total = 0
for _ in range(500):
    z = complex(*rng.uniform(-1, 1, 2))
    if abs(z) > 1:
        continue
    total += 1
    agree += contains(region, z) == oracle.verdict(z)
print(f"oracle agreement on random points: {agree}/{total}")

# a deep interior point and the boundary polyline
z0 = interior_point(region)
print(f"deep interior point: {z0:.4f}")
samples = boundary_samples(region, 25)
print(f"boundary samples: {len(samples)} points, first {samples[0]:.4f}")

with open("pentagon_region.svg", "w") as fh:
    fh.write(render_region(region))
print("wrote pentagon_region.svg")
sys.exit(0 if agree == total else 1)
