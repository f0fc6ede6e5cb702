"""Clustered spectra that the tests share: near-coincident eigenvalues
are where the fallback rungs are reached."""

import numpy as np


def clustered_phases(seed, count, n, width=1e-4):
    """n sorted phases in ``count`` clusters of width ~``width``."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0, 2 * np.pi, count)
    return np.sort(np.mod(c[rng.integers(0, count, n)]
                          + width * rng.standard_normal(n), 2 * np.pi))
