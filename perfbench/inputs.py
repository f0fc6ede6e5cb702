"""Seeded inputs owned by the benchmark.

Every stream is a fresh ``numpy.random.default_rng(seed)`` per size, drawn
in the order of ``rankrange.battery.random_instance``: sorted uniform
phases, then a Haar unitary for conjugated inputs. Targets are the
Chebyshev centre of the chord half-planes, computed here with
``scipy.optimize.linprog`` and never with ``rankrange.interior_point``, so
a change to the library's target choice cannot change the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

TWO_PI = 2.0 * np.pi

#: instances whose Chebyshev radius is below this are skipped (and counted)
MIN_RADIUS = 1e-3


@dataclass(frozen=True)
class Instance:
    n: int
    k: int
    index: int            # position in this size's seeded stream
    conjugated: bool
    phases: np.ndarray    # sorted, in [0, 2pi)
    matrix: np.ndarray    # the caller's own matrix (None for spectrum inputs)
    target: complex
    radius: float

    def caller_matrix(self) -> np.ndarray:
        """The matrix the caller means: the conjugated input, or the diagonal
        unitary of a spectrum input."""
        if self.matrix is not None:
            return self.matrix
        return np.diag(np.exp(1j * self.phases))


def haar_unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def chords(phases: np.ndarray, k: int):
    """Endpoints and inward unit normals of the N chords i -> i+k.

    The inward side holds the midpoint of the arc from the chord's end back
    round to its start. Returns (a, normal, live) where ``live`` marks
    chords whose endpoints do not coincide.
    """
    n = phases.size
    idx = np.arange(n) + k
    t0 = phases
    t1 = phases[idx % n] + TWO_PI * (idx // n)
    a = np.exp(1j * t0)
    e = np.exp(1j * t1) - a
    length = np.abs(e)
    live = length > 1e-12
    mid = np.exp(1j * (t0 + t1 + TWO_PI) / 2.0)
    side = np.sign(e.real * (mid - a).imag - e.imag * (mid - a).real)
    normal = np.where(live, side * 1j * e / np.where(live, length, 1.0), 0)
    return a, normal, live


def chord_margin(phases: np.ndarray, k: int, z: np.ndarray) -> np.ndarray:
    """Signed distance of each point z inside the rank-k region: the least
    chord margin and disk margin (positive inside)."""
    a, normal, live = chords(phases, k)
    z = np.asarray(z, dtype=complex)
    d = (np.conj(normal[live])[:, None] * (z[None, :] - a[live][:, None])).real
    return np.minimum(d.min(axis=0), 1.0 - np.abs(z))


def chebyshev_centre(phases: np.ndarray, k: int):
    """Deepest point of the chord half-planes and its depth, by one LP."""
    a, normal, live = chords(phases, k)
    if not live.all():
        return 0j, 0.0
    nx, ny = normal.real, normal.imag
    # normal . (z - a) >= r  <=>  -nx x - ny y + r <= -normal . a
    A = np.stack([-nx, -ny, np.ones_like(nx)], axis=1)
    b = -(nx * a.real + ny * a.imag)
    res = linprog([0.0, 0.0, -1.0], A_ub=A, b_ub=b,
                  bounds=[(-1.0, 1.0), (-1.0, 1.0), (None, 1.0)],
                  method="highs")
    if res.status != 0:
        return 0j, 0.0
    return complex(res.x[0], res.x[1]), float(res.x[2])


def instance_stream(seed: int, n: int, k: int, alternate: bool = True):
    """Endless seeded instances of size (n, k). With ``alternate`` every
    second instance (from the second on) is conjugated by a Haar unitary;
    otherwise all are spectra. Instances with radius < MIN_RADIUS are
    yielded too, so that the caller can count what it skips."""
    rng = np.random.default_rng(seed)
    index = 0
    while True:
        conjugated = alternate and index % 2 == 1
        phases = np.sort(rng.uniform(0.0, TWO_PI, n))
        matrix = None
        if conjugated:
            q = haar_unitary(rng, n)
            matrix = q @ np.diag(np.exp(1j * phases)) @ q.conj().T
        target, radius = chebyshev_centre(phases, k)
        yield Instance(n, k, index, conjugated, phases, matrix, target, radius)
        index += 1


def disk_points(rng, count: int) -> np.ndarray:
    """Points drawn uniformly in the closed unit disk."""
    r = np.sqrt(rng.uniform(0.0, 1.0, count))
    return r * np.exp(1j * rng.uniform(0.0, TWO_PI, count))
