"""Small planar geometry helpers.

Points are complex numbers (x + iy). Everything here is exact-formula
numpy code with no state; the convex machinery only ever sees a handful
of points so clarity beats asymptotics.
"""

from __future__ import annotations

import numpy as np


def cross(u: complex, v: complex) -> float:
    """2D cross product u x v (positive if v is ccw of u)."""
    return u.real * v.imag - u.imag * v.real


def line_margin(a: complex, b: complex, z) -> np.ndarray:
    """Signed distance of z from the line through a->b; positive on the left."""
    e = b - a
    n = abs(e)
    z = np.asarray(z, dtype=complex)
    return (e.real * (z - a).imag - e.imag * (z - a).real) / n


def convex_hull(points):
    """Monotone-chain hull of complex points, ccw, no duplicate endpoints.

    Collinear points on the hull boundary are dropped. Returns a list; a
    degenerate input (all points within 1e-12 of a point or a line) gives
    a list of length 1 or 2.
    """
    pts = sorted(set((round(p.real, 15), round(p.imag, 15)) for p in points))
    pts = [complex(x, y) for x, y in pts]
    if len(pts) == 1:
        return pts
    if len(pts) == 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-1] - out[-2], p - out[-2]) <= 1e-15:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # collinear input
        return [pts[0], pts[-1]]
    return hull


def clip_polygon(poly, a: complex, b: complex, sign: float):
    """Sutherland-Hodgman clip of a polygon (list of complex, ccw) against
    the half-plane sign * cross(b-a, z-a) >= 0."""
    if not poly:
        return []
    out = []
    n = len(poly)
    e = b - a
    def val(p):
        return sign * (e.real * (p - a).imag - e.imag * (p - a).real)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        vp, vq = val(p), val(q)
        if vp >= 0.0:
            out.append(p)
        if (vp > 0.0 and vq < 0.0) or (vp < 0.0 and vq > 0.0):
            t = vp / (vp - vq)
            out.append(p + t * (q - p))
    # drop consecutive duplicates
    dedup = []
    for p in out:
        if not dedup or abs(p - dedup[-1]) > 1e-14:
            dedup.append(p)
    if len(dedup) >= 2 and abs(dedup[0] - dedup[-1]) <= 1e-14:
        dedup.pop()
    return dedup

