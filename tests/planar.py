"""Planar predicates that only the tests use.

``point_in_triangle`` checks the gap rule in ``test_triangles.py``, and
``point_segment_distance`` is the old oracle's segment margin in
``test_region_table.py``. The library's own geometry is
``rankrange.geometry``.
"""

from rankrange.geometry import cross, line_margin


def point_segment_distance(z: complex, a: complex, b: complex) -> float:
    e = b - a
    L2 = abs(e) ** 2
    if L2 == 0.0:
        return abs(z - a)
    t = ((z - a).real * e.real + (z - a).imag * e.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * e))


def point_in_triangle(z: complex, a: complex, b: complex, c: complex,
                      tol: float = 0.0) -> bool:
    """Closed-triangle membership with slack tol (degenerate triangles fall
    back to segment/point distance)."""
    area = abs(cross(b - a, c - a))
    if area < 1e-14:
        d = min(point_segment_distance(z, a, b),
                point_segment_distance(z, b, c),
                point_segment_distance(z, a, c))
        return d <= tol
    m1 = line_margin(a, b, z)
    m2 = line_margin(b, c, z)
    m3 = line_margin(c, a, z)
    lo, hi = min(m1, m2, m3), max(m1, m2, m3)
    return lo >= -tol or hi <= tol
