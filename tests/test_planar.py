import numpy as np

from planar import point_in_triangle, point_segment_distance


def test_point_segment_distance():
    np.testing.assert_allclose(point_segment_distance(1j, -1 + 0j, 1 + 0j),
                               1.0)
    np.testing.assert_allclose(point_segment_distance(2 + 0j, -1 + 0j,
                                                      1 + 0j), 1.0)


def test_point_in_triangle():
    a, b, c = 0j, 2 + 0j, 1 + 2j
    assert point_in_triangle(1 + 0.5j, a, b, c)
    assert not point_in_triangle(2 + 2j, a, b, c)
    assert point_in_triangle(1 + 0j, a, b, c)  # on an edge
    # degenerate triangle falls back to segment distance
    assert point_in_triangle(0.5 + 0j, 0j, 1 + 0j, 2 + 0j, tol=1e-12)
    assert not point_in_triangle(0.5 + 1j, 0j, 1 + 0j, 2 + 0j, tol=1e-3)
