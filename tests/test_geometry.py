import numpy as np

from rankrange.geometry import clip_polygon, convex_hull, line_margin


def test_line_margin_sign():
    assert line_margin(0j, 1 + 0j, 0.5 + 1j) > 0
    assert line_margin(0j, 1 + 0j, 0.5 - 1j) < 0
    np.testing.assert_allclose(line_margin(0j, 2 + 0j, 1 + 3j), 3.0)


def test_convex_hull_square():
    pts = [0j, 1 + 0j, 1 + 1j, 1j, 0.5 + 0.5j, 0.25 + 0.5j]
    # the square's corners, counterclockwise; the inner points are dropped
    assert convex_hull(pts) == [0j, 1 + 0j, 1 + 1j, 1j]


def test_convex_hull_degenerate():
    assert convex_hull([1 + 1j, 1 + 1j]) == [1 + 1j]
    seg = convex_hull([0j, 1 + 1j, 0.5 + 0.5j])
    assert len(seg) == 2


def test_clip_polygon_halves_square():
    square = [0j, 2 + 0j, 2 + 2j, 2j]
    # keep the half-plane left of the upward vertical line at x = 1
    clipped = clip_polygon(square, 1 + 0j, 1 + 1j, 1.0)
    assert clipped == [0j, 1 + 0j, 1 + 2j, 2j]
    xs = [p.real for p in clipped]
    assert max(xs) <= 1.0 + 1e-12


def test_clip_polygon_to_empty():
    square = [0j, 1 + 0j, 1 + 1j, 1j]
    # keep the right side of the upward vertical line at x = 5: nothing left
    assert clip_polygon(square, 5 + 0j, 5 + 1j, -1.0) == []
