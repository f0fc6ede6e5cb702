"""Deterministic SVG rendering of a region: unit circle, eigenvalue dots,
chord constraints and the shaded boundary polyline. Pure presentation; the
caller's JSON artifacts are never touched."""

from __future__ import annotations

from .errors import EmptyRegion
from .region import OmegaRegion, boundary_samples

_SIZE = 420
_R = 180
_CENTER = _SIZE / 2


def _pt(z) -> str:
    # y axis flipped: SVG grows downward
    return f"{_CENTER + _R * z.real:.2f},{_CENTER - _R * z.imag:.2f}"


def render_region(region: OmegaRegion) -> str:
    """The SVG document of the region: its boundary as 256 points of
    ``boundary_samples``, or a comment when the region is empty."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<circle cx="{_CENTER}" cy="{_CENTER}" r="{_R}" fill="none" '
        f'stroke="#888" stroke-width="1"/>',
    ]
    for c in region.constraints:
        if c.degenerate:
            continue
        a, b = _pt(c.endpoint_a).split(","), _pt(c.endpoint_b).split(",")
        lines.append(
            f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" '
            f'stroke="#4a90d9" stroke-width="0.8" stroke-dasharray="4 3"/>')
    try:
        pts = boundary_samples(region, 256)
        poly = " ".join(_pt(z) for z in pts)
        lines.append(
            f'<polyline points="{poly}" fill="#cfe8cf" fill-opacity="0.6" '
            f'stroke="#2d7a2d" stroke-width="1.5"/>')
    except EmptyRegion:
        lines.append("<!-- empty region -->")
    for z in region.eigenvalues:
        x, y = _pt(complex(z)).split(",")
        lines.append(f'<circle cx="{x}" cy="{y}" r="3.5" fill="#c0392b"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
