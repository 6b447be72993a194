"""Hand-rolled SVG residual plot.

Draws the rank-2 embedding points with their labels, axes through the
origin, and the outline of the maximizing deadlock triangle.  The y axis
points up, so a counterclockwise triangle in the data is counterclockwise
on screen.
"""

from __future__ import annotations

import numpy as np

_SIZE = 480
_MARGIN = 48
_TITLE = "Residual plot (rank-2 approximation)"
#: xml.sax.saxutils.escape's replacements; xml.sax itself imports email and ssl.
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _scaler(points: np.ndarray):
    span = float(np.max(np.abs(points))) or 1.0
    span *= 1.15
    scale = (_SIZE / 2.0 - _MARGIN) / span

    def to_screen(x: float, y: float) -> tuple[float, float]:
        return _SIZE / 2.0 + scale * x, _SIZE / 2.0 - scale * y

    return to_screen


def residual_plot_svg(embedding, names, deadlock_triple: tuple[int, int, int]) -> str:
    """SVG document with one labeled point per object.

    ``deadlock_triple`` uses the same 1-based numbering as the report.
    """
    pts = np.asarray(embedding, dtype=float)
    to_screen = _scaler(pts)
    corners = " ".join("{:.2f},{:.2f}".format(*to_screen(*pts[i - 1])) for i in deadlock_triple)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<text x="{_SIZE / 2}" y="24" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{_TITLE}</text>',
        # axes through the origin
        f'<line x1="{_MARGIN / 2}" y1="{_SIZE / 2}" x2="{_SIZE - _MARGIN / 2}" '
        f'y2="{_SIZE / 2}" stroke="#999" stroke-width="1"/>',
        f'<line x1="{_SIZE / 2}" y1="{_MARGIN / 2}" x2="{_SIZE / 2}" '
        f'y2="{_SIZE - _MARGIN / 2}" stroke="#999" stroke-width="1"/>',
        f'<polygon points="{corners}" fill="none" stroke="#c33" '
        'stroke-width="1.5" stroke-dasharray="5,3"/>',
    ]
    for name, (x, y) in zip(names, pts):
        sx, sy = to_screen(x, y)
        parts.append(
            f'<g class="point"><circle cx="{sx:.2f}" cy="{sy:.2f}" r="4" fill="#225"/>'
            f'<text x="{sx + 7:.2f}" y="{sy - 7:.2f}" font-size="12" '
            f'font-family="sans-serif">{str(name).translate(_ESCAPE)}</text></g>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
