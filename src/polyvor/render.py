"""Rendering: binary PPM rasters and small standalone SVG overlays."""

from __future__ import annotations

import numpy as np

from polyvor._chart import HALF_SQRT3, plot_xy
from polyvor._kernels import OUTSIDE, TIE

# fixed palette, one color per label modulo its length
PALETTE = [
    (230, 97, 90), (86, 160, 211), (107, 189, 113), (218, 166, 80),
    (156, 117, 190), (222, 135, 185), (120, 200, 195), (176, 176, 90),
    (200, 120, 100), (110, 130, 210), (170, 210, 120), (210, 190, 130),
]


def raster_ppm(raster, path):
    """Write the raster as a binary P6 PPM (white outside, black ties)."""
    lab = raster.labels
    pal = np.array(PALETTE, dtype=np.uint8)
    img = pal[np.where(lab >= 0, lab % len(pal), 0)]
    img[lab == OUTSIDE] = (255, 255, 255)
    img[lab == TIE] = (0, 0, 0)
    res = raster.resolution
    with open(path, "wb") as fh:
        fh.write(f"P6\n{res} {res}\n255\n".encode("ascii"))
        fh.write(img[::-1].tobytes())  # row 0 is the bottom of the chart


SVG_SIZE = 640        # image width in px
SVG_MARGIN = 0.08     # plotting-chart margin around the triangle
CURVE_POINTS = 400    # polyline vertices of an overlaid curve


class _Svg:
    """Minimal SVG writer on the plotting chart (y flipped for screen)."""

    def __init__(self):
        self.scale = SVG_SIZE / (1.0 + 2 * SVG_MARGIN)
        self.height = (HALF_SQRT3 + 2 * SVG_MARGIN) * self.scale
        self.parts = []

    def xy(self, p):
        x, y = p
        return ((x + SVG_MARGIN) * self.scale,
                (HALF_SQRT3 + SVG_MARGIN - y) * self.scale)

    def polygon(self, pts, stroke="#333", fill="none", width=1.5):
        s = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(self.xy, pts))
        self.parts.append(f'<polygon points="{s}" fill="{fill}" '
                          f'stroke="{stroke}" stroke-width="{width}"/>')

    def polyline(self, pts):
        s = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(self.xy, pts))
        self.parts.append(f'<polyline points="{s}" fill="none" '
                          'stroke="#1f6fb2" stroke-width="2.0"/>')

    def dot(self, p, r=4.0, fill="#c33"):
        x, y = self.xy(p)
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{fill}"/>')

    def write(self, path):
        body = "\n".join(self.parts)
        with open(path, "w") as fh:
            fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                     f'width="{SVG_SIZE}" height="{self.height:.0f}">\n'
                     f"{body}\n</svg>\n")


TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.5, HALF_SQRT3)]


def ball_svg(ball, path):
    """Ball hull with its generator points inside the simplex triangle."""
    svg = _Svg()
    svg.polygon(TRIANGLE)
    svg.polygon([plot_xy(v.coords) for v in ball.hull_vertices],
                stroke="#b2541f", fill="#f4e0cf", width=2.0)
    for g in ball.generators:
        p = [c + ball.radius * w for c, w in zip(ball.center.coords, g)]
        svg.dot(plot_xy(p), r=3.0, fill="#7a7a7a")
    svg.dot(plot_xy(ball.center.coords), r=3.5, fill="#222")
    svg.write(path)


def overlay_svg(path, curve, ball, marks):
    """Simplex triangle + curve + tangency marks + an example ball."""
    svg = _Svg()
    svg.polygon(TRIANGLE)
    svg.polyline([plot_xy(curve(i / (CURVE_POINTS - 1)).coords)
                  for i in range(CURVE_POINTS)])
    svg.polygon([plot_xy(v.coords) for v in ball.hull_vertices],
                stroke="#b2541f", width=2.0)
    for m in marks:
        svg.dot(m)
    svg.write(path)
