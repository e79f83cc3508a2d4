"""PPM and SVG output checks."""

import hashlib

import numpy as np

from polyvor import build_ball, circle_curve, hardy_weinberg_curve, raster_voronoi, sample_curve
from polyvor._kernels import OUTSIDE, TIE
from polyvor.render import ball_svg, overlay_svg, raster_ppm
from fractions import Fraction

from oracles import palette_ppm_pixels


def small_raster(metrics):
    sample = sample_curve(hardy_weinberg_curve(), 21)
    return raster_voronoi(sample, metrics["unit"], 32)


def test_ppm_layout_and_outside_color(tmp_path, metrics):
    raster = small_raster(metrics)
    path = tmp_path / "r.ppm"
    raster_ppm(raster, path)
    data = path.read_bytes()
    header, rest = data.split(b"255\n", 1)
    assert header == b"P6\n32 32\n"
    assert len(rest) == 32 * 32 * 3
    img = np.frombuffer(rest, dtype=np.uint8).reshape(32, 32, 3)
    # file rows run top-down; raster rows run bottom-up
    flipped = img[::-1]
    outside = raster.labels == -1
    assert np.all(flipped[outside] == 255)
    assert not np.all(flipped[~outside] == 255)
    # top corners of the image are outside the triangle: white
    assert tuple(img[0, 0]) == (255, 255, 255)
    assert tuple(img[0, -1]) == (255, 255, 255)


def test_ppm_same_label_same_color(tmp_path, metrics):
    raster = small_raster(metrics)
    path = tmp_path / "r.ppm"
    raster_ppm(raster, path)
    img = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1],
                        dtype=np.uint8).reshape(32, 32, 3)[::-1]
    labels = raster.labels
    some = next(l for l in np.unique(labels) if l >= 0)
    colors = img[labels == some]
    assert (colors == colors[0]).all()


def test_ppm_bytes_equal_the_palette_formula(tmp_path, metrics):
    # the first raster holds TIE (black) and OUTSIDE (white) pixels and
    # labels past the 12-color palette
    rasters = [raster_voronoi(sample_curve(circle_curve(0.7), 201), metrics["line"], 64),
               raster_voronoi(sample_curve(hardy_weinberg_curve(), 201), metrics["three_cell"], 64),
               raster_voronoi(sample_curve(circle_curve(0.7), 1001), metrics["unit"], 96)]
    labels = rasters[0].labels
    assert (labels == TIE).any() and (labels == OUTSIDE).any() and labels.max() >= 12
    for i, raster in enumerate(rasters):
        path = tmp_path / f"r{i}.ppm"
        raster_ppm(raster, path)
        res = raster.resolution
        header = f"P6\n{res} {res}\n255\n".encode("ascii")
        assert path.read_bytes() == header + palette_ppm_pixels(raster.labels)


def test_ball_svg_contents(tmp_path, metrics):
    ball = build_ball((Fraction(1, 3),) * 3, Fraction(1, 4), metrics["unit"])
    path = tmp_path / "b.svg"
    ball_svg(ball, path)
    text = path.read_text()
    assert text.startswith("<svg xmlns=")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polygon") == 2          # triangle + hull
    assert text.count("<circle") == len(ball.generators) + 1


def test_overlay_svg_contents(tmp_path, metrics):
    ball = build_ball((Fraction(1, 3),) * 3, Fraction(1, 8), metrics["line"])
    path = tmp_path / "o.svg"
    overlay_svg(path, curve=hardy_weinberg_curve(), ball=ball,
                marks=[(0.5, 0.43)])
    text = path.read_text()
    assert "<polyline" in text                  # the curve
    assert text.count("<polygon") == 2
    assert text.count("<circle") == 1           # the mark


def test_ball_svg_with_a_float_center_is_pinned(tmp_path, metrics):
    # a float center is taken at its exact binary values, so the dots sit
    # at rationals of large denominator; their printed floats are pinned
    ball = build_ball((0.2, 0.3, 0.5), Fraction(1, 5), metrics["line"])
    path = tmp_path / "b.svg"
    ball_svg(ball, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "983a3f9dc22647fa36e48f0cb79313b3970dd0916c58c251f8ed728dd0d37aae"
