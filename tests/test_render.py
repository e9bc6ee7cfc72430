"""Exact line clipping, marching-squares contours, SVG assembly."""

from fractions import Fraction

import pytest

from fermatarr.arrange import fermat_arrangement
from fermatarr.mpoly import parse_poly
from fermatarr.render import (
    DEFAULT_VIEWPORT,
    SIZE,
    clip_line,
    contour_segments,
    real_line_coefficients,
    render_svg,
    sample_curve,
)

VP = DEFAULT_VIEWPORT


def test_clip_line_exact_endpoints():
    # x = 1 crosses the default box vertically
    seg = clip_line(Fraction(1), Fraction(0), Fraction(-1), VP)
    assert seg is not None
    assert sorted(seg) == [(Fraction(1), Fraction(-3)), (Fraction(1), Fraction(3))]
    # the diagonal x = y
    seg = clip_line(Fraction(1), Fraction(-1), Fraction(0), VP)
    assert sorted(seg) == [(Fraction(-3), Fraction(-3)), (Fraction(3), Fraction(3))]


def test_clip_line_misses():
    assert clip_line(Fraction(1), Fraction(0), Fraction(-10), VP) is None
    assert clip_line(Fraction(0), Fraction(0), Fraction(1), VP) is None


def test_clip_line_touching_corner():
    # x + y = 6 meets the box only at (3, 3)
    assert clip_line(Fraction(1), Fraction(1), Fraction(-6), VP) is None


def test_real_line_coefficients():
    coes = real_line_coefficients(fermat_arrangement(2, 2, 2))
    assert len(coes) == 9
    assert all(len(t) == 3 for t in coes)
    with pytest.raises(ValueError, match="real arrangements only"):
        real_line_coefficients(fermat_arrangement(2, 3, 0))
    with pytest.raises(ValueError, match="in the plane"):
        real_line_coefficients(fermat_arrangement(3, 1, -1))


def test_sample_curve_grid_shape():
    circle = parse_poly("x^2 + y^2 - 4*z^2", ("x", "y", "z"))
    xs, ys, rows = sample_curve(circle, VP, 16)
    assert len(xs) == len(ys) == 17
    assert len(rows) == 17 and all(len(r) == 17 for r in rows)
    assert rows[8][8] < 0  # center of the box is inside the circle
    with pytest.raises(ValueError):
        sample_curve(parse_poly("x0*x1", ("x0", "x1")), VP, 8)


def test_contour_segments_trace_the_circle():
    circle = parse_poly("x^2 + y^2 - 4*z^2", ("x", "y", "z"))
    segs = contour_segments(circle, VP, 64)
    assert len(segs) > 40
    cell = 6.0 / 64
    for (x1, y1), (x2, y2) in segs:
        for x, y in ((x1, y1), (x2, y2)):
            r = (x * x + y * y) ** 0.5
            assert abs(r - 2.0) < cell


def test_empty_locus_has_no_segments():
    nowhere = parse_poly("x^2 + y^2 + z^2", ("x", "y", "z"))
    assert contour_segments(nowhere, VP, 32) == []


def test_render_svg_composition():
    arr = fermat_arrangement(2, 2, 2)
    circle = parse_poly("x^2 + y^2 - 4*z^2", ("x", "y", "z"))
    svg = render_svg(arrangement=arr, curves=[circle], grid=32)
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")
    assert "arrangement: 8 lines drawn, 1 outside this chart" in svg
    assert "curve:" in svg and "<path" in svg
    assert f'width="{SIZE}"' in svg

    bare = render_svg(curves=[circle], grid=16)
    assert "arrangement" not in bare and "curve:" in bare
    empty = render_svg()
    assert empty.startswith("<?xml") and "</svg>" in empty
