"""Static SVG rendering of real line arrangements and plane curves.

Everything is drawn in the affine chart where the last coordinate equals
one.  Arrangement lines are clipped to the viewport in exact rational
arithmetic; curves are traced approximately by sign-change contouring
(marching squares) over a float sample grid.  Rendering never feeds back
into any verdict.
"""

from __future__ import annotations

from fractions import Fraction

from .arrange import Arrangement
from .mpoly import MultiPoly

Viewport = tuple[Fraction, Fraction, Fraction, Fraction]

DEFAULT_VIEWPORT = (Fraction(-3), Fraction(3), Fraction(-3), Fraction(3))
DEFAULT_GRID = 512
SIZE = 640  # the square image's side, in pixels


def real_line_coefficients(arr: Arrangement):
    """Affine line coefficients (a, b, c) with a*X + b*Y + c = 0 for every
    hyperplane, in the chart x2 = 1.  Refuses non-real arrangements."""
    if arr.N != 2:
        raise ValueError("can only draw arrangements of lines in the plane")
    out = []
    for h in arr.hyperplanes:
        coes = []
        for v in h.equations[0]:
            if not v.is_rational():
                raise ValueError(
                    "arrangement has complex lines (root order "
                    f"{arr.n} >= 3); rendering covers real arrangements only")
            coes.append(v.as_rational())
        out.append(tuple(coes))
    return out


def clip_line(a: Fraction, b: Fraction, c: Fraction, viewport: Viewport):
    """Exact clip of the line a*X + b*Y + c = 0 to the viewport rectangle.

    Returns a pair of rational endpoints, or None when the line misses the
    rectangle or has no affine locus in this chart (a = b = 0).
    """
    if not a and not b:
        return None
    xmin, xmax, ymin, ymax = viewport
    hits = set()
    if b:
        for x in (xmin, xmax):
            y = Fraction(-c - a * x, b)
            if ymin <= y <= ymax:
                hits.add((x, y))
    if a:
        for y in (ymin, ymax):
            x = Fraction(-c - b * y, a)
            if xmin <= x <= xmax:
                hits.add((x, y))
    if len(hits) < 2:
        return None
    pts = sorted(hits)
    return pts[0], pts[-1]


def _real_coeff_terms(poly: MultiPoly):
    terms = []
    for e, cf in poly.terms.items():
        if not cf.is_rational():
            raise ValueError("curve has non-real coefficients")
        terms.append((e, float(cf.as_rational())))
    return terms


def sample_curve(poly: MultiPoly, viewport: Viewport, grid: int):
    """Float values of the dehomogenized curve on a (grid+1)^2 point grid.

    poly is homogeneous in three variables; the chart sets the last one
    to 1.  Values come back row-major, rows indexed by Y.
    """
    if poly.nvars != 3:
        raise ValueError("curve must live in the projective plane")
    terms = _real_coeff_terms(poly)
    deg = max((e[0] for e, _ in terms), default=0)
    xmin, xmax, ymin, ymax = (float(v) for v in viewport)
    n = grid
    xs = [xmin + (xmax - xmin) * i / n for i in range(n + 1)]
    ys = [ymin + (ymax - ymin) * j / n for j in range(n + 1)]
    rows = []
    for y in ys:
        ypow = [1.0]
        for _ in range(max(e[1] for e, _ in terms) if terms else 0):
            ypow.append(ypow[-1] * y)
        # collapse to a univariate polynomial in X for this row
        row_coef = [0.0] * (deg + 1)
        for e, cf in terms:
            row_coef[e[0]] += cf * ypow[e[1]]
        vals = []
        for x in xs:
            acc = 0.0
            for cf in reversed(row_coef):
                acc = acc * x + cf
            vals.append(acc)
        rows.append(vals)
    return xs, ys, rows


# marching squares: corner bit order bl=1, br=2, tr=4, tl=8; zero counts
# as positive so the trace is deterministic
_EDGES = {
    1: (("l", "b"),), 2: (("b", "r"),), 3: (("l", "r"),),
    4: (("t", "r"),), 6: (("b", "t"),), 7: (("l", "t"),),
    8: (("l", "t"),), 9: (("b", "t"),), 11: (("t", "r"),),
    12: (("l", "r"),), 13: (("b", "r"),), 14: (("l", "b"),),
}


def _interp(x1, y1, v1, x2, y2, v2):
    t = 0.5 if v1 == v2 else v1 / (v1 - v2)
    return (x1 + (x2 - x1) * t, y1 + (y2 - y1) * t)


def contour_segments(poly: MultiPoly, viewport: Viewport,
                     grid: int = DEFAULT_GRID):
    """Zero-level segments of the dehomogenized curve, marching squares."""
    xs, ys, rows = sample_curve(poly, viewport, grid)
    segs = []
    for j in range(grid):
        r0, r1 = rows[j], rows[j + 1]
        y0, y1 = ys[j], ys[j + 1]
        for i in range(grid):
            v00, v10 = r0[i], r0[i + 1]
            v01, v11 = r1[i], r1[i + 1]
            case = ((v00 >= 0) + 2 * (v10 >= 0)
                    + 4 * (v11 >= 0) + 8 * (v01 >= 0))
            if case in (0, 15):
                continue
            x0, x1 = xs[i], xs[i + 1]
            pts = {
                "b": _interp(x0, y0, v00, x1, y0, v10),
                "t": _interp(x0, y1, v01, x1, y1, v11),
                "l": _interp(x0, y0, v00, x0, y1, v01),
                "r": _interp(x1, y0, v10, x1, y1, v11),
            }
            if case in (5, 10):
                # saddle: split by the cell-center sign
                center = (v00 + v10 + v01 + v11) / 4.0
                pos = center >= 0
                if case == 5:
                    pair = ((("l", "t"), ("b", "r")) if pos
                            else (("l", "b"), ("t", "r")))
                else:
                    pair = ((("l", "b"), ("t", "r")) if pos
                            else (("l", "t"), ("b", "r")))
            else:
                pair = _EDGES[case]
            for e1, e2 in pair:
                segs.append((pts[e1], pts[e2]))
    return segs


def _fmt(v: float) -> str:
    return f"{v:.3f}"


class _Mapper:
    def __init__(self, viewport: Viewport):
        self.xmin, self.xmax, self.ymin, self.ymax = (float(v)
                                                      for v in viewport)

    def __call__(self, x, y):
        sx = (float(x) - self.xmin) / (self.xmax - self.xmin) * SIZE
        sy = SIZE - (float(y) - self.ymin) / (self.ymax - self.ymin) * SIZE
        return _fmt(sx), _fmt(sy)


def render_svg(arrangement: Arrangement | None = None,
               curves=(),
               viewport: Viewport = DEFAULT_VIEWPORT,
               grid: int = DEFAULT_GRID) -> str:
    """Compose the SVG: exact arrangement lines plus contoured curves."""
    to_px = _Mapper(viewport)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    if arrangement is not None:
        drawn = skipped = 0
        lines = []
        for a, b, c in real_line_coefficients(arrangement):
            seg = clip_line(a, b, c, viewport)
            if seg is None:
                skipped += 1
                continue
            (px1, py1), (px2, py2) = seg
            x1, y1 = to_px(px1, py1)
            x2, y2 = to_px(px2, py2)
            lines.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
            drawn += 1
        parts.append(f'<!-- arrangement: {drawn} lines drawn, '
                     f'{skipped} outside this chart -->')
        parts.append('<g stroke="#35506e" stroke-width="1.2">')
        parts.extend(lines)
        parts.append('</g>')
    for poly in curves:
        segs = contour_segments(poly, viewport, grid)
        cmds = []
        for (ax, ay), (bx, by) in segs:
            x1, y1 = to_px(ax, ay)
            x2, y2 = to_px(bx, by)
            cmds.append(f"M{x1} {y1}L{x2} {y2}")
        parts.append(f'<!-- curve: {len(segs)} contour segments -->')
        parts.append('<path fill="none" stroke="#b4232a" stroke-width="1.6" '
                     f'd="{"".join(cmds)}"/>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
