"""Fat flat schemes, named configurations, and condition-row generation.

A FatScheme is a list of (flat, multiplicity) components in P^N.  Vanishing
to order m along a flat is encoded by the order-(m-1) partial derivatives
of the generic degree-d form, restricted to a parametrization of the flat:
in characteristic 0 the Euler identity makes the top-order partials
sufficient, which the test suite checks against the all-orders encoding
rather than assuming.

Named configurations ship the published ideal generators where available,
used as cross-checks against the first-principles construction.
"""

from __future__ import annotations

from math import comb, lcm, perm

from .arrange import Flat, containing_hyperplanes, dual_points, fermat_arrangement
from .cyclo import CyclotomicNumber, euler_phi
from .linalg import _field_row_to_int
from .mpoly import (MultiPoly, ProjPoint, default_names, format_point,
                    graded_monomials, parse_point, parse_poly)

_ZERO = CyclotomicNumber.zero()
_ONE = CyclotomicNumber.one()


def _entry_order(value: CyclotomicNumber) -> int:
    return 1 if value.is_rational() else value.order


class FatScheme:
    """Mutually distinct flats in P^N with positive multiplicities."""

    __slots__ = ("ambient", "components", "root_order")

    def __init__(self, ambient: int, components):
        comps = []
        seen = set()
        order = 1
        for flat, mult in components:
            if not isinstance(flat, Flat):
                raise TypeError("components must be (Flat, multiplicity) pairs")
            if flat.ambient != ambient:
                raise ValueError("component ambient mismatch")
            if int(mult) < 1:
                raise ValueError("multiplicities must be >= 1")
            if flat in seen:
                raise ValueError("flats must be mutually distinct")
            seen.add(flat)
            comps.append((flat, int(mult)))
            for row in flat.equations:
                for v in row:
                    order = lcm(order, _entry_order(v))
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "components", tuple(comps))
        object.__setattr__(self, "root_order", order)

    def __setattr__(self, name, value):
        raise AttributeError("FatScheme is immutable")

    def __len__(self):
        return len(self.components)

    def with_components(self, extra) -> "FatScheme":
        return FatScheme(self.ambient, list(self.components) + list(extra))

    def points(self):
        """The 0-dimensional components as projective points."""
        return [fl.point() for fl, _ in self.components if fl.dim == 0]

    def __repr__(self):
        return f"FatScheme(ambient={self.ambient}, {len(self)} components)"


def format_scheme(scheme: FatScheme) -> str:
    lines = [f"ambient {scheme.ambient}"]
    for flat, mult in scheme.components:
        if flat.dim == 0:
            lines.append(f"point {format_point(flat.point())} mult {mult}")
        else:
            eqs = ", ".join(str(p) for p in flat.equation_polys())
            lines.append(f"flat {{ eq: {eqs} }} mult {mult}")
    return "\n".join(lines) + "\n"


def _linear_coefficients(poly: MultiPoly):
    if poly.is_zero() or poly.degree() != 1 or not poly.is_homogeneous():
        raise ValueError(f"not a linear form: {poly}")
    coeffs = []
    for i in range(poly.nvars):
        expo = tuple(1 if j == i else 0 for j in range(poly.nvars))
        coeffs.append(poly.terms.get(expo, _ZERO))
    return tuple(coeffs)


def parse_scheme(text: str) -> FatScheme:
    """Parse the line-oriented scheme format written by format_scheme."""
    ambient = None
    components = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("ambient"):
                ambient = int(line.split()[1])
                continue
            body, mult_text = line.rsplit("mult", 1)
            mult = int(mult_text)
            body = body.strip()
            if body.startswith("point"):
                pt = parse_point(body[len("point"):].strip())
                if ambient is None:
                    ambient = len(pt.coords) - 1
                components.append((Flat.from_point(pt), mult))
            elif body.startswith("flat"):
                if ambient is None:
                    raise ValueError("flat line before ambient header")
                inner = body[len("flat"):].strip()
                if not (inner.startswith("{") and inner.endswith("}")):
                    raise ValueError("expected flat { eq: ... }")
                inner = inner[1:-1].strip()
                if not inner.startswith("eq:"):
                    raise ValueError("expected eq: inside flat { }")
                names = default_names(ambient + 1)
                rows = [_linear_coefficients(parse_poly(part, names))
                        for part in inner[3:].split(",")]
                components.append((Flat.from_equations(rows), mult))
            else:
                raise ValueError(f"unknown component kind {body.split()[0]!r}")
        except ValueError as exc:
            raise ValueError(f"scheme line {lineno}: {exc}") from None
    if ambient is None:
        raise ValueError("empty scheme text")
    return FatScheme(ambient, components)


# ---------------------------------------------------------------------------
# Conditions counts

def _binom(a: int, b: int) -> int:
    return comb(a, b) if a >= 0 and b >= 0 else 0


def conditions_count(N: int, r: int, m: int, d: int) -> int:
    """Number of conditions a multiplicity-m r-flat imposes on degree-d
    forms in P^N: sum over 0 <= i < m of C(d-i+r, r)*C(N-r-1+i, i)."""
    if not 0 <= r <= N - 1:
        raise ValueError("r must be in 0..N-1")
    if m < 1:
        raise ValueError("m must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    return sum(_binom(d - i + r, r) * _binom(N - r - 1 + i, i) for i in range(m))


def conditions_count_line(N: int, m: int, d: int) -> int:
    """Closed form for a fat line in P^N; must agree with conditions_count."""
    num = m * (N * d + 2 * N + m - m * N - 1) * comb(N + m - 2, m)
    den = N * (N - 1)
    if num % den:
        raise ArithmeticError("line conditions formula is not integral here")
    return num // den


def conditions_count_line_p3(m: int, d: int) -> int:
    """Closed form for a fat line in P^3, with the published free symbol
    read as the degree d."""
    return comb(m + 1, 2) * (d + 1) - 2 * comb(m + 1, 3)


def general_point_count(N: int, m: int) -> int:
    """Conditions expected from one general fat point: C(N+m-1, N)."""
    return comb(N + m - 1, N)


def plane_point_count(m: int) -> int:
    """The plane-style count C(m+1, 2) used by the multi-point definition."""
    return comb(m + 1, 2)


# ---------------------------------------------------------------------------
# Condition rows

def _dict_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            prev = out.get(key)
            out[key] = va * vb if prev is None else prev + va * vb
    return {k: v for k, v in out.items() if v}


def _restriction_expansions(basis, nvars: int, svars: int, deg: int) -> dict:
    """Expansions of every degree-deg x-monomial under x_i := sum_t basis[t][i]*s_t.

    Returns {x-exponent: {s-exponent: coefficient}}.  Prefix products are
    shared along a DFS over the exponent vector.
    """
    unit = {(0,) * svars: 1}
    linears = []
    for i in range(nvars):
        form = {}
        for t in range(svars):
            v = basis[t][i]
            if v:
                key = tuple(1 if j == t else 0 for j in range(svars))
                form[key] = v
        linears.append(form)
    pows = []
    for i in range(nvars):
        row = [unit]
        for _ in range(deg):
            row.append(_dict_mul(row[-1], linears[i]))
        pows.append(row)
    out = {}

    def descend(i, remaining, prefix, acc):
        if i == nvars - 1:
            out[prefix + (remaining,)] = _dict_mul(acc, pows[i][remaining])
            return
        for e in range(remaining, -1, -1):
            descend(i + 1, remaining - e, prefix + (e,), _dict_mul(acc, pows[i][e]))

    descend(0, deg, (), unit)
    return out


def _integral_vector(vec, order: int):
    """vec scaled to primitive integral coordinates: rational entries as
    ints, the others as CyclotomicNumbers."""
    phi = euler_phi(order)
    coords = _field_row_to_int(vec, order, phi)
    if phi == 1:
        return coords
    return tuple(c[0] if not any(c[1:]) else CyclotomicNumber(order, c)
                 for c in coords)


def component_rows(flat: Flat, mult: int, d: int, orders: str = "top"):
    """Condition rows for one (flat, multiplicity) component in degree d.

    orders="top" emits the order-(mult-1) partials only (the encoding used
    everywhere); orders="all" emits every order < mult, for the Euler
    equivalence check.  When d < mult-1 no nonzero degree-d form satisfies
    the component, so the rows span the full coefficient space.

    The flat is parametrized by its span basis scaled to integral
    coordinates, so the rows of a rational flat hold only ints, and those
    of a cyclotomic flat hold ints beside CyclotomicNumbers.  Scaling a
    basis vector by c multiplies each row by a power product of the c's,
    which changes no rank, dimension or kernel.
    """
    if orders not in ("top", "all"):
        raise ValueError("orders must be 'top' or 'all'")
    nvars = flat.ambient + 1
    cols = graded_monomials(nvars, d)
    if d < mult - 1:
        rows = []
        for j in range(len(cols)):
            row = [0] * len(cols)
            row[j] = 1
            rows.append(tuple(row))
        return rows
    order_list = [mult - 1] if orders == "top" else list(range(mult - 1, -1, -1))
    basis = [_integral_vector(vec, flat.order) for vec in flat.span_basis()]
    svars = flat.dim + 1
    rows = []
    for k in order_list:
        expos = _restriction_expansions(basis, nvars, svars, d - k)
        smonos = graded_monomials(svars, d - k)
        for beta in graded_monomials(nvars, k):
            prepared = []
            for alpha in cols:
                gamma = tuple(a - b for a, b in zip(alpha, beta))
                if any(g < 0 for g in gamma):
                    prepared.append(None)
                    continue
                scale = 1
                for a, b in zip(alpha, beta):
                    scale *= perm(a, b)
                prepared.append((expos[gamma], scale))
            for mu in smonos:
                rows.append(tuple([0 if cell is None
                                   else cell[0].get(mu, 0) * cell[1]
                                   for cell in prepared]))
    return rows


def conditions_rows(scheme: FatScheme, d: int):
    """All condition rows of the scheme in degree d, in canonical order
    (component, then derivative multi-index, then coefficient index)."""
    if d < 0:
        raise ValueError("d must be >= 0")
    rows = []
    for flat, mult in scheme.components:
        rows.extend(component_rows(flat, mult, d))
    return rows


# ---------------------------------------------------------------------------
# Named configurations

class NamedConfig:
    """A scheme from the catalogue plus its published ideal generators."""

    __slots__ = ("id", "scheme", "published_generators")

    def __init__(self, id: str, scheme: FatScheme, published_generators=()):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "published_generators", tuple(published_generators))

    def __setattr__(self, name, value):
        raise AttributeError("NamedConfig is immutable")

    def __repr__(self):
        return f"NamedConfig({self.id})"


_M3_GENERATORS = (
    "x0*x1*x2",
    "x0^3*x2 + x1^3*x2 + x2^4",
    "x1^4*x2 + x1*x2^4",
)

_M4_GENERATORS = (
    "x0*x1*x2",
    "x0^4*x2 + x1^4*x2 - x2^5",
    "x0^4*x1 - x1^5 + x1*x2^4",
)

_BMSS_GENERATORS = (
    "x0*(x1^3 - x2^3)", "x0*(x2^3 - x3^3)",
    "x1*(x0^3 - x2^3)", "x1*(x2^3 - x3^3)",
    "x2*(x0^3 - x1^3)", "x2*(x1^3 - x3^3)",
    "x3*(x0^3 - x1^3)", "x3*(x1^3 - x2^3)",
)

_LINES42_GENERATORS = (
    "(x0^3 - x1^3)*(x2^3 - x3^3)*x0*x1",
    "(x0^3 - x1^3)*(x2^3 - x3^3)*x2*x3",
    "(x0^3 - x2^3)*(x1^3 - x3^3)*x0*x2",
    "(x0^3 - x2^3)*(x1^3 - x3^3)*x1*x3",
    "(x0^3 - x3^3)*(x1^3 - x2^3)*x0*x3",
    "(x0^3 - x3^3)*(x1^3 - x2^3)*x1*x2",
)


def _points_scheme(points, ambient: int, mult: int = 1) -> FatScheme:
    return FatScheme(ambient, [(Flat.from_point(p), mult) for p in points])


def _parse_generators(texts, nvars: int):
    names = default_names(nvars)
    return tuple(parse_poly(t, names) for t in texts)


def _build_b3_dual() -> NamedConfig:
    arr = fermat_arrangement(2, 2, 2)
    return NamedConfig("B3_DUAL", _points_scheme(dual_points(arr), 2))


def _build_fermat_dual(m: int, k: int) -> NamedConfig:
    if m < 1 or not 0 <= k <= 3:
        raise ValueError("FERMAT_DUAL requires m >= 1 and 0 <= k <= 3")
    arr = fermat_arrangement(2, m, k - 1)
    gens = ()
    if (m, k) == (3, 2):
        gens = _parse_generators(_M3_GENERATORS, 3)
    elif (m, k) == (4, 1):
        gens = _parse_generators(_M4_GENERATORS, 3)
    return NamedConfig(f"FERMAT_DUAL({m},{k})",
                       _points_scheme(dual_points(arr), 2), gens)


def _build_bmss() -> NamedConfig:
    """The published binomial generators are authoritative: candidate points
    are the 27 all-unit points and the 4 coordinate points; membership is
    decided by the generators themselves."""
    gens = _parse_generators(_BMSS_GENERATORS, 4)
    eps = CyclotomicNumber.root(3)
    candidates = []
    one = _ONE
    for a in range(3):
        for b in range(3):
            for c in range(3):
                candidates.append(ProjPoint((one, eps ** a, eps ** b, eps ** c)))
    for i in range(4):
        coords = [_ZERO] * 4
        coords[i] = one
        candidates.append(ProjPoint(tuple(coords)))
    points = [p for p in candidates
              if all(g.evaluate(p.coords).is_zero() for g in gens)]
    return NamedConfig("BMSS_P3", _points_scheme(points, 3), gens)


def _build_p5_multi() -> NamedConfig:
    eps = CyclotomicNumber.root(3)
    points = []
    for i in range(6):
        coords = [_ZERO] * 6
        coords[i] = _ONE
        points.append(ProjPoint(tuple(coords)))
    import itertools
    for expo in itertools.product(range(3), repeat=5):
        points.append(ProjPoint((_ONE,) + tuple(eps ** e for e in expo)))
    return NamedConfig("P5_MULTI", _points_scheme(points, 5))


def _build_lines42() -> NamedConfig:
    from .arrange import derived_flats
    arr = fermat_arrangement(3, 3, -1)
    lines = derived_flats(arr, 1, 3)
    scheme = FatScheme(3, [(fl, 1) for fl in lines])
    return NamedConfig("LINES42", scheme,
                       _parse_generators(_LINES42_GENERATORS, 4))


def _build_mult4_points(n: int) -> NamedConfig:
    if n < 3:
        raise ValueError("MULT4_POINTS requires n >= 3")
    from .arrange import derived_flats
    arr = fermat_arrangement(2, n, -1)
    points = derived_flats(arr, 0, 2)
    scheme = FatScheme(2, [(fl, 1) for fl in points])
    return NamedConfig(f"MULT4_POINTS({n})", scheme)


def named_configuration(spec: str) -> NamedConfig:
    """Look up a configuration by id: B3_DUAL, FERMAT_DUAL(m,k), BMSS_P3,
    P5_MULTI, LINES42, or MULT4_POINTS(n)."""
    text = spec.strip()
    if "(" in text:
        head, _, tail = text.partition("(")
        if not tail.endswith(")"):
            raise ValueError(f"bad configuration id {spec!r}")
        try:
            params = tuple(int(p) for p in tail[:-1].split(","))
        except ValueError:
            raise ValueError(f"bad configuration parameters in {spec!r}") from None
    else:
        head, params = text, ()
    head = head.strip().upper()
    if head == "B3_DUAL" and not params:
        return _build_b3_dual()
    if head == "FERMAT_DUAL" and len(params) == 2:
        return _build_fermat_dual(*params)
    if head == "BMSS_P3" and not params:
        return _build_bmss()
    if head == "P5_MULTI" and not params:
        return _build_p5_multi()
    if head == "LINES42" and not params:
        return _build_lines42()
    if head == "MULT4_POINTS" and len(params) == 1:
        return _build_mult4_points(params[0])
    raise ValueError(f"unknown configuration id {spec!r}")


def verify_published_generators(cfg: NamedConfig) -> bool:
    """True iff every published generator vanishes identically on every
    component flat (points by evaluation, positive-dimensional flats by
    linear substitution)."""
    if not cfg.published_generators:
        raise ValueError(f"{cfg.id} has no published generators")
    for gen in cfg.published_generators:
        for flat, _ in cfg.scheme.components:
            if flat.dim == 0:
                if not gen.evaluate(flat.point().coords).is_zero():
                    return False
            else:
                basis = flat.span_basis()
                matrix = [[basis[t][i] for t in range(len(basis))]
                          for i in range(flat.ambient + 1)]
                if not gen.substitute_linear(matrix).is_zero():
                    return False
    return True
