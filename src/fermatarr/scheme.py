"""Fat flat schemes, named configurations, and condition-row generation.

A FatScheme is a list of (flat, multiplicity) components in P^N.  Vanishing
to order m along a flat is encoded by the order-(m-1) partial derivatives
of the generic degree-d form, restricted to a parametrization of the flat:
in characteristic 0 the Euler identity makes the top-order partials
sufficient, and conditions_count independent ones are kept, which the
test suite checks against jets in coordinates adapted to the flat.

The rows are read off two tables.  The restrictions of the x-monomials
to the flat are dense lists over the monomials in the flat's parameters,
built by a DFS that shares prefix products; a point has one parameter,
so there they are plain products of coordinate powers.  The columns and
falling-factorial scales of the partials depend only on the number of
variables, the derivative order and the degree, so one bounded cache
holds them for every component, degree and trial.

Named configurations ship the published ideal generators where available,
used as cross-checks against the first-principles construction.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, lcm, perm

from .arrange import (Flat, derived_flats, dual_points, fermat_arrangement,
                      parse_id)
from .cyclo import CyclotomicNumber, euler_phi
from .linalg import _field_row_to_int
from .mpoly import (MultiPoly, ProjPoint, default_names, graded_monomials,
                    parse_point, parse_poly)

_ZERO = CyclotomicNumber.zero()
_ONE = CyclotomicNumber.one()


class FatScheme:
    """Mutually distinct flats in P^N with positive multiplicities."""

    __slots__ = ("ambient", "components", "root_order")

    def __init__(self, ambient: int, components):
        if ambient < 1:
            raise ValueError("the ambient dimension must be >= 1")
        comps = {}
        for flat, mult in components:
            if not isinstance(flat, Flat):
                raise TypeError("components must be (Flat, multiplicity) pairs")
            _add_component(comps, ambient, flat, int(mult))
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "components", tuple(comps.items()))
        object.__setattr__(self, "root_order", lcm(*(fl.order for fl in comps)))

    def __setattr__(self, name, value):
        raise AttributeError("FatScheme is immutable")

    def __len__(self):
        return len(self.components)

    def points(self):
        """The 0-dimensional components as projective points."""
        return [fl.point() for fl, _ in self.components if fl.dim == 0]

    def __repr__(self):
        return f"FatScheme(ambient={self.ambient}, {len(self)} components)"


def _add_component(comps: dict, ambient: int, flat: Flat, mult: int) -> None:
    """Add a component to comps, the flat -> multiplicity map of a scheme
    in P^ambient, refusing one that does not fit."""
    if flat.ambient != ambient:
        raise ValueError("component ambient mismatch")
    if mult < 1:
        raise ValueError("multiplicities must be >= 1")
    if flat in comps:
        raise ValueError("flats must be mutually distinct")
    comps[flat] = mult


def format_component(flat: Flat) -> str:
    """A component without its multiplicity: point (...) or flat { eq: ... }."""
    if flat.dim == 0:
        return f"point {flat.point()}"
    eqs = ", ".join(str(p) for p in flat.equation_polys())
    return f"flat {{ eq: {eqs} }}"


def format_scheme(scheme: FatScheme) -> str:
    lines = [f"ambient {scheme.ambient}"]
    lines += [f"{format_component(flat)} mult {mult}"
              for flat, mult in scheme.components]
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
    components = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("ambient"):
                words = line.split()
                if len(words) != 2:
                    raise ValueError("expected 'ambient N'")
                ambient = int(words[1])
                if ambient < 1:
                    raise ValueError("the ambient dimension must be >= 1")
                if any(fl.ambient != ambient for fl in components):
                    raise ValueError("component ambient mismatch")
                continue
            if "mult" not in line:
                raise ValueError("expected a component line ending in 'mult M'")
            body, mult_text = line.rsplit("mult", 1)
            mult = int(mult_text)
            body = body.strip()
            if body.startswith("point"):
                pt = parse_point(body[len("point"):].strip())
                if ambient is None:
                    ambient = len(pt.coords) - 1
                flat = Flat.from_point(pt)
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
                flat = Flat.from_equations(rows)
            else:
                raise ValueError(f"unknown component kind {body.split()[0]!r}")
            _add_component(components, ambient, flat, mult)
        except ValueError as exc:
            raise ValueError(f"scheme line {lineno}: {exc}") from None
    if ambient is None:
        raise ValueError("empty scheme text")
    return FatScheme(ambient, components.items())


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


def plane_point_count(m: int) -> int:
    """The plane-style count C(m+1, 2) used by the multi-point definition."""
    return comb(m + 1, 2)


# ---------------------------------------------------------------------------
# Condition rows

@lru_cache(maxsize=256)
def _product_table(svars: int, a: int, b: int):
    """table[i][j] is the position of u_i + v_j in graded_monomials(svars,
    a + b), for u_i of degree a and v_j of degree b in graded order."""
    index = {mu: j for j, mu in enumerate(graded_monomials(svars, a + b))}
    right = graded_monomials(svars, b)
    return tuple(tuple(index[tuple(x + y for x, y in zip(u, v))] for v in right)
                 for u in graded_monomials(svars, a))


def _dense_mul(a: list, b: list, size: int, table) -> list:
    """The product, of length size, of two dense s-polynomials; None and
    zero entries are absent terms."""
    out = [None] * size
    for x, row in zip(a, table):
        if x:
            for y, j in zip(b, row):
                if y:
                    prev = out[j]
                    out[j] = x * y if prev is None else prev + x * y
    return out


def _scalar_mul(x, y):
    """x*y, with the products by zero and by the int 1 skipped."""
    if not x or not y:
        return 0
    if type(x) is int and x == 1:
        return y
    if type(y) is int and y == 1:
        return x
    return x * y


def _expansions(basis, nvars: int, deg: int) -> list:
    """The images of the degree-deg x-monomials under
    x_i := sum_t basis[t][i]*s_t, in graded_monomials(nvars, deg) order.

    Each image is a dense list over graded_monomials(len(basis), deg), in
    which None and zero entries are absent terms.  The powers of each x_i
    are built once, and a DFS over the exponent vector shares prefix
    products, one product per node.  A point (one s) is the scalar case:
    an image is a product of coordinate powers.
    """
    svars = len(basis)
    if svars == 1:
        def mul(acc, power, a, b):
            return _scalar_mul(acc, power)

        unit, linears = 1, basis[0]
    else:
        sizes = [len(graded_monomials(svars, e)) for e in range(deg + 1)]

        def mul(acc, power, a, b):
            if not a:
                return power
            if not b:
                return acc
            return _dense_mul(acc, power, sizes[a + b],
                              _product_table(svars, a, b))

        # linears[i]: the coefficients of x_i on s_0, ..., s_(svars-1)
        unit, linears = [1], list(zip(*basis))
    pows = []
    for linear in linears:
        row = [unit]
        for e in range(deg):
            row.append(mul(row[-1], linear, e, 1))
        pows.append(row)
    out = []
    final = nvars - 1

    def descend(i, remaining, acc):
        done = deg - remaining
        if i == final:
            out.append(mul(acc, pows[i][remaining], done, remaining))
            return
        for e in range(remaining, -1, -1):
            descend(i + 1, remaining - e, mul(acc, pows[i][e], done, e))

    descend(0, deg, unit)
    return [[v] for v in out] if svars == 1 else out


@lru_cache(maxsize=256)
def _derivative_table(nvars: int, k: int, deg: int):
    """For each beta of degree k, in graded order, the pair (columns,
    scales) over the gammas of graded_monomials(nvars, deg) in order: the
    column of alpha = beta + gamma in graded_monomials(nvars, k + deg), and
    prod perm(alpha_i, beta_i), so that d^beta x^alpha = scale * x^gamma."""
    index = {alpha: j for j, alpha in enumerate(graded_monomials(nvars, k + deg))}
    gammas = graded_monomials(nvars, deg)
    table = []
    for beta in graded_monomials(nvars, k):
        columns, scales = [], []
        for gamma in gammas:
            alpha = tuple(b + c for b, c in zip(beta, gamma))
            scale = 1
            for a, b in zip(alpha, beta):
                if b:
                    scale *= perm(a, b)
            columns.append(index[alpha])
            scales.append(scale)
        table.append((tuple(columns), tuple(scales)))
    return tuple(table)


def _integral_vector(vec, order: int):
    """vec scaled to primitive integral coordinates: rational entries as
    ints, the others as CyclotomicNumbers."""
    phi = euler_phi(order)
    flat = _field_row_to_int(vec, order, phi)
    chunks = (flat[i:i + phi] for i in range(0, len(flat), phi))
    return tuple(c[0] if not any(c[1:]) else CyclotomicNumber._make(order, tuple(c))
                 for c in chunks)


def _free_columns(flat: Flat):
    """The non-pivot columns of flat.equations, ascending."""
    pivots = {next(i for i, c in enumerate(row) if c) for row in flat.equations}
    return [i for i in range(flat.ambient + 1) if i not in pivots]


def component_rows(flat: Flat, mult: int, d: int):
    """Condition rows for one (flat, multiplicity) component in degree d:
    exactly conditions_count(N, flat.dim, mult, d) rows, all independent.

    A row is the coefficient of s^mu in the order-k partial d^beta of the
    column monomials restricted to x = sum_t s_t*b_t, k = min(mult, d+1)-1.
    The span basis vector b_t has its unit at free[t], the t-th non-pivot
    column of flat.equations.  Only rows with mu[:last] = 0 are kept, last
    being the largest t with beta[free[t]] > 0 (else 0): in coordinates
    adapted to the flat they are triangular in the jets of normal order
    below mult, and span them.  Points and mult = 1 keep every row; for
    d < mult-1 the rows gamma!*e_gamma leave no form.

    The basis is scaled to integral coordinates, so the rows of a rational
    flat hold only ints, and those of a cyclotomic flat hold ints beside
    CyclotomicNumbers.  Scaling b_t by c multiplies each row by a power
    product of the c's, which changes no rank, dimension or kernel.

    As d^beta x^(beta+gamma) = prod perm(beta_i+gamma_i, beta_i) x^gamma,
    the row of (beta, mu) holds, in the column of beta + gamma, that scale
    times the coefficient of s^mu in the restriction of x^gamma, |gamma| =
    d-k.  _expansions gives those restrictions as dense lists, and
    _derivative_table, shared by every call with the same (N+1, k, d-k),
    gives the columns and scales.
    """
    nvars = flat.ambient + 1
    k = min(mult, d + 1) - 1
    svars = flat.dim + 1
    # a point keeps every row, so only a positive-dimensional flat needs free
    free = _free_columns(flat) if flat.dim else ()
    basis = [_integral_vector(vec, flat.order) for vec in flat.span_basis()]
    images = _expansions(basis, nvars, d - k)
    # by_mu[j][g]: the coefficient of the j-th s-monomial in image g
    by_mu = list(zip(*images))
    smonos = graded_monomials(svars, d - k)
    kept = [[by_mu[j] for j, mu in enumerate(smonos) if not any(mu[:last])]
            for last in range(svars)]
    ncols = len(graded_monomials(nvars, d))
    rows = []
    for beta, (columns, scales) in zip(graded_monomials(nvars, k),
                                       _derivative_table(nvars, k, d - k)):
        last = 0
        for t, i in enumerate(free):
            if beta[i]:
                last = t
        for coeffs in kept[last]:
            row = [0] * ncols
            for v, col, scale in zip(coeffs, columns, scales):
                if v:
                    row[col] = v if scale == 1 else v * scale
            rows.append(tuple(row))
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


# published generators by canonical id, in the variables x0..xN
_GENERATORS = {
    "FERMAT_DUAL(3,2)": (
        "x0*x1*x2",
        "x0^3*x2 + x1^3*x2 + x2^4",
        "x1^4*x2 + x1*x2^4",
    ),
    "FERMAT_DUAL(4,1)": (
        "x0*x1*x2",
        "x0^4*x2 + x1^4*x2 - x2^5",
        "x0^4*x1 - x1^5 + x1*x2^4",
    ),
    "BMSS_P3": (
        "x0*(x1^3 - x2^3)", "x0*(x2^3 - x3^3)",
        "x1*(x0^3 - x2^3)", "x1*(x2^3 - x3^3)",
        "x2*(x0^3 - x1^3)", "x2*(x1^3 - x3^3)",
        "x3*(x0^3 - x1^3)", "x3*(x1^3 - x2^3)",
    ),
    "LINES42": (
        "(x0^3 - x1^3)*(x2^3 - x3^3)*x0*x1",
        "(x0^3 - x1^3)*(x2^3 - x3^3)*x2*x3",
        "(x0^3 - x2^3)*(x1^3 - x3^3)*x0*x2",
        "(x0^3 - x2^3)*(x1^3 - x3^3)*x1*x3",
        "(x0^3 - x3^3)*(x1^3 - x2^3)*x0*x3",
        "(x0^3 - x3^3)*(x1^3 - x2^3)*x1*x2",
    ),
}


def _points_scheme(points, ambient: int) -> FatScheme:
    return FatScheme(ambient, [(Flat.from_point(p), 1) for p in points])


def _derived_scheme(N: int, n: int, t: int, min_hyperplanes: int) -> FatScheme:
    flats = derived_flats(fermat_arrangement(N, n, -1), t, min_hyperplanes)
    return FatScheme(N, [(fl, 1) for fl in flats])


def _parse_generators(texts, nvars: int):
    names = default_names(nvars)
    return tuple(parse_poly(t, names) for t in texts)


def _unit_points(N: int) -> list:
    """The N+1 coordinate points of P^N and the 3^N points
    (1 : e(3)^a1 : ... : e(3)^aN)."""
    powers = [CyclotomicNumber.root(3) ** a for a in range(3)]
    points = [ProjPoint(tuple(_ONE if j == i else _ZERO for j in range(N + 1)))
              for i in range(N + 1)]
    points += [ProjPoint((_ONE,) + tuple(powers[a] for a in expo))
               for expo in itertools.product(range(3), repeat=N)]
    return points


def _fermat_dual(m: int, k: int) -> FatScheme:
    if m < 1 or not 0 <= k <= 3:
        raise ValueError("FERMAT_DUAL requires m >= 1 and 0 <= k <= 3")
    return _points_scheme(dual_points(fermat_arrangement(2, m, k - 1)), 2)


def _bmss() -> FatScheme:
    """The published binomial generators are authoritative: of the unit
    points of P^3, the scheme keeps those on which they all vanish."""
    gens = _parse_generators(_GENERATORS["BMSS_P3"], 4)
    return _points_scheme([p for p in _unit_points(3)
                           if all(g.evaluate(p.coords).is_zero() for g in gens)], 3)


def _mult4_points(n: int) -> FatScheme:
    if n < 3:
        raise ValueError("MULT4_POINTS requires n >= 3")
    return _derived_scheme(2, n, 0, 2)


# head -> (number of parameters, builder of the scheme from them)
_CATALOGUE = {
    "B3_DUAL": (0, lambda: _fermat_dual(2, 3)),
    "FERMAT_DUAL": (2, _fermat_dual),
    "BMSS_P3": (0, _bmss),
    "P5_MULTI": (0, lambda: _points_scheme(_unit_points(5), 5)),
    "LINES42": (0, lambda: _derived_scheme(3, 3, 1, 3)),
    "MULT4_POINTS": (1, _mult4_points),
}


def named_configuration(spec: str) -> NamedConfig:
    """Look up a configuration by id: B3_DUAL, FERMAT_DUAL(m,k), BMSS_P3,
    P5_MULTI, LINES42, or MULT4_POINTS(n)."""
    head, params = parse_id(spec, "configuration")
    arity, build = _CATALOGUE.get(head, (None, None))
    if arity != len(params):
        raise ValueError(f"unknown configuration id {spec!r}")
    cid = f"{head}({','.join(map(str, params))})" if params else head
    scheme = build(*params)
    gens = _parse_generators(_GENERATORS.get(cid, ()), scheme.ambient + 1)
    return NamedConfig(cid, scheme, gens)


def verify_published_generators(cfg: NamedConfig) -> bool:
    """True iff every published generator vanishes identically on every
    component flat.

    A form of degree D vanishes on a flat exactly when its coefficient
    vector over graded_monomials(N+1, D) is orthogonal to every row of
    component_rows(flat, 1, D), the coefficients of its restriction to the
    flat; a point is the one-parameter case.  Each homogeneous part of a
    generator is checked against the rows of its degree, computed once per
    flat and degree, with a dot product over the part's support only.
    """
    if not cfg.published_generators:
        raise ValueError(f"{cfg.id} has no published generators")
    nvars = cfg.scheme.ambient + 1
    # by_degree[D]: the degree-D part of each generator that has one, as
    # (column in graded_monomials(nvars, D), coefficient) pairs
    by_degree: dict[int, list] = {}
    for gen in cfg.published_generators:
        parts: dict[int, list] = {}
        for e, c in gen.terms.items():
            parts.setdefault(sum(e), []).append((e, c))
        for deg, part in parts.items():
            column = {mono: j for j, mono in enumerate(graded_monomials(nvars, deg))}
            by_degree.setdefault(deg, []).append([(column[e], c) for e, c in part])
    for flat, _ in cfg.scheme.components:
        for deg, parts in by_degree.items():
            rows = component_rows(flat, 1, deg)
            for part in parts:
                for row in rows:
                    if sum((c * row[j] for j, c in part if row[j]), 0):
                        return False
    return True
