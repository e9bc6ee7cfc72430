"""Shared independent oracles for the test suite.

The chart oracle writes the condition rows of a fat flat from their
definition, in coordinates adapted to the flat.

The rank oracle avoids the library's elimination engine entirely: a matrix
over Q(e_n) is expanded entrywise into phi(n) x phi(n) rational blocks of
the regular representation, and the rank of the blown-up matrix is found by
plain dense Gaussian elimination over Fraction.  For any matrix M over the
field, rank_Q(blowup(M)) = phi(n) * rank_{Q(e_n)}(M).

The RREF oracle is plain Gauss-Jordan over Q(e_n) with the field's own
division (CyclotomicNumber.inverse), pivoting on the first nonzero entry.

general_point_count is the count of conditions one general fat point
imposes, C(N+m-1, N), which the conditions-count tests compare against.

kernel_basis is the kernel of an Eliminator's rows, read off its
canonical RREF, and kernel_of_rows the kernel of any rows, the same way;
Flat.from_equations of it is the two-RREF route to a span's equations.

The derived-flats oracle is the all-pairs descent: every flat meets every
hyperplane that does not contain it, so each meet of a flat with a
hyperplane is made from both sides.

catalogue_points lists the coordinates of 389 catalogue points, rational
and cyclotomic at orders 3, 6, 7 and 12, for the text round trips.

conditions_count_line and conditions_count_line_p3 are published closed
forms for a fat line, which agree with conditions_count only from the
threshold d >= m-1 on.

kernel_basis_rows builds a component's condition rows through the
equations' kernel basis, with its units at the free columns, and the
filter over those columns: other rows than component_rows, with the
same span.  Its basis vectors are scaled to primitive integral
coordinates by integral_vector, as a point's span vector was before
points took their basis from Eliminator.echelon like every other flat.

dense_row writes a sparse row (cols, vals), the linalg row format, out
in full for the dense oracles; flat_ints reads a row's values in the
integer coordinates the Eliminator works in, as one primitive list.

condition_rows is the full condition matrix of a scheme: every
component's component_rows, with no symmetry blocks.  rank_kernel
eliminates it in one piece and returns its kernel as polynomials.

evaluate is the value of a polynomial at a point, through
MultiPoly.partial_evaluate of every variable.

vanishes_at_points and vanishes_by_rows are the two vanishing tests that
scheme.forms_vanish replaced: a closed form substituted one point at a
time, and a form's coefficient vector dotted with the rows of each
component flat.

contains_flat, containing_hyperplanes and lattice_membership are the
incidence queries of an arrangement's intersection lattice, by dot
products of equations with span bases.

b3_quartic, quintic_curve and sextic_curve transcribe the paper's
published B3 quartic, M3 quintic and M4 sextic term by term, apart from
the library's parametric family, which the tests compare against them.
"""

from fractions import Fraction
from math import comb, gcd

from fermatarr.arrange import Flat
from fermatarr.cyclo import CyclotomicNumber, euler_phi
from fermatarr.formulas import BuiltFormula
from fermatarr.linalg import (_field_entries, _field_row_to_int, eliminate,
                              kernel_of_rref, row_dot, rref, sparse_row)
from fermatarr.mpoly import MultiPoly, graded_monomials
from fermatarr.scheme import (_derivative_table, _expansions, component_rows,
                              named_configuration)


def dense_row(row, ncols: int) -> list:
    """A sparse row (cols, vals) as a dense list of ncols entries."""
    out = [0] * ncols
    for c, v in zip(*row):
        out[c] = v
    return out


def flat_ints(row, ncols: int, order: int) -> list:
    """The ncols*phi integer coordinates of a sparse row over Q(e_order),
    the phi coefficients of each entry in turn, divided by their positive
    content."""
    coeffs, cols = _field_row_to_int(row, order, euler_phi(order))
    g = gcd(*coeffs)
    return dense_row((cols, [v // g for v in coeffs]), ncols * euler_phi(order))


def integral_vector(vec, order: int) -> tuple:
    """vec scaled to primitive integral coordinates: rational entries as
    ints, the others as CyclotomicNumbers."""
    vals = flat_ints(sparse_row(vec), len(vec), order)
    return tuple(_field_entries(vals, order, euler_phi(order)))


def regular_block(value: CyclotomicNumber):
    """phi x phi rational matrix of multiplication by value on the power
    basis 1, e, ..., e^(phi-1)."""
    order = value.order
    phi = len(value.coeffs)
    cols = []
    for t in range(phi):
        prod = value * CyclotomicNumber.root(order, t) if order > 1 else value
        cols.append(prod.coeffs)
    return [[cols[t][s] for t in range(phi)] for s in range(phi)]


def blowup_rows(field_rows, order: int):
    """Expand rows over Q(e_order) into phi-times-as-many rational rows.
    Entries are CyclotomicNumbers or ints."""
    phi = euler_phi(order)
    out = []
    for row in field_rows:
        blocks = [regular_block(v.lift(order) if isinstance(v, CyclotomicNumber)
                                else CyclotomicNumber.from_rational(v, order))
                  for v in row]
        for s in range(phi):
            out.append([b[s][t] for b in blocks for t in range(phi)])
    return out


def rational_rank(rows) -> int:
    """Dense Gaussian elimination over Fraction."""
    rows = [[Fraction(v) for v in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def field_rref_oracle(field_rows, ncols: int, order: int):
    """(pivot_cols, rows) of the reduced row echelon form over Q(e_order),
    by Gauss-Jordan elimination with field division.  Entries are
    CyclotomicNumbers, ints or Fractions."""
    rows = [[v.lift(order) if isinstance(v, CyclotomicNumber)
             else CyclotomicNumber.from_rational(v, order) for v in row]
            for row in field_rows]
    pivot_cols = []
    for col in range(ncols):
        rank = len(pivot_cols)
        piv = next((i for i in range(rank, len(rows))
                    if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [v * inv for v in rows[rank]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != rank and not f.is_zero():
                rows[i] = [a - f * b for a, b in zip(row, rows[rank])]
        pivot_cols.append(col)
    return pivot_cols, [tuple(row) for row in rows[:len(pivot_cols)]]


def field_rank_oracle(field_rows, order: int) -> int:
    """Rank over Q(e_order) via the rational blow-up."""
    rows = blowup_rows(field_rows, order)
    r = rational_rank(rows)
    phi = euler_phi(order)
    assert r % phi == 0, "blow-up rank must be divisible by phi"
    return r // phi


def chart_rows(flat, m: int, d: int):
    """Condition rows of a multiplicity-m flat on degree-d forms, by
    definition: substitute x = sum_t s_t*b_t + sum_j u_j*e_j, with b_t the
    span basis and j over the pivot columns of flat.equations, into each
    column monomial, and keep the coefficients of u^beta*s^mu, |beta| < m."""
    nvars = flat.ambient + 1
    basis = flat.span_basis()
    pivots = [next(i for i, c in enumerate(row) if c) for row in flat.equations]
    matrix = [[b[i] for b in basis] + [int(i == j) for j in pivots]
              for i in range(nvars)]
    images = [MultiPoly(nvars, {alpha: 1}).substitute_linear(matrix)
              for alpha in graded_monomials(nvars, d)]
    return [tuple(img.terms.get(e, 0) for img in images)
            for e in graded_monomials(nvars, d) if sum(e[len(basis):]) < m]


def kernel_basis_rows(flat, mult: int, d: int):
    """The rows (beta, mu) of component_rows, k = min(mult, d+1)-1, for
    the span basis b_t with its unit at free[t], the t-th free column of
    flat.equations, keeping mu[:last] = 0 for last the largest t with
    beta[free[t]] > 0 (else 0); in graded order of beta, then mu, as
    sparse rows."""
    nvars = flat.ambient + 1
    k = min(mult, d + 1) - 1
    pivots = {next(i for i, c in enumerate(row) if c) for row in flat.equations}
    free = [i for i in range(nvars) if i not in pivots]
    basis = [integral_vector(vec, flat.order) for vec in flat.span_basis()]
    by_mu = list(zip(*_expansions(basis, nvars, d - k)))
    smonos = graded_monomials(flat.dim + 1, d - k)
    rows = []
    for beta, (columns, scales) in zip(graded_monomials(nvars, k),
                                       _derivative_table(nvars, k, d - k)):
        last = max((t for t, i in enumerate(free) if beta[i]), default=0)
        for coeffs, mu in zip(by_mu, smonos):
            if not any(mu[:last]):
                rows.append(tuple(zip(*[(col, v * scale) for v, col, scale
                                        in zip(coeffs, columns, scales) if v])))
    return rows


def general_point_count(N: int, m: int) -> int:
    """Conditions expected from one general fat point: C(N+m-1, N)."""
    return comb(N + m - 1, N)


def kernel_basis(elim):
    """Basis of the kernel of an Eliminator's rows, one vector per free
    column of its canonical RREF."""
    return kernel_of_rref(elim.reduced()[1], elim.ncols, elim.order)


def kernel_of_rows(rows, ncols: int, order: int):
    """Basis of {v : row . v = 0 for all rows}, from the canonical RREF."""
    return kernel_of_rref(rref(rows, ncols, order)[1], ncols, order)


def all_pairs_derived_counts(arr, t: int) -> dict:
    """Every t-dimensional lattice flat of arr, mapped to the number of
    hyperplanes containing it: a flat carries the indices of the
    hyperplanes met on the way to it and meets every other hyperplane."""
    hyps = arr.hyperplanes
    current = {h: {i} for i, h in enumerate(hyps)}
    for _ in range(arr.N - 1 - t):
        nxt = {}
        for fl, on in current.items():
            for i, h in enumerate(hyps):
                if i not in on:
                    below = Flat.from_equations(fl.equations + h.equations)
                    nxt.setdefault(below, set()).update(on, (i,))
        current = nxt
    return {fl: len(on) for fl, on in current.items()}


def catalogue_points() -> list:
    return [fl.point() for cid in ("B3_DUAL", "FERMAT_DUAL(7,3)", "FERMAT_DUAL(12,1)",
                                   "BMSS_P3", "MULT4_POINTS(6)", "P5_MULTI")
            for fl, _ in named_configuration(cid).scheme.components]


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


def condition_rows(Z, d: int) -> list:
    """The degree-d condition rows of every component of Z, in Z's order."""
    return [row for flat, mult in Z.components
            for row in component_rows(flat, mult, d)]


def rank_kernel(Z, d: int):
    """Exact rank and kernel basis (as polynomials) of condition_rows(Z, d)."""
    nvars = Z.ambient + 1
    monos = graded_monomials(nvars, d)
    elim = eliminate(condition_rows(Z, d), len(monos), Z.root_order)
    kernel = [MultiPoly(nvars, {m: c for m, c in zip(monos, vec) if c})
              for vec in kernel_basis(elim)]
    return elim.rank, kernel


def evaluate(poly: MultiPoly, coords) -> CyclotomicNumber:
    coords = list(coords)
    assert len(coords) == poly.nvars
    value = poly.partial_evaluate(dict(enumerate(coords)))
    return value.terms.get((0,) * poly.nvars, CyclotomicNumber.zero())


def vanishes_at_points(form: BuiltFormula, Z) -> bool:
    """Whether the closed form is zero, as a polynomial in the point
    variables, at each point of the point set Z, substituted through
    MultiPoly.partial_evaluate."""
    assert all(fl.dim == 0 for fl, _ in Z.components), "not a point set"
    np_ = form.npoint
    return all(form.poly.partial_evaluate(
        {np_ + i: v for i, v in enumerate(fl.point())}).is_zero()
        for fl, _ in Z.components)


def vanishes_by_rows(poly: MultiPoly, npoint: int, Z) -> bool:
    """Whether poly, in npoint parameter variables followed by the
    coordinates of P^N, vanishes on every component flat of Z for all
    parameter values: each row of component_rows(flat, 1, D), dotted with
    the coefficients of the degree-D coordinate monomials, leaves the zero
    polynomial in the parameters."""
    nvars = Z.ambient + 1
    by_degree = {}
    for e, c in poly.terms.items():
        by_degree.setdefault(sum(e[npoint:]), []).append((e[:npoint], e[npoint:], c))
    for flat, _ in Z.components:
        for deg, terms in by_degree.items():
            column = {mono: j for j, mono in enumerate(graded_monomials(nvars, deg))}
            for row in component_rows(flat, 1, deg):
                entries = dict(zip(*row))
                acc = {}
                for alpha, beta, c in terms:
                    if column[beta] in entries:
                        acc[alpha] = acc.get(alpha, 0) + c * entries[column[beta]]
                if any(acc.values()):
                    return False
    return True


def contains_flat(outer: Flat, inner: Flat) -> bool:
    """Whether every equation of outer vanishes on the span of inner."""
    return all(row_dot(row, vec).is_zero()
               for vec in inner.span_basis() for row in outer.equations)


def containing_hyperplanes(arr, fl: Flat) -> list:
    """Arrangement hyperplanes whose form vanishes on the whole flat."""
    return [h for h in arr.hyperplanes if contains_flat(h, fl)]


def lattice_membership(arr, fl: Flat):
    """(member, containing_count): member iff the flat equals the meet of
    all arrangement hyperplanes containing it."""
    containing = containing_hyperplanes(arr, fl)
    if not containing:
        return False, 0
    meet = Flat.from_equations([h.equations[0] for h in containing])
    return meet == fl, len(containing)


def _paper_form(family: str, config_id: str, degree: int, poly) -> BuiltFormula:
    return BuiltFormula(family, config_id, npoint=3, ncoord=3, degree=degree,
                        multiplicity=degree - 1, poly=poly)


def b3_quartic() -> BuiltFormula:
    """Degree-4 curve with a triple general point on the B3 dual points."""
    a, b, c, x, y, z = (MultiPoly.variable(i, 6) for i in range(6))
    q = (3 * a * (b**2 - c**2) * x**2 * y * z
         + 3 * b * (c**2 - a**2) * x * y**2 * z
         + 3 * c * (a**2 - b**2) * x * y * z**2
         + a**3 * (y**3 * z - y * z**3)
         + b**3 * (x * z**3 - x**3 * z)
         + c**3 * (x**3 * y - x * y**3))
    return _paper_form("B3", "B3_DUAL", 4, q)


def quintic_curve() -> BuiltFormula:
    """Degree-5 curve with a 4-fold general point for the 11-point dual of
    the order-3 arrangement with two coordinate lines."""
    a, b, c, x0, x1, x2 = (MultiPoly.variable(i, 6) for i in range(6))
    q = (a**4 * x1 * x2 * (x1**3 + x2**3)
         + b**4 * x0 * x2 * (x0**3 + x2**3)
         + c**4 * x0 * x1 * (x0**3 + x1**3)
         - 4 * a * (b**3 + c**3) * x0**3 * x1 * x2
         - 4 * b * (a**3 + c**3) * x0 * x1**3 * x2
         - 4 * c * (a**3 + b**3) * x0 * x1 * x2**3
         + 6 * a**2 * b**2 * x0**2 * x1**2 * x2
         + 6 * a**2 * c**2 * x0**2 * x1 * x2**2
         + 6 * b**2 * c**2 * x0 * x1**2 * x2**2)
    return _paper_form("M3", "FERMAT_DUAL(3,2)", 5, q)


def sextic_curve() -> BuiltFormula:
    """Degree-6 curve with a 5-fold general point for the 13-point dual of
    the order-4 arrangement with one coordinate line."""
    a, b, c, x0, x1, x2 = (MultiPoly.variable(i, 6) for i in range(6))
    q = (a**5 * x1 * x2 * (x1**4 - x2**4)
         + b**5 * x0 * x2 * (x2**4 - x0**4)
         + c**5 * x0 * x1 * (x0**4 - x1**4)
         + 10 * a**3 * x0**2 * x1 * x2 * (b**2 * x1**2 - c**2 * x2**2)
         + 10 * b**3 * x0 * x1**2 * x2 * (c**2 * x2**2 - a**2 * x0**2)
         + 10 * c**3 * x0 * x1 * x2**2 * (a**2 * x0**2 - b**2 * x1**2)
         + 5 * a * (b**4 - c**4) * x0**4 * x1 * x2
         + 5 * b * (c**4 - a**4) * x0 * x1**4 * x2
         + 5 * c * (a**4 - b**4) * x0 * x1 * x2**4)
    return _paper_form("M4", "FERMAT_DUAL(4,1)", 6, q)
