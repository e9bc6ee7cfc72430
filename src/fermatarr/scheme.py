"""Fat flat schemes, named configurations, and condition-row generation.

A FatScheme is a list of (flat, multiplicity) components in P^N.  Vanishing
to order m along a flat is encoded by the order-(m-1) partial derivatives
of the generic degree-d form, restricted to a parametrization of the flat:
in characteristic 0 the Euler identity makes the top-order partials
sufficient, and conditions_count independent ones are kept, which the
test suite checks against jets in coordinates adapted to the flat.

The rows are read off two tables.  The restrictions of the x-monomials
to the flat, through a row echelon basis of its span so that the rows of
one component have distinct leads, are dense lists over the monomials in
the flat's parameters, built by a DFS that shares prefix products; a
point has one parameter, so there they are plain products of coordinate
powers.  The columns and
falling-factorial scales of the partials depend only on the number of
variables, the derivative order and the degree, so one bounded cache
holds them for every component, degree and trial.

A ConditionMatrix holds the degree-d conditions of a scheme in the
character blocks of its diagonal roots-of-unity symmetries; it gives the
rank, RREF and kernel of the full matrix, and membership in (I_Z)_d, the
one test that a form vanishes on a scheme.

Named configurations ship the published ideal generators where available,
used as cross-checks against the first-principles construction.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, lcm, perm

from .arrange import (BudgetError, Flat, check_flat_budget, derived_flats,
                      dual_points, fermat_arrangement, parse_id)
from .cyclo import CyclotomicNumber, euler_phi
from .linalg import Eliminator, eliminate, row_dot, sparse_row
from .mpoly import (MultiPoly, default_names, format_point, graded_monomials,
                    parse_point, parse_poly)

_ZERO = CyclotomicNumber.zero()
_ONE = CyclotomicNumber.one()


class FatScheme:
    """Mutually distinct flats in P^N with positive multiplicities."""

    __slots__ = ("ambient", "components", "root_order", "_group")

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
        object.__setattr__(self, "_group", None)

    def __setattr__(self, name, value):
        raise AttributeError("FatScheme is immutable")

    def __len__(self):
        return len(self.components)

    def symmetry(self):
        """_symmetry of the scheme, (gens, reps), computed once, on first use."""
        if self._group is None:
            object.__setattr__(self, "_group", _symmetry(self))
        return self._group

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
        return f"point {format_point(flat.point())}"
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
    return poly.coeff_vector(graded_monomials(poly.nvars, 1))


def parse_scheme(text: str) -> FatScheme:
    """Parse the line-oriented scheme format written by format_scheme."""
    ambient = None
    components = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        words = line.split()
        try:
            if words[0] == "ambient":
                if len(words) != 2:
                    raise ValueError("expected 'ambient N'")
                ambient = int(words[1])
                if ambient < 1:
                    raise ValueError("the ambient dimension must be >= 1")
                if any(fl.ambient != ambient for fl in components):
                    raise ValueError("component ambient mismatch")
                continue
            if not re.match(r"(point|flat)\b", line):
                raise ValueError(f"unknown line kind {words[0]!r}: expected "
                                 f"'ambient N', 'point ...' or 'flat ...'")
            if "mult" not in line:
                raise ValueError("expected a component line ending in 'mult M'")
            body, mult_text = line.rsplit("mult", 1)
            try:
                mult = int(mult_text)
            except ValueError:
                raise ValueError(f"bad multiplicity {mult_text.strip()!r}: "
                                 f"expected 'mult M'") from None
            body = body.strip()
            if body.startswith("point"):
                pt = parse_point(body[len("point"):].strip())
                if ambient is None:
                    ambient = len(pt) - 1
                flat = Flat.from_point(pt)
            else:
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
    return sum(_binom(d - i + r, r) * _binom(N - r - 1 + i, i)
               for i in range(min(m, d + 1)))  # the terms i > d are 0


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


def component_rows(flat: Flat, mult: int, d: int):
    """Condition rows for one (flat, multiplicity) component in degree d:
    exactly conditions_count(N, flat.dim, mult, d) rows, all independent,
    each a sparse row (cols, vals) of its nonzero monomial columns,
    ascending, and their values (the linalg row format).

    A row is the coefficient of s^mu in the order-k partial d^beta of the
    column monomials restricted to x = sum_t s_t*b_t, k = min(mult, d+1)-1.
    The b_t are a row echelon basis of the flat's span with rational
    leads (Eliminator.echelon), a point's single b_0 among them: b_t is 0
    before its lead column l_t, the l_t increase and b_t[l_t] is a
    positive int.  Only rows with mu[:last] = 0 are kept, last being the
    largest t with beta[l_t] > 0 (else 0).  Their leads are distinct
    (below), so they are independent, and there are conditions_count of
    them, the rank of all the rows, so they span the conditions.  Points
    and mult = 1 keep every row; for d < mult-1 the rows gamma!*e_gamma
    leave no form.

    Columns are in graded lex order, x0 first, so the first nonzero of
    the row of (beta, mu) is in the column alpha = beta + sum_t
    mu_t*e_(l_t), where it holds a scale times prod b_t[l_t]^mu_t, a
    nonzero int.  On the kept rows alpha determines (beta, mu): beta is
    alpha off the leads, and on them takes alpha's entries in order of t
    until its degree is k.  So every row of a component brings a lead
    that no other row of it has, and the Eliminator stores each as its
    pivot as it stands; the lead entry is rational, so each e-multiple
    of a row brings a fresh rational lead as well and is stored the same
    way.

    The basis is in integral coordinates, so the rows of a rational flat
    hold only ints, and those of a cyclotomic flat hold ints beside
    CyclotomicNumbers.  Another basis of the same span changes the rows
    but not their span, so no rank, dimension or kernel.

    As d^beta x^(beta+gamma) = prod perm(beta_i+gamma_i, beta_i) x^gamma,
    the row of (beta, mu) holds, in the column of beta + gamma, that scale
    times the coefficient of s^mu in the restriction of x^gamma, |gamma| =
    d-k.  _expansions gives those restrictions as dense lists, and
    _derivative_table, shared by every call with the same (N+1, k, d-k),
    gives the columns and scales.  The columns of one beta ascend with
    gamma, since graded lex order is compatible with adding beta, so a
    row's nonzero columns come out ascending.

    The rows come last beta first and, within one beta, last mu first: the
    reverse of graded order.  Within a component the order does not
    matter, but across components a row's first nonzero then tends to
    come before the leads accepted so far, so the Eliminator applies
    fewer pivots: 346 against 358 on LINES42 at d = 8.
    """
    nvars = flat.ambient + 1
    k = min(mult, d + 1) - 1
    svars = flat.dim + 1
    leads, basis = eliminate(map(sparse_row, flat.span_basis()), nvars,
                             flat.order).echelon()
    images = _expansions(basis, nvars, d - k)
    # by_mu[j][g]: the coefficient of the j-th s-monomial in image g
    by_mu = list(zip(*images))
    smonos = graded_monomials(svars, d - k)
    kept = [[by_mu[j] for j, mu in enumerate(smonos) if not any(mu[:last])]
            for last in range(svars)]
    rows = []
    for beta, (columns, scales) in zip(graded_monomials(nvars, k),
                                       _derivative_table(nvars, k, d - k)):
        last = 0
        for t, i in enumerate(leads):
            if beta[i]:
                last = t
        for coeffs in kept[last]:
            # coeffs holds None or 0 for an absent term; compress drops both
            terms = itertools.compress(zip(coeffs, scales), coeffs)
            rows.append((tuple(itertools.compress(columns, coeffs)),
                         tuple([v if scale == 1 else v * scale for v, scale in terms])))
    rows.reverse()
    return rows


# ---------------------------------------------------------------------------
# Condition matrices

# The one bound on the size of an elimination, checked before any row is
# built: at most MATRIX_BUDGET monomial columns C(N+d, N), and at most
# MATRIX_BUDGET rational entries rows x columns x phi, over every trial of
# a decision.  The largest matrices of the test suite and the benchmark
# hold under 10**6 entries.  arrange.FLAT_BUDGET is its sibling for the
# flats an arrangement id builds.
MATRIX_BUDGET = 10**8


def check_budget(Z: FatScheme, d: int, extra_rows: int = 0,
                 trials: int = 1) -> None:
    """Refuse the degree-d condition matrix of Z, with extra_rows more
    rows, or trials such matrices, if they exceed MATRIX_BUDGET; the sizes
    are counted, not built."""
    N = Z.ambient
    ncols = comb(N + d, N)
    nrows = extra_rows + sum(conditions_count(N, flat.dim, m, d)
                             for flat, m in Z.components)
    phi = euler_phi(Z.root_order)
    if max(ncols, trials * nrows * ncols * phi) > MATRIX_BUDGET:
        each = f"{trials} trials x " if trials > 1 else ""
        raise BudgetError(
            f"degree {d} on P^{N} needs {each}{nrows} rows x {ncols} columns "
            f"x phi {phi}, over the matrix budget MATRIX_BUDGET = "
            f"{MATRIX_BUDGET} (columns, and {each and 'trials x '}rows x "
            f"columns x phi)")


def _key(rows) -> tuple:
    """An exact key of equation rows whose entries share one order."""
    return tuple((c.num, c.den) for row in rows for c in row)


def _symmetry(Z: FatScheme):
    """(gens, reps): the coordinates i in 1..N whose generator g_i =
    diag(1, ..., e(n) at i, ..., 1), n = Z.root_order, maps the components
    of Z to themselves with their multiplicities, and one component per
    orbit of the group they generate, the first of each in Z's order.

    g_i moves a flat through its equations: a row r becomes r_j * s_lead
    / s_j for the diagonal s of g_i.  The zero pattern stays, and so does
    each lead 1, so the rows are still the canonical RREF of the image,
    looked up by its exact key at order n.  A scheme of root order 1 has
    only the trivial group."""
    comps, n = Z.components, Z.root_order
    if n == 1:
        return (), comps
    w, w_inv = CyclotomicNumber.root(n), CyclotomicNumber.root(n, -1)
    lifted = [[[c.lift(n) for c in row] for row in flat.equations]
              for flat, _ in comps]
    index = {_key(rows): k for k, rows in enumerate(lifted)}
    gens, perms = [], []
    for i in range(1, Z.ambient + 1):
        perm = []
        for rows, (_, mult) in zip(lifted, comps):
            image = []
            for row in rows:
                if next(j for j, c in enumerate(row) if c) == i:
                    row = [c * w if c and j != i else c
                           for j, c in enumerate(row)]
                elif row[i]:
                    row = row[:i] + [row[i] * w_inv] + row[i + 1:]
                image.append(row)
            k = index.get(_key(image))
            if k is None or comps[k][1] != mult:
                break
            perm.append(k)
        else:
            gens.append(i)
            perms.append(perm)
    seen = [False] * len(comps)
    reps = []
    for start in range(len(comps)):
        if seen[start]:
            continue
        reps.append(comps[start])
        seen[start] = True
        stack = [start]
        while stack:
            k = stack.pop()
            for perm in perms:
                if not seen[perm[k]]:
                    seen[perm[k]] = True
                    stack.append(perm[k])
    return tuple(gens), tuple(reps)


@dataclass(frozen=True)
class ConditionMatrix:
    """The degree-d conditions of a fat scheme Z: ncols monomial columns in
    graded lex order, split into blocks by character, and the rows over
    Q(e_order) of one component per orbit of Z.symmetry().

    (I_Z)_d is stable under the group G of the generators, so it is the
    direct sum of its parts in the character blocks: the spans of the
    monomials x^beta with one key (beta_i mod n over the generators i).
    For f in a block, g*f is a multiple of f, so f vanishes to order m at
    g*p exactly when it does at p: each block needs only the rows of the
    representatives, restricted to its columns.  So the joined block
    pivots span the row space of the full condition matrix, with the same
    rank, canonical RREF and kernel, and a form lies in (I_Z)_d exactly
    when the rows annihilate each of its block parts."""

    ncols: int
    order: int
    blocks: list
    rows: list

    @classmethod
    def from_scheme(cls, Z: FatScheme, d: int) -> "ConditionMatrix":
        """Refused over MATRIX_BUDGET before any row is built."""
        check_budget(Z, d)
        gens, reps = Z.symmetry()
        N, order = Z.ambient, Z.root_order
        blocks: dict[tuple, list] = {}
        for col, beta in enumerate(graded_monomials(N + 1, d)):
            blocks.setdefault(tuple(beta[i] % order for i in gens), []).append(col)
        rows = [row for flat, mult in reps for row in component_rows(flat, mult, d)]
        return cls(comb(N + d, N), order, list(blocks.values()), rows)

    def _where(self) -> list:
        """For each column, its (block index, column within the block)."""
        where = [None] * self.ncols
        for b, cols in enumerate(self.blocks):
            for local, c in enumerate(cols):
                where[c] = b, local
        return where

    def eliminator(self) -> Eliminator:
        """One Eliminator per block, fed each row's block parts, joined.
        A row is split through its nonzeros only, into sparse rows whose
        local columns ascend with the row's."""
        parts = [(Eliminator(len(cols), self.order), cols) for cols in self.blocks]
        where = self._where()
        for cols, vals in self.rows:
            split: dict[int, tuple] = {}
            for c, v in zip(cols, vals):
                b, local = where[c]
                part = split.get(b)
                if part is None:
                    part = split[b] = [], []
                part[0].append(local)
                part[1].append(v)
            for b, part in split.items():
                elim = parts[b][0]
                if elim.rank < elim.ncols:  # a full block takes no more rows
                    elim.add_field_row(part)
        return Eliminator.join(parts, self.ncols, self.order)

    def contains(self, vec) -> bool:
        """Whether the form with coefficient vector vec lies in (I_Z)_d: the
        rows annihilate each block part of vec, each row dotted only over
        its nonzeros where vec is nonzero too."""
        where = self._where()
        for cols, vals in self.rows:
            split: dict[int, tuple] = {}
            for c, v in zip(cols, vals):
                x = vec[c]
                if x:
                    b = where[c][0]
                    part = split.get(b)
                    if part is None:
                        part = split[b] = [], []
                    part[0].append(v)
                    part[1].append(x)
            if not all(row_dot(a, x).is_zero() for a, x in split.values()):
                return False
        return True


def forms_vanish(Z: FatScheme, forms) -> bool:
    """Whether every form in x0..xN vanishes on the support of Z, its flats
    at multiplicity 1: each homogeneous part, of degree D, must lie in
    (I_support)_D, by the contains of one ConditionMatrix per degree."""
    if any(mult != 1 for _, mult in Z.components):
        Z = FatScheme(Z.ambient, [(flat, 1) for flat, _ in Z.components])
    matrices: dict[int, ConditionMatrix] = {}
    for form in forms:
        parts: dict[int, dict] = {}
        for e, c in form.terms.items():
            parts.setdefault(sum(e), {})[e] = c
        for deg, part in parts.items():
            if deg not in matrices:
                matrices[deg] = ConditionMatrix.from_scheme(Z, deg)
            vec = [part.get(mono, 0) for mono in graded_monomials(Z.ambient + 1, deg)]
            if not matrices[deg].contains(vec):
                return False
    return True


# ---------------------------------------------------------------------------
# Named configurations

class NamedConfig:
    """A scheme from the catalogue plus its published ideal generators.

    Unless they are given, the generators are those _GENERATORS lists for
    the id, parsed the first time published_generators is read."""

    __slots__ = ("id", "scheme", "_generators")

    def __init__(self, id: str, scheme: FatScheme, published_generators=None):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "_generators", None if published_generators is None
                           else tuple(published_generators))

    def __setattr__(self, name, value):
        raise AttributeError("NamedConfig is immutable")

    @property
    def published_generators(self) -> tuple:
        if self._generators is None:
            names = default_names(self.scheme.ambient + 1)
            object.__setattr__(self, "_generators", tuple(
                parse_poly(t, names) for t in _GENERATORS.get(self.id, ())))
        return self._generators

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
    check_flat_budget(N, n, -1, t)
    flats = derived_flats(fermat_arrangement(N, n, -1), t, min_hyperplanes)
    return FatScheme(N, [(fl, 1) for fl in flats])


def _unit_points(N: int) -> list:
    """The N+1 coordinate points of P^N and the 3^N points
    (1 : e(3)^a1 : ... : e(3)^aN).  For N = 3 they are the 31 points of
    BMSS_P3, on which verify_published_generators checks that its 8
    published quartics vanish."""
    powers = [CyclotomicNumber.root(3) ** a for a in range(3)]
    points = [tuple(_ONE if j == i else _ZERO for j in range(N + 1))
              for i in range(N + 1)]
    points += [(_ONE,) + tuple(powers[a] for a in expo)
               for expo in itertools.product(range(3), repeat=N)]
    return points


def _fermat_dual(m: int, k: int) -> FatScheme:
    if m < 1 or not 0 <= k <= 3:
        raise ValueError("FERMAT_DUAL requires m >= 1 and 0 <= k <= 3")
    return _points_scheme(dual_points(fermat_arrangement(2, m, k - 1)), 2)


def _mult4_points(n: int) -> FatScheme:
    if n < 3:
        raise ValueError("MULT4_POINTS requires n >= 3")
    return _derived_scheme(2, n, 0, 2)


# head -> (number of parameters, builder of the scheme from them)
_CATALOGUE = {
    "B3_DUAL": (0, lambda: _fermat_dual(2, 3)),
    "FERMAT_DUAL": (2, _fermat_dual),
    "BMSS_P3": (0, lambda: _points_scheme(_unit_points(3), 3)),
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
    return NamedConfig(cid, build(*params))


def verify_published_generators(cfg: NamedConfig) -> bool:
    """True iff every published generator vanishes identically on every
    component flat, checked by forms_vanish."""
    if not cfg.published_generators:
        raise ValueError(f"{cfg.id} has no published generators")
    return forms_vanish(cfg.scheme, cfg.published_generators)
