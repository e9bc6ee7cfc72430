"""Fermat-type hyperplane arrangements and their derived configurations.

Builds the extended Fermat arrangements in P^N over Q(e(n)), enumerates
monomial reflection groups G(n, p, N+1), extracts reflection hyperplanes,
dualizes arrangements to point sets, and closes arrangements under
intersection to produce derived flats with containment bookkeeping.

Flats are stored by their defining linear equations in reduced row echelon
form, so equality and hashing are structural.  A hyperplane is a flat of
codimension 1 and a point one of dimension 0, whose coordinates are a
plain tuple (Flat.point, Flat.from_point).
"""

from __future__ import annotations

import itertools
from math import comb, factorial

from .cyclo import CyclotomicNumber, as_field, common_order, euler_phi
from .linalg import kernel_of_rref, row_dot, rref
from .mpoly import MultiPoly

_ZERO = CyclotomicNumber.zero()
_ONE = CyclotomicNumber.one()

GROUP_ORDER_CAP = 100_000

# The bound on the flats one arrangement id builds, the sibling of
# scheme.MATRIX_BUDGET, checked from closed forms before any flat is made.
# Each flat is the RREF of a few equation rows over Q(e_n) in P^N, and the
# Eliminator holds one such row as phi(n) rational rows of (N+1)*phi(n)
# entries; a build may hold at most FLAT_BUDGET of those entries over all
# its rows.  The largest builds of the test suite, the derived points of
# A(5,0,2) and A(5,1,2), hold about 1.4 * 10**5, and MULT4_POINTS(24)
# about 10**6.
FLAT_BUDGET = 10**8


class BudgetError(ValueError):
    """Raised when a build or a condition matrix would exceed its budget."""


def check_flat_budget(N: int, n: int, k: int, t: int | None = None) -> None:
    """Check the parameters of A(N+1, k+1, n), and refuse it if building
    its hyperplanes, their dual points and, unless t is None, the descent
    of derived_flats to its t-flats would hold more than FLAT_BUDGET
    rational entries.  The sizes are counted, not built.

    There are H = n*C(N+1, 2) + k + 1 hyperplanes and one dual point per
    hyperplane, one equation row each.  A meet at codimension c has c
    rows, and the descent makes at most C(H, c) meets there: a meet (G, i)
    has i above every index G carries, so the c-set of i and a basis of
    G's hyperplanes has i as its largest element and determines (G, i).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not -1 <= k <= N:
        raise ValueError("k must be in -1..N")
    if t is not None and not 0 <= t <= N - 1:
        raise ValueError(f"the flat dimension must lie in [0, {N - 1}]")
    hyps = n * comb(N + 1, 2) + k + 1
    rows = 2 * hyps
    # phi(n) >= 1, so once the rows alone are over the budget, neither the
    # deeper levels nor phi(n) need counting
    for c in range(2, N - t + 1 if t is not None else 2):
        if rows * (N + 1) > FLAT_BUDGET:
            break
        rows += c * comb(hyps, c)
    size = rows * (N + 1)
    if size <= FLAT_BUDGET:
        size *= euler_phi(n) ** 2
    if size > FLAT_BUDGET:
        below = f" down to its {t}-flats" if t is not None else ""
        raise BudgetError(
            f"A({N + 1},{k + 1},{n}){below} needs more than the flat budget "
            f"FLAT_BUDGET = {FLAT_BUDGET} rational entries (equation rows "
            f"x {N + 1} columns x phi({n})^2)")


def _cyc_key(value: CyclotomicNumber):
    # Deterministic total order on field elements.  Rational values key at
    # order 1 regardless of representation; non-rational values key by
    # their stored order, which is consistent within one arrangement.  The
    # coefficients are ints when the denominator is 1, which compare as
    # their Fractions do, only faster.
    coeffs = value.num if value.den == 1 else value.coeffs
    if value.is_rational():
        return (1, coeffs[:1])
    return (value.order, coeffs)


def _row_key(row):
    return tuple(_cyc_key(v) for v in row)


class Arrangement:
    """A finite set of distinct hyperplanes of the Fermat family in P^N.

    Each hyperplane is a codimension-1 Flat; its one RREF row, led by 1,
    is the linear form defining it."""

    __slots__ = ("N", "n", "k", "hyperplanes")

    def __init__(self, N: int, n: int, k: int, hyperplanes):
        hyps = list(hyperplanes)
        if len(set(hyps)) != len(hyps):
            raise ValueError("hyperplanes must be mutually distinct")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "hyperplanes", tuple(hyps))

    def __setattr__(self, name, value):
        raise AttributeError("Arrangement is immutable")

    def __len__(self):
        return len(self.hyperplanes)

    def defining_polynomial(self) -> MultiPoly:
        poly = MultiPoly.constant(1, self.N + 1)
        for h in self.hyperplanes:
            poly = poly * h.equation_polys()[0]
        return poly

    def __repr__(self):
        return f"Arrangement(N={self.N}, n={self.n}, k={self.k}, {len(self)} hyperplanes)"


def fermat_arrangement(N: int, n: int, k: int) -> Arrangement:
    """All hyperplanes x_i - e(n)^a x_j (i < j, a in [n]) plus x_0..x_k.

    k = -1 includes no coordinate hyperplanes.  The hyperplane count is
    n*C(N+1,2) + k + 1; check_flat_budget refuses an oversize one first.
    """
    check_flat_budget(N, n, k)
    hyps = []
    for i in range(k + 1):
        form = [_ZERO] * (N + 1)
        form[i] = _ONE
        hyps.append(Flat.from_equations([form]))
    for i in range(N + 1):
        for j in range(i + 1, N + 1):
            for a in range(n):
                form = [_ZERO] * (N + 1)
                form[i] = _ONE
                form[j] = -CyclotomicNumber.root(n, a)
                hyps.append(Flat.from_equations([form]))
    arr = Arrangement(N, n, k, hyps)
    assert len(arr) == n * comb(N + 1, 2) + k + 1
    return arr


def format_spec(arr: Arrangement) -> str:
    return f"A({arr.N + 1},{arr.k + 1},{arr.n})"


def parse_id(spec: str, noun: str) -> tuple[str, tuple[int, ...]]:
    """Split an id HEAD or HEAD(p, ...) into its upper-case head and int
    parameters; noun names the kind of id in error messages."""
    text = spec.strip()
    if "(" in text:
        head, _, tail = text.partition("(")
        if not tail.endswith(")"):
            raise ValueError(f"bad {noun} id {spec!r}")
        try:
            params = tuple(int(p) for p in tail[:-1].split(","))
        except ValueError:
            raise ValueError(f"bad {noun} parameters in {spec!r}") from None
    else:
        head, params = text, ()
    return head.strip().upper(), params


def parse_spec(text: str, t: int | None = None) -> Arrangement:
    """Parse an arrangement spec string A(N+1, k+1, n); the head is
    case-insensitive.  With t, the descent to its derived t-flats is
    checked against FLAT_BUDGET before any hyperplane is built."""
    head, params = parse_id(text, "arrangement")
    if head != "A" or len(params) != 3:
        raise ValueError(f"bad arrangement spec {text!r}: expected A(N+1,k+1,n)")
    n1, k1, n = params
    if t is not None:
        check_flat_budget(n1 - 1, n, k1 - 1, t)
    return fermat_arrangement(n1 - 1, n, k1 - 1)


class GroupElement:
    """An invertible matrix over Q(e(n))."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        matrix = [tuple(row) for row in matrix]
        order = common_order(v for row in matrix for v in row)
        rows = tuple(tuple(as_field(v, order) for v in row) for row in matrix)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "matrix", rows)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    @property
    def size(self) -> int:
        return len(self.matrix)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        cols = tuple(zip(*other.matrix))
        rows = [[row_dot(row, col) for col in cols] for row in self.matrix]
        return GroupElement(rows)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"GroupElement({self.matrix!r})"


def monomial_group(n: int, p: int, N1: int):
    """Enumerate G(n, p, N+1): monomial matrices with e(n)-power entries
    whose entry product is an (n/p)-th root of unity.

    The order is N1! * n^N1 / p; enumeration refuses to exceed
    GROUP_ORDER_CAP.
    """
    if N1 < 2:
        raise ValueError("N1 must be >= 2")
    if n < 1 or p < 1 or n % p != 0:
        raise ValueError("p must divide n")
    order = factorial(N1) * n ** N1 // p
    if order > GROUP_ORDER_CAP:
        raise ValueError(f"group order {order} exceeds cap {GROUP_ORDER_CAP}")
    eps_pows = [CyclotomicNumber.root(n) ** a for a in range(n)]
    elements = []
    for sigma in itertools.permutations(range(N1)):
        for expo in itertools.product(range(n), repeat=N1):
            if sum(expo) % p != 0:
                continue
            rows = [[_ZERO] * N1 for _ in range(N1)]
            for i in range(N1):
                rows[i][sigma[i]] = eps_pows[expo[i]]
            elements.append(GroupElement(rows))
    assert len(elements) == order
    return elements


def reflections_of(group) -> list:
    """Fixed hyperplanes of the reflections in an enumerated group.

    An element is a reflection iff rank(g - I) = 1; the unique echelon row
    of g - I is then the linear form of the fixed hyperplane.  Results are
    deduplicated and canonically sorted.
    """
    seen = set()
    for g in group:
        size = g.size
        rows = []
        for i in range(size):
            row = list(g.matrix[i])
            row[i] = row[i] - _ONE
            rows.append(tuple(row))
        _, echelon = rref(rows, size, common_order(v for row in rows for v in row))
        if len(echelon) != 1:
            continue
        seen.add(Flat.from_equations(echelon))
    return sorted(seen, key=Flat.sort_key)


def dual_points(arr: Arrangement) -> list:
    """The point of the dual space carried by each hyperplane's form: its
    RREF row, a coordinate tuple led by 1."""
    return [h.equations[0] for h in arr.hyperplanes]


class Flat:
    """A linear subspace of P^N cut out by independent linear equations.

    equations holds the RREF rows of the coefficient matrix, each row a
    covector (c0, ..., cN) annihilating the flat.  dim is the projective
    dimension: N - len(equations).  order is the common_order of the
    equations, 1 for a flat defined over Q, and every entry is stored at
    that order.  The span basis and the hash are computed once, on first
    use: hashing the equations hashes each entry at its smallest field.
    """

    __slots__ = ("equations", "dim", "order", "_span", "_hash")

    def __init__(self, equations, ambient: int, _canonical=False):
        if not _canonical:
            raise ValueError("use the from_* constructors")
        order = common_order(v for row in equations for v in row)
        object.__setattr__(self, "equations",
                           tuple(tuple(v.lift(order) for v in row) for row in equations))
        object.__setattr__(self, "dim", ambient - len(equations))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_span", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Flat is immutable")

    @staticmethod
    def from_equations(rows) -> "Flat":
        rows = [tuple(row) for row in rows]
        if not rows:
            raise ValueError("a flat needs at least one equation")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("equation rows must share a length")
        _, echelon = rref(rows, ncols, common_order(v for row in rows for v in row))
        if not echelon:
            raise ValueError("equations are all zero")
        if len(echelon) == ncols:
            raise ValueError("equations have no projective solutions")
        return Flat(tuple(echelon), ncols - 1, _canonical=True)

    @staticmethod
    def from_span(vectors) -> "Flat":
        """The flat spanned by the given coordinate vectors, from one RREF.

        Let R be the RREF of the vectors with their columns reversed.  For
        each free column f, the form with a unit at f and -R_i[f] at each
        pivot p_i annihilates the span, and R_i[f] is nonzero only when
        p_i < f.  Turned back, that form is led by its unit, which is its
        only nonzero entry among the free columns: taken by descending f,
        the forms are already the canonical RREF of the equations."""
        vecs = [tuple(vec)[::-1] for vec in vectors]
        if not vecs:
            raise ValueError("span needs at least one vector")
        ncols = len(vecs[0])
        if any(len(v) != ncols for v in vecs):
            raise ValueError("span vectors must share a length")
        order = common_order(v for vec in vecs for v in vec)
        _, red = rref(vecs, ncols, order)
        if not red:
            raise ValueError("vectors are all zero")
        if len(red) == ncols:
            raise ValueError("vectors span the whole space")
        forms = kernel_of_rref(red, ncols, order)
        return Flat(tuple(form[::-1] for form in reversed(forms)), ncols - 1,
                    _canonical=True)

    @staticmethod
    def from_point(coords) -> "Flat":
        """The point with the given coordinates, a 0-dimensional flat."""
        return Flat.from_span([coords])

    @property
    def ambient(self) -> int:
        return self.dim + len(self.equations)

    def span_basis(self):
        """A canonical basis of the cone over the flat: dim+1 vectors."""
        if self._span is None:
            object.__setattr__(self, "_span", tuple(
                kernel_of_rref(self.equations, self.ambient + 1, self.order)))
        return self._span

    def point(self) -> tuple:
        """The coordinates of a point, its span basis vector: the last
        nonzero one is 1."""
        if self.dim != 0:
            raise ValueError("only 0-dimensional flats are points")
        return self.span_basis()[0]

    def equation_polys(self):
        nvars = self.ambient + 1
        polys = []
        for row in self.equations:
            poly = MultiPoly.zero(nvars)
            for i, c in enumerate(row):
                if not c.is_zero():
                    poly = poly + MultiPoly.variable(i, nvars) * c
            polys.append(poly)
        return polys

    def sort_key(self):
        return (self.dim, tuple(_row_key(row) for row in self.equations))

    def __eq__(self, other):
        if not isinstance(other, Flat):
            return NotImplemented
        return self.equations == other.equations

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.equations))
        return self._hash

    def __repr__(self):
        eqs = "; ".join(str(p) for p in self.equation_polys())
        return f"Flat(dim={self.dim}, {eqs})"


def derived_flats(arr: Arrangement, t: int, min_hyperplanes: int) -> list:
    """All t-dimensional intersection-lattice flats lying on at least
    min_hyperplanes arrangement hyperplanes, canonically sorted.

    The descent goes down one dimension at a time from the hyperplanes.
    Each flat F carries the set on(F) of the indices of the hyperplanes
    containing it that its meets have seen, the union over the meets
    (G, i) reaching F of on(G) and i.  F meets only the hyperplanes whose
    index is above max on(F), once each.  As on(F) holds every hyperplane
    containing F (below), every meet drops the dimension by one.

    By induction on the level, the descent reaches every lattice flat F,
    and on(F) is the set S(F) of all hyperplanes containing F.  At the
    top, a hyperplane carries its own index, and distinct hyperplanes
    contain no other.  Below, the forms of S(F) cut out F.  Let i* be
    max S(F), take any other j in S(F), and extend {j, i*} to a basis B,
    inside S(F), of those forms.  G, the meet of B without i*, is a
    lattice flat one dimension above F.  Then j is in S(G), i* is not,
    and S(G) lies in S(F), so max S(G) < i*.  G is reached with on(G) =
    S(G), so the descent meets G with H_{i*}, which gives F; hence F is
    reached, and i* and j are in on(F).  The pairs (G, i) are met once
    each, so no meet of two hyperplanes is computed twice.
    """
    N = arr.N
    if not 0 <= t <= N - 1:
        raise ValueError("t must be in 0..N-1")
    if min_hyperplanes < 2:
        raise ValueError("min_hyperplanes must be >= 2")
    hyps = arr.hyperplanes
    current = {h: {i} for i, h in enumerate(hyps)}
    for _ in range(N - 1 - t):
        nxt = {}
        for fl, on in current.items():
            for i in range(max(on) + 1, len(hyps)):
                below = Flat.from_equations(fl.equations + hyps[i].equations)
                nxt.setdefault(below, set()).update(on, (i,))
        current = nxt
    out = (fl for fl, on in current.items() if len(on) >= min_hyperplanes)
    return sorted(out, key=Flat.sort_key)
