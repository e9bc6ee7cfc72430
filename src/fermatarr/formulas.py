"""Closed-form equations of unexpected curves and hypersurfaces.

Each builder returns one sparse polynomial over a combined ring: the
coordinates of the general point come first (a, b, c and, for the space
family, d), the ambient coordinates after them.  Verification is symbolic
throughout: vanishing on a configuration, the vanishing order at the
general point, and fat-ideal membership are exact polynomial identities,
never sampled.  The one numeric bridge is `specialized_kernel_membership`,
which pins the general point to random rational coordinates and checks
that every incidence row of the configuration annihilates the resulting
coefficient vector.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from .arrange import Flat, parse_id
from .cyclo import as_field, common_order
from .interp import ConditionMatrix, UnexpectednessReport, decide_unexpected
from .linalg import row_dot
from .mpoly import MultiPoly, ProjPoint, graded_monomials
from .scheme import NamedConfig, component_rows, named_configuration


@dataclass(frozen=True)
class BuiltFormula:
    """A closed-form hypersurface equation with its verification targets.

    `poly` lives in the combined ring (point variables, then ambient
    coordinates), `degree` is its degree in the ambient coordinates and
    `multiplicity` the claimed vanishing order at the general point.
    """

    family: str
    config_id: str
    point_names: tuple[str, ...]
    coord_names: tuple[str, ...]
    degree: int
    multiplicity: int
    poly: MultiPoly

    @property
    def npoint(self) -> int:
        return len(self.point_names)

    @property
    def ncoord(self) -> int:
        return len(self.coord_names)

    def point_degree(self) -> int:
        return self.poly.degree_in(range(self.npoint))

    def specialize(self, coords) -> MultiPoly:
        """Pin the general point, returning a polynomial in the ambient
        coordinates only."""
        coords = list(coords)
        if len(coords) != self.npoint:
            raise ValueError("general point arity mismatch")
        flat = self.poly.partial_evaluate(dict(enumerate(coords)))
        np_ = self.npoint
        terms = {e[np_:]: c for e, c in flat.terms.items()}
        return MultiPoly(self.ncoord, terms)

    def __repr__(self):  # pragma: no cover
        return (f"BuiltFormula({self.family}, deg={self.degree}, "
                f"mult={self.multiplicity}, {len(self.poly.terms)} terms)")


def _ring(n: int):
    """The n variables of a combined ring, point variables first."""
    return [MultiPoly.variable(i, n) for i in range(n)]


def b3_quartic() -> BuiltFormula:
    a, b, c, x, y, z = _ring(6)
    q = (3 * a * (b**2 - c**2) * x**2 * y * z
         + 3 * b * (c**2 - a**2) * x * y**2 * z
         + 3 * c * (a**2 - b**2) * x * y * z**2
         + a**3 * (y**3 * z - y * z**3)
         + b**3 * (x * z**3 - x**3 * z)
         + c**3 * (x**3 * y - x * y**3))
    return BuiltFormula("B3", "B3_DUAL", ("a", "b", "c"), ("x", "y", "z"),
                        degree=4, multiplicity=3, poly=q)


def quintic_curve() -> BuiltFormula:
    """Degree-5 curve with a 4-fold general point for the 11-point dual of
    the order-3 arrangement with two coordinate lines."""
    a, b, c, x0, x1, x2 = _ring(6)
    q = (a**4 * x1 * x2 * (x1**3 + x2**3)
         + b**4 * x0 * x2 * (x0**3 + x2**3)
         + c**4 * x0 * x1 * (x0**3 + x1**3)
         - 4 * a * (b**3 + c**3) * x0**3 * x1 * x2
         - 4 * b * (a**3 + c**3) * x0 * x1**3 * x2
         - 4 * c * (a**3 + b**3) * x0 * x1 * x2**3
         + 6 * a**2 * b**2 * x0**2 * x1**2 * x2
         + 6 * a**2 * c**2 * x0**2 * x1 * x2**2
         + 6 * b**2 * c**2 * x0 * x1**2 * x2**2)
    return BuiltFormula("M3", "FERMAT_DUAL(3,2)", ("a", "b", "c"),
                        ("x0", "x1", "x2"), degree=5, multiplicity=4, poly=q)


def sextic_curve() -> BuiltFormula:
    """Degree-6 curve with a 5-fold general point for the 13-point dual of
    the order-4 arrangement with one coordinate line."""
    a, b, c, x0, x1, x2 = _ring(6)
    q = (a**5 * x1 * x2 * (x1**4 - x2**4)
         + b**5 * x0 * x2 * (x2**4 - x0**4)
         + c**5 * x0 * x1 * (x0**4 - x1**4)
         + 10 * a**3 * x0**2 * x1 * x2 * (b**2 * x1**2 - c**2 * x2**2)
         + 10 * b**3 * x0 * x1**2 * x2 * (c**2 * x2**2 - a**2 * x0**2)
         + 10 * c**3 * x0 * x1 * x2**2 * (a**2 * x0**2 - b**2 * x1**2)
         + 5 * a * (b**4 - c**4) * x0**4 * x1 * x2
         + 5 * b * (c**4 - a**4) * x0 * x1**4 * x2
         + 5 * c * (a**4 - b**4) * x0 * x1 * x2**4)
    return BuiltFormula("M4", "FERMAT_DUAL(4,1)", ("a", "b", "c"),
                        ("x0", "x1", "x2"), degree=6, multiplicity=5, poly=q)


def fermat_family_curve(m: int) -> BuiltFormula:
    """The degree m+2 curve with an (m+1)-fold general point, m >= 2.

    One parametric family covering every admissible arrangement order; it
    is written independently of the three fixed-order builders above so
    the two transcriptions cross-check each other.
    """
    if m < 2:
        raise ValueError("family needs m >= 2")
    a, b, c, x0, x1, x2 = _ring(6)
    if m % 2 == 0:
        # Each orbit line carries its own point coordinate (a, b, c in
        # turn); a common a-factor would break the cyclic symmetry that
        # the three fixed-order builders exhibit.
        q = MultiPoly.zero(6)
        for k in range(1, m // 2 + 2):
            co = math.comb(m + 1, 2 * k - 1)
            s = m - (2 * k - 2)
            t = 2 * k - 2
            q = (q
                 + co * a**(2 * k - 1) * (b**s * x1**t - c**s * x2**t)
                 * x0**s * x1 * x2
                 + co * b**(2 * k - 1) * (c**s * x2**t - a**s * x0**t)
                 * x0 * x1**s * x2
                 + co * c**(2 * k - 1) * (a**s * x0**t - b**s * x1**t)
                 * x0 * x1 * x2**s)
    else:
        h = (m + 1) // 2
        q = (a**(m + 1) * x1 * x2 * (x1**m + x2**m)
             + b**(m + 1) * x0 * x2 * (x0**m + x2**m)
             + c**(m + 1) * x0 * x1 * (x0**m + x1**m)
             - (m + 1) * (a * (b**m + c**m) * x0**m * x1 * x2
                          + b * (a**m + c**m) * x0 * x1**m * x2
                          + c * (a**m + b**m) * x0 * x1 * x2**m))
        for k in range(2, h):
            sgn = (-1)**k * math.comb(m + 1, k)
            q = q + sgn * (
                a**(m + 1 - k) * x0**k * x1 * x2
                * (b**k * x1**(m - k) + c**k * x2**(m - k))
                + b**(m + 1 - k) * x0 * x1**k * x2
                * (a**k * x0**(m - k) + c**k * x2**(m - k))
                + c**(m + 1 - k) * x0 * x1 * x2**k
                * (a**k * x0**(m - k) + b**k * x1**(m - k)))
        q = q + (-1)**h * math.comb(m + 1, h) * (
            a**h * b**h * x0**h * x1**h * x2
            + b**h * c**h * x0 * x1**h * x2**h
            + a**h * c**h * x0**h * x1 * x2**h)
    k_min = max(0, 5 - m)
    return BuiltFormula(f"GEN({m})", f"FERMAT_DUAL({m},{k_min})",
                        ("a", "b", "c"), ("x0", "x1", "x2"),
                        degree=m + 2, multiplicity=m + 1, poly=q)


def bmss_surface() -> BuiltFormula:
    """Degree-4 surface with a triple general point on the 31-point
    configuration in projective 3-space."""
    a, b, c, d, x0, x1, x2, x3 = _ring(8)
    q = (b**2 * (c**3 - d**3) * x0**3 * x1
         + a**2 * (d**3 - c**3) * x0 * x1**3
         + c**2 * (d**3 - b**3) * x0**3 * x2
         + c**2 * (a**3 - d**3) * x1**3 * x2
         + a**2 * (b**3 - d**3) * x0 * x2**3
         + b**2 * (d**3 - a**3) * x1 * x2**3
         + d**2 * (b**3 - c**3) * x0**3 * x3
         + d**2 * (c**3 - a**3) * x1**3 * x3
         + d**2 * (a**3 - b**3) * x2**3 * x3
         + a**2 * (c**3 - b**3) * x0 * x3**3
         + b**2 * (a**3 - c**3) * x1 * x3**3
         + c**2 * (b**3 - a**3) * x2 * x3**3)
    return BuiltFormula("BMSS", "BMSS_P3", ("a", "b", "c", "d"),
                        ("x0", "x1", "x2", "x3"),
                        degree=4, multiplicity=3, poly=q)


def mult4_weights(n: int) -> tuple[int, int, int]:
    """The three binomial weights entering the multiplicity-4 family."""
    return (math.comb(n, 2) - 1, math.comb(n - 1, 2), math.comb(n + 1, 2))


def mult4_curve(n: int) -> BuiltFormula:
    """Degree n+2 curve with a 4-fold general point for the n^2+3 points
    derived from the order-n arrangement without coordinate lines, n >= 3."""
    if n < 3:
        raise ValueError("family needs n >= 3")
    u, v, w = mult4_weights(n)
    a, b, c, x, y, z = _ring(6)
    q = (-(c * x * y) * ((u * b**n + v * c**n) * (z**n - x**n)
                         + (u * a**n + v * c**n) * (y**n - z**n))
         - (b * x * z) * ((u * a**n + v * b**n) * (y**n - z**n)
                          + (u * c**n + v * b**n) * (x**n - y**n))
         - (a * y * z) * ((u * b**n + v * a**n) * (z**n - x**n)
                          + (u * c**n + v * a**n) * (x**n - y**n))
         + w * a**(n - 1) * b * c * x**2 * (y**n - z**n)
         + w * a * b**(n - 1) * c * y**2 * (z**n - x**n)
         + w * a * b * c**(n - 1) * z**2 * (x**n - y**n))
    return BuiltFormula(f"MULT4({n})", f"MULT4_POINTS({n})",
                        ("a", "b", "c"), ("x", "y", "z"),
                        degree=n + 2, multiplicity=4, poly=q)


_FIXED_BUILDERS = {
    "B3": b3_quartic,
    "M3": quintic_curve,
    "M4": sextic_curve,
    "BMSS": bmss_surface,
}


def build_formula(family: str) -> BuiltFormula:
    """Look up a closed form by family id: B3, M3, M4, GEN(m), BMSS or
    MULT4(n)."""
    head, params = parse_id(family, "family")
    if head in _FIXED_BUILDERS and not params:
        return _FIXED_BUILDERS[head]()
    if head == "GEN" and len(params) == 1:
        return fermat_family_curve(params[0])
    if head == "MULT4" and len(params) == 1:
        return mult4_curve(params[0])
    if head == "P5":
        raise ValueError("the P5 family is existence-only; no closed form")
    raise ValueError(f"unknown formula family {family!r}")


# -- symbolic verification --------------------------------------------------

def symbolic_vanishing_on_Z(form: BuiltFormula,
                            config: NamedConfig | None = None) -> bool:
    """Exact identity: substituting each configuration point into the
    ambient coordinates leaves the zero polynomial in the point variables."""
    cfg = config if config is not None else named_configuration(form.config_id)
    np_ = form.npoint
    for pt in cfg.scheme.points():
        assign = {np_ + i: v for i, v in enumerate(pt.coords)}
        if not form.poly.partial_evaluate(assign).is_zero():
            return False
    return True


def _lower_indices(beta: tuple[int, ...], t: int) -> list:
    """The j <= beta, entrywise, with |j| = t, each with prod C(beta_i, j_i)."""
    out = [((), 1)]
    room = sum(beta)  # what the entries after the current one can still hold
    for b in beta:
        room -= b
        out = [(j + (i,), w * math.comb(b, i))
               for j, w in out
               for i in range(max(0, t - sum(j) - room), min(b, t - sum(j)) + 1)]
    return out


def symbolic_multiplicity_at_general(form: BuiltFormula) -> tuple[int, bool]:
    """Exact vanishing order at the symbolic general point.

    The substitution x = a + y (the point variables a stay) gives F(a + y),
    whose degree-t part in y is the sum over |beta| = t of
    (d^beta F)(a) * y^beta / beta!.  Its lowest y-degree is therefore the
    order of the derivative criterion.  Returns (attained, certified):
    certified means every ambient partial of order below `attained`
    vanishes identically at the point while some order-`attained` partial
    survives as a nonzero polynomial.  The zero form returns (0, False).

    F(a + y) is expanded term by term with binomials: c * a^alpha * x^beta
    adds c * prod C(beta_i, j_i) at a^(alpha + beta - j) * y^j for every
    j <= beta.  The parts |j| = 0, 1, ... are formed in turn, one
    coefficient of y^j (a polynomial in a) at a time, and the first
    coefficient that is not zero ends the search.  The coefficients are
    summed as integer numerators over one denominator in one field, so a
    coefficient is zero when they all are.
    """
    if form.poly.is_zero():
        return (0, False)
    np_ = form.npoint
    coeffs = form.poly.terms.values()
    order = common_order(coeffs)
    den = math.lcm(*(c.den for c in coeffs))
    # each term as (alpha + beta, beta, numerators over den)
    terms = []
    for e, c in form.poly.terms.items():
        c = as_field(c, order)
        scale = den // c.den
        alpha, beta = e[:np_], e[np_:]
        terms.append((tuple(a + b for a, b in zip(alpha, beta)), beta,
                      tuple(v * scale for v in c.num)))
    top = max(sum(beta) for _, beta, _ in terms)
    for t in range(top + 1):
        by_j: dict[tuple[int, ...], list] = {}
        for total, beta, num in terms:
            for j, w in _lower_indices(beta, t):
                by_j.setdefault(j, []).append((total, num, w))
        for j, contributions in by_j.items():
            coeff: dict[tuple[int, ...], list[int]] = {}
            for total, num, w in contributions:
                key = tuple(k - i for k, i in zip(total, j))
                acc = coeff.get(key)
                if acc is None:
                    coeff[key] = [w * v for v in num]
                else:
                    for s, v in enumerate(num):
                        acc[s] += w * v
            if any(any(acc) for acc in coeff.values()):
                return (t, True)
    raise AssertionError("F(a + y) is zero for a nonzero F")


def membership_in_fat_ideal(n: int = 3,
                            form: BuiltFormula | None = None) -> bool:
    """Derivative criterion for the multiplicity-4 family: the curve lies
    in the fourth power of the general point's ideal iff every ambient
    partial of order <= 3 vanishes at the point identically."""
    if form is None:
        form = mult4_curve(n)
    attained, certified = symbolic_multiplicity_at_general(form)
    return certified and attained >= 4


def mult4_cofactor_reconciliation() -> str | None:
    """Attempt to complete the cofactor presentation of c^4 times the
    multiplicity-4 curve for n = 3, the only n with linear cofactors, over
    the generators of the fourth ideal power.

    One cofactor term, (2*a^3*c + c^4), arrives without an ambient
    variable and is degree-deficient as given.  Each of x, y, z is
    inserted in turn; returns the name that makes the identity exact, or
    None when no single insertion does.
    """
    a, b, c, x, y, z = _ring(6)
    f1 = c * x - a * z
    f2 = c * y - b * z
    g1, g2, g4, g5 = f2**4, f1 * f2**3, f1**3 * f2, f1**4
    lhs = c**4 * mult4_curve(3).poly
    for cand, name in ((x, "x"), (y, "y"), (z, "z")):
        rhs = (((a**4 + 2 * a * c**3) * z - (2 * a**3 * c + c**4) * cand) * g1
               + (6 * a**2 * b * c * x - (4 * a**3 * b + 2 * b * c**3) * z) * g2
               + ((4 * a * b**3 + 2 * a * c**3) * z - 6 * a * b**2 * c * y) * g4
               + ((2 * b**3 * c + c**4) * y - (b**4 + 2 * b * c**3) * z) * g5)
        if rhs == lhs:
            return name
    return None


def equal_up_to_scalar(p: MultiPoly, q: MultiPoly) -> bool:
    """Equality up to one global nonzero scalar, by cross-multiplying the
    graded-lex leading coefficients."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    ep, cp = p.sorted_terms()[0]
    eq, cq = q.sorted_terms()[0]
    if ep != eq:
        return False
    return cq * p == cp * q


# -- numeric bridge to the condition matrices --------------------------------

_POINT_BOX = 99  # general point coordinates are nonzero ints in [-99, 99]


def _random_point(rng: random.Random, arity: int) -> list[Fraction]:
    coords = []
    for _ in range(arity):
        v = 0
        while not v:
            v = rng.randint(-_POINT_BOX, _POINT_BOX)
        coords.append(Fraction(v))
    return coords


def specialized_kernel_membership(form: BuiltFormula,
                                  config: NamedConfig | None = None,
                                  degree: int | None = None,
                                  seed: int = 0) -> bool:
    """Pin the general point to random rational coordinates and test that
    the specialized coefficient vector is annihilated by every condition
    row: the configuration's own rows plus the fat point's rows."""
    cfg = config if config is not None else named_configuration(form.config_id)
    d = form.degree if degree is None else degree
    rng = random.Random(seed)
    coords = _random_point(rng, form.npoint)
    spec = form.specialize(coords)
    if spec.is_zero():
        return False
    mat = ConditionMatrix.from_scheme(cfg.scheme, d)
    rows = list(mat.rows)
    pt = Flat.from_point(ProjPoint(coords))
    rows.extend(component_rows(pt, form.multiplicity, d))
    vec = spec.coeff_vector(graded_monomials(form.ncoord, d))
    return all(row_dot(row, vec).is_zero() for row in rows)


# -- family registry ---------------------------------------------------------

@dataclass(frozen=True)
class FamilyRecord:
    """Verification plan for one family: which configuration, which degree,
    which general fat scheme the dimension count runs against, and the
    built closed form (None for the existence-only P5 family)."""

    family: str
    config_id: str
    degree: int
    template: tuple[tuple[int, int], ...]
    form: BuiltFormula | None


def family_record(family: str) -> FamilyRecord:
    head, params = parse_id(family, "family")
    if head == "P5" and not params:
        return FamilyRecord("P5", "P5_MULTI", 4, ((0, 3), (0, 2)), None)
    form = build_formula(family)
    return FamilyRecord(form.family, form.config_id, form.degree,
                        ((0, form.multiplicity),), form)


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of the full verification pass over one family."""

    family: str
    config_id: str
    degree: int
    built_degree: int | None
    point_degree: int | None
    vanishing: bool | None
    multiplicity_attained: int | None
    multiplicity_certified: bool | None
    multiplicity_expected: int | None
    kernel_member: bool | None
    unique: bool
    decision: UnexpectednessReport

    def as_dict(self) -> dict:
        return {**asdict(self), "decision": self.decision.as_dict()}


def verify_family(family: str, trials: int = 2, seed: int = 0) -> FamilyReport:
    """Run every applicable check for one family and collect the verdicts."""
    rec = family_record(family)
    cfg = named_configuration(rec.config_id)
    built_degree = point_degree = None
    vanishing = kernel_member = certified = None
    attained = expected_mult = None
    form = rec.form
    if form is not None:
        built_degree = form.poly.degree_in(
            range(form.npoint, form.npoint + form.ncoord))
        point_degree = form.point_degree()
        expected_mult = form.multiplicity
        vanishing = symbolic_vanishing_on_Z(form, cfg)
        attained, certified = symbolic_multiplicity_at_general(form)
        kernel_member = specialized_kernel_membership(form, cfg, seed=seed)
    decision = decide_unexpected(cfg.scheme, rec.template, rec.degree,
                                 trials=trials, seed=seed)
    return FamilyReport(
        family=rec.family,
        config_id=rec.config_id,
        degree=rec.degree,
        built_degree=built_degree,
        point_degree=point_degree,
        vanishing=vanishing,
        multiplicity_attained=attained,
        multiplicity_certified=certified,
        multiplicity_expected=expected_mult,
        kernel_member=kernel_member,
        unique=decision.actual == 1,
        decision=decision,
    )
