"""Closed-form equations of unexpected curves and hypersurfaces.

Each builder returns one sparse polynomial over a combined ring: the
coordinates of the general point come first (a, b, c and, for the space
family, d), the ambient coordinates after them.  Verification is symbolic
throughout: vanishing on a configuration, the vanishing order at the
general point, and fat-ideal membership are exact polynomial identities,
never sampled; vanishing is checked on each coefficient form in the
ambient coordinates, points and flats alike.  The one numeric bridge is
`specialized_kernel_membership`, which pins the general point to random
rational coordinates and checks that the fat point's condition rows
annihilate the resulting coefficient vector and that the configuration's
ConditionMatrix contains it.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

from .arrange import Flat, check_flat_budget, parse_id
from .cyclo import as_field, common_order
from .interp import UnexpectednessReport, decide_unexpected
from .linalg import row_dot
from .mpoly import MultiPoly, graded_monomials
from .scheme import (ConditionMatrix, NamedConfig, component_rows, forms_vanish,
                     named_configuration)


@dataclass(frozen=True)
class BuiltFormula:
    """A closed-form hypersurface equation with its verification targets.

    `poly` lives in the combined ring (the `npoint` point variables, then
    the `ncoord` ambient coordinates), `degree` is its degree in the
    ambient coordinates and `multiplicity` the claimed vanishing order at
    the general point.
    """

    family: str
    config_id: str
    npoint: int
    ncoord: int
    degree: int
    multiplicity: int
    poly: MultiPoly

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


def fermat_family_curve(m: int) -> BuiltFormula:
    """The degree m+2 curve with an (m+1)-fold general point, m >= 2.

    One parametric family covering every admissible arrangement order;
    the B3, M3 and M4 ids are m = 2, 3 and 4.  The tests check it term by
    term against the paper's three fixed-order forms, transcribed apart
    from it.  An m whose configuration, the dual of A(3, k_min, m), is
    over FLAT_BUDGET is refused before any polynomial is built.
    """
    if m < 2:
        raise ValueError("family needs m >= 2")
    k_min = max(0, 5 - m)
    check_flat_budget(2, m, k_min - 1)
    a, b, c, x0, x1, x2 = _ring(6)
    if m % 2 == 0:
        # Each orbit line carries its own point coordinate (a, b, c in
        # turn); a common a-factor would break the cyclic symmetry of the
        # paper's fixed-order forms.
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
    return BuiltFormula(f"GEN({m})", f"FERMAT_DUAL({m},{k_min})", npoint=3,
                        ncoord=3, degree=m + 2, multiplicity=m + 1, poly=q)


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
    return BuiltFormula("BMSS", "BMSS_P3", npoint=4, ncoord=4,
                        degree=4, multiplicity=3, poly=q)


def mult4_weights(n: int) -> tuple[int, int, int]:
    """The three binomial weights entering the multiplicity-4 family."""
    return (math.comb(n, 2) - 1, math.comb(n - 1, 2), math.comb(n + 1, 2))


def mult4_curve(n: int) -> BuiltFormula:
    """Degree n+2 curve with a 4-fold general point for the n^2+3 points
    derived from the order-n arrangement without coordinate lines, n >= 3.
    An n whose descent to those points is over FLAT_BUDGET is refused
    before any polynomial is built."""
    if n < 3:
        raise ValueError("family needs n >= 3")
    check_flat_budget(2, n, -1, 0)
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
    return BuiltFormula(f"MULT4({n})", f"MULT4_POINTS({n})", npoint=3,
                        ncoord=3, degree=n + 2, multiplicity=4, poly=q)


# family id head -> (number of parameters, builder)
_FAMILIES = {
    "B3": (0, lambda: replace(fermat_family_curve(2), family="B3",
                              config_id="B3_DUAL")),
    "M3": (0, lambda: replace(fermat_family_curve(3), family="M3")),
    "M4": (0, lambda: replace(fermat_family_curve(4), family="M4")),
    "GEN": (1, fermat_family_curve),
    "BMSS": (0, bmss_surface),
    "MULT4": (1, mult4_curve),
}


def build_formula(family: str) -> BuiltFormula:
    """Look up a closed form by family id: B3, M3, M4, GEN(m), BMSS or
    MULT4(n)."""
    head, params = parse_id(family, "family")
    if head == "P5" and not params:
        raise ValueError("the P5 family is existence-only; no closed form")
    arity, build = _FAMILIES.get(head, (None, None))
    if arity != len(params):
        raise ValueError(f"unknown formula family {family!r}")
    return build(*params)


# -- symbolic verification --------------------------------------------------

def _configuration(form: BuiltFormula,
                   config: NamedConfig | None) -> NamedConfig:
    """config, or the form's own configuration when it is None; a
    ValueError when it does not lie in the form's ambient space."""
    cfg = config if config is not None else named_configuration(form.config_id)
    if cfg.scheme.ambient + 1 != form.ncoord:
        raise ValueError(f"{cfg.id} lies in P^{cfg.scheme.ambient}, but "
                         f"{form.family} has {form.ncoord} ambient coordinates")
    return cfg


def symbolic_vanishing_on_Z(form: BuiltFormula,
                            config: NamedConfig | None = None) -> bool:
    """Exact identity in the point variables: F(a; x) vanishes on the
    configuration for every a exactly when each of its coefficient forms,
    one form in x per monomial in a, does, which forms_vanish checks."""
    cfg = _configuration(form, config)
    np_ = form.npoint
    coefficients: dict[tuple, dict] = {}
    for e, c in form.poly.terms.items():
        coefficients.setdefault(e[:np_], {})[e[np_:]] = c
    return forms_vanish(cfg.scheme, [MultiPoly(form.ncoord, terms)
                                     for terms in coefficients.values()])


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


def membership_in_fat_ideal(n: int = 3) -> bool:
    """Derivative criterion for the multiplicity-4 family: the curve lies
    in the fourth power of the general point's ideal iff every ambient
    partial of order <= 3 vanishes at the point identically."""
    attained, certified = symbolic_multiplicity_at_general(mult4_curve(n))
    return certified and attained >= 4


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
                                  seed: int = 0) -> bool:
    """Pin the general point to random rational coordinates and test that
    the fat point's rows annihilate the specialized form and that it lies
    in (I_Z)_d.  Raises ValueError when the configuration is not in the
    form's ambient space."""
    cfg = _configuration(form, config)
    d = form.degree
    rng = random.Random(seed)
    coords = _random_point(rng, form.npoint)
    spec = form.specialize(coords)
    if spec.is_zero():
        return False
    mat = ConditionMatrix.from_scheme(cfg.scheme, d)  # the budget, before any row
    vec = spec.coeff_vector(graded_monomials(form.ncoord, d))
    rows = component_rows(Flat.from_point(coords), form.multiplicity, d)
    return (all(row_dot(vals, [vec[c] for c in cols]).is_zero() for cols, vals in rows)
            and mat.contains(vec))


# -- family verification -----------------------------------------------------

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
    """Run every applicable check for one family and collect the verdicts.

    The dimension count runs against one general point of the closed
    form's multiplicity, in its degree.  P5 is existence-only: it has no
    closed form, and its count is a general triple and a general double
    point on P5_MULTI in degree 4."""
    head, params = parse_id(family, "family")
    if head == "P5" and not params:
        form, name, config_id, degree = None, "P5", "P5_MULTI", 4
        template = ((0, 3), (0, 2))
    else:
        form = build_formula(family)
        name, config_id, degree = form.family, form.config_id, form.degree
        template = ((0, form.multiplicity),)
    cfg = named_configuration(config_id)
    built_degree = point_degree = None
    vanishing = kernel_member = certified = None
    attained = expected_mult = None
    if form is not None:
        built_degree = form.poly.degree_in(
            range(form.npoint, form.npoint + form.ncoord))
        point_degree = form.point_degree()
        expected_mult = form.multiplicity
        vanishing = symbolic_vanishing_on_Z(form, cfg)
        attained, certified = symbolic_multiplicity_at_general(form)
        kernel_member = specialized_kernel_membership(form, cfg, seed=seed)
    decision = decide_unexpected(cfg.scheme, template, degree,
                                 trials=trials, seed=seed)
    return FamilyReport(
        family=name,
        config_id=config_id,
        degree=degree,
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
