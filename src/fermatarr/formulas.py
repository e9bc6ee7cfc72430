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

import itertools
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


def _cyclic_orbits(terms) -> MultiPoly:
    """The polynomial in (a, b, c, x0, x1, x2) that sums the (integer
    coefficient, exponent tuple) terms and their images under the cyclic
    shift a -> b -> c, x0 -> x1 -> x2 and under its square.

    The terms enter in this order: all of them, then all their first
    images, then all their second.  render adds a curve's terms as
    floats in that order, into one sum per power of x0, and float sums
    depend on their order.  So each builder lists its terms such that
    every one of those sums meets its terms in the order of the paper's
    product form, up to a swap of its first two, which float addition
    from 0.0 cannot tell apart; render then draws what it drew from the
    product forms.
    """
    terms = list(terms)
    out: dict[tuple[int, ...], int] = {}
    for _ in range(3):
        for coeff, e in terms:
            out[e] = out.get(e, 0) + coeff
        terms = [(coeff, (c, a, b, x2, x0, x1))
                 for coeff, (a, b, c, x0, x1, x2) in terms]
    return MultiPoly(6, out)


def fermat_family_curve(m: int) -> BuiltFormula:
    """The degree m+2 curve with an (m+1)-fold general point, m >= 2.

    One parametric family covering every admissible arrangement order;
    the B3, M3 and M4 ids are m = 2, 3 and 4.  For either parity of m it
    is the cyclic sum of x0 * (b*x2 - c*x1)^(m+1): x0 times a power of
    the line through the general point and (1 : 0 : 0).  The builder
    writes one orbit representative per binomial term.  The tests check
    it term by term against the paper's three fixed-order forms,
    transcribed apart from it, and against the product form of each
    parity.  An m whose configuration, the dual of A(3, k_min, m), is
    over FLAT_BUDGET is refused before any polynomial is built.
    """
    if m < 2:
        raise ValueError("family needs m >= 2")
    k_min = max(0, 5 - m)
    check_flat_budget(2, m, k_min - 1)
    # the binomial terms, k and m+1-k in pairs, in the order of the
    # paper's product form of each parity (see _cyclic_orbits)
    h = (m + 1) // 2
    if m % 2:
        ks = ([0, m + 1, m, 1]
              + [k for i in range(2, h) for k in (i, m + 1 - i)] + [h])
    else:
        ks = [k for j in range(m, -1, -2) for k in (j, m + 1 - j)]
    q = _cyclic_orbits(((-1)**k * math.comb(m + 1, k),
                        (0, m + 1 - k, k, 1, k, m + 1 - k)) for k in ks)
    return BuiltFormula(f"GEN({m})", f"FERMAT_DUAL({m},{k_min})", npoint=3,
                        ncoord=3, degree=m + 2, multiplicity=m + 1, poly=q)


def bmss_surface() -> BuiltFormula:
    """Degree-4 surface with a triple general point on the 31-point
    configuration in projective 3-space: the alternating sum, over the
    permutations (i, j, k, l) of the four indices, of
    p_j^2 * p_k^3 * x_i^3 * x_j, with p = (a, b, c, d)."""
    terms = {}
    for perm in itertools.permutations(range(4)):
        i, j, k, _ = perm
        e = [0] * 8
        e[j], e[k], e[4 + i], e[4 + j] = 2, 3, 3, 1
        inversions = sum(s > t for s, t in itertools.combinations(perm, 2))
        terms[tuple(e)] = (-1)**inversions
    return BuiltFormula("BMSS", "BMSS_P3", npoint=4, ncoord=4,
                        degree=4, multiplicity=3, poly=MultiPoly(8, terms))


def mult4_weights(n: int) -> tuple[int, int, int]:
    """The three binomial weights entering the multiplicity-4 family."""
    return (math.comb(n, 2) - 1, math.comb(n - 1, 2), math.comb(n + 1, 2))


def mult4_curve(n: int) -> BuiltFormula:
    """Degree n+2 curve with a 4-fold general point for the n^2+3 points
    derived from the order-n arrangement without coordinate lines, n >= 3.
    The builder writes one orbit representative of the paper's form,
    eight terms.  An n whose descent to those points is over FLAT_BUDGET
    is refused before any polynomial is built."""
    if n < 3:
        raise ValueError("family needs n >= 3")
    check_flat_budget(2, n, -1, 0)
    u, v, w = mult4_weights(n)
    # the paper's form is the cyclic sum of its c-line, expanded here in
    # the order of the terms below (see _cyclic_orbits),
    #   -c*x*y*(u*b^n*z^n + (u*a^n + v*c^n)*y^n - (u*b^n + v*c^n)*x^n
    #           - u*a^n*z^n),
    # and of w*a^(n-1)*b*c*x^2*(y^n - z^n)
    q = _cyclic_orbits(((-u, (0, n, 1, 1, 1, n)),
                        (-u, (n, 0, 1, 1, n + 1, 0)),
                        (-v, (0, 0, n + 1, 1, n + 1, 0)),
                        (u, (0, n, 1, n + 1, 1, 0)),
                        (v, (0, 0, n + 1, n + 1, 1, 0)),
                        (u, (n, 0, 1, 1, 1, n)),
                        (w, (n - 1, 1, 1, 2, n, 0)),
                        (-w, (n - 1, 1, 1, 2, 0, n))))
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


def _order_survives(terms, t: int) -> bool:
    """Whether some order-t coefficient of F(a + y) is not zero.

    terms are F's terms as (alpha + beta, beta, numerators over one
    denominator).  c * a^alpha * x^beta adds c * prod C(beta_i, j_i) at
    a^(alpha + beta - j) * y^j for every j <= beta with |j| = t; the
    coefficients of the y^j, polynomials in a, are formed together and
    summed as integer numerators, so one is zero when they all are."""
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
            return True
    return False


def symbolic_multiplicity_at_general(form: BuiltFormula) -> tuple[int, bool]:
    """Exact vanishing order at the symbolic general point.

    The substitution x = a + y (the point variables a stay) gives F(a + y),
    whose degree-t part in y is the sum over |beta| = t of
    (d^beta F)(a) * y^beta / beta!.  Its lowest y-degree is therefore the
    order of the derivative criterion.  Returns (attained, certified):
    certified means every ambient partial of order below `attained`
    vanishes identically at the point while some order-`attained` partial
    survives as a nonzero polynomial.  The zero form returns (0, False).

    The orders t = 0, 1, ... are tried in turn, each by expanding F(a + y)
    at that order alone (`_order_survives`), and the first order with a
    coefficient that is not zero is the answer.  When F is homogeneous of
    degree D in x, Euler's identity cuts the scan short.  Each order-s
    partial G = d^beta F, s < D, is homogeneous of degree D - s, so
    (D - s) * G(a) = sum_i a_i * (d_i G)(a): if every order-(s + 1)
    partial vanishes at a, so does every order-s one, and by induction
    every lower one.  So the order m - 1 below the claimed multiplicity m
    is tried first, when 0 <= m - 1 <= D.  If none of its coefficients
    survives, the scan starts at m; if one does, the answer is the first
    surviving order up to m - 1.  A form that is not homogeneous in x, or
    a claim outside that range, is scanned from 0, so the answer is exact
    whatever the claim.  GEN(m) thus needs the orders m and m + 1 alone,
    where the full scan formed all m + 2: GEN(11) takes 0.9 to 1.4 ms
    instead of 8.5 to 12.4 ms, GEN(48) 3.5 to 5.7 ms instead of 0.33 to
    0.37 s and GEN(100) 9.5 to 11.7 ms instead of 3.0 s (process time,
    2-vCPU machine, Python 3.11.7).
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
    degrees = {sum(beta) for _, beta, _ in terms}
    top = max(degrees)
    claim = form.multiplicity
    start, known = 0, None
    if len(degrees) == 1 and 0 < claim <= top + 1:
        if _order_survives(terms, claim - 1):
            known = claim - 1  # the answer is claim - 1 or an order below it
        else:
            start = claim
    for t in range(start, top + 1):
        if t == known or _order_survives(terms, t):
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
