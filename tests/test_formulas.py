"""Closed-form equations: construction, vanishing, multiplicity, membership."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from helpers import (b3_quartic, quintic_curve, sextic_curve, vanishes_at_points,
                     vanishes_by_rows)

from fermatarr import formulas, scheme
from fermatarr.formulas import (
    bmss_surface,
    build_formula,
    equal_up_to_scalar,
    fermat_family_curve,
    membership_in_fat_ideal,
    mult4_curve,
    mult4_weights,
    specialized_kernel_membership,
    symbolic_multiplicity_at_general,
    symbolic_vanishing_on_Z,
    verify_family,
)
from fermatarr.cyclo import CyclotomicNumber
from fermatarr.interp import decide_unexpected
from fermatarr.mpoly import MultiPoly, parse_poly
from fermatarr.scheme import (FatScheme, NamedConfig, component_rows,
                              named_configuration)


def test_general_family_reproduces_the_fixed_equations():
    # not just up to scalar: the same polynomial, term by term
    assert fermat_family_curve(2).poly == b3_quartic().poly
    assert fermat_family_curve(3).poly == quintic_curve().poly
    assert fermat_family_curve(4).poly == sextic_curve().poly
    assert equal_up_to_scalar(fermat_family_curve(4).poly, sextic_curve().poly)


def test_bidegrees_and_homogeneity():
    cases = [
        (b3_quartic(), 4, 3),
        (quintic_curve(), 5, 4),
        (sextic_curve(), 6, 5),
        (fermat_family_curve(6), 8, 7),
        (bmss_surface(), 4, 5),
        (mult4_curve(3), 5, 4),
        (mult4_curve(4), 6, 5),
    ]
    for form, degree, pdeg in cases:
        assert form.degree == degree
        assert form.poly.degree_in(range(form.npoint, form.npoint + form.ncoord)) \
            == degree
        assert form.point_degree() == pdeg
        # bihomogeneous: one degree in the point, one in the coordinates
        assert {sum(e[:form.npoint]) for e in form.poly.terms} == {pdeg}
        assert {sum(e[form.npoint:]) for e in form.poly.terms} == {degree}


def test_symbolic_vanishing_on_configurations():
    for family in ("B3", "M3", "M4", "GEN(5)", "GEN(6)", "BMSS",
                   "MULT4(3)", "MULT4(4)", "MULT4(5)"):
        assert symbolic_vanishing_on_Z(build_formula(family))
    # lines in the form's own space are a real verdict; a configuration in
    # another space is refused, not passed with nothing checked
    assert not symbolic_vanishing_on_Z(build_formula("BMSS"),
                                       named_configuration("LINES42"))
    for cid in ("LINES42", "BMSS_P3"):
        with pytest.raises(ValueError, match=r"P\^3, but B3 has 3"):
            symbolic_vanishing_on_Z(build_formula("B3"), named_configuration(cid))


def test_vanishing_detects_perturbation():
    form = b3_quartic()
    bumped = form.poly + MultiPoly(6, {(0, 0, 0, 4, 0, 0): 1})
    broken = replace(form, poly=bumped)
    assert not symbolic_vanishing_on_Z(broken)


# (family, configuration id) pairs of the benchmark's certify items, and two
# larger MULT4 orders, on which each closed form vanishes
VANISHING_PAIRS = ([("B3", "B3_DUAL"), ("M3", "FERMAT_DUAL(3,2)"),
                    ("M4", "FERMAT_DUAL(4,1)"), ("BMSS", "BMSS_P3")]
                   + [(f"GEN({m})", f"FERMAT_DUAL({m},{k})")
                      for m in (5, 6) for k in range(4)]
                   + [("GEN(7)", "FERMAT_DUAL(7,3)"), ("GEN(8)", "FERMAT_DUAL(8,0)"),
                      ("GEN(11)", "FERMAT_DUAL(11,3)")]
                   + [(f"MULT4({n})", f"MULT4_POINTS({n})") for n in (3, 4, 5, 12, 20)])
# pairs on which the closed form does not vanish
NON_VANISHING_PAIRS = (("BMSS", "LINES42"), ("GEN(5)", "FERMAT_DUAL(6,1)"),
                       ("MULT4(5)", "MULT4_POINTS(6)"))


def test_vanishing_matches_the_substitution_and_row_oracles():
    bumped = b3_quartic().poly + MultiPoly(6, {(0, 0, 0, 4, 0, 0): 1})
    # a^4 * x0^4 * x1 lies in a character block of FERMAT_DUAL(3,2) other
    # than the first, and does not vanish there
    m3_bumped = quintic_curve().poly + MultiPoly(6, {(4, 0, 0, 4, 1, 0): 1})
    M4 = named_configuration("FERMAT_DUAL(4,1)")
    double = NamedConfig("double", FatScheme(2, [(fl, 2) for fl, _ in
                                                 M4.scheme.components]))
    cases = ([(build_formula(f), named_configuration(c), True)
              for f, c in VANISHING_PAIRS]
             + [(build_formula(f), named_configuration(c), False)
                for f, c in NON_VANISHING_PAIRS]
             + [(replace(b3_quartic(), poly=bumped), named_configuration("B3_DUAL"),
                 False),
                (replace(quintic_curve(), poly=m3_bumped),
                 named_configuration("FERMAT_DUAL(3,2)"), False),
                (build_formula("M4"), double, True)])
    for form, cfg, expected in cases:
        Z = cfg.scheme
        assert symbolic_vanishing_on_Z(form, cfg) is expected, (form.family, cfg.id)
        assert vanishes_by_rows(form.poly, form.npoint, Z) is expected
        if all(fl.dim == 0 for fl, _ in Z.components):
            assert vanishes_at_points(form, Z) is expected


def test_verify_family_finds_the_symmetry_once(monkeypatch):
    calls = []

    def counted(Z):
        calls.append(Z)
        return real(Z)
    real = scheme._symmetry
    monkeypatch.setattr(scheme, "_symmetry", counted)
    rep = verify_family("MULT4(5)")
    assert rep.vanishing and rep.kernel_member and rep.unique
    assert len(calls) == 1


def test_symbolic_multiplicities_certified():
    assert symbolic_multiplicity_at_general(b3_quartic()) == (3, True)
    assert symbolic_multiplicity_at_general(quintic_curve()) == (4, True)
    assert symbolic_multiplicity_at_general(sextic_curve()) == (5, True)
    for m in (5, 6, 7, 11):
        assert symbolic_multiplicity_at_general(fermat_family_curve(m)) \
            == (m + 1, True)
    assert symbolic_multiplicity_at_general(bmss_surface()) == (3, True)
    for n in (3, 4, 5):
        assert symbolic_multiplicity_at_general(mult4_curve(n)) == (4, True)


def test_multiplicity_strictly_between_zero_and_claimed():
    # (b*x - a*y)^2 * z vanishes twice at (a : b : c): every first partial
    # vanishes there, and d^2/dx^2 leaves 2*b^2*c
    poly = parse_poly("(b*x - a*y)^2*z", ("a", "b", "c", "x", "y", "z"))
    double = replace(b3_quartic(), degree=3, poly=poly)
    assert symbolic_multiplicity_at_general(double) == (2, True)


def _substitution_multiplicity(form):
    # the lowest y-degree of F(a + y), by one linear substitution
    np_ = form.npoint
    n = np_ + form.ncoord
    shift = [[int(j in (i, i - np_)) for j in range(n)] for i in range(n)]
    shifted = form.poly.substitute_linear(shift)
    return min(sum(e[np_:]) for e in shifted.terms)


def test_multiplicity_matches_substitution_oracle():
    families = (["B3", "M3", "M4", "BMSS"] + [f"GEN({m})" for m in range(2, 9)]
                + [f"MULT4({n})" for n in (3, 4, 5)])
    for family in families:
        form = build_formula(family)
        assert symbolic_multiplicity_at_general(form) \
            == (_substitution_multiplicity(form), True), family
    # seeded random forms over Q(e_3), Q(e_4) and Q(e_12), with
    # denominators, some multiplied by a power of a linear form through
    # the general point so that the order is above 0
    rng = random.Random(14)
    base = b3_quartic()
    a, b, c, x, y, z = (MultiPoly.variable(i, 6) for i in range(6))
    through = (b * x - a * y, c * x - a * z, (b + c) * x - a * (y + z))
    orders = set()
    for trial in range(60):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 2) for _ in range(6))
            order = rng.choice((1, 3, 4, 12))
            coeff = CyclotomicNumber.from_rational(
                Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 3))), order)
            terms[e] = coeff * CyclotomicNumber.root(order, rng.randrange(order))
        poly = MultiPoly(6, terms) * rng.choice(through) ** rng.randint(0, 3)
        form = replace(base, poly=poly)
        want = _substitution_multiplicity(form)
        assert symbolic_multiplicity_at_general(form) == (want, True)
        orders.add(want)
    assert {0, 1, 2, 3} <= orders
    # F(a) = a^2 + a*b is not zero, so the order is 0
    const = replace(base, degree=2, multiplicity=0, poly=x**2 + a * y)
    assert symbolic_multiplicity_at_general(const) == (0, True)
    assert _substitution_multiplicity(const) == 0


def test_mult4_weights_and_ideal_membership():
    assert mult4_weights(3) == (2, 1, 6)
    assert mult4_weights(4) == (5, 3, 10)
    assert membership_in_fat_ideal(3)
    assert membership_in_fat_ideal(5)
    form = mult4_curve(3)
    bumped = form.poly + MultiPoly(6, {(0, 0, 0, 5, 0, 0): 1})
    broken = replace(form, poly=bumped)
    attained, certified = symbolic_multiplicity_at_general(broken)
    assert not (certified and attained >= 4)


def test_mult4_cofactor_completion():
    # The cofactor presentation of c^4 times the multiplicity-4 curve for
    # n = 3, the only n with linear cofactors, over the generators of the
    # fourth ideal power: one cofactor term, (2*a^3*c + c^4), arrives
    # without an ambient variable and is degree-deficient as given.  It
    # closes up exactly with x, and with neither of the other two
    # coordinates.
    a, b, c, x, y, z = (MultiPoly.variable(i, 6) for i in range(6))
    f1 = c * x - a * z
    f2 = c * y - b * z
    g1, g2, g4, g5 = f2**4, f1 * f2**3, f1**3 * f2, f1**4
    lhs = c**4 * mult4_curve(3).poly
    exact = []
    for cand, name in ((x, "x"), (y, "y"), (z, "z")):
        rhs = (((a**4 + 2 * a * c**3) * z - (2 * a**3 * c + c**4) * cand) * g1
               + (6 * a**2 * b * c * x - (4 * a**3 * b + 2 * b * c**3) * z) * g2
               + ((4 * a * b**3 + 2 * a * c**3) * z - 6 * a * b**2 * c * y) * g4
               + ((2 * b**3 * c + c**4) * y - (b**4 + 2 * b * c**3) * z) * g5)
        if rhs == lhs:
            exact.append(name)
    assert exact == ["x"]


def test_kernel_membership_of_specializations():
    for family in ("B3", "M3", "M4", "BMSS", "MULT4(3)", "MULT4(4)"):
        assert specialized_kernel_membership(build_formula(family), seed=1)
    # every admissible coordinate-line count accepts the general family curve
    for m in (5, 6, 7):
        form = fermat_family_curve(m)
        for k in range(max(0, 5 - m), 4):
            cfg = named_configuration(f"FERMAT_DUAL({m},{k})")
            assert specialized_kernel_membership(form, config=cfg, seed=1)
    # a configuration outside the form's ambient space is refused, not
    # dotted with a coefficient vector of another length
    for cid in ("BMSS_P3", "LINES42"):
        with pytest.raises(ValueError, match=r"P\^3, but B3 has 3"):
            specialized_kernel_membership(build_formula("B3"),
                                          named_configuration(cid), seed=1)
    # lines in the form's own space are a real verdict
    assert not specialized_kernel_membership(
        build_formula("BMSS"), named_configuration("LINES42"), seed=1)


def test_kernel_membership_builds_only_the_representatives_rows(monkeypatch):
    # MULT4_POINTS(6) has 39 points in 4 orbits: the membership check
    # builds the rows of the 4 representatives and of the general point,
    # never those of every point
    form = build_formula("MULT4(6)")
    Z = named_configuration(form.config_id).scheme
    flats = []

    def counted(flat, mult, d):
        flats.append(flat)
        return component_rows(flat, mult, d)
    monkeypatch.setattr(scheme, "component_rows", counted)
    monkeypatch.setattr(formulas, "component_rows", counted)
    assert specialized_kernel_membership(form)
    assert len(flats) <= len(Z.symmetry()[1]) + 1 < len(Z)


def test_equal_up_to_scalar():
    p = b3_quartic().poly
    assert equal_up_to_scalar(p, p * 7)
    assert equal_up_to_scalar(p * -3, p)
    assert not equal_up_to_scalar(p, quintic_curve().poly)
    assert not equal_up_to_scalar(p, p + MultiPoly(6, {(0, 0, 0, 4, 0, 0): 1}))


def test_specialize_strips_point_variables():
    form = b3_quartic()
    spec = form.specialize((1, 2, 3))
    assert spec.nvars == 3
    assert spec.is_homogeneous() and spec.degree() == 4
    with pytest.raises(ValueError):
        form.specialize((1, 2))


def test_build_formula_parsing_and_errors():
    assert build_formula("gen(4)").family == "GEN(4)"
    assert build_formula("gen(4)").poly == build_formula("M4").poly
    assert build_formula("B3").config_id == "B3_DUAL"
    for bad in ("GEN(1)", "MULT4(2)", "P5", "NOPE", "GEN(2,3)", "B3(1)", "P5(1)"):
        with pytest.raises(ValueError):
            build_formula(bad)
    with pytest.raises(ValueError, match="existence-only"):
        build_formula("P5")
    with pytest.raises(ValueError, match=r"^unknown formula family 'P5\(1\)'$"):
        build_formula("P5(1)")


def test_uniqueness_of_small_families():
    # the configuration plus the general fat scheme of the template cuts
    # out a single form up to scalar
    for family in ("B3", "M3", "BMSS", "GEN(5)", "GEN(7)", "MULT4(5)"):
        form = build_formula(family)
        cfg = named_configuration(form.config_id)
        report = decide_unexpected(cfg.scheme, [(0, form.multiplicity)],
                                   form.degree, trials=2, seed=0)
        assert report.actual == 1, family


def test_verify_family_b3_report():
    rep = verify_family("B3", trials=2, seed=0)
    d = rep.as_dict()
    assert d["family"] == "B3" and d["config_id"] == "B3_DUAL"
    assert d["vanishing"] is True
    assert d["multiplicity_attained"] == 3 == d["multiplicity_expected"]
    assert d["multiplicity_certified"] is True
    assert d["kernel_member"] is True
    assert d["unique"] is True
    assert d["decision"]["unexpected"] is True
    assert d["built_degree"] == 4


def test_family_record_p5_is_existence_only():
    # the plan: P5_MULTI in degree 4 against a general triple and a general
    # double point of P^5, C(7, 5) + C(6, 5) = 27 conditions, no closed form
    rep = verify_family("P5", trials=2, seed=0)
    assert rep.family == "P5" and rep.config_id == "P5_MULTI"
    assert rep.degree == 4
    assert rep.decision.conditions_X == 27
    assert rep.built_degree is None and rep.point_degree is None
    # B3 has a closed form: one general triple point, C(4, 2) = 6 conditions
    rep_b3 = verify_family("B3", trials=2, seed=0)
    assert rep_b3.family == "B3" and rep_b3.degree == 4
    assert rep_b3.multiplicity_expected == 3
    assert rep_b3.decision.conditions_X == 6


def test_verify_family_p5_existence_only():
    rep = verify_family("P5", trials=2, seed=0)
    assert rep.built_degree is None and rep.vanishing is None
    assert rep.kernel_member is None
    assert rep.unique
    assert rep.decision.unexpected
    assert rep.decision.actual == 1 and rep.decision.expected == 0
