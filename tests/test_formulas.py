"""Closed-form equations: construction, vanishing, multiplicity, membership."""

import pytest

from fermatarr.formulas import (
    b3_quartic,
    bmss_surface,
    build_formula,
    equal_up_to_scalar,
    family_record,
    fermat_family_curve,
    membership_in_fat_ideal,
    mult4_cofactor_reconciliation,
    mult4_curve,
    mult4_weights,
    quintic_curve,
    sextic_curve,
    specialized_kernel_membership,
    symbolic_multiplicity_at_general,
    symbolic_vanishing_on_Z,
    verify_family,
)
from fermatarr.interp import decide_unexpected
from fermatarr.mpoly import MultiPoly, parse_poly
from fermatarr.scheme import named_configuration


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
        assert form.poly.is_homogeneous_in(range(form.npoint))
        assert form.poly.is_homogeneous_in(
            range(form.npoint, form.npoint + form.ncoord))


def test_symbolic_vanishing_on_configurations():
    for family in ("B3", "M3", "M4", "GEN(5)", "GEN(6)", "BMSS",
                   "MULT4(3)", "MULT4(4)", "MULT4(5)"):
        assert symbolic_vanishing_on_Z(build_formula(family))


def test_vanishing_detects_perturbation():
    form = b3_quartic()
    bumped = form.poly + MultiPoly(6, {(0, 0, 0, 4, 0, 0): 1})
    broken = type(form)(form.family, form.config_id, form.point_names,
                        form.coord_names, form.degree, form.multiplicity, bumped)
    assert not symbolic_vanishing_on_Z(broken)


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
    form = b3_quartic()
    poly = parse_poly("(b*x - a*y)^2*z", form.point_names + form.coord_names)
    double = type(form)(form.family, form.config_id, form.point_names,
                        form.coord_names, 3, form.multiplicity, poly)
    assert symbolic_multiplicity_at_general(double) == (2, True)


def test_mult4_weights_and_ideal_membership():
    assert mult4_weights(3) == (2, 1, 6)
    assert mult4_weights(4) == (5, 3, 10)
    assert membership_in_fat_ideal(3)
    assert membership_in_fat_ideal(5)
    form = mult4_curve(3)
    bumped = form.poly + MultiPoly(6, {(0, 0, 0, 5, 0, 0): 1})
    broken = type(form)(form.family, form.config_id, form.point_names,
                        form.coord_names, form.degree, form.multiplicity, bumped)
    assert not membership_in_fat_ideal(3, broken)


def test_mult4_cofactor_completion():
    # the degree-deficient cofactor term closes up exactly with x, and
    # with neither of the other two coordinates
    assert mult4_cofactor_reconciliation() == "x"


def test_kernel_membership_of_specializations():
    for family in ("B3", "M3", "M4", "BMSS", "MULT4(3)", "MULT4(4)"):
        assert specialized_kernel_membership(build_formula(family), seed=1)
    # every admissible coordinate-line count accepts the general family curve
    for m in (5, 6, 7):
        form = fermat_family_curve(m)
        for k in range(max(0, 5 - m), 4):
            cfg = named_configuration(f"FERMAT_DUAL({m},{k})")
            assert specialized_kernel_membership(form, config=cfg, seed=1)


def test_kernel_membership_rejects_wrong_degree():
    form = b3_quartic()
    with pytest.raises(ValueError, match="outside the given basis"):
        specialized_kernel_membership(form, degree=5, seed=1)


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
    for bad in ("GEN(1)", "MULT4(2)", "P5", "NOPE", "GEN(2,3)", "B3(1)"):
        with pytest.raises(ValueError):
            build_formula(bad)


def test_family_record_p5_is_existence_only():
    rec = family_record("P5")
    assert rec.config_id == "P5_MULTI"
    assert rec.degree == 4
    assert rec.template == ((0, 3), (0, 2))
    assert rec.form is None
    rec_b3 = family_record("B3")
    assert rec_b3.form.family == "B3" and rec_b3.template == ((0, 3),)


def test_uniqueness_of_small_families():
    # the configuration plus the general fat scheme of the template cuts
    # out a single form up to scalar
    for family in ("B3", "M3", "BMSS", "GEN(5)", "GEN(7)", "MULT4(5)"):
        rec = family_record(family)
        cfg = named_configuration(rec.config_id)
        report = decide_unexpected(cfg.scheme, rec.template, rec.degree,
                                   trials=2, seed=0)
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


def test_verify_family_p5_existence_only():
    rep = verify_family("P5", trials=2, seed=0)
    assert rep.built_degree is None and rep.vanishing is None
    assert rep.kernel_member is None
    assert rep.unique
    assert rep.decision.unexpected
    assert rep.decision.actual == 1 and rep.decision.expected == 0
