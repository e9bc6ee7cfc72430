"""Sparse polynomial layer: calculus identities on random instances,
parsing round-trips, and substitution semantics."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from helpers import catalogue_points, evaluate

from fermatarr import cyclo, mpoly
from fermatarr.arrange import Flat
from fermatarr.cli import main
from fermatarr.cyclo import CyclotomicNumber
from fermatarr.mpoly import (
    MultiPoly,
    format_point,
    graded_monomials,
    parse_point,
    parse_poly,
)


def _random_poly(rng, nvars, order, max_deg=4, nterms=6):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, max_deg // 2) for _ in range(nvars))
        num = rng.randint(-6, 6)
        if num == 0:
            continue
        coeff = CyclotomicNumber.from_rational(Fraction(num), order)
        if order > 1 and rng.random() < 0.5:
            coeff = coeff * CyclotomicNumber.root(order)
        terms[e] = coeff
    return MultiPoly(nvars, terms)


def _random_homogeneous(rng, nvars, order, deg):
    monos = graded_monomials(nvars, deg)
    terms = {}
    for _ in range(5):
        e = monos[rng.randrange(len(monos))]
        v = rng.randint(-5, 5)
        if v:
            terms[e] = CyclotomicNumber.from_rational(v, order)
    return MultiPoly(nvars, terms)


def test_euler_identity_random_instances():
    # sum_i x_i * dP/dx_i = deg(P) * P for homogeneous P
    rng = random.Random(1)
    for trial in range(200):
        nvars = rng.randint(2, 4)
        order = rng.choice((1, 2, 3, 4))
        deg = rng.randint(1, 5)
        p = _random_homogeneous(rng, nvars, order, deg)
        if p.is_zero():
            continue
        total = MultiPoly.zero(nvars)
        for i in range(nvars):
            total = total + MultiPoly.variable(i, nvars) * p.partial(i)
        assert total == p * deg


def test_leibniz_rule_random_instances():
    rng = random.Random(2)
    for trial in range(200):
        nvars = rng.randint(2, 4)
        order = rng.choice((1, 3, 4))
        i = rng.randrange(nvars)
        p = _random_poly(rng, nvars, order)
        q = _random_poly(rng, nvars, order)
        lhs = (p * q).partial(i)
        rhs = p.partial(i) * q + p * q.partial(i)
        assert lhs == rhs


def test_mixed_partials_commute():
    rng = random.Random(3)
    for _ in range(50):
        p = _random_poly(rng, 3, 3, max_deg=6)
        assert p.partial(0).partial(2) == p.partial(2).partial(0)
        assert p.partial_multi((1, 0, 1)) == p.partial(2).partial(0)


def test_graded_monomials_counts_and_order():
    for nvars in (1, 2, 3, 4):
        for deg in range(0, 6):
            monos = graded_monomials(nvars, deg)
            assert len(monos) == math.comb(nvars + deg - 1, deg)
            assert all(sum(e) == deg for e in monos)
            assert list(monos) == sorted(monos, reverse=True)


def test_parse_poly_round_trip():
    names = ("x0", "x1", "x2")
    samples = (
        "x0^3 - 2*x1*x2 + 1/2*x2^3",
        "x0*x1*x2",
        "-x1^4 + e(3)*x0^2*x1^2",
        "e(4)^3*x0 + x2",
    )
    for s in samples:
        p = parse_poly(s, names)
        q = parse_poly(str(p), names)
        assert p == q


def test_parse_poly_language_is_pinned():
    # each accepted text with the str of what it reads to, in x0..xN
    X, AE = ("x0", "x1", "x2"), ("a", "e")
    accepted = (
        ('x0', X, 'x0'),
        ('-x0', X, '-x0'),
        ('+x0', X, 'x0'),
        ('x0 + x1', X, 'x0 + x1'),
        ('x0 - x1', X, 'x0 - x1'),
        ('x0 + x1 - x2', X, 'x0 + x1 - x2'),
        ('-x0 + x1', X, '-x0 + x1'),
        ('x0*x1', X, 'x0*x1'),
        ('x0*x1*x2', X, 'x0*x1*x2'),
        ('2*x0', X, '2*x0'),
        ('x0*2', X, '2*x0'),
        ('x0/2', X, '(1/2)*x0'),
        ('x0/2/3', X, '(1/6)*x0'),
        ('3/4', X, '3/4'),
        ('x0^2', X, 'x0^2'),
        ('x0^0', X, '1'),
        ('x0^1', X, 'x0'),
        ('(x0 + x1)^2', X, 'x0^2 + 2*x0*x1 + x1^2'),
        ('(x0 - x1)^3', X, 'x0^3 - 3*x0^2*x1 + 3*x0*x1^2 - x1^3'),
        ('2^-1', X, '1/2'),
        ('2^-1*x0', X, '(1/2)*x0'),
        ('(2/3)^-2', X, '9/4'),
        ('2^3', X, '8'),
        ('(x0 + 1)*(x0 - 1)', X, 'x0^2 - 1'),
        ('((x0))', X, 'x0'),
        ('-(x0 - x1)', X, '-x0 + x1'),
        ('(-x1)^2', X, 'x1^2'),
        ('x0*(-x1)^2', X, 'x0*x1^2'),
        ('-x0^2', X, '-x0^2'),
        ('-2^2*x1', X, '-4*x1'),
        ('x0/(1 + 1)', X, '(1/2)*x0'),
        ('e(3)', X, 'e(3)'),
        ('e(3)^2', X, '(-1 - e(3))'),
        ('e(3)^3', X, '1'),
        ('e(4)^-1', X, '-e(4)'),
        ('e(3)*x0 + e(4)*x1', X, 'e(3)*x0 + e(4)*x1'),
        ('x0/e(3)', X, '(-1 - e(3))*x0'),
        ('e(1)', X, '1'),
        ('e(6)^2 - e(3)', X, '0'),
        ('x0 - x0', X, '0'),
        ('0', X, '0'),
        ('0^0', X, '1'),
        ('01*x0 + 007', X, 'x0 + 7'),
        ('  x0  *\tx1 ^ 2  +\n3 ', X, 'x0*x1^2 + 3'),
        ('e (5) ^ 7 * x2', X, 'e(5)^2*x2'),
        ('1/2 - 2/3*e(4)', X, '(1/2 - 2/3*e(4))'),
        ('(x0 + e(3)*x1)*(x0 + e(3)^2*x1)', X, 'x0^2 - x0*x1 + x1^2'),
        ('a*e + e(3)*e', AE, 'x0*x1 + e(3)*x1'),
        ('e^2 - a', AE, 'x1^2 - x0'),
        ('(a - e)*(a + e)', AE, 'x0^2 - x1^2'),
        ('x2', ('x2', 'x1', 'x0'), 'x0'),
    )
    for text, names, want in accepted:
        p = parse_poly(text, names)
        assert str(MultiPoly(p.nvars, p.terms)) == want, text
    rejected = ("x0 +* x1", "y0", "x0**2", "x0^x1", "x0^(1/2)", "x0/x1", "x0/0",
                "0^-1", "e(x0)", "e()", "e(3)(2)", "1.5", "2x0", "x0 x1", "0x10",
                "1_0", "(x0", "x0)", "", "x0^(2)", "x0^-(2)", "e((3))", "x0^2^3",
                "x0^-1", "x0^+2", "e(-3)", "e(0)", "x0(2)", "x0 // 2", "x0^^2",
                "e", "()")
    for text in rejected:
        with pytest.raises(ValueError):
            parse_poly(text, X)
    for text, message in (("y0", "unknown variable 'y0'"),
                          ("x0,x1", "unexpected character ',' in polynomial text"),
                          ("x0/x1", "division only by nonzero constants"),
                          ("0^-1", "negative powers only on nonzero constants")):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_poly(text, X)


def test_unary_signs_bind_looser_than_powers():
    X = ("x0", "x1")
    assert parse_poly("x0*-x1^2", X) == -parse_poly("x0*x1^2", X)
    assert parse_poly("--x0^2", X) == parse_poly("x0^2", X)
    assert parse_poly("2*-e(3)^2", X) == -2 * parse_poly("e(3)^2", X)
    assert parse_poly("x0*(-x1)^2", X) == parse_poly("x0*x1^2", X)
    assert parse_poly("x0*+x1", X) == parse_poly("x0*x1", X)


def test_parse_poly_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("x0 +* x1", ("x0", "x1"))
    with pytest.raises(ValueError):
        parse_poly("y0", ("x0", "x1"))


def test_evaluate_matches_partial_evaluate():
    # evaluate calls partial_evaluate, so both are checked against the
    # term-by-term sum, and partial_evaluate also variable 0 first
    rng = random.Random(4)
    for _ in range(40):
        p = _random_poly(rng, 3, 3)
        coords = [CyclotomicNumber.root(3, rng.randrange(3))
                  for _ in range(3)]
        want = CyclotomicNumber.zero(3)
        for e, c in p.terms.items():
            for x, k in zip(coords, e):
                c = c * x ** k
            want = want + c
        assert evaluate(p, coords) == want
        step = p.partial_evaluate({0: coords[0]})
        assert step.degree_in((0,)) == 0
        step = step.partial_evaluate({1: coords[1], 2: coords[2]})
        assert step.degree() in (None, 0)
        assert step.terms.get((0, 0, 0), CyclotomicNumber.zero(3)) == want


def test_partial_evaluate_matches_term_by_term():
    # coefficients with denominators, at orders 1, 3, 4 and 12 in one
    # polynomial; assigned values 0, ints, Fractions and cyclotomic values
    # of mixed orders, on every subset of the variables
    rng = random.Random(14)
    orders = (1, 3, 4, 12)

    def scalar(order):
        value = CyclotomicNumber.from_rational(
            Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3, 4))),
            order)
        return value * CyclotomicNumber.root(order, rng.randrange(order))

    def assigned():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice((0, Fraction(0), CyclotomicNumber.zero(3)))
        if kind == 1:
            return rng.randint(-4, 4)
        if kind == 2:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        return scalar(rng.choice(orders))

    # every nonempty subset of the four variables, strict ones included
    subsets = [s for k in range(1, 5) for s in itertools.combinations(range(4), k)]
    seen = set()
    for trial in range(120):
        terms = {}
        for _ in range(rng.randint(1, 9)):
            e = tuple(rng.randint(0, 3) for _ in range(4))
            terms[e] = scalar(rng.choice(orders))
        p = MultiPoly(4, terms)
        assign = {i: assigned() for i in subsets[trial % len(subsets)]}
        want: dict = {}
        for e, c in p.terms.items():
            for i, v in assign.items():
                c = c * v ** e[i]
            key = tuple(0 if i in assign else k for i, k in enumerate(e))
            want[key] = want[key] + c if key in want else c
        got = p.partial_evaluate(assign)
        assert got == MultiPoly(4, want)
        assert all(type(c) is CyclotomicNumber and c for c in got.terms.values())
        assert all(e[i] == 0 for e in got.terms for i in assign)
        seen.update("zero" if not v else type(v).__name__ for v in assign.values())
    assert seen == {"zero", "int", "Fraction", "CyclotomicNumber"}


def test_substitute_linear_matches_evaluation():
    # substituting then evaluating equals evaluating the composed map
    rng = random.Random(5)
    for _ in range(30):
        p = _random_poly(rng, 3, 1)
        matrix = [[Fraction(rng.randint(-3, 3)) for _ in range(2)]
                  for _ in range(3)]
        q = p.substitute_linear(matrix)
        assert q.nvars == 2
        pt = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        image = [sum(matrix[i][j] * pt[j] for j in range(2)) for i in range(3)]
        assert evaluate(q, pt) == evaluate(p, image)


def test_substitute_linear_single_variable_rename():
    p = parse_poly("x0^2 + x0*x1", ("x0", "x1"))
    swap = [[0, 1], [1, 0]]
    q = p.substitute_linear(swap)
    assert q == parse_poly("x1^2 + x0*x1", ("x0", "x1"))


def test_homogeneity_predicates():
    p = parse_poly("x0^2*x1 - x2^3", ("x0", "x1", "x2"))
    assert p.is_homogeneous()
    q = p + 1
    assert not q.is_homogeneous()
    assert p.degree_in((0,)) == 2
    assert p.degree_in((2,)) == 3


def test_coeff_vector_round_trip():
    rng = random.Random(6)
    monos = graded_monomials(3, 4)
    p = _random_homogeneous(rng, 3, 1, 4)
    vec = p.coeff_vector(monos)
    rebuilt = MultiPoly(3, {m: c for m, c in zip(monos, vec) if c})
    assert rebuilt == p


def test_coeff_vector_requires_cover():
    p = parse_poly("x0^2", ("x0", "x1"))
    with pytest.raises(ValueError):
        p.coeff_vector(graded_monomials(2, 1))


def test_format_point_parse_point_round_trip():
    points = catalogue_points()
    assert len(points) == 389
    for p in points:
        text = format_point(p)
        back = parse_point(text)
        assert back == p
        assert format_point(back) == text
    # coordinates are written at their common order, whatever each stores
    mixed = (1, CyclotomicNumber.root(3), CyclotomicNumber.root(4), Fraction(-1, 2))
    assert format_point(mixed) == "(1 : -1 + e(12)^2 : e(12)^3 : -1/2)"
    assert parse_point(format_point(mixed)) == mixed


def test_zero_point_in_a_scheme_file_exits_1(tmp_path, capsys):
    # the zero vector reads as a tuple and is refused where it becomes a Flat
    assert parse_point("(0 : 0 : 0)") == (0, 0, 0)
    with pytest.raises(ValueError, match="all zero"):
        Flat.from_point((0, 0, 0))
    path = tmp_path / "zero.scheme"
    path.write_text("ambient 2\npoint (0 : 0 : 0) mult 1\n")
    assert main(["dimension", "--scheme", str(path), "--degree", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scheme line 2: vectors are all zero" in captured.err


def test_root_literals_over_the_table_budget_are_refused(monkeypatch):
    # power_table(7) holds max(7, 2*6 - 1) * 6 = 66 ints
    monkeypatch.setattr(cyclo, "ROOT_TABLE_BUDGET", 66)
    assert parse_poly("e(7)", ()).terms[()] == CyclotomicNumber.root(7)
    monkeypatch.setattr(cyclo, "ROOT_TABLE_BUDGET", 65)
    with pytest.raises(ValueError, match="ROOT_TABLE_BUDGET = 65"):
        parse_poly("e(7)", ())
    monkeypatch.undo()

    def no_table(*args):
        raise AssertionError("a power table was built")
    monkeypatch.setattr(cyclo, "power_table", no_table)
    for order in (200000, 10**30):
        with pytest.raises(ValueError, match="ROOT_TABLE_BUDGET"):
            parse_poly(f"x0 + e({order})*x1", ("x0", "x1"))


def _no_power(*args):
    raise AssertionError("a power was computed")


def test_powers_over_the_power_budget_are_refused(monkeypatch):
    # 3^4: phi 1 x k 4 x (2 bits + 1 for one term) = 12, one monomial;
    # (x0 + x1)^2: 1 x 2 x (1 + 2) = 6, times the 3 monomials of degree 2
    monkeypatch.setattr(mpoly, "POWER_BUDGET", 18)
    assert parse_poly("3^4 + (x0 + x1)^2", ("x0", "x1")) == parse_poly(
        "81 + x0^2 + 2*x0*x1 + x1^2", ("x0", "x1"))
    monkeypatch.setattr(mpoly, "POWER_BUDGET", 17)
    with pytest.raises(ValueError, match="POWER_BUDGET = 17"):
        parse_poly("(x0 + x1)^2", ("x0", "x1"))
    # (x0 + 1)^2 is not homogeneous: counted over the 6 monomials up to degree 2
    with pytest.raises(ValueError, match=r"the power \^2 of a 2-term"):
        parse_poly("(x0 + 1)^2", ("x0", "x1"))
    monkeypatch.undo()

    monkeypatch.setattr(MultiPoly, "__pow__", _no_power)
    monkeypatch.setattr(CyclotomicNumber, "__pow__", _no_power)
    for text in ("2^100000000", "2^-100000000", "(x0 + x1)^100000",
                 "x0^100000000", "e(3)^100000000", "(x0 - e(5)*x1)^2000"):
        with pytest.raises(ValueError, match="POWER_BUDGET"):
            parse_poly(text, ("x0", "x1"))


def test_power_over_the_budget_in_a_scheme_file_exits_1(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(MultiPoly, "__pow__", _no_power)
    for i, body in enumerate(("point (2^100000000 : 1 : 1)",
                              "flat { eq: (x0 + x1)^100000 }")):
        path = tmp_path / f"power{i}.scheme"
        path.write_text(f"ambient 2\n{body} mult 1\n")
        assert main(["dimension", "--scheme", str(path), "--degree", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"scheme line 2: the power .*POWER_BUDGET", captured.err)


def test_pow_matches_repeated_multiplication():
    p = parse_poly("x0 + 2*x1", ("x0", "x1"))
    assert p**3 == p * p * p
    assert p**0 == parse_poly("1", ("x0", "x1"))
    with pytest.raises(ValueError):
        p**-1


def test_eq_and_hash_agree_across_orders_and_variable_counts():
    p = parse_poly("x0 + 2*x1", ("x0", "x1"))
    q = MultiPoly(2, {e: c.lift(3) for e, c in p.terms.items()})
    assert {c.order for c in q.terms.values()} == {3}
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1
    assert p != parse_poly("x0 + 2*x1", ("x0", "x1", "x2"))


def test_terms_at_different_stored_orders():
    # each coefficient keeps its own order; cyclo's arithmetic does the lifts
    names = ("x0", "x1")
    p = parse_poly("e(3)*x0 + e(4)*x1", names)
    q = parse_poly("x0 - e(4)*x1", names)
    assert {c.order for c in p.terms.values()} == {3, 4}
    assert str(p) == "e(3)*x0 + e(4)*x1"
    e3, e4 = CyclotomicNumber.root(3), CyclotomicNumber.root(4)
    assert (p + q).terms == {(1, 0): e3 + 1}
    prod = p * q
    assert prod.terms == {(2, 0): e3, (1, 1): e4 - e3 * e4, (0, 2): 1}
    pt = [CyclotomicNumber.root(5, k) + k for k in (1, 2)]
    for r in (p, q, p + q, prod):
        lifted = MultiPoly(2, {e: c.lift(12) for e, c in r.terms.items()})
        assert r == lifted and hash(r) == hash(lifted)
        assert parse_poly(str(r), names) == r
        by_term = sum(c * pt[0]**e[0] * pt[1]**e[1] for e, c in r.terms.items())
        assert evaluate(r, pt) == by_term


def test_constants_hash_like_the_scalars_they_equal():
    five = MultiPoly.constant(5, 2)
    assert five == 5 and hash(five) == hash(5)
    zero = MultiPoly.zero(2)
    assert zero == 0 and hash(zero) == hash(0)
    c = CyclotomicNumber.root(3)
    assert len({MultiPoly.constant(c, 2), c}) == 1
