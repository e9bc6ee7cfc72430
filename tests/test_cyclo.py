"""Field arithmetic in cyclotomic orders: axioms, canonical reduction,
and the minimal-polynomial tables against an independent oracle."""

import random
from fractions import Fraction

import pytest
import sympy
from helpers import catalogue_points

from fermatarr.cyclo import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    power_table,
)
from fermatarr.mpoly import parse_poly
from fermatarr.scheme import named_configuration

ORDERS = (1, 2, 3, 4, 5, 6)


def _random_element(rng, order):
    phi = euler_phi(order)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(phi)]
    x = CyclotomicNumber.zero(order)
    for k, c in enumerate(coeffs):
        x = x + CyclotomicNumber.root(order, k) * c
    return x


def test_cyclotomic_polynomial_matches_sympy():
    x = sympy.symbols("x")
    for n in range(1, 31):
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert list(ours) == [int(c) for c in reversed(theirs)]


def test_euler_phi_is_the_degree_of_phi_n():
    # trial division gives the degree of Phi_n without building it, also
    # for orders whose Phi_n would take long to build
    for n in range(1, 121):
        assert euler_phi(n) == len(cyclotomic_polynomial(n)) - 1
        assert euler_phi(n) == sympy.totient(n)
    for n in (3_000_000, 2**31 - 1, 10**12):
        assert euler_phi(n) == sympy.totient(n)
    with pytest.raises(ValueError):
        euler_phi(0)


def test_power_table_reduces_root_powers():
    for n in ORDERS:
        tab = power_table(n)
        phi = euler_phi(n)
        assert len(tab) == max(n, 2 * phi - 1)
        for k, row in enumerate(tab):
            assert CyclotomicNumber(n, row) == CyclotomicNumber.root(n, k % n)
        eps = CyclotomicNumber.root(n)
        acc = CyclotomicNumber.one(n)
        for _ in range(n):
            acc = acc * eps
        assert acc == CyclotomicNumber.one(n)


@pytest.mark.parametrize("order", ORDERS)
def test_field_axioms_random_triples(order):
    rng = random.Random(order)
    one = CyclotomicNumber.one(order)
    zero = CyclotomicNumber.zero(order)
    for _ in range(1000):
        a = _random_element(rng, order)
        b = _random_element(rng, order)
        c = _random_element(rng, order)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if not a.is_zero():
            assert a * a.inverse() == one


@pytest.mark.parametrize("order", ORDERS + (7, 8, 9, 11, 12, 15, 16))
def test_inverse_round_trip(order):
    rng = random.Random(100 + order)
    for _ in range(50):
        a = _random_element(rng, order)
        if a.is_zero():
            continue
        assert a * a.inverse() == 1
        assert (a.inverse()).inverse() == a


def _multiplicative_order(x, bound=100):
    acc = x
    for j in range(1, bound + 1):
        if acc == 1:
            return j
        acc = acc * x
    raise AssertionError("no multiplicative order within bound")


def test_root_has_exact_multiplicative_order():
    import math

    for n in ORDERS:
        eps = CyclotomicNumber.root(n)
        assert _multiplicative_order(eps) == n
        if n > 1:
            assert _multiplicative_order(eps * eps) == n // math.gcd(n, 2)


def test_equal_values_of_different_orders_hash_equal():
    rng = random.Random(31)
    for order in ORDERS:
        values = [CyclotomicNumber.root(order, k) for k in range(order)]
        values += [_random_element(rng, order) for _ in range(20)]
        for a in values:
            lifts = [a.lift(order * t) for t in (2, 3)]
            assert all(b == a for b in lifts)
            assert len({hash(a), *map(hash, lifts)}) == 1
            assert len({a, *lifts}) == 1


def test_points_of_non_squarefree_orders_have_distinct_hashes():
    # at orders 8 and 16 a trace vanishes on every primitive root and
    # agrees on Galois conjugates; the hash must still separate the points
    for n in (8, 16):
        flats = [fl for fl, _ in
                 named_configuration(f"MULT4_POINTS({n})").scheme.components]
        assert len(flats) == n * n + 3
        assert len({hash(fl) for fl in flats}) == len(flats)
        assert len({hash(fl.point()) for fl in flats}) == len(flats)


def test_mixed_order_arithmetic_lifts():
    a = CyclotomicNumber.root(3)
    b = CyclotomicNumber.root(4)
    s = a + b
    assert s.order == 12
    assert s - b.lift(12) == a.lift(12)


def test_lift_rational_values_anywhere():
    # rational values stored at one order embed into any other order
    minus_one = CyclotomicNumber.root(2)
    assert minus_one.is_rational()
    assert minus_one.lift(1) == CyclotomicNumber.from_rational(-1)
    assert minus_one.lift(5).as_rational() == Fraction(-1)
    with pytest.raises(ValueError):
        CyclotomicNumber.root(3).lift(5)


def test_rationality_detection():
    eps = CyclotomicNumber.root(3)
    x = eps + eps * eps  # equals -1
    assert x.is_rational()
    assert x.as_rational() == Fraction(-1)
    assert not eps.is_rational()


def test_root_lift_and_from_rational():
    eps = CyclotomicNumber.root(5)
    assert eps == CyclotomicNumber.root(5, 6)
    assert eps.coeffs == (0, 1, 0, 0)
    assert eps.lift(10) == CyclotomicNumber.root(10, 2)
    assert CyclotomicNumber.from_rational(Fraction(3, 2), 6).as_rational() \
        == Fraction(3, 2)
    assert CyclotomicNumber.from_rational(2).lift(1) \
        == CyclotomicNumber.from_rational(2)


def test_operators_accept_rational_operands():
    a = CyclotomicNumber.root(4)
    assert a * a == CyclotomicNumber.from_rational(-1, 4)
    assert (a - a).is_zero()
    assert 1 + a == a + 1 == a + CyclotomicNumber.one(4)
    assert Fraction(1, 2) * a == a / 2
    with pytest.raises(TypeError):
        a + "nonsense"


def test_sum_of_all_roots_is_zero():
    # for n > 1 the n-th roots of unity sum to zero
    for n in (2, 3, 4, 5, 6):
        total = CyclotomicNumber.zero(n)
        for k in range(n):
            total = total + CyclotomicNumber.root(n, k)
        assert total.is_zero()


def _old_style_coeffs(rng, order):
    return [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 9)))
            for _ in range(euler_phi(order))]


def test_storage_is_canonical_int_numerators_over_one_denominator():
    import math

    rng = random.Random(41)
    for order in ORDERS + (8, 12):
        for _ in range(30):
            a = _random_element(rng, order)
            b = _random_element(rng, order)
            for v in (a, b, a + b, a - b, a * b, -a, a * 3, a.lift(2 * order)):
                assert v.den > 0
                assert all(type(c) is int for c in v.num)
                assert math.gcd(v.den, *v.num) == 1
            # one value at one order has one (num, den)
            same = (a * b) * b - a * (b * b) + a
            assert (same.num, same.den) == (a.num, a.den)
    assert (CyclotomicNumber.zero(5).num, CyclotomicNumber.zero(5).den) \
        == ((0, 0, 0, 0), 1)
    half = CyclotomicNumber(3, [Fraction(2, 4), Fraction(-3, 6)])
    assert (half.num, half.den) == ((1, -1), 2)


def test_inverse_of_negative_rationals_and_of_values_with_denominators():
    for order in (1, 2):
        for value in (Fraction(-1), Fraction(-3, 7), Fraction(-12, 5)):
            x = CyclotomicNumber.from_rational(value, order)
            inv = x.inverse()
            assert inv == 1 / value and inv.den > 0
            assert x * inv == 1
    # at order 2 the root itself is the rational -1
    assert CyclotomicNumber.root(2).inverse() == -1
    rng = random.Random(53)
    for order in (5, 11, 16):
        for _ in range(5):
            x = CyclotomicNumber(order, _old_style_coeffs(rng, order))
            if x.is_zero():
                continue
            inv = x.inverse()
            assert inv.den > 0
            assert x * inv == 1 and inv.inverse() == x


def test_coeffs_is_a_fraction_view_of_the_stored_value():
    rng = random.Random(61)
    for order in ORDERS + (11, 16):
        fracs = _old_style_coeffs(rng, order)
        x = CyclotomicNumber(order, fracs)
        assert x.coeffs == tuple(fracs)
        assert all(type(c) is Fraction for c in x.coeffs)
        assert x.coeffs == tuple(Fraction(v, x.den) for v in x.num)
    assert CyclotomicNumber.root(4).coeffs == (Fraction(0), Fraction(1))


def test_serialize_parse_round_trip():
    # str is the one text form of a value and parse_poly reads it back
    rng = random.Random(7)
    for order in ORDERS:
        for _ in range(25):
            a = _random_element(rng, order)
            assert parse_poly(str(a), ()) == a


def test_serialize_parse_round_trip_with_denominators():
    rng = random.Random(67)
    for order in ORDERS + (12, 16):
        for _ in range(10):
            x = CyclotomicNumber(order, _old_style_coeffs(rng, order))
            text = str(x)
            back = parse_poly(text, ()).terms.get((), CyclotomicNumber.zero(order))
            assert back == x and (back.num, back.den) == (x.num, x.den)
            assert str(back) == text
    x = CyclotomicNumber(4, [Fraction(1, 2), Fraction(-2, 3)])
    assert str(x) == "1/2 - 2/3*e(4)"
    assert repr(x) == "CyclotomicNumber(4, 1/2 - 2/3*e(4))"


def test_str_parse_round_trip():
    # parse_poly reads back the str of every coordinate of catalogue points
    coords = [c for p in catalogue_points() for c in p]
    assert {c.order for c in coords} == {1, 3, 6, 7, 12}
    for c in coords:
        back = parse_poly(str(c), ()).terms.get((), CyclotomicNumber.zero())
        assert back == c and str(back.lift(c.order)) == str(c)


def test_rational_values_hash_like_their_fraction():
    for n in (1, 4, 12):
        x = CyclotomicNumber.from_rational(Fraction(-1, 3), n)
        assert hash(x) == hash(Fraction(-1, 3))
        assert x == Fraction(-1, 3) and x != Fraction(1, 3)
    assert hash(CyclotomicNumber.from_rational(7, 5)) == hash(7)
