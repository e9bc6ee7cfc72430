"""Field arithmetic in cyclotomic orders: axioms, canonical reduction,
and the minimal-polynomial tables against an independent oracle."""

import random
from fractions import Fraction

import pytest
import sympy

from fermatarr.cyclo import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    int_mul_fn,
    parse_cyclo,
    power_table,
)

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


@pytest.mark.parametrize("order", ORDERS)
def test_inverse_round_trip(order):
    rng = random.Random(100 + order)
    for _ in range(50):
        a = _random_element(rng, order)
        if a.is_zero():
            continue
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


def test_serialize_parse_round_trip():
    rng = random.Random(7)
    for order in ORDERS:
        for _ in range(25):
            a = _random_element(rng, order)
            assert parse_cyclo(a.serialize()) == a


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


@pytest.mark.parametrize("order", (1, 3, 4, 5, 8))
def test_int_mul_fn_agrees_with_field(order):
    rng = random.Random(order * 11)
    phi = euler_phi(order)
    mul = int_mul_fn(order)
    for _ in range(100):
        av = [rng.randint(-50, 50) for _ in range(phi)]
        bv = [rng.randint(-50, 50) for _ in range(phi)]
        a = CyclotomicNumber(order, tuple(Fraction(v) for v in av)) \
            if phi > 1 else CyclotomicNumber.from_rational(av[0], order)
        b = CyclotomicNumber(order, tuple(Fraction(v) for v in bv)) \
            if phi > 1 else CyclotomicNumber.from_rational(bv[0], order)
        got = mul(tuple(av), tuple(bv))
        want = a * b
        assert tuple(Fraction(g) for g in got) == want.coeffs


def test_sum_of_all_roots_is_zero():
    # for n > 1 the n-th roots of unity sum to zero
    for n in (2, 3, 4, 5, 6):
        total = CyclotomicNumber.zero(n)
        for k in range(n):
            total = total + CyclotomicNumber.root(n, k)
        assert total.is_zero()
