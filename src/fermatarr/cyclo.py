"""Exact arithmetic in cyclotomic fields Q(e_n).

Elements live in the canonical basis 1, e, ..., e^(phi(n)-1) of
Q[x]/Phi_n(x), where e is a primitive n-th root of unity.  A value is
stored as int numerators over one positive denominator with their gcd
divided out, so equality at one order is tuple equality; arithmetic runs
on ints with one gcd per result.  Values are immutable; mixed-order
operands are lifted into Q(e_lcm) automatically.  common_order and
as_field are the one rule for the field that a mix of ints, Fractions and
CyclotomicNumbers lands in; polynomials, points, flats and schemes all
take it from here.

A value hashes as (order, coeffs) at its minimal order, the least m with
the value in Q(e_m), so equal values of different orders hash equal; a
rational value hashes like its Fraction.  str is a value's one text form,
with e(n) root literals; mpoly.parse_poly reads it back.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def _exact_div_int(num: list[int], den: tuple[int, ...]) -> list[int]:
    # synthetic division by a monic integer polynomial, remainder must vanish
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("division was not exact")
    return out


@lru_cache(maxsize=256)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first, monic."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div_int(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=256)
def euler_phi(n: int) -> int:
    """The degree of Phi_n: n times 1 - 1/p for each prime p dividing n,
    found by trial division, so a size check need not build Phi_n."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    phi, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        phi -= phi // rest
    return phi


# The bound on the ints in power_table(n), max(n, 2*phi(n)-1) * phi(n), for
# an order read from text (parse_poly's e(n) literals).  It is the sibling
# of arrange.FLAT_BUDGET, under which an arrangement's table holds fewer
# than 2*10**5 ints.
ROOT_TABLE_BUDGET = 10**7


def check_root_order(n: int) -> None:
    """Refuse an order n whose power table would hold more than
    ROOT_TABLE_BUDGET ints; the size is counted, not built."""
    # phi(n) >= 1, so a huge n is refused before phi(n) is factored
    if (n > ROOT_TABLE_BUDGET
            or max(n, 2 * euler_phi(n) - 1) * euler_phi(n) > ROOT_TABLE_BUDGET):
        raise ValueError(f"e({n}) needs a power table of more than the root "
                         f"table budget ROOT_TABLE_BUDGET = {ROOT_TABLE_BUDGET} ints")


@lru_cache(maxsize=256)
def power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical coefficient vectors of e_n^k for 0 <= k < max(n, 2*phi(n)-1).

    Row k expresses e^k in the basis 1, e, ..., e^(phi-1); entries are
    integers because Phi_n is monic with integer coefficients.
    """
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    top = tuple(-c for c in mod[:phi])
    rows = [tuple(1 if i == k else 0 for i in range(phi)) for k in range(phi)]
    length = max(n, 2 * phi - 1)
    cur = list(rows[-1])
    for _ in range(phi, length):
        carry = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if carry:
            cur = [c + carry * t for c, t in zip(cur, top)]
        rows.append(tuple(cur))
    return tuple(rows)


@lru_cache(maxsize=256)
def _primes(n: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, n + 1)
                 if n % p == 0 and all(p % q for q in range(2, p)))


def _image(coeffs, n: int, k: int) -> list:
    """Coefficients in Q(e_n) of sum_j coeffs[j] * e_n^(j*k)."""
    tab = power_table(n)
    acc = [0] * euler_phi(n)
    for j, c in enumerate(coeffs):
        if c:
            row = tab[j * k % n]
            for t, v in enumerate(row):
                if v:
                    acc[t] += c * v
    return acc


@lru_cache(maxsize=256)
def _subfield_solver(n: int, p: int):
    """Integer solve data (scale, solve) for membership in Q(e_(n/p)) in Q(e_n).

    solve[j] lists the (t, c) with sum c*x[t] the j-th coordinate of
    scale*x over the lifts e_n^(j*p), j < phi(n/p), read off pivot
    coordinates where the lifts are invertible."""
    dense = power_table(n)[:p * euler_phi(n // p):p]
    k = len(dense)
    rows = [[Fraction(v) for v in lift] + [Fraction(int(i == j)) for j in range(k)]
            for i, lift in enumerate(dense)]
    cols = []
    for i in range(k):
        col = next(c for c, v in enumerate(rows[i][:-k]) if v)
        rows[i] = [v / rows[i][col] for v in rows[i]]
        for j in range(k):
            if j != i and rows[j][col]:
                f = rows[j][col]
                rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
        cols.append(col)
    scale = math.lcm(*[v.denominator for row in rows for v in row[-k:]])
    return scale, tuple(tuple((c, int(row[-k + j] * scale))
                              for c, row in zip(cols, rows) if row[-k + j])
                        for j in range(k))


def _descend(num: tuple, n: int, p: int):
    """Integer numerators in Q(e_(n/p)) of scale times the value num of
    Q(e_n), with that scale, or None when the value does not lie there."""
    scale, solve = _subfield_solver(n, p)
    sub = tuple(sum(num[t] * c for t, c in terms) for terms in solve)
    return (sub, scale) if _image(sub, n, p) == [scale * v for v in num] else None


def _mul_num(a: tuple, b: tuple, n: int) -> tuple:
    """The product of two integer coefficient tuples of Q(e_n)."""
    phi = len(a)
    if phi == 1:
        return (a[0] * b[0],)
    conv = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                if bj:
                    conv[j] += ai * bj
    res = conv[:phi]
    for ck, row in zip(conv[phi:], power_table(n)[phi:]):
        if ck:
            for t, v in enumerate(row):
                if v:
                    res[t] += ck * v
    return tuple(res)


class CyclotomicNumber:
    """An element num/den of Q(e_n) in canonical reduced form: num holds
    the integer coefficients on 1, e, ..., e^(phi-1), den > 0 and
    gcd(den, *num) = 1."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(cs) != phi:
            raise ValueError(f"expected {phi} coefficients for order {order}, got {len(cs)}")
        # the lcm of reduced denominators leaves gcd(den, *num) = 1
        den = math.lcm(*[c.denominator for c in cs])
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", tuple(c.numerator * (den // c.denominator) for c in cs))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CyclotomicNumber is immutable")

    @staticmethod
    def _make(order: int, num: tuple, den: int = 1) -> "CyclotomicNumber":
        """num/den from phi(order) ints and a positive int, with their gcd
        divided out; arithmetic results skip the checks of __init__."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = tuple(v // g for v in num)
                den //= g
        out = object.__new__(CyclotomicNumber)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        pad = (0,) * (euler_phi(order) - 1)
        return _make(order, (value.numerator,) + pad, value.denominator)

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(1, order)

    @classmethod
    def root(cls, order: int, k: int = 1) -> "CyclotomicNumber":
        """The root of unity e_order^k in canonical form."""
        table = power_table(order)  # rejects order < 1 before k % order
        return _make(order, table[k % order])

    @property
    def coeffs(self) -> tuple:
        """The coefficients on 1, e, ..., e^(phi-1) as Fractions."""
        return tuple(Fraction(v, self.den) for v in self.num)

    # -- structure ------------------------------------------------------
    def lift(self, order: int) -> "CyclotomicNumber":
        """Embed into Q(e_order); self.order must divide order, except
        that rational values embed anywhere."""
        if order == self.order:
            return self
        num = self.num
        if not any(num[1:]):
            return _make(order, num[:1] + (0,) * (euler_phi(order) - 1), self.den)
        if order % self.order:
            raise ValueError(f"cannot embed order {self.order} into order {order}")
        return _make(order, tuple(_image(num, order, order // self.order)), self.den)

    def _pair(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order == self.order:
                return self, other
            n = math.lcm(self.order, other.order)
            return self.lift(n), other.lift(n)
        if isinstance(other, (int, Fraction)):
            return self, CyclotomicNumber.from_rational(other, self.order)
        return self, None

    # -- predicates -----------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other) -> "CyclotomicNumber":
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        ad, bd = a.den, b.den
        return _make(a.order, tuple(x * bd + y * ad for x, y in zip(a.num, b.num)),
                     ad * bd)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return _make(self.order, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if type(other) is int:
            return _make(self.order, tuple(x * other for x in self.num), self.den)
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return _make(a.order, _mul_num(a.num, b.num, a.order), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """1/x as den times the product of the other Galois conjugates of
        num, divided by the integer norm of num, their product with num."""
        n, a, den = self.order, self.num, self.den
        if not any(a):
            raise ZeroDivisionError("division by zero in Q(e_n)")
        rest = (1,) + (0,) * (len(a) - 1)
        if any(a[1:]):
            for k in range(2, n):
                if math.gcd(k, n) == 1:
                    rest = _mul_num(rest, _image(a, n, k), n)
        norm = _mul_num(a, rest, n)[0]
        if norm < 0:
            norm, den = -norm, -den
        return _make(n, tuple(den * v for v in rest), norm)

    def __truediv__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int) -> "CyclotomicNumber":
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        out = CyclotomicNumber.one(self.order)
        for bit in bin(abs(k))[2:]:
            out = out * out
            if bit == "1":
                out = out * base
        return out

    # -- comparison -----------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        if isinstance(other, CyclotomicNumber):
            a, b = self._pair(other)
            return a.num == b.num and a.den == b.den
        return NotImplemented

    def __hash__(self):
        order, num, den = self.order, self.num, self.den
        while any(num[1:]):
            for p in _primes(order):
                sub = _descend(num, order, p)
                if sub is not None:
                    order, (num, scale) = order // p, sub
                    den *= scale
                    break
            else:
                break
        if den != 1:
            num = tuple(Fraction(v, den) for v in num)
        return hash((order, num)) if any(num[1:]) else hash(num[0])

    # -- text -----------------------------------------------------------
    def __str__(self) -> str:
        if self.is_rational():
            return _frac_str(self.as_rational())
        out = ""
        for k, c in enumerate(self.coeffs):
            if c:
                sym = f"e({self.order})" + (f"^{k}" if k > 1 else "")
                term = (_frac_str(c) if k == 0 else sym if c == 1
                         else f"-{sym}" if c == -1 else f"{_frac_str(c)}*{sym}")
                out += (term if not out else f" - {term[1:]}"
                        if term.startswith("-") else f" + {term}")
        return out

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self.order}, {self})"


_make = CyclotomicNumber._make


def common_order(values) -> int:
    """The lcm of the stored orders of the non-rational CyclotomicNumbers
    among values: the order of the field that holds them all.  Ints,
    Fractions and rational values count as order 1.  A value counts with
    its stored order even when a smaller field holds it: e(12)^4 = e(3)
    counts as 12."""
    n = 1
    for v in values:
        if isinstance(v, CyclotomicNumber) and n % v.order and not v.is_rational():
            n = math.lcm(n, v.order)
    return n


def as_field(value, order: int) -> CyclotomicNumber:
    """An int, Fraction or CyclotomicNumber as an element of Q(e_order);
    order must be a multiple of common_order([value])."""
    if isinstance(value, CyclotomicNumber):
        return value.lift(order)
    return CyclotomicNumber.from_rational(value, order)


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
