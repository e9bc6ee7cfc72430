"""Exact arithmetic in cyclotomic fields Q(e_n).

Elements live in the canonical basis 1, e, ..., e^(phi(n)-1) of
Q[x]/Phi_n(x), where e is a primitive n-th root of unity, so equality is
coefficient-wise.  Coefficients are `fractions.Fraction`, hence every
operation is exact.  Values are immutable; mixed-order operands are lifted
into Q(e_lcm) automatically.  common_order and as_field are the one rule
for the field that a mix of ints, Fractions and CyclotomicNumbers lands
in; polynomials, points, flats and schemes all take it from here.

A value hashes as (order, coeffs) at its minimal order, the least m with
the value in Q(e_m), so equal values of different orders hash equal; a
rational value hashes like its Fraction.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Union

Scalar = Union[int, Fraction, "CyclotomicNumber"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _primes(n: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, n + 1)
                 if n % p == 0 and all(p % q for q in range(2, p)))


def _image(coeffs, n: int, k: int) -> list:
    """Coefficients in Q(e_n) of sum_j coeffs[j] * e_n^(j*k)."""
    tab = power_table(n)
    acc = [_ZERO] * euler_phi(n)
    for j, c in enumerate(coeffs):
        if c:
            row = tab[j * k % n]
            for t, v in enumerate(row):
                if v:
                    acc[t] += c * v
    return acc


@lru_cache(maxsize=None)
def _subfield_solver(n: int, p: int):
    """Sparse solve data for membership in Q(e_(n/p)) inside Q(e_n).

    solve[j] lists the (t, c) with sum c*x[t] the j-th coordinate of x
    over the lifts e_n^(j*p), j < phi(n/p), read off pivot coordinates
    where the lifts are invertible."""
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
    return tuple(tuple((c, row[-k + j]) for c, row in zip(cols, rows) if row[-k + j])
                 for j in range(k))


def _descend(coeffs: tuple, n: int, p: int):
    """Coefficients in Q(e_(n/p)) of the value coeffs of Q(e_n), or None
    when it does not lie there."""
    sub = tuple(sum(coeffs[t] * c for t, c in terms)
                for terms in _subfield_solver(n, p))
    return sub if _image(sub, n, p) == list(coeffs) else None


def _mul_coeffs(a: tuple, b: tuple, n: int) -> tuple:
    phi = len(a)
    if phi == 1:
        return (a[0] * b[0],)
    conv = [_ZERO] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    res = list(conv[:phi])
    tab = power_table(n)
    for k in range(phi, 2 * phi - 1):
        ck = conv[k]
        if ck:
            row = tab[k]
            for t in range(phi):
                if row[t]:
                    res[t] += ck * row[t]
    return tuple(res)


class CyclotomicNumber:
    """An element of Q(e_n) in canonical reduced form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        cs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(cs) != phi:
            raise ValueError(f"expected {phi} coefficients for order {order}, got {len(cs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        phi = euler_phi(order)
        return cls(order, (Fraction(value),) + (_ZERO,) * (phi - 1))

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
        return cls(order, table[k % order])

    # -- structure ------------------------------------------------------
    def lift(self, order: int) -> "CyclotomicNumber":
        """Embed into Q(e_order); self.order must divide order, except
        that rational values embed anywhere."""
        if order == self.order:
            return self
        if order % self.order:
            if self.is_rational():
                return CyclotomicNumber.from_rational(self.as_rational(), order)
            raise ValueError(f"cannot embed order {self.order} into order {order}")
        return CyclotomicNumber(order, _image(self.coeffs, order, order // self.order))

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
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(map(bool, self.coeffs))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other) -> "CyclotomicNumber":
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return CyclotomicNumber(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return CyclotomicNumber(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._pair(other)
        if b is None:
            return NotImplemented
        return CyclotomicNumber(a.order, _mul_coeffs(a.coeffs, b.coeffs, a.order))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """1/x as the product of the other Galois conjugates of x divided
        by the rational norm of x, their product with x."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(e_n)")
        n, a = self.order, self.coeffs
        rest = (_ONE,) + (_ZERO,) * (len(a) - 1)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                rest = _mul_coeffs(rest, _image(a, n, k), n)
        norm = _mul_coeffs(a, rest, n)[0]
        return CyclotomicNumber(n, tuple(c / norm for c in rest))

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
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        out = CyclotomicNumber.one(self.order)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison -----------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, CyclotomicNumber):
            a, b = self._pair(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    def __hash__(self):
        order, coeffs = self.order, self.coeffs
        while any(coeffs[1:]):
            for p in _primes(order):
                sub = _descend(coeffs, order, p)
                if sub is not None:
                    order, coeffs = order // p, sub
                    break
            else:
                return hash((order, coeffs))
        return hash(coeffs[0])

    # -- text -----------------------------------------------------------
    def serialize(self) -> str:
        body = ", ".join(_frac_str(c) for c in self.coeffs)
        return f"cyclo({self.order})[{body}]"

    def __str__(self) -> str:
        if self.is_rational():
            return _frac_str(self.coeffs[0])
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(_frac_str(c))
                continue
            sym = f"e({self.order})" if k == 1 else f"e({self.order})^{k}"
            if c == 1:
                term = sym
            elif c == -1:
                term = f"-{sym}"
            else:
                term = f"{_frac_str(c)}*{sym}"
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self.serialize()})"


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


_CYCLO_RE = re.compile(r"^\s*cyclo\((\d+)\)\[(.*)\]\s*$")


def parse_cyclo(text: str) -> CyclotomicNumber:
    """Inverse of CyclotomicNumber.serialize."""
    m = _CYCLO_RE.match(text)
    if not m:
        raise ValueError(f"not a cyclo(n)[...] literal: {text!r}")
    order = int(m.group(1))
    body = m.group(2).strip()
    coeffs = [Fraction(p.strip()) for p in body.split(",")] if body else []
    return CyclotomicNumber(order, coeffs)

