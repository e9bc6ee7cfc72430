"""Exact arithmetic in cyclotomic fields Q(e_n).

Elements live in the canonical basis 1, e, ..., e^(phi(n)-1) of
Q[x]/Phi_n(x), where e is a primitive n-th root of unity, so equality is
coefficient-wise.  Coefficients are `fractions.Fraction`, hence every
operation is exact.  Values are immutable; mixed-order operands are lifted
into Q(e_lcm) automatically.

Hashing uses (order, coeffs) except for rational values, which hash like
their Fraction.  Do not mix non-rational values of different orders in one
hashed collection; library code keeps a single order per computation.
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


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    q = [_ZERO] * max(len(num) - len(den) + 1, 0)
    lead = den[-1]
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i]
        if c:
            f = c / lead
            q[i - len(den) + 1] = f
            for j, dj in enumerate(den):
                num[i - len(den) + 1 + j] -= f * dj
    return q, _poly_trim(num)


def _inv_coeffs(a: tuple, n: int) -> tuple:
    """Inverse of a nonzero element via the extended Euclidean algorithm."""
    phi = len(a)
    if phi == 1:
        return (1 / a[0],)
    r0 = [Fraction(c) for c in cyclotomic_polynomial(n)]
    r1 = _poly_trim([Fraction(c) for c in a])
    t0: list[Fraction] = []
    t1: list[Fraction] = [_ONE]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        prod = [_ZERO] * (len(q) + len(t1) - 1) if q and t1 else []
        for i, qi in enumerate(q):
            if qi:
                for j, tj in enumerate(t1):
                    if tj:
                        prod[i + j] += qi * tj
        nt = [_ZERO] * max(len(t0), len(prod))
        for i, c in enumerate(t0):
            nt[i] += c
        for i, c in enumerate(prod):
            nt[i] -= c
        t0, t1 = t1, _poly_trim(nt)
    # r0 is the gcd, a nonzero constant since Phi_n is irreducible
    g = r0[0]
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    inv = [c / g for c in t0]
    inv += [_ZERO] * (phi - len(inv))
    return tuple(inv[:phi])


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
        k %= order
        row = power_table(order)[k]
        return cls(order, row)

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
        step = order // self.order
        tab = power_table(order)
        phi = euler_phi(order)
        acc = [_ZERO] * phi
        for k, c in enumerate(self.coeffs):
            if c:
                row = tab[k * step]  # k*step < order <= len(tab)
                for t in range(phi):
                    if row[t]:
                        acc[t] += c * row[t]
        return CyclotomicNumber(order, acc)

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
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(e_n)")
        return CyclotomicNumber(self.order, _inv_coeffs(self.coeffs, self.order))

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
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def sort_key(self):
        return self.coeffs

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


# integer-coordinate kernels used by the exact linear algebra -----------

def int_mul_fn(n: int):
    """Multiplication of integer coefficient tuples in Z[e_n]."""
    phi = euler_phi(n)
    if phi == 1:
        return lambda a, b: (a[0] * b[0],)
    tab = power_table(n)

    def mul(a, b):
        conv = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        res = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            ck = conv[k]
            if ck:
                row = tab[k]
                for t in range(phi):
                    if row[t]:
                        res[t] += ck * row[t]
        return tuple(res)

    return mul
