"""Sparse multivariate polynomials over Q(e_n), and the text of points.

Terms are a dict from exponent tuple to nonzero coefficient; the zero
polynomial is the empty dict.  A polynomial's field is the field of its
coefficients: each CyclotomicNumber keeps the order it carries, and its
own mixed-order arithmetic, == and hash do every lift.

Values have one text form.  str writes a polynomial in x0..xN as sums of
products of rational literals, e(n) root literals and variables, with ^
for powers (a scalar's str is the same language); parse_poly reads it
back under the variable names it is given, with Python's own parser and
a walk that accepts only those nodes.  A polynomial carries no names.
A point's coordinates are a plain tuple (a point is a 0-dimensional
arrange.Flat); format_point writes them and parse_point reads them back.
"""
from __future__ import annotations

import ast
import re
from fractions import Fraction
from functools import lru_cache
from math import comb

from .cyclo import CyclotomicNumber, as_field, check_root_order, common_order

_ZERO = CyclotomicNumber.zero()
_ONE = CyclotomicNumber.one()


def default_names(nvars: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(nvars))


@lru_cache(maxsize=256)
def graded_monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, lex-descending."""
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in graded_monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


class MultiPoly:
    """A polynomial in nvars variables with CyclotomicNumber coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None) -> None:
        clean: dict[tuple[int, ...], CyclotomicNumber] = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps}")
                if not isinstance(c, CyclotomicNumber):
                    c = CyclotomicNumber.from_rational(c)
                if c:
                    clean[exps] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("MultiPoly is immutable")

    def _make(self, terms: dict) -> "MultiPoly":
        """A result in self's variables from CyclotomicNumber terms; arithmetic
        skips the validation of __init__ and only drops zero coefficients."""
        out = object.__new__(MultiPoly)
        object.__setattr__(out, "nvars", self.nvars)
        object.__setattr__(out, "terms", {e: c for e, c in terms.items() if c})
        return out

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, value, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "MultiPoly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: 1})

    # -- coercion ---------------------------------------------------------
    def _coerce(self, other):
        """other as a MultiPoly in self's variables, or None."""
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return MultiPoly.constant(other, self.nvars)
        if not isinstance(other, MultiPoly):
            return None
        if other.nvars != self.nvars:
            raise ValueError("variable counts differ")
        return other

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=None)

    def degree_in(self, variables) -> int:
        vs = tuple(variables)
        return max((sum(e[i] for i in vs) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in b.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return self._make(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._make({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self._make({e: c * other for e, c in self.terms.items()})
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        terms: dict[tuple[int, ...], CyclotomicNumber] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return self._make(terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = MultiPoly.constant(1, self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return (self - other).is_zero()
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return other.nvars == self.nvars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its coefficient as a scalar, so it hashes like
        # it; coefficient hashes do not depend on the stored order, so
        # neither does this
        if not self.terms:
            return hash(0)
        if self.degree() == 0:
            return hash(self.terms[(0,) * self.nvars])
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus ---------------------------------------------------------
    def partial(self, i: int) -> "MultiPoly":
        """Exact partial derivative with respect to variable i."""
        # lowering e[i] by one is injective on the terms with e[i] > 0
        return self._make({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                           for e, c in self.terms.items() if e[i]})

    def partial_multi(self, beta) -> "MultiPoly":
        out = self
        for i, b in enumerate(beta):
            for _ in range(b):
                out = out.partial(i)
        return out

    def partial_evaluate(self, assign: dict) -> "MultiPoly":
        """Substitute constants for some variables, keeping nvars fixed.

        Ints and Fractions enter as order-1 CyclotomicNumbers.  A term with
        a positive power of a variable assigned 0 is skipped; the value of
        each distinct sub-exponent on the other assigned variables is
        built once, from one cache of powers, and an integer coefficient
        scales it by the int fast path of CyclotomicNumber.__mul__.
        """
        values = {i: v if isinstance(v, CyclotomicNumber)
                  else CyclotomicNumber.from_rational(v)
                  for i, v in assign.items()}
        zeros = [i for i, v in values.items() if not v]
        live = [i for i, v in values.items() if v]
        powers = {i: [_ONE] for i in live}
        subvalues: dict[tuple[int, ...], CyclotomicNumber] = {}

        def subvalue(sub):
            out = subvalues.get(sub)
            if out is None:
                out = _ONE
                for i, k in zip(live, sub):
                    if k:
                        pw = powers[i]
                        while len(pw) <= k:
                            pw.append(pw[-1] * values[i])
                        out = out * pw[k]
                subvalues[sub] = out
            return out

        terms: dict[tuple[int, ...], CyclotomicNumber] = {}
        for e, c in self.terms.items():
            if any(e[i] for i in zeros):
                continue
            sub = tuple(e[i] for i in live)
            if any(sub):
                value = subvalue(sub)
                c = value * c.num[0] if c.order == 1 and c.den == 1 else value * c
                ne = list(e)
                for i in live:
                    ne[i] = 0
                key = tuple(ne)
            else:
                key = e
            terms[key] = terms[key] + c if key in terms else c
        return self._make(terms)

    def substitute_linear(self, matrix) -> "MultiPoly":
        """Ring substitution x_i -> sum_j matrix[i][j] * y_j.

        matrix has nvars rows; the number of columns sets the new variable
        count.  Returns the image polynomial in the y variables.
        """
        rows = [list(r) for r in matrix]
        if len(rows) != self.nvars:
            raise ValueError("matrix must have one row per variable")
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged substitution matrix")
        units = graded_monomials(m, 1)  # the exponent tuple of y_j is units[j]
        lin = [MultiPoly(m, dict(zip(units, r))) for r in rows]
        power = lru_cache(maxsize=None)(lambda i, k: lin[i] ** k)
        out = MultiPoly.zero(m)
        for e, c in self.terms.items():
            piece = MultiPoly.constant(c, m)
            for i, k in enumerate(e):
                if k:
                    piece = piece * power(i, k)
            out = out + piece
        return out

    def coeff_vector(self, monomials) -> list[CyclotomicNumber]:
        """Coefficients against an explicit monomial list; support must be covered."""
        index = {m: i for i, m in enumerate(monomials)}
        vec = [_ZERO] * len(monomials)
        for e, c in self.terms.items():
            if e not in index:
                raise ValueError(f"monomial {e} outside the given basis")
            vec[index[e]] = c
        return vec

    # -- text -------------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}"
                for i, k in enumerate(e) if k)
            parts.append(_format_term(c, mono))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _format_term(c: CyclotomicNumber, mono: str) -> str:
    if c.is_rational():
        r = c.as_rational()
        if not mono:
            return str(r) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
        if r == 1:
            return mono
        if r == -1:
            return f"-{mono}"
        cs = str(r.numerator) if r.denominator == 1 else f"({r.numerator}/{r.denominator})"
        return f"{cs}*{mono}"
    cs = str(c)
    wrapped = cs if (cs.startswith("-") or "+" not in cs and " - " not in cs) and "*" not in cs and " " not in cs else f"({cs})"
    return f"{wrapped}*{mono}" if mono else wrapped


# -- parser --------------------------------------------------------------

_TOKEN = re.compile(r"(\d+)|([^\W\d]\w*)|([-+*/^()])|(\S)")

# The bound on a power p^k read from text, checked before it is computed:
# the monomials p^k can have times the bits of one of its coefficients,
# counted as phi * k * (the largest bit length among p's coefficients plus
# that of p's term count).  A power within it holds a few megabytes at
# most; 2^100000000 and (x0 + x1)^100000 are refused.  It is the sibling
# of cyclo.ROOT_TABLE_BUDGET, the bound on the e(n) literals.
POWER_BUDGET = 10**7


def check_power(base: MultiPoly, k: int) -> None:
    """Refuse base^k if its size, counted as for POWER_BUDGET, exceeds it;
    the size is counted, not built.  p^k has at most the monomials of
    degree k*deg(p), or of degree up to that when p is not homogeneous."""
    if k < 2 or not base.terms:
        return
    coeffs = base.terms.values()
    bits = max(v.bit_length() for c in coeffs for v in (*c.num, c.den))
    phi = max(len(c.num) for c in coeffs)
    size = phi * k * (bits + len(coeffs).bit_length())
    if size <= POWER_BUDGET:  # so k is small enough to count the monomials
        n, top = base.nvars, k * base.degree()
        size *= (comb(n - 1 + top, top) if n and base.is_homogeneous()
                 else comb(n + top, top))
    if size > POWER_BUDGET:
        raise ValueError(
            f"the power ^{k} of a {len(coeffs)}-term polynomial is over the "
            f"power budget POWER_BUDGET = {POWER_BUDGET} (monomials x phi x "
            f"coefficient bits)")


def parse_poly(text: str, names) -> MultiPoly:
    """Read polynomial text in the variables `names` into a MultiPoly.

    One regex pass keeps the lexicon of decimal ints, names and + - * / ^
    ( ): it turns variable i into the placeholder _i, so Python never sees
    a user's name, and ^ into **.  Python's parser reads the rest, and a
    walk accepts only sums, differences and products, unary - and +,
    division by nonzero constants, powers with an int exponent (negative
    only on nonzero constants), ints, the placeholders and e(n) root
    literals, refused by check_root_order where the table of e(n)'s powers
    would be too large.  check_power refuses a power over POWER_BUDGET
    before it is computed.  Nothing is evaluated by Python.
    """
    names = tuple(names)
    index = {nm: i for i, nm in enumerate(names)}
    nvars = len(names)
    toks: list[str] = []
    for m in _TOKEN.finditer(text):
        digits, name, op, bad = m.groups()
        if bad:
            raise ValueError(f"unexpected character {bad!r} in polynomial text")
        if name == "e" and text[m.end():].lstrip().startswith("("):
            toks.append(name)
        elif name:
            if name not in index:
                raise ValueError(f"unknown variable {name!r}")
            toks.append(f"_{index[name]}")
        elif digits:
            toks.append(str(int(digits)))
        elif op == "(" and (toks[-1:] == ["**"]
                            or toks[-2:] in (["**", "-"], ["e", "("])):
            # exponents and root orders are bare ints, never parenthesised
            raise ValueError(f"cannot read polynomial {text!r}")
        else:
            toks.append("**" if op == "^" else op)

    def constant_inverse(p: MultiPoly, message: str) -> CyclotomicNumber:
        if p.degree() != 0:
            raise ValueError(message)
        return p.terms[(0,) * nvars].inverse()

    def read(node) -> MultiPoly:
        # every name is a placeholder or e by now, so no literal is a bool
        match node:
            case ast.Constant(value=int(v)):
                return MultiPoly.constant(v, nvars)
            case ast.Name(id=placeholder) if placeholder != "e":
                return MultiPoly.variable(int(placeholder[1:]), nvars)
            case ast.Call(func=ast.Name(id="e"), args=[ast.Constant(value=int(n))],
                          keywords=[]):
                check_root_order(n)
                return MultiPoly.constant(CyclotomicNumber.root(n), nvars)
            case ast.UnaryOp(op=ast.USub(), operand=a):
                return -read(a)
            case ast.UnaryOp(op=ast.UAdd(), operand=a):
                return read(a)
            case ast.BinOp(op=ast.Add() | ast.Sub()):
                # a long sum is a deep left chain: walk it in a loop
                out = MultiPoly.zero(nvars)
                while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                    term = read(node.right)
                    out = out + term if isinstance(node.op, ast.Add) else out - term
                    node = node.left
                return out + read(node)
            case ast.BinOp(left=a, op=ast.Mult(), right=b):
                return read(a) * read(b)
            case ast.BinOp(left=a, op=ast.Div(), right=b):
                return read(a) * constant_inverse(read(b), "division only by nonzero constants")
            case ast.BinOp(left=a, op=ast.Pow(), right=ast.Constant(value=int(k))):
                base = read(a)
                check_power(base, k)
                return base ** k
            case ast.BinOp(left=a, op=ast.Pow(),
                           right=ast.UnaryOp(op=ast.USub(), operand=ast.Constant(value=int(k)))):
                inv = MultiPoly.constant(constant_inverse(
                    read(a), "negative powers only on nonzero constants"), nvars)
                check_power(inv, k)
                return inv ** k
        raise ValueError(f"cannot read polynomial {text!r}")

    try:
        return read(ast.parse(" ".join(toks), mode="eval").body)
    except (SyntaxError, RecursionError):
        raise ValueError(f"cannot read polynomial {text!r}") from None


def format_point(coords) -> str:
    """The text '(c0 : c1 : ...)' of a point's coordinates, each written at
    their common_order; parse_point reads it back."""
    order = common_order(coords)
    return "(" + " : ".join(str(as_field(c, order)) for c in coords) + ")"


def parse_point(text: str) -> tuple:
    """Read '(c0 : c1 : ...)' with rational and e(n)^k coordinate literals
    into a tuple of CyclotomicNumbers at their common_order."""
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"not a point literal: {text!r}")
    coords = [parse_poly(p.strip() or "0", ()).terms.get((), _ZERO)
              for p in t[1:-1].split(":")]
    order = common_order(coords)
    return tuple(as_field(c, order) for c in coords)
