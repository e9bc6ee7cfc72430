"""Exact linear algebra over Q(e_n).

Two layers.  The field layer (rref, kernel_of_rows) works directly on
CyclotomicNumber entries and is meant for small matrices such as flat
equations.  The Eliminator scales each row to integer coordinates in
Z[e_n] and does fraction-free cross-multiplication updates with periodic
content stripping, which keeps large rank computations exact and fast.
Its rows may mix ints with CyclotomicNumbers: the condition rows of a
rational flat are int-valued, those of a cyclotomic flat hold ints beside
CyclotomicNumbers.  Row scaling never changes rank or kernel.
"""
from __future__ import annotations

import math

from .cyclo import CyclotomicNumber, euler_phi, int_mul_fn, power_table

_STRIP_EVERY = 8


# -- field-level routines -------------------------------------------------

def rref(rows, ncols: int, order: int):
    """Reduced row echelon form over Q(e_order).

    Returns (pivot_cols, rref_rows) with unit pivots and zeros above and
    below, rows sorted by pivot column.  The result is canonical for the
    row space, so it doubles as a structural key for flats.
    """
    work = [list(r) for r in rows]
    zero = CyclotomicNumber.zero(order)
    work = [[(c.lift(order) if isinstance(c, CyclotomicNumber) else CyclotomicNumber.from_rational(c, order)) for c in row] for row in work]
    pivot_cols: list[int] = []
    out: list[list[CyclotomicNumber]] = []
    for col in range(ncols):
        pr = None
        for i, row in enumerate(work):
            if row[col]:
                pr = i
                break
        if pr is None:
            continue
        row = work.pop(pr)
        inv = row[col].inverse()
        row = [c * inv for c in row]
        for other in work:
            f = other[col]
            if f:
                for j in range(col, ncols):
                    if row[j]:
                        other[j] = other[j] - f * row[j]
        for other in out:
            f = other[col]
            if f:
                for j in range(col, ncols):
                    if row[j]:
                        other[j] = other[j] - f * row[j]
        out.append(row)
        pivot_cols.append(col)
        if not work:
            break
    return pivot_cols, [tuple(r) for r in out]


def kernel_of_rows(rows, ncols: int, order: int):
    """Basis of {v : row . v = 0 for all rows}, from the canonical RREF."""
    pivot_cols, red = rref(rows, ncols, order)
    zero = CyclotomicNumber.zero(order)
    one = CyclotomicNumber.one(order)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = [zero] * ncols
        vec[f] = one
        for pc, row in zip(pivot_cols, red):
            vec[pc] = -row[f]
        basis.append(tuple(vec))
    return basis


def row_dot(row, vec, order: int) -> CyclotomicNumber:
    acc = CyclotomicNumber.zero(order)
    for a, b in zip(row, vec):
        if a and b:
            acc = acc + a * b
    return acc


# -- integerized elimination ----------------------------------------------

def _field_row_to_int(row, order: int, phi: int):
    """Scale a row of ints and CyclotomicNumbers to primitive integer
    coordinates; an int entry is its own first coefficient."""
    pad = (0,) * (phi - 1)
    flat: list = []
    for entry in row:
        if isinstance(entry, int):
            flat.append(entry)
            flat.extend(pad)
        else:
            flat.extend((entry if entry.order == order
                         else entry.lift(order)).coeffs)
    den = math.lcm(*[c.denominator for c in flat])
    if den == 1:
        flat = [c.numerator for c in flat]
    else:
        flat = [c.numerator * (den // c.denominator) for c in flat]
    g = math.gcd(*flat)
    if g > 1:
        flat = [v // g for v in flat]
    if phi == 1:
        return tuple(flat)
    return tuple(tuple(flat[i:i + phi]) for i in range(0, len(flat), phi))


def _strip1(row):
    g = 0
    for v in row:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return row
    if g > 1:
        return [v // g for v in row]
    return row


def _stripk(row):
    g = 0
    for entry in row:
        for v in entry:
            if v:
                g = math.gcd(g, v)
                if g == 1:
                    return row
    if g > 1:
        return [tuple(v // g for v in entry) for entry in row]
    return row


class Eliminator:
    """Incremental exact rank (and kernel) of rows over Q(e_order).

    Pivot rows are stored as suffixes starting at their leading column and
    are immutable once accepted, so clones share them; that makes
    per-trial reuse of a common base matrix cheap.  An incoming row is
    reduced only at its current leading column, which both shrinks the
    working suffix with every application and skips zero columns for
    free; the accepted rows form a row echelon set with distinct leads.
    """

    def __init__(self, ncols: int, order: int) -> None:
        self.ncols = ncols
        self.order = order
        self.phi = euler_phi(order)
        self._pivots: dict[int, tuple] = {}
        if self.phi == 2:
            mod = power_table(order)[2]
            self._q0, self._q1 = mod
        elif self.phi > 2:
            self._mul = int_mul_fn(order)

    def clone(self) -> "Eliminator":
        other = Eliminator.__new__(Eliminator)
        other.ncols = self.ncols
        other.order = self.order
        other.phi = self.phi
        other._pivots = dict(self._pivots)
        if self.phi == 2:
            other._q0, other._q1 = self._q0, self._q1
        elif self.phi > 2:
            other._mul = self._mul
        return other

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add_field_row(self, row) -> bool:
        return self.add_int_row(_field_row_to_int(row, self.order, self.phi))

    def add_int_row(self, row) -> bool:
        """Reduce a row against current pivots; keep it if independent."""
        if self.phi == 1:
            return self._add1(list(row))
        if self.phi == 2:
            return self._add2(list(row))
        return self._addk(list(row))

    # one code path per coefficient layout keeps the hot loop tight
    def _add1(self, vals) -> bool:
        pivots = self._pivots
        offset = 0
        k = 0
        while k < len(vals) and not vals[k]:
            k += 1
        vals = vals[k:]
        offset += k
        ops = 0
        while vals:
            prow = pivots.get(offset)
            if prow is None:
                vals = _strip1(vals)
                pivots[offset] = tuple(vals)
                return True
            p = prow[0]
            e = vals[0]
            pairs = zip(vals, prow)
            next(pairs)
            vals = [p * x - e * y for x, y in pairs]
            offset += 1
            ops += 1
            if ops % _STRIP_EVERY == 0:
                vals = _strip1(vals)
            k = 0
            while k < len(vals) and not vals[k]:
                k += 1
            vals = vals[k:]
            offset += k
        return False

    def _add2(self, vals) -> bool:
        q0, q1 = self._q0, self._q1
        pivots = self._pivots
        offset = 0
        k = 0
        while k < len(vals) and not (vals[k][0] or vals[k][1]):
            k += 1
        vals = vals[k:]
        offset += k
        ops = 0
        while vals:
            prow = pivots.get(offset)
            if prow is None:
                vals = _stripk(vals)
                pivots[offset] = tuple(vals)
                return True
            p0, p1 = prow[0]
            e0, e1 = vals[0]
            A, B = p0, q0 * p1
            C, D = p1, p0 + q1 * p1
            E, F = e0, q0 * e1
            G, H = e1, e0 + q1 * e1
            pairs = zip(vals, prow)
            next(pairs)
            vals = [(A * x0 + B * x1 - E * y0 - F * y1,
                     C * x0 + D * x1 - G * y0 - H * y1)
                    for (x0, x1), (y0, y1) in pairs]
            offset += 1
            ops += 1
            if ops % _STRIP_EVERY == 0:
                vals = _stripk(vals)
            k = 0
            while k < len(vals) and not (vals[k][0] or vals[k][1]):
                k += 1
            vals = vals[k:]
            offset += k
        return False

    def _addk(self, vals) -> bool:
        mul = self._mul
        pivots = self._pivots
        offset = 0
        k = 0
        while k < len(vals) and not any(vals[k]):
            k += 1
        vals = vals[k:]
        offset += k
        ops = 0
        while vals:
            prow = pivots.get(offset)
            if prow is None:
                vals = _stripk(vals)
                pivots[offset] = tuple(vals)
                return True
            p = prow[0]
            e = vals[0]
            pairs = zip(vals, prow)
            next(pairs)
            vals = [tuple(a - b for a, b in zip(mul(p, x), mul(e, y)))
                    for x, y in pairs]
            offset += 1
            ops += 1
            if ops % _STRIP_EVERY == 0:
                vals = _stripk(vals)
            k = 0
            while k < len(vals) and not any(vals[k]):
                k += 1
            vals = vals[k:]
            offset += k
        return False

    # -- extraction -------------------------------------------------------
    def _pivot_field_rows(self):
        rows = []
        zero = 0 if self.phi == 1 else (0,) * self.phi
        for pc in sorted(self._pivots):
            full = [zero] * pc + list(self._pivots[pc])
            if self.phi == 1:
                rows.append([CyclotomicNumber.from_rational(v, self.order) for v in full])
            else:
                rows.append([CyclotomicNumber(self.order, v) for v in full])
        return rows

    def kernel_basis(self):
        """Exact kernel basis over Q(e_order) as coefficient vectors."""
        rows = self._pivot_field_rows()
        if not rows:
            one = CyclotomicNumber.one(self.order)
            zero = CyclotomicNumber.zero(self.order)
            return [tuple(one if j == f else zero for j in range(self.ncols))
                    for f in range(self.ncols)]
        return kernel_of_rows(rows, self.ncols, self.order)


def rank_of_field_rows(rows, ncols: int, order: int) -> int:
    elim = Eliminator(ncols, order)
    for r in rows:
        elim.add_field_row(r)
    return elim.rank
