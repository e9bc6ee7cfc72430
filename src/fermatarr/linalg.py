"""Exact linear algebra over Q(e_n).

Two layers.  The field layer (rref, kernel_of_rows) works directly on
CyclotomicNumber entries and is meant for small matrices such as flat
equations.  The Eliminator scales each row to integer coordinates in
Z[e_n], blows it up into its phi(n) rational copies (the coefficient rows
of e^0 r, ..., e^(phi-1) r) and runs one fraction-free integer reduction
with periodic content stripping over them, for every order.  Its rows may
mix ints with CyclotomicNumbers: the condition rows of a rational flat
are int-valued, those of a cyclotomic flat hold ints beside
CyclotomicNumbers.  Row scaling never changes rank or kernel.
"""
from __future__ import annotations

import math

from .cyclo import CyclotomicNumber, euler_phi, power_table

_STRIP_EVERY = 8


# -- field-level routines -------------------------------------------------

def rref(rows, ncols: int, order: int):
    """Reduced row echelon form over Q(e_order).

    Returns (pivot_cols, rref_rows) with unit pivots and zeros above and
    below, rows sorted by pivot column.  The result is canonical for the
    row space, so it doubles as a structural key for flats.
    """
    work = [[(c.lift(order) if isinstance(c, CyclotomicNumber) else CyclotomicNumber.from_rational(c, order)) for c in row] for row in rows]
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
    coordinates, returned as one flat list of ncols*phi ints (the phi
    coefficients of each entry in turn); an int entry is its own first
    coefficient."""
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
    return flat


def _strip(row):
    g = 0
    for v in row:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return row
    if g > 1:
        return [v // g for v in row]
    return row


def _times_root(vals, top):
    """Multiply each phi-chunk of a flat coefficient list by e; top holds
    the coefficients of e^phi."""
    phi = len(top)
    out = []
    for i in range(0, len(vals), phi):
        carry = vals[i + phi - 1]
        chunk = [0] + vals[i:i + phi - 1]
        if carry:
            chunk = [c + carry * t for c, t in zip(chunk, top)]
        out.extend(chunk)
    return out


class Eliminator:
    """Incremental exact rank (and kernel) of rows over Q(e_order).

    A row r over Z[e_order] is held as the phi rational rows that carry the
    coefficients of e^0 r, ..., e^(phi-1) r, column by column.  Their
    Q-span is Q(e) r, so the rational rank is phi times the field rank and
    a single fraction-free integer loop serves every order.  Only the e^0
    copy is reduced to decide independence; the other copies are derived
    from the reduced row, which agrees with r modulo the accepted span.

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

    def clone(self) -> "Eliminator":
        other = Eliminator(self.ncols, self.order)
        other._pivots = dict(self._pivots)
        return other

    @property
    def rank(self) -> int:
        return len(self._pivots) // self.phi

    def add_field_row(self, row) -> bool:
        return self.add_int_row(_field_row_to_int(row, self.order, self.phi))

    def add_int_row(self, row) -> bool:
        """Reduce a flat row of ncols*phi ints against the current pivots;
        keep it, with its e-multiples, if independent."""
        phi = self.phi
        lead = self._reduce(row, 0)
        if lead is None:
            return False
        if phi > 1:
            start = lead - lead % phi
            vals = [0] * (lead - start) + list(self._pivots[lead])
            top = power_table(self.order)[phi]
            for _ in range(phi - 1):
                vals = _times_root(vals, top)
                self._reduce(vals, start)
        return True

    def _reduce(self, vals, offset):
        """Reduce vals, whose first entry sits at column offset; store it
        and return its leading column if it does not vanish."""
        pivots = self._pivots
        k = 0
        while k < len(vals) and not vals[k]:
            k += 1
        vals = vals[k:]
        offset += k
        ops = 0
        while vals:
            prow = pivots.get(offset)
            if prow is None:
                pivots[offset] = tuple(_strip(vals))
                return offset
            p = prow[0]
            e = vals[0]
            pairs = zip(vals, prow)
            next(pairs)
            vals = [p * x - e * y for x, y in pairs]
            offset += 1
            ops += 1
            if ops % _STRIP_EVERY == 0:
                vals = _strip(vals)
            k = 0
            while k < len(vals) and not vals[k]:
                k += 1
            vals = vals[k:]
            offset += k
        return None

    def kernel_basis(self):
        """Exact kernel basis over Q(e_order) as coefficient vectors.

        The accepted rows span a Q(e)-invariant space, whose rational
        leads fill whole phi-chunks; the pivots that start a chunk are
        therefore one row per field pivot column, a Q(e)-basis of the
        row space."""
        phi, order = self.phi, self.order
        rows = []
        for pc in sorted(self._pivots):
            if pc % phi:
                continue
            full = [0] * pc + list(self._pivots[pc])
            rows.append([CyclotomicNumber(order, full[i:i + phi])
                         for i in range(0, len(full), phi)])
        return kernel_of_rows(rows, self.ncols, order)


def rank_of_field_rows(rows, ncols: int, order: int) -> int:
    elim = Eliminator(ncols, order)
    for r in rows:
        elim.add_field_row(r)
    return elim.rank
