"""Exact linear algebra over Q(e_n).

One elimination engine.  The Eliminator scales each row to integer
coordinates in Z[e_n], blows it up into its phi(n) rational copies (the
coefficient rows of e^0 r, ..., e^(phi-1) r) and runs one fraction-free
integer reduction with periodic content stripping over them, for every
order.  A pivot row is kept as its nonzero entries and applied through
them alone; the working row is scaled only when the pivot's lead does
not divide the entry it clears, which a lead of 1 always does.  The rank
is read off the accepted rows, the canonical RREF over Q(e_n) comes from
back-substituting them (Eliminator.reduced; rref returns rows already
in that form as they stand), and every kernel is built from that RREF,
one vector per free column.  Rows may mix ints and
Fractions with CyclotomicNumbers: the condition rows of a rational flat
are int-valued, those of a cyclotomic flat hold ints beside
CyclotomicNumbers.  Row scaling never changes rank or kernel.
"""
from __future__ import annotations

import math
from itertools import compress, count, islice

from .cyclo import CyclotomicNumber, as_field, euler_phi, power_table

_STRIP_EVERY = 8  # a working row loses its content after every 8th scaling


def eliminate(rows, ncols: int, order: int) -> Eliminator:
    """An Eliminator over Q(e_order) fed with the given rows."""
    elim = Eliminator(ncols, order)
    for row in rows:
        elim.add_field_row(row)
    return elim


def rank_of_field_rows(rows, ncols: int, order: int) -> int:
    return eliminate(rows, ncols, order).rank


def rref(rows, ncols: int, order: int):
    """Reduced row echelon form over Q(e_order).

    Returns (pivot_cols, rref_rows) with unit pivots and zeros above and
    below, rows sorted by pivot column.  The result is canonical for the
    row space, so it doubles as a structural key for flats.  Rows that
    already are that form (a single hyperplane's form led by 1, a point
    whose last nonzero coordinate is 1, an RREF fed back) come back as
    they stand, with their entries at order; any others are eliminated.
    """
    rows = list(rows)
    leads = _canonical_leads(rows, ncols)
    if leads is None:
        return eliminate(rows, ncols, order).reduced()
    return leads, [tuple(as_field(v, order) for v in row) for row in rows]


def _canonical_leads(rows, ncols: int):
    """The lead columns of rows in canonical RREF, or None if they are not:
    each row of width ncols is led by a 1, the leads increase, and every
    other row is 0 in each lead column."""
    leads = []
    for row in rows:
        lead = next((c for c, v in enumerate(row) if v), None)
        if (len(row) != ncols or lead is None or row[lead] != 1
                or (leads and lead <= leads[-1])):
            return None
        leads.append(lead)
    # a row is 0 before its lead, so only the rows above a lead can hold
    # a nonzero entry in its column
    for i, lead in enumerate(leads):
        if any(row[lead] for row in rows[:i]):
            return None
    return leads


def kernel_of_rref(red, ncols: int, order: int):
    """Basis of {v : row . v = 0 for all rows} of rows in canonical RREF,
    one vector per free column."""
    pivot_cols = [next(i for i, c in enumerate(row) if c) for row in red]
    zero, one = CyclotomicNumber.zero(order), CyclotomicNumber.one(order)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivot_cols)):
        vec = [zero] * ncols
        vec[f] = one
        for pc, row in zip(pivot_cols, red):
            vec[pc] = -row[f]
        basis.append(tuple(vec))
    return basis


def row_dot(row, vec) -> CyclotomicNumber:
    acc = CyclotomicNumber.zero()
    for a, b in zip(row, vec):
        if a and b:
            acc = acc + a * b
    return acc


def _field_row_to_int(row, order: int, phi: int):
    """Scale a row of ints, Fractions and CyclotomicNumbers to primitive
    integer coordinates, returned as one flat list of ncols*phi ints (the
    phi coefficients of each entry in turn); an int or Fraction entry is
    its own first coefficient."""
    if phi == 1 and set(map(type, row)) == {int}:
        return _strip(list(row))
    pad = (0,) * (phi - 1)
    flat: list = []
    den = 1
    for entry in row:
        if isinstance(entry, CyclotomicNumber):
            entry = entry.lift(order)
            num, d = entry.num, entry.den
        else:
            num, d = (entry.numerator,) + pad, entry.denominator
        if den % d:
            s = d // math.gcd(den, d)
            flat, den = [v * s for v in flat], den * s
        flat.extend(num if d == den else [v * (den // d) for v in num])
    return _strip(flat)


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


def _field_entries(vals, order: int, phi: int) -> list:
    """A flat list of ncols*phi ints as its ncols entries over Z[e_order]:
    an int where the entry is rational, else a CyclotomicNumber."""
    if phi == 1:
        return vals
    chunks = (vals[i:i + phi] for i in range(0, len(vals), phi))
    return [c[0] if not any(c[1:]) else CyclotomicNumber._make(order, tuple(c))
            for c in chunks]


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


def _apply(vals, k, start, pivot):
    """Clear vals[k] with the pivot that leads at column k: vals becomes
    s*vals - t*pivot with s = p/gcd(p, vals[k]) for the pivot's lead p.
    Only the pivot's nonzero entries are touched unless s > 1, when vals
    from start on (it is zero before) is scaled first; returns s > 1."""
    cols, coeffs = pivot
    p, e = coeffs[0], vals[k]
    g = math.gcd(p, e)
    if g != p:
        s = p // g
        vals[start:] = [s * x for x in islice(vals, start, None)]
    t = e // g
    for c, y in zip(cols, coeffs):
        vals[c] -= t * y
    return g != p


class Eliminator:
    """Incremental exact rank and canonical RREF over Q(e_order).

    A row r over Z[e_order] is held as the phi rational rows that carry the
    coefficients of e^0 r, ..., e^(phi-1) r, column by column.  Their
    Q-span is Q(e) r, so the rational rank is phi times the field rank and
    a single fraction-free integer loop serves every order.  Only the e^0
    copy is reduced to decide independence; the other copies are derived
    from the reduced row, which agrees with r modulo the accepted span.

    A pivot row is kept as its nonzero entries only: a tuple of columns,
    its leading column first, beside a tuple of their coefficients, the
    first of them positive.  Both are immutable once accepted, so clones
    share them; that makes per-trial reuse of a common base matrix cheap.
    The incoming row is a dense list, reduced in place at each of its
    leading columns in turn: a pivot is applied through its own nonzero
    entries, and the row is scaled (by lead / gcd(lead, entry)) only when
    the pivot's lead does not divide the entry, so never by a lead of 1.
    The condition rows of derived configurations are sparse, so an
    application costs about the pivot's few nonzeros instead of the whole
    row.  The rows of one component have pairwise distinct leads
    (scheme.component_rows), so among themselves they apply no pivot over
    Q, nor over Q(e_order) where their lead entries are rational.  The
    accepted rows form a row echelon set with distinct leads.
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

    @classmethod
    def join(cls, parts, ncols: int, order: int) -> "Eliminator":
        """One Eliminator of width ncols holding the pivots of every part.

        parts yields (eliminator, cols) pairs: an Eliminator over
        Q(e_order) of width len(cols), fed with rows supported on the
        ascending columns cols, which no two parts share.  Block-local
        rational column l becomes cols[l // phi] * phi + l % phi.  The map
        is increasing, so each pivot keeps its lead first and the leads
        of all parts stay distinct: the pivots are a row echelon set, and
        their span is the direct sum of the parts' spans.  The offset
        within each phi-chunk is kept, so a lead that starts a chunk
        still starts one, and reduced()'s lead % phi test still holds.
        """
        elim = cls(ncols, order)
        phi, pivots = elim.phi, elim._pivots
        for part, cols in parts:
            where = [c * phi + r for c in cols for r in range(phi)]
            for lead, (pcols, coeffs) in part._pivots.items():
                pivots[where[lead]] = (tuple(where[c] for c in pcols), coeffs)
        return elim

    @property
    def rank(self) -> int:
        return len(self._pivots) // self.phi

    def add_field_row(self, row) -> bool:
        return self.add_int_row(_field_row_to_int(row, self.order, self.phi))

    def add_int_row(self, row) -> bool:
        """Reduce a flat row of ncols*phi ints against the current pivots;
        keep it, with its e-multiples, if independent."""
        phi = self.phi
        lead = self._reduce(row)
        if lead is None:
            return False
        if phi > 1:
            vals = self._dense(lead)
            top = power_table(self.order)[phi]
            for _ in range(phi - 1):
                vals = _times_root(vals, top)
                self._reduce(vals)
        return True

    def _dense(self, lead):
        """The pivot that leads at column lead as a full-width list."""
        cols, coeffs = self._pivots[lead]
        vals = [0] * (self.ncols * self.phi)
        for c, y in zip(cols, coeffs):
            vals[c] = y
        return vals

    def _reduce(self, row):
        """Reduce a copy of the dense row; store it and return its leading
        column if it does not vanish."""
        pivots = self._pivots
        vals = list(row)
        scaled = 0
        # compress reads each entry only once the pivots before it are
        # applied, so it yields the leads in turn and then the nonzeros
        nonzero = compress(count(), vals)
        for k in nonzero:
            pivot = pivots.get(k)
            if pivot is None:
                cols = (k, *nonzero)
                coeffs = [vals[c] for c in cols]
                g = math.gcd(*coeffs)
                if coeffs[0] < 0:
                    g = -g
                pivots[k] = (cols, tuple(coeffs) if g == 1
                             else tuple(v // g for v in coeffs))
                return k
            if _apply(vals, k, k, pivot):
                scaled += 1
                if scaled % _STRIP_EVERY == 0:
                    vals[k:] = _strip(vals[k:])
        return None

    def _cleared(self, lead, later):
        """The pivot at lead as a dense row, cleared fraction-free at the
        lead columns later, in turn, wherever it is nonzero."""
        pivots = self._pivots
        row = self._dense(lead)
        scaled = 0
        for j in later:
            if row[j] and _apply(row, j, lead, pivots[j]):
                scaled += 1
                if scaled % _STRIP_EVERY == 0:
                    row[lead:] = _strip(row[lead:])
        return row

    def echelon(self):
        """A row echelon basis over Q(e_order) of the accepted rows, with
        rational leads, as (pivot_cols, rows), ascending.

        A row is the pivot that starts a phi-chunk, cleared fraction-free
        at the other leads of that chunk only: it is 0 before its pivot
        column, holds a positive int there, and has entries over Z[e_order],
        ints where rational.  At phi = 1 the rows are the pivots as they
        stand, with no back-substitution."""
        phi, order = self.phi, self.order
        pivot_cols, out = [], []
        for lead in sorted(self._pivots):
            if lead % phi:
                continue
            row = self._cleared(lead, range(lead + 1, lead + phi))
            pivot_cols.append(lead // phi)
            out.append(_field_entries(row, order, phi))
        return pivot_cols, out

    def reduced(self):
        """Canonical RREF over Q(e_order) as (pivot_cols, rows).

        The accepted rows span a Q(e)-invariant space, whose rational
        leads fill whole phi-chunks.  A pivot that starts a chunk, cleared
        fraction-free at every later lead column, is therefore the unit
        row of one field pivot column with zeros at all the others."""
        phi, order = self.phi, self.order
        leads = sorted(self._pivots)
        pivot_cols, out = [], []
        for i, lead in enumerate(leads):
            if lead % phi:
                continue
            row = self._cleared(lead, leads[i + 1:])
            den = row[lead]  # positive: the pivot's lead times positive scales
            pivot_cols.append(lead // phi)
            out.append(tuple(CyclotomicNumber._make(order, tuple(row[s:s + phi]), den)
                             for s in range(0, len(row), phi)))
        return pivot_cols, out
