"""Exact linear algebra over Q(e_n).

One row format and one elimination engine.  A row is sparse: the pair
(cols, vals) of its nonzero columns, ascending, and their values, which
may mix ints and Fractions with CyclotomicNumbers (the condition rows of
a rational flat are int-valued, those of a cyclotomic flat hold ints
beside CyclotomicNumbers).  A dense caller turns its rows into that form
through sparse_row.

The Eliminator converts only the nonzero entries of a row to integer
coordinates in Z[e_n] and reads it as the phi(n) rational rows that carry
the coefficients of e^0 r, ..., e^(phi-1) r, so that one fraction-free
integer reduction serves every order.  A row whose lead column holds no
pivot is independent of the accepted rows, so it becomes its pivot as it
stands, with its content divided out; only a row whose lead collides is
densified and reduced.  A pivot row is kept as its nonzero entries and
applied through them alone; the working row is scaled only when the
pivot's lead does not divide the entry it clears, which a lead of 1
always does.  The rank is read off the accepted rows, the canonical RREF
over Q(e_n) comes from back-substituting them (Eliminator.reduced; rref
returns rows already in that form as they stand), and every kernel is
built from that RREF, one vector per free column.  Row scaling never
changes rank or kernel.
"""
from __future__ import annotations

import math
from itertools import compress, count, islice

from .cyclo import CyclotomicNumber, as_field, euler_phi, power_table

_STRIP_EVERY = 8  # a working row loses its content after every 8th scaling


def sparse_row(row) -> tuple:
    """A dense row as the sparse row (cols, vals) of its nonzero entries."""
    cols = tuple(compress(count(), row))
    return cols, tuple([row[c] for c in cols])


def eliminate(rows, ncols: int, order: int) -> Eliminator:
    """An Eliminator over Q(e_order) fed with the given sparse rows."""
    elim = Eliminator(ncols, order)
    for row in rows:
        elim.add_field_row(row)
    return elim


def rank_of_field_rows(rows, ncols: int, order: int) -> int:
    return eliminate(rows, ncols, order).rank


def rref(rows, ncols: int, order: int):
    """Reduced row echelon form over Q(e_order) of dense rows.

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
        return eliminate(map(sparse_row, rows), ncols, order).reduced()
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
    """A sparse row (cols, vals) over Q(e_order) in integer coordinates:
    (coeffs, rational columns) of the nonzero ones among the phi
    coefficients of each entry, at column col*phi + s for the coefficient
    of e^s, ascending, all scaled by the entries' common denominator.  An
    int or Fraction entry is its own first coefficient.  The content is
    left in; the Eliminator divides it out as it stores a pivot."""
    cols, vals = row
    if phi == 1 and set(map(type, vals)) <= {int}:
        return vals, cols
    coeffs: list = []
    icols: list = []
    den = 1
    for col, entry in zip(cols, vals):
        if isinstance(entry, CyclotomicNumber):
            if entry.order != order:
                entry = entry.lift(order)
            num, d = entry.num, entry.den
        else:
            num, d = (entry.numerator,), entry.denominator
        if d != den:
            if den % d:
                s = d // math.gcd(den, d)
                coeffs, den = [v * s for v in coeffs], den * s
            s = den // d
            num = [v * s for v in num]
        col *= phi
        for v in num:
            if v:
                icols.append(col)
                coeffs.append(v)
            col += 1
    return coeffs, icols


def _primitive(coeffs) -> tuple:
    """A nonzero integer row divided by its content, its first entry made
    positive."""
    g = math.gcd(*coeffs)
    if coeffs[0] < 0:
        g = -g
    return tuple(coeffs) if g == 1 else tuple([v // g for v in coeffs])


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


def _root_multiples(pivot, top):
    """e^j times a pivot (cols, coeffs), for j = 1, ..., phi-1 in turn, each
    as (coeffs, cols) of its nonzero entries; top holds the coefficients
    of e^phi.  Only the pivot's nonzero phi-chunks are multiplied: e maps
    each chunk into itself and a zero chunk to zero."""
    phi = len(top)
    chunks = []
    last = -1
    for c, v in zip(*pivot):
        base = c - c % phi
        if base != last:
            chunk = [0] * phi
            chunks.append((base, chunk))
            last = base
        chunk[c - base] = v
    for _ in range(phi - 1):
        coeffs, cols = [], []
        for i, (base, chunk) in enumerate(chunks):
            carry = chunk[-1]
            chunk = [0] + chunk[:-1]
            if carry:
                chunk = [c + carry * t for c, t in zip(chunk, top)]
            chunks[i] = base, chunk
            for r, v in enumerate(chunk):
                if v:
                    cols.append(base + r)
                    coeffs.append(v)
        yield coeffs, cols


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
    coefficients of e^0 r, ..., e^(phi-1) r, column by column: rational
    column col*phi + s holds the coefficient of e^s in entry col.  Their
    Q-span is Q(e) r, so the rational rank is phi times the field rank and
    a single fraction-free integer loop serves every order.  Only the e^0
    copy is reduced to decide independence; the other copies are derived
    from the reduced row, which agrees with r modulo the accepted span.

    A pivot row is kept as its nonzero entries only: a tuple of columns,
    its leading column first, beside a tuple of their coefficients, the
    first of them positive and their gcd 1.  Both are immutable once
    accepted, so clones share them; that makes per-trial reuse of a
    common base matrix cheap.

    Rows come in sparse, as their nonzero integer coefficients and
    ascending rational columns (add_int_row; add_field_row converts a
    sparse row over Q(e_order) to that form).  A row whose lead column
    holds no pivot is stored as its pivot directly: no pivot can clear
    its lead, so it is independent.  So is each e-multiple of a pivot,
    built through the pivot's nonzero phi-chunks only, when its lead is
    fresh.  Only a row whose lead collides is densified and reduced in
    place at each of its leading columns in turn: a pivot is applied
    through its own nonzero entries, and the row is scaled (by lead /
    gcd(lead, entry)) only when the pivot's lead does not divide the
    entry, so never by a lead of 1.  The rows of one component have
    pairwise distinct leads, and rational ones (scheme.component_rows),
    so among themselves they and their e-multiples all take the direct
    store.  The accepted rows form a row echelon set with distinct leads.
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
        """Reduce a sparse row (cols, vals) over Q(e_order) against the
        current pivots; keep it, with its e-multiples, if independent."""
        return self.add_int_row(*_field_row_to_int(row, self.order, self.phi))

    def add_int_row(self, coeffs, cols) -> bool:
        """Reduce the integer row with the nonzero coefficients coeffs at
        the ascending rational columns cols against the current pivots;
        keep it, with its e-multiples, if independent."""
        lead = self._reduce(coeffs, cols)
        if lead is None:
            return False
        if self.phi > 1:
            top = power_table(self.order)[self.phi]
            for multiple in _root_multiples(self._pivots[lead], top):
                self._reduce(*multiple)
        return True

    def _dense(self, cols, coeffs):
        """The row with coefficients coeffs at columns cols as a full-width
        list."""
        vals = [0] * (self.ncols * self.phi)
        for c, y in zip(cols, coeffs):
            vals[c] = y
        return vals

    def _reduce(self, coeffs, cols):
        """Store the row, primitive, as the pivot at its lead if none is
        there; else reduce a dense copy and store it at the first leading
        column left without a pivot.  Returns the lead of the stored
        pivot, or None if the row vanishes."""
        if not cols:
            return None
        pivots = self._pivots
        coeffs = _primitive(coeffs)
        if cols[0] not in pivots:
            pivots[cols[0]] = (tuple(cols), coeffs)
            return cols[0]
        vals = self._dense(cols, coeffs)
        scaled = 0
        # compress reads each entry only once the pivots before it are
        # applied, so it yields the leads in turn and then the nonzeros
        nonzero = compress(count(), vals)
        for k in nonzero:
            pivot = pivots.get(k)
            if pivot is None:
                cols = (k, *nonzero)
                pivots[k] = (cols, _primitive([vals[c] for c in cols]))
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
        row = self._dense(*pivots[lead])
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
