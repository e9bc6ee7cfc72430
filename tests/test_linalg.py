"""Exact elimination over cyclotomic fields, checked against an
independent rational blow-up oracle (tests/helpers.py)."""

import random
from fractions import Fraction

from helpers import (field_rank_oracle, field_rref_oracle, kernel_basis,
                     kernel_of_rows)

from fermatarr import linalg
from fermatarr.cyclo import CyclotomicNumber, euler_phi
from fermatarr.linalg import (
    Eliminator,
    eliminate,
    rank_of_field_rows,
    row_dot,
    rref,
)

ORDERS = (1, 3, 4, 5, 8)


def _random_row(rng, ncols, order, density=0.7):
    row = []
    for _ in range(ncols):
        if rng.random() > density:
            row.append(CyclotomicNumber.zero(order))
            continue
        v = CyclotomicNumber.from_rational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)), order)
        if order > 1 and rng.random() < 0.5:
            v = v * CyclotomicNumber.root(order, rng.randrange(1, order))
        row.append(v)
    return row


def _random_matrix(rng, nrows, ncols, order):
    return [_random_row(rng, ncols, order) for _ in range(nrows)]


def test_rank_matches_blowup_oracle():
    rng = random.Random(11)
    for order in ORDERS:
        for _ in range(6):
            nrows = rng.randint(1, 10)
            ncols = rng.randint(1, 12)
            rows = _random_matrix(rng, nrows, ncols, order)
            assert rank_of_field_rows(rows, ncols, order) \
                == field_rank_oracle(rows, order)


def test_rank_with_planted_dependencies():
    rng = random.Random(12)
    for order in ORDERS:
        base = _random_matrix(rng, 4, 10, order)
        # append exact linear combinations of earlier rows
        comb1 = [a + b for a, b in zip(base[0], base[2])]
        scale = CyclotomicNumber.root(order) if order > 1 \
            else CyclotomicNumber.from_rational(3)
        comb2 = [scale * (a - b) for a, b in zip(base[1], base[3])]
        rows = base + [comb1, comb2]
        got = rank_of_field_rows(rows, 10, order)
        assert got == field_rank_oracle(rows, order)
        assert got <= 4


def test_eliminator_incremental_rank_and_novelty_flag():
    rng = random.Random(13)
    order = 3
    ncols = 8
    rows = _random_matrix(rng, 12, ncols, order)
    elim = Eliminator(ncols, order)
    prev = 0
    for i, row in enumerate(rows):
        novel = elim.add_field_row(row)
        assert elim.rank == field_rank_oracle(rows[: i + 1], order)
        assert novel == (elim.rank == prev + 1)
        prev = elim.rank


def test_zero_rows_never_increase_rank():
    order = 4
    elim = Eliminator(5, order)
    zero = [CyclotomicNumber.zero(order)] * 5
    assert not elim.add_field_row(zero)
    assert elim.rank == 0


def _integral_entry(rng, order):
    """A nonzero entry with integer coefficients: an int or, over Q(e), a
    short combination of powers of e."""
    if order == 1 or rng.random() < 0.4:
        return rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
    while True:
        v = CyclotomicNumber(order, [rng.choice((-2, -1, 0, 0, 1, 2))
                                     for _ in range(euler_phi(order))])
        if not v.is_zero():
            return v


def _entry(rng, order):
    """A nonzero entry: integral, a Fraction, or a root of unity or a
    general element with denominators."""
    kind = rng.random()
    if kind < 0.5:
        return _integral_entry(rng, order)
    if order == 1 or kind < 0.7:
        return Fraction(rng.choice((-5, -3, -1, 1, 2, 7)), rng.randint(2, 6))
    if kind < 0.85:
        return CyclotomicNumber.root(order, rng.randrange(1, order)) \
            * rng.choice((-3, -1, 2))
    return CyclotomicNumber(order, [Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                                    for _ in range(euler_phi(order) - 1)] + [1])


def _field_row(row, order):
    return [v if isinstance(v, CyclotomicNumber)
            else CyclotomicNumber.from_rational(v, order) for v in row]


def _sparse_matrix(rng, nrows, ncols, order, density):
    """nrows rows of about the given density, half of them integral and led
    by +-1, the others led by another value, then planted dependencies:
    combinations of one or two of them with field scalars, shuffled in."""
    rows = []
    for i in range(nrows):
        unit = i % 2 == 0
        pick = _integral_entry if unit else _entry
        cols = [c for c in range(ncols) if rng.random() < density] \
            or [rng.randrange(ncols)]
        row = [0] * ncols
        for c in cols:
            row[c] = pick(rng, order)
        if unit:
            row[cols[0]] = rng.choice((1, -1))
        elif row[cols[0]] in (1, -1):
            row[cols[0]] = 3
        rows.append(row)
    field = [_field_row(row, order) for row in rows]
    for _ in range(max(2, nrows // 3)):
        a, b = rng.sample(range(nrows), 2)
        s = _entry(rng, order)
        t = _entry(rng, order) if rng.random() < 0.7 else 0
        rows.append([s * x + t * y for x, y in zip(field[a], field[b])])
    rng.shuffle(rows)
    return rows


def test_sparse_rows_match_oracles():
    # rows of density 0.05 to 0.3 exercise pivots applied through their
    # few nonzeros, unit leads that need no scaling and dependent rows
    # that reduce to zero; phi = 1, 2, 4, 6
    rng = random.Random(20)
    shapes = {1: (28, 36), 3: (20, 26), 5: (12, 18), 7: (9, 14)}
    for order, (nrows, ncols) in shapes.items():
        for density in (0.05, 0.12, 0.2, 0.3):
            rows = _sparse_matrix(rng, nrows, ncols, order, density)
            elim = Eliminator(ncols, order)
            for row in rows:
                elim.add_field_row(row)
            assert elim.rank == field_rank_oracle(rows, order)
            pivots, red = elim.reduced()
            want_pivots, want = field_rref_oracle(rows, ncols, order)
            assert pivots == want_pivots
            assert red == want
            basis = kernel_basis(elim)
            assert len(basis) == ncols - elim.rank
            for vec in basis:
                for row in rows:
                    assert row_dot(_field_row(row, order), vec).is_zero()


def test_echelon_has_rational_leads_and_the_same_span():
    # the basis component_rows restricts a flat's monomials through: one
    # row per pivot column of the RREF, 0 before it, a positive int on it
    rng = random.Random(24)
    for order in ORDERS:
        for nrows, ncols in ((1, 4), (2, 5), (3, 5), (4, 7), (6, 6)):
            rows = _random_matrix(rng, nrows, ncols, order)
            rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
            elim = eliminate(rows, ncols, order)
            pivots, basis = elim.echelon()
            assert pivots == elim.reduced()[0]
            for col, row in zip(pivots, basis):
                assert len(row) == ncols and not any(row[:col])
                assert type(row[col]) is int and row[col] > 0
                assert all(type(v) is int or isinstance(v, CyclotomicNumber)
                           for v in row)
            assert rref(basis, ncols, order) == elim.reduced()


def test_clone_isolation():
    rng = random.Random(14)
    order = 5
    ncols = 7
    elim = Eliminator(ncols, order)
    for row in _random_matrix(rng, 3, ncols, order):
        elim.add_field_row(row)
    base_rank = elim.rank
    fork = elim.clone()
    extra = _random_matrix(rng, 3, ncols, order)
    for row in extra:
        fork.add_field_row(row)
    assert elim.rank == base_rank
    assert fork.rank >= base_rank
    # the parent accepts the same rows afterwards with identical outcome
    again = elim.clone()
    for row in extra:
        again.add_field_row(row)
    assert again.rank == fork.rank
    # clones share the base's pivots, nonzero positions and coefficients
    # alike: sparse rows reduced against them in two clones leave the base
    # as it was, and the two clones agree row by row
    for order in (1, 3, 5):
        ncols = 16
        base = Eliminator(ncols, order)
        for row in _sparse_matrix(rng, 6, ncols, order, 0.25):
            base.add_field_row(row)
        rank, red = base.rank, base.reduced()
        one, two = base.clone(), base.clone()
        for row in _sparse_matrix(rng, 8, ncols, order, 0.3):
            assert one.add_field_row(row) == two.add_field_row(row)
        assert one.rank == two.rank > rank
        assert one.reduced() == two.reduced()
        assert kernel_basis(one) == kernel_basis(two)
        assert base.rank == rank
        assert base.reduced() == red


def test_kernel_vectors_annihilated_by_all_rows():
    rng = random.Random(15)
    for order in (1, 3, 4, 5, 7):
        ncols = 9
        rows = _random_matrix(rng, 5, ncols, order)
        elim = Eliminator(ncols, order)
        for row in rows:
            elim.add_field_row(row)
        basis = kernel_basis(elim)
        assert len(basis) == ncols - elim.rank
        for vec in basis:
            for row in rows:
                assert row_dot(row, vec).is_zero()
        # basis vectors are independent
        assert rank_of_field_rows(basis, ncols, order) == len(basis)


def test_kernel_of_rows_function():
    order = 3
    eps = CyclotomicNumber.root(order)
    one = CyclotomicNumber.one(order)
    # single row (1, e, 0): kernel is 2-dimensional
    rows = [[one, eps, CyclotomicNumber.zero(order)]]
    basis = kernel_of_rows(rows, 3, order)
    assert len(basis) == 2
    for vec in basis:
        assert row_dot(rows[0], vec).is_zero()


def test_rref_canonical_shape():
    rng = random.Random(16)
    order = 4
    ncols = 6
    rows = _random_matrix(rng, 4, ncols, order)
    pivots, red = rref(rows, ncols, order)
    assert len(pivots) == len(red) == rank_of_field_rows(rows, ncols, order)
    one = CyclotomicNumber.one(order)
    for r, pc in enumerate(pivots):
        assert red[r][pc] == one.lift(red[r][pc].order)
        for other in range(len(red)):
            if other != r:
                assert red[other][pc].is_zero()
    # idempotence: rref of the rref is itself
    pivots2, red2 = rref(red, ncols, order)
    assert pivots2 == pivots
    assert all(tuple(a.lift(12) for a in r1) == tuple(b.lift(12) for b in r2)
               for r1, r2 in zip(red, red2))
    # same row space: stacking the rref under the rows keeps the rank
    assert field_rank_oracle(rows + red, order) == field_rank_oracle(rows, order)
    # the same rows lifted to a larger order reduce to equal rows
    rows3 = _random_matrix(rng, 4, ncols, 3)
    red3 = rref(rows3, ncols, 3)
    for big in (6, 12):
        lifted = [[v.lift(big) for v in row] for row in rows3]
        assert rref(lifted, ncols, big) == red3
    # reducing a clone leaves the pivots it shares with its base alone
    base = Eliminator(ncols, order)
    for row in rows[:2]:
        base.add_field_row(row)
    before = kernel_basis(base)
    fork = base.clone()
    for row in _random_matrix(rng, 3, ncols, order):
        fork.add_field_row(row)
    fork.reduced()
    assert kernel_basis(base) == before


def test_rational_rows_order_one_path():
    rng = random.Random(17)
    rows = [[CyclotomicNumber.from_rational(rng.randint(-4, 4))
             for _ in range(5)] for _ in range(7)]
    assert rank_of_field_rows(rows, 5, 1) == field_rank_oracle(rows, 1)
    # a Fraction entry is its own first coefficient, as an int entry is
    mixed = [[Fraction(1, 2), 1, 0]]
    assert rank_of_field_rows(mixed, 3, 1) == field_rank_oracle(mixed, 1) == 1
    assert rref(mixed, 3, 1) == ([0], [(1, 2, 0)])


def test_wide_matrix_oracle_agreement():
    # up to 40 columns, the documented oracle envelope
    rng = random.Random(18)
    for order in (1, 3, 5):
        rows = _random_matrix(rng, 12, 40, order, )
        assert rank_of_field_rows(rows, 40, order) \
            == field_rank_oracle(rows, order)


def _mixed(row):
    # integral rational entries as plain ints, every other entry unchanged
    return [v.coeffs[0].numerator
            if v.is_rational() and v.coeffs[0].denominator == 1 else v
            for v in row]


def test_mixed_int_and_cyclotomic_rows_match_field_rows():
    # an int entry must be scaled by the row's common denominator like the
    # first coefficient of a CyclotomicNumber; the kernel shows any slip
    rng = random.Random(19)
    for order in ORDERS:
        ncols = 9
        rows = []
        for _ in range(5):
            row = []
            for _ in range(ncols):
                if rng.random() < 0.5:
                    row.append(CyclotomicNumber.from_rational(
                        rng.randint(-4, 4), order))
                else:
                    row.append(CyclotomicNumber(order, [
                        Fraction(rng.randint(-6, 6), rng.randint(2, 7))
                        for _ in range(euler_phi(order))]))
            rows.append(row)
        rows.append([a + b * 2 for a, b in zip(rows[0], rows[1])])
        mixed = [_mixed(r) for r in rows]
        assert any(isinstance(v, int) for r in mixed for v in r)
        assert any(not isinstance(v, int) and
                   any(c.denominator > 1 for c in v.coeffs)
                   for r in mixed for v in r)
        whole = Eliminator(ncols, order)
        part = Eliminator(ncols, order)
        for field_row, mixed_row in zip(rows, mixed):
            assert whole.add_field_row(field_row) == part.add_field_row(mixed_row)
        assert part.rank == whole.rank == field_rank_oracle(rows, order) == 5
        assert kernel_basis(part) == kernel_basis(whole)


def _entry(rng, order):
    """A random nonzero int, Fraction or CyclotomicNumber of Q(e_order),
    the last stored at order or at one of its divisors."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice((-3, -2, -1, 1, 2, 5))
    if kind == 1:
        return Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(2, 5))
    sub = rng.choice([d for d in range(1, order + 1) if order % d == 0])
    while True:
        v = CyclotomicNumber(sub, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                   for _ in range(euler_phi(sub))])
        if v:
            return v


def _canonical_set(rng, ncols, order):
    """Rows in canonical RREF: a unit lead (an int, a Fraction or a
    CyclotomicNumber), zeros before it and in the other lead columns."""
    leads = sorted(rng.sample(range(ncols), rng.randint(1, ncols - 1)))
    one = (1, Fraction(1), CyclotomicNumber.one(order), CyclotomicNumber.one())
    zero = (0, Fraction(0), CyclotomicNumber.zero(order))
    rows = []
    for lead in leads:
        row = [rng.choice(zero) for _ in range(ncols)]
        row[lead] = rng.choice(one)
        for c in range(lead + 1, ncols):
            if c not in leads and rng.random() < 0.7:
                row[c] = _entry(rng, order)
        rows.append(row)
    return leads, rows


def _stored(result):
    leads, rows = result
    return leads, [[(v.order, v.num, v.den) for v in row] for row in rows]


def test_rref_keeps_canonical_rows_and_matches_the_eliminator(monkeypatch):
    # rows already in canonical RREF come back as they stand; a near miss
    # (a row scaled, rows out of lead order, a nonzero entry in another
    # row's lead column, a zero row) is eliminated; either way rref is
    # the Eliminator's reduced() entry for entry
    rng = random.Random(20)
    real = linalg.eliminate
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(linalg, "eliminate", counted)
    for order in (1, 2, 3, 4, 5, 6, 8, 12):
        root = CyclotomicNumber.root(order)
        for _ in range(12):
            ncols = rng.randint(2, 6)
            leads, rows = _canonical_set(rng, ncols, order)
            misses = []
            i = rng.randrange(len(rows))
            scale = 2 if order == 1 or rng.random() < 0.5 else root
            misses.append(rows[:i] + [[v * scale for v in rows[i]]] + rows[i + 1:])
            if len(rows) > 1:
                i, j = sorted(rng.sample(range(len(rows)), 2))
                misses.append(rows[:i] + [rows[j]] + rows[i + 1:j] + [rows[i]]
                              + rows[j + 1:])
                dirty = [list(row) for row in rows]
                dirty[i][leads[j]] = _entry(rng, order)
                misses.append(dirty)
            i = rng.randint(0, len(rows))
            misses.append(rows[:i] + [[0] * ncols] + rows[i:])
            for case, expect_eliminated in [(rows, False)] + [(m, True) for m in misses]:
                want = _stored(real(case, ncols, order).reduced())
                del calls[:]
                assert _stored(rref(case, ncols, order)) == want
                assert bool(calls) == expect_eliminated
            assert rref(rows, ncols, order)[0] == leads
        # random dense sets are eliminated too, and agree likewise
        rows = [[_entry(rng, order) if rng.random() < 0.7 else 0
                 for _ in range(5)] for _ in range(3)]
        assert _stored(rref(rows, 5, order)) == _stored(eliminate(rows, 5, order).reduced())
