"""Exact elimination over cyclotomic fields, checked against an
independent rational blow-up oracle (tests/helpers.py)."""

import random
from fractions import Fraction

from helpers import field_rank_oracle

from fermatarr.cyclo import CyclotomicNumber, euler_phi
from fermatarr.linalg import (
    Eliminator,
    kernel_of_rows,
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


def test_kernel_vectors_annihilated_by_all_rows():
    rng = random.Random(15)
    for order in (1, 3, 4):
        ncols = 9
        rows = _random_matrix(rng, 5, ncols, order)
        elim = Eliminator(ncols, order)
        for row in rows:
            elim.add_field_row(row)
        basis = elim.kernel_basis()
        assert len(basis) == ncols - elim.rank
        for vec in basis:
            for row in rows:
                assert row_dot(row, vec, order).is_zero()
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
        assert row_dot(rows[0], vec, order).is_zero()


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


def test_rational_rows_order_one_path():
    rng = random.Random(17)
    rows = [[CyclotomicNumber.from_rational(rng.randint(-4, 4))
             for _ in range(5)] for _ in range(7)]
    assert rank_of_field_rows(rows, 5, 1) == field_rank_oracle(rows, 1)


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
        assert part.kernel_basis() == whole.kernel_basis()
