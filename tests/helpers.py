"""Shared independent oracles for the test suite.

The rank oracle avoids the library's elimination engine entirely: a matrix
over Q(e_n) is expanded entrywise into phi(n) x phi(n) rational blocks of
the regular representation, and the rank of the blown-up matrix is found by
plain dense Gaussian elimination over Fraction.  For any matrix M over the
field, rank_Q(blowup(M)) = phi(n) * rank_{Q(e_n)}(M).
"""

from fractions import Fraction

from fermatarr.cyclo import CyclotomicNumber, euler_phi


def regular_block(value: CyclotomicNumber):
    """phi x phi rational matrix of multiplication by value on the power
    basis 1, e, ..., e^(phi-1)."""
    order = value.order
    phi = len(value.coeffs)
    cols = []
    for t in range(phi):
        prod = value * CyclotomicNumber.root(order, t) if order > 1 else value
        cols.append(prod.coeffs)
    return [[cols[t][s] for t in range(phi)] for s in range(phi)]


def blowup_rows(field_rows, order: int):
    """Expand rows over Q(e_order) into phi-times-as-many rational rows.
    Entries are CyclotomicNumbers or ints."""
    phi = euler_phi(order)
    out = []
    for row in field_rows:
        blocks = [regular_block(v.lift(order) if isinstance(v, CyclotomicNumber)
                                else CyclotomicNumber.from_rational(v, order))
                  for v in row]
        for s in range(phi):
            out.append([b[s][t] for b in blocks for t in range(phi)])
    return out


def rational_rank(rows) -> int:
    """Dense Gaussian elimination over Fraction."""
    rows = [[Fraction(v) for v in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def field_rank_oracle(field_rows, order: int) -> int:
    """Rank over Q(e_order) via the rational blow-up."""
    rows = blowup_rows(field_rows, order)
    r = rational_rank(rows)
    phi = euler_phi(order)
    assert r % phi == 0, "blow-up rank must be divisible by phi"
    return r // phi
