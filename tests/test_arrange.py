"""Arrangements, reflection groups, duality, and derived flats."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from helpers import (all_pairs_derived_counts, containing_hyperplanes,
                     contains_flat, kernel_of_rows, lattice_membership)

from fermatarr import arrange
from fermatarr.arrange import (
    FLAT_BUDGET,
    BudgetError,
    Flat,
    derived_flats,
    dual_points,
    fermat_arrangement,
    format_spec,
    monomial_group,
    parse_spec,
    reflections_of,
)
from fermatarr.cyclo import CyclotomicNumber, common_order
from fermatarr.formulas import equal_up_to_scalar
from fermatarr.mpoly import parse_point, parse_poly
from fermatarr.scheme import format_component


def test_fermat_arrangement_counts():
    for N in (2, 3):
        for n in (1, 2, 3):
            for k in range(-1, N + 1):
                arr = fermat_arrangement(N, n, k)
                assert len(arr) == n * math.comb(N + 1, 2) + k + 1
    # the 22 planes behind the space configurations
    assert len(fermat_arrangement(3, 3, 3)) == 22


def test_braid_group_is_symmetric_group():
    els = monomial_group(1, 1, 3)
    assert len(els) == 6
    # closed under composition, all monomial 0/1 matrices
    index = set(els)
    for g in els:
        for lines in (g.matrix, tuple(zip(*g.matrix))):
            assert all(sum(1 for v in line if v) == 1 for line in lines)
        for h in els:
            assert (g @ h) in index


def test_monomial_group_orders():
    assert len(monomial_group(2, 1, 3)) == 48
    assert len(monomial_group(3, 3, 3)) == 54
    assert len(monomial_group(4, 2, 3)) == 192
    assert len(monomial_group(2, 2, 4)) == 24 * 16 // 2


def test_monomial_group_cap():
    with pytest.raises(ValueError):
        monomial_group(10, 1, 4)  # 24 * 10^4 exceeds the enumeration cap


def test_group_entry_product_constraint():
    for g in monomial_group(4, 2, 3):
        prod = CyclotomicNumber.one(4)
        for row in g.matrix:
            for v in row:
                if not v.is_zero():
                    prod = prod * v
        assert (prod * prod) == CyclotomicNumber.one(4)  # (n/p)-th root


def _reflection_hyperplanes(n, p, N1):
    group = monomial_group(n, p, N1)
    return set(reflections_of(group))


def test_reflection_arrangements_match_fermat():
    # coordinate hyperplanes appear exactly when p < n
    cases = [(2, 1, 3), (2, 2, 3), (3, 1, 3), (3, 3, 3), (4, 2, 3),
             (2, 1, 4), (3, 3, 4)]
    for n, p, N1 in cases:
        k = N1 - 1 if p < n else -1
        arr = fermat_arrangement(N1 - 1, n, k)
        assert _reflection_hyperplanes(n, p, N1) == set(arr.hyperplanes)


def test_defining_polynomial_is_fermat_product():
    names = ("x0", "x1", "x2")
    for n in (1, 2, 3, 4):
        arr = fermat_arrangement(2, n, 0)
        expected = parse_poly(
            f"x0*((x0^{n}-x1^{n})*(x0^{n}-x2^{n})*(x1^{n}-x2^{n}))", names)
        assert equal_up_to_scalar(arr.defining_polynomial(), expected)


def test_dual_points_match_b3_table():
    arr = fermat_arrangement(2, 2, 2)
    got = set(dual_points(arr))
    table = ["(1:0:0)", "(0:1:0)", "(0:0:1)",
             "(1:1:0)", "(1:-1:0)", "(1:0:1)",
             "(1:0:-1)", "(0:1:1)", "(0:1:-1)"]
    want = {parse_point(s) for s in table}
    assert got == want


def test_duality_is_an_involution():
    arr = fermat_arrangement(2, 3, 1)
    for p, h in zip(dual_points(arr), arr.hyperplanes):
        assert Flat.from_equations([p]) == h


def test_derived_lines_of_the_space_arrangement():
    arr = fermat_arrangement(3, 3, -1)
    lines = derived_flats(arr, 1, 3)
    assert len(lines) == 42
    for fl in lines:
        assert fl.dim == 1
        assert len(containing_hyperplanes(arr, fl)) >= 3


def test_derived_points_of_plane_arrangements():
    for n in (3, 4, 5):
        arr = fermat_arrangement(2, n, -1)
        pts = derived_flats(arr, 0, 2)
        assert len(pts) == n * n + 3


def test_derived_flats_are_pinned():
    # flats of every dimension up to P^4 and at codimension up to 4, at
    # several minimum counts, in their canonical text and order
    digest = hashlib.sha256()
    for spec, t, k in (("A(3,3,4)", 0, 2), ("A(3,1,5)", 0, 3),
                       ("A(4,0,3)", 0, 3), ("A(4,2,2)", 1, 2),
                       ("A(4,4,2)", 0, 4), ("A(5,0,2)", 0, 2),
                       ("A(5,0,2)", 1, 3), ("A(5,1,2)", 2, 2)):
        digest.update(f"{spec} {t} {k}\n".encode())
        for fl in derived_flats(parse_spec(spec), t, k):
            digest.update(f"{format_component(fl)}\n".encode())
    assert digest.hexdigest() == \
        "9cbf912f7035f64ea29f0a058149670183f19258dd92a3617533616200c9263f"


def test_lattice_membership_of_published_point():
    arr = fermat_arrangement(3, 3, 3)
    fl = Flat.from_point(parse_point("(0:0:1:1)"))
    member, count = lattice_membership(arr, fl)
    assert member
    # the two coordinate hyperplanes x0, x1 also pass through it, on top
    # of the four cited intersecting planes
    assert count == 6


def test_span_basis_is_computed_once_per_flat(monkeypatch):
    arr = fermat_arrangement(3, 3, 3)
    flats = derived_flats(arr, 1, 2)[:5]
    fresh = [Flat.from_equations(fl.equations) for fl in flats]
    bases = [fl.span_basis() for fl in fresh]
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)
    real = arrange.kernel_of_rref
    monkeypatch.setattr(arrange, "kernel_of_rref", counted)
    counts = [lattice_membership(arr, fl)[1] for fl in flats]
    assert len(calls) == len(flats)  # one basis per flat, not per hyperplane
    assert [len(containing_hyperplanes(arr, fl)) for fl in flats] == counts
    assert len(calls) == len(flats)
    # == and hash stay on the equations, with or without a basis kept
    assert fresh == flats and list(map(hash, fresh)) == list(map(hash, flats))
    assert [fl.span_basis() for fl in flats] == bases


def test_lattice_membership_rejects_generic_point():
    arr = fermat_arrangement(2, 2, 2)
    fl = Flat.from_point(parse_point("(1:7:13)"))
    member, count = lattice_membership(arr, fl)
    assert not member
    assert count == 0


def test_flat_meet_and_containment():
    h1 = Flat.from_equations([(1, 0, 0, 0)])
    h2 = Flat.from_equations([(0, 1, 0, 0)])
    meet = Flat.from_equations(h1.equations + h2.equations)
    assert meet.dim == 1
    assert contains_flat(h1, meet)
    assert contains_flat(meet, Flat.from_point(parse_point("(0:0:1:5)")))
    # meeting with a disjoint flat of complementary dimension is empty
    other = Flat.from_span([(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(ValueError, match="no projective solutions"):
        Flat.from_equations(meet.equations + other.equations)


def test_flat_span_equation_round_trip():
    fl = Flat.from_span([(1, 2, 3), (0, 1, 1)])
    assert fl.dim == 1
    basis = fl.span_basis()
    rebuilt = Flat.from_span(basis)
    assert rebuilt == fl
    for vec in basis:
        assert contains_flat(fl, Flat.from_point(vec))


def test_flats_refuse_rows_of_different_lengths():
    with pytest.raises(ValueError, match="must share a length"):
        Flat.from_span([(1, 2, 3), (1, 2)])
    with pytest.raises(ValueError, match="must share a length"):
        Flat.from_equations([(1, 2, 3), (1, 2)])


def test_point_flat_round_trip():
    fl = Flat.from_point(parse_point("(2:-1:4)"))
    assert fl.dim == 0
    # the coordinates are the span basis vector: the last nonzero one is 1
    assert fl.point() == parse_point("(1/2 : -1/4 : 1)")
    assert Flat.from_point(fl.point()) == fl


def test_spec_string_round_trip():
    arr = fermat_arrangement(2, 3, 1)
    assert format_spec(arr) == "A(3,2,3)"
    again = parse_spec(format_spec(arr))
    assert set(again.hyperplanes) == set(arr.hyperplanes)
    with pytest.raises(ValueError):
        parse_spec("B(3,2,3)")
    with pytest.raises(ValueError):
        parse_spec("A(3,2)")
    lower = parse_spec("a(3,2,3)")
    assert format_spec(lower) == "A(3,2,3)"
    assert lower.hyperplanes == arr.hyperplanes


def test_hyperplane_normalization_and_equality():
    a = Flat.from_equations([(2, -2, 0)])
    b = Flat.from_equations([(1, -1, 0)])
    assert a == b
    assert a.equations[0] == (1, -1, 0)
    assert contains_flat(a, Flat.from_point(parse_point("(1:1:9)")))
    assert not contains_flat(a, Flat.from_point(parse_point("(1:0:0)")))


def test_rational_flats_store_their_entries_at_order_one():
    # the rational points among the derived flats of A(3,0,4) come out of
    # eliminations at order 4; the flat lowers their entries once
    points = [fl for fl in derived_flats(fermat_arrangement(2, 4, -1), 0, 2)
              if fl.order == 1]
    assert len(points) == 7
    for fl in points:
        entries = [v for row in fl.equations for v in row]
        entries += [v for vec in fl.span_basis() for v in vec]
        assert {v.order for v in entries} == {1}


def test_derived_flats_match_the_all_pairs_descent():
    # meeting each flat only with the hyperplanes above its largest index
    # finds the same flats, with the same hyperplane counts, as meeting it
    # with every hyperplane not containing it
    specs = [f"A(3,{k},{n})" for k in range(4) for n in range(1, 7)]
    specs += ["A(4,0,2)", "A(4,0,3)"]
    for spec in specs:
        arr = parse_spec(spec)
        for t in range(arr.N):
            counts = all_pairs_derived_counts(arr, t)
            for k in (2, 3, 4):
                want = sorted((fl for fl, c in counts.items() if c >= k),
                              key=Flat.sort_key)
                assert derived_flats(arr, t, k) == want, (spec, t, k)


def _random_span(rng, ncols, rank, nvecs, order):
    # nvecs vectors spanning a space of dimension rank (or less), with
    # entries at the given order, some of them zero
    def entry():
        if rng.random() < 0.3:
            return 0
        if order == 1:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        return sum((rng.randint(-3, 3) * CyclotomicNumber.root(order, a)
                    for a in range(order)), CyclotomicNumber.zero(order))
    basis = [[entry() for _ in range(ncols)] for _ in range(rank)]
    vecs = []
    for _ in range(nvecs):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        vecs.append([sum((c * b[j] for c, b in zip(coeffs, basis)), 0)
                     for j in range(ncols)])
    return vecs


def test_from_span_matches_kernel_then_equations():
    # the one column-reversed RREF gives the same canonical equations as
    # the kernel of the vectors put through Flat.from_equations
    rng = random.Random(61)
    checked = 0
    for order in (1, 1, 3, 4, 5):
        for ncols in range(2, 6):
            for rank in range(1, ncols + 1):
                for nvecs in (rank, rank + 1, rank + 2):
                    vecs = _random_span(rng, ncols, rank, nvecs, order)
                    field = common_order(v for vec in vecs for v in vec)
                    forms = kernel_of_rows(vecs, ncols, field)
                    if not forms:
                        with pytest.raises(ValueError, match="whole space"):
                            Flat.from_span(vecs)
                        continue
                    if len(forms) == ncols:
                        with pytest.raises(ValueError, match="all zero"):
                            Flat.from_span(vecs)
                        continue
                    got = Flat.from_span(vecs)
                    want = Flat.from_equations(forms)
                    assert got.equations == want.equations
                    assert got.order == want.order and got.dim == want.dim
                    checked += 1
    assert checked > 100
    with pytest.raises(ValueError, match="all zero"):
        Flat.from_span([(0, 0, 0), (0, Fraction(0), CyclotomicNumber.zero(3))])
    with pytest.raises(ValueError, match="whole space"):
        Flat.from_span([(1, 0, 0), (0, 1, 0), (1, 1, CyclotomicNumber.root(3))])
    with pytest.raises(ValueError, match="at least one vector"):
        Flat.from_span([])


def test_flat_budget_counts_rows_columns_and_phi(monkeypatch):
    # A(3,3,2): 9 lines and 9 dual points, one row of 3 columns each, phi 1;
    # their points add 2 rows for each of the C(9, 2) meets
    assert FLAT_BUDGET == 10**8
    monkeypatch.setattr(arrange, "FLAT_BUDGET", 54)
    assert len(parse_spec("A(3,3,2)")) == 9
    monkeypatch.setattr(arrange, "FLAT_BUDGET", 53)
    with pytest.raises(BudgetError, match="FLAT_BUDGET = 53"):
        parse_spec("A(3,3,2)")
    monkeypatch.setattr(arrange, "FLAT_BUDGET", (18 + 2 * 36) * 3)
    assert len(derived_flats(parse_spec("A(3,3,2)", 0), 0, 2)) == 13
    monkeypatch.setattr(arrange, "FLAT_BUDGET", (18 + 2 * 36) * 3 - 1)
    with pytest.raises(BudgetError, match="down to its 0-flats"):
        parse_spec("A(3,3,2)", 0)
    # A(4,1,3) in P^3: 19 planes, phi(3)^2 = 4 rational entries per entry;
    # lines add 2 rows per C(19, 2) meets, and points 3 per C(19, 3)
    size = (38 + 2 * 171 + 3 * 969) * 4 * 4
    monkeypatch.setattr(arrange, "FLAT_BUDGET", size)
    parse_spec("A(4,1,3)", 0)
    monkeypatch.setattr(arrange, "FLAT_BUDGET", size - 1)
    with pytest.raises(BudgetError, match="phi\\(3\\)"):
        parse_spec("A(4,1,3)", 0)
    with pytest.raises(ValueError, match="flat dimension must lie in"):
        parse_spec("A(4,1,3)", 3)
