"""Condition matrices, system dimensions, and unexpectedness decisions."""

import random

import pytest
from helpers import (condition_rows, evaluate, kernel_basis, kernel_of_rows,
                     rank_kernel)

from fermatarr import interp, scheme
from fermatarr.arrange import BudgetError, Flat
from fermatarr.cyclo import CyclotomicNumber
from fermatarr.interp import (
    DegenerateDrawError,
    decide_unexpected,
    hilbert_function,
    random_flat,
    system_dimension,
)
from fermatarr.linalg import Eliminator, eliminate, row_dot
from fermatarr.mpoly import graded_monomials, parse_point
from fermatarr.scheme import (
    ConditionMatrix,
    FatScheme,
    check_budget,
    component_rows,
    named_configuration,
)

B3 = named_configuration("B3_DUAL").scheme
M3 = named_configuration("FERMAT_DUAL(3,2)").scheme
M4 = named_configuration("FERMAT_DUAL(4,1)").scheme


def test_frozen_system_dimensions():
    assert system_dimension(B3, 4) == 6
    assert system_dimension(M3, 5) == 10
    assert system_dimension(M4, 6) == 15
    assert system_dimension(named_configuration("BMSS_P3").scheme, 4) == 8
    assert system_dimension(named_configuration("MULT4_POINTS(3)").scheme, 5) == 9
    assert system_dimension(named_configuration("MULT4_POINTS(4)").scheme, 6) == 9


def test_frozen_hilbert_functions():
    assert hilbert_function(B3, 4) == [1, 3, 6, 9, 9]
    assert hilbert_function(M3, 5) == [1, 3, 6, 9, 11, 11]
    assert hilbert_function(M4, 6) == [1, 3, 6, 9, 12, 13, 13]
    with pytest.raises(ValueError):
        hilbert_function(B3, -1)


def test_hilbert_function_is_monotone_and_bounded():
    for Z, npts in ((B3, 9), (M3, 11), (M4, 13)):
        hf = hilbert_function(Z, 6)
        assert all(a <= b for a, b in zip(hf, hf[1:]))
        for d, rank in enumerate(hf):
            assert rank <= min(npts, len(graded_monomials(3, d)))


def test_condition_matrix_shape_and_provenance():
    assert len(condition_rows(M3, 4)) == 11
    mat = ConditionMatrix.from_scheme(M3, 4)
    assert mat.ncols == len(graded_monomials(3, 4)) == 15
    assert mat.order == 3
    # only the rows of the 5 orbit representatives, one per point
    reps = scheme._symmetry(M3)[1]
    assert len(reps) == len(mat.rows) == 5
    assert mat.rows == [row for flat, m in reps
                        for row in component_rows(flat, m, 4)]
    assert sorted(col for cols in mat.blocks for col in cols) == list(range(15))


def test_kernel_polys_vanish_on_scheme():
    rank, kernel = rank_kernel(M3, 4)
    assert rank == 11
    assert len(kernel) == len(graded_monomials(3, 4)) - rank == 4
    for poly in kernel:
        assert poly.is_homogeneous() and poly.degree() == 4
        for fl, _ in M3.components:
            assert evaluate(poly, fl.point()).is_zero()


def test_kernel_of_fat_point_has_vanishing_derivatives():
    pt = Flat.from_point(parse_point("(1:-2:3)"))
    Z = FatScheme(2, [(pt, 3)])
    rank, kernel = rank_kernel(Z, 4)
    assert rank == 6
    coords = pt.point()
    # rows encode only the top-order partials; Euler forces the rest
    for poly in kernel:
        for t in range(3):
            for beta in graded_monomials(3, t):
                assert evaluate(poly.partial_multi(beta), coords).is_zero()


def test_kernel_vanishes_on_positive_dimensional_flat():
    line = Flat.from_span([(1, 0, 0, 1), (0, 1, 2, 0)])
    pt = Flat.from_point(parse_point("(1:1:1:1)"))
    Z = FatScheme(3, [(line, 1), (pt, 1)])
    rank, kernel = rank_kernel(Z, 3)
    assert len(kernel) == len(graded_monomials(4, 3)) - rank
    basis = line.span_basis()
    matrix = [[basis[t][i] for t in range(2)] for i in range(4)]
    for poly in kernel:
        assert poly.substitute_linear(matrix).is_zero()
        assert evaluate(poly, pt.point()).is_zero()


def test_frozen_lines42_dimensions():
    Z = named_configuration("LINES42").scheme
    assert system_dimension(Z, 8) == 6
    assert system_dimension(Z, 9) == 20
    r = decide_unexpected(Z, [(1, 1)], 9, trials=1, seed=0)
    assert (r.dim_Z, r.conditions_X, r.expected, r.actual) == (20, 10, 10, 12)
    assert r.unexpected


def test_decide_unexpected_b3_report():
    r = decide_unexpected(B3, [(0, 3)], 4, trials=3, seed=0)
    assert r.as_dict() == {
        "degree": 4, "dim_Z": 6, "conditions_X": 6,
        "expected": 0, "actual": 1, "unexpected": True,
        "trials": 3, "seed": 0, "trial_values": [1, 1, 1],
        "certified": False,
    }


def test_decide_unexpected_fermat_dual_7():
    # order 7, phi = 6: the GEN(7) nonic with its general 8-fold point
    Z = named_configuration("FERMAT_DUAL(7,0)").scheme
    r = decide_unexpected(Z, [(0, 8)], 9, trials=2, seed=0)
    assert (r.dim_Z, r.conditions_X, r.expected, r.actual) == (34, 36, 0, 1)
    assert r.trial_values == (1, 1) and r.unexpected


def test_decide_unexpected_reports_alt_count_for_points():
    bmss = named_configuration("BMSS_P3").scheme
    r = decide_unexpected(bmss, [(0, 3)], 4, trials=2, seed=0)
    assert (r.dim_Z, r.conditions_X, r.conditions_X_alt) == (8, 10, 6)
    assert r.unexpected and r.actual == 1
    # a non-point template never reports the plane-style alternative
    r2 = decide_unexpected(M3, [(1, 1)], 3, trials=1, seed=0)
    assert r2.conditions_X_alt is None


def test_generic_points_admit_no_unexpected_curve():
    pts = [(1, t, t * t * t + t + 7) for t in range(9)]
    Z = FatScheme(2, [(Flat.from_point(p), 1) for p in pts])
    r = decide_unexpected(Z, [(0, 3)], 4, trials=2, seed=0)
    assert not r.unexpected
    assert r.expected == r.actual == 0


def test_decide_unexpected_is_deterministic_per_seed():
    a = decide_unexpected(B3, [(0, 3)], 4, trials=2, seed=7)
    b = decide_unexpected(B3, [(0, 3)], 4, trials=2, seed=7)
    assert a == b
    assert a.actual == min(a.trial_values)


def test_decide_unexpected_validates_template():
    with pytest.raises(ValueError):
        decide_unexpected(B3, [(2, 1)], 4)  # flat dim must stay below N
    with pytest.raises(ValueError):
        decide_unexpected(B3, [(0, 0)], 4)
    with pytest.raises(ValueError):
        decide_unexpected(B3, [(0, 3)], 4, trials=0)


def _no_rows(*args):
    raise AssertionError("a condition row was built")


def test_budget_refuses_before_any_row_is_built(monkeypatch):
    # C(100002, 2) columns: refused from the counts, with no row built
    monkeypatch.setattr(scheme, "component_rows", _no_rows)
    monkeypatch.setattr(interp, "component_rows", _no_rows)
    for run in (lambda: system_dimension(B3, 100_000),
                lambda: hilbert_function(B3, 100_000),
                lambda: decide_unexpected(B3, [(0, 3)], 100_000)):
        with pytest.raises(BudgetError, match="MATRIX_BUDGET"):
            run()


def test_budget_counts_rows_columns_phi_and_template(monkeypatch):
    # B3_DUAL in degree 4: 9 rows x 15 columns, and 15 rows with a triple
    # point; FERMAT_DUAL(3,2) counts phi(3) = 2 rational entries per entry
    monkeypatch.setattr(scheme, "MATRIX_BUDGET", 135)
    assert system_dimension(B3, 4) == 6
    monkeypatch.setattr(scheme, "component_rows", _no_rows)
    monkeypatch.setattr(interp, "component_rows", _no_rows)
    with pytest.raises(BudgetError, match="15 rows x 15 columns x phi 1"):
        decide_unexpected(B3, [(0, 3)], 4)
    monkeypatch.setattr(scheme, "MATRIX_BUDGET", 134)
    with pytest.raises(BudgetError, match="9 rows x 15 columns"):
        system_dimension(B3, 4)
    with pytest.raises(BudgetError, match="x phi 2"):
        check_budget(M3, 4)


def test_trials_count_against_the_budget(monkeypatch):
    # each trial is one matrix of 15 rows x 15 columns, refused before any
    # row is built or any flat drawn
    monkeypatch.setattr(scheme, "component_rows", _no_rows)
    monkeypatch.setattr(interp, "component_rows", _no_rows)
    monkeypatch.setattr(interp, "random_flat", _no_rows)
    with pytest.raises(BudgetError, match="100000000 trials x 15 rows x 15 col"):
        decide_unexpected(B3, [(0, 3)], 4, trials=10**8)
    monkeypatch.setattr(scheme, "MATRIX_BUDGET", 4 * 225)
    check_budget(B3, 4, 6, trials=4)
    with pytest.raises(BudgetError, match="5 trials x 15 rows"):
        check_budget(B3, 4, 6, trials=5)


def test_random_flat_shapes():
    rng = random.Random(3)
    for _ in range(5):
        pt = random_flat(rng, 2, 0, box=50)
        assert pt.dim == 0 and pt.ambient == 2
        line = random_flat(rng, 3, 1, box=50)
        assert line.dim == 1 and len(line.equations) == 2
    tiny = random_flat(random.Random(0), 2, 0, box=1)
    assert tiny.dim == 0
    assert issubclass(DegenerateDrawError, RuntimeError)


# (id, largest degree) of the catalogue schemes checked block by block
BLOCK_CASES = ([("B3_DUAL", 5), ("BMSS_P3", 5), ("LINES42", 6), ("P5_MULTI", 3)]
               + [(f"FERMAT_DUAL({m},{k})", m + 2)
                  for m in range(1, 8) for k in range(4)]
               + [(f"MULT4_POINTS({n})", n + 2) for n in range(3, 8)])


def _unblocked(Z, d):
    return eliminate(condition_rows(Z, d), len(graded_monomials(Z.ambient + 1, d)),
                     Z.root_order)


def _assert_blocks_match(Z, d_max, label):
    """The blocked matrix against the full one: the same RREF, kernel and
    ranks, and contains(v) as the full rows' verdict, on each kernel
    vector, on each kernel vector plus one monomial, and on each kernel
    vector of the representatives' rows, which only the split into blocks
    tells from a form of (I_Z)_d."""
    ranks = []
    for d in range(d_max + 1):
        mat = ConditionMatrix.from_scheme(Z, d)
        blocked, plain = mat.eliminator(), _unblocked(Z, d)
        assert blocked.reduced() == plain.reduced(), (label, d)
        kernel = kernel_basis(plain)
        assert kernel_basis(blocked) == kernel, (label, d)
        rows = condition_rows(Z, d)
        shifted = [list(vec) for vec in kernel]
        for k, vec in enumerate(shifted):
            vec[k * 7 % mat.ncols] += 1
        loose = kernel_of_rows(mat.rows, mat.ncols, mat.order)
        for v in kernel + shifted + loose:
            assert mat.contains(v) == all(row_dot(r, v).is_zero()
                                          for r in rows), (label, d)
        ranks.append(plain.rank)
    assert hilbert_function(Z, d_max) == ranks, label


def test_blocked_eliminator_matches_the_full_condition_matrix():
    for cid, d_max in BLOCK_CASES:
        _assert_blocks_match(named_configuration(cid).scheme, d_max, cid)


def _most_moved(Z):
    """The component with the most nonzero equation entries: for these
    schemes, one that every generator moves."""
    return max(Z.components,
               key=lambda c: sum(map(bool, sum(c[0].equations, ()))))


def test_broken_orbits_fall_back_and_agree():
    for cid, d_max in BLOCK_CASES:
        Z = named_configuration(cid).scheme
        gens = scheme._symmetry(Z)[0]
        moved, mult = _most_moved(Z)
        removed = FatScheme(Z.ambient, [c for c in Z.components
                                        if c[0] != moved])
        raised = FatScheme(Z.ambient, [(fl, m + (fl == moved))
                                       for fl, m in Z.components])
        for broken, how in ((removed, "removed"), (raised, "raised")):
            found = scheme._symmetry(broken)[0]
            assert set(found) <= set(gens) and (not gens or found != gens)
            _assert_blocks_match(broken, min(d_max - 1, 5), f"{cid} {how}")


def test_symmetry_generators_and_orbits():
    for m in range(3, 8):
        for k in range(4):
            gens, reps = scheme._symmetry(
                named_configuration(f"FERMAT_DUAL({m},{k})").scheme)
            # one orbit of dual points per pair of coordinates, and the k
            # points dual to the coordinate lines, each fixed
            assert (gens, len(reps)) == ((1, 2), 3 + k)
    for cid, gens, orbits in (("LINES42", (1, 2, 3), 10), ("B3_DUAL", (), 9),
                              ("MULT4_POINTS(6)", (1, 2), 4)):
        Z = named_configuration(cid).scheme
        found, reps = scheme._symmetry(Z)
        assert (found, len(reps)) == (gens, orbits), cid


def test_hilbert_function_finds_the_symmetry_once(monkeypatch):
    calls = []

    def counted(Z):
        calls.append(Z)
        return real(Z)
    real = scheme._symmetry
    monkeypatch.setattr(scheme, "_symmetry", counted)
    Z = named_configuration("FERMAT_DUAL(5,2)").scheme
    assert hilbert_function(Z, 5) == hilbert_function(Z, 5)
    assert calls == [Z]


def test_decisions_match_the_unblocked_engine(monkeypatch):
    cases = (("B3_DUAL", [(0, 3)], 4), ("FERMAT_DUAL(5,2)", [(0, 6)], 7),
             ("BMSS_P3", [(0, 3)], 4), ("LINES42", [(1, 1), (0, 2)], 9),
             ("MULT4_POINTS(6)", [(0, 4)], 8))
    blocked = [decide_unexpected(named_configuration(cid).scheme, t, d,
                                 trials=2, seed=3) for cid, t, d in cases]
    monkeypatch.setattr(scheme, "_symmetry", lambda Z: ((), Z.components))
    plain = [decide_unexpected(named_configuration(cid).scheme, t, d,
                               trials=2, seed=3) for cid, t, d in cases]
    assert blocked == plain


def test_join_maps_block_columns_in_order():
    # phi(5) = 4: block columns 1 and 3 of 4, and 0 and 2, each with a row
    e = CyclotomicNumber.root(5)
    odd, even = Eliminator(2, 5), Eliminator(2, 5)
    odd.add_field_row((e, 2))
    even.add_field_row((0, e + 1))
    joined = Eliminator.join([(odd, [1, 3]), (even, [0, 2])], 4, 5)
    full = eliminate([(0, e, 0, 2), (0, 0, e + 1, 0)], 4, 5)
    assert joined.rank == full.rank == 2
    assert joined.reduced() == full.reduced()
    clone = joined.clone()
    assert not clone.add_field_row((0, 3 * e, e * e + e, 6))
    assert clone.add_field_row((1, 0, 0, 0)) and clone.rank == 3
