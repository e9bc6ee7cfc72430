"""Fat schemes, named configurations, conditions counts, condition rows."""

import hashlib
import random

import pytest
from helpers import (chart_rows, condition_rows, conditions_count_line,
                     conditions_count_line_p3, dense_row, field_rank_oracle,
                     flat_ints, general_point_count, kernel_basis_rows,
                     vanishes_by_rows)

from fermatarr import linalg
from fermatarr import scheme as scheme_module
from fermatarr.arrange import Flat, derived_flats, fermat_arrangement, parse_spec
from fermatarr.cyclo import CyclotomicNumber, euler_phi
from fermatarr.interp import hilbert_function, random_flat, system_dimension
from fermatarr.linalg import (Eliminator, eliminate, rank_of_field_rows, row_dot,
                              rref, sparse_row)
from fermatarr.mpoly import MultiPoly, graded_monomials, parse_point, parse_poly
from fermatarr.scheme import (
    FatScheme,
    NamedConfig,
    component_rows,
    conditions_count,
    format_component,
    format_scheme,
    named_configuration,
    parse_scheme,
    plane_point_count,
    verify_published_generators,
)


# -- named configurations --------------------------------------------------

def test_catalogue_is_pinned():
    # every id's components (sorted, so the build order is free) and its
    # published generators
    ids = (["B3_DUAL", "BMSS_P3", "P5_MULTI", "LINES42"]
           + [f"FERMAT_DUAL({m},{k})" for m in range(1, 9) for k in range(4)]
           + [f"MULT4_POINTS({n})" for n in range(3, 8)])
    digest = hashlib.sha256()
    for cid in ids:
        cfg = named_configuration(cid)
        lines = sorted(f"{format_component(fl)} mult {m}"
                       for fl, m in cfg.scheme.components)
        lines += [str(g) for g in cfg.published_generators]
        digest.update("\n".join([cfg.id, str(cfg.scheme.ambient)] + lines).encode())
        digest.update(b";")
    assert digest.hexdigest() == \
        "1959b4bae7c3aeab4aaa9c9f2ff801447a0ecef8bb659f20afa27c6dc3636396"


def test_configuration_point_counts():
    assert len(named_configuration("B3_DUAL").scheme) == 9
    for m in (1, 2, 3, 4, 5):
        for k in (0, 1, 2, 3):
            cfg = named_configuration(f"FERMAT_DUAL({m},{k})")
            assert len(cfg.scheme) == 3 * m + k
    assert len(named_configuration("BMSS_P3").scheme) == 31
    assert len(named_configuration("P5_MULTI").scheme) == 249
    assert len(named_configuration("LINES42").scheme) == 42
    for n in (3, 4):
        assert len(named_configuration(f"MULT4_POINTS({n})").scheme) == n * n + 3


def test_configuration_id_round_trip_and_errors():
    assert named_configuration(" b3_dual ").id == "B3_DUAL"
    assert named_configuration("FERMAT_DUAL(3,2)").id == "FERMAT_DUAL(3,2)"
    for bad in ("NOPE", "FERMAT_DUAL(3)", "FERMAT_DUAL(3,2,1)", "MULT4_POINTS(2)",
                "FERMAT_DUAL(0,2)", "FERMAT_DUAL(3,4)", "B3_DUAL(1)", "MULT4_POINTS(x)"):
        with pytest.raises(ValueError):
            named_configuration(bad)


def test_lines42_components_are_lines():
    cfg = named_configuration("LINES42")
    assert all(fl.dim == 1 and mult == 1 for fl, mult in cfg.scheme.components)
    assert len(cfg.published_generators) == 6
    assert all(g.degree() == 8 for g in cfg.published_generators)


def test_bmss_contains_all_four_coordinate_points():
    cfg = named_configuration("BMSS_P3")
    pts = {fl.point() for fl, _ in cfg.scheme.components}
    for s in ("(1:0:0:0)", "(0:1:0:0)", "(0:0:1:0)", "(0:0:0:1)"):
        assert parse_point(s) in pts


def test_bmss_is_the_unit_points_of_p3_in_order():
    # the 4 coordinate points, then (1 : w^a : w^b : w^c) for w = e(3)
    # and (a, b, c) in lexicographic order: 31 points
    w = CyclotomicNumber.root(3)
    points = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    points += [(1, w ** a, w ** b, w ** c)
               for a in range(3) for b in range(3) for c in range(3)]
    cfg = named_configuration("BMSS_P3")
    assert cfg.scheme.components == tuple((Flat.from_point(p), 1) for p in points)


def test_published_generators_are_parsed_on_first_read(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)
    real = scheme_module.parse_poly
    monkeypatch.setattr(scheme_module, "parse_poly", counted)
    for cid, count in (("FERMAT_DUAL(3,2)", 3), ("BMSS_P3", 8), ("LINES42", 6)):
        cfg = named_configuration(cid)
        assert not calls
        gens = cfg.published_generators
        assert len(gens) == len(calls) == count
        assert cfg.published_generators is gens  # parsed once
        assert verify_published_generators(cfg)
        del calls[:]


def test_published_generators_vanish():
    for cid in ("FERMAT_DUAL(3,2)", "FERMAT_DUAL(4,1)", "BMSS_P3", "LINES42"):
        assert verify_published_generators(named_configuration(cid))


def test_generators_required():
    with pytest.raises(ValueError):
        verify_published_generators(named_configuration("B3_DUAL"))


def test_generator_vanishing_breaks_with_extra_component():
    cfg = named_configuration("FERMAT_DUAL(3,2)")
    extra = (Flat.from_point(parse_point("(1:2:3)")), 1)
    scheme = FatScheme(cfg.scheme.ambient, cfg.scheme.components + (extra,))
    bigger = NamedConfig("tmp", scheme, cfg.published_generators)
    assert not verify_published_generators(bigger)


def test_generator_vanishing_on_lines():
    # the line (s : 2s : t : 3t) is off the zero set of every LINES42
    # generator; each line of LINES42 alone still passes
    cfg = named_configuration("LINES42")
    gens = cfg.published_generators
    line = Flat.from_span([(1, 2, 0, 0), (0, 0, 1, 3)])
    assert line.dim == 1 and line not in dict(cfg.scheme.components)
    scheme = FatScheme(3, cfg.scheme.components + ((line, 1),))
    assert not verify_published_generators(NamedConfig("tmp", scheme, gens))
    for flat, _ in cfg.scheme.components:
        alone = NamedConfig("tmp", FatScheme(3, [(flat, 1)]), gens)
        assert flat.dim == 1 and verify_published_generators(alone)


def test_published_generators_match_the_row_oracle():
    # the four configurations with generators, each with an extra point
    # off them, LINES42 with an extra line, FERMAT_DUAL(3,2) with an extra
    # generator x0^4*x1, which fails only outside the first character
    # block, and FERMAT_DUAL(4,1) at multiplicity 2, whose support the
    # generators still cut out
    line = Flat.from_span([(1, 2, 0, 0), (0, 0, 1, 3)])
    cases = []
    for cid in ("FERMAT_DUAL(3,2)", "FERMAT_DUAL(4,1)", "BMSS_P3", "LINES42"):
        cfg = named_configuration(cid)
        Z = cfg.scheme
        off = Flat.from_point((1, 2, 3, 5)[:Z.ambient + 1])
        cases.append((cfg, True))
        cases.append((NamedConfig(cid, FatScheme(Z.ambient, Z.components + ((off, 1),)),
                                  cfg.published_generators), False))
    lines = named_configuration("LINES42")
    cases.append((NamedConfig("LINES42", FatScheme(3, lines.scheme.components
                                                   + ((line, 1),)),
                              lines.published_generators), False))
    M3 = named_configuration("FERMAT_DUAL(3,2)")
    cases.append((NamedConfig(M3.id, M3.scheme, M3.published_generators
                              + (parse_poly("x0^4*x1", ("x0", "x1", "x2")),)),
                  False))
    M4 = named_configuration("FERMAT_DUAL(4,1)")
    cases.append((NamedConfig(M4.id, FatScheme(2, [(fl, 2) for fl, _ in
                                                   M4.scheme.components]),
                              M4.published_generators), True))
    for cfg, expected in cases:
        assert verify_published_generators(cfg) is expected, cfg.id
        assert all(vanishes_by_rows(g, 0, cfg.scheme)
                   for g in cfg.published_generators) is expected, cfg.id


# -- degree-wise cut-out of Z by the printed generators ---------------------

def _generator_span_dim(cfg, d):
    nvars = cfg.scheme.ambient + 1
    cols = graded_monomials(nvars, d)
    elim = Eliminator(len(cols), cfg.scheme.root_order)
    for g in cfg.published_generators:
        if g.degree() > d:
            continue
        for mono in graded_monomials(nvars, d - g.degree()):
            mult = g * MultiPoly(nvars, {mono: 1})
            elim.add_field_row(sparse_row(mult.coeff_vector(cols)))
    return elim.rank


def _ideal_dim(cfg, d):
    return system_dimension(cfg.scheme, d)


def test_m4_generators_cut_out_z_degreewise():
    cfg = named_configuration("FERMAT_DUAL(4,1)")
    dims = [(_generator_span_dim(cfg, d), _ideal_dim(cfg, d)) for d in range(3, 8)]
    assert dims == [(1, 1), (3, 3), (8, 8), (15, 15), (23, 23)]


def test_m3_generator_list_is_truncated():
    # The printed triple vanishes on Z but spans one dimension less than
    # the ideal in degree 5: the span misses x0*x1*(x0^3+x1^3).
    cfg = named_configuration("FERMAT_DUAL(3,2)")
    assert [( _generator_span_dim(cfg, d), _ideal_dim(cfg, d)) for d in (3, 4, 5)] \
        == [(1, 1), (4, 4), (9, 10)]
    names = ("x0", "x1", "x2")
    from fermatarr.mpoly import parse_poly
    missing = parse_poly("x0*x1*(x0^3+x1^3)", names)
    cols = graded_monomials(3, 5)
    elim = Eliminator(len(cols), cfg.scheme.root_order)
    for g in cfg.published_generators:
        for mono in graded_monomials(3, 5 - g.degree()):
            elim.add_field_row(sparse_row((g * MultiPoly(3, {mono: 1})).coeff_vector(cols)))
    vec = missing.coeff_vector(cols)
    assert elim.add_field_row(sparse_row(vec))  # novel direction
    # yet it lies in the ideal: appending it to the condition rows' kernel test
    rows = condition_rows(cfg.scheme, 5)
    mat_rank = rank_of_field_rows(rows, len(cols), cfg.scheme.root_order)
    assert len(cols) - mat_rank == 10
    for row_cols, vals in rows:
        assert row_dot(vals, [vec[c] for c in row_cols]).is_zero()


# -- conditions counts -------------------------------------------------------

def test_point_specializations_of_conditions_count():
    for N in (2, 3, 4, 5):
        for m in range(1, 5):
            for d in range(m - 1, 11):
                assert conditions_count(N, 0, m, d) == general_point_count(N, m)
    for m in range(1, 6):
        assert general_point_count(2, m) == plane_point_count(m)


def test_line_closed_form_agrees_above_threshold():
    for N in (2, 3, 4):
        for m in range(1, 5):
            for d in range(m - 1, 11):
                assert conditions_count_line(N, m, d) == conditions_count(N, 1, m, d)
    for m in range(1, 5):
        for d in range(m - 1, 11):
            assert conditions_count_line_p3(m, d) == conditions_count(3, 1, m, d)


def test_line_closed_form_divergences_below_threshold():
    divergent = []
    for N in (2, 3, 4):
        for m in range(1, 5):
            for d in range(0, 11):
                if d >= m - 1:
                    continue
                exact = conditions_count(N, 1, m, d)
                try:
                    cf = conditions_count_line(N, m, d)
                except ArithmeticError:
                    cf = None
                if cf != exact:
                    divergent.append((N, m, d, exact, cf))
    assert divergent == [
        (2, 3, 0, 1, 0), (2, 4, 0, 1, -2), (2, 4, 1, 3, 2),
        (3, 3, 0, 1, -2), (3, 4, 0, 1, -10), (3, 4, 1, 4, 0),
        (4, 3, 0, 1, -5), (4, 4, 0, 1, -25), (4, 4, 1, 5, -5),
    ]
    assert conditions_count_line_p3(4, 1) == 0 != conditions_count(3, 1, 4, 1) == 4


def test_conditions_count_validates_inputs():
    with pytest.raises(ValueError):
        conditions_count(3, 3, 2, 5)  # r must stay below N
    with pytest.raises(ValueError):
        conditions_count(3, 1, 0, 5)
    with pytest.raises(ValueError):
        conditions_count(3, 1, 2, -1)


def test_conditions_count_of_a_huge_multiplicity_is_immediate():
    # a point of multiplicity m > d takes every degree-d form: only the
    # terms i <= d are summed, so m = 10**12 costs no more than m = d + 1
    assert conditions_count(2, 0, 10**12, 4) == 15 == conditions_count(2, 0, 5, 4)


# -- condition rows ----------------------------------------------------------

def test_component_rows_are_independent_and_span_the_chart_rows():
    # chart_rows are the jets of normal order < m in coordinates adapted to
    # the flat; component_rows must be conditions_count independent rows
    # with the same span
    rng = random.Random(17)
    cases = [(random_flat(rng, N, r, box=5), m, d)
             for N in (1, 2, 3) for r in range(N)
             for m in (1, 2, 3) for d in range(6)]
    lines = named_configuration("LINES42").scheme.components[:2]
    points = named_configuration("MULT4_POINTS(5)").scheme.components[-2:]
    cases += [(fl, m, d) for fl, _ in lines + points
              for m in (1, 2, 3) for d in range(6)]
    for flat, m, d in cases:
        count = conditions_count(flat.ambient, flat.dim, m, d)
        ncols = len(graded_monomials(flat.ambient + 1, d))
        rows = component_rows(flat, m, d)
        chart = chart_rows(flat, m, d)
        assert len(chart) == count
        assert len(rows) == rank_of_field_rows(rows, ncols, flat.order) == count
        assert rank_of_field_rows(rows + [sparse_row(r) for r in chart], ncols,
                                  flat.order) == count


def test_component_rows_values_are_pinned():
    # rank and span leave the rows themselves free; this pins their values,
    # up to the primitive scaling linalg applies anyway, on random rational
    # flats up to P^4, two LINES42 lines and three cyclotomic points.  The
    # digest reads the rows in graded order, the reverse of the order
    # component_rows returns them in.  The rows through the equations'
    # kernel basis (kernel_basis_rows, whose digest is the one
    # component_rows had when it built its rows that way) differ on every
    # positive-dimensional flat, but their RREF is the same.  On a point,
    # kernel_basis_rows builds the rows through its span vector in
    # primitive integral coordinates, as component_rows did before points
    # took their basis from Eliminator.echelon: the flats' rows with the
    # points' rows built that way keep the digest component_rows had then
    rng = random.Random(29)
    flats = [random_flat(rng, N, r, box=5) for N in range(1, 5) for r in range(N)]
    flats += [fl for fl, _ in named_configuration("LINES42").scheme.components[:2]]
    flats += [fl for fl, _ in
              named_configuration("MULT4_POINTS(5)").scheme.components[-2:]]
    flats.append(next(fl for fl, _ in
                      named_configuration("FERMAT_DUAL(7,1)").scheme.components
                      if fl.order > 1))
    digest, kernel_digest, point_digest = (hashlib.sha256() for _ in range(3))
    for flat in flats:
        for m in range(1, 5):
            for d in range(7):
                rows = component_rows(flat, m, d)[::-1]
                kernel_rows = kernel_basis_rows(flat, m, d)
                ncols = len(graded_monomials(flat.ambient + 1, d))
                assert eliminate(rows, ncols, flat.order).reduced() \
                    == eliminate(kernel_rows, ncols, flat.order).reduced(), (flat, m, d)
                for dig, rs in ((digest, rows), (kernel_digest, kernel_rows),
                                (point_digest, rows if flat.dim else kernel_rows)):
                    for row in rs:
                        dig.update(repr(flat_ints(row, ncols, flat.order)).encode())
                    dig.update(b";")
    assert digest.hexdigest() == \
        "02b638d71d774ea5979c9a6bc15d38c277969f14cdb713273d22b2e7ae960504"
    assert kernel_digest.hexdigest() == \
        "8c2db4e5628133b63286077d26bd5590f07c2d6afe8cf9fd819a311e4036dd5b"
    assert point_digest.hexdigest() == \
        "d6b29590540d9583e9fd122a031a9942cab6aff5a14f51c59286b7cbb180c50b"


def _lead_test_flats():
    """Points, lines and planes for the lead tests: rational and
    cyclotomic points; random rational lines and planes in P^2..P^4,
    generic ones and spans of sparse vectors, whose leads are not 0..r;
    the coordinate flats x0 = x1 = 0 of P^3 and P^4 and the plane x0 = 0,
    x2 = x3 of P^4; and the lines of derived_flats(A(4,0,3), 1, 3), the
    LINES42 lines, of orders 1 and 3."""
    rng = random.Random(43)

    def coordinate(order, zeros=0.3):
        if rng.random() < zeros:
            return 0
        if order == 1:
            return rng.randint(-9, 9)
        return sum((rng.randint(-2, 2) * CyclotomicNumber.root(order, a)
                    for a in range(order)), CyclotomicNumber.zero(order))

    flats = []
    while len(flats) < 60:
        order = rng.choice((1, 1, 3, 4, 5))
        coords = [coordinate(order) for _ in range(rng.randint(2, 5))]
        if any(coords) and (order == 1 or not all(
                c == 0 or c.is_rational() for c in coords)):
            flats.append(Flat.from_point(coords))
    flats += [fl for fl, _ in
              named_configuration("FERMAT_DUAL(5,3)").scheme.components[:10]]
    for N in (2, 3, 4):
        for r in range(1, min(2, N - 1) + 1):
            flats += [random_flat(rng, N, r, box=5) for _ in range(2)]
            sparse = []
            while len(sparse) < 2:
                vecs = [[coordinate(1, 0.6) for _ in range(N + 1)]
                        for _ in range(r + 1)]
                if any(map(any, vecs)):
                    fl = Flat.from_span(vecs)
                    if fl.dim == r:
                        sparse.append(fl)
            flats += sparse
    flats += [Flat.from_equations([(1, 0, 0, 0), (0, 1, 0, 0)]),
              Flat.from_equations([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]),
              Flat.from_equations([(1, 0, 0, 0, 0), (0, 0, 1, -1, 0)])]
    flats += derived_flats(parse_spec("A(4,0,3)"), 1, 3)
    return flats


def _catalogue_points():
    """The points of B3_DUAL, FERMAT_DUAL(5..7, k), MULT4_POINTS(3..6) and
    BMSS_P3, once each: rational ones and cyclotomic ones of orders 3 to
    7, whose first nonzero coordinate is a root of unity or 1."""
    ids = (["B3_DUAL", "BMSS_P3"]
           + [f"FERMAT_DUAL({m},{k})" for m in (5, 6, 7) for k in range(4)]
           + [f"MULT4_POINTS({n})" for n in range(3, 7)])
    return list(dict.fromkeys(fl for cid in ids
                              for fl, _ in named_configuration(cid).scheme.components))


def test_component_rows_have_distinct_leads(monkeypatch):
    # so each row brings a lead no other row of its component has, and the
    # echelon basis of every flat, a point's too, has rational leads, so
    # each e-multiple of a row brings a fresh lead as well: the Eliminator
    # stores every row and e-multiple as its pivot as it stands, with no
    # dense copy made and no pivot applied
    flats = _lead_test_flats()
    assert {fl.order for fl in flats if fl.dim} == {1, 3}
    # the sparse spans and coordinate flats do not lead at 0..r
    assert sum(rref(fl.span_basis(), fl.ambient + 1, fl.order)[0]
               != list(range(fl.dim + 1)) for fl in flats if fl.dim) >= 10
    # eliminated: every rational flat, every point, one in four order-3
    # lines, and the catalogue's points
    lines = [fl for fl in flats if fl.dim and fl.order > 1]
    eliminated = ({fl for fl in flats if fl.order == 1 or not fl.dim}
                  | set(lines[::4]))
    points = _catalogue_points()
    assert {fl.order for fl in points} == {1, 3, 4, 5, 6, 7}

    def refuse(*args):
        raise AssertionError("a row was densified or reduced")
    grid = [(m, d) for m in range(1, 5) for d in range(9)]
    # the catalogue's points on fewer degrees, each multiplicity up to d = 8
    cases = ([(fl, m, d) for fl in flats for m, d in grid]
             + [(fl, m, d) for fl in points
                for m, d in ((1, 8), (2, 5), (3, 8), (4, 3), (4, 8))])
    for fl, m, d in cases:
        rows = component_rows(fl, m, d)  # its echelon basis may apply
        leads = [cols[0] for cols, _ in rows]
        assert len(set(leads)) == len(leads), (fl, m, d)
        if fl in eliminated or fl in points:
            with monkeypatch.context() as patched:
                patched.setattr(linalg, "_apply", refuse)
                patched.setattr(Eliminator, "_dense", refuse)
                elim = Eliminator(len(graded_monomials(fl.ambient + 1, d)), fl.order)
                assert all(elim.add_field_row(row) for row in rows), (fl, m, d)


def test_low_degree_components_kill_everything():
    pt = Flat.from_point(parse_point("(1:1:1)"))
    Z = FatScheme(2, [(pt, 4)])
    assert system_dimension(Z, 2) == 0  # d < m-1
    rows = component_rows(pt, 4, 2)
    assert len(rows) == len(graded_monomials(3, 2))


def test_single_simple_point_imposes_one_condition():
    pt = Flat.from_point(parse_point("(1:2:3)"))
    rows = component_rows(pt, 1, 3)
    assert len(rows) == 1
    assert rank_of_field_rows(rows, len(graded_monomials(3, 3)), 1) == 1


def test_fat_point_conditions_match_count():
    pt = Flat.from_point(parse_point("(1:-2:5)"))
    for m in (2, 3):
        for d in (m, m + 2):
            Z = FatScheme(2, [(pt, m)])
            ncols = len(graded_monomials(3, d))
            assert system_dimension(Z, d) == ncols - conditions_count(2, 0, m, d)


def test_fat_line_conditions_match_count():
    line = Flat.from_span([(1, 0, 0, 0), (0, 1, 0, 0)])
    for m in (1, 2, 3):
        for d in (m + 1, m + 2):
            Z = FatScheme(3, [(line, m)])
            ncols = len(graded_monomials(4, d))
            assert system_dimension(Z, d) == ncols - conditions_count(3, 1, m, d)


def test_rational_rows_are_int_valued_and_match_blowup_oracle():
    # (2:3:5) has span basis (2/5, 3/5, 1): non-unit denominators
    pt = Flat.from_point(parse_point("(2:3:5)"))
    assert any(c.denominator > 1 for v in pt.span_basis()[0] for c in v.coeffs)
    rng = random.Random(7)
    cases = [(2, pt, m, d) for m in (1, 2, 3) for d in range(6)]
    for N in (1, 2, 3):
        for r in range(min(1, N - 1) + 1):
            for m in (1, 2, 3):
                for d in range(6):
                    cases.append((N, random_flat(rng, N, r, box=5), m, d))
    for N, flat, m, d in cases:
        rows = component_rows(flat, m, d)
        assert all(type(v) is int for _, vals in rows for v in vals)
        ncols = len(graded_monomials(N + 1, d))
        rank = rank_of_field_rows(rows, ncols, 1)
        assert rank == field_rank_oracle([dense_row(r, ncols) for r in rows], 1)
        assert len(rows) == rank == conditions_count(N, flat.dim, m, d)


def test_cyclotomic_point_rows_match_blowup_oracle():
    for order in (3, 4, 5, 8):
        e = CyclotomicNumber.root(order)
        one = CyclotomicNumber.one(order)
        for coords in ((one, e, e * e + 2), (e + 1, one * 3, e ** 3 - e),
                       (one, e / 2, one * 0, e + 1)):
            flat = Flat.from_point(coords)
            N = flat.ambient
            for m in (1, 2, 3):
                for d in range(m - 1, 5):
                    rows = component_rows(flat, m, d)
                    # rows of order-0 expansions (d = m-1) hold only ints
                    assert any(isinstance(v, CyclotomicNumber)
                               for _, vals in rows for v in vals) == (d > m - 1)
                    ncols = len(graded_monomials(N + 1, d))
                    rank = rank_of_field_rows(rows, ncols, order)
                    assert rank == field_rank_oracle(
                        [dense_row(r, ncols) for r in rows], order)
                    assert rank == conditions_count(N, 0, m, d)


@pytest.mark.parametrize("cid, d, m, rank", [
    ("B3_DUAL", 4, 3, 14),            # phi = 1, the B3 quartic
    ("MULT4_POINTS(4)", 6, 4, 27),    # phi = 2
    ("MULT4_POINTS(5)", 7, 4, 35),    # phi = 4
    ("FERMAT_DUAL(7,0)", 7, 4, 30),   # phi = 6, 31 rows of rank 30
])
def test_configuration_with_fat_point_matches_blowup_oracle(cid, d, m, rank):
    # one realistic-size system per phi, up to 36 columns and 38 rows
    cfg = named_configuration(cid)
    point = random_flat(random.Random(5), 2, 0)
    rows = condition_rows(cfg.scheme, d) + component_rows(point, m, d)
    ncols = len(graded_monomials(3, d))
    order = cfg.scheme.root_order
    assert rank_of_field_rows(rows, ncols, order) \
        == field_rank_oracle([dense_row(r, ncols) for r in rows], order) == rank


# -- scheme construction and the file format ---------------------------------

def test_one_coercion_rule_gives_flat_point_and_root_orders():
    # e(6)^3 = -1: a point with rational coordinates has order 1 throughout
    rational = parse_point("(1 : e(6)^3 : 2)")
    assert {c.order for c in rational} == {1}
    assert Flat.from_point(rational).order == 1
    Z = parse_scheme("ambient 2\n"
                     "point (1 : e(3) : e(3)^2) mult 2\n"
                     "point (1 : e(4) : 0) mult 1\n"
                     "point (1 : e(6)^3 : 2) mult 1\n"
                     "flat { eq: x0 - e(12)*x1 } mult 1\n")
    assert [fl.order for fl, _ in Z.components] == [3, 4, 1, 12]
    assert Z.root_order == 12
    assert hilbert_function(Z, 5) == [1, 3, 6, 9, 10, 11]
    points = derived_flats(fermat_arrangement(2, 4, -1), 0, 2)
    orders = {fl.order for fl in points}
    assert orders == {1, 4}
    for fl in points:
        coords = fl.point()
        is_rational = all(c.is_rational() for c in coords)
        assert {c.order for c in coords} == {fl.order} == {1 if is_rational else 4}


def test_scheme_validation():
    pt = Flat.from_point(parse_point("(1:2:3)"))
    with pytest.raises(ValueError):
        FatScheme(2, [(pt, 0)])
    with pytest.raises(ValueError):
        FatScheme(2, [(pt, 1), (pt, 2)])
    with pytest.raises(ValueError):
        FatScheme(3, [(pt, 1)])
    with pytest.raises(TypeError):
        FatScheme(2, [("(1:2:3)", 1)])
    for ambient in (0, -1):
        with pytest.raises(ValueError, match="ambient dimension"):
            FatScheme(ambient, [])


def test_scheme_text_round_trip():
    line = Flat.from_span([(1, 0, 0, 1), (0, 1, 0, 0)])
    pt = Flat.from_point(parse_point("(1:0:-1:2)"))
    Z = FatScheme(3, [(pt, 3), (line, 2)])
    text = format_scheme(Z)
    again = parse_scheme(text)
    assert again.ambient == 3
    assert again.components == Z.components
    assert format_scheme(again) == text


def test_scheme_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="scheme line 2"):
        parse_scheme("ambient 2\npoint (0:0:0) mult 1\n")
    with pytest.raises(ValueError, match="scheme line 1"):
        parse_scheme("flat { eq: x0 } mult 1\n")
    with pytest.raises(ValueError):
        parse_scheme("")
    for text in ("ambient 2\nblob (1:2:3) mult 1\n",
                 "ambient 2\npointfoo (1:2:3) mult 1\n",
                 "ambient 2\nflatx { eq: x0 } mult 1\n"):
        with pytest.raises(ValueError, match="scheme line 2: unknown line kind"):
            parse_scheme(text)
    assert len(parse_scheme("ambient 2\npoint(1:2:3) mult 1\n")) == 1
    with pytest.raises(ValueError, match="scheme line 1: expected 'ambient N'"):
        parse_scheme("ambient\npoint (1:2:3) mult 1\n")
    with pytest.raises(ValueError, match="scheme line 2: .*'mult M'"):
        parse_scheme("ambient 2\npoint (1:2:3)\n")
    with pytest.raises(ValueError, match="^scheme line 2: bad multiplicity 'x 1'"):
        parse_scheme("ambient 2\npoint (1:2:3) multx 1\n")
    for text in ("ambient 0\n", "ambient -1\npoint (1:2:3) mult 1\n"):
        with pytest.raises(ValueError, match="scheme line 1"):
            parse_scheme(text)
    for text, message in (
            ("ambient 2\npoint (1:2:3:4) mult 1\n",
             "scheme line 2: component ambient mismatch"),
            ("ambient 2\npoint (1:2:3) mult 1\npoint (2:4:6) mult 1\n",
             "scheme line 3: flats must be mutually distinct"),
            ("ambient 2\npoint (1:2:3) mult 0\n",
             "scheme line 2: multiplicities must be >= 1"),
            ("point (1:2:3) mult 1\nambient 3\n",
             "scheme line 2: component ambient mismatch")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_scheme(text)


def test_scheme_parse_ignores_comments_and_blanks():
    Z = parse_scheme("# header\n\nambient 2\npoint (1:2:3) mult 2\n")
    assert len(Z) == 1 and Z.components[0][1] == 2
