"""End-to-end acceptance: the eleven headline results, one line per item.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
and elapsed time of every criterion.  All comparisons are exact.
"""

import random
import time
from contextlib import contextmanager

from helpers import (condition_rows, conditions_count_line,
                     conditions_count_line_p3, lattice_membership, rank_kernel)

from fermatarr import (
    build_formula,
    decide_unexpected,
    dual_points,
    equal_up_to_scalar,
    fermat_arrangement,
    membership_in_fat_ideal,
    monomial_group,
    named_configuration,
    parse_point,
    reflections_of,
    symbolic_multiplicity_at_general,
    symbolic_vanishing_on_Z,
    system_dimension,
    verify_published_generators,
)
from fermatarr.arrange import Flat, GroupElement
from fermatarr.cyclo import CyclotomicNumber
from fermatarr.formulas import fermat_family_curve, specialized_kernel_membership
from fermatarr.interp import random_flat
from fermatarr.linalg import rank_of_field_rows, row_dot
from fermatarr.mpoly import MultiPoly, graded_monomials
from fermatarr.scheme import component_rows, conditions_count


@contextmanager
def report(num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:>2}: FAIL  {time.perf_counter() - t0:6.1f}s  {label}",
              flush=True)
        raise
    print(f"criterion {num:>2}: PASS  {time.perf_counter() - t0:6.1f}s  {label}",
          flush=True)


BRAID_MATRICES = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
)

B3_DUAL_TABLE = (
    "(1:0:0)", "(0:1:0)", "(0:0:1)",
    "(1:1:0)", "(1:-1:0)", "(1:0:1)",
    "(1:0:-1)", "(0:1:1)", "(0:1:-1)",
)


def test_criterion_01_braid_and_b3_structure():
    with report(1, "braid matrices, B3 reflection lines, dual point table"):
        want = {GroupElement(m) for m in BRAID_MATRICES}
        assert set(monomial_group(1, 1, 3)) == want

        braid = fermat_arrangement(2, 1, -1)
        assert len(braid) == 3
        member, count = lattice_membership(
            braid, Flat.from_point(parse_point("(1:1:1)")))
        assert member and count == 3

        b3 = fermat_arrangement(2, 2, 2)
        assert set(reflections_of(monomial_group(2, 1, 3))) == set(b3.hyperplanes)
        assert set(dual_points(b3)) == {parse_point(s) for s in B3_DUAL_TABLE}


def test_criterion_02_b3_unexpected_quartic():
    with report(2, "B3 quartic: dimension 6, actual 1, symbolic in (a,b,c)"):
        Z = named_configuration("B3_DUAL").scheme
        assert system_dimension(Z, 4) == 6
        r = decide_unexpected(Z, [(0, 3)], 4, trials=3, seed=0)
        assert (r.expected, r.actual, r.unexpected) == (0, 1, True)
        form = build_formula("B3")
        assert symbolic_vanishing_on_Z(form)
        assert symbolic_multiplicity_at_general(form) == (3, True)
        assert specialized_kernel_membership(form, seed=2)


def test_criterion_03_quintic_m3():
    with report(3, "m=3 quintic: dimension 10, actual 1, display verified"):
        Z = named_configuration("FERMAT_DUAL(3,2)").scheme
        assert system_dimension(Z, 5) == 10
        r = decide_unexpected(Z, [(0, 4)], 5, trials=3, seed=0)
        assert (r.expected, r.actual, r.unexpected) == (0, 1, True)
        form = build_formula("M3")
        assert symbolic_vanishing_on_Z(form)
        assert symbolic_multiplicity_at_general(form) == (4, True)
        assert specialized_kernel_membership(form, seed=2)


def test_criterion_04_sextic_m4():
    with report(4, "m=4 sextic: dimension 15, actual 1, GEN(4) matches"):
        Z = named_configuration("FERMAT_DUAL(4,1)").scheme
        assert system_dimension(Z, 6) == 15
        r = decide_unexpected(Z, [(0, 5)], 6, trials=3, seed=0)
        assert r.actual == 1 and r.unexpected
        form = build_formula("M4")
        assert symbolic_vanishing_on_Z(form)
        assert symbolic_multiplicity_at_general(form) == (5, True)
        assert specialized_kernel_membership(form, seed=2)
        assert equal_up_to_scalar(fermat_family_curve(4).poly, form.poly)


def test_criterion_05_general_family():
    with report(5, "GEN(m) m=5,6,7: every k, certified mult m+1, in kernel"):
        for m in (5, 6, 7):
            form = fermat_family_curve(m)
            assert form.degree == m + 2
            assert symbolic_multiplicity_at_general(form) == (m + 1, True)
            for k in (0, 1, 2, 3):
                cfg = named_configuration(f"FERMAT_DUAL({m},{k})")
                assert symbolic_vanishing_on_Z(form, config=cfg)
                assert specialized_kernel_membership(form, config=cfg, seed=1)


def test_criterion_06_bmss_surface():
    with report(6, "BMSS: generators, symbolic mult 3, actual 1, (0:0:1:1)"):
        cfg = named_configuration("BMSS_P3")
        assert len(cfg.scheme) == 31
        assert verify_published_generators(cfg)
        form = build_formula("BMSS")
        assert symbolic_vanishing_on_Z(form)
        assert symbolic_multiplicity_at_general(form) == (3, True)
        assert specialized_kernel_membership(form, seed=2)
        r = decide_unexpected(cfg.scheme, [(0, 3)], 4, trials=2, seed=0)
        assert r.unexpected and r.actual == 1

        arr = fermat_arrangement(3, 3, 3)
        probe = parse_point("(0:0:1:1)")
        member, _ = lattice_membership(arr, Flat.from_point(probe))
        assert member
        assert probe not in {fl.point() for fl, _ in cfg.scheme.components}


def test_criterion_07_p5_multipoint():
    with report(7, "P5: 249 points, d=4, actual 1 above expected"):
        Z = named_configuration("P5_MULTI").scheme
        assert len(Z) == 249
        r = decide_unexpected(Z, [(0, 3), (0, 2)], 4, trials=2, seed=0)
        assert r.actual == 1 > r.expected
        assert r.unexpected


def test_criterion_08_multiplicity_4_family():
    with report(8, "MULT4 n=3,4,5: vanishing, mult 4, I(4P), unexpected"):
        for n in (3, 4, 5):
            cfg = named_configuration(f"MULT4_POINTS({n})")
            assert len(cfg.scheme) == n * n + 3
            form = build_formula(f"MULT4({n})")
            assert symbolic_vanishing_on_Z(form)
            assert symbolic_multiplicity_at_general(form) == (4, True)
            assert membership_in_fat_ideal(n)
            r = decide_unexpected(cfg.scheme, [(0, 4)], n + 2, trials=2, seed=0)
            assert r.unexpected and r.actual == 1


def test_criterion_09_42_lines():
    with report(9, "42 lines: dims 6/20, line gives 10 vs 12, Observation"):
        cfg = named_configuration("LINES42")
        assert len(cfg.scheme) == 42
        assert len(cfg.published_generators) == 6
        assert verify_published_generators(cfg)
        assert system_dimension(cfg.scheme, 8) == 6
        assert system_dimension(cfg.scheme, 9) == 20
        r1 = decide_unexpected(cfg.scheme, [(1, 1)], 9, trials=2, seed=0)
        assert (r1.expected, r1.actual) == (10, 12)
        assert r1.unexpected  # the Observation instance m = 1
        r2 = decide_unexpected(cfg.scheme, [(1, 2)], 10, trials=2, seed=0)
        assert (r2.dim_Z, r2.conditions_X, r2.expected) == (44, 31, 13)
        assert r2.unexpected  # m = 2; computed actual below
        assert r2.actual == 18


def test_criterion_10_conditions_count_oracle():
    with report(10, "conditions count vs brute-force rank, full grid"):
        rng = random.Random(2024)
        for N in (2, 3, 4):
            for r in range(0, min(2, N - 1) + 1):
                for m in range(1, 5):
                    for d in range(0, 11):
                        fl = random_flat(rng, N, r, box=5)
                        rows = component_rows(fl, m, d)
                        ncols = len(graded_monomials(N + 1, d))
                        rank = rank_of_field_rows(rows, ncols, 1)
                        assert len(rows) == rank == conditions_count(N, r, m, d), \
                            (N, r, m, d)

        # the specialized closed forms disagree with the exact count below
        # the d >= m-1 threshold; report every instance on the same grid
        divergent = []
        for N in (2, 3, 4):
            for m in range(1, 5):
                for d in range(0, 11):
                    exact = conditions_count(N, 1, m, d)
                    try:
                        cf = conditions_count_line(N, m, d)
                    except ArithmeticError:
                        cf = None
                    if cf != exact:
                        divergent.append((N, m, d, exact, cf))
        for m in range(1, 5):
            for d in range(0, 11):
                exact = conditions_count(3, 1, m, d)
                cf = conditions_count_line_p3(m, d)
                if cf != exact:
                    divergent.append(("p3", m, d, exact, cf))
        assert all(item[2] < item[1] - 1 for item in divergent)
        print(f"closed-form line count divergences (all at d < m-1): "
              f"{len(divergent)} instances", flush=True)
        for item in divergent:
            print(f"  {item}", flush=True)


def test_criterion_11_property_suites():
    with report(11, "field axioms, Euler/Leibniz, kernel soundness"):
        rng = random.Random(11)

        def draw(order, phi):
            from fractions import Fraction
            return CyclotomicNumber(order, [Fraction(rng.randint(-9, 9),
                                                     rng.randint(1, 9))
                                            for _ in range(phi)])

        from fermatarr.cyclo import euler_phi
        for order in range(1, 7):
            phi = euler_phi(order)
            for _ in range(1000):
                a, b, c = (draw(order, phi) for _ in range(3))
                assert (a + b) + c == a + (b + c)
                assert a * b == b * a
                assert a * (b + c) == a * b + a * c
                assert (a + b) - b == a
                if not b.is_zero():
                    assert (a / b) * b == a

        for _ in range(200):
            nvars = rng.randint(2, 4)
            deg = rng.randint(1, 5)
            terms = {}
            for mono in graded_monomials(nvars, deg):
                if rng.random() < 0.4:
                    terms[mono] = rng.randint(-9, 9)
            p = MultiPoly(nvars, terms)
            euler = MultiPoly.zero(nvars)
            for i in range(nvars):
                euler = euler + MultiPoly.variable(i, nvars) * p.partial(i)
            assert euler == p * deg
            q = MultiPoly.variable(rng.randrange(nvars), nvars) + 1
            i = rng.randrange(nvars)
            assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)

        for cid, d in (("B3_DUAL", 4), ("FERMAT_DUAL(3,2)", 5),
                       ("MULT4_POINTS(3)", 5), ("BMSS_P3", 4)):
            Z = named_configuration(cid).scheme
            rows = condition_rows(Z, d)
            rank, kernel = rank_kernel(Z, d)
            monos = graded_monomials(Z.ambient + 1, d)
            assert len(kernel) == len(monos) - rank
            for poly in kernel:
                vec = poly.coeff_vector(monos)
                for cols, vals in rows:
                    assert row_dot(vals, [vec[c] for c in cols]).is_zero()
