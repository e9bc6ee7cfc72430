"""The benchmark's three workloads: fixed item lists whose inputs and order
come from a seed, each item paired with the exact value it must produce.

Expected values never come from the code under test.  They are the
acceptance module's constants, the frozen Hilbert functions of the unit
tests, the conditions-count closed form (restated below), the paper's
point counts (3m+k dual points impose independent conditions in degree
m+2) and the paper's multiplicities (m+1 for GEN(m), 4 for MULT4(n)).

Functions of the library are looked up on their module at call time
(`scheme.component_rows`, not a name bound at import), so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable

from fermatarr import formulas, interp, linalg, scheme

RANK_GRID_MAX_DEGREE = 6
RANK_GRID_BOX = 5
RANK_GRID_FLATS = 2
# phi(m) = 4, 2, 6, 4, 10: every phi of the orders up to 12; the other orders
# are left out so that a pass stays near seven seconds
GEN_ORDERS = (5, 6, 7, 8, 11)
MULT4_ORDERS = (3, 4, 5)


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], object]
    expected: object


def conditions_closed_form(N: int, r: int, m: int, d: int) -> int:
    """Conditions imposed by a multiplicity-m linear r-flat on degree-d
    forms of P^N: all C(N+d, N) when d < m-1, otherwise the sum over the
    normal derivative orders i < m of C(d-i+r, r) * C(N-r-1+i, i)."""
    if d < m - 1:
        return comb(N + d, N)
    return sum(comb(d - i + r, r) * comb(N - r - 1 + i, i) for i in range(m))


def _rank_item(N: int, r: int, m: int, d: int, k: int, flat) -> Item:
    def run():
        rows = scheme.component_rows(flat, m, d)
        return linalg.rank_of_field_rows(rows, comb(N + d, N), 1)
    return Item(f"rank N={N} r={r} m={m} d={d} flat {k}", run,
                conditions_closed_form(N, r, m, d))


def rank_grid_q(rng: random.Random) -> list[Item]:
    """Criterion-10 grid over Q, cut at degree RANK_GRID_MAX_DEGREE:
    RANK_GRID_FLATS random flats per (N, r, m, d), drawn here so the
    program only sees the drawn flats.  Two flats rather than one make the
    largest items twice as many, so that item_tail_s depends less on the
    coefficients of the few flats a seed draws for them."""
    items = []
    for N in (2, 3, 4):
        for r in range(min(2, N - 1) + 1):
            for m in range(1, 5):
                for d in range(RANK_GRID_MAX_DEGREE + 1):
                    for k in range(RANK_GRID_FLATS):
                        flat = interp.random_flat(rng, N, r,
                                                  box=RANK_GRID_BOX)
                        items.append(_rank_item(N, r, m, d, k, flat))
    return items


def _config(cid: str):
    return scheme.named_configuration(cid).scheme


def _dimension(cid: str, d: int, want: int) -> Item:
    return Item(f"dimension {cid} d={d}",
                lambda: interp.system_dimension(_config(cid), d), want)


def _hilbert(cid: str, want: list[int]) -> Item:
    d_max = len(want) - 1
    return Item(f"hilbert {cid} d<={d_max}",
                lambda: interp.hilbert_function(_config(cid), d_max), want)


def _decide(cid: str, template, d: int, seed: int, fields: tuple[str, ...],
            want: tuple) -> Item:
    def run():
        rep = interp.decide_unexpected(_config(cid), template, d,
                                       trials=1, seed=seed)
        return tuple(getattr(rep, f) for f in fields)
    return Item(f"decide {cid} {list(template)} d={d}", run, want)


def catalogue_decide(rng: random.Random) -> list[Item]:
    """Dimensions, Hilbert functions and unexpectedness decisions over the
    catalogue; the order-5 MULT4 decision carries the phi = 4 work."""
    def seed():
        return rng.randrange(2**31)

    ea = ("expected", "actual", "unexpected")
    au = ("actual", "unexpected")
    items = [
        _dimension("B3_DUAL", 4, 6),
        _hilbert("B3_DUAL", [1, 3, 6, 9, 9]),
        _decide("B3_DUAL", [(0, 3)], 4, seed(), ea, (0, 1, True)),
        _dimension("FERMAT_DUAL(3,2)", 5, 10),
        _hilbert("FERMAT_DUAL(3,2)", [1, 3, 6, 9, 11, 11]),
        _decide("FERMAT_DUAL(3,2)", [(0, 4)], 5, seed(), ea, (0, 1, True)),
        _dimension("FERMAT_DUAL(4,1)", 6, 15),
        _hilbert("FERMAT_DUAL(4,1)", [1, 3, 6, 9, 12, 13, 13]),
        _decide("FERMAT_DUAL(4,1)", [(0, 5)], 6, seed(), ea, (0, 1, True)),
        _decide("FERMAT_DUAL(6,0)", [(0, 7)], 8, seed(), ea, (0, 1, True)),
        _decide("BMSS_P3", [(0, 3)], 4, seed(), au, (1, True)),
        _dimension("LINES42", 8, 6),
    ]
    # the 3m+k dual points impose independent conditions in degree m+2
    for m in (5, 6, 7):
        for k in range(4):
            items.append(_dimension(f"FERMAT_DUAL({m},{k})", m + 2,
                                    comb(m + 4, 2) - (3 * m + k)))
    for n in (3, 4, 5, 6):
        items.append(_decide(f"MULT4_POINTS({n})", [(0, 4)], n + 2, seed(),
                             au, (1, True)))
    return items


def _multiplicity(family: str, mult: int) -> Item:
    def run():
        form = formulas.build_formula(family)
        return formulas.symbolic_multiplicity_at_general(form)
    return Item(f"multiplicity {family}", run, (mult, True))


def _published(cid: str) -> Item:
    def run():
        return scheme.verify_published_generators(
            scheme.named_configuration(cid))
    return Item(f"published generators {cid}", run, True)


def _same_up_to_scalar(fam_a: str, fam_b: str) -> Item:
    def run():
        return formulas.equal_up_to_scalar(formulas.build_formula(fam_a).poly,
                                           formulas.build_formula(fam_b).poly)
    return Item(f"equal up to scalar {fam_a} {fam_b}", run, True)


def _certify(family: str, cid: str, seed: int) -> Item:
    def run():
        form = formulas.build_formula(family)
        cfg = scheme.named_configuration(cid)
        return (formulas.symbolic_vanishing_on_Z(form, config=cfg),
                formulas.specialized_kernel_membership(form, config=cfg,
                                                       seed=seed))
    return Item(f"certify {family} on {cid}", run, (True, True))


def family_certify(rng: random.Random) -> list[Item]:
    """Symbolic checks of every closed-form family; no elimination."""
    def seed():
        return rng.randrange(2**31)

    fixed = (("B3", "B3_DUAL", 3), ("M3", "FERMAT_DUAL(3,2)", 4),
             ("M4", "FERMAT_DUAL(4,1)", 5), ("BMSS", "BMSS_P3", 3))
    items = []
    for family, cid, mult in fixed:
        items.append(_multiplicity(family, mult))
        items.append(_certify(family, cid, seed()))
    for m in GEN_ORDERS:
        family = f"GEN({m})"
        items.append(_multiplicity(family, m + 1))
        # every k up to order 6; one k per order above, cycling through 0..3
        for k in (range(4) if m <= 6 else (m % 4,)):
            items.append(_certify(family, f"FERMAT_DUAL({m},{k})", seed()))
    for n in MULT4_ORDERS:
        family = f"MULT4({n})"
        items.append(_multiplicity(family, 4))
        items.append(_certify(family, f"MULT4_POINTS({n})", seed()))
    items.append(Item("fat ideal MULT4(3)",
                      lambda: formulas.membership_in_fat_ideal(3), True))
    items.append(_same_up_to_scalar("GEN(4)", "M4"))
    items.append(_published("BMSS_P3"))
    items.append(_published("LINES42"))
    return items


WORKLOADS = {
    "rank_grid_q": rank_grid_q,
    "catalogue_decide": catalogue_decide,
    "family_certify": family_certify,
}


def build(workload: str, seed: int) -> list[Item]:
    """The workload's items in the order the seed fixes."""
    rng = random.Random(f"{workload}:{seed}")
    items = WORKLOADS[workload](rng)
    rng.shuffle(items)
    return items
