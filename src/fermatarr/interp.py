"""Dimensions of linear systems with fat base schemes, and the
unexpectedness decision for general points and flats.

General position is realized by seeded random rational specialization:
by semicontinuity the generic dimension is the minimum over random
trials, which is reported together with the trial metadata.  Certified
verdicts come only from the symbolic witnesses in the formulas module.

A ConditionMatrix holds the degree-d conditions of a scheme in the
character blocks of its diagonal roots-of-unity symmetries; it gives the
rank, RREF and kernel of the full matrix, and membership in (I_Z)_d.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .arrange import BudgetError, Flat
from .cyclo import CyclotomicNumber, euler_phi
from .linalg import Eliminator, row_dot
from .mpoly import graded_monomials
from .scheme import (FatScheme, component_rows, conditions_count,
                     plane_point_count)

DEFAULT_BOX = 10_000
_MAX_REDRAWS = 25

# The one bound on the size of an elimination, checked before any row is
# built: at most MATRIX_BUDGET monomial columns C(N+d, N), and at most
# MATRIX_BUDGET rational entries rows x columns x phi, over every trial of
# a decision.  The largest matrices of the test suite and the benchmark
# hold under 10**6 entries.  arrange.FLAT_BUDGET is its sibling for the
# flats an arrangement id builds.
MATRIX_BUDGET = 10**8


class DegenerateDrawError(RuntimeError):
    """Raised when random draws keep producing degenerate flats."""


def check_budget(Z: FatScheme, d: int, extra_rows: int = 0,
                 trials: int = 1) -> None:
    """Refuse the degree-d condition matrix of Z, with extra_rows more
    rows, or trials such matrices, if they exceed MATRIX_BUDGET; the sizes
    are counted, not built."""
    N = Z.ambient
    ncols = comb(N + d, N)
    nrows = extra_rows + sum(conditions_count(N, flat.dim, m, d)
                             for flat, m in Z.components)
    phi = euler_phi(Z.root_order)
    if max(ncols, trials * nrows * ncols * phi) > MATRIX_BUDGET:
        each = f"{trials} trials x " if trials > 1 else ""
        raise BudgetError(
            f"degree {d} on P^{N} needs {each}{nrows} rows x {ncols} columns "
            f"x phi {phi}, over the matrix budget MATRIX_BUDGET = "
            f"{MATRIX_BUDGET} (columns, and {each and 'trials x '}rows x "
            f"columns x phi)")


def _key(rows) -> tuple:
    """An exact key of equation rows whose entries share one order."""
    return tuple((c.num, c.den) for row in rows for c in row)


def _symmetry(Z: FatScheme):
    """(gens, reps): the coordinates i in 1..N whose generator g_i =
    diag(1, ..., e(n) at i, ..., 1), n = Z.root_order, maps the components
    of Z to themselves with their multiplicities, and one component per
    orbit of the group they generate, the first of each in Z's order.

    g_i moves a flat through its equations: a row r becomes r_j * s_lead
    / s_j for the diagonal s of g_i.  The zero pattern stays, and so does
    each lead 1, so the rows are still the canonical RREF of the image,
    looked up by its exact key at order n.  A scheme of root order 1 has
    only the trivial group."""
    comps, n = Z.components, Z.root_order
    if n == 1:
        return (), comps
    w, w_inv = CyclotomicNumber.root(n), CyclotomicNumber.root(n, -1)
    lifted = [[[c.lift(n) for c in row] for row in flat.equations]
              for flat, _ in comps]
    index = {_key(rows): k for k, rows in enumerate(lifted)}
    gens, perms = [], []
    for i in range(1, Z.ambient + 1):
        perm = []
        for rows, (_, mult) in zip(lifted, comps):
            image = []
            for row in rows:
                if next(j for j, c in enumerate(row) if c) == i:
                    row = [c * w if c and j != i else c
                           for j, c in enumerate(row)]
                elif row[i]:
                    row = row[:i] + [row[i] * w_inv] + row[i + 1:]
                image.append(row)
            k = index.get(_key(image))
            if k is None or comps[k][1] != mult:
                break
            perm.append(k)
        else:
            gens.append(i)
            perms.append(perm)
    seen = [False] * len(comps)
    reps = []
    for start in range(len(comps)):
        if seen[start]:
            continue
        reps.append(comps[start])
        seen[start] = True
        stack = [start]
        while stack:
            k = stack.pop()
            for perm in perms:
                if not seen[perm[k]]:
                    seen[perm[k]] = True
                    stack.append(perm[k])
    return tuple(gens), tuple(reps)


@dataclass(frozen=True)
class ConditionMatrix:
    """The degree-d conditions of a fat scheme Z: ncols monomial columns in
    graded lex order, split into blocks by character, and the rows over
    Q(e_order) of one component per orbit of _symmetry(Z).

    (I_Z)_d is stable under the group G of the generators, so it is the
    direct sum of its parts in the character blocks: the spans of the
    monomials x^beta with one key (beta_i mod n over the generators i).
    For f in a block, g*f is a multiple of f, so f vanishes to order m at
    g*p exactly when it does at p: each block needs only the rows of the
    representatives, restricted to its columns.  So the joined block
    pivots span the row space of the full condition matrix, with the same
    rank, canonical RREF and kernel, and a form lies in (I_Z)_d exactly
    when the rows annihilate each of its block parts."""

    ncols: int
    order: int
    blocks: list
    rows: list

    @classmethod
    def from_scheme(cls, Z: FatScheme, d: int, symmetry=None) -> "ConditionMatrix":
        """Refused over MATRIX_BUDGET before any row is built; symmetry,
        when given, is _symmetry(Z), which hilbert_function computes once."""
        check_budget(Z, d)
        gens, reps = _symmetry(Z) if symmetry is None else symmetry
        N, order = Z.ambient, Z.root_order
        blocks: dict[tuple, list] = {}
        for col, beta in enumerate(graded_monomials(N + 1, d)):
            blocks.setdefault(tuple(beta[i] % order for i in gens), []).append(col)
        rows = [row for flat, mult in reps for row in component_rows(flat, mult, d)]
        return cls(comb(N + d, N), order, list(blocks.values()), rows)

    def eliminator(self) -> Eliminator:
        """One Eliminator per block, fed each row's block part, joined."""
        parts = [(Eliminator(len(cols), self.order), cols) for cols in self.blocks]
        for row in self.rows:
            for elim, cols in parts:
                if elim.rank < elim.ncols:  # a full block takes no more rows
                    part = [row[c] for c in cols]
                    if any(part):
                        elim.add_field_row(part)
        return Eliminator.join(parts, self.ncols, self.order)

    def contains(self, vec) -> bool:
        """Whether the form with coefficient vector vec lies in (I_Z)_d: the
        rows annihilate each block part of vec, dotted over its support."""
        supports = [[c for c in cols if vec[c]] for cols in self.blocks]
        return all(row_dot([row[c] for c in cols], [vec[c] for c in cols]).is_zero()
                   for cols in supports if cols for row in self.rows)


def system_dimension(Z: FatScheme, d: int) -> int:
    """Vector-space dimension of degree-d forms vanishing on Z with
    multiplicities."""
    elim = ConditionMatrix.from_scheme(Z, d).eliminator()
    return elim.ncols - elim.rank


def hilbert_function(Z: FatScheme, d_max: int) -> list:
    """Conditions actually imposed (rank) in each degree 0..d_max."""
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    check_budget(Z, d_max)  # the largest of the matrices, refused up front
    symmetry = _symmetry(Z)
    return [ConditionMatrix.from_scheme(Z, d, symmetry).eliminator().rank
            for d in range(d_max + 1)]


@dataclass(frozen=True)
class UnexpectednessReport:
    degree: int
    dim_Z: int
    conditions_X: int
    expected: int
    actual: int
    unexpected: bool
    trials: int
    seed: int
    trial_values: tuple
    conditions_X_alt: int | None = None
    certified: bool = False

    def as_dict(self) -> dict:
        out = {
            "degree": self.degree,
            "dim_Z": self.dim_Z,
            "conditions_X": self.conditions_X,
            "expected": self.expected,
            "actual": self.actual,
            "unexpected": self.unexpected,
            "trials": self.trials,
            "seed": self.seed,
            "trial_values": list(self.trial_values),
            "certified": self.certified,
        }
        if self.conditions_X_alt is not None:
            out["conditions_X_alt"] = self.conditions_X_alt
        return out


def random_flat(rng: random.Random, ambient: int, dim: int,
                box: int = DEFAULT_BOX) -> Flat:
    """A random flat as the span of dim+1 integer vectors from the box,
    redrawn while the span is rank deficient."""
    for _ in range(_MAX_REDRAWS):
        vecs = [[rng.randint(-box, box) for _ in range(ambient + 1)]
                for _ in range(dim + 1)]
        try:
            fl = Flat.from_span(vecs)
        except ValueError:
            continue
        if fl.dim == dim:
            return fl
    raise DegenerateDrawError(
        f"no nondegenerate {dim}-flat in P^{ambient} after {_MAX_REDRAWS} draws")


def decide_unexpected(Z: FatScheme, X_template, d: int, trials: int = 3,
                      seed: int = 0) -> UnexpectednessReport:
    """Decide whether Z admits an unexpected degree-d hypersurface with
    respect to random general flats drawn from the template.

    X_template lists (flat_dim, multiplicity) pairs.  Each trial draws an
    independent random flat per entry; actual is the minimum of
    system_dimension(Z + X, d) over trials.  expected subtracts one
    conditions_count per entry from dim_Z; when every entry is a point
    and the plane-style count sum(C(m+1, 2)) differs from that, the
    alternative is reported alongside, not used.  check_budget counts
    each trial as one condition matrix of Z and X, so the trials are
    bounded by MATRIX_BUDGET before any row is built.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    template = [(int(r), int(m)) for r, m in X_template]
    N = Z.ambient
    for r, m in template:
        if not 0 <= r <= N - 1:
            raise ValueError("template flat dimension out of range")
        if m < 1:
            raise ValueError("template multiplicity must be >= 1")

    conditions_X = sum(conditions_count(N, r, m, d) for r, m in template)
    check_budget(Z, d, conditions_X, trials)
    base = ConditionMatrix.from_scheme(Z, d).eliminator()
    dim_Z = base.ncols - base.rank

    alt = None
    if template and all(r == 0 for r, _ in template):
        plane_style = sum(plane_point_count(m) for _, m in template)
        if plane_style != conditions_X:
            alt = plane_style
    expected = max(dim_Z - conditions_X, 0)

    rng = random.Random(seed)
    values = []
    for _ in range(trials):
        elim = base.clone()
        for r, m in template:
            fl = random_flat(rng, N, r)
            for row in component_rows(fl, m, d):
                elim.add_field_row(row)
        values.append(elim.ncols - elim.rank)
    actual = min(values)

    return UnexpectednessReport(
        degree=d, dim_Z=dim_Z, conditions_X=conditions_X,
        expected=expected, actual=actual, unexpected=actual > expected,
        trials=trials, seed=seed, trial_values=tuple(values),
        conditions_X_alt=alt)
