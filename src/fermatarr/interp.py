"""Dimensions of linear systems with fat base schemes, and the
unexpectedness decision for general points and flats.

General position is realized by seeded random rational specialization:
by semicontinuity the generic dimension is the minimum over random
trials, which is reported together with the trial metadata.  Certified
verdicts come only from the symbolic witnesses in the formulas module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arrange import Flat
from .scheme import (ConditionMatrix, FatScheme, check_budget, component_rows,
                     conditions_count, plane_point_count)

DEFAULT_BOX = 10_000
_MAX_REDRAWS = 25


class DegenerateDrawError(RuntimeError):
    """Raised when random draws keep producing degenerate flats."""


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
    return [ConditionMatrix.from_scheme(Z, d).eliminator().rank
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
