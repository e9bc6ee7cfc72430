"""Outside-in spans and counters around the public functions of each
fermatarr layer.  Only a traced pass (worker.py --trace) imports this.

A span wraps one function where its callers look it up.  It records
calls, busy time (wall time while the span is open, counted at its
outermost occurrence) and self time (busy time minus the spans it
opened).  Layer totals follow the same rule per layer, so a layer's busy
time never counts a nested call of the same layer twice.  The hottest
functions get counters only, because a span there would cost more than
the work it measures.  Everything stays in memory until take().
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import wraps

from fermatarr import arrange, cyclo, formulas, interp, linalg, mpoly, scheme

# span name -> every (owner, attribute) through which callers reach it
SPANS = {
    "scheme.component_rows": [(scheme, "component_rows"),
                              (interp, "component_rows"),
                              (formulas, "component_rows")],
    "scheme.named_configuration": [(scheme, "named_configuration"),
                                   (formulas, "named_configuration")],
    "scheme.verify_published_generators": [(scheme,
                                            "verify_published_generators")],
    "arrange.from_span": [(arrange.Flat, "from_span")],
    "arrange.span_basis": [(arrange.Flat, "span_basis")],
    "linalg.convert": [(linalg.Eliminator, "add_field_row")],
    "linalg.reduce": [(linalg.Eliminator, "add_int_row")],
    "linalg.row_dot": [(formulas, "row_dot")],
    "interp.system_dimension": [(interp, "system_dimension")],
    "interp.hilbert_function": [(interp, "hilbert_function")],
    "interp.decide_unexpected": [(interp, "decide_unexpected")],
    "interp.from_scheme": [(interp.ConditionMatrix, "from_scheme")],
    "formulas.build": [(formulas, "build_formula")],
    "formulas.vanishing": [(formulas, "symbolic_vanishing_on_Z")],
    "formulas.multiplicity": [(formulas, "symbolic_multiplicity_at_general")],
    "formulas.kernel_membership": [(formulas,
                                    "specialized_kernel_membership")],
    "formulas.fat_ideal": [(formulas, "membership_in_fat_ideal")],
    "formulas.equal_up_to_scalar": [(formulas, "equal_up_to_scalar")],
    "mpoly.partial_evaluate": [(mpoly.MultiPoly, "partial_evaluate")],
    "mpoly.substitute_linear": [(mpoly.MultiPoly, "substitute_linear")],
    "mpoly.partial_multi": [(mpoly.MultiPoly, "partial_multi")],
}

COUNTERS = {
    "interp.random_flat.calls": [(interp, "random_flat")],
    "linalg.clone.calls": [(linalg.Eliminator, "clone")],
    "mpoly.mul.calls": [(mpoly.MultiPoly, "__mul__"),
                        (mpoly.MultiPoly, "__rmul__")],
    "cyclo.numbers": [(cyclo.CyclotomicNumber, "__init__")],
    "cyclo.mul.calls": [(cyclo.CyclotomicNumber, "__mul__"),
                        (cyclo.CyclotomicNumber, "__rmul__")],
    "cyclo.inverse.calls": [(cyclo.CyclotomicNumber, "inverse")],
}


def _patch(owner, attr, make) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, (staticmethod, classmethod)):
        setattr(owner, attr, type(raw)(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _largest_entry(row) -> int:
    """Largest absolute integer in a row of ints or of int tuples."""
    if not row:
        return 0
    if isinstance(row[0], int):
        return max(max(row), -min(row))
    return max(max(max(e), -min(e)) for e in row)


class Tracer:
    def __init__(self) -> None:
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.layers = defaultdict(lambda: [0.0, 0.0])    # busy, self
        self.counts = defaultdict(int)
        self.covered_s = 0.0  # outermost span time since begin_item()
        self._child_s = []    # per open span: time of the spans it opened
        self._depth = defaultdict(int)

    def begin_item(self) -> None:
        self.covered_s = 0.0

    def install(self) -> None:
        for name, sites in SPANS.items():
            for owner, attr in sites:
                _patch(owner, attr, lambda fn, name=name: self._span(name, fn))
        for name, sites in COUNTERS.items():
            for owner, attr in sites:
                _patch(owner, attr, lambda fn, name=name: self._counter(name, fn))

    def _counter(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name, fn):
        layer = name.split(".")[0]
        reduce = name == "linalg.reduce"
        child_s, depth = self._child_s, self._depth
        spans, layers, counts = self.spans, self.layers, self.counts
        clock = time.perf_counter

        @wraps(fn)
        def spanned(*args, **kwargs):
            if reduce:
                # the row as it enters elimination; kept out of every self time
                b0 = clock()
                bits = _largest_entry(args[1]).bit_length()
                if bits > counts["linalg.row_bits_max"]:
                    counts["linalg.row_bits_max"] = bits
                if child_s:
                    child_s[-1] += clock() - b0
            child_s.append(0.0)
            depth[name] += 1
            depth[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                own = dt - child_s.pop()
                depth[name] -= 1
                depth[layer] -= 1
                keys = (name, f"{name}.phi{args[0].phi}") if reduce else (name,)
                for key in keys:
                    rec = spans[key]
                    rec[0] += 1
                    rec[2] += own
                    if not depth[name]:
                        rec[1] += dt
                lay = layers[layer]
                lay[1] += own
                if not depth[layer]:
                    lay[0] += dt
                if child_s:
                    child_s[-1] += dt
                else:
                    self.covered_s += dt
            if reduce:
                counts["linalg.rows_in"] += 1
                counts["linalg.rows_accepted"] += bool(result)
            elif name == "scheme.component_rows":
                counts["scheme.component_rows.rows"] += len(result)
            return result
        return spanned

    def take(self) -> dict:
        """Totals since the last take(); starts again from zero."""
        out = {"spans": dict(self.spans), "layers": dict(self.layers),
               "counts": dict(self.counts)}
        self.spans.clear()
        self.layers.clear()
        self.counts.clear()
        return out
