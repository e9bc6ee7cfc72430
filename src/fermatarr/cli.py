"""Command-line front end: construct, verify, decide, report, render.

Exit codes: 0 = computation completed (whatever the verdict), 1 = usage
error or refusal, 2 = computation failure, 3 = a check that the command
printed failed (verify-formula, verify-generators).  Outputs are
byte-identical for identical inputs and seeds; wall times go to stderr
only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__
from .arrange import (BudgetError, derived_flats, dual_points, format_spec,
                      parse_spec)
from .formulas import build_formula, verify_family
from .interp import decide_unexpected, hilbert_function, system_dimension
from .mpoly import format_point
from .render import (DEFAULT_GRID, DEFAULT_VIEWPORT, real_line_coefficients,
                     render_svg)
from .scheme import (format_component, named_configuration, parse_scheme,
                     verify_published_generators)


CHECK_FAILED = 3


class UsageError(ValueError):
    """Bad flag values; distinct from failures inside a computation."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract here is 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_output_flags(p):
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out", help="write output to this path instead of stdout")


def _add_scheme_source(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--config-id", help="named configuration id")
    g.add_argument("--scheme", help="path to a scheme description file")


def build_parser() -> _Parser:
    parser = _Parser(prog="fermatarr")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("arrangement", parents=[], help="list hyperplanes")
    p.add_argument("--spec", required=True, help="arrangement spec A(N+1,k+1,n)")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_arrangement)

    p = subs.add_parser("dual", help="list dual points of an arrangement")
    p.add_argument("--spec", required=True)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_dual)

    p = subs.add_parser("derived", help="list derived flats of an arrangement")
    p.add_argument("--spec", required=True)
    p.add_argument("--flat-dim", type=int, required=True)
    p.add_argument("--min-count", type=int, default=2,
                   help="keep flats lying on at least this many hyperplanes")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_derived)

    p = subs.add_parser("dimension", help="dimension of a linear system")
    _add_scheme_source(p)
    p.add_argument("--degree", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_dimension)

    p = subs.add_parser("hilbert", help="imposed conditions per degree")
    _add_scheme_source(p)
    p.add_argument("--max-degree", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_hilbert)

    p = subs.add_parser("unexpected", help="decide unexpectedness")
    _add_scheme_source(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mult", action="append", required=True, metavar="R,M",
                   help="general flat: flat dimension, multiplicity (repeatable)")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_unexpected)

    p = subs.add_parser("verify-formula", help="verify a closed-form family")
    p.add_argument("--config-id", required=True,
                   help="family id: B3, M3, M4, GEN(m), BMSS, MULT4(n), P5")
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_verify_formula)

    p = subs.add_parser("verify-generators",
                        help="check published generators against a configuration")
    p.add_argument("--config-id", required=True)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_verify_generators)

    p = subs.add_parser("render", help="SVG of a real arrangement and/or curve")
    p.add_argument("--spec", help="arrangement spec to draw")
    p.add_argument("--config-id", help="closed-form family to draw")
    p.add_argument("--point", help="general point for the family, e.g. 2,3,5")
    p.add_argument("--viewport", default=None, metavar="XMIN,XMAX,YMIN,YMAX")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--out", help="write the SVG to this path")
    p.set_defaults(handler=cmd_render)

    return parser


# -- input resolution --------------------------------------------------------

def _arrangement(spec: str, flat_dim: int | None = None):
    try:
        return parse_spec(spec, flat_dim)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _scheme_source(args):
    if args.config_id:
        try:
            cfg = named_configuration(args.config_id)
        except ValueError as e:
            raise UsageError(str(e)) from None
        return cfg.scheme, {"config_id": cfg.id}
    try:
        with open(args.scheme) as f:
            text = f.read()
    except OSError as e:
        raise UsageError(f"cannot read scheme file: {e}") from None
    try:
        scheme = parse_scheme(text)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return scheme, {"scheme_file": args.scheme}


def _parse_template(values, ambient: int):
    template = []
    for v in values:
        parts = v.split(",")
        if len(parts) != 2:
            raise UsageError(f"--mult wants FLATDIM,MULT, got {v!r}")
        try:
            r, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise UsageError(f"--mult wants two integers, got {v!r}") from None
        if not 0 <= r < ambient:
            raise UsageError(f"flat dimension {r} out of range for P^{ambient}")
        if m < 1:
            raise UsageError(f"multiplicity must be positive, got {m}")
        template.append((r, m))
    return tuple(template)


def _parse_coords(text: str):
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = body.replace(":", ",").split(",")
    try:
        return [Fraction(p.strip()) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad point {text!r}") from None


def _parse_viewport(text: str | None):
    if text is None:
        return DEFAULT_VIEWPORT
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--viewport wants XMIN,XMAX,YMIN,YMAX")
    try:
        xmin, xmax, ymin, ymax = (Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad viewport {text!r}") from None
    if xmin >= xmax or ymin >= ymax:
        raise UsageError("viewport must have positive extent")
    return (xmin, xmax, ymin, ymax)


# -- handlers ----------------------------------------------------------------

def cmd_arrangement(args):
    arr = _arrangement(args.spec)
    forms = [str(h.equation_polys()[0]) for h in arr.hyperplanes]
    params = {"spec": format_spec(arr)}
    result = {"hyperplane_count": len(forms), "hyperplanes": forms}
    text = [f"arrangement {params['spec']}", f"hyperplanes {len(forms)}"]
    text += [f"  {s}" for s in forms]
    return params, result, text


def cmd_dual(args):
    arr = _arrangement(args.spec)
    pts = [format_point(p) for p in dual_points(arr)]
    params = {"spec": format_spec(arr)}
    result = {"point_count": len(pts), "points": pts}
    text = [f"dual points of {params['spec']}: {len(pts)}"]
    text += [f"  {s}" for s in pts]
    return params, result, text


def cmd_derived(args):
    if args.min_count < 2:
        raise UsageError("--min-count must be at least 2")
    arr = _arrangement(args.spec, args.flat_dim)
    flats = derived_flats(arr, args.flat_dim, args.min_count)
    listing = [format_component(fl) for fl in flats]
    params = {"spec": format_spec(arr), "flat_dim": args.flat_dim,
              "min_count": args.min_count}
    result = {"flat_count": len(flats), "flats": listing}
    text = [f"derived flats of {params['spec']} "
            f"(dim {args.flat_dim}, >= {args.min_count} hyperplanes): "
            f"{len(flats)}"]
    text += [f"  {s}" for s in listing]
    return params, result, text


def cmd_dimension(args):
    scheme, src = _scheme_source(args)
    if args.degree < 0:
        raise UsageError("--degree must be >= 0")
    dim = system_dimension(scheme, args.degree)
    ncols = math.comb(scheme.ambient + args.degree, scheme.ambient)
    params = dict(src, degree=args.degree)
    result = {"ambient": scheme.ambient, "components": len(scheme),
              "total_monomials": ncols, "dimension": dim}
    text = [f"degree {args.degree}: dimension {dim} "
            f"(of {ncols} monomials, {len(scheme)} components)"]
    return params, result, text


def cmd_hilbert(args):
    scheme, src = _scheme_source(args)
    if args.max_degree < 0:
        raise UsageError("--max-degree must be >= 0")
    ranks = hilbert_function(scheme, args.max_degree)
    N = scheme.ambient
    dims = [math.comb(N + d, N) - r for d, r in enumerate(ranks)]
    params = dict(src, max_degree=args.max_degree)
    result = {"ambient": N, "ranks": ranks, "dimensions": dims}
    text = ["degree  rank  dimension"]
    text += [f"{d:>6}  {r:>4}  {dims[d]:>9}" for d, r in enumerate(ranks)]
    return params, result, text


def cmd_unexpected(args):
    scheme, src = _scheme_source(args)
    if args.degree < 0:
        raise UsageError("--degree must be >= 0")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    template = _parse_template(args.mult, scheme.ambient)
    report = decide_unexpected(scheme, template, args.degree,
                               trials=args.trials, seed=args.seed)
    params = dict(src, degree=args.degree,
                  template=[list(t) for t in template],
                  trials=args.trials, seed=args.seed)
    result = report.as_dict()
    text = [f"degree {args.degree}, general flats "
            + " + ".join(f"(dim {r}, mult {m})" for r, m in template)]
    text.append(f"  dimension without the general flats: {report.dim_Z}")
    text.append(f"  conditions imposed if independent:   {report.conditions_X}")
    if report.conditions_X_alt is not None:
        text.append(f"  conditions by the plane-curve count: "
                    f"{report.conditions_X_alt}")
    text.append(f"  expected dimension: {report.expected}")
    text.append(f"  actual dimension:   {report.actual} "
                f"(trials: {', '.join(str(v) for v in report.trial_values)})")
    text.append(f"  unexpected: {'yes' if report.unexpected else 'no'}")
    return params, result, text


def cmd_verify_formula(args):
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    try:
        report = verify_family(args.config_id, trials=args.trials,
                               seed=args.seed)
    except ValueError as e:
        raise UsageError(str(e)) from None
    params = {"family": args.config_id, "trials": args.trials,
              "seed": args.seed}
    result = report.as_dict()
    text = [f"family {report.family} on {report.config_id}, "
            f"degree {report.degree}"]
    checks = []
    if report.built_degree is None:
        text.append("  closed form: none (existence-only family)")
    else:
        text.append(f"  built degree {report.built_degree}, "
                    f"point degree {report.point_degree}")
        mult_ok = (report.multiplicity_certified
                   and report.multiplicity_attained
                   == report.multiplicity_expected)
        checks += [("vanishing on configuration", report.vanishing),
                   (f"multiplicity {report.multiplicity_attained} "
                    f"(expected {report.multiplicity_expected})", mult_ok),
                   ("specialized kernel membership", report.kernel_member)]
    checks.append(("unique (actual dimension 1)", report.unique))
    text += [f"  {name}: {'pass' if ok else 'FAIL'}" for name, ok in checks]
    text.append(f"  unexpected: "
                f"{'yes' if report.decision.unexpected else 'no'}")
    return params, result, text, all(ok for _, ok in checks)


def cmd_verify_generators(args):
    try:
        cfg = named_configuration(args.config_id)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if not cfg.published_generators:
        raise UsageError(f"{cfg.id} has no published generators")
    ok = verify_published_generators(cfg)
    params = {"config_id": cfg.id}
    result = {"generator_count": len(cfg.published_generators),
              "all_vanish": ok}
    text = [f"{cfg.id}: {len(cfg.published_generators)} generators, "
            f"{'all vanish on the configuration' if ok else 'FAIL'}"]
    return params, result, text, ok


def cmd_render(args):
    if args.spec is None and args.config_id is None:
        raise UsageError("render needs --spec and/or --config-id")
    if (args.config_id is None) != (args.point is None):
        raise UsageError("--config-id and --point go together")
    if args.grid < 2 or args.grid > 4096:
        raise UsageError("--grid must lie in [2, 4096]")
    viewport = _parse_viewport(args.viewport)
    arr = _arrangement(args.spec) if args.spec else None
    if arr is not None:
        # realness is a precondition of this command, not a computation step
        try:
            real_line_coefficients(arr)
        except ValueError as e:
            raise UsageError(str(e)) from None
    curves = []
    if args.config_id:
        try:
            form = build_formula(args.config_id)
        except ValueError as e:
            raise UsageError(str(e)) from None
        coords = _parse_coords(args.point)
        if len(coords) != form.npoint:
            raise UsageError(f"{form.family} wants {form.npoint} point "
                             f"coordinates, got {len(coords)}")
        if form.ncoord != 3:
            raise UsageError("can only render plane curves")
        curves.append(form.specialize(coords))
    svg = render_svg(arrangement=arr, curves=curves, viewport=viewport,
                     grid=args.grid)
    if args.out:
        with open(args.out, "w") as f:
            f.write(svg)
        return None
    sys.stdout.write(svg)
    return None


# -- driver ------------------------------------------------------------------

def _emit(args, command: str, bundle):
    if bundle is None:
        return
    params, result, text = bundle[:3]
    if getattr(args, "format", "text") == "structured":
        record = {"version": __version__, "command": command,
                  "params": params, "result": result}
        payload = json.dumps(record, indent=2) + "\n"
    else:
        payload = "\n".join(text) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    start = time.perf_counter()
    try:
        bundle = args.handler(args)
    except (UsageError, BudgetError) as e:
        print(f"{parser.prog}: error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"{parser.prog}: computation failed: {e}", file=sys.stderr)
        return 2
    _emit(args, args.command, bundle)
    print(f"wall {time.perf_counter() - start:.3f}s", file=sys.stderr)
    # a check command's bundle ends with whether every printed check passed
    if bundle is not None and not all(bundle[3:]):
        return CHECK_FAILED
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
