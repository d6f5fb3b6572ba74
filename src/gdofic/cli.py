"""Command-line front end.

Subcommands: region, sym, sweep, reciprocity, split, simulate, classify.
Rationals are rendered as exact "p/q" strings everywhere; outputs go to
stdout or, with --output, are written atomically (temp file + rename).
Failures emit a machine-readable JSON error on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import closed_forms, finite_snr, hk_scheme, region as reg, svg
from .core_math import rat

OUTPUT_DIR_ENV = "GDOFIC_OUTPUT_DIR"


class CliError(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


def _frac_str(x: Fraction) -> str:
    return str(x)


def _parse_alpha(text: str) -> reg.ExponentProfile:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise CliError("bad-alpha", f"--alpha needs 4 comma-separated values, got {text!r}")
    try:
        vals = [rat(p) for p in parts]
    except (ValueError, ZeroDivisionError) as e:
        raise CliError("bad-alpha", f"cannot parse --alpha {text!r}: {e}")
    try:
        return reg.ExponentProfile(*vals)
    except ValueError as e:
        raise CliError("bad-alpha", str(e))


def _parse_point(text: str) -> Tuple[Fraction, Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise CliError("bad-point", f"--point needs 2 comma-separated values, got {text!r}")
    try:
        return rat(parts[0]), rat(parts[1])
    except (ValueError, ZeroDivisionError) as e:
        raise CliError("bad-point", f"cannot parse --point {text!r}: {e}")


def _parse_grid(text: str) -> List[Fraction]:
    """A start:stop:step range of exact rationals, endpoints inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError("bad-grid", f"--grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (rat(p) for p in parts)
    except (ValueError, ZeroDivisionError) as e:
        raise CliError("bad-grid", f"cannot parse --grid {text!r}: {e}")
    if step <= 0 or stop < start:
        raise CliError("bad-grid", f"--grid {text!r} is empty or descending")
    out, a = [], start
    while a <= stop:
        out.append(a)
        a += step
    return out


def _antennas(ns) -> reg.AntennaProfile:
    try:
        return reg.AntennaProfile(ns.m1, ns.n1, ns.m2, ns.n2)
    except ValueError as e:
        raise CliError("bad-antennas", str(e))


def _region_payload(r: reg.GdofRegion, ant, exp) -> dict:
    return {
        "antennas": list(ant.as_tuple()),
        "alpha": [_frac_str(a) for a in exp.as_tuple()],
        "bounds": [
            {"kind": b.kind, "c1": _frac_str(b.c1), "c2": _frac_str(b.c2),
             "rhs": _frac_str(b.rhs)}
            for b in r.bounds
        ],
        "vertices": [[_frac_str(x), _frac_str(y)] for x, y in r.vertices],
    }


def _cmd_region(ns) -> str:
    ant, exp = _antennas(ns), _parse_alpha(ns.alpha)
    r = reg.region_of(ant, exp)
    if ns.format == "svg":
        return svg.region_svg(
            r.vertices, f"GDoF region of the {ant.as_tuple()} IC"
        )
    if ns.format == "csv":
        lines = ["d1,d2"] + [f"{x},{y}" for x, y in r.vertices]
        return "\n".join(lines) + "\n"
    return json.dumps(_region_payload(r, ant, exp), indent=2) + "\n"


def _cmd_sym(ns) -> str:
    ant, exp = _antennas(ns), _parse_alpha(ns.alpha)
    d = reg.symmetric_gdof(ant, exp)
    return json.dumps({
        "antennas": list(ant.as_tuple()),
        "alpha": [_frac_str(a) for a in exp.as_tuple()],
        "d_sym": _frac_str(d),
    }, indent=2) + "\n"


def _cmd_sweep(ns) -> str:
    ant = _antennas(ns)
    grid = _parse_grid(ns.grid)
    result = reg.sweep_alpha(ant, grid)
    if ns.format == "svg":
        pts = [(p.alpha, p.d_sym) for p in result.points]
        return svg.curve_svg(
            pts, f"Symmetric GDoF of the {ant.as_tuple()} IC",
            result.breakpoints,
        )
    if ns.format == "json":
        return json.dumps({
            "antennas": list(ant.as_tuple()),
            "points": [
                {"alpha": _frac_str(p.alpha), "d_sym": _frac_str(p.d_sym),
                 "active_bound_kind": p.active_bound,
                 "is_breakpoint": p.is_breakpoint}
                for p in result.points
            ],
            "breakpoints": [_frac_str(a) for a in result.breakpoints],
        }, indent=2) + "\n"
    lines = ["alpha,d_sym,active_bound_kind,is_breakpoint"]
    for p in result.points:
        lines.append(
            f"{p.alpha},{p.d_sym},{p.active_bound},{str(p.is_breakpoint).lower()}"
        )
    return "\n".join(lines) + "\n"


def _cmd_reciprocity(ns) -> str:
    ant, exp = _antennas(ns), _parse_alpha(ns.alpha)
    rant, rexp = reg.reciprocal(ant, exp)
    equal = reg.regions_equal(reg.region_of(ant, exp), reg.region_of(rant, rexp))
    return json.dumps({
        "antennas": list(ant.as_tuple()),
        "alpha": [_frac_str(a) for a in exp.as_tuple()],
        "reciprocal_antennas": list(rant.as_tuple()),
        "reciprocal_alpha": [_frac_str(a) for a in rexp.as_tuple()],
        "equal": equal,
    }, indent=2) + "\n"


def _cmd_split(ns) -> str:
    ant, exp = _antennas(ns), _parse_alpha(ns.alpha)
    point = _parse_point(ns.point)
    r = reg.region_of(ant, exp)
    if not reg.contains(r, point):
        raise CliError(
            "point-outside-region",
            f"point ({point[0]}, {point[1]}) is outside the GDoF region",
        )
    try:
        split = hk_scheme.split_solver(ant, exp, point)
    except hk_scheme.SplitInfeasible as e:
        raise CliError("split-infeasible", str(e))
    return json.dumps({
        "antennas": list(ant.as_tuple()),
        "alpha": [_frac_str(a) for a in exp.as_tuple()],
        "point": [_frac_str(point[0]), _frac_str(point[1])],
        "split": {
            "d1c": _frac_str(split.d1c), "d1p": _frac_str(split.d1p),
            "d2c": _frac_str(split.d2c), "d2p": _frac_str(split.d2p),
        },
    }, indent=2) + "\n"


def _cmd_simulate(ns) -> str:
    ant, exp = _antennas(ns), _parse_alpha(ns.alpha)
    try:
        rho_values = tuple(float(v) for v in ns.ladder.split(","))
        ladder = finite_snr.SnrLadder(rho_values)
    except ValueError as e:
        raise CliError("bad-ladder", str(e))
    if ns.draws < 1:
        raise CliError("bad-draws", f"--draws {ns.draws} must be >= 1")
    tin1, tin2 = finite_snr.tin_slopes(ant, exp, ladder, ns.draws, ns.seed)
    d_sym = reg.symmetric_gdof(ant, exp)
    return json.dumps({
        "antennas": list(ant.as_tuple()),
        "alpha": [_frac_str(a) for a in exp.as_tuple()],
        "seed": ns.seed,
        "draws": ns.draws,
        "ladder": list(ladder.rho_values),
        "tin_gdof_estimates": [tin1.value, tin2.value],
        "tin_per_draw_spread": [tin1.per_draw_spread, tin2.per_draw_spread],
        "fundamental_symmetric_gdof": _frac_str(d_sym),
    }, indent=2) + "\n"


def _cmd_classify(ns) -> str:
    try:
        a = rat(ns.alpha)
        label = closed_forms.classify_regime(ns.m, ns.n, a)
    except (ValueError, ZeroDivisionError) as e:
        raise CliError("bad-classify", str(e))
    return json.dumps({
        "M": ns.m, "N": ns.n, "alpha": _frac_str(a),
        "alpha_star": _frac_str(closed_forms.alpha_star(ns.m, ns.n)),
        "regime": label.name,
    }, indent=2) + "\n"


def _add_antenna_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("m1", type=int, help="antennas at Tx1")
    p.add_argument("n1", type=int, help="antennas at Rx1")
    p.add_argument("m2", type=int, help="antennas at Tx2")
    p.add_argument("n2", type=int, help="antennas at Rx2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdofic",
        description="Exact GDoF region calculator for the 2-user MIMO "
                    "interference channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json",), default_format="json"):
        p.add_argument("--alpha", default="1,1,1,1",
                       help="exponents a11,a12,a21,a22 as exact rationals "
                            "(a11 must be 1)")
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--output", help="output file (default: stdout); "
                       f"relative paths resolve under ${OUTPUT_DIR_ENV} if set")

    p = sub.add_parser("region", help="bounds and vertices of the GDoF region")
    _add_antenna_args(p)
    common(p, formats=("json", "csv", "svg"))
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("sym", help="symmetric GDoF for one exponent profile")
    _add_antenna_args(p)
    common(p)
    p.set_defaults(func=_cmd_sym)

    p = sub.add_parser("sweep", help="symmetric GDoF curve over an alpha grid")
    _add_antenna_args(p)
    p.add_argument("--grid", default="0:3:1/60",
                   help="alpha grid start:stop:step with exact rationals")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("reciprocity",
                       help="check the region equals its reciprocal's")
    _add_antenna_args(p)
    common(p)
    p.set_defaults(func=_cmd_reciprocity)

    p = sub.add_parser("split", help="private/public GDoF split for a point")
    _add_antenna_args(p)
    common(p)
    p.add_argument("--point", required=True, help="target d1,d2 as rationals")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("simulate",
                       help="Monte Carlo TIN baseline vs fundamental GDoF")
    _add_antenna_args(p)
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=5)
    p.add_argument("--ladder", default="1e8,1e12",
                   help="comma-separated nominal SNR ladder")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", help="interference regime of an (M,N,M,N) IC")
    p.add_argument("m", type=int, help="transmit antennas M (M >= N)")
    p.add_argument("n", type=int, help="receive antennas N")
    p.add_argument("--alpha", required=True, help="cross-link exponent")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_classify)

    return parser


def _resolve_output(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gdofic-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        text = ns.func(ns)
        output = getattr(ns, "output", None)
        if output:
            path = _resolve_output(output)
            try:
                _write_atomic(path, text)
            except OSError as e:
                raise CliError("unwritable-output", f"cannot write {path!r}: {e}")
        else:
            sys.stdout.write(text)
    except CliError as e:
        sys.stderr.write(json.dumps({"error": e.code, "message": str(e)}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
