"""Command-line surface: a single binary with subcommands built for piping.

    smith mated-crt --gamma 1.4 --n 64 --seed 7 | smith tile | smith render -o tiling.svg

All JSON documents carry schema "smith/1".  Exit codes: 0 success,
1 validation or computation failure, 2 usage error.  Every output is
byte-identical across runs given the same inputs, seed, and flags.

Flags are checked before any input is read.  --tol, --tol-algebraic and
converge's --height take a finite number > 0, converge's --band a number
> 0, mated-crt's --gamma a number in (0, 2) and --n an integer >= 2,
--seed an integer in [0, 2**64), verify's --sequences an integer >= 1 and
--length one >= 2, and render's --width one >= 1.  Any other value, nan
included, is a usage error: exit 2 with one "error:" line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .map_core import MapError, dual
from .electrical import SolveError, solve_voltage, conjugate
from .smith_tiling import TilingError, render_svg, tile, validate
from .walk_lab import exact_law_report
from . import convergence, io_json, mated_crt

SCHEMA_NOTE = 'reads/writes JSON with "schema": "smith/1"'


class CliError(RuntimeError):
    pass


def _int_from(lo, hi=None, span=None):
    """An argparse type: an integer of at least lo, and below hi if given,
    with span naming the interval in the error."""
    def parse(text):
        v = int(text)
        if v < lo or (hi is not None and v >= hi):
            raise argparse.ArgumentTypeError(
                f"need an integer {span or f'>= {lo}'}, got {v}")
        return v
    parse.__name__ = "int"      # argparse's name for a value int() rejects
    return parse


def _float_where(ok, span):
    """An argparse type: a float for which ok holds, with span naming those
    floats in the error; nan fails every comparison, so ok rejects it."""
    def parse(text):
        v = float(text)
        if not ok(v):
            raise argparse.ArgumentTypeError(f"need {span}, got {text}")
        return v
    parse.__name__ = "float"    # argparse's name for a value float() rejects
    return parse


_positive = _float_where(lambda v: 0 < v < math.inf, "a finite number > 0")
SEED = _int_from(0, 2**64, "in [0, 2**64)")     # the 64-bit keys of rng.make_rng


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: malformed JSON at byte offset {e.pos} "
                       f"(line {e.lineno}, column {e.colno}): {e.msg}")
    except OSError as e:
        raise CliError(f"{path}: {e.strerror}")


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise CliError(f"{path}: {e.strerror}")


def _read_map(path):
    return io_json.map_from_json(_read_json(path))


def _cmd_solve(args):
    m, emb = _read_map(args.map)
    v = solve_voltage(m, tol=args.tol)
    dm = dual(m, emb)
    c = conjugate(dm, v)
    _write_text(args.output, io_json.dump_json(io_json.solution_to_json(v, c)))
    return 0


def _cmd_tile(args):
    m, emb = _read_map(args.map)
    d = tile(solve_voltage(m, tol=args.tol_algebraic), emb, tol=args.tol)
    report = validate(d)
    if not report.passed(args.tol):
        print(f"tiling checks failed: {report}", file=sys.stderr)
        return 1
    _write_text(args.output, io_json.dump_json(io_json.diagram_to_json(d)))
    return 0


def _cmd_render(args):
    d = io_json.diagram_from_json(_read_json(args.diagram))
    svg = render_svg(d, color_by=args.color_by, width_px=args.width,
                     segments=not args.no_segments)
    _write_text(args.output, svg + "\n")
    return 0


def _cmd_verify(args):
    m, emb = _read_map(args.map)
    d = tile(solve_voltage(m, tol=args.tol_algebraic), emb, tol=args.tol)
    tiling = validate(d)
    laws = exact_law_report(m, d.voltage, emb, num_sequences=args.sequences,
                            length=args.length, seed=args.seed)
    # near-coincident realized levels make the augmented conductances huge;
    # below the reported noise floor the level and hitting laws are not
    # resolvable in double precision, so the floor caps how sharp a pass can
    # honestly be.  The winding reads its drifts off the original tiling,
    # free of that noise, so it answers to --tol alone
    floor = 64.0 * laws["noise_floor"]
    checks = [
        ("tiling", tiling.passed(args.tol)),
        ("level-measure", laws["level_mass_max_dev"] <= max(args.tol_algebraic, floor)),
        ("hitting-law", laws["hitting_max_dev"] <= max(args.tol_algebraic, floor)),
        ("zero-winding", laws["winding_max_abs"] <= args.tol),
        ("projection", laws["projection_max_dev"] <= args.tol_algebraic),
    ]
    ok = all(flag for _, flag in checks)
    for name, flag in checks:
        print(f"{name}: {'pass' if flag else 'FAIL'}")
    report = {
        "schema": io_json.SCHEMA,
        "kind": "verify-report",
        "eta": float(d.eta),
        "passed": ok,
        "tiling": {
            "max_cover_defect": tiling.max_cover_defect,
            "area_defect": tiling.area_defect,
            "max_aspect_defect": tiling.max_aspect_defect,
            "max_level_defect": tiling.max_level_defect,
        },
        "laws": {k: laws[k] for k in ("level_mass_max_dev", "hitting_max_dev",
                                      "winding_max_abs", "projection_max_dev",
                                      "noise_floor")},
    }
    if args.output:
        _write_text(args.output, io_json.dump_json(report))
    return 0 if ok else 1


def _cmd_mated_crt(args):
    if args.increments:
        inc = _read_json(args.increments)
        if not isinstance(inc, dict) or "dl" not in inc or "dr" not in inc:
            raise CliError(f"{args.increments}: expected an object with "
                           "'dl' and 'dr' arrays")
        for key in ("dl", "dr"):
            # a JSON boolean is no number (as in io_json)
            if not isinstance(inc[key], list) or not all(type(a) in (int, float)
                                                          for a in inc[key]):
                raise CliError(f"{args.increments}: '{key}' must be an array of numbers")
        try:
            exc = mated_crt.excursion_from_increments(inc["dl"], inc["dr"])
        except OverflowError:       # an integer beyond the doubles
            raise CliError("increments must be finite")
    else:
        if args.seed is None:
            raise CliError("--seed is required when sampling")
        exc = mated_crt.sample_excursion(args.gamma, args.n, args.seed)
    mm = mated_crt.build_map(exc)
    mm = mated_crt.mark_vertices(mm, policy=args.mark,
                                 seed=0 if args.seed is None else args.seed)
    hist = mated_crt.face_degree_histogram(mm.map)
    degrees = {d: int(c) for d, c in enumerate(hist) if c}
    print(f"acceptance: 1/{exc.attempts} attempts; "
          f"face degrees: {degrees}", file=sys.stderr)
    _write_text(args.output, io_json.dump_json(io_json.map_to_json(mm.map)))
    return 0


def _cmd_converge(args):
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok]
    except ValueError:
        raise CliError(f"--n-list: expected comma-separated integers, "
                       f"got {args.n_list!r}")
    if not n_list or min(n_list) < 3:
        raise CliError("--n-list: need integers >= 3")
    rows = convergence.converge_rows(n_list, band=args.band, H=args.height)
    header = ["n", "eta", "c_h", "b_h", "b_w", "sup_err_height",
              "sup_err_angle"]
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(repr(r[k]) if isinstance(r[k], float) else str(r[k])
                              for k in header))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="smith",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text,
                            description=f"{help_text}  ({SCHEMA_NOTE})")
        sp.set_defaults(func=fn)
        return sp

    sp = add("solve", _cmd_solve,
             "Solve the voltage problem of a map and emit a solution JSON.")
    sp.add_argument("map", nargs="?", default="-",
                    help="map JSON path, or - for stdin (default)")
    sp.add_argument("-o", "--output", default="-", help="output path or -")
    sp.add_argument("--tol", type=_positive, default=1e-10,
                    help="algebraic residual tolerance (default 1e-10)")

    sp = add("tile", _cmd_tile,
             "Compute the rectangle tiling of a map and emit a diagram JSON.")
    sp.add_argument("map", nargs="?", default="-")
    sp.add_argument("-o", "--output", default="-")
    sp.add_argument("--tol", type=_positive, default=1e-9,
                    help="geometric tolerance (default 1e-9)")
    sp.add_argument("--tol-algebraic", type=_positive, default=1e-10)

    sp = add("render", _cmd_render,
             "Render a diagram JSON as SVG 1.1.")
    sp.add_argument("diagram", nargs="?", default="-")
    sp.add_argument("-o", "--output", default="-")
    sp.add_argument("--color-by", choices=("order", "size"), default="order")
    sp.add_argument("--width", type=_int_from(1), default=800, help="pixel width")
    sp.add_argument("--no-segments", action="store_true",
                    help="omit the horizontal vertex segments")

    sp = add("verify", _cmd_verify,
             "Run tiling and exact walk-law checks; one pass/fail line each.")
    sp.add_argument("map", nargs="?", default="-")
    sp.add_argument("-o", "--output", default=None,
                    help="optional verify-report JSON path")
    sp.add_argument("--sequences", type=_int_from(1), default=5,
                    help="admissible height sequences to test (default 5)")
    sp.add_argument("--length", type=_int_from(2), default=4,
                    help="heights per sequence, at least 2 (default 4)")
    sp.add_argument("--seed", type=SEED, default=0)
    sp.add_argument("--tol", type=_positive, default=1e-9,
                    help="geometric tolerance (default 1e-9)")
    sp.add_argument("--tol-algebraic", type=_positive, default=1e-10)

    sp = add("mated-crt", _cmd_mated_crt,
             "Sample a mated-CRT style map and emit it as a map JSON.")
    sp.add_argument("--gamma", type=_float_where(lambda v: 0 < v < 2, "a number in (0, 2)"),
                    default=1.0, help="coupling parameter in (0, 2) (default 1.0)")
    sp.add_argument("--n", type=_int_from(2), default=32,
                    help="number of cells, at least 2 (default 32)")
    sp.add_argument("--seed", type=SEED, default=None,
                    help="RNG seed in [0, 2**64) (required unless --increments is given)")
    sp.add_argument("--increments", default=None,
                    help="JSON file with 'dl'/'dr' increment arrays instead "
                         "of sampling")
    sp.add_argument("--mark", choices=("uniform-pair", "first-last"),
                    default="uniform-pair")
    sp.add_argument("-o", "--output", default="-")

    sp = add("converge", _cmd_converge,
             "Affine-fit error table over a family of lattices, as CSV.")
    sp.add_argument("--n-list", default="8,16,32",
                    help="comma-separated column counts (default 8,16,32)")
    sp.add_argument("--band", type=_float_where(lambda v: v > 0, "a number > 0"),
                    default=1.0, help="height band for the sup-error (default 1.0)")
    sp.add_argument("--height", type=_positive, default=4.0,
                    help="lattice half-height H (default 4.0)")
    sp.add_argument("-o", "--output", default="-")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except io_json.SchemaError as e:
        for line in e.errors:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except (MapError, SolveError, TilingError, mated_crt.SampleError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
