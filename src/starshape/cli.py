"""Command-line interface.

Commands:
  star        one symbolic power of a star configuration (JSON/CSV/SVG out)
  verify      full limit-simplex verification for a star configuration
  custom      the same pipeline for a point scheme loaded from JSON
  invariants  per-power invariant table only

Exit codes: 0 all checks passed, 1 computation or verdict failure, 2 usage
or input error (bad flags or a bad point file, rejected before any work or
file write).  All commands are deterministic functions of their flags
(given a fixed cache state or --no-cache).  The STARSHAPE_CACHE environment
variable supplies a default cache directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from importlib import resources

from .errors import SchemeFormatError, StarshapeError
from .gin import FileGinCache, GinCache, compute_gin, result_to_json
from .invariants import (
    InvariantReport,
    custom_report,
    gin_seed,
    seeded_star,
    verify_theorem,
)
from .linalg import format_rational, parse_rational
from .scheme import COEFF_BOUND, load_points
from .shape import AxisSimplex, scaled, shape_of, staircase_svg, points_csv

CACHE_ENV = "STARSHAPE_CACHE"


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by name."""
    parser = argparse.ArgumentParser(
        prog="starshape",
        description="Symbolic-power initial ideals of point configurations "
        "and their limiting staircase shapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, star_args: bool) -> None:
        if star_args:
            p.add_argument("--n", type=int, required=True, help="ambient projective dimension")
            p.add_argument("--s", type=int, required=True, help="number of hyperplanes")
            p.add_argument("--mode", choices=("vandermonde", "seeded"), default="vandermonde")
            p.add_argument("--coeff-bound", type=int, dest="coeff_bound",
                           help="coefficient range [-B, B] of the seeded hyperplanes "
                           f"(--mode seeded only; default {COEFF_BOUND})")
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        p.add_argument("--json", dest="json_path", help="write a JSON report here")
        p.add_argument("--csv", dest="csv_path", help="write a CSV table here")
        p.add_argument("--cache", dest="cache_dir", help="result cache directory")
        p.add_argument("--no-cache", action="store_true", dest="no_cache")

    p_star = sub.add_parser("star", help="one symbolic power of a star configuration")
    common(p_star, star_args=True)
    p_star.add_argument("--m", type=int, required=True, help="symbolic power")

    p_verify = sub.add_parser("verify", help="verify the predicted limit simplex")
    common(p_verify, star_args=True)
    p_verify.add_argument("--m-max", type=int, required=True, dest="m_max")

    p_custom = sub.add_parser("custom", help="pipeline for a JSON point scheme")
    common(p_custom, star_args=False)
    p_custom.add_argument("--points", required=True, help="point scheme JSON file, or 'conic'")
    p_custom.add_argument("--m-max", type=int, required=True, dest="m_max")
    p_custom.add_argument(
        "--expect-vertices",
        dest="expect_vertices",
        help="comma-separated expected axis intercepts, e.g. '2,3'",
    )

    for p in (p_star, p_verify, p_custom):
        p.add_argument("--svg", dest="svg_path", help="write an SVG rendering here (n=2)")

    p_inv = sub.add_parser("invariants", help="per-power invariant tables only")
    common(p_inv, star_args=True)
    p_inv.add_argument("--m-max", type=int, required=True, dest="m_max")
    return parser, sub.choices


def _cache_dir(args) -> str | None:
    """The cache directory from --cache or the environment, unless --no-cache."""
    return None if args.no_cache else args.cache_dir or os.environ.get(CACHE_ENV)


def _cache_from(args) -> GinCache | None:
    directory = _cache_dir(args)
    return FileGinCache(directory) if directory else None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise StarshapeError(f"cannot write {path}: {exc}") from exc


def _emit_json(path: str, doc: dict) -> None:
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _table(report: InvariantReport) -> list[list]:
    """The per-power table that the CSV and the printout show: a header,
    then m, alpha, t_1..t_n, reg and colength of each power."""
    head = ["m", "alpha", *(f"t{i}" for i in range(1, report.n + 1)), "reg", "colength"]
    return [head] + [[r.m, r.alpha(), *r.t_vector(), r.regularity(), r.colength]
                     for r in report.results]


def _report_csv(report: InvariantReport) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in _table(report))


def _print_report(report: InvariantReport, out) -> None:
    widths = [3, 6, *[4] * report.n, 4, 9]
    for row in _table(report):
        print(" ".join(f"{v:>{w}}" for v, w in zip(row, widths)), file=out)
    print(
        "waldschmidt upper bound: "
        + format_rational(report.waldschmidt_min)
        + "   asymptotic regularity estimate: "
        + format_rational(report.asreg_estimate),
        file=out,
    )
    if report.areas is not None:
        print(
            "scaled complement areas: "
            + ", ".join(format_rational(a) for a in report.areas),
            file=out,
        )
    for name in sorted(report.verdicts):
        print(f"{name}: {'pass' if report.verdicts[name] else 'FAIL'}", file=out)


def _finish(report: InvariantReport, args) -> int:
    """Print the report, write the requested files, and give the exit code."""
    _print_report(report, sys.stdout)
    if args.json_path:
        _emit_json(args.json_path, report.to_json_dict())
    if args.csv_path:
        _write(args.csv_path, _report_csv(report))
    if getattr(args, "svg_path", None):
        last = report.results[-1]
        _write(args.svg_path, staircase_svg(scaled(shape_of(last), last.m), report.expected))
    return 0 if report.all_pass() else 1


def _check_common(args, parser) -> None:
    """Checks every command shares, before any work or file write."""
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a 64-bit unsigned integer, 0 to 2**64 - 1")
    if args.command != "custom":
        if not 1 <= args.n <= args.s:
            parser.error("need --s >= --n >= 1")
        if args.coeff_bound is None:
            args.coeff_bound = COEFF_BOUND
        elif args.mode != "seeded":
            parser.error("--coeff-bound applies only with --mode seeded")
        elif args.coeff_bound < 2:
            parser.error("--coeff-bound must be at least 2")
    directory = _cache_dir(args)
    if directory and (blocker := blocking_file(directory)):
        parser.error(f"cache path {directory}: {blocker} is not a directory")
    for flag in ("json", "csv", "svg"):
        path = getattr(args, f"{flag}_path", None)
        if path and cannot_write(path):
            parser.error(f"--{flag}: cannot write a file at {path}")


def blocking_file(directory: str) -> str | None:
    """The nearest existing path at or above directory if it is not a
    directory, so that none can be made there; else None."""
    existing = os.path.abspath(directory)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    return None if os.path.isdir(existing) else existing


def cannot_write(path: str) -> bool:
    """Whether no file can be created at path: it is a directory, or its
    parent directory is missing."""
    return os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path)))


def _check_svg(args, n: int, parser) -> None:
    """Reject --svg before any computation or file write: SVG is n = 2 only."""
    if args.svg_path and n != 2:
        parser.error(f"--svg is only available in dimension 2, not {n}")


def _cmd_star(args, parser) -> int:
    if args.m < 1:
        parser.error("--m must be at least 1")
    _check_svg(args, args.n, parser)
    cache = _cache_from(args)
    star = seeded_star(args.n, args.s, args.mode, args.seed, args.coeff_bound)
    res = compute_gin(star.with_multiplicity(args.m), seed=gin_seed(args.seed), cache=cache)
    doc = result_to_json(res)
    doc["mode"] = args.mode
    doc["s"] = args.s
    print(
        f"star(n={args.n}, s={args.s}) m={args.m}: generators {doc['generators']}, "
        f"t={doc['t']}, alpha={doc['alpha']}, reg={doc['reg']}, colength={doc['colength']}"
    )
    if args.json_path:
        _emit_json(args.json_path, doc)
    sh = scaled(shape_of(res), res.m)
    if args.csv_path:
        _write(args.csv_path, points_csv(sh))
    if args.svg_path:
        _write(args.svg_path, staircase_svg(sh, AxisSimplex.star(args.n, args.s)))
    return 0


def _cmd_verify(args, parser) -> int:
    if args.m_max < args.n:
        parser.error("--m-max must be at least --n (vertex hits need m = n)")
    _check_svg(args, args.n, parser)
    report = verify_theorem(args.n, args.s, args.m_max, mode=args.mode, seed=args.seed,
                            bound=args.coeff_bound, cache=_cache_from(args))
    return _finish(report, args)


def _resolve_points(value: str):
    if value == "conic":
        with resources.as_file(
            resources.files("starshape.data").joinpath("conic.json")
        ) as path:
            return load_points(str(path))
    return load_points(value)


def _cmd_custom(args, parser) -> int:
    if args.m_max < 1:
        parser.error("--m-max must be at least 1")
    base = _resolve_points(args.points)
    if base.multiplicity != 1:
        parser.error("the points file must have multiplicity 1 (--m-max sets the powers)")
    _check_svg(args, base.dim, parser)
    expect = None
    if args.expect_vertices is not None:
        try:
            expect = [parse_rational(v) for v in args.expect_vertices.split(",")]
        except ValueError as exc:
            parser.error(f"bad --expect-vertices: {exc}")
        if len(expect) != base.dim:
            parser.error(f"--expect-vertices needs {base.dim} values, one per axis")
        if any(a <= 0 for a in expect):
            parser.error("--expect-vertices must all be positive")
    report = custom_report(base, args.m_max, expect_intercepts=expect, seed=args.seed,
                           cache=_cache_from(args))
    return _finish(report, args)


def _cmd_invariants(args, parser) -> int:
    if args.m_max < 1:
        parser.error("--m-max must be at least 1")
    star = seeded_star(args.n, args.s, args.mode, args.seed, args.coeff_bound)
    report = custom_report(star, args.m_max, seed=args.seed, cache=_cache_from(args))
    return _finish(replace(report, s=args.s), args)


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "star": _cmd_star,
        "verify": _cmd_verify,
        "custom": _cmd_custom,
        "invariants": _cmd_invariants,
    }
    # Errors found after parsing show the usage line of the command run.
    parser = commands[args.command]
    try:
        _check_common(args, parser)
        return handlers[args.command](args, parser)
    except SystemExit as exc:  # parser.error after parsing
        return exc.code if isinstance(exc.code, int) else 2
    except SchemeFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StarshapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
