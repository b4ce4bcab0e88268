"""Command-line front end.

Subcommands: ``compute`` (cohomology tables), ``deligne`` (descriptors for a
bidegree), ``classify`` (bundle-flavoured queries), ``verify`` (internal
cross-check suites).  Results go to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 verification failure, 2 cover/input validation failure,
3 degree-range failure, 4 compactness required but absent, 5 internal
invariant failure (a defect in the package, not in the input), 6 out of
memory (the question needs more memory than the process can get).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__, catalog
from .cechengine import equivariant_cohomology, nonequivariant_cohomology
from .coverdata import C2Cover, CoefficientSystem
from .deligne import (
    DeligneDescriptor,
    classify_flat_line_bundles,
    classify_line_bundles,
    classify_line_bundles_with_connection,
    deligne_descriptor,
    real_circle_maps,
)
from .errors import (
    CoverValidationError,
    DegreeOutOfRange,
    InternalInvariantError,
    NotCompact,
    UnknownSpace,
    UnsupportedDimension,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_DEGREE_RANGE = 3
EXIT_NOT_COMPACT = 4
EXIT_INTERNAL = 5
EXIT_OUT_OF_MEMORY = 6


def _run_report(invocation: list, cover: dict | None, results: list, timings: dict) -> dict:
    """The ``--json`` run report, its keys in this order."""
    return {
        "invocation": invocation,
        "version": __version__,
        "cover": cover,
        "results": results,
        "timings": timings,
    }


def _integer(text: str) -> int:
    """``text`` as an int if it is ASCII ``-?[0-9]+``, the one spelling the
    command line reads (Python's ``int`` would also take ``1_0``, ``+1``,
    spaces and other scripts' digits); else ArgumentTypeError, exit 2."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _parse_coeff(text: str) -> CoefficientSystem:
    if text == "iZ":
        return CoefficientSystem.integers(-1)
    if text == "Z":
        return CoefficientSystem.integers(+1)
    if text == "iQ-":
        return CoefficientSystem.rationals(-1)
    if text.startswith("Zmod:"):
        try:
            n = _integer(text.removeprefix("Zmod:"))
        except argparse.ArgumentTypeError:
            raise argparse.ArgumentTypeError(f"bad modulus in {text!r}") from None
        if n < 2:
            raise argparse.ArgumentTypeError("modulus must be >= 2")
        return CoefficientSystem.integers_mod(n, -1)
    raise argparse.ArgumentTypeError(
        f"unknown coefficients {text!r} (expected iZ, Z, iQ- or Zmod:n)"
    )


def _load_cover(space: str) -> C2Cover:
    """Resolve ``--space``: a catalog name (params after ':') or ``@file``."""
    if space.startswith("@"):
        with open(space[1:], "r", encoding="utf-8") as fh:
            return C2Cover.from_json(fh.read())
    name, colon, rest = space.partition(":")
    if colon and not rest:
        raise UnsupportedDimension(f"no parameters after ':' in {space!r}")
    params = []
    for piece in rest.split(",") if colon else ():
        try:
            params.append(_integer(piece))
        except argparse.ArgumentTypeError:  # the catalog checks what is not an int
            params.append(piece)
    return catalog.build(name, *params)


def _cover_meta(cover: C2Cover) -> dict:
    return {
        "name": cover.name,
        "indices": len(cover.indices),
        "good": cover.good,
        "compact": cover.compact,
    }


def _group_record(cover, k, group, max_degree) -> dict:
    """The result row of H^k: a discrete descriptor with no weight ``p``."""
    return DeligneDescriptor(
        space=cover.name, p=None, q=k, rank=group.rank, torsion=group.torsion, torus_dim=None,
        degrees_computed=(0, max_degree - 1), good_cover_asserted=cover.good,
    ).to_record()


def _cmd_compute(args, cover):
    coeff = args.coeff
    if args.degree is not None:
        max_degree = args.max_degree if args.max_degree is not None else args.degree + 1
        degrees = [args.degree]
    else:
        max_degree = args.max_degree
        if max_degree < 1:
            raise DegreeOutOfRange(f"--max-degree must be at least 1, got {max_degree}")
        if max_degree > sys.maxsize:  # more degrees than a list can hold
            raise DegreeOutOfRange(f"--max-degree must be at most {sys.maxsize}, got {max_degree}")
        degrees = list(range(max_degree))
    fn = nonequivariant_cohomology if args.nonequivariant else equivariant_cohomology
    records, lines = [], []
    for k in degrees:
        g = fn(cover, coeff, k, max_degree)
        records.append(_group_record(cover, k, g, max_degree))
        tag = "plain " if args.nonequivariant else ""
        lines.append(f"{tag}H^{k}({cover.name}; {coeff}) = {g}")
    return records, lines


def _cmd_deligne(args, cover):
    d = deligne_descriptor(cover, args.p, args.q)
    return [d.to_record()], [str(d)]


def _cmd_classify(args, cover):
    what = args.what
    if what == "line-bundles":
        g = classify_line_bundles(cover)
        return (
            [_group_record(cover, 2, g, 3)],
            [f"line-bundles({cover.name}) = {g}"],
        )
    if what == "with-connection":
        d = classify_line_bundles_with_connection(cover)
        return [d.to_record()], [str(d)]
    if what == "flat":
        d = classify_flat_line_bundles(cover)
        return [d.to_record()], [str(d)]
    g = real_circle_maps(cover)
    return (
        [_group_record(cover, 1, g, 2)],
        [f"circle-maps({cover.name}) = {g}"],
    )


def _emit(args, report: dict, lines):
    if args.json:
        import json  # only a JSON report loads it

        print(json.dumps(report, indent=2, default=str))
    else:
        for line in lines:
            print(line)


def _dispatch(args) -> int:
    invocation = list(args.argv_echo)
    if args.command == "verify":
        import json

        from .verify import run_suite  # only this command loads the suites

        t0 = time.perf_counter()
        failures = run_suite(args.suite)
        timings = {"verify": time.perf_counter() - t0}
        lines = [json.dumps(rec, default=str) for rec in failures] or [f"suite {args.suite}: pass"]
        _emit(args, _run_report(invocation, None, failures, timings), lines)
        if failures:
            print(f"suite {args.suite}: {len(failures)} failure(s)", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        return EXIT_OK

    t0 = time.perf_counter()
    cover = _load_cover(args.space)
    t_build = time.perf_counter() - t0
    print(
        f"# cover {cover.name}: {len(cover.indices)} indices, "
        f"good={cover.good}, compact={cover.compact}",
        file=sys.stderr,
    )
    handler = {
        "compute": _cmd_compute,
        "deligne": _cmd_deligne,
        "classify": _cmd_classify,
    }[args.command]
    t0 = time.perf_counter()
    records, lines = handler(args, cover)
    timings = {"build": t_build, "compute": time.perf_counter() - t0}
    report = _run_report(invocation, _cover_meta(cover), records, timings)
    _emit(args, report, lines)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realdeligne",
        description="Exact equivariant cohomology and Real line bundle "
        "classification over combinatorial covers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space(p):
        p.add_argument(
            "--space",
            required=True,
            help="catalog name (params after ':', e.g. sphere_antipodal:2) "
            "or @path to a cover file",
        )
        p.add_argument("--json", action="store_true", help="emit a JSON run report")

    p = sub.add_parser("compute", help="cohomology of a cover")
    add_space(p)
    p.add_argument("--coeff", type=_parse_coeff, required=True)
    p.add_argument("--degree", type=_integer, default=None)
    p.add_argument("--max-degree", type=_integer, default=None)
    p.add_argument("--nonequivariant", action="store_true")

    p = sub.add_parser("deligne", help="descriptor for one bidegree")
    add_space(p)
    p.add_argument("-p", type=_integer, required=True, dest="p")
    p.add_argument("-q", type=_integer, required=True, dest="q")

    p = sub.add_parser("classify", help="bundle and map classification")
    add_space(p)
    p.add_argument(
        "--what",
        required=True,
        choices=("line-bundles", "with-connection", "flat", "circle-maps"),
    )

    p = sub.add_parser("verify", help="run internal cross-check suites")
    p.add_argument(
        "--suite",
        default="all",
        help="a suite name of realdeligne.verify, or all (the default)",
    )
    p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.argv_echo = list(argv)
    if args.command == "compute" and args.degree is None and args.max_degree is None:
        parser.error("compute needs --degree or --max-degree")
    try:
        return _dispatch(args)
    except CoverValidationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (UnknownSpace, UnsupportedDimension, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except DegreeOutOfRange as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DEGREE_RANGE
    except NotCompact as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NOT_COMPACT
    except MemoryError:
        print("out of memory: this question needs more memory than the process can get",
              file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


if __name__ == "__main__":
    sys.exit(main())
