"""Command-line frontend: JSON in, CSV/JSON tables out.

Exit codes: 0 success, 1 validation failure, 2 I/O or parse failure,
3 internal error (two computation paths disagreed or an impossible case
was reached).

Each subcommand imports the library modules it runs, and ``--help`` none,
so a process compiles only what it uses.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence


def _parse_p_values(args) -> range:
    if args.p_range:
        try:
            lo, hi = args.p_range.split("..")
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"bad --p-range {args.p_range!r}, expected A..B")
        if lo > hi:
            raise ValueError("empty --p-range")
    elif args.p is not None:
        lo = hi = args.p
    else:
        raise ValueError("one of --p or --p-range is required")
    if lo < 1:
        raise ValueError("p values must be >= 1")
    return range(lo, hi + 1)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _own_output(format_fn):
    """Run ``format_fn`` with CPython's limit on int-to-str digits lifted.

    The limit guards parsing untrusted text; the integers printed here are
    results already bounded by the library, such as |H_1| under MAX_H1_BITS.
    Input is parsed outside these functions and keeps the limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return format_fn

    def wrapper(*args):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return format_fn(*args)
        finally:
            sys.set_int_max_str_digits(old)

    return wrapper


@_own_output
def _table(rows, header, fmt: str) -> str:
    # big integers go out as bare decimals in CSV and strings in JSON
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(str(x) for x in row) for row in rows]
        return "\n".join(lines) + "\n"
    payload = [
        {k: (str(v) if isinstance(v, int) and k in ("h1", "f", "multiplier") else v)
         for k, v in zip(header, row)}
        for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _load_knot(path: str):
    from .knots import KnotDescriptor

    return KnotDescriptor.from_json_dict(_load_json(path))


def cmd_h1(args) -> str:
    from .knots import h1_orders

    rows = h1_orders(_load_knot(args.knot), _parse_p_values(args))
    return _table(rows, ("p", "h1"), args.format)


def cmd_wheel_table(args) -> str:
    from .knots import f_table

    rows = f_table(args.p, args.n_max)
    return _table(rows, ("n", "f"), args.format)


def cmd_cwl(args) -> str:
    from .diagrams import DecoratedDiagram
    from .engine import cwl_delta

    knot = _load_knot(args.knot)
    diagram = DecoratedDiagram.from_json_dict(_load_json(args.diagram))
    term = cwl_delta(knot, diagram, args.p, signed=not args.unsigned)  # the one validation
    return _term_json(term)


@_own_output
def _term_json(term) -> str:
    return json.dumps(term.to_json_dict(), indent=2) + "\n"


def cmd_lift(args) -> str:
    from .lifts import LiftSystem, solve

    solutions = solve(LiftSystem.from_json_dict(_load_json(args.system)))
    if solutions is None:
        return "INADMISSIBLE\n"
    if not solutions:
        return "[]\n"
    # json.dumps(..., indent=2) of the solutions, written directly: its indented
    # encoder is pure Python. Every solution has the same vertices, so order them
    # once by their JSON keys and encode each key once.
    order = sorted(solutions[0], key=str)
    prefixes = [f"    {json.dumps(str(v))}: " for v in order]
    rows = (",\n".join([k + str(s[v]) for k, v in zip(prefixes, order)]) for s in solutions)
    return "[\n  {\n" + "\n  },\n  {\n".join(rows) + "\n  }\n]\n"


def cmd_window(args) -> str:
    from .engine import lmo_window

    values = lmo_window(args.l_start, args.count, args.p)
    rows = [(l, value, 1 if value != 0 else 0) for l, value in enumerate(values, args.l_start)]
    return _table(rows, ("l", "multiplier", "nonzero"), args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covercalc",
        description="Leading-order invariants of branched cyclic covers "
        "from combinatorial knot and diagram data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("h1", help="homology orders of p-fold branched covers")
    sp.add_argument("knot", help="knot JSON file")
    p_values = sp.add_mutually_exclusive_group()
    p_values.add_argument("--p", type=int, default=None)
    p_values.add_argument("--p-range", default=None, metavar="A..B")
    add_common(sp)
    sp.set_defaults(func=cmd_h1)

    sp = sub.add_parser("wheel-table", help="f(p,n) for the wheel knot family")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_wheel_table)

    sp = sub.add_parser("cwl", help="Casson-Walker-Lescop leading term")
    sp.add_argument("knot", help="knot JSON file")
    sp.add_argument("diagram", help="diagram JSON file")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--unsigned", action="store_true",
                    help="drop the alternating leg-state signs")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_cwl)

    sp = sub.add_parser("lift", help="solve a mod-p lift system")
    sp.add_argument("system", help="lift system JSON file")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("window", help="leading multipliers over a window of leg counts")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--l-start", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_window)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: malformed input, missing field {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # a DiagramError can only come from a command that imported diagrams
        diagrams = sys.modules.get("covercalc.diagrams")
        kind = "invalid diagram" if diagrams and isinstance(exc, diagrams.DiagramError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    _emit(text, getattr(args, "out", None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
