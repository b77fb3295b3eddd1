"""Command-line front end.

Exit codes separate answers from failures: 0 is an answer, including
negative ones ("no filamentation", "nontrivially linked"); 1 means the
command line itself was unusable; 2 means the input code failed
validation or another library-level check.  All randomness is
seed-supplied; nothing reads ambient entropy, so every command is
reproducible from its argv.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .filament import (
    InstanceTooLarge,
    brute_force_filamentation,
    link_filamentation,
)
from .gausscode import (
    FlatLinkCode,
    FlatLinkError,
    parse_flat_link,
    render_flat_link,
    validate,
)
from .generate import (
    SearchGoal,
    SearchLimits,
    enumerate_small_codes,
    search_examples,
)
from .invariant import link_polynomial
from .moves import MoveSite, apply_move, find_move_sites, random_walk

_DEFAULT_LIMITS = {
    SearchGoal.ZERO_POLY_NO_FILAMENTATION: "2,8",
    SearchGoal.NONZERO_MULTI_COMPONENT: "3,6",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; we reserve 2 for input
    # validation, so route usage problems through our own exception
    def error(self, message):
        raise _UsageError(message)


def _add_io(parser, with_input=True):
    if with_input:
        parser.add_argument("input", nargs="?", default="-",
                            help="code file, or - for stdin (default)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")


# Built on the first run() and then reused: parse_args makes a fresh Namespace,
# no action appends or has a mutable default, error() raises, help reads the
# terminal width as it prints, and handlers look up library calls at call time.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="flatlinks",
                     description="Gauss-code invariants and filamentations "
                                 "for flat virtual links.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a code's structure")
    _add_io(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("invariant",
                       help="component polynomials, pair coefficients, linking")
    _add_io(p)
    p.set_defaults(handler=_cmd_invariant)

    p = sub.add_parser("linking", help="flat linking differences only")
    _add_io(p)
    p.set_defaults(handler=_cmd_linking)

    p = sub.add_parser("filament",
                       help="construct a filamentation (greedy, complete)")
    _add_io(p)
    p.set_defaults(handler=_cmd_filament)

    p = sub.add_parser("oracle",
                       help="exhaustive filamentation search (small codes)")
    _add_io(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("moves", help="Reidemeister move tools")
    moves_sub = p.add_subparsers(dest="moves_command", required=True)

    q = moves_sub.add_parser("list", help="list removal and triangle sites")
    _add_io(q)
    q.add_argument("--kinds", default=None,
                   help="comma-joined subset of r1_remove,r2_remove,r3 "
                        "(default all three); insertion sites are "
                        "parameters and are not listed")
    q.set_defaults(handler=_cmd_moves_list)

    q = moves_sub.add_parser("apply", help="apply move lines in order")
    q.add_argument("moves", nargs="+", metavar="MOVE",
                   help="move line as printed by list/walk, quoted")
    _add_io(q)
    q.set_defaults(handler=_cmd_moves_apply)

    q = moves_sub.add_parser("walk", help="seeded random move sequence")
    q.add_argument("--steps", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    _add_io(q)
    q.set_defaults(handler=_cmd_moves_walk)

    p = sub.add_parser("enumerate",
                       help="all small codes up to rotation and relabeling")
    p.add_argument("--crossings", type=int, required=True)
    p.add_argument("--components", type=int, required=True)
    _add_io(p, with_input=False)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("search", help="search for a separating example")
    p.add_argument("goal", choices=[g.value for g in SearchGoal])
    p.add_argument("--limits", default=None, metavar="COMPS,CROSSINGS",
                   help="search bounds (defaults: %s)" % ", ".join(
                       f"{g.value}={v}" for g, v in _DEFAULT_LIMITS.items()))
    # search is exhaustive and runs in one process, so neither flag has an
    # effect; kept because benchmark command lines pass --seed N --jobs 1
    p.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--jobs", type=int, choices=[1], default=1,
                   help=argparse.SUPPRESS)
    _add_io(p, with_input=False)
    p.set_defaults(handler=_cmd_search)

    return parser


def _read_code(args, stdin) -> FlatLinkCode:
    try:
        if args.input == "-":
            # under a C or POSIX locale stdin decodes with surrogateescape;
            # encoding back recovers its bytes, which then decode as a file's
            data = stdin.read().encode("utf-8", "surrogateescape")
        else:
            with open(args.input, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {args.input}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FlatLinkError(f"input is not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                            f"at offset {exc.start}") from None
    except UnicodeEncodeError as exc:  # a surrogate that no decoder yields
        raise FlatLinkError(f"cannot read {exc.object[exc.start]!r} at offset "
                            f"{exc.start}") from None
    return parse_flat_link(text)


def _emit_json(payload, out) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True), file=out)


def _print_linking(a, b, diff, out) -> None:
    # the flat linking number is diff / 2, written exactly, not via a float
    number = f"{'-' if diff < 0 else ''}{abs(diff) // 2}{'.5' if diff % 2 else ''}"
    print(f"linking {a},{b}: {diff} (flat linking number {number})", file=out)


def _print_invariant(inv, out) -> None:
    for name, poly in inv.component_polys:
        print(f"poly {name}: {poly}", file=out)
    for (a, b), diff in inv.linking_diffs:
        _print_linking(a, b, diff, out)
        coeff = inv.pair_coeff(a, b)
        if coeff is None:
            reason = "nonzero linking" if diff else "nonzero sign total"
            print(f"coeff {a},{b}: undefined ({reason})", file=out)
        else:
            print(f"coeff {a},{b}: {coeff}", file=out)


def _filamentation_json(f) -> dict:
    return f.to_json() if f is not None else {"exists": False}


def _print_filamentation(f, out) -> None:
    if f is None:
        print("no filamentation", file=out)
        return
    # both lines always appear so the text schema is fixed-shape
    print(("mono: " + " ".join(f.monofilaments)).rstrip(), file=out)
    print(("bi: " + " ".join(",".join(pair) for pair in f.bifilaments)).rstrip(),
          file=out)


def _cmd_validate(args, stdin, out, err) -> int:
    code = _read_code(args, stdin)
    catalog = validate(code)
    n_comp = len(code.components)
    n_cross = len(catalog.ends)
    if args.format == "json":
        _emit_json({"ok": True, "components": n_comp, "crossings": n_cross}, out)
    else:
        print(f"ok: {n_comp} component(s), {n_cross} crossing(s)", file=out)
    return 0


def _cmd_invariant(args, stdin, out, err) -> int:
    code = _read_code(args, stdin)
    inv = link_polynomial(code)
    if args.format == "json":
        _emit_json(inv.to_json(), out)
    else:
        _print_invariant(inv, out)
    return 0


def _cmd_linking(args, stdin, out, err) -> int:
    code = _read_code(args, stdin)
    inv = link_polynomial(code)
    if args.format == "json":
        _emit_json({"linking": inv.to_json()["linking"]}, out)
    else:
        for (a, b), diff in inv.linking_diffs:
            _print_linking(a, b, diff, out)
    return 0


def _cmd_filament(args, stdin, out, err) -> int:
    code = _read_code(args, stdin)
    found = link_filamentation(code)
    if args.format == "json":
        _emit_json(_filamentation_json(found), out)
    else:
        _print_filamentation(found, out)
    return 0


def _cmd_oracle(args, stdin, out, err) -> int:
    code = _read_code(args, stdin)
    found = brute_force_filamentation(code)
    if args.format == "json":
        _emit_json(_filamentation_json(found), out)
    else:
        _print_filamentation(found, out)
    return 0


def _cmd_moves_list(args, stdin, out, err) -> int:
    code = _read_code(args, stdin)
    validate(code)
    kinds = None if args.kinds is None else tuple(
        k for k in args.kinds.split(",") if k)
    try:
        sites = find_move_sites(code, kinds)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.format == "json":
        _emit_json({"sites": [s.describe() for s in sites]}, out)
    else:
        for site in sites:
            print(site.describe(), file=out)
    return 0


def _cmd_moves_apply(args, stdin, out, err) -> int:
    code = _read_code(args, stdin)
    validate(code)
    for line in args.moves:
        code = apply_move(code, MoveSite.parse(line))
    if args.format == "json":
        _emit_json({"code": render_flat_link(code)}, out)
    else:
        print(render_flat_link(code), file=out)
    return 0


def _cmd_moves_walk(args, stdin, out, err) -> int:
    if args.steps < 0:
        raise _UsageError("--steps must be nonnegative")
    code = _read_code(args, stdin)
    validate(code)
    final, log = random_walk(code, args.steps, args.seed)
    if args.format == "json":
        _emit_json({"code": render_flat_link(final),
                    "log": [s.describe() for s in log]}, out)
    else:
        # log lines go out as comments, so this output is itself a
        # readable code and pipes straight into any other command
        for site in log:
            print(f"# {site.describe()}", file=out)
        print(render_flat_link(final), file=out)
    return 0


def _cmd_enumerate(args, stdin, out, err) -> int:
    # bounds come from flags here, so exceeding a cap is a usage problem
    try:
        codes = enumerate_small_codes(args.crossings, args.components)
    except (ValueError, InstanceTooLarge) as exc:
        raise _UsageError(str(exc)) from None
    if args.format == "json":
        _emit_json({"count": len(codes),
                    "codes": [render_flat_link(c) for c in codes]}, out)
    else:
        for code in codes:
            print(render_flat_link(code), file=out)
    return 0


def _parse_limits(text: str) -> SearchLimits:
    fields = text.split(",")
    if len(fields) != 2:
        raise _UsageError("--limits takes COMPS,CROSSINGS")
    try:
        numbers = [int(f) for f in fields]
    except ValueError:
        raise _UsageError(f"unreadable --limits {text!r}") from None
    try:
        return SearchLimits(*numbers)
    except (ValueError, InstanceTooLarge) as exc:
        raise _UsageError(str(exc)) from None


def _cmd_search(args, stdin, out, err) -> int:
    goal = SearchGoal(args.goal)
    limits = _parse_limits(args.limits or _DEFAULT_LIMITS[goal])
    try:
        witness = search_examples(goal, limits)
    except InstanceTooLarge as exc:
        raise _UsageError(str(exc)) from None
    if witness is None:
        if args.format == "json":
            _emit_json({"goal": goal.value, "witness": None}, out)
        else:
            print("no witness within limits", file=out)
        return 0
    inv = link_polynomial(witness)
    greedy = link_filamentation(witness)
    oracle = brute_force_filamentation(witness)
    if args.format == "json":
        _emit_json({"goal": goal.value,
                    "witness": render_flat_link(witness),
                    "invariant": inv.to_json(),
                    "filamentation": _filamentation_json(greedy),
                    "oracle": _filamentation_json(oracle)}, out)
    else:
        print(f"witness: {render_flat_link(witness)}", file=out)
        _print_invariant(inv, out)
        print("filamentation: " + ("none" if greedy is None else "found"),
              file=out)
        print("oracle: " + ("none" if oracle is None else "found"), file=out)
    return 0


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    """Dispatch one command; returns the exit code instead of exiting."""
    stdin = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, stdin, out, err)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except FlatLinkError as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
