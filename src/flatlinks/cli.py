"""Command-line front end.

Exit codes separate answers from failures: 0 is an answer, including
negative ones ("no filamentation", "nontrivially linked"); 1 means the
command line itself was unusable; 2 means the input code failed
validation or another library-level check.  All randomness is
seed-supplied; nothing reads ambient entropy, so every command is
reproducible from its argv.

Every command builds one answer, a JSON payload and its text lines, and
``--format`` only chooses which of the two is printed.  Lines that take
work to build are generated lazily, so a JSON answer does not build them.
A JSON answer is byte for byte ``json.dumps(payload, indent=2,
sort_keys=True)``, but written by ``_json``: with an indent the stdlib
encoder runs in pure Python, and its closures leave a reference cycle
behind on every call.

The parser is built once per process.  The command words at the front of
argv pick the parser of that command, and the rest of argv goes straight
to it, so no parser reads arguments that are not its own.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

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
    enumerate_lines,
    # not called here; perfbench/tracer.py rebinds this name in this module
    enumerate_small_codes,  # noqa: F401
    search_examples,
)
from .invariant import link_polynomial
from .moves import MoveSite, apply_move, find_move_sites, number, random_walk

_DEFAULT_LIMITS = {
    SearchGoal.ZERO_POLY_NO_FILAMENTATION: "2,8",
    SearchGoal.NONZERO_MULTI_COMPONENT: "3,6",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # command word -> that command's parser, on a parser with subcommands
    commands = {}

    # argparse exits with status 2 on bad usage; we reserve 2 for input
    # validation, so route usage problems through our own exception
    def error(self, message):
        raise _UsageError(message)


# Built on the first run() and then reused: parse_args makes a fresh Namespace,
# no action appends or has a mutable default, error() raises, help reads the
# terminal width as it prints, and handlers look up library calls at call time.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="flatlinks",
                     description="Gauss-code invariants and filamentations "
                                 "for flat virtual links.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(group, name, summary, handler, *own, reads_code=True):
        # own arguments are (name, options) pairs; the shared ones go last
        p = group.add_parser(name, help=summary)
        for arg, options in own:
            p.add_argument(arg, **options)
        if reads_code:
            p.add_argument("input", nargs="?", default="-",
                           help="code file, or - for stdin (default)")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")
        p.set_defaults(handler=handler)
        return p

    command(sub, "validate", "check a code's structure", _cmd_validate)
    command(sub, "invariant", "component polynomials, pair coefficients, linking",
            _cmd_invariant)
    command(sub, "linking", "flat linking differences only", _cmd_linking)
    command(sub, "filament", "construct a filamentation (greedy, complete)",
            _cmd_filament)
    command(sub, "oracle", "exhaustive filamentation search (small codes)",
            _cmd_oracle)

    moves = sub.add_parser("moves", help="Reidemeister move tools")
    moves_sub = moves.add_subparsers(dest="moves_command", required=True)
    moves.commands = moves_sub.choices
    # added after the shared arguments: --kinds follows --format in its help
    command(moves_sub, "list", "list removal and triangle sites",
            _cmd_moves_list).add_argument(
        "--kinds", help="comma-joined subset of r1_remove,r2_remove,r3 "
                        "(default all three); insertion sites are parameters "
                        "and are not listed")
    # the move lines take every positional, so the code comes from stdin only
    command(moves_sub, "apply", "apply move lines in order to the code on stdin",
            _cmd_moves_apply,
            ("moves", dict(nargs="+", metavar="MOVE",
                           help="move line as printed by list/walk, quoted; "
                                "the code is read from stdin")),
            reads_code=False).set_defaults(input="-")
    command(moves_sub, "walk", "seeded random move sequence", _cmd_moves_walk,
            ("--steps", dict(type=number, required=True)),
            ("--seed", dict(type=number, required=True)))

    command(sub, "enumerate", "all small codes up to rotation and relabeling",
            _cmd_enumerate,
            ("--crossings", dict(type=number, required=True)),
            ("--components", dict(type=number, required=True)), reads_code=False)
    defaults = ", ".join(f"{g.value}={v}" for g, v in _DEFAULT_LIMITS.items())
    command(sub, "search", "search for a separating example", _cmd_search,
            ("goal", dict(choices=[g.value for g in SearchGoal])),
            ("--limits", dict(metavar="COMPS,CROSSINGS",
                              help=f"search bounds (defaults: {defaults})")),
            # search is exhaustive and runs in one process, so neither flag
            # has an effect; kept because benchmark command lines pass
            # --seed N --jobs 1
            ("--seed", dict(type=number, default=0, help=argparse.SUPPRESS)),
            ("--jobs", dict(type=number, choices=[1], default=1,
                            help=argparse.SUPPRESS)), reads_code=False)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    # the same parse as the top-level parser's, less its subcommand passes;
    # the namespace lacks the dests of the words (command, moves_command),
    # which nothing reads
    parser, words = _build_parser(), list(argv)
    while words and words[0] in parser.commands:
        parser = parser.commands[words.pop(0)]
    return parser.parse_args(words)


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
    except ValueError as exc:  # a path open() refuses, such as one with a NUL
        raise _UsageError(f"cannot read {args.input!r}: {exc}") from None
    return parse_flat_link(text)


def _linking_line(a, b, diff) -> str:
    # the flat linking number is diff / 2, written exactly, not via a float
    half = f"{'-' if diff < 0 else ''}{abs(diff) // 2}{'.5' if diff % 2 else ''}"
    return f"linking {a},{b}: {diff} (flat linking number {half})"


def _invariant_lines(inv):
    for name, poly in inv.component_polys:
        yield f"poly {name}: {poly}"
    for (a, b), diff in inv.linking_diffs:
        yield _linking_line(a, b, diff)
        coeff = inv.pair_coeff(a, b)
        if coeff is None:
            reason = "nonzero linking" if diff else "nonzero sign total"
            yield f"coeff {a},{b}: undefined ({reason})"
        else:
            yield f"coeff {a},{b}: {coeff}"


def _filamentation(found):
    if found is None:
        return {"exists": False}, ["no filamentation"]
    # both lines always appear so the text schema is fixed-shape
    parts = (("mono", found.monofilaments),
             ("bi", (",".join(pair) for pair in found.bifilaments)))
    return found.to_json(), (f"{label}: {' '.join(p)}".rstrip() for label, p in parts)


def _cmd_validate(args, code):
    n_comp, n_cross = len(code.components), len(validate(code).ends)
    return ({"ok": True, "components": n_comp, "crossings": n_cross},
            [f"ok: {n_comp} component(s), {n_cross} crossing(s)"])


def _cmd_invariant(args, code):
    inv = link_polynomial(code)
    return inv.to_json(), _invariant_lines(inv)


def _cmd_linking(args, code):
    diffs = link_polynomial(code).linking_diffs
    return ({"linking": [{"a": a, "b": b, "diff": d} for (a, b), d in diffs]},
            (_linking_line(a, b, d) for (a, b), d in diffs))


def _cmd_filament(args, code):
    return _filamentation(link_filamentation(code))


def _cmd_oracle(args, code):
    return _filamentation(brute_force_filamentation(code))


def _cmd_moves_list(args, code):
    validate(code)
    kinds = None if args.kinds is None else args.kinds.split(",")
    try:
        sites = [s.describe() for s in find_move_sites(code, kinds)]
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return {"sites": sites}, sites


def _cmd_moves_apply(args, code):
    validate(code)
    for line in args.moves:
        code = apply_move(code, MoveSite.parse(line))
    rendered = render_flat_link(code)
    return {"code": rendered}, [rendered]


def _cmd_moves_walk(args, code):
    final, log = random_walk(code, args.steps, args.seed)
    moves, rendered = [s.describe() for s in log], render_flat_link(final)
    # log lines go out as comments, so this output is itself a
    # readable code and pipes straight into any other command
    return ({"code": rendered, "log": moves},
            itertools.chain((f"# {m}" for m in moves), [rendered]))


def _cmd_enumerate(args, code):
    # bounds come from flags here, so exceeding a cap is a usage problem
    try:
        lines = enumerate_lines(args.crossings, args.components)
    except (ValueError, InstanceTooLarge) as exc:
        raise _UsageError(str(exc)) from None
    return {"count": len(lines), "codes": lines}, lines


def _parse_limits(text: str) -> list[int]:
    fields = text.split(",")
    if len(fields) != 2:
        raise _UsageError("--limits takes COMPS,CROSSINGS")
    try:
        return [number(f) for f in fields]
    except ValueError:
        raise _UsageError(f"unreadable --limits {text!r}") from None


def _cmd_search(args, code):
    goal = SearchGoal(args.goal)
    limits = _DEFAULT_LIMITS[goal] if args.limits is None else args.limits
    # bounds come from a flag here, so a bad or too large one is a usage problem
    try:
        witness = search_examples(goal, *_parse_limits(limits))
    except (ValueError, InstanceTooLarge) as exc:
        raise _UsageError(str(exc)) from None
    if witness is None:
        return {"goal": goal.value, "witness": None}, ["no witness within limits"]
    rendered, inv = render_flat_link(witness), link_polynomial(witness)
    greedy = link_filamentation(witness)
    oracle = brute_force_filamentation(witness)
    return ({"goal": goal.value, "witness": rendered, "invariant": inv.to_json(),
             "filamentation": _filamentation(greedy)[0],
             "oracle": _filamentation(oracle)[0]},
            itertools.chain([f"witness: {rendered}"], _invariant_lines(inv), [
                "filamentation: " + ("none" if greedy is None else "found"),
                "oracle: " + ("none" if oracle is None else "found")]))


def _json(value, indent="\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    Takes str, int, bool and None, inside dicts with str keys, lists and
    tuples.  Any other type raises TypeError, even one that json.dumps
    writes, such as a float or an int key.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:  # not a bool, whose class is a subclass of int
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        # _quote raises TypeError on a key that is not a str
        items = [_quote(k) + ": " + (_quote(v) if type(v) is str else _json(v, inner))
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        # a string item is quoted inline: enumerate lists thousands of them
        items = [_quote(v) if type(v) is str else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    """Dispatch one command; returns the exit code instead of exiting."""
    stdin = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        # argparse prints --help to sys.stdout; send it to this run's out
        with contextlib.redirect_stdout(out):
            args = _parse_args(argv)
        code = _read_code(args, stdin) if "input" in args else None
        payload, lines = args.handler(args, code)
        if args.format == "json":
            print(_json(payload), file=out)
        else:
            for line in lines:
                print(line, file=out)
        return 0
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
