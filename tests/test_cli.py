"""The command line, run in-process through ``cli.run``.

``ANSWERS`` is the one statement of what each command answers.  The
module imports whichever ``flatlinks`` is on the path, so the same table
checks the source tree and an installed copy.
"""

import gc
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import flatlinks
from flatlinks import (
    KINDS,
    GenSpec,
    LinkInvariant,
    MoveSite,
    apply_move,
    enumerate_small_codes,
    link_polynomial,
    parse_flat_link,
    random_flat_link,
    render_flat_link,
)
from flatlinks import generate
from flatlinks.cli import (
    _build_parser,
    _invariant_lines,
    _json,
    _parse_args,
    _UsageError,
    run,
)
from helpers import codes


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv, stdin=""):
    code, out, err = run_cli([*argv, "--format", "json"], stdin)
    assert code == 0, err
    return json.loads(out)


class Sha256(str):
    """The hex sha256 of an answer too long to spell out."""


class Answer(NamedTuple):
    """A command line and all it answers.

    ``argv`` is split as a shell splits it.  ``stdout`` is the whole
    output: its text, the payload of a JSON answer, or its Sha256.  An
    answer (exit 0) writes nothing to stderr; a failure writes one line
    holding ``stderr``.
    """

    argv: str
    stdin: str = ""
    exit: int = 0
    stdout: str | dict | Sha256 = ""
    stderr: str = ""


GOLDEN_LINK = "x+ a+ y- a- ; y+ x-"
NAMED_GOLDEN_LINK = "A: x+ a+ y- a- ; B: y+ x-"
README_KNOT = "a+ b+ a- c- b- c+"
# A's sign total is +1, so no pair coefficient is published
UNBALANCED_LINK = "A: x+ y- z+ ; B: y+ x- ; C: z-"
LINKED = "A: x+ y+ ; B: x- y-"
# the first nonzero-multi-component witness; its pair coefficients are
# read off the index buckets, one of each sign
MULTI_WITNESS = "c1- c2- c3+ c4+ ; c1+ c3- ; c2+ c4-"
ZERO_POLY_WITNESS = "c1- c2- c3+ c4+ ; c1+ c2+ c4- c3-"
# one site of each listed kind
MOVES_CODE = "A: x+ y- k+ k- e+ f- ; B: y+ z- f+ e- ; C: z+ x-"

NO_FILAMENTATION = {"exists": False}


def pairs(key, *values):
    return [{"a": a, "b": b, key: v} for (a, b), v in zip(
        [("A", "B"), ("A", "C"), ("B", "C")], values)]


def empty_polys(names):
    return [{"name": name, "poly": {}} for name in names]


ANSWERS = [
    # validate
    Answer("validate", README_KNOT, 0, "ok: 1 component(s), 3 crossing(s)\n"),
    Answer("validate", GOLDEN_LINK, 0, "ok: 2 component(s), 3 crossing(s)\n"),
    Answer("validate --format json", GOLDEN_LINK, 0,
           {"ok": True, "components": 2, "crossings": 3}),
    Answer("validate", UNBALANCED_LINK, 0, "ok: 3 component(s), 3 crossing(s)\n"),
    Answer("validate --format json", UNBALANCED_LINK, 0,
           {"ok": True, "components": 3, "crossings": 3}),
    Answer("validate --format json", "a+ a-", 0, Sha256(
        "1c4d7931620d60af3d5a96d6f35079613a6d0db0ec74cc8d6ecbddfeda5e0642")),
    Answer("validate", "a+ b+ a-", 2, "", "crossing 'b' appears only once"),
    Answer("validate", "a+ b* a-", 2, "", "cannot read 'b*'"),
    Answer("invariant", "a+ b* a-", 2, "", "cannot read 'b*'"),
    # several faults: the first crossing, by its first letter, that appears
    # once or more than twice is named, before any sign
    Answer("validate", "a+ b+ a+ a-", 2, "", "crossing 'a' appears 3 times"),
    Answer("validate", "b+ a+ a+ a-", 2, "", "crossing 'b' appears only once"),
    # sys.stdin under a C or POSIX locale hands a stray byte on as a surrogate
    Answer("validate", "a+ \udcff a-", 2, "",
           "error: input is not UTF-8: byte 0xff at offset 3\n"),
    Answer("validate", "a+ a- # \udcff\n", 2, "",
           "error: input is not UTF-8: byte 0xff at offset 8\n"),
    Answer("validate", "a+ \ud800 a-", 2, "",
           "error: cannot read '\\ud800' at offset 3\n"),

    # invariant
    Answer("invariant", README_KNOT, 0, "poly A: 2t - 2t^2\n"),
    *(Answer("invariant", code, 0,
             "poly A: -t\n"
             "poly B: 0\n"
             "linking A,B: 0 (flat linking number 0)\n"
             "coeff A,B: 1\n") for code in (GOLDEN_LINK, NAMED_GOLDEN_LINK)),
    Answer("invariant --format json", GOLDEN_LINK, 0,
           {"components": [{"name": "A", "poly": {"1": -1}},
                           {"name": "B", "poly": {}}],
            "linking": pairs("diff", 0), "pairs": pairs("coeff", 1)}),
    Answer("invariant", LINKED, 0,
           "poly A: 0\n"
           "poly B: 0\n"
           "linking A,B: 2 (flat linking number 1)\n"
           "coeff A,B: undefined (nonzero linking)\n"),
    Answer("invariant", UNBALANCED_LINK, 0,
           "poly A: 0\n"
           "poly B: 0\n"
           "poly C: 0\n"
           "linking A,B: 0 (flat linking number 0)\n"
           "coeff A,B: undefined (nonzero sign total)\n"
           "linking A,C: 1 (flat linking number 0.5)\n"
           "coeff A,C: undefined (nonzero linking)\n"
           "linking B,C: 0 (flat linking number 0)\n"
           "coeff B,C: undefined (nonzero sign total)\n"),
    Answer("invariant --format json", UNBALANCED_LINK, 0,
           {"components": empty_polys("ABC"), "linking": pairs("diff", 0, 1, 0),
            "pairs": []}),
    Answer("invariant", MULTI_WITNESS, 0,
           "poly A: 0\n"
           "poly B: 0\n"
           "poly C: 0\n"
           "linking A,B: 0 (flat linking number 0)\n"
           "coeff A,B: 1\n"
           "linking A,C: 0 (flat linking number 0)\n"
           "coeff A,C: -1\n"
           "linking B,C: 0 (flat linking number 0)\n"
           "coeff B,C: 0\n"),
    Answer("invariant --format json", MULTI_WITNESS, 0, Sha256(
        "9f423c3ec794096e1738cf970c10c392c4236c1a6f0aac3cc889a18ddd545b2d")),

    # linking
    Answer("linking", GOLDEN_LINK, 0, "linking A,B: 0 (flat linking number 0)\n"),
    Answer("linking --format json", GOLDEN_LINK, 0, {"linking": pairs("diff", 0)}),
    Answer("linking --format json", LINKED, 0, {"linking": pairs("diff", 2)}),
    Answer("linking", UNBALANCED_LINK, 0,
           "linking A,B: 0 (flat linking number 0)\n"
           "linking A,C: 1 (flat linking number 0.5)\n"
           "linking B,C: 0 (flat linking number 0)\n"),
    Answer("linking --format json", UNBALANCED_LINK, 0,
           {"linking": pairs("diff", 0, 1, 0)}),

    # filament and oracle: "no filamentation" is an answer, exit 0
    *(Answer(f"{command} --format json", "a+ b+ a- b-", 0,
             {"mono": [], "bi": [["a", "b"]]}) for command in ("filament", "oracle")),
    Answer("filament", "a+ b+ a- b-", 0, "mono:\nbi: a,b\n"),
    # each bucket pairs by + end position; pairing by first occurrence
    # would print "bi: c1,c3 c2,c4" here
    Answer("filament", "c1- c2- c1+ c3- c4- c2+ c4+ c3+", 0, "mono:\nbi: c1,c4 c2,c3\n"),
    *(Answer(command, code, 0, "no filamentation\n")
      for command in ("filament", "oracle")
      for code in (GOLDEN_LINK, NAMED_GOLDEN_LINK, UNBALANCED_LINK)),
    *(Answer(f"{command} --format json", code, 0, NO_FILAMENTATION)
      for command in ("filament", "oracle") for code in (GOLDEN_LINK, UNBALANCED_LINK)),
    # every sign total is zero, yet every pair is linked
    Answer("filament", "A: x+ z- ; B: x- y+ ; C: y- z+", 0, "no filamentation\n"),

    # moves list: no insertion sites unless asked, and they cannot be
    Answer("moves list", "a+ a-", 0, "r1_remove A 0 a\n"),
    Answer("moves list --kinds r1_remove", "a+ a-", 0, "r1_remove A 0 a\n"),
    # the argv the benchmark passes
    Answer("moves list --kinds r1_remove,r2_remove,r3 --format json", "a+ a-", 0,
           {"sites": ["r1_remove A 0 a"]}),
    Answer("moves list --kinds r1_remove,r2_remove --format json",
           "a+ e+ f- a- f+ e-", 0, {"sites": ["r2_remove A,A 1,4 e,f"]}),
    Answer("moves list", GOLDEN_LINK, 0, ""),
    Answer("moves list --format json", GOLDEN_LINK, 0, {"sites": []}),
    Answer("moves list", UNBALANCED_LINK, 0, "r2_remove A,B 0,0 x,y\n"),
    Answer("moves list --format json", UNBALANCED_LINK, 0,
           {"sites": ["r2_remove A,B 0,0 x,y"]}),
    Answer("moves list", MOVES_CODE, 0,
           "r1_remove A 2 k\nr2_remove A,B 4,2 e,f\nr3 A,B,C 0,0,0 x,y,z\n"),
    Answer("moves list --format json", MOVES_CODE, 0, Sha256(
        "5480a7bdc0299799f558fe04b9b70914d3b8d26562d30b219b5360564f2a6440")),
    Answer("moves list --kinds bogus", "a+ a-", 1, "", "unknown move kind 'bogus'"),
    *(Answer(f"moves list --kinds {kind}", "a+ a-", 1, "",
             f"insertion kind '{kind}' is not listed")
      for kind in ("r1_insert", "r2_insert")),
    # an empty field names no kind; it is not skipped
    *(Answer(f"moves list --kinds '{kinds}'", "a+ a-", 1, "",
             "usage error: unknown move kind ''\n")
      for kinds in ("", ",,", "r1_remove,,r3")),

    # moves apply: every site MOVES_CODE lists applies to it
    Answer("moves apply 'r1_remove A 2 k'", MOVES_CODE, 0,
           "x+ y- e+ f- ; y+ z- f+ e- ; z+ x-\n"),
    Answer("moves apply 'r2_remove A,B 4,2 e,f'", MOVES_CODE, 0,
           "x+ y- k+ k- ; y+ z- ; z+ x-\n"),
    Answer("moves apply 'r3 A,B,C 0,0,0 x,y,z'", MOVES_CODE, 0,
           "y- x+ k+ k- e+ f- ; z- y+ f+ e- ; x- z+\n"),
    Answer("moves apply 'r1_insert A 1 - +-' 'r1_remove A 1 _1'", "a+ a-", 0, "a+ a-\n"),
    Answer("moves apply 'r1_remove A 0 b'", "a+ a-", 2, "",
           "site names crossings b but the spots hold a"),
    Answer("moves apply 'r2_insert A,A 0,0 - + xy'", "a+ a-", 2, "",
           "r2_insert variant token 'xy' must be ef or fe"),

    # moves walk: the bytes of a 200-step walk and of the README walk, so a
    # walk draws, logs and picks ids exactly as before
    Answer("moves walk --steps 200 --seed 7 --format json", MOVES_CODE, 0, Sha256(
        "34ef2014430b617a691109aef3ac67fd5e970f14f39488375ce48e5abfb8cb17")),
    Answer("moves walk --steps 30 --seed 7", README_KNOT, 0, Sha256(
        "bdcee93d503aaa745acace42e2b84b52cbc2a4a3ac23cb1bc14a190d8cd6149d")),
    # random_walk validates its start code, so the command checks it once
    Answer("moves walk --steps 5 --seed 1", "a+ b+", 2, "",
           "crossing 'a' appears only once"),
    Answer("moves walk --steps 5 --seed 1", "a+ a+", 2, "",
           "both letters of crossing 'a' carry the same sign"),
    # a usage error, found before the code is read, so an invalid code
    # exits 1 here too and not 2
    *(Answer("moves walk --steps -3 --seed 0", code, 1, "",
             "argument --steps: invalid number value: '-3'")
      for code in ("a+ a-", "a+ b+")),
    Answer("moves walk --steps 3", "a+ a-", 1, "", "required: --seed"),
    # int() reads each of these
    Answer("moves walk --steps 1_0 --seed ٣", "a+ a-", 1, "",
           "usage error: argument --steps: invalid number value: '1_0'\n"),

    # enumerate: the bound came from a flag, so a bad one is an argv problem
    Answer("enumerate --crossings 1 --components 1", "", 0, "c1- c1+\n"),
    Answer("enumerate --crossings 2 --components 1 --format json", "", 0,
           {"count": 4, "codes": ["c1- c1+ c2- c2+", "c1- c1+ c2+ c2-",
                                  "c1- c2- c1+ c2+", "c1- c2+ c2- c1+"]}),
    # the one empty key of no crossings on no components
    Answer("enumerate --crossings 0 --components 0 --format json", "", 0,
           {"count": 1, "codes": [""]}),
    # Burnside counts 3,028, 55,540 (the cap shape) and 7,344, and the text
    # of the 23,244 classes of (5, 2)
    Answer("enumerate --crossings 5 --components 1 --format json", "", 0, Sha256(
        "12699af81b5756c745c0447a4359f5859387e6fbaf878146b27e61199c32d559")),
    Answer("enumerate --crossings 6 --components 1 --format json", "", 0, Sha256(
        "30981b319e151a92a631b1eacc099ff502e0d999c9901d280b401d1583277094")),
    Answer("enumerate --crossings 4 --components 3 --format json", "", 0, Sha256(
        "7e77966bf0ca77e510279959461441edb3e7e02b061c65563ad966b34f7b1f43")),
    Answer("enumerate --crossings 5 --components 2", "", 0, Sha256(
        "8ea96dee7f7e76c79b749010a3bd533c5cb8911fe1d6d5b702f027a092845bc9")),
    Answer("enumerate --crossings 9 --components 1", "", 1, "",
           "9 crossings exceeds the enumeration cap of 6"),
    Answer("enumerate --crossings 0 --components 3000", "", 1, "",
           "3000 components exceeds the cap of 12"),
    # inside both caps, but the class bound refuses each at once
    *(Answer(f"enumerate --crossings {n} --components 12", "", 1, "",
             f"{n} crossings on 12 components exceeds the enumeration bound")
      for n in (4, 6)),
    Answer("enumerate --crossings 1 --components 1 --cap 7", "", 1, "",
           "unrecognized arguments: --cap 7"),
    Answer("enumerate --crossings ２ --components 1", "", 1, "",
           "usage error: argument --crossings: invalid number value: '２'\n"),

    # search: the benchmark's flags, and its witness, the first one in
    # canonical order, so a screen or a prune that skipped an earlier one
    # fails here; it has a zero polynomial, and neither route finds a
    # filamentation
    Answer("search zero-poly-no-filamentation --limits 2,8 --seed 3 --jobs 1", "", 0,
           f"witness: {ZERO_POLY_WITNESS}\n"
           "poly A: 0\n"
           "poly B: 0\n"
           "linking A,B: 0 (flat linking number 0)\n"
           "coeff A,B: 0\n"
           "filamentation: none\n"
           "oracle: none\n"),
    Answer("search zero-poly-no-filamentation --limits 2,4 --seed 3 --jobs 1 "
           "--format json", "", 0,
           {"goal": "zero-poly-no-filamentation", "witness": ZERO_POLY_WITNESS,
            "invariant": {"components": empty_polys("AB"),
                          "linking": pairs("diff", 0),
                          "pairs": pairs("coeff", 0)},
            "filamentation": NO_FILAMENTATION, "oracle": NO_FILAMENTATION}),
    Answer("search zero-poly-no-filamentation --limits 2,8 --format json", "", 0, Sha256(
        "e1ea0defa7b06e766f3978a3f25a88cd02872a13215e4f40f49fe5c9f6133791")),
    Answer("search nonzero-multi-component", "", 0,
           f"witness: {MULTI_WITNESS}\n"
           "poly A: 0\n"
           "poly B: 0\n"
           "poly C: 0\n"
           "linking A,B: 0 (flat linking number 0)\n"
           "coeff A,B: 1\n"
           "linking A,C: 0 (flat linking number 0)\n"
           "coeff A,C: -1\n"
           "linking B,C: 0 (flat linking number 0)\n"
           "coeff B,C: 0\n"
           "filamentation: none\n"
           "oracle: none\n"),
    Answer("search nonzero-multi-component --format json", "", 0,
           {"goal": "nonzero-multi-component", "witness": MULTI_WITNESS,
            "invariant": {"components": empty_polys("ABC"),
                          "linking": pairs("diff", 0, 0, 0),
                          "pairs": pairs("coeff", 1, -1, 0)},
            "filamentation": NO_FILAMENTATION, "oracle": NO_FILAMENTATION}),
    # no witness within the limits is an answer, exit 0; up to 12
    # components and 3 crossings neither goal has one
    Answer("search zero-poly-no-filamentation --limits 2,3", "", 0,
           "no witness within limits\n"),
    *(Answer(f"search {goal} --limits {limits} --format json", "", 0,
             {"goal": goal, "witness": None})
      for goal, limits in [("zero-poly-no-filamentation", "2,3"),
                           ("zero-poly-no-filamentation", "12,3"),
                           ("nonzero-multi-component", "12,3")]),
    # --limits takes two fields of ASCII digits; an empty value is given,
    # not absent, so it does not fall back to the default
    *(Answer(f"search zero-poly-no-filamentation --limits '{limits}'", "", 1, "",
             "usage error: --limits takes COMPS,CROSSINGS\n")
      for limits in ("", "2", "2,3,10", "2,4,10", "2,3,4,5")),
    Answer("search nonzero-multi-component --limits ''", "", 1, "",
           "usage error: --limits takes COMPS,CROSSINGS\n"),
    # int() would read each of these, and 1_3 as 13, over the cap; the =
    # form, because argparse reads "--limits -1,3" as a missing argument
    *(Answer(f"search {goal} {flag}", "", 1, "", f"usage error: unreadable {flag}\n")
      for goal, flag in [("zero-poly-no-filamentation", "--limits 'a,b'"),
                         ("zero-poly-no-filamentation", "--limits '+2,٤'"),
                         ("nonzero-multi-component", "--limits '1_3,0'")]),
    Answer("search nonzero-multi-component --limits=2,-1", "", 1, "",
           "usage error: unreadable --limits '2,-1'\n"),
    Answer("search nonzero-multi-component --limits 3000,0", "", 1, "",
           "usage error: 3000 components exceeds the cap of 12\n"),
    Answer("search zero-poly-no-filamentation --limits 2,13", "", 1, "",
           "search beyond 12 crossings cannot be oracle-verified"),
    Answer("search zero-poly-no-filamentation --jobs 0", "", 1, "", "argument --jobs"),
    Answer("search shortest-proof", "", 1, "", "invalid choice: 'shortest-proof'"),
    Answer("no-such-command", "", 1, "",
           "usage error: argument command: invalid choice: 'no-such-command'"),
]


@pytest.mark.parametrize("answer", ANSWERS, ids=lambda a: " < ".join(
    filter(None, (a.argv, a.stdin))))
def test_answer(answer):
    argv = shlex.split(answer.argv)
    code, out, err = run_cli(argv, answer.stdin)
    if isinstance(answer.stdout, Sha256):
        out = hashlib.sha256(out.encode()).hexdigest()
    expected = answer.stdout
    if isinstance(expected, dict):
        expected = json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert (code, out) == (answer.exit, expected)
    if code:
        # one line, so no traceback
        assert answer.stderr in err and err.count("\n") == 1, err
    else:
        assert err == ""
        # --format only chooses how the one answer is printed; text is the default
        if "--format" not in argv:
            assert run_cli([*argv, "--format", "text"], answer.stdin) == \
                run_cli(argv, answer.stdin)


def test_help_exits_0():
    code, out, err = run_cli(["--help"])
    assert code == 0
    assert out.startswith("usage: flatlinks") and err == ""
    code, out, _ = run_cli(["moves", "walk", "--help"])
    assert code == 0 and out.startswith("usage: flatlinks moves walk")
    # moves apply takes no code file, and says where its code comes from
    code, out, _ = run_cli(["moves", "apply", "--help"])
    assert code == 0 and "[input]" not in out and "read from stdin" in out


def test_parser_is_built_once_and_keeps_no_state_between_calls():
    assert _build_parser() is _build_parser()
    calls = [
        (["no-such-command"], ""),
        (["--help"], ""),
        (["moves", "apply", "r1_insert A 1 - +-", "r1_remove A 1 _1"], "a+ a-"),
        (["moves", "list", "--kinds", "r1_remove"], "a+ a-"),
        (["invariant"], GOLDEN_LINK),
        (["filament", "--format", "json"], GOLDEN_LINK),
        (["search", "zero-poly-no-filamentation", "--limits", "2,4",
          "--jobs", "1"], ""),
        (["enumerate", "--crossings", "2", "--components", "1"], ""),
    ]

    def outcomes(fresh_parser):
        results = []
        for argv, stdin in calls:
            if fresh_parser:
                _build_parser.cache_clear()
            # run sends help to its own stdout; nothing reaches sys.stdout
            sys_out, sys_err = io.StringIO(), io.StringIO()
            with redirect_stdout(sys_out), redirect_stderr(sys_err):
                code, out, err = run_cli(argv, stdin)
            results.append((code, out, err, sys_out.getvalue(), sys_err.getvalue()))
        return results

    fresh = outcomes(fresh_parser=True)
    assert [r[0] for r in fresh] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert "usage:" in fresh[1][1]
    assert all(r[3] == r[4] == "" for r in fresh)
    # twice on one parser, so that every call also follows itself
    _build_parser.cache_clear()
    assert outcomes(fresh_parser=False) + outcomes(fresh_parser=False) == fresh * 2


# argv that names a command goes straight to that command's parser; each of
# these must parse, fail or print help exactly as the top-level parser does
DISPATCH_ARGVS = [
    [], ["-h"], ["--help"], ["--he"], ["bogus"], ["-h", "invariant"],
    ["--", "invariant"], ["--format", "json", "invariant"],
    ["validate"], ["validate", "code.txt"], ["validate", "a", "b"],
    ["validate", "-h"], ["validate", "--format", "xml"],
    ["validate", "--form", "json"], ["validate", "--fo=json", "-"],
    ["validate", "--", "--format"], ["validate", "--bogus"],
    ["invariant", "--format", "json"], ["invariant", "moves"],
    ["linking", "--format", "text", "-"], ["filament", "x", "--format=json"],
    ["oracle", "--format"], ["oracle", "--help"],
    ["moves"], ["moves", "-h"], ["moves", "bogus"], ["moves", "moves"],
    ["moves", "--kinds", "r3", "list"], ["moves", "list"],
    ["moves", "list", "--kinds", "r1_remove", "--format", "json", "x"],
    ["moves", "list", "--kin", "r3"], ["moves", "list", "--help"],
    ["moves", "list", "a", "b"], ["moves", "apply"],
    ["moves", "apply", "r1_remove A 0 a", "r1_remove A 0 b"],
    ["moves", "apply", "--", "-x"], ["moves", "apply", "-h"],
    ["moves", "walk", "--steps", "3"],
    ["moves", "walk", "--steps", "3", "--seed", "1", "extra"],
    ["moves", "walk", "--st", "3", "--se", "1"],
    ["moves", "walk", "--steps", "-3", "--seed", "0"],
    ["moves", "walk", "--steps", "x", "--seed", "0"], ["moves", "walk", "--help"],
    ["enumerate", "--crossings", "2", "--components", "1"],
    ["enumerate", "--crossings", "2"], ["enumerate", "--c", "2"],
    ["enumerate", "--cr", "2", "--co", "1", "--format", "json"],
    ["enumerate", "--crossings", "2", "--components", "1", "--cap", "7"],
    ["enumerate", "--crossings", "2", "--components", "1", "file"],
    ["enumerate", "-h"],
    ["search"], ["search", "zero-poly-no-filamentation"], ["search", "shortest-proof"],
    ["search", "nonzero-multi-component", "--limits", "3,6", "--seed", "3",
     "--jobs", "1", "--format", "json"],
    ["search", "nonzero-multi-component", "--jobs", "2"],
    ["search", "nonzero-multi-component", "--lim=2,4"],
    ["search", "nonzero-multi-component", "extra"],
    ["search", "--", "zero-poly-no-filamentation"], ["search", "--help"],
]


def parse_outcome(parse, argv):
    shown = io.StringIO()
    try:
        with redirect_stdout(shown):
            args = parse(argv)
    except _UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, shown.getvalue()
    values = vars(args)
    # the command words themselves are not read from the namespace
    values.pop("command", None)
    values.pop("moves_command", None)
    return "parsed", values, shown.getvalue()


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
def test_dispatch_parses_as_the_top_level_parser(argv):
    assert parse_outcome(_parse_args, argv) == \
        parse_outcome(_build_parser().parse_args, argv)


def test_file_input(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("a+ a-\n")
    code, out, _ = run_cli(["validate", str(path)])
    assert code == 0 and "1 crossing(s)" in out
    code, _, err = run_cli(["validate", str(tmp_path / "missing.txt")])
    assert code == 1
    assert "missing.txt" in err
    # a path open() refuses is a usage error too, not a ValueError
    assert run_cli(["validate", "a\x00b"]) == (
        1, "", "usage error: cannot read 'a\\x00b': embedded null byte\n")
    # moves apply reads stdin only: its move lines take every positional,
    # so a path at the end is read as one more, malformed, move line
    code, _, err = run_cli(["moves", "apply", "r1_remove A 1 k", str(path)],
                           "A: a+ k+ k- a-")
    assert code == 2 and "move line needs at least 4 fields" in err
    assert run_cli(["moves", "apply", "r1_remove A 1 k"], "A: a+ k+ k- a-") == (
        0, "a+ a-\n", "")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_input_exits_2_naming_the_byte(tmp_path, source):
    data = b"a+ \xff a-"
    if source == "file":
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        argv, stdin = ["validate", str(path)], io.StringIO()
    else:
        argv = ["validate"]
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                 errors="strict")
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, stdin=stdin, stdout=out, stderr=err) == 2
    assert out.getvalue() == ""
    assert "0xff" in err.getvalue() and "offset 3" in err.getvalue()


def test_flat_linking_number_is_exact():
    lines = []
    for diff in (200001, -200001, 0, 1, -1, 2, -3, 2000000):
        inv = LinkInvariant((), (), ((("A", "B"), diff),))
        lines.append(list(_invariant_lines(inv))[0])
    assert lines == [
        "linking A,B: 200001 (flat linking number 100000.5)",
        "linking A,B: -200001 (flat linking number -100000.5)",
        "linking A,B: 0 (flat linking number 0)",
        "linking A,B: 1 (flat linking number 0.5)",
        "linking A,B: -1 (flat linking number -0.5)",
        "linking A,B: 2 (flat linking number 1)",
        "linking A,B: -3 (flat linking number -1.5)",
        "linking A,B: 2000000 (flat linking number 1000000)",
    ]


def test_invariant_text_takes_linear_time_in_the_pairs():
    # 200 crossing-free components: a poly line each, and a linking line
    # and a coeff line for each of the 19,900 pairs
    text = " ; ".join(f"C{i}:" for i in range(200))
    start = time.perf_counter()
    code, out, _ = run_cli(["invariant"], text)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert len(out.splitlines()) == 40000
    assert elapsed < 2, elapsed


def test_moves_list_default_lists_no_insertion_sites():
    # insertion sites grow with the square of the code length (29,766 on
    # this 120-letter knot), so no listing includes them
    knot = random_flat_link(GenSpec.build(1, [60], {}, seed=1, balanced=True))
    code, out, _ = run_cli(["moves", "list"], render_flat_link(knot))
    assert code == 0
    lines = out.splitlines()
    assert all(line.split()[0] in ("r1_remove", "r2_remove", "r3")
               for line in lines)
    assert len(lines) <= sum(len(cw) for cw in knot.components)
    kinked = apply_move(knot, MoveSite.parse("r1_insert A 0 - +-"))
    code, out, _ = run_cli(["moves", "list"], render_flat_link(kinked))
    assert code == 0 and out.splitlines() == ["r1_remove A 0 _1"]


def test_moves_walk_text_output_is_pipeable():
    # the README's pipeline: the walked code reads back with the start
    # code's invariant
    code, walked, _ = run_cli(["moves", "walk", "--steps", "30", "--seed", "7"],
                              README_KNOT)
    assert code == 0
    assert run_cli(["invariant"], walked) == (0, "poly A: 2t - 2t^2\n", "")


def test_moves_walk_json_log_replays():
    payload = run_json(["moves", "walk", "--steps", "5", "--seed", "2"], "a+ a-")
    assert set(payload) == {"code", "log"}
    code, out, _ = run_cli(["moves", "apply", *payload["log"]], "a+ a-")
    assert code == 0
    assert out.strip() == payload["code"]


@pytest.mark.parametrize("crossings,components", [
    (0, 0), (0, 3), (1, 1), (2, 5), (3, 4), (4, 2), (2, 12)])
def test_enumerate_prints_the_library_classes(crossings, components):
    # the command renders the enumeration keys itself; its lines must be
    # the library's codes, rendered, in the library's order
    argv = ["enumerate", "--crossings", str(crossings), "--components", str(components)]
    expected = [render_flat_link(c) for c in enumerate_small_codes(crossings, components)]
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert out.splitlines() == expected
    assert run_json(argv) == {"count": len(expected), "codes": expected}


def test_enumerate_builds_no_code_per_class(monkeypatch):
    expected = [render_flat_link(c) for c in enumerate_small_codes(3, 2)]

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate built a code object")

    monkeypatch.setattr(generate, "FlatLinkCode", refuse)
    monkeypatch.setattr(generate, "Codeword", refuse)
    code, out, err = run_cli(["enumerate", "--crossings", "3", "--components", "2"])
    assert code == 0, err
    assert out.splitlines() == expected


def test_search_zero_poly_json_report():
    payload = run_json(["search", "zero-poly-no-filamentation"])
    assert payload["goal"] == "zero-poly-no-filamentation"
    witness = parse_flat_link(payload["witness"])
    assert link_polynomial(witness).is_zero
    assert payload["filamentation"] == {"exists": False}
    assert payload["oracle"] == {"exists": False}
    inv = payload["invariant"]
    assert all(entry["poly"] == {} for entry in inv["components"])


NUMBER_FLAGS = {
    "--steps": lambda v: ["moves", "walk", "--steps", v, "--seed", "0"],
    "--seed": lambda v: ["moves", "walk", "--steps", "1", "--seed", v],
    "--crossings": lambda v: ["enumerate", "--crossings", v, "--components", "1"],
    "--components": lambda v: ["enumerate", "--crossings", "1", "--components", v],
}


@pytest.mark.parametrize("value", ["\u0663", "\uff12", "1_0", "+1", " 3", "-1"])
@pytest.mark.parametrize("flag", NUMBER_FLAGS)
def test_number_flags_take_only_ascii_digits(flag, value):
    # int() reads each of these; a negative seed was only an alias of its
    # absolute value, and no count may be negative
    assert run_cli(NUMBER_FLAGS[flag](value), "a+ a-") == (
        1, "", f"usage error: argument {flag}: invalid number value: {value!r}\n")


def test_search_accepts_only_jobs_1():
    argv = ["search", "zero-poly-no-filamentation", "--limits", "2,4"]
    code, out, _ = run_cli(argv + ["--jobs", "1"])
    assert code == 0
    assert (code, out) == run_cli(argv)[:2]
    code, out, err = run_cli(argv + ["--jobs", "2"])
    assert code == 1 and out == ""
    assert "--jobs" in err and "Traceback" not in err


def test_closed_stdout_exits_1_without_traceback():
    # enumerate (5, 1) prints about 120 KB, more than a pipe buffer holds,
    # so the command is still writing when the reader goes away
    # the copy this module imported, the source tree or an installed one
    home = str(Path(flatlinks.__file__).parents[1])
    path = os.pathsep.join(filter(None, (home, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "flatlinks.cli", "enumerate", "--crossings", "5",
         "--components", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


json_leaves = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "caf\u00e9", "\u2028",
                     "\U0001f600", "\ud800"]),
    st.integers(), st.integers(min_value=-2**200, max_value=2**200),
    st.booleans(), st.none())
json_values = st.recursive(json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=5), inner, max_size=4)), max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    1.5, {1, 2}, [0.5], {1: "a"}, {True: "a"}, {"a": 1, 2: "b"}, ["a", {2: "b"}]])
def test_json_writer_refuses_other_types(value):
    # json.dumps would write a float, and sort int keys as ints before
    # writing them as strings; the writer raises instead
    with pytest.raises(TypeError):
        _json(value)


JSON_COMMANDS = (["validate"], ["invariant"], ["linking"], ["filament"],
                 ["oracle"], ["moves", "list"],
                 ["moves", "apply", "r1_insert A 1 - +-"],
                 ["moves", "walk", "--steps", "4", "--seed", "7"],
                 ["enumerate", "--crossings", "2", "--components", "1"],
                 ["search", "zero-poly-no-filamentation", "--limits", "2,4"])


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
def test_json_answer_leaves_no_reference_cycle(argv):
    # json.dumps with an indent left 33 objects in a cycle on every call
    argv = [*argv, "--format", "json"]
    assert run_cli(argv, GOLDEN_LINK)[0] == 0  # builds the parser once
    gc.collect()
    gc.disable()
    try:
        assert run_cli(argv, GOLDEN_LINK)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# fuzz: cli.run answers every input with exit 0, 1 or 2

FUZZ_COMMANDS = (["validate"], ["invariant"], ["linking"], ["filament"],
                 ["oracle"], ["moves", "list"],
                 ["moves", "walk", "--steps", "4", "--seed", "7"])

code_texts = st.one_of(
    st.text(st.sampled_from("abxy_+-;:#AB1 \n"), max_size=30),
    st.text(max_size=20),
    st.builds(render_flat_link, codes(max_crossings=5)),
)
move_tokens = st.sampled_from([*KINDS, "r9", "A", "B", "A,A", "A,B", "A,A,A",
                               "0", "1", "0,2", "0,2,4", "-1", "9", "a", "a,b",
                               "a,b,c", "-", "_1", "+-", "-+", "+", "ef", "fe"])
move_lines = st.one_of(st.lists(move_tokens, max_size=7).map(" ".join),
                       st.text(max_size=20))


def assert_clean_exit(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, stdin=stdin, stdout=out, stderr=err) in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FUZZ_COMMANDS), code_texts)
def test_fuzz_run_on_code_text(argv, text):
    assert_clean_exit(argv, io.StringIO(text))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FUZZ_COMMANDS), st.binary(max_size=30))
def test_fuzz_run_on_strictly_decoded_bytes(argv, data):
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    assert_clean_exit(argv, stdin)


@settings(max_examples=150, deadline=None)
@given(st.lists(move_lines, min_size=1, max_size=3), code_texts)
def test_fuzz_moves_apply(lines, text):
    assert_clean_exit(["moves", "apply", *lines], io.StringIO(text))
