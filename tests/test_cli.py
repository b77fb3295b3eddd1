import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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

GOLDEN_LINK = "x+ a+ y- a- ; y+ x-"


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv, stdin=""):
    code, out, err = run_cli([*argv, "--format", "json"], stdin)
    assert code == 0, err
    return json.loads(out)


def test_validate_ok():
    code, out, err = run_cli(["validate"], "a+ b+ a- c- b- c+")
    assert code == 0
    assert "ok" in out and "3 crossing(s)" in out
    assert err == ""


def test_validate_json():
    payload = run_json(["validate"], GOLDEN_LINK)
    assert payload == {"ok": True, "components": 2, "crossings": 3}


def test_validate_bad_code_exits_2_and_names_crossing():
    code, out, err = run_cli(["validate"], "a+ b+ a-")
    assert code == 2
    assert "b" in err


@pytest.mark.parametrize("text", ["a+ b+", "a+ a+"])
def test_moves_walk_bad_code_exits_2_and_names_crossing(text):
    # random_walk validates its start code, so the command checks it once
    code, out, err = run_cli(["moves", "walk", "--steps", "5", "--seed", "1"], text)
    assert (code, out) == (2, "")
    assert "'a'" in err and "Traceback" not in err


def test_malformed_token_exits_2_and_names_token():
    code, _, err = run_cli(["invariant"], "a+ b* a-")
    assert code == 2
    assert "b*" in err


def test_usage_error_exits_1():
    code, _, err = run_cli(["no-such-command"])
    assert code == 1
    assert "usage error" in err
    code, _, err = run_cli(["moves", "walk", "--steps", "3"], "a+ a-")
    assert code == 1
    assert "--seed" in err


def test_help_exits_0():
    code, out, err = run_cli(["--help"])
    assert code == 0
    assert out.startswith("usage: flatlinks") and err == ""
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


@pytest.mark.parametrize("text,message", [
    ("a+ \udcff a-", "input is not UTF-8: byte 0xff at offset 3"),
    ("a+ a- # \udcff\n", "input is not UTF-8: byte 0xff at offset 8"),
    ("a+ \ud800 a-", "cannot read '\\ud800' at offset 3"),
])
def test_escaped_stdin_byte_exits_2_naming_the_byte(text, message):
    # sys.stdin under a C or POSIX locale hands a stray byte on as a surrogate
    out, err = io.StringIO(), io.StringIO()
    assert run(["validate"], stdin=io.StringIO(text), stdout=out, stderr=err) == 2
    assert out.getvalue() == ""
    assert err.getvalue() == f"error: {message}\n"


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


def test_invariant_text():
    code, out, _ = run_cli(["invariant"], "a+ b+ a- c- b- c+")
    assert code == 0
    assert "poly A: 2t - 2t^2" in out


def test_invariant_json_golden():
    payload = run_json(["invariant"], GOLDEN_LINK)
    assert payload["pairs"] == [{"a": "A", "b": "B", "coeff": 1}]
    assert payload["components"][0] == {"name": "A", "poly": {"1": -1}}
    assert payload["linking"] == [{"a": "A", "b": "B", "diff": 0}]


def test_invariant_text_reports_undefined_coeff():
    code, out, _ = run_cli(["invariant"], "A: x+ y+ ; B: x- y-")
    assert code == 0
    assert "linking A,B: 2 (flat linking number 1)" in out
    assert "coeff A,B: undefined (nonzero linking)" in out
    # unlinked pair, but A's sign total is +1
    code, out, _ = run_cli(["invariant"], "A: x+ y- z+ ; B: y+ x- ; C: z-")
    assert code == 0
    assert "linking A,B: 0 (flat linking number 0)" in out
    assert "coeff A,B: undefined (nonzero sign total)" in out


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


def test_linking():
    payload = run_json(["linking"], "A: x+ y+ ; B: x- y-")
    assert payload == {"linking": [{"a": "A", "b": "B", "diff": 2}]}
    code, out, _ = run_cli(["linking"], GOLDEN_LINK)
    assert code == 0 and "linking A,B: 0" in out


def test_filament_found():
    payload = run_json(["filament"], "a+ b+ a- b-")
    assert payload == {"mono": [], "bi": [["a", "b"]]}
    code, out, _ = run_cli(["filament"], "a+ b+ a- b-")
    assert code == 0 and "bi: a,b" in out


def test_filament_pairs_in_plus_end_order():
    # each bucket pairs by + end position; pairing by first occurrence
    # would print "bi: c1,c3 c2,c4" here
    code, out, _ = run_cli(["filament"], "c1- c2- c1+ c3- c4- c2+ c4+ c3+")
    assert code == 0
    assert out == "mono:\nbi: c1,c4 c2,c3\n"


def test_filament_none_is_an_answer():
    code, out, _ = run_cli(["filament"], GOLDEN_LINK)
    assert code == 0
    assert "no filamentation" in out
    payload = run_json(["filament"], GOLDEN_LINK)
    assert payload == {"exists": False}


def test_oracle_agrees_on_golden_cases():
    assert run_json(["oracle"], "a+ b+ a- b-") == {"mono": [], "bi": [["a", "b"]]}
    assert run_json(["oracle"], GOLDEN_LINK) == {"exists": False}


def test_moves_list_kinds_filter():
    code, out, _ = run_cli(["moves", "list", "--kinds", "r1_remove"], "a+ a-")
    assert code == 0
    assert out.splitlines() == ["r1_remove A 0 a"]
    payload = run_json(["moves", "list", "--kinds", "r1_remove,r2_remove"],
                       "a+ e+ f- a- f+ e-")
    assert payload == {"sites": ["r2_remove A,A 1,4 e,f"]}
    for kind in ("bogus", "r1_insert", "r2_insert"):
        code, out, err = run_cli(["moves", "list", "--kinds", kind], "a+ a-")
        assert code == 1 and out == ""
        assert kind in err
    # an empty field names no kind; it is not skipped
    for kinds in ("", ",,", "r1_remove,,r3"):
        assert run_cli(["moves", "list", "--kinds", kinds], "a+ a-") == (
            1, "", "usage error: unknown move kind ''\n"), kinds


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


def test_moves_apply():
    code, out, _ = run_cli(
        ["moves", "apply", "r1_insert A 1 - +-", "r1_remove A 1 _1"],
        "a+ a-")
    assert code == 0
    assert out.strip() == "a+ a-"


def test_moves_apply_stale_exits_2():
    code, _, err = run_cli(["moves", "apply", "r1_remove A 0 b"], "a+ a-")
    assert code == 2
    assert "b" in err


def test_moves_walk_text_output_is_pipeable():
    code, out, _ = run_cli(["moves", "walk", "--steps", "7", "--seed", "11"],
                           "a+ b+ a- c- b- c+")
    assert code == 0
    walked = parse_flat_link(out)
    original = parse_flat_link("a+ b+ a- c- b- c+")
    assert link_polynomial(walked) == link_polynomial(original)


def test_moves_walk_json_log_replays():
    payload = run_json(["moves", "walk", "--steps", "5", "--seed", "2"], "a+ a-")
    assert set(payload) == {"code", "log"}
    code, out, _ = run_cli(["moves", "apply", *payload["log"]], "a+ a-")
    assert code == 0
    assert out.strip() == payload["code"]


def test_moves_walk_rejects_negative_steps():
    # a usage error, found before the code is read, so an invalid code
    # exits 1 here too and not 2
    for text in ("a+ a-", "a+ b+"):
        code, out, err = run_cli(["moves", "walk", "--steps", "-3", "--seed", "0"],
                                 text)
        assert code == 1, text
        assert out == ""
        assert "--steps" in err


def test_enumerate():
    code, out, _ = run_cli(["enumerate", "--crossings", "1", "--components", "1"])
    assert code == 0
    assert out.splitlines() == ["c1- c1+"]
    payload = run_json(["enumerate", "--crossings", "2", "--components", "1"])
    assert payload["count"] == 4
    assert len(payload["codes"]) == 4
    # the bad bound came from a flag, so it is an argv problem
    code, _, err = run_cli(["enumerate", "--crossings", "9", "--components", "1"])
    assert code == 1
    assert "cap" in err


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


@pytest.mark.parametrize("argv,digest,lines", [
    (["enumerate", "--crossings", "4", "--components", "3", "--format", "json"],
     "7e77966bf0ca77e510279959461441edb3e7e02b061c65563ad966b34f7b1f43", 7349),
    (["enumerate", "--crossings", "5", "--components", "2"],
     "8ea96dee7f7e76c79b749010a3bd533c5cb8911fe1d6d5b702f027a092845bc9", 23244)])
def test_enumerate_output_bytes_frozen(argv, digest, lines):
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_search_nonzero_multi_component_text():
    code, out, _ = run_cli(["search", "nonzero-multi-component"])
    assert code == 0
    assert "witness:" in out
    assert "filamentation: none" in out


def test_search_none_within_limits_is_exit_0():
    code, out, _ = run_cli(["search", "zero-poly-no-filamentation",
                            "--limits", "2,3"])
    assert code == 0
    assert "no witness" in out
    payload = run_json(["search", "zero-poly-no-filamentation",
                        "--limits", "2,3"])
    assert payload == {"goal": "zero-poly-no-filamentation", "witness": None}


def test_search_rejects_bad_limits():
    for limits in ("", "2", "a,b", "2,3,10", "2,3,4,5"):
        code, _, err = run_cli(["search", "zero-poly-no-filamentation",
                                "--limits", limits])
        assert code == 1, limits
    # an empty value is given, not absent: it does not fall back to the default
    assert run_cli(["search", "nonzero-multi-component", "--limits", ""]) == (
        1, "", "usage error: --limits takes COMPS,CROSSINGS\n")
    # the = form: argparse reads "--limits -1,3" as a missing argument
    assert run_cli(["search", "nonzero-multi-component", "--limits=2,-1"]) == (
        1, "", "usage error: unreadable --limits '2,-1'\n")
    assert run_cli(["search", "nonzero-multi-component", "--limits", "3000,0"]) == (
        1, "", "usage error: 3000 components exceeds the cap of 12\n")
    code, _, err = run_cli(["search", "zero-poly-no-filamentation",
                            "--jobs", "0"])
    assert code == 1
    code, _, err = run_cli(["search", "zero-poly-no-filamentation",
                            "--limits", "2,13"])
    assert code == 1
    assert "12" in err


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


def test_int_spellings_are_usage_errors():
    # each of these ran, or read 1_3 as 13, while flags were read with int()
    for argv, message in [
        (["enumerate", "--crossings", "\uff12", "--components", "1"],
         "argument --crossings: invalid number value: '\uff12'"),
        (["moves", "walk", "--steps", "1_0", "--seed", "\u0663"],
         "argument --steps: invalid number value: '1_0'"),
        (["search", "zero-poly-no-filamentation", "--limits", "+2,\u0664"],
         "unreadable --limits '+2,\u0664'"),
        (["search", "nonzero-multi-component", "--limits", "1_3,0"],
         "unreadable --limits '1_3,0'"),
    ]:
        assert run_cli(argv, "a+ a-") == (1, "", f"usage error: {message}\n"), argv


def test_search_accepts_only_jobs_1():
    argv = ["search", "zero-poly-no-filamentation", "--limits", "2,4"]
    code, out, _ = run_cli(argv + ["--jobs", "1"])
    assert code == 0
    assert (code, out) == run_cli(argv)[:2]
    code, out, err = run_cli(argv + ["--jobs", "2"])
    assert code == 1 and out == ""
    assert "--jobs" in err and "Traceback" not in err


def test_enumerate_has_no_cap_flag():
    code, _, err = run_cli(["enumerate", "--crossings", "1", "--components", "1",
                            "--cap", "7"])
    assert code == 1
    assert "--cap" in err


def test_too_many_components_exits_1_without_traceback():
    # the last is inside both caps, but the enumeration bound refuses it
    for argv in (["enumerate", "--crossings", "0", "--components", "3000"],
                 ["search", "nonzero-multi-component", "--limits", "3000,0"],
                 ["enumerate", "--crossings", "4", "--components", "12"]):
        code, out, err = run_cli(argv)
        assert code == 1, argv
        assert out == ""
        assert "components exceeds" in err and "Traceback" not in err


def test_closed_stdout_exits_1_without_traceback():
    # enumerate (5, 1) prints about 120 KB, more than a pipe buffer holds,
    # so the command is still writing when the reader goes away
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
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


def test_search_unknown_goal_exits_1():
    code, _, err = run_cli(["search", "shortest-proof"])
    assert code == 1


def test_json_outputs_are_key_sorted():
    _, out, _ = run_cli(["invariant", "--format", "json"], GOLDEN_LINK)
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


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


UNBALANCED_LINK = "A: x+ y- z+ ; B: y+ x- ; C: z-"
NO_FILAMENTATION = ("no filamentation\n", {"exists": False})

# (code, argv) -> (complete text stdout, JSON payload)
FULL_OUTPUTS = {
    (GOLDEN_LINK, "validate"): (
        "ok: 2 component(s), 3 crossing(s)\n",
        {"ok": True, "components": 2, "crossings": 3}),
    (GOLDEN_LINK, "invariant"): (
        "poly A: -t\n"
        "poly B: 0\n"
        "linking A,B: 0 (flat linking number 0)\n"
        "coeff A,B: 1\n",
        {"components": [{"name": "A", "poly": {"1": -1}},
                        {"name": "B", "poly": {}}],
         "linking": [{"a": "A", "b": "B", "diff": 0}],
         "pairs": [{"a": "A", "b": "B", "coeff": 1}]}),
    (GOLDEN_LINK, "linking"): (
        "linking A,B: 0 (flat linking number 0)\n",
        {"linking": [{"a": "A", "b": "B", "diff": 0}]}),
    (GOLDEN_LINK, "filament"): NO_FILAMENTATION,
    (GOLDEN_LINK, "oracle"): NO_FILAMENTATION,
    (GOLDEN_LINK, "moves list"): ("", {"sites": []}),
    (UNBALANCED_LINK, "validate"): (
        "ok: 3 component(s), 3 crossing(s)\n",
        {"ok": True, "components": 3, "crossings": 3}),
    (UNBALANCED_LINK, "invariant"): (
        "poly A: 0\n"
        "poly B: 0\n"
        "poly C: 0\n"
        "linking A,B: 0 (flat linking number 0)\n"
        "coeff A,B: undefined (nonzero sign total)\n"
        "linking A,C: 1 (flat linking number 0.5)\n"
        "coeff A,C: undefined (nonzero linking)\n"
        "linking B,C: 0 (flat linking number 0)\n"
        "coeff B,C: undefined (nonzero sign total)\n",
        {"components": [{"name": "A", "poly": {}}, {"name": "B", "poly": {}},
                        {"name": "C", "poly": {}}],
         "linking": [{"a": "A", "b": "B", "diff": 0},
                     {"a": "A", "b": "C", "diff": 1},
                     {"a": "B", "b": "C", "diff": 0}],
         "pairs": []}),
    (UNBALANCED_LINK, "linking"): (
        "linking A,B: 0 (flat linking number 0)\n"
        "linking A,C: 1 (flat linking number 0.5)\n"
        "linking B,C: 0 (flat linking number 0)\n",
        {"linking": [{"a": "A", "b": "B", "diff": 0},
                     {"a": "A", "b": "C", "diff": 1},
                     {"a": "B", "b": "C", "diff": 0}]}),
    (UNBALANCED_LINK, "filament"): NO_FILAMENTATION,
    (UNBALANCED_LINK, "oracle"): NO_FILAMENTATION,
    (UNBALANCED_LINK, "moves list"): (
        "r2_remove A,B 0,0 x,y\n", {"sites": ["r2_remove A,B 0,0 x,y"]}),
}


@pytest.mark.parametrize("text,command", FULL_OUTPUTS)
def test_full_output_in_both_formats(text, command):
    expected_text, payload = FULL_OUTPUTS[text, command]
    argv = command.split()
    assert run_cli(argv, text) == (0, expected_text, "")
    assert run_cli([*argv, "--format", "text"], text) == (0, expected_text, "")
    expected_json = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert run_cli([*argv, "--format", "json"], text) == (0, expected_json, "")


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
