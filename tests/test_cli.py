import io
import json
import os
import subprocess
import sys
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
    link_polynomial,
    parse_flat_link,
    random_flat_link,
    render_flat_link,
)
from flatlinks.cli import _build_parser, _print_invariant, run
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
            # argparse prints help to sys.stdout, not to run's stdout
            sys_out, sys_err = io.StringIO(), io.StringIO()
            with redirect_stdout(sys_out), redirect_stderr(sys_err):
                code, out, err = run_cli(argv, stdin)
            results.append((code, out, err, sys_out.getvalue(), sys_err.getvalue()))
        return results

    fresh = outcomes(fresh_parser=True)
    assert [r[0] for r in fresh] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert "usage:" in fresh[1][3]
    # twice on one parser, so that every call also follows itself
    _build_parser.cache_clear()
    assert outcomes(fresh_parser=False) + outcomes(fresh_parser=False) == fresh * 2


def test_file_input(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("a+ a-\n")
    code, out, _ = run_cli(["validate", str(path)])
    assert code == 0 and "1 crossing(s)" in out
    code, _, err = run_cli(["validate", str(tmp_path / "missing.txt")])
    assert code == 1
    assert "missing.txt" in err


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
        out = io.StringIO()
        _print_invariant(LinkInvariant((), (), ((("A", "B"), diff),)), out)
        lines.append(out.getvalue().splitlines()[0])
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
    code, _, err = run_cli(["moves", "walk", "--steps", "-3", "--seed", "0"],
                           "a+ a-")
    assert code == 1


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
    for limits in ("2", "a,b", "2,3,10", "2,3,4,5"):
        code, _, err = run_cli(["search", "zero-poly-no-filamentation",
                                "--limits", limits])
        assert code == 1, limits
    code, _, err = run_cli(["search", "zero-poly-no-filamentation",
                            "--jobs", "0"])
    assert code == 1
    code, _, err = run_cli(["search", "zero-poly-no-filamentation",
                            "--limits", "2,13"])
    assert code == 1
    assert "12" in err


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
    for argv in (["enumerate", "--crossings", "0", "--components", "3000"],
                 ["search", "nonzero-multi-component", "--limits", "3000,0"]):
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
