import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flatlinks import link_polynomial, parse_flat_link
from flatlinks.cli import run

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


def test_file_input(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("a+ a-\n")
    code, out, _ = run_cli(["validate", str(path)])
    assert code == 0 and "1 crossing(s)" in out
    code, _, err = run_cli(["validate", str(tmp_path / "missing.txt")])
    assert code == 1
    assert "missing.txt" in err


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
    code, _, err = run_cli(["moves", "list", "--kinds", "bogus"], "a+ a-")
    assert code == 1


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
                            "--limits", "2,3,10"])
    assert code == 0
    assert "no witness" in out
    payload = run_json(["search", "zero-poly-no-filamentation",
                        "--limits", "2,3,10"])
    assert payload == {"goal": "zero-poly-no-filamentation", "witness": None}


def test_search_rejects_bad_limits():
    for limits in ("2", "a,b", "2,3,4,5"):
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
