"""Self-test of the benchmark: wrong answers are counted, and every
metric named in BENCHMARK.json is emitted on every workload.

    python3 -m pytest perfbench/tests -q

Runs each workload at its tiny size (one code per stratum, one pass);
the whole file takes a minute or two, most of it in the enumerations.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_a_wrong_answer_is_counted():
    expected = copy.deepcopy(run.load_expected())
    for entry in expected["strata"]["knot-60"]:
        entry["invariant"]["components"][0]["poly"]["999"] = 1
    outcome = run.run_workload("analyze", seed=3, seconds=0, trace=False,
                               tiny=True, expected=expected)
    result = outcome["result"]
    assert result["failed"] == 1
    assert result["correct"] is False
    assert outcome["error_rate"] == pytest.approx(1 / result["attempted"])


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_every_named_metric_is_emitted(workload, trace):
    outcome = run.run_workload(workload, seed=5, seconds=0, trace=trace, tiny=True)
    result = outcome["result"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0, m["name"]


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(corpus.WORKLOADS)
