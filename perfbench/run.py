"""Benchmark of the flatlinks command line, run in-process.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src/`` and driven through ``flatlinks.cli.run`` in this one
process, so interpreter start-up does not swamp the numbers; searches
run with ``--jobs 1``.  Every answer is checked (``checks.py``).  With
``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced pass (``tracer.py``) and of the benchmark's own probe calls.
Workloads and strata are defined in ``corpus.py``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import statistics
import sys
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path
from random import Random
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 5
# On a shared 2-vCPU VM (2.0 GHz Xeon), other processes slow every call
# by up to 1.8 times, in stretches of seconds to minutes.  Each timed call
# is scaled by NOMINAL_CALIBRATION_S over the time a fixed pure-Python loop
# takes just before and just after it, so the times read as on a machine
# where that loop takes NOMINAL_CALIBRATION_S (that VM, uncontended).
NOMINAL_CALIBRATION_S = 0.0008
CALIBRATION_ROUNDS = 2000
MIN_CALLS = 100  # invariant and filament calls per run, for a p90
MIN_PASSES = 3  # repeats of every call, for its median
SCALING_REPS = 3
LAYERS = ("gausscode", "invariant", "filament", "moves", "generate", "cli")


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked (no package, no expectations)."""


def load_expected() -> dict:
    path = HERE / "expected.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from None


def import_package():
    """Import flatlinks afresh from the checkout's src/ and return it."""
    if not (SRC / "flatlinks" / "__init__.py").is_file():
        raise BenchmarkError(f"no package at {SRC / 'flatlinks'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "flatlinks"]:
        del sys.modules[name]
    fl = importlib.import_module("flatlinks")
    importlib.import_module("flatlinks.cli")
    if Path(fl.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchmarkError(f"flatlinks imported from {fl.__file__}, not {SRC}")
    return fl


def calibrate() -> float:
    """Seconds a fixed pure-Python loop (dict, list, str work) takes now."""
    start = perf_counter()
    counts: dict[int, int] = {}
    pairs = []
    for i in range(CALIBRATION_ROUNDS):
        k = i % 97
        counts[k] = counts.get(k, 0) + i
        pairs.append((k, str(i)))
    pairs.sort()
    return perf_counter() - start


class Scaler:
    """Scales a measured time by the calibration loops around it: call
    ``mark`` just before the measured work and ``scale`` just after."""

    def __init__(self):
        self.loops: list[float] = []

    def mark(self) -> None:
        self.loops.append(calibrate())

    def factor(self) -> float:
        self.loops.append(calibrate())
        return 2 * NOMINAL_CALIBRATION_S / (self.loops[-2] + self.loops[-1])

    def scale(self, seconds: float) -> float:
        return seconds * self.factor()

    def timed(self, fn, *args):
        """Call ``fn``; returns its result and its scaled seconds."""
        self.mark()
        start = perf_counter()
        result = fn(*args)
        return result, self.scale(perf_counter() - start)


def setup(workload, seed: int, expected: dict, tiny: bool):
    """Import the package and generate this run's inputs; returns the
    seconds taken, the package, the drawn entries and the op list."""
    start = perf_counter()
    fl = import_package()
    entries = corpus.build_entries(fl, corpus.draw(workload, seed, tiny), expected)
    ops = corpus.build_ops(workload, entries, seed, tiny)
    return perf_counter() - start, fl, entries, ops


def call(fl, op) -> tuple[int, str, float]:
    """Run one CLI op; returns exit code, stdout and seconds taken."""
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(op.stdin)
    start = perf_counter()
    try:
        rc = fl.cli.run(list(op.argv), stdin, out, err)
    except Exception:  # a crash is a failed op, and the run goes on
        traceback.print_exc(file=sys.stderr)
        rc = -1
    return rc, out.getvalue(), perf_counter() - start


class Tally:
    """Attempted and failed answers over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"wrong answer: {what}", file=sys.stderr)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_checked(fl, op, expected, tally) -> float:
    """Run one op and check its answer; returns the seconds it took."""
    rc, out, seconds = call(fl, op)
    tally.add(checks.check(fl, op, rc, out, expected), f"{op.label} {' '.join(op.argv)}")
    return seconds


def timed_passes(fl, ops, expected, tally, seconds: float, tiny: bool, scaler):
    """Repeat whole passes until ``seconds`` have gone by, every p90 has
    its calls and every call its repeats; returns (op, seconds) records
    and the pass count."""
    records = []
    passes = 0
    start = perf_counter()
    while True:
        for op in ops:
            scaler.mark()
            took = run_checked(fl, op, expected, tally)
            records.append((op, scaler.scale(took)))
        passes += 1
        if tiny:
            break
        calls = [sum(op.group == g for op, _ in records) for g in ("invariant", "filament")]
        if (perf_counter() - start >= seconds and min(calls) >= MIN_CALLS
                and passes >= MIN_PASSES):
            break
    return records, passes


def peak_mib(fl, workload, ops) -> float:
    """Largest tracemalloc peak over one op of each label in
    ``workload.memory``, in a pass of its own."""
    sample = {}
    for op in ops:
        if op.label in workload.memory:
            sample.setdefault(op.label, op)
    peak = 0
    tracemalloc.start()
    try:
        for op in sample.values():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call(fl, op)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _quantile(values, q: int) -> float:
    """The q-th decile; a single value (tiny self-test runs) is its own."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(records, setup_times, peak, expected) -> dict:
    """Metrics over the calls of the timed passes, with scaled times.  A
    call counts with the median time of its repeats (one per pass), which
    damps what the calibration misses within a pass."""
    repeats = defaultdict(list)
    for op, seconds in records:
        repeats[op.key].append(seconds)
    typical = {key: statistics.median(times) for key, times in repeats.items()}
    by_group = defaultdict(list)
    for op, _ in records:
        by_group[op.group].append((op, typical[op.key]))

    def secs(group):
        return [s for _, s in by_group[group]]

    inv, fil = secs("invariant"), secs("filament")
    analyzed = by_group["invariant"] + by_group["filament"]
    classes = sum(expected["enumerate"][f"{op.shape[0]}x{op.shape[1]}"]
                  for op, _ in by_group["enumerate"])
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_mib": (peak, "MiB"),
        "invariant_ms_p50": (statistics.median(inv) * 1e3, "ms"),
        "invariant_ms_p90": (_quantile(inv, 9) * 1e3, "ms"),
        "filament_ms_p50": (statistics.median(fil) * 1e3, "ms"),
        "filament_ms_p90": (_quantile(fil, 9) * 1e3, "ms"),
        "crossings_per_s": (sum(op.entry.crossings for op, _ in analyzed)
                            / sum(s for _, s in analyzed), "crossings/s"),
        "walk_steps_per_s": (statistics.median(corpus.WALK_STEPS / t for t in secs("walk")),
                             "steps/s"),
        "moves_list_ms_p50": (statistics.median(secs("list")) * 1e3, "ms"),
        "search_s": (statistics.median(secs("search")), "s"),
        "enumerate_classes_per_s": (classes / sum(secs("enumerate")), "classes/s"),
    }


def probes(fl, workload, entries, scaling, expected, tally, scaler) -> dict:
    """The benchmark's own library calls behind the per-kind, per-size
    and per-shape rows: each finder kind on every moves code, the
    invariant of one balanced knot per size, and each enumeration shape."""
    out = {}
    move_names = {s.name for s in workload.moves}
    codes = [fl.parse_flat_link(e.text) for (name, _), e in entries.items()
             if name in move_names]
    for kind in corpus.FINDER_KINDS:
        seconds = sites = 0
        for code in codes:
            found, took = scaler.timed(fl.find_move_sites, code, (kind,))
            sites += len(found)
            seconds += took
        out[f"moves.{kind}.find_ms"] = (seconds * 1e3, "ms")
        out[f"moves.{kind}.sites"] = (sites, "count")
    find_ms = sum(out[f"moves.{k}.find_ms"][0] for k in corpus.FINDER_KINDS)
    all_sites = sum(out[f"moves.{k}.sites"][0] for k in corpus.FINDER_KINDS)
    out["moves.find_ms_per_site"] = (find_ms / max(all_sites, 1), "ms")
    for entry in scaling:
        code = fl.parse_flat_link(entry.text)
        times = []
        for _ in range(SCALING_REPS):
            inv, took = scaler.timed(fl.link_polynomial, code)
            times.append(took)
        tally.add(entry.expect is not None and inv.to_json() == entry.expect["invariant"],
                  f"probe link_polynomial {entry.stratum}")
        size = entry.stratum.split("-")[1]
        out[f"invariant.us_per_crossing.n{size}"] = (
            statistics.median(times) * 1e6 / entry.crossings, "us")
    for c, k in corpus.ENUMERATE_SHAPES:
        codes, took = scaler.timed(lambda: list(fl.enumerate_small_codes(c, k)))
        tally.add(len(codes) == expected["enumerate"][f"{c}x{k}"], f"probe enumerate {c}x{k}")
        out[f"generate.enumerate_ms.{c}x{k}"] = (took * 1e3, "ms")
        out[f"generate.classes.{c}x{k}"] = (len(codes), "count")
    return out


def layer_metrics(tracer, untraced_s: float) -> dict:
    """Per-layer rows of the traced pass; span times carry the scale of
    the op they belong to."""
    by_name = defaultdict(list)
    self_s = defaultdict(float)
    for root, span in tracer.spans():
        by_name[span.name].append((span, root.scale))
        self_s[span.name.split(".")[0]] += span.self_seconds * root.scale

    def ms(name):
        return sum(span.seconds * scale for span, scale in by_name[name]) * 1e3

    def calls(name):
        return len(by_name[name])

    def results(name):
        return [span.result for span, _ in by_name[name]]

    filaments = results("filament.link_filamentation")
    ops_s = sum(root.seconds * root.scale for root in tracer.roots)
    out = {
        "gausscode.parse_ms": (ms("gausscode.parse"), "ms"),
        "gausscode.validate_ms": (ms("gausscode.validate"), "ms"),
        "gausscode.calls": (calls("gausscode.parse") + calls("gausscode.validate"), "count"),
        "invariant.link_polynomial_ms": (ms("invariant.link_polynomial"), "ms"),
        "invariant.calls": (calls("invariant.link_polynomial"), "count"),
        "filament.link_filamentation_ms": (ms("filament.link_filamentation"), "ms"),
        "filament.greedy_ms": (ms("filament.greedy"), "ms"),
        "filament.greedy_calls": (calls("filament.greedy"), "count"),
        "filament.found_ratio": (sum(filaments) / max(len(filaments), 1), "ratio"),
        "filament.oracle_ms": (ms("filament.oracle"), "ms"),
        "filament.oracle_calls": (calls("filament.oracle"), "count"),
        "moves.apply_ms": (ms("moves.apply"), "ms"),
        "moves.apply_calls": (calls("moves.apply"), "count"),
        "generate.candidates": (sum(results("generate.enumerate")), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (self_s[layer] * 1e3, "ms")
    out["trace.coverage_pct"] = (100 * (1 - self_s["cli"] / ops_s), "%")
    out["trace.overhead_ms"] = ((ops_s - untraced_s) * 1e3, "ms")
    return out


def breakdown(tracer) -> list[str]:
    """Per op label: total time and the three largest span names in it."""
    per_label = defaultdict(lambda: defaultdict(float))
    for root, span in tracer.spans():
        per_label[root.result][span.name] += span.seconds * root.scale
    lines = []
    for label, names in sorted(per_label.items(), key=lambda kv: -kv[1]["cli"]):
        total = names.pop("cli")
        top = sorted(names.items(), key=lambda kv: -kv[1])[:3]
        parts = ", ".join(f"{n} {100 * s / total:.0f}%" for n, s in top)
        lines.append(f"  {label:<24} {total * 1e3:10.1f} ms  {parts}")
    return lines


def traced_run(fl, workload, entries, ops, scaling, expected, tally, name, seed, scaler):
    """One untraced pass, the same pass traced, then the probes."""
    untraced_s = 0.0
    for op in ops:
        scaler.mark()
        untraced_s += scaler.scale(run_checked(fl, op, expected, tally))
    tracer = Tracer()
    tracer.install()
    try:
        for op in ops:
            scaler.mark()
            with tracer.op(op.label) as root:
                rc, out, _ = call(fl, op)
            root.scale = scaler.factor()
            tally.add(checks.check(fl, op, rc, out, expected), op.label)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, untraced_s)
    metrics.update(probes(fl, workload, entries, scaling, expected, tally, scaler))
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{name}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"labels": [r.result for r in tracer.roots],
                   "scales": [r.scale for r in tracer.roots],
                   "spans": tracer.dump()}, fh)
    return metrics, breakdown(tracer)


def scaling_entries(fl, seed: int, expected: dict) -> list:
    rng = Random(f"perfbench/scaling/{seed}")
    chosen = {name: [rng.randrange(corpus.ALL_STRATA[name].pool)]
              for name in corpus.SCALING_STRATA}
    return list(corpus.build_entries(fl, chosen, expected).values())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, expected: dict | None = None) -> dict:
    """One benchmark run; returns the result object and report lines.

    ``tiny`` draws one code per stratum and runs one pass, for the
    self-test; ``expected`` replaces the checked-in answers.
    """
    workload = corpus.WORKLOADS[name]
    expected = expected if expected is not None else load_expected()
    tally = Tally()
    setup_times = []
    scaler = Scaler()
    for _ in range(1 if trace else SETUP_REPS):
        scaler.mark()
        took, fl, entries, ops = setup(workload, seed, expected, tiny)
        setup_times.append(scaler.scale(took))
    report = [f"perfbench workload={name} seed={seed} trace={int(trace)} "
              f"ops_per_pass={len(ops)}"]
    if trace:
        scaling = scaling_entries(fl, seed, expected)
        metrics, lines = traced_run(fl, workload, entries, ops, scaling,
                                    expected, tally, name, seed, scaler)
        report += ["time by op label (traced pass):"] + lines
    else:
        start = perf_counter()
        records, passes = timed_passes(fl, ops, expected, tally, seconds, tiny, scaler)
        timed_s = perf_counter() - start
        peak = peak_mib(fl, workload, ops)
        metrics = end_to_end(records, setup_times, peak, expected)
        report.append(f"passes={passes} calls={len(records)} timed_s={timed_s:.1f} "
                      f"memory_pass_s={perf_counter() - start - timed_s:.1f} "
                      f"calibration_ms_median={statistics.median(scaler.loops) * 1e3:.3f} "
                      f"nominal={NOMINAL_CALIBRATION_S * 1e3:.3f}")
    report.append(f"attempted={tally.attempted} failed={tally.failed} "
                  f"error_rate={tally.error_rate:.6f}")
    report += [f"  {key:<34} {value:14.6f} {unit}" for key, (value, unit) in metrics.items()]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return {"result": result, "report": report, "error_rate": tally.error_rate}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(outcome["report"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
