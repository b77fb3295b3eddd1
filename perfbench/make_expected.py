"""Regenerate ``expected.json``, the answers the benchmark checks against.

    python3 perfbench/make_expected.py

Run from the root of a checkout whose answers are trusted.  Every pool
entry of every stratum is generated and run through the CLI once; the
answers on balanced codes are cross-checked against the independent
raw-letter oracles of ``tests/helpers.py`` (imported read-only), which
share no cyclic-walk arithmetic with the library:

- the invariant JSON is rebuilt from the oracles' polynomials, linking
  differences and first-fit pair sums;
- a filamentation that was found is re-verified with oracle arc counts;
- "no filamentation" is confirmed by a nonzero oracle invariant (a
  filamentation forces the whole invariant to zero) or, on codes of at
  most ORACLE_CROSSINGS crossings, by exhaustive search.

Answers that the oracles cannot confirm are counted and reported.
"""

from __future__ import annotations

import io
import json
import sys
import zlib
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import flatlinks as fl  # noqa: E402
import flatlinks.cli  # noqa: E402,F401
import helpers  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402

ORACLE_CROSSINGS = 10
KNOWN_CLASSES = {"4x2": 1548, "5x1": 3028, "4x3": 7344}


def cli_json(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    rc = fl.cli.run(list(argv), io.StringIO(stdin), out, err)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}: {err.getvalue()}")
    return json.loads(out.getvalue())


def oracle_invariant(code) -> dict:
    names = [cw.name for cw in code.components]
    comps = [{"name": names[i],
              "poly": {str(e): c for e, c in sorted(helpers.self_poly_oracle(code, i).items())}}
             for i in range(len(names))]
    pairs, linking = [], []
    for i, j in combinations(range(len(names)), 2):
        a, b = (i, j) if names[i] < names[j] else (j, i)
        diff = helpers.linking_diff_oracle(code, a, b)
        linking.append({"a": names[a], "b": names[b], "diff": diff})
        if diff == 0:
            plus, minus = helpers.pair_ends_oracle(code, a, b)
            coeff = helpers.matching_sum_oracle(code, a, b, list(zip(plus, minus)))
            pairs.append({"a": names[a], "b": names[b], "coeff": coeff})
    return {"components": sorted(comps, key=lambda c: c["name"]),
            "pairs": sorted(pairs, key=lambda p: (p["a"], p["b"])),
            "linking": sorted(linking, key=lambda p: (p["a"], p["b"]))}


def _part_ok(code, ends, part) -> bool:
    if len(part) == 1:
        (cp, pp), (cm, pm) = ends[part[0]][1], ends[part[0]][-1]
        return cp == cm and helpers.eta_oracle(code, cp, pp, pm) == 0
    x, y = part
    (cxp, pxp), (cxm, pxm) = ends[x][1], ends[x][-1]
    (cyp, pyp), (cym, pym) = ends[y][1], ends[y][-1]
    if cxp != cym or cxm != cyp or pxp == pym or pyp == pxm:
        return False
    return (helpers.eta_oracle(code, cxp, pxp, pym)
            + helpers.eta_oracle(code, cyp, pyp, pxm)) == 0


def oracle_verifies(code, found: dict) -> bool:
    ends = helpers.letter_ends(code)
    parts = [(x,) for x in found["mono"]] + [tuple(p) for p in found["bi"]]
    covered = [x for part in parts for x in part]
    return (sorted(covered) == sorted(ends)
            and all(_part_ok(code, ends, part) for part in parts))


def oracle_exists(code) -> bool:
    """Exhaustive search over partitions into oracle-checked parts."""
    ends = helpers.letter_ends(code)

    def solve(rest):
        if not rest:
            return True
        x, tail = rest[0], rest[1:]
        if _part_ok(code, ends, (x,)) and solve(tail):
            return True
        return any(_part_ok(code, ends, (x, y)) and solve(tail[:i] + tail[i + 1:])
                   for i, y in enumerate(tail))

    return solve(tuple(ends))


def is_zero(inv: dict) -> bool:
    return (all(not c["poly"] for c in inv["components"])
            and all(p["coeff"] == 0 for p in inv["pairs"])
            and all(p["diff"] == 0 for p in inv["linking"]))


def main() -> int:
    code_names = {s.name for w in corpus.WORKLOADS.values() for s in w.codes}
    move_names = {s.name for w in corpus.WORKLOADS.values() for s in w.moves}
    code_names.update(corpus.SCALING_STRATA)
    stats = {"entries": 0, "oracle_confirmed": 0, "unconfirmed": []}
    strata = {}
    for name, stratum in corpus.ALL_STRATA.items():
        pool = []
        for index in range(stratum.pool):
            text = corpus.make_code(fl, stratum, index)
            code = fl.parse_flat_link(text)
            entry = {"code": corpus.digest(text), "balanced": stratum.balanced,
                     "crossings": corpus.crossing_count(text)}
            if name in code_names and stratum.balanced:
                inv = cli_json(["invariant", "--format", "json"], text)
                fil = cli_json(["filament", "--format", "json"], text)
                if inv != oracle_invariant(code):
                    raise SystemExit(f"{name}/{index}: invariant disagrees with the oracles")
                found = fil != {"exists": False}
                if found and not oracle_verifies(code, fil):
                    raise SystemExit(f"{name}/{index}: filamentation fails the oracle")
                if entry["crossings"] <= ORACLE_CROSSINGS:
                    if oracle_exists(code) != found:
                        raise SystemExit(f"{name}/{index}: existence disagrees")
                    stats["oracle_confirmed"] += 1
                elif found or not is_zero(inv):
                    stats["oracle_confirmed"] += 1
                else:
                    stats["unconfirmed"].append(f"{name}/{index}")
                entry.update(invariant=inv, filament=found)
            if name in move_names:
                walk_seed = zlib.crc32(f"walk/{name}/{index}".encode()) % 100_000
                walk = cli_json(["moves", "walk", "--steps", str(corpus.WALK_STEPS),
                                 "--seed", str(walk_seed), "--format", "json"], text)
                listed = cli_json(["moves", "list", "--kinds", corpus.LIST_KINDS,
                                   "--format", "json"], text)
                entry.update(walk_seed=walk_seed, walk=corpus.digest(walk),
                             list=corpus.digest(listed))
                if not checks.walk_ok(fl, text, walk, entry):
                    raise SystemExit(f"{name}/{index}: walk does not replay")
            pool.append(entry)
            stats["entries"] += 1
        strata[name] = pool
        print(f"{name}: {len(pool)} entries", file=sys.stderr)

    search_argv = ["search", corpus.SEARCH_GOAL, "--limits", corpus.SEARCH_LIMITS,
                   "--jobs", "1", "--format", "json"]
    search = cli_json(search_argv + ["--seed", "0"])
    if search != cli_json(search_argv + ["--seed", "1"]):
        raise SystemExit("the search witness depends on --seed")
    witness = fl.parse_flat_link(search["witness"])
    if not is_zero(oracle_invariant(witness)) or oracle_exists(witness):
        raise SystemExit("the search witness fails the oracles")
    enumerate_counts = {}
    for c, k in corpus.ENUMERATE_SHAPES:
        got = cli_json(["enumerate", "--crossings", str(c), "--components", str(k),
                        "--format", "json"])["count"]
        if got != KNOWN_CLASSES[f"{c}x{k}"]:
            raise SystemExit(f"enumerate {c}x{k} gave {got} classes")
        enumerate_counts[f"{c}x{k}"] = got
    out = {"search": search, "enumerate": enumerate_counts, "strata": strata}
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(json.dumps(stats), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
