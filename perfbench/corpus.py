"""Seeded inputs for the benchmark: code strata, pools and CLI operations.

Every input code belongs to a stratum (a generator and a target size).
A stratum has a fixed pool of entries whose answers at the commit that
defined the benchmark are checked in (``expected.json``); a run draws
``pick`` of the ``pool`` entries with the run's seed.  Drawing a fixed
number from every stratum keeps the size mix of a run constant, so the
seed changes which codes are measured but not how much work they are.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from random import Random

WALK_STEPS = 20
FINDER_KINDS = ("r1_remove", "r2_remove", "r3")
LIST_KINDS = ",".join(FINDER_KINDS)
SEARCH_GOAL = "zero-poly-no-filamentation"
SEARCH_LIMITS = "2,8"
SCALING_STRATA = ("knot-60", "knot-250", "knot-1000")
INSERT_ONLY = {"r1_insert": 1.0, "r2_insert": 1.0,
               "r1_remove": 0.0, "r2_remove": 0.0, "r3": 0.0}


@dataclass(frozen=True)
class Stratum:
    """A generator at one size: ``kind`` picks the shape, ``size`` the
    target crossing count; a run draws ``pick`` of ``pool`` entries."""

    name: str
    kind: str
    size: int
    pool: int
    pick: int

    @property
    def balanced(self) -> bool:
        return self.kind != "unb3"


def _strata(*rows):
    return tuple(Stratum(f"{kind}-{size}", kind, size, pool, pick)
                 for kind, size, pool, pick in rows)


# Balanced knots and 3-component links at three sizes, 2-component
# pair-only codes (the greedy matcher's worst case; 1000 crossings would
# take about 120 s a call), codes built by insert-only walks (they always
# have a filamentation) and unbalanced 3-component codes.
ANALYZE = _strata(
    ("knot", 60, 12, 8), ("knot", 250, 6, 4), ("knot", 1000, 3, 2),
    ("link3", 60, 12, 8), ("link3", 250, 6, 4), ("link3", 1000, 3, 2),
    ("pair", 60, 9, 6), ("pair", 250, 2, 1),
    ("fil", 60, 6, 4), ("fil", 250, 3, 2),
    ("unb3", 60, 6, 4), ("unb3", 250, 3, 2),
)
# Balanced 3-component codes; even pool entries carry a planted triangle
# so that the r3 finder returns sites.  A 20-step walk on them takes 0.2
# to 2.8 s, so a run holds ten walks, each repeated once per pass.
WALK = _strata(("walk3", 100, 12, 10))
# Balanced codes of 1 to 4 crossings on 1 to 3 components, the size the
# search scans.
TINY = _strata(("tiny", 4, 64, 48))


@dataclass(frozen=True)
class Workload:
    """Which strata feed each command group, and how often per pass.

    ``codes`` feed ``invariant`` and ``filament`` (``code_reps`` times
    each per pass), ``moves`` feed ``moves walk`` and ``moves list``,
    and every pass runs ``searches`` searches and one enumeration of
    each shape in ``shapes``.  The workload exists for one of these
    command groups; the others are guards, so that a change which helps
    one workload and hurts another shows on every workload.

    ``memory`` lists the op labels of the tracemalloc pass: the focus
    commands on inputs small enough to trace, since tracemalloc slows
    these calls 7 to 40 times (the knot-1000 invariant from 0.13 s to
    4.9 s, a walk on 130 crossings from 2.8 s to 29 s, a search from
    1 s to 7 s).
    """

    codes: tuple[Stratum, ...]
    code_reps: int
    moves: tuple[Stratum, ...]
    searches: int
    shapes: tuple[tuple[int, int], ...]
    memory: tuple[str, ...]


WORKLOADS = {
    "analyze": Workload(
        ANALYZE, 1, TINY, 1, ((4, 2),),
        tuple(f"{cmd}:{name}" for name in ("knot-250", "link3-250", "pair-60",
                                           "fil-250", "unb3-250")
              for cmd in ("invariant", "filament"))),
    "walk": Workload(WALK, 4, WALK, 1, ((4, 2),), ("list:walk3-100",)),
    "search": Workload(TINY, 1, TINY, 2, ((4, 2), (5, 1), (4, 3)), ("search",)),
}
ENUMERATE_SHAPES = ((4, 2), (5, 1), (4, 3))
ALL_STRATA = {s.name: s for s in ANALYZE + WALK + TINY}


def gen_seed(stratum: Stratum, index: int) -> int:
    return zlib.crc32(f"{stratum.name}/{index}".encode())


def digest(payload) -> str:
    """Short digest of a JSON value in canonical form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _split3(n: int, balanced: bool):
    """Self and pair counts of a 3-component code with about n crossings:
    half pair crossings, spread evenly."""
    per_pair = 2 * round(n / 12) if balanced else round(n / 6)
    rest = n - 3 * per_pair
    selfs = [rest // 3 + (1 if i < rest % 3 else 0) for i in range(3)]
    return selfs, {(0, 1): per_pair, (0, 2): per_pair, (1, 2): per_pair}


def _tiny_spec(fl, rng: Random):
    k = rng.randint(1, 3)
    budget = rng.randint(1, 4)
    selfs = [0] * k
    pairs: dict = {}
    slots = [(i, j) for i in range(k) for j in range(i + 1, k)]
    while budget > 0:
        if slots and budget >= 2 and rng.random() < 0.5:
            key = rng.choice(slots)
            pairs[key] = pairs.get(key, 0) + 2
            budget -= 2
        else:
            selfs[rng.randrange(k)] += 1
            budget -= 1
    return fl.GenSpec.build(k, selfs, pairs, seed=rng.getrandbits(32),
                            balanced=True)


def _plant_triangle(text: str, rng: Random) -> str:
    """Insert the spots ``t1+ t2-``, ``t2+ t3-``, ``t3+ t1-`` at three
    distinct gaps of one component; all three are self-crossings, so
    sign totals and linking differences do not change."""
    comps = [part.split() for part in text.split(";")]
    words = comps[rng.randrange(len(comps))]
    gaps = sorted(rng.sample(range(len(words) + 1), 3), reverse=True)
    for gap, spot in zip(gaps, (["t3+", "t1-"], ["t2+", "t3-"], ["t1+", "t2-"])):
        words[gap:gap] = spot
    return " ; ".join(" ".join(c) for c in comps)


def make_code(fl, stratum: Stratum, index: int) -> str:
    """Render pool entry ``index`` of a stratum; ``fl`` is the package."""
    seed = gen_seed(stratum, index)
    n = stratum.size
    kind = stratum.kind
    if kind == "fil":
        start = fl.parse_flat_link("A: ; B:")
        code, _ = fl.random_walk(start, round(n / 1.5), seed, INSERT_ONLY)
        return fl.render_flat_link(code)
    if kind == "knot":
        spec = fl.GenSpec.build(1, [n], {}, seed=seed, balanced=True)
    elif kind in ("link3", "walk3", "unb3"):
        selfs, pairs = _split3(n, kind != "unb3")
        spec = fl.GenSpec.build(3, selfs, pairs, seed=seed,
                                balanced=kind != "unb3")
    elif kind == "pair":
        spec = fl.GenSpec.build(2, [0, 0], {(0, 1): n}, seed=seed,
                                balanced=True)
    elif kind == "tiny":
        spec = _tiny_spec(fl, Random(seed))
    else:
        raise ValueError(f"unknown stratum kind {kind!r}")
    text = fl.render_flat_link(fl.random_flat_link(spec))
    if kind == "walk3" and index % 2 == 0:
        text = _plant_triangle(text, Random(seed))
    return text


@dataclass(frozen=True)
class Entry:
    stratum: str
    index: int
    text: str
    crossings: int
    expect: dict | None  # None: the generator no longer makes the pool code


@dataclass(frozen=True)
class Op:
    """One CLI call: its command group, argv, stdin and what to check."""

    group: str  # invariant | filament | walk | list | search | enumerate
    argv: tuple[str, ...]
    entry: Entry | None = None
    shape: tuple[int, int] | None = None

    @property
    def stdin(self) -> str:
        return self.entry.text if self.entry else ""

    @property
    def key(self) -> tuple:
        """Identity of the call: repeats of one key do the same work."""
        return (self.label, self.argv, self.entry.index if self.entry else None)

    @property
    def label(self) -> str:
        if self.entry:
            return f"{self.group}:{self.entry.stratum}"
        if self.shape:
            return f"{self.group}:{self.shape[0]}x{self.shape[1]}"
        return self.group


def crossing_count(text: str) -> int:
    return sum(1 for token in text.split() if token.endswith("+"))


def draw(workload: Workload, seed: int, tiny: bool = False) -> dict:
    """Pool indices per stratum for a run: ``pick`` of ``pool`` entries,
    or one entry in the tiny self-test mode."""
    rng = Random(f"perfbench/{seed}")
    chosen = {}
    for stratum in dict.fromkeys(workload.codes + workload.moves):
        k = 1 if tiny else stratum.pick
        chosen[stratum.name] = sorted(rng.sample(range(stratum.pool), k))
    return chosen


def build_entries(fl, chosen: dict, expected: dict) -> dict:
    """Generate the drawn codes; an entry whose text no longer matches the
    checked-in digest gets no expectation, so its ops fail their checks."""
    entries = {}
    for name, indices in chosen.items():
        stratum = ALL_STRATA[name]
        pool = expected["strata"][name]
        for i in indices:
            text = make_code(fl, stratum, i)
            expect = pool[i] if pool[i]["code"] == digest(text) else None
            entries[(name, i)] = Entry(name, i, text, crossing_count(text),
                                       expect)
    return entries


def build_ops(workload: Workload, entries: dict, seed: int,
              tiny: bool = False) -> list[Op]:
    """The op list of one pass, in a seeded order."""
    ops: list[Op] = []
    code_names = {s.name for s in workload.codes}
    move_names = {s.name for s in workload.moves}
    reps = 1 if tiny else workload.code_reps
    for (name, _), entry in entries.items():
        if name in code_names:
            for _ in range(reps):
                ops.append(Op("invariant", ("invariant", "--format", "json"), entry))
                ops.append(Op("filament", ("filament", "--format", "json"), entry))
        if name in move_names:
            walk_seed = str(entry.expect["walk_seed"]) if entry.expect else "0"
            ops.append(Op("walk", ("moves", "walk", "--steps", str(WALK_STEPS),
                                   "--seed", walk_seed, "--format", "json"), entry))
            ops.append(Op("list", ("moves", "list", "--kinds", LIST_KINDS,
                                   "--format", "json"), entry))
    for _ in range(workload.searches):
        ops.append(Op("search", ("search", SEARCH_GOAL, "--limits", SEARCH_LIMITS,
                                 "--seed", str(seed), "--jobs", "1",
                                 "--format", "json")))
    for c, k in workload.shapes:
        ops.append(Op("enumerate", ("enumerate", "--crossings", str(c),
                                    "--components", str(k), "--format", "json"),
                      shape=(c, k)))
    Random(f"perfbench/order/{seed}").shuffle(ops)
    return ops
