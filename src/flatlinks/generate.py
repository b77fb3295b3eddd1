"""Random code generation, exhaustive small-code enumeration, and
witness search for the two phenomena that separate the invariants:
a zero polynomial without any filamentation, and a many-component
link, every component sharing a crossing with another, whose pair
coefficient is nonzero.

Generation is seed-deterministic throughout.  Enumeration quotients the
raw codes by a rotation of each codeword plus one renaming of crossings
and components (component order and letter signs stay fixed; the
reference that decides this relation is in ``tests/helpers.py``) and
returns one representative per class in canonical order: it keeps each
filling that is its own least key, so no set of seen keys is needed
(orderly generation, after Read 1978 and McKay 1998).  Search scans
code shapes smallest-first in one process, verifying every candidate
with the exhaustive filamentation oracle rather than the greedy
constructor, so a returned witness is proof, not heuristic output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from random import Random

from .filament import ORACLE_CAP, InstanceTooLarge, brute_force_filamentation
from .gausscode import (
    PLUS,
    MINUS,
    Codeword,
    FlatLinkCode,
    FlatLinkError,
    Letter,
    default_component_name,
    validate,
)
from .invariant import link_polynomial

ENUMERATION_CAP = 6
# within ENUMERATION_CAP at most 12 components carry a letter; on 12
# components, 2 crossings enumerate (10,740 classes) in about 0.6 s and
# 3 crossings (580,800 classes) in about 46 s, on one 2-core VM
COMPONENT_CAP = 12


class InfeasibleSpec(FlatLinkError):
    pass


@dataclass(frozen=True)
class GenSpec:
    """Shape of a random code: how many crossings of each kind, where.

    self_counts[i] is the number of self-crossings of component i;
    pair_counts maps each component pair (i, j), i < j, to its crossing
    count.  With ``balanced`` set, every pair gets equally many + and -
    ends on each side, which forces all flat linking differences to 0
    (and with them every codeword's total sign).
    """

    self_counts: tuple[int, ...]
    pair_counts: tuple[tuple[tuple[int, int], int], ...] = ()
    seed: int = 0
    balanced: bool = False

    def __post_init__(self):
        k = len(self.self_counts)
        if any(m < 0 for m in self.self_counts):
            raise InfeasibleSpec("negative self-crossing count")
        seen = set()
        for (i, j), m in self.pair_counts:
            if not (0 <= i < j < k):
                raise InfeasibleSpec(f"bad component pair ({i}, {j})")
            if (i, j) in seen:
                raise InfeasibleSpec(f"duplicate component pair ({i}, {j})")
            seen.add((i, j))
            if m < 0:
                raise InfeasibleSpec("negative pair-crossing count")
            if self.balanced and m % 2:
                raise InfeasibleSpec(
                    f"balanced spec needs an even crossing count for ({i}, {j})")

    @classmethod
    def build(cls, components: int, self_counts=None, pair_counts=None,
              seed: int = 0, balanced: bool = False) -> "GenSpec":
        """Normalize loose arguments: self_counts may be omitted (all 0)
        and pair_counts may be a mapping with keys in either order."""
        if components < 0:
            raise InfeasibleSpec("negative component count")
        selfs = tuple(self_counts) if self_counts is not None else (0,) * components
        if len(selfs) != components:
            raise InfeasibleSpec("self_counts length differs from component count")
        pairs = {}
        for key, m in dict(pair_counts or {}).items():
            i, j = sorted(key)
            pairs[(i, j)] = pairs.get((i, j), 0) + m
        return cls(selfs, tuple(sorted(pairs.items())), seed, balanced)

    @property
    def component_count(self) -> int:
        return len(self.self_counts)

    @property
    def crossing_count(self) -> int:
        return sum(self.self_counts) + sum(m for _, m in self.pair_counts)


def random_flat_link(spec: GenSpec) -> FlatLinkCode:
    """A uniformly shuffled valid code with the spec's crossing counts.

    Crossing ids are c1, c2, ... in allocation order (self-crossings by
    component, then pair crossings by pair).  Deterministic in the seed.
    """
    rng = Random(spec.seed)
    pools: list[list[Letter]] = [[] for _ in range(spec.component_count)]
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"c{counter}"

    for i, m in enumerate(spec.self_counts):
        for _ in range(m):
            x = fresh()
            pools[i].append(Letter(x, PLUS))
            pools[i].append(Letter(x, MINUS))
    for (i, j), m in spec.pair_counts:
        if spec.balanced:
            plus_on_i = set(rng.sample(range(m), m // 2))
        else:
            plus_on_i = {t for t in range(m) if rng.random() < 0.5}
        for t in range(m):
            x = fresh()
            si, sj = (PLUS, MINUS) if t in plus_on_i else (MINUS, PLUS)
            pools[i].append(Letter(x, si))
            pools[j].append(Letter(x, sj))
    comps = []
    for i, pool in enumerate(pools):
        rng.shuffle(pool)
        comps.append(Codeword(default_component_name(i), tuple(pool)))
    return FlatLinkCode(tuple(comps))


def _cuts(total: int, parts: int) -> list[tuple[tuple[int, int], ...]]:
    """Every cut of ``total`` slots into ``parts`` (start, end) runs, by
    stars and bars: bar i at position b leaves a run ending at b - i."""
    if parts == 0:
        return [()] if total == 0 else []
    ends = ([b - i for i, b in enumerate(bars)] + [total]
            for bars in combinations(range(total + parts - 1), parts - 1))
    return [tuple(zip([0] + e[:-1], e)) for e in ends]


def _fillings(total: int):
    """Every way to fill ``total`` slots with the two ends of total/2
    chords, labels numbered by first occurrence, each end signed.

    First-occurrence labeling means every labeled sequence comes out
    exactly once; the sign of a chord's second end is forced.
    """

    def rec(out: list, open_: list):
        slot = len(out)
        if slot == total:
            if not open_:
                yield tuple(out)
            return
        for i, (label, sign) in enumerate(open_):
            out.append((label, -sign))
            yield from rec(out, open_[:i] + open_[i + 1:])
            out.pop()
        # feasible iff every open chord (incl. this one) still fits a
        # closing end; parity works out because slot == open (mod 2)
        if len(open_) + 2 <= total - slot:
            label = (slot + len(open_)) // 2 + 1  # chords started so far, plus one
            for sign in (PLUS, MINUS):
                out.append((label, sign))
                yield from rec(out, open_ + [(label, sign)])
                out.pop()

    yield from rec([], [])


def _is_least(parts: tuple[tuple[tuple[int, int], ...], ...]) -> bool:
    """True when no rotation of the codewords, relabeled by first
    occurrence, gives a key smaller than ``parts`` (its own key at
    rotation 0).  Component j is compared under each relabel map of the
    rotations that tie with ``parts`` on components 0..j-1."""
    maps: list[dict[int, int]] = [{}]
    for part in filter(None, parts):
        n = len(part)
        tied = []
        for relabel in maps:
            for r in range(n):
                m = dict(relabel)
                for i in range(n):
                    label, sign = part[(r + i) % n]
                    letter = (m.setdefault(label, len(m) + 1), sign)
                    if letter != part[i]:
                        if letter < part[i]:
                            return False
                        break
                else:
                    tied.append(m)
        maps = tied
    return True


def enumerate_small_codes(crossings: int, components: int) -> list[FlatLinkCode]:
    """One code per rotation/relabel class with exactly the given
    crossing and component counts, in canonical order.

    Each first-occurrence filling of the slots, cut into codewords, is
    kept when it is its own class's least key, so no class is met twice.
    The class count grows like (2n-1)!! 2^n, so more than
    ENUMERATION_CAP crossings or COMPONENT_CAP components raises
    InstanceTooLarge.
    """
    if crossings < 0 or components < 0:
        raise ValueError("counts must be nonnegative")
    if crossings > ENUMERATION_CAP:
        raise InstanceTooLarge(
            f"{crossings} crossings exceeds the enumeration cap of {ENUMERATION_CAP}")
    if components > COMPONENT_CAP:
        raise InstanceTooLarge(
            f"{components} components exceeds the cap of {COMPONENT_CAP}")
    cuts = _cuts(2 * crossings, components)
    keys = []
    for filling in _fillings(2 * crossings):
        for cut in cuts:
            parts = tuple(filling[lo:hi] for lo, hi in cut)
            if _is_least(parts):
                keys.append(parts)
    keys.sort()
    letters = {(x, s): Letter(f"c{x}", s)
               for x in range(1, crossings + 1) for s in (PLUS, MINUS)}
    names = [default_component_name(i) for i in range(components)]
    return [FlatLinkCode(tuple(Codeword(name, tuple(map(letters.get, part)))
                               for name, part in zip(names, key)))
            for key in keys]


class SearchGoal(str, Enum):
    ZERO_POLY_NO_FILAMENTATION = "zero-poly-no-filamentation"
    NONZERO_MULTI_COMPONENT = "nonzero-multi-component"


@dataclass(frozen=True)
class SearchLimits:
    """Bounds for search_examples: component and crossing maxima, plus
    how many random codes to try per shape past the enumeration cap."""

    max_components: int = 2
    max_crossings: int = 8
    samples: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.max_components < 0 or self.max_crossings < 0 or self.samples < 0:
            raise ValueError("limits must be nonnegative")
        if self.max_components > COMPONENT_CAP:
            raise InstanceTooLarge(
                f"{self.max_components} components exceeds the cap of {COMPONENT_CAP}")


def _is_witness(goal: SearchGoal, code: FlatLinkCode) -> bool:
    if goal is SearchGoal.ZERO_POLY_NO_FILAMENTATION:
        return (link_polynomial(code).is_zero
                and brute_force_filamentation(code) is None)
    if not any(c != 0 for _, c in link_polynomial(code).pair_coeffs):
        return False
    # a component sharing no crossing is split off (an empty circle, or a
    # kink that r1 empties), which would pass a smaller link off as a
    # bigger one
    catalog = validate(code)
    k = len(code.components)
    return all(any(catalog.pair_crossings(i, j) for j in range(k) if j != i)
               for i in range(k))


def _random_balanced_spec(crossings: int, components: int, seed: int) -> GenSpec:
    rng = Random(seed)
    pair_keys = list(combinations(range(components), 2))
    counts = {key: 0 for key in pair_keys}
    matched = rng.randint(0, crossings // 2) if pair_keys else 0
    for _ in range(matched):
        counts[pair_keys[rng.randrange(len(pair_keys))]] += 2
    selfs = [0] * components
    for _ in range(crossings - 2 * matched):
        selfs[rng.randrange(components)] += 1
    return GenSpec.build(components, selfs, counts,
                         seed=rng.randrange(2 ** 30), balanced=True)


def _stage_candidates(crossings: int, components: int,
                      limits: SearchLimits) -> list[FlatLinkCode]:
    if crossings <= ENUMERATION_CAP:
        return enumerate_small_codes(crossings, components)
    base = limits.seed * 1_000_003 + crossings * 10_007 + components * 101
    return [random_flat_link(_random_balanced_spec(crossings, components, base + s))
            for s in range(limits.samples)]


def search_examples(goal: SearchGoal | str,
                    limits: SearchLimits) -> FlatLinkCode | None:
    """Scan small codes for a witness of the goal; None if none in bounds.

    Shapes are visited smallest-first (crossings, then components) and
    candidates in canonical enumeration order; the first witness in that
    order is returned.  Knots cannot witness the zero-poly goal (for one
    component the polynomial decides filamentation), so that scan starts
    at two components.  A witness is verified with the exhaustive oracle.
    """
    goal = SearchGoal(goal)
    if limits.max_crossings > ORACLE_CAP:
        raise InstanceTooLarge(
            f"search beyond {ORACLE_CAP} crossings cannot be oracle-verified")
    least = 2 if goal is SearchGoal.ZERO_POLY_NO_FILAMENTATION else 3
    for crossings in range(limits.max_crossings + 1):
        for components in range(least, limits.max_components + 1):
            for code in _stage_candidates(crossings, components, limits):
                if _is_witness(goal, code):
                    return code
    return None
