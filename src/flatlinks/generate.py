"""Random code generation, exhaustive small-code enumeration, and
witness search for the two phenomena that separate the invariants:
a zero polynomial without any filamentation, and a many-component
link, every component sharing a crossing with another, whose pair
coefficient is nonzero.

Generation is seed-deterministic throughout.  Enumeration quotients the
raw codes by a rotation of each codeword plus one renaming of crossings
and components (component order and letter signs stay fixed; the
reference that decides this relation is in ``tests/helpers.py``) and
returns one representative per class in canonical order.  It grows the
keys slot by slot and drops a prefix as soon as one of its rotations,
relabeled, is smaller on the letters placed so far, so what survives is
exactly each class's least key and no set of seen keys is needed
(orderly generation, after Read 1978 and McKay 1998).  Search scans
the enumerated code shapes smallest-first in one process.  A
zero-polynomial candidate is screened on its one table of
``index_buckets`` (in ``gausscode``): the invariant's zero test and the
balance test for a filamentation both read it.  Only a candidate that
passes both goes to the exhaustive filamentation oracle, which confirms
it, so a returned witness is proof, not heuristic output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random

from .filament import (
    ORACLE_CAP,
    InstanceTooLarge,
    _balanced,
    brute_force_filamentation,
)
from .gausscode import (
    PLUS,
    MINUS,
    Codeword,
    FlatLinkCode,
    FlatLinkError,
    Letter,
    _letter,
    default_component_name,
    index_buckets,
    validate,
)
from .invariant import _tally, link_polynomial

ENUMERATION_CAP = 6
# within ENUMERATION_CAP at most 12 components carry a letter; on 12
# components, 2 crossings enumerate (10,740 classes) in about 0.07 s and
# 3 crossings (580,800 classes) in about 5.5 s, on one 2-core VM
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
    The ids are well formed by construction, so the letters skip the
    identifier check.
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
            pools[i].append(_letter(x, PLUS))
            pools[i].append(_letter(x, MINUS))
    for (i, j), m in spec.pair_counts:
        if spec.balanced:
            plus_on_i = set(rng.sample(range(m), m // 2))
        else:
            plus_on_i = {t for t in range(m) if rng.random() < 0.5}
        for t in range(m):
            x = fresh()
            si, sj = (PLUS, MINUS) if t in plus_on_i else (MINUS, PLUS)
            pools[i].append(_letter(x, si))
            pools[j].append(_letter(x, sj))
    comps = []
    for i, pool in enumerate(pools):
        rng.shuffle(pool)
        comps.append(Codeword(default_component_name(i), tuple(pool)))
    return FlatLinkCode(tuple(comps))


def _least_keys(crossings: int, components: int) -> list[tuple]:
    """Every key, cut into ``components`` codewords, that is the least
    of its rotation/relabel class, in ascending order.

    A depth-first walk puts one signed chord end per slot, labels chords
    by first occurrence, and treats "end this codeword here" as one more
    branch, so every cut shares its prefixes.  The branches of a slot are
    tried smallest first (end the codeword, close an open chord, open a
    new one with its - end before its + end), so the keys come out
    sorted.  For the codeword being filled it keeps each rotation that
    still ties with the prefix, with its relabel map.  A placed letter
    advances each rotation by one comparison: a smaller one prunes the
    branch, a larger one drops the rotation.  At the codeword's end only
    the wrap-around letters remain, and the maps of the rotations that
    still tie are carried into the next codeword, where rotation 0 is
    tested under each of them too.  Maps and open chords are undo
    stacks, not copies per node.
    """
    total = 2 * crossings
    if components == 0:
        return [()] if total == 0 else []
    out: list[tuple[int, int]] = []  # every codeword's letters, run together
    parts: list[tuple] = []          # the finished codewords
    open_: list[tuple[int, int]] = []
    keys: list[tuple] = []

    def relabel(m: dict, label: int, added: list) -> int:
        x = m.get(label)
        if x is None:
            x = m[label] = len(m) + 1
            added.append((m, label))
        return x

    def undo(added: list) -> None:
        for m, label in added:
            del m[label]

    def grow(start: int, started: int, maps: list, live: list) -> None:
        # maps: the relabel maps under which the finished codewords tie,
        # the identity first; live: the (map, r) rotations of this
        # codeword that tie with its letters so far
        slot = len(out)
        if slot == total or len(parts) < components - 1:
            end_codeword(start, started, maps, live)
        if slot == total:
            return
        for i in range(len(open_)):
            label, sign = open_.pop(i)
            place((label, -sign), start, started, maps, live)
            open_.insert(i, (label, sign))
        # feasible iff every open chord (incl. this one) still fits a
        # closing end; parity works out because slot == open (mod 2)
        if len(open_) + 2 <= total - slot:
            for sign in (MINUS, PLUS):
                open_.append((started + 1, sign))
                place((started + 1, sign), start, started + 1, maps, live)
                open_.pop()

    def place(letter, start, started, maps, live) -> None:
        p = len(out) - start
        out.append(letter)
        label, sign = letter
        added: list = []
        kept = []
        # rotation p starts under every map, rotation 0 only under a
        # non-identity one; a new rotation gets its own map once it ties
        for m, r in live + [(m, p) for m in (maps if p else maps[1:])]:
            if r == p:
                x = m.get(label) or len(m) + 1
                if (x, sign) == out[start]:
                    m = {**m, label: x}
            else:
                x = relabel(m, label, added)
            t = out[start + p - r]
            if (x, sign) < t:
                undo(added)
                out.pop()
                return
            if (x, sign) == t:
                kept.append((m, r))
        grow(start, started, maps, kept)
        undo(added)
        out.pop()

    def end_codeword(start, started, maps, live) -> None:
        slot = len(out)
        added: list = []
        # an empty codeword ties under every map it got
        carried = [{x: x for x in range(1, started + 1)}] if slot > start else maps
        for m, r in live:
            for i in range(r):
                label, sign = out[start + i]
                y = (relabel(m, label, added), sign)
                t = out[slot - r + i]
                if y != t:
                    break
            else:
                carried.append(m)
                continue
            if y < t:
                undo(added)
                return
        parts.append(tuple(out[start:]))
        if slot == total:  # the codewords left are empty
            keys.append(tuple(parts) + ((),) * (components - len(parts)))
        else:
            grow(slot, started, carried, [])
        parts.pop()
        undo(added)

    grow(0, 0, [{}], [])
    return keys


def enumerate_small_codes(crossings: int, components: int) -> list[FlatLinkCode]:
    """One code per rotation/relabel class with exactly the given
    crossing and component counts, in canonical order.

    The slots are filled depth first, codeword ends included as
    branches, and a prefix is pruned as soon as a rotation of the
    codeword being filled beats it; the keys that reach the last slot
    are each their own class's least key, so no class is met twice.
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
    keys = _least_keys(crossings, components)
    letters = {(x, s): Letter(f"c{x}", s)
               for x in range(1, crossings + 1) for s in (PLUS, MINUS)}
    names = [default_component_name(i) for i in range(components)]
    # codewords are immutable, so codes share the ones they have in common
    words: dict[tuple[int, tuple], Codeword] = {}

    def word(i: int, part: tuple) -> Codeword:
        w = words.get((i, part))
        if w is None:
            w = words[i, part] = Codeword(names[i], tuple(map(letters.get, part)))
        return w

    return [FlatLinkCode(tuple(map(word, range(components), key))) for key in keys]


class SearchGoal(str, Enum):
    ZERO_POLY_NO_FILAMENTATION = "zero-poly-no-filamentation"
    NONZERO_MULTI_COMPONENT = "nonzero-multi-component"


@dataclass(frozen=True)
class SearchLimits:
    """Bounds for search_examples: component and crossing maxima."""

    max_components: int = 2
    max_crossings: int = 8

    def __post_init__(self):
        if self.max_components < 0 or self.max_crossings < 0:
            raise ValueError("limits must be nonnegative")
        if self.max_components > COMPONENT_CAP:
            raise InstanceTooLarge(
                f"{self.max_components} components exceeds the cap of {COMPONENT_CAP}")


def _is_witness(goal: SearchGoal, code: FlatLinkCode) -> bool:
    if goal is SearchGoal.ZERO_POLY_NO_FILAMENTATION:
        # screen on one table, linear in the code; the exhaustive oracle
        # confirms the survivor, so a screening fault could only skip a
        # witness, never return a false one.  Zero linking differences
        # force every sign total to 0, so then every pair coefficient is
        # published and the balance test needs no check of the totals
        buckets = index_buckets(validate(code))
        polys, pairs = _tally(buckets, len(code.components))
        return (not any(polys)
                and not any(d or c for d, c in pairs.values())
                and not _balanced(buckets)
                and brute_force_filamentation(code) is None)
    if not any(c != 0 for _, c in link_polynomial(code).pair_coeffs):
        return False
    # a component sharing no crossing is split off (an empty circle, or a
    # kink that r1 empties), which would pass a smaller link off as a
    # bigger one
    shared = set()
    for pc, _, mc, _ in validate(code).ends.values():
        if pc != mc:
            shared.update((pc, mc))
    return len(shared) == len(code.components)


def search_examples(goal: SearchGoal | str,
                    limits: SearchLimits) -> FlatLinkCode | None:
    """Scan small codes for a witness of the goal; None if none in bounds.

    Shapes are visited smallest-first (crossings, then components) and
    candidates in canonical enumeration order; the first witness in that
    order is returned.  Knots cannot witness the zero-poly goal (for one
    component the polynomial decides filamentation), so that scan starts
    at two components.  For that goal each candidate is screened by the
    zero test and the balance test on its one table of index buckets,
    and the exhaustive oracle confirms the candidate that passes both,
    so a returned witness is always oracle-verified.  Both goals have a
    witness at 4 crossings, so no scan enumerates a larger shape; past
    ENUMERATION_CAP crossings enumeration would raise InstanceTooLarge.
    """
    goal = SearchGoal(goal)
    if limits.max_crossings > ORACLE_CAP:
        raise InstanceTooLarge(
            f"search beyond {ORACLE_CAP} crossings cannot be oracle-verified")
    least = 2 if goal is SearchGoal.ZERO_POLY_NO_FILAMENTATION else 3
    for crossings in range(limits.max_crossings + 1):
        for components in range(least, limits.max_components + 1):
            for code in enumerate_small_codes(crossings, components):
                if _is_witness(goal, code):
                    return code
    return None
