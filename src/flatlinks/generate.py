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
the code shapes smallest-first in one process, screening each code as
the enumeration emits it, and stops the enumeration at the witness.  A
zero-polynomial candidate is screened on the one table of index
buckets that ``validate`` (in ``gausscode``) files: the invariant's zero
test and the balance test for a filamentation both read it.  Only a
candidate that passes both goes to the exhaustive filamentation oracle,
which confirms it, so a returned witness is proof, not heuristic output.
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


class _Stop(Exception):
    """Unwinds the walk of ``_least_keys`` from the key that stopped it."""


def _least_keys(crossings: int, components: int, emit) -> tuple | None:
    """Pass to ``emit``, in ascending order, every key, cut into
    ``components`` codewords, that is the least of its rotation/relabel
    class; stop at the first key on which ``emit`` returns true and
    return that key, or return None once every key has been passed.

    A key is a tuple of codewords, each a tuple of letters, and the
    letter of chord ``label`` with sign ``s`` is the int
    ``2*label + (s is PLUS)``.  That code orders letters as their
    (label, sign) tuples do, with the - end first, so keys compare as
    they would in tuple form, and a chord's other end is ``letter ^ 1``.

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
    stacks, not copies per node; a map sends ``2*label`` to twice the
    new label, so a relabeled letter is the map's value plus the sign
    bit.
    """
    total = 2 * crossings
    if components == 0:
        return () if total == 0 and emit(()) else None
    out: list[int] = []      # every codeword's letters, run together
    parts: list[tuple] = []  # the finished codewords
    open_: list[int] = []    # the first ends of the open chords

    def relabel(m: dict, base: int, added: list) -> int:
        x = m.get(base)
        if x is None:
            x = m[base] = 2 * len(m) + 2
            added.append((m, base))
        return x

    def undo(added: list) -> None:
        for m, base in added:
            del m[base]

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
            letter = open_.pop(i)
            place(letter ^ 1, start, started, maps, live)
            open_.insert(i, letter)
        # feasible iff every open chord (incl. this one) still fits a
        # closing end; parity works out because slot == open (mod 2)
        if len(open_) + 2 <= total - slot:
            base = 2 * started + 2
            for letter in (base, base + 1):  # the - end, then the + end
                open_.append(letter)
                place(letter, start, started + 1, maps, live)
                open_.pop()

    def place(letter, start, started, maps, live) -> None:
        p = len(out) - start
        out.append(letter)
        sign = letter & 1
        base = letter ^ sign
        added: list = []
        kept = []
        # rotation p starts under every map, rotation 0 only under a
        # non-identity one; a new rotation gets its own map once it ties
        for m, r in live + [(m, p) for m in (maps if p else maps[1:])]:
            if r == p:
                x = m.get(base) or 2 * len(m) + 2
                if x + sign == out[start]:
                    m = {**m, base: x}
            else:
                x = relabel(m, base, added)
            y, t = x + sign, out[start + p - r]
            if y < t:
                undo(added)
                out.pop()
                return
            if y == t:
                kept.append((m, r))
        grow(start, started, maps, kept)
        undo(added)
        out.pop()

    def end_codeword(start, started, maps, live) -> None:
        slot = len(out)
        added: list = []
        # an empty codeword ties under every map it got
        carried = ([{x: x for x in range(2, 2 * started + 1, 2)}]
                   if slot > start else maps)
        for m, r in live:
            for i in range(r):
                letter = out[start + i]
                sign = letter & 1
                y = relabel(m, letter ^ sign, added) + sign
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
            key = tuple(parts) + ((),) * (components - len(parts))
            if emit(key):
                raise _Stop(key)
        else:
            grow(slot, started, carried, [])
        parts.pop()
        undo(added)

    try:
        grow(0, 0, [{}], [])
    except _Stop as stop:
        return stop.args[0]
    finally:
        # grow and place call each other through closure cells; emptying
        # grow's cell breaks that cycle, so emit and all it holds (every
        # emitted code) are freed on return, not at the next full collection
        del grow
    return None


def _scan(crossings: int, components: int, stop) -> FlatLinkCode | None:
    """Pass one code per rotation/relabel class of the shape to ``stop``,
    in canonical order; return the first code on which ``stop`` returns
    true, or None.  Raises as ``enumerate_small_codes`` documents."""
    if crossings < 0 or components < 0:
        raise ValueError("counts must be nonnegative")
    if crossings > ENUMERATION_CAP:
        raise InstanceTooLarge(
            f"{crossings} crossings exceeds the enumeration cap of {ENUMERATION_CAP}")
    if components > COMPONENT_CAP:
        raise InstanceTooLarge(
            f"{components} components exceeds the cap of {COMPONENT_CAP}")
    letters = {2 * x + (s is PLUS): Letter(f"c{x}", s)
               for x in range(1, crossings + 1) for s in (PLUS, MINUS)}
    names = [default_component_name(i) for i in range(components)]
    # codewords are immutable, so codes share the ones they have in common
    words: dict[tuple[int, tuple], Codeword] = {}

    def word(i: int, part: tuple) -> Codeword:
        w = words.get((i, part))
        if w is None:
            w = words[i, part] = Codeword(names[i], tuple(map(letters.get, part)))
        return w

    def code(key: tuple) -> FlatLinkCode:
        return FlatLinkCode(tuple(map(word, range(components), key)))

    key = _least_keys(crossings, components, lambda key: stop(code(key)))
    return None if key is None else code(key)


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
    codes: list[FlatLinkCode] = []
    _scan(crossings, components, codes.append)
    return codes


class SearchGoal(str, Enum):
    ZERO_POLY_NO_FILAMENTATION = "zero-poly-no-filamentation"
    NONZERO_MULTI_COMPONENT = "nonzero-multi-component"


def _is_witness(goal: SearchGoal, code: FlatLinkCode) -> bool:
    if goal is SearchGoal.ZERO_POLY_NO_FILAMENTATION:
        # screen on one table, linear in the code; the exhaustive oracle
        # confirms the survivor, so a screening fault could only skip a
        # witness, never return a false one.  Zero linking differences
        # force every sign total to 0, so then every pair coefficient is
        # published and the balance test needs no check of the totals
        buckets = validate(code).buckets
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


def search_examples(goal: SearchGoal | str, max_components: int,
                    max_crossings: int) -> FlatLinkCode | None:
    """Scan small codes for a witness of the goal; None if none in bounds.

    Shapes are visited smallest-first (crossings, then components) and
    candidates in canonical enumeration order, each screened as it is
    built; the first witness in that order is returned, and no class
    past it is enumerated.  Knots cannot witness the zero-poly goal (for one
    component the polynomial decides filamentation), so that scan starts
    at two components.  For that goal each candidate is screened by the
    zero test and the balance test on its one table of index buckets,
    and the exhaustive oracle confirms the candidate that passes both,
    so a returned witness is always oracle-verified.  Both goals have a
    witness at 4 crossings, so no scan enumerates a larger shape; past
    ENUMERATION_CAP crossings enumeration would raise InstanceTooLarge.
    Negative bounds raise ValueError, and bounds past COMPONENT_CAP or
    ORACLE_CAP raise InstanceTooLarge before any scan.
    """
    if max_components < 0 or max_crossings < 0:
        raise ValueError("limits must be nonnegative")
    if max_components > COMPONENT_CAP:
        raise InstanceTooLarge(
            f"{max_components} components exceeds the cap of {COMPONENT_CAP}")
    if max_crossings > ORACLE_CAP:
        raise InstanceTooLarge(
            f"search beyond {ORACLE_CAP} crossings cannot be oracle-verified")
    goal = SearchGoal(goal)
    least = 2 if goal is SearchGoal.ZERO_POLY_NO_FILAMENTATION else 3
    for crossings in range(max_crossings + 1):
        for components in range(least, max_components + 1):
            code = _scan(crossings, components,
                         lambda code: _is_witness(goal, code))
            if code is not None:
                return code
    return None
