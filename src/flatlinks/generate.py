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
(orderly generation, after Read 1978 and McKay 1998).
``enumerate_small_codes`` is the library's path: it builds a code per
class.  The ``enumerate`` command prints ``enumerate_lines`` instead,
which renders each key from cached codeword texts and builds no code
object.

Search scans the code shapes smallest-first (crossings, then components)
in one process, screening each key as the enumeration emits it, and
stops the enumeration at the witness.  The first witness it meets is
minimal: every component shares a crossing with another.  The
nonzero-multi goal asks for that by definition.  For the zero-poly goal,
delete from a witness a component that shares no crossing (an empty
codeword, or one whose chords all close on itself).  The other codewords
keep their letters, so their index buckets, and the zero invariant read
off them, do not change.  The deleted component is a knot with sign
total 0 and a zero polynomial, so every bucket of it off index 0
balances and it has a filamentation of its own (the ``CrossingCatalog``
rule); a filamentation of the rest would extend to the whole, so the
rest has none.  The rest is thus a witness too, so it has at least two
components (a knot never is one), and its shape, with no more crossings
and fewer components, is scanned earlier.  So the first witness has no
such component.  Hence every codeword of the first witness has a chord
that occurs once in it, and, for the zero-poly goal, sign total 0 (the
sum of its component's linking differences, all zero in a witness); it
holds at least 2 letters for that goal and 1 for the other.  Since no
set of seen keys is kept, the search cuts the walk on what a prefix
already decides: each codeword that closes before the last slot must
pass that test (``_word_screen``) and leave that many letters for each
codeword after it, or no key below it is made.  The keys that remain
come out in the same order, so the search returns the same witness as a
scan of every class.  A (2, 8) zero-poly search screens 98 keys.  The
screen counts the key's index buckets by the rule the ``CrossingCatalog``
docstring (in ``gausscode``) states, on the int letters themselves, and
reads them through the invariant's own ``_tally``, so no code object
exists for the candidates it rejects.  Only a key that passes becomes a
code, and ``_is_witness`` confirms it by the goal's definition, through
the public invariant and the exhaustive filamentation oracle, so a
returned witness is proof, not heuristic output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb, factorial
from operator import getitem
from random import Random

from .filament import ORACLE_CAP, InstanceTooLarge, brute_force_filamentation
from .gausscode import (
    PLUS,
    MINUS,
    Codeword,
    FlatLinkCode,
    FlatLinkError,
    Letter,
    _component_text,
    _letter,
    default_component_name,
)
from .invariant import _tally, link_polynomial

ENUMERATION_CAP = 6
# 6 crossings give a letter to at most 12 components; what limits the
# work on a shape is _CLASS_BOUND
COMPONENT_CAP = 12
# the most classes a shape may have: n crossings on k components have at
# most B = (2n)!/n! * C(2n+k-1, k-1), the labeled keys (letter orders
# times cuts) over the n! relabelings, which act freely on them.  B is
# 8.6M at (6, 2) and 10.8M at (4, 8), whose 1.6M classes take seconds
# to walk; B(7, 1) is 17.3M, so a cap of 7 crossings needs a larger bound
_CLASS_BOUND = 10 ** 7


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


def _least_keys(crossings: int, components: int, emit,
                admit=None, shortest: int = 0) -> tuple | None:
    """Pass to ``emit``, in ascending order, every key, cut into
    ``components`` codewords, that is the least of its rotation/relabel
    class; stop at the first key on which ``emit`` returns true and
    return that key, or return None once every key has been passed.
    With ``admit`` given, a key is passed only if ``admit`` holds for
    each of its codewords that ends before the last slot; with
    ``shortest`` given, only if each codeword leaves at least that many
    letters for each codeword after it.  The walk skips the whole
    subtree below a codeword that fails either, and the keys that remain
    come out in the same order: whether a key is least depends on its
    own letters alone, not on the keys met before it.  Each codeword
    gets the slot it must end by when it starts, the last slot when
    ``shortest`` is 0, so the floor adds no test per letter.

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
    runs two loops, one comparison per rotation: the first advances each
    live rotation, relabeling the letter under that rotation's own map;
    the second starts the rotation at this slot under each carried map,
    which it reads without writing, and copies the map only for a
    rotation that ties.  A smaller letter prunes the branch, a larger
    one drops the rotation.  At the codeword's end only the wrap-around
    letters remain, and the maps of the rotations that still tie are
    carried into the next codeword, after the identity map on the chords
    started so far, where rotation 0 is tested under each of them too.
    The identity maps, one per count of started chords, are built once
    and shared read-only.  Maps and open chords are undo stacks, not
    copies per node; a map sends ``2*label`` to twice the new label, so
    a relabeled letter is the map's value plus the sign bit.
    """
    total = 2 * crossings
    if components == 0:
        return () if total == 0 and emit(()) else None
    stop = total - shortest * (components - 1)  # where codeword 0 must end
    if stop < 0:
        return None
    out: list[int] = []      # every codeword's letters, run together
    parts: list[tuple] = []  # the finished codewords
    open_: list[int] = []    # the first ends of the open chords

    # the identity map on the first n labels, for each n; shared, never
    # written: no code path writes to a map in ``maps``, since a new
    # rotation copies its map before it adds to it, and a live rotation
    # writes only to its own copy
    identity = [{x: x for x in range(2, 2 * n + 1, 2)}
                for n in range(crossings + 1)]

    def undo(added: list) -> None:
        for m, base in added:
            del m[base]

    def grow(start: int, stop: int, started: int, maps: list,
             live: list) -> None:
        # stop: the slot this codeword must end by; maps: the relabel
        # maps under which the finished codewords tie, the identity
        # first; live: the (map, r) rotations of this codeword that tie
        # with its letters so far
        slot = len(out)
        if slot == total or len(parts) < components - 1:
            end_codeword(start, started, maps, live)
        if slot >= stop:
            return
        for i in range(len(open_)):
            letter = open_.pop(i)
            place(letter ^ 1, start, stop, started, maps, live)
            open_.insert(i, letter)
        # feasible iff every open chord (incl. this one) still fits a
        # closing end; parity works out because slot == open (mod 2)
        if len(open_) + 2 <= total - slot:
            base = 2 * started + 2
            for letter in (base, base + 1):  # the - end, then the + end
                open_.append(letter)
                place(letter, start, stop, started + 1, maps, live)
                open_.pop()

    def place(letter, start, stop, started, maps, live) -> None:
        p = len(out) - start
        out.append(letter)
        sign = letter & 1
        base = letter ^ sign
        added: list = []
        kept = []
        for m, r in live:
            x = m.get(base)
            if x is None:
                x = m[base] = 2 * len(m) + 2
                added.append((m, base))
            y, t = x + sign, out[start + p - r]
            if y < t:
                if added:
                    undo(added)
                out.pop()
                return
            if y == t:
                kept.append((m, r))
        # rotation p starts under every map, rotation 0 only under a
        # non-identity one; a new rotation gets its own map once it ties
        t = out[start]
        for m in (maps if p else maps[1:]):
            x = m.get(base) or 2 * len(m) + 2
            y = x + sign
            if y < t:
                if added:
                    undo(added)
                out.pop()
                return
            if y == t:
                kept.append(({**m, base: x}, p))
        grow(start, stop, started, maps, kept)
        if added:
            undo(added)
        out.pop()

    def end_codeword(start, started, maps, live) -> None:
        slot = len(out)
        if admit is not None and slot < total and not admit(tuple(out[start:])):
            return
        added: list = []
        # an empty codeword ties under every map it got
        carried = [identity[started]] if slot > start else maps
        for m, r in live:
            for i in range(r):
                letter = out[start + i]
                sign = letter & 1
                base = letter ^ sign
                x = m.get(base)
                if x is None:
                    x = m[base] = 2 * len(m) + 2
                    added.append((m, base))
                y, t = x + sign, out[slot - r + i]
                if y != t:
                    break
            else:
                carried.append(m)
                continue
            if y < t:
                if added:
                    undo(added)
                return
        parts.append(tuple(out[start:]))
        if slot == total:  # the codewords left are empty
            key = tuple(parts) + ((),) * (components - len(parts))
            if emit(key):
                raise _Stop(key)
        else:
            grow(slot, total - shortest * (components - 1 - len(parts)),
                 started, carried, [])
        parts.pop()
        if added:
            undo(added)

    try:
        grow(0, stop, 0, [identity[0]], [])
    except _Stop as found:
        return found.args[0]
    finally:
        # grow and place call each other through closure cells; emptying
        # grow's cell breaks that cycle, so emit and all it holds (every
        # emitted code) are freed on return, not at the next full collection
        del grow
    return None


# what the int letters of the keys of ``_least_keys`` stand for:
# ``2*x + 1`` is ``c{x}+``, ``2*x`` is ``c{x}-``
_LETTERS = {2 * x + (s is PLUS): Letter(f"c{x}", s)
            for x in range(1, ENUMERATION_CAP + 1) for s in (PLUS, MINUS)}
_LETTER_TEXTS = {x: str(letter) for x, letter in _LETTERS.items()}


def _check_shape(crossings: int, components: int) -> None:
    """Raise as ``enumerate_small_codes`` documents unless the shape can
    be enumerated."""
    if crossings < 0 or components < 0:
        raise ValueError("counts must be nonnegative")
    if crossings > ENUMERATION_CAP:
        raise InstanceTooLarge(
            f"{crossings} crossings exceeds the enumeration cap of {ENUMERATION_CAP}")
    if components > COMPONENT_CAP:
        raise InstanceTooLarge(
            f"{components} components exceeds the cap of {COMPONENT_CAP}")
    # no components: one key (the empty one) or none, and no cut to count
    cuts = comb(2 * crossings + components - 1, components - 1) if components else 1
    bound = factorial(2 * crossings) // factorial(crossings) * cuts
    if bound > _CLASS_BOUND:
        raise InstanceTooLarge(
            f"{crossings} crossings on {components} components exceeds the "
            f"enumeration bound: up to {bound:,} classes, over {_CLASS_BOUND:,}")


class _Memo(dict):
    """``make(key)`` for each key, made on first use.  A miss goes through
    ``__missing__``, so a hit is a C-level ``getitem`` with no Python call."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _coder(crossings: int, components: int):
    """Check the shape, and return the function that builds the code of
    one of its keys: the code-object path, which ``enumerate_small_codes``
    and the search's witness take.  The ``enumerate`` command renders the
    keys instead (``enumerate_lines``)."""
    _check_shape(crossings, components)
    # one memo per component; codewords are immutable, so codes share the
    # ones they have in common
    words = [_Memo(lambda part, name=default_component_name(i):
                   Codeword(name, tuple(map(_LETTERS.__getitem__, part))))
             for i in range(components)]
    return lambda key: FlatLinkCode(tuple(map(getitem, words, key)))


def enumerate_small_codes(crossings: int, components: int) -> list[FlatLinkCode]:
    """One code per rotation/relabel class with exactly the given
    crossing and component counts, in canonical order.

    The slots are filled depth first, codeword ends included as
    branches, and a prefix is pruned as soon as a rotation of the
    codeword being filled beats it; the keys that reach the last slot
    are each their own class's least key, so no class is met twice.
    More than ENUMERATION_CAP crossings or COMPONENT_CAP components
    raises InstanceTooLarge, and so does a shape that may have more
    than 10^7 classes: n crossings on k components have at most
    (2n)!/n! * C(2n+k-1, k-1), which refuses (4, 8) and (6, 3).
    """
    code = _coder(crossings, components)
    codes: list[FlatLinkCode] = []
    _least_keys(crossings, components, lambda key: codes.append(code(key)))
    return codes


def enumerate_lines(crossings: int, components: int) -> list[str]:
    """``render_flat_link`` of each code ``enumerate_small_codes`` returns,
    in the same order and with the same checks, rendered from the keys:
    each class costs one join of cached codeword texts, and no
    ``Codeword`` or ``FlatLinkCode`` is built."""
    _check_shape(crossings, components)
    texts = [_Memo(lambda part, i=i, name=default_component_name(i): _component_text(
                 i, name, " ".join(map(_LETTER_TEXTS.__getitem__, part))))
             for i in range(components)]
    lines: list[str] = []
    _least_keys(crossings, components,
                lambda key: lines.append(" ; ".join(map(getitem, texts, key))))
    return lines


class SearchGoal(str, Enum):
    ZERO_POLY_NO_FILAMENTATION = "zero-poly-no-filamentation"
    NONZERO_MULTI_COMPONENT = "nonzero-multi-component"


def _key_tally(key: tuple) -> tuple[dict[tuple[int, int, int], int], list[int]]:
    """The side counts of a key's index buckets, and its sign totals.

    Reads the int letters of ``_least_keys`` the way ``validate`` reads a
    code's, by the rule the ``CrossingCatalog`` docstring states: each
    chord's index from the prefix sums of its codewords, then its
    (a, b, v) bucket and side.  ``counts`` maps every bucket holding a
    crossing to n = |+ side| - |- side|.  No code object is built, so
    the search can screen every candidate on its key.

    A chord is filed at its second end, so a self-crossing whose - end
    comes first gets u - T, not its index u (T is its component's sign
    total): the two agree mod |T|, and are equal when T is 0.  Only the
    zero-poly test of ``_key_screen`` reads self buckets, and it fails on
    any T != 0, the sum of its component's linking differences.
    """
    first: dict[int, tuple[int, int]] = {}  # label -> (component, sum)
    counts: dict[tuple[int, int, int], int] = {}
    totals: list[int] = []
    for ci, part in enumerate(key):
        s = 0  # the prefix sum through the current letter
        for letter in part:
            plus = letter & 1
            s += 1 if plus else -1
            seen = first.pop(letter >> 1, None)
            if seen is None:
                first[letter >> 1] = (ci, s)
                continue
            oc, osum = seen
            u = osum + 1 - s if plus else s + 1 - osum
            if oc == ci:
                bucket, n = (ci, ci, abs(u)), 1 if u >= 0 else -1
            elif plus:
                bucket, n = (oc, ci, -u), -1
            else:
                bucket, n = (oc, ci, u), 1
            counts[bucket] = counts.get(bucket, 0) + n
        totals.append(s)
    return counts, totals


def _key_screen(goal: SearchGoal, key: tuple) -> bool:
    """Whether a key's counted buckets pass the goal's test; a key passes
    exactly when ``_is_witness`` holds for its code.  The counts become
    terms, differences and coefficients through ``invariant._tally``, as
    for the published invariant.

    Zero-poly: no component polynomial has a term, every pair's linking
    difference and coefficient are zero, and yet some pair bucket is out
    of balance, so no filamentation exists.
    Nonzero-multi: some pair with zero linking difference and zero sign
    totals has a nonzero coefficient, and every component shares a
    crossing with another by ``_word_screen``'s sharing test, which the
    walk has already applied to every codeword but the last.
    The search screens only the keys its minimal-witness pruning leaves
    (module docstring), so a zero-poly key that passes with a component
    split off may go unscreened: a smaller witness lies in an earlier
    shape.
    """
    counts, totals = _key_tally(key)
    polys, pairs = _tally(counts.items())
    if goal is SearchGoal.ZERO_POLY_NO_FILAMENTATION:
        return (bool(pairs) and not polys
                and not any(d or c for d, c in pairs.values()))
    return (any(c and not d and not totals[a] and not totals[b]
                for (a, b), (d, c) in pairs.items())
            and all(_word_screen(goal, part) for part in key))


def _word_screen(goal: SearchGoal, word: tuple) -> bool:
    """Whether one codeword passes the goal's codeword test, which every
    codeword of the first witness passes (module docstring).  The search
    checks each codeword that ends before the last slot as the
    enumeration closes it, and skips every key below one that fails.

    Both goals: some chord occurs only once in the codeword, so the
    component shares a crossing with another; an empty codeword fails.
    This is the one sharing test, which ``_key_screen`` and
    ``_is_witness`` apply to every codeword too.
    Zero-poly also: the codeword has as many + letters as - letters, so
    its sign total is 0.
    """
    if 2 * len({letter >> 1 for letter in word}) == len(word):
        return False
    return (goal is not SearchGoal.ZERO_POLY_NO_FILAMENTATION
            or 2 * sum(letter & 1 for letter in word) == len(word))


def _is_witness(goal: SearchGoal, code: FlatLinkCode) -> bool:
    """Whether the code witnesses the goal, by the goal's definition.

    Nonzero-multi also needs ``_word_screen``'s sharing test on every
    codeword, read off its letters once ``link_polynomial`` has validated
    the code: a split-off component (an empty circle, or a kink that r1
    empties) would pass a smaller link off as a bigger one."""
    if goal is SearchGoal.ZERO_POLY_NO_FILAMENTATION:
        return (link_polynomial(code).is_zero
                and brute_force_filamentation(code) is None)
    return (any(c != 0 for _, c in link_polynomial(code).pair_coeffs)
            and all(2 * len({x.crossing for x in cw.letters}) != len(cw.letters)
                    for cw in code.components))


def search_examples(goal: SearchGoal | str, max_components: int,
                    max_crossings: int) -> FlatLinkCode | None:
    """Scan small codes for a witness of the goal; None if none in bounds.

    Shapes are visited smallest-first (crossings, then components) and
    candidates in canonical enumeration order; the first witness in that
    order is returned, and no class past it is enumerated.  Knots cannot
    witness the zero-poly goal (for one component the polynomial decides
    filamentation), so that scan starts at two components.  The
    enumeration makes only the keys a minimal witness can have (module
    docstring): it skips every key with a codeword, before its last one,
    that fails ``_word_screen`` or leaves fewer than 2 letters (zero-poly)
    or 1 letter (nonzero-multi) for each codeword after it.  The first
    witness has no such codeword; a (2, 8) zero-poly search screens 98
    keys, and a (3, 6) nonzero-multi search 1,837.  Each candidate left
    is screened on its enumeration key, whose index buckets are counted
    without building a code; only a key that passes becomes a code, which
    ``_is_witness`` confirms through the public invariant and, for the
    zero-poly goal, the exhaustive filamentation oracle, so a returned
    witness is always proof.  Both goals have a witness at 4
    crossings, so no scan enumerates a larger shape; past
    ENUMERATION_CAP crossings enumeration would raise InstanceTooLarge.
    Negative bounds raise ValueError, and bounds past COMPONENT_CAP or
    ORACLE_CAP raise InstanceTooLarge before any scan.
    """
    if max_components < 0 or max_crossings < 0:
        raise ValueError("limits must be nonnegative")
    _check_shape(0, max_components)  # the component cap; 0 crossings have 1 class
    if max_crossings > ORACLE_CAP:
        raise InstanceTooLarge(
            f"search beyond {ORACLE_CAP} crossings cannot be oracle-verified")
    goal = SearchGoal(goal)
    least, shortest = ((2, 2) if goal is SearchGoal.ZERO_POLY_NO_FILAMENTATION
                       else (3, 1))
    for crossings in range(max_crossings + 1):
        for components in range(least, max_components + 1):
            code = _coder(crossings, components)
            key = _least_keys(
                crossings, components,
                lambda key: (_key_screen(goal, key)
                             and _is_witness(goal, code(key))),
                lambda word: _word_screen(goal, word), shortest)
            if key is not None:
                return code(key)
    return None
