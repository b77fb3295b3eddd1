"""Gauss codes for flat virtual links.

A link is stored as an ordered tuple of cyclic codewords, one per
component.  Every crossing appears exactly twice in the whole code, once
as ``x+`` and once as ``x-``; the two letters may sit on the same
codeword (a self-crossing) or on two different ones.  This module owns
the data model, the text format, structural validation, the signed
arc-count primitive, and the index buckets that the invariant and the
filamentations are both read from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

PLUS = 1
MINUS = -1

_TOKEN = re.compile(r"[A-Za-z0-9_]+[+-]\Z")
_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")
_SIGN_CHAR = {PLUS: "+", MINUS: "-"}
# a body whose ``str.split()`` tokens all match ``_TOKEN`` (``\s`` is the same
# set); its three classes are disjoint, so a failed match backtracks linearly
_BODY = re.compile(r"\s*(?:[A-Za-z0-9_]+[+-](?:\s+|\Z))*")


class FlatLinkError(Exception):
    """Base class for every error raised by this package."""


class MalformedToken(FlatLinkError):
    def __init__(self, token: str):
        super().__init__(f"cannot read {token!r} as <identifier><+|->")
        self.token = token


class DuplicateComponentName(FlatLinkError):
    def __init__(self, name: str):
        super().__init__(f"component name {name!r} used more than once")
        self.name = name


class CrossingAppearsOnce(FlatLinkError):
    def __init__(self, crossing: str):
        super().__init__(f"crossing {crossing!r} appears only once")
        self.crossing = crossing


class CrossingAppearsThrice(FlatLinkError):
    def __init__(self, crossing: str, count: int = 3):
        super().__init__(f"crossing {crossing!r} appears {count} times, expected 2")
        self.crossing = crossing
        self.count = count


class SameSignTwice(FlatLinkError):
    def __init__(self, crossing: str):
        super().__init__(f"both letters of crossing {crossing!r} carry the same sign")
        self.crossing = crossing


class SamePosition(FlatLinkError):
    pass


class PositionOutOfRange(FlatLinkError):
    pass


def default_component_name(index: int) -> str:
    # A, B, ..., Z, then C26, C27, ...
    return chr(ord("A") + index) if index < 26 else f"C{index}"


@dataclass(frozen=True, slots=True)
class Letter:
    """One end of a crossing: the crossing's identifier plus this end's sign."""

    crossing: str
    sign: int

    def __post_init__(self):
        if self.sign not in (PLUS, MINUS):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if not _IDENT.match(self.crossing):
            raise MalformedToken(self.crossing)

    @property
    def partner(self) -> "Letter":
        """The other end of the same crossing."""
        return _letter(self.crossing, -self.sign)

    def __str__(self) -> str:
        return self.crossing + _SIGN_CHAR[self.sign]


# the slot setters, which the frozen ``__setattr__`` guards
_set_crossing, _set_sign = Letter.crossing.__set__, Letter.sign.__set__


def _letter(crossing: str, sign: int) -> Letter:
    """A letter from fields already checked, skipping ``__post_init__``."""
    letter = object.__new__(Letter)
    _set_crossing(letter, crossing)
    _set_sign(letter, sign)
    return letter


@dataclass(frozen=True)
class Codeword:
    """A named cyclic word of letters.

    Which letter sits at index 0 is a representation artifact: semantic
    operations elsewhere never depend on the stored rotation, and tests
    hold them to that.  Dataclass equality is exact (name and rotation
    included).  A codeword may be empty (a crossing-free component).
    """

    name: str
    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def rotated(self, k: int) -> "Codeword":
        if not self.letters:
            return self
        k %= len(self.letters)
        return Codeword(self.name, self.letters[k:] + self.letters[:k])

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters)


@dataclass(frozen=True)
class FlatLinkCode:
    """A flat virtual link: an ordered tuple of named cyclic codewords."""

    components: tuple[Codeword, ...] = ()

    def component_names(self) -> tuple[str, ...]:
        return tuple(cw.name for cw in self.components)

    def component_index(self, name: str) -> int:
        for i, cw in enumerate(self.components):
            if cw.name == name:
                return i
        raise KeyError(name)

    def rotated(self, component: int, k: int) -> "FlatLinkCode":
        parts = list(self.components)
        parts[component] = parts[component].rotated(k)
        return FlatLinkCode(tuple(parts))

    def __str__(self) -> str:
        return render_flat_link(self)


class CrossingCatalog(NamedTuple):
    """Where every crossing of a validated code sits, and its index.

    ``ends[x]`` is (plus component, plus position, minus component,
    minus position); x is a self-crossing exactly when the two components
    are equal.  ``index[x]`` is P[pos(x-)] - P[pos(x+) + 1], with P the
    prefix sums of letter signs on the component each end lies on; a
    self-crossing whose - end comes first also gets its component's sign
    total, so its index is always its arc count from x+ to x-.
    ``totals[i]`` is the sign total of component ``i``.  Treat the
    tables as read-only.
    """

    ends: dict[str, tuple[int, int, int, int]]
    index: dict[str, int]
    totals: list[int]


def parse_flat_link(text: str) -> FlatLinkCode:
    """Parse the text format into a code.

    Components are separated by ``;`` or newlines.  Letters are
    whitespace-separated ``<identifier><+|->`` tokens where identifiers
    are runs of ASCII alphanumerics or underscores.  A leading
    ``name:`` names a component; segments left unnamed get A, B, C, ...
    by position.  ``#`` starts a comment running to end of line.  A
    named segment with no letters is a crossing-free component; unnamed
    blank segments are skipped, so empty input is the empty link.

    Pairing of crossings is not checked here; run ``validate`` for that.
    """
    cleaned = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    segments: list[tuple[str | None, tuple[Letter, ...]]] = []
    for raw in cleaned.replace("\n", ";").split(";"):
        head, colon, body = raw.partition(":")
        name = head.strip() if colon else None
        if not colon:
            body = raw
        elif not _IDENT.match(name):
            raise MalformedToken(name)
        if not _BODY.fullmatch(body):
            raise MalformedToken(next(t for t in body.split() if not _TOKEN.match(t)))
        letters = [_letter(t[:-1], PLUS if t[-1] == "+" else MINUS)
                   for t in body.split()]
        if name is None and not letters:
            continue
        segments.append((name, tuple(letters)))

    components = []
    used = set()
    for i, (name, letters) in enumerate(segments):
        if name is None:
            name = default_component_name(i)
        if name in used:
            raise DuplicateComponentName(name)
        used.add(name)
        components.append(Codeword(name, letters))
    return FlatLinkCode(tuple(components))


def render_flat_link(code: FlatLinkCode) -> str:
    """Inverse of ``parse_flat_link``; the round trip is exact.

    Components carrying their positional default name are rendered as
    bare letters; every other component (and every empty one) keeps its
    ``name:`` prefix so that parsing recovers it.
    """
    parts = []
    for i, cw in enumerate(code.components):
        body = " ".join([l.crossing + _SIGN_CHAR[l.sign] for l in cw.letters])
        if cw.name != default_component_name(i) or not cw.letters:
            body = f"{cw.name}: {body}" if body else f"{cw.name}:"
        parts.append(body)
    return " ; ".join(parts)


def validate(code: FlatLinkCode) -> CrossingCatalog:
    """Check the structural invariants and catalog every crossing.

    Component names must be distinct, and every crossing identifier must
    occur exactly twice with opposite signs.  Raises
    DuplicateComponentName, CrossingAppearsOnce, CrossingAppearsThrice,
    or SameSignTwice naming the offender; returns the catalog, with the
    ends and the index of every crossing and the sign total of every
    component, so callers never re-derive them.
    """
    names = set()
    for cw in code.components:
        if cw.name in names:
            raise DuplicateComponentName(cw.name)
        names.add(cw.name)

    letters: dict[str, list[tuple[int, int, int]]] = {}
    prefix: list[list[int]] = []
    for ci, cw in enumerate(code.components):
        sums = [0]
        for pos, letter in enumerate(cw.letters):
            letters.setdefault(letter.crossing, []).append((ci, pos, letter.sign))
            sums.append(sums[-1] + letter.sign)
        prefix.append(sums)

    ends: dict[str, tuple[int, int, int, int]] = {}
    index: dict[str, int] = {}
    for x, occ in letters.items():
        if len(occ) == 1:
            raise CrossingAppearsOnce(x)
        if len(occ) > 2:
            raise CrossingAppearsThrice(x, len(occ))
        first, second = occ
        if first[2] == second[2]:
            raise SameSignTwice(x)
        if first[2] == MINUS:
            first, second = second, first
        (pc, pp, _), (mc, mp, _) = first, second
        ends[x] = (pc, pp, mc, mp)
        index[x] = prefix[mc][mp] - prefix[pc][pp + 1]
        if pc == mc and mp < pp:
            index[x] += prefix[pc][-1]
    return CrossingCatalog(ends, index, [sums[-1] for sums in prefix])


def index_buckets(catalog: CrossingCatalog) -> dict[tuple[int, int, int],
                                                    tuple[list, list]]:
    """Put every crossing into its index bucket, on one of two sides.

    A self-crossing of component c with index u goes to key (c, c, |u|),
    on the + side when u >= 0.  A crossing between components a < b goes
    to (a, b, u) on the + side when its + end lies on a, and to
    (a, b, -u) on the - side otherwise.  Each side lists crossing ids.

    Once every sign total is zero, the invariant and the filamentations
    are read off this table alone:

    - Alignment fixes which crossings may form a bifilament: a
      self-crossing only with a self-crossing of its own component, and
      an a-b crossing only with one on the other side of the pair's
      buckets.  Every such pair {x, y} sums to u(x) + u(y), zero exactly
      when the two share a bucket.  So each bucket is complete bipartite
      between its sides, and (c, c, 0) holds the monofilaments of c.
    - A filamentation therefore exists exactly when every other bucket's
      two sides are equal in size.  A nonzero linking difference, or a
      nonzero sign total (the sum of its component's linking
      differences), is a surplus on one side of some pair bucket, so it
      needs no check of its own.
    - With n = |+ side| - |- side|, a bucket (c, c, v) adds v n to the
      coefficient of t^v in the polynomial of c, and a bucket (a, b, v)
      adds n to the pair's linking difference and v n to its linear
      coefficient.
    """
    index = catalog.index
    buckets: dict[tuple[int, int, int], tuple[list, list]] = {}
    for x, (pc, _, mc, _) in catalog.ends.items():
        v = index[x]
        if pc == mc:
            key, side = (pc, pc, abs(v)), v < 0
        elif pc < mc:
            key, side = (pc, mc, v), 0
        else:
            key, side = (mc, pc, -v), 1
        sides = buckets.get(key)
        if sides is None:
            sides = buckets[key] = ([], [])
        sides[side].append(x)
    return buckets


def intersection_number(code: FlatLinkCode, component: int,
                        from_pos: int, to_pos: int) -> int:
    """Signed count of the letters strictly between two positions.

    Walk forward (cyclically) from ``from_pos`` to ``to_pos``: the result
    is the number of + letters met minus the number of - letters, the two
    endpoint letters excluded.  Every letter of the codeword counts,
    including ends of crossings shared with other components.
    """
    cw = code.components[component]
    n = len(cw)
    for p in (from_pos, to_pos):
        if not 0 <= p < n:
            raise PositionOutOfRange(f"position {p} not in 0..{n - 1} on component {component}")
    if from_pos == to_pos:
        raise SamePosition(f"positions must differ, both are {from_pos}")
    s = 0
    i = (from_pos + 1) % n
    while i != to_pos:
        s += cw.letters[i].sign
        i = (i + 1) % n
    return s
