"""Gauss codes for flat virtual links.

A link is stored as an ordered tuple of cyclic codewords, one per
component.  A letter is a plain ``(crossing, sign)`` tuple: the
crossing's identifier and PLUS or MINUS.  Every crossing appears exactly
twice in the whole code, once as ``x+`` and once as ``x-``; the two
letters may sit on the same codeword (a self-crossing) or on two
different ones.  This module owns the data model, the text format,
structural validation (which also files every crossing in the index
buckets that the invariant and the filamentations are both read from),
and the signed arc-count primitive.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "PLUS", "MINUS", "Codeword", "FlatLinkCode", "CrossingCatalog",
    "FlatLinkError", "MalformedToken", "DuplicateComponentName",
    "CrossingAppearsOnce", "CrossingAppearsThrice", "SameSignTwice",
    "SamePosition", "PositionOutOfRange", "parse_flat_link",
    "render_flat_link", "validate", "intersection_number",
    "default_component_name",
]

PLUS = 1
MINUS = -1

_TOKEN = re.compile(r"[A-Za-z0-9_]+[+-]\Z")
_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")
_SIGN_CHAR = {PLUS: "+", MINUS: "-"}
# a body whose ``str.split()`` tokens all match ``_TOKEN`` (``\s`` is the same
# set); its three classes are disjoint, so a failed match backtracks linearly
_BODY = re.compile(r"\s*(?:[A-Za-z0-9_]+[+-](?:\s+|\Z))*")
# ``bytes.translate`` with these keeps only the sign bytes, as 0x01 and 0xff,
# which an ``array("b")`` reads back as PLUS and MINUS
_SIGN_BYTES = bytes.maketrans(b"+-", b"\x01\xff")
_NOT_SIGN_BYTES = bytes(i for i in range(256) if i not in b"+-")


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


@dataclass(frozen=True)
class Codeword:
    """A named cyclic word of letters.

    Which letter sits at index 0 is a representation artifact: semantic
    operations elsewhere never depend on the stored rotation, and tests
    hold them to that.  Dataclass equality is exact (name and rotation
    included).  A codeword may be empty (a crossing-free component).
    """

    name: str
    letters: tuple[tuple[str, int], ...] = ()

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
        return " ".join([x + _SIGN_CHAR[sign] for x, sign in self.letters])


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
    """Where every crossing of a validated code sits, and its index bucket.

    ``ends[x]`` is (plus component, plus position, minus component,
    minus position); x is a self-crossing exactly when the two components
    are equal.  ``totals[i]`` is the sign total of component ``i``.

    The index of x is P[pos(x-)] - P[pos(x+) + 1], with P the prefix sums
    of letter signs on the component each end lies on; a self-crossing
    whose - end comes first also gets its component's sign total, so its
    index is always its arc count from x+ to x-.  ``buckets`` files every
    crossing under its index, on one of two sides: a self-crossing of
    component c with index u goes to key (c, c, |u|), on the + side when
    u >= 0; a crossing between components a < b goes to (a, b, u) on the
    + side when its + end lies on a, and to (a, b, -u) on the - side
    otherwise.  Each side lists crossing ids.

    Once every sign total is zero, the invariant and the filamentations
    are read off the buckets alone:

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

    ``ends`` lists the crossings in the order their second ends are
    read.  Treat the tables as read-only.
    """

    ends: dict[str, tuple[int, int, int, int]]
    buckets: dict[tuple[int, int, int], tuple[list[str], list[str]]]
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

    One regular expression accepts each component's letters, and the
    first token it cannot read is named in the ``MalformedToken`` error.
    Once every component is accepted, the letters of the whole text are
    built in bulk, with no Python call per token: a ``str.split`` of each
    component yields its crossing names, one byte translation of the
    text yields every sign, and each codeword takes its slice of one
    tuple of ``(crossing, sign)`` letters.

    Pairing of crossings is not checked here; run ``validate`` for that.
    """
    # comments cut; a line end separates segments as ``;`` does
    cleaned = ";".join([line.split("#", 1)[0] for line in text.splitlines()])
    segments: list[tuple[str | None, int]] = []  # name, end of its letters
    names: list[str] = []
    for raw in cleaned.split(";"):
        head, colon, body = raw.partition(":")
        name = head.strip() if colon else None
        if not colon:
            body = raw
        elif not _IDENT.match(name):
            raise MalformedToken(name)
        if not _BODY.fullmatch(body):
            raise MalformedToken(next(t for t in body.split() if not _TOKEN.match(t)))
        words = body.replace("+", " ").replace("-", " ").split()
        if name is None and not words:
            continue
        names += words
        segments.append((name, len(names)))

    # Every head has passed _IDENT and every body _BODY, so each + or - left
    # in the text ends a letter, in reading order: one stream holds the
    # signs of all the letters.  Only ASCII and whitespace are left, so the
    # text encodes.  The array yields the cached ints 1 and -1.
    signs = array("b", cleaned.encode().translate(_SIGN_BYTES, _NOT_SIGN_BYTES))
    letters = tuple(zip(names, signs))

    components = []
    used = set()
    start = 0
    for i, (name, end) in enumerate(segments):
        if name is None:
            name = default_component_name(i)
        if name in used:
            raise DuplicateComponentName(name)
        used.add(name)
        # a one-component code's slice is the tuple itself
        components.append(Codeword(name, letters[start:end]))
        start = end
    return FlatLinkCode(tuple(components))


def render_flat_link(code: FlatLinkCode) -> str:
    """Inverse of ``parse_flat_link``; the round trip is exact.

    Components carrying their positional default name are rendered as
    bare letters; every other component (and every empty one) keeps its
    ``name:`` prefix so that parsing recovers it.
    """
    return " ; ".join([_component_text(i, cw.name, str(cw))
                       for i, cw in enumerate(code.components)])


def _component_text(index: int, name: str, body: str) -> str:
    """The text of component ``index``, given its name and its letters'
    text: ``body`` alone under the positional default name, otherwise
    (and always when empty) behind a ``name:`` prefix."""
    if name != default_component_name(index) or not body:
        return f"{name}: {body}" if body else f"{name}:"
    return body


def validate(code: FlatLinkCode) -> CrossingCatalog:
    """Check the structural invariants and catalog every crossing.

    Component names must be distinct, and every crossing identifier must
    occur exactly twice, once with PLUS and once with MINUS.  Identifiers
    are only compared, never checked, as component names are.  Raises
    DuplicateComponentName, CrossingAppearsOnce, CrossingAppearsThrice,
    SameSignTwice, or a plain FlatLinkError for a sign that is neither,
    naming the offender (see ``_fault`` for which one);
    returns the catalog, with the ends and the index bucket of every
    crossing and the sign total of every component, so callers never
    re-derive them.

    One pass over the letters: the first end of each crossing is kept
    with the prefix sum read so far, and the second end completes its
    index and files it.  A self-crossing whose - end comes first waits
    for its component's sign total.
    """
    components = code.components
    if len({cw.name for cw in components}) < len(components):
        raise _fault(code)
    first: dict[str, tuple[int, int, int, int]] = {}
    ends: dict[str, tuple[int, int, int, int]] = {}
    buckets: dict[tuple[int, int, int], tuple[list[str], list[str]]] = {}
    totals: list[int] = []
    held: list[tuple[str, int]] = []
    letters = 0
    for ci, cw in enumerate(components):
        s = 0  # the prefix sum through the current letter
        for pos, (x, sign) in enumerate(cw.letters):
            s += sign
            seen = first.pop(x, None)
            if seen is None:
                first[x] = (ci, pos, sign, s)
                continue
            oc, op, osign, osum = seen
            # P[pos(x-)] is the sum through x- plus one, P[pos(x+) + 1]
            # the sum through x+; a pair crossing's first end lies on oc < ci
            if sign == MINUS and osign == PLUS:
                ends[x] = (oc, op, ci, pos)
                u = s + 1 - osum
                if oc == ci:
                    key, side = (ci, ci, abs(u)), u < 0
                else:
                    key, side = (oc, ci, u), 0
            elif sign == PLUS and osign == MINUS:
                ends[x] = (ci, pos, oc, op)
                u = osum + 1 - s
                if oc == ci:
                    held.append((x, u))
                    continue
                key, side = (oc, ci, -u), 1
            else:  # equal signs, or a sign that is neither PLUS nor MINUS
                raise _fault(code)
            sides = buckets.get(key)
            if sides is None:
                sides = buckets[key] = ([], [])
            sides[side].append(x)
        for x, u in held:
            u += s  # now the component's sign total
            key = (ci, ci, abs(u))
            sides = buckets.get(key)
            if sides is None:
                sides = buckets[key] = ([], [])
            sides[u < 0].append(x)
        held.clear()
        totals.append(s)
        letters += len(cw.letters)
    # with no crossing left open every count is even, so this many
    # letters means every count is 2
    if first or 2 * len(ends) != letters:
        raise _fault(code)
    return CrossingCatalog(ends, buckets, totals)


def _fault(code: FlatLinkCode) -> FlatLinkError:
    """The error ``validate`` raises for a code that breaks its rules.

    Duplicate component names come first.  Then the crossings are
    checked in the order of their first letters, and the first faulty
    one is named: one of its letters has a sign other than PLUS or MINUS
    (a letter built by hand), it appears once, or more than twice (with
    its count), or twice with the same sign, tested in that order.
    """
    names = set()
    for cw in code.components:
        if cw.name in names:
            return DuplicateComponentName(cw.name)
        names.add(cw.name)
    signs: dict[str, list[int]] = {}
    for cw in code.components:
        for x, sign in cw.letters:
            signs.setdefault(x, []).append(sign)
    for x, seen in signs.items():
        bad = [sign for sign in seen if sign not in (PLUS, MINUS)]
        if bad:
            error = FlatLinkError(f"crossing {x!r} has sign {bad[0]!r}, not +1 or -1")
            error.crossing = x
            return error
        if len(seen) == 1:
            return CrossingAppearsOnce(x)
        if len(seen) > 2:
            return CrossingAppearsThrice(x, len(seen))
        if seen[0] == seen[1]:
            return SameSignTwice(x)
    raise AssertionError("_fault called on a valid code")


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
        s += cw.letters[i][1]
        i = (i + 1) % n
    return s
