"""Code-level rewriting moves for flat virtual links.

The flat Reidemeister moves act on a code as local rewrites:

* kink (``r1_*``): insert or delete an adjacent pair ``x+ x-``, in
  either order, of a crossing appearing nowhere else;
* slide (``r2_*``): insert or delete two crossings e, f occupying two
  disjoint adjacent pairs, signs opposite within each pair and
  complementary across them: ``e+ f-`` at one spot and ``f+ e-`` or
  ``e- f+`` at the other;
* triangle (``r3``): swap three disjoint adjacent pairs ``x+ y-`` in
  place, where the three plus crossings are distinct and the minus
  crossings are the same three with no fixed point.

One table, ``_KINDS``, describes each kind once: its spot count, the
allowed values of each variant token and, for a listed kind, its
candidate finder, check and rewrite; ``MoveSite``, ``find_move_sites``,
``apply_move`` and ``random_walk`` read only that table.

``find_move_sites`` lists only the removal and triangle sites, whose
existence depends on the letters.  An insertion site is a parameter,
any gap (or gap pair) with any variant: ``MoveSite`` describes it,
``apply_move`` applies it and ``random_walk`` samples it, but nothing
lists them, since a code of n letters has about 2n^2 of them.

Removal and triangle sites are found from one pass over the adjacent
letter pairs, not by trying every pair or triple of spots.  The pass
lists the slide spots, adjacent ``+ -`` or ``- +`` letters of two
crossings, once per listing; ``r2_remove`` and ``r3`` both read it.
Every crossing has one plus letter, so the triangle spots ``x+ y-``
form a partial permutation x -> y, and a triangle is one of its
3-cycles.  A slide spot holding ``e+`` and ``f-`` is keyed (e, f) and
matched only against the spots keyed (f, e), which hold the other two
ends.  On a valid code every candidate a finder proposes forms its
pattern.  Each pattern has one check: it names the crossings of a
listed site, and decides whether ``apply_move`` accepts a site.  Sites
are listed in lexicographic order of their spots, taken by component
and then by position.

A site names components and positions, so it goes stale the moment the
code changes; ``apply_move`` re-verifies every letter it touches and
raises StaleSite on any mismatch.  ``find_move_sites`` lists triangle
spots in plus-first letter order only; applying a swap leaves the
reversed order behind, which ``apply_move`` also accepts, so applying
the same site twice is the identity.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from random import Random
from typing import Callable

from .gausscode import (
    PLUS,
    MINUS,
    Codeword,
    FlatLinkCode,
    FlatLinkError,
    MalformedToken,
    _IDENT,
    validate,
)

__all__ = [
    "KINDS", "MoveSite", "StaleSite", "MalformedMoveLine", "find_move_sites",
    "apply_move", "random_walk",
]


class StaleSite(FlatLinkError):
    """The site does not match the code it is being applied to."""


class MalformedMoveLine(FlatLinkError):
    """A move description that cannot even be read back as a site."""


def number(text: str) -> int:
    """Read a count or position given as text: a run of ASCII digits.

    ``int`` would also read a sign, ``1_0``, padding and other scripts'
    digits.  Raises ValueError; argparse names the reader in its message.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


@dataclass(frozen=True)
class MoveSite:
    """One rewrite, addressed by component names and positions.

    For removals and triangle swaps a spot ``(name, p)`` covers the
    adjacent letter pair at positions p and p+1, cyclically.  For
    insertions the position is a gap index, 0..len inclusive, and
    ``crossings`` may be left empty: apply_move then picks fresh ids of
    the form ``_1``, ``_2``, ...  Such ids are legal in a code too, so
    ``_fresh_ids`` skips every id the code already uses; this is what
    keeps walks from colliding with user-chosen names.  In
    ``tests/test_moves.py``, ``test_insert_sites_carry_fresh_ids`` and the
    ``fresh_ids_reference`` check of
    ``test_walk_inserts_the_smallest_unused_ids`` pin it.

    The one-line form is ``kind comps positions crossings [variant...]``
    with comma-joined per-spot fields and ``-`` for no crossings;
    ``parse`` reads that form back.
    """

    kind: str
    spots: tuple[tuple[str, int], ...]
    crossings: tuple[str, ...] = ()
    variant: tuple[str, ...] = ()

    def __post_init__(self):
        row = _KINDS.get(self.kind)
        if row is None:
            raise MalformedMoveLine(f"unknown move kind {self.kind!r}")
        if len(self.spots) != row.spots:
            raise MalformedMoveLine(
                f"{self.kind} takes {row.spots} spot(s), got {len(self.spots)}")
        if any(p < 0 for _, p in self.spots):
            raise MalformedMoveLine("negative position")
        if self.crossings and len(self.crossings) != row.spots:
            raise MalformedMoveLine(
                f"{self.kind} involves {row.spots} crossing(s), "
                f"got {len(self.crossings)}")
        if len(self.variant) != len(row.variants):
            raise MalformedMoveLine(
                f"{self.kind} takes {len(row.variants)} variant "
                f"token(s), got {len(self.variant)}")
        for token, allowed in zip(self.variant, row.variants):
            if token not in allowed:
                raise MalformedMoveLine(f"{self.kind} variant token {token!r} "
                                        f"must be {' or '.join(allowed)}")

    def describe(self) -> str:
        comps = ",".join(name for name, _ in self.spots)
        positions = ",".join(str(p) for _, p in self.spots)
        ids = ",".join(self.crossings) if self.crossings else "-"
        return " ".join((self.kind, comps, positions, ids, *self.variant))

    @classmethod
    def parse(cls, line: str) -> "MoveSite":
        tokens = line.split()
        if len(tokens) < 4:
            raise MalformedMoveLine(f"move line needs at least 4 fields: {line!r}")
        kind, comp_tok, pos_tok, id_tok = tokens[:4]
        comps = comp_tok.split(",")
        positions = pos_tok.split(",")
        if len(comps) != len(positions):
            raise MalformedMoveLine(f"component and position counts differ: {line!r}")
        try:
            spots = tuple((c, number(p)) for c, p in zip(comps, positions))
        except ValueError:
            raise MalformedMoveLine(f"unreadable position in {line!r}") from None
        ids = () if id_tok == "-" else tuple(id_tok.split(","))
        return cls(kind, spots, ids, tuple(tokens[4:]))


def _fresh_ids(used: set[str], n: int) -> tuple[str, ...]:
    out: list[str] = []
    k = 1
    while len(out) < n:
        if f"_{k}" not in used:
            out.append(f"_{k}")
        k += 1
    return tuple(out)


# One check per pattern.  Each takes (component index, position) spots,
# returns the crossings a site of that kind names, and raises StaleSite
# when the letters there do not form the pattern.  _sites names each
# finder candidate's crossings through it, a walk names its drawn
# candidate's, and apply_move calls the same check.

def _pairs_at(code: FlatLinkCode, spots) -> list[tuple[tuple, tuple]]:
    """The letter pairs at ``spots``, which must cover distinct positions."""
    pairs = []
    covered = set()
    for ci, p in spots:
        letters = code.components[ci].letters
        n = len(letters)
        if n < 2 or not 0 <= p < n:
            raise StaleSite(f"no adjacent pair starts at position {p}")
        q = (p + 1) % n
        pairs.append((letters[p], letters[q]))
        covered.update(((ci, p), (ci, q)))
    if len(covered) < 2 * len(pairs):
        raise StaleSite("spots overlap")
    return pairs


def _kink(code: FlatLinkCode, spots) -> tuple[str]:
    (((x, s), (y, t)),) = _pairs_at(code, spots)
    if x != y or s == t:
        raise StaleSite("letters at the spot are not a kink pair")
    return (x,)


def _slide(code: FlatLinkCode, spots) -> tuple[str, str]:
    pairs = _pairs_at(code, spots)
    for (x, s), (y, t) in pairs:
        if x == y or s == t:
            raise StaleSite("letters at a spot are not a slide pair")
    ((x, s), (y, t)), second = pairs
    # the second spot holds the other ends of the first
    if set(second) != {(x, -s), (y, -t)}:
        raise StaleSite("spots do not hold complementary ends")
    return x, y


def _triangle(code: FlatLinkCode, spots) -> tuple[str, ...]:
    """Accepts the plus-first order that the finder lists and the
    minus-first order that a swap leaves behind; returns the plus ends."""
    pairs = _pairs_at(code, spots)
    for (x, s), (y, t) in pairs:
        if x == y:
            raise StaleSite("letters at a spot share a crossing")
        if s == t:
            raise StaleSite("letters at a spot carry equal signs")
    if len({s for (_, s), _ in pairs}) != 1:
        raise StaleSite("spots mix letter orders")
    ends = [(x, y) if s == PLUS else (y, x) for (x, s), (y, _) in pairs]
    plus = tuple(x for x, _ in ends)
    if len(set(plus)) != 3 or {y for _, y in ends} != set(plus):
        raise StaleSite("crossings at the spots do not form a triangle")
    return plus


def _once(fn, *args):
    """A call of ``fn(*args)`` that computes on its first call only."""
    out = []

    def get():
        if not out:
            out.append(fn(*args))
        return out[0]
    return get


# The finders.  Each takes the code and ``slides``, which returns the
# code's slide spots (one _once per listing or walk step), and returns
# its candidate spot tuples in listing order.

def _kink_spots(code: FlatLinkCode, slides) -> list:
    spots = []
    for ci, cw in enumerate(code.components):
        letters = cw.letters
        # a 1-letter word pairs no two letters, and on a 2-letter word the
        # spots at 0 and 1 cover the same letters
        after = letters[1:] + letters[:1] if len(letters) > 2 else letters[1:]
        spots += [((ci, p),) for p, (a, b) in enumerate(zip(letters, after))
                  if a[0] == b[0]]
    return spots


def _slide_spots(code: FlatLinkCode) -> list:
    """Adjacent opposite-sign pairs of two distinct crossings, as
    (component index, position, letter, next letter)."""
    return [(ci, p, a, b) for ci, cw in enumerate(code.components)
            for p, (a, b) in enumerate(zip(cw, cw.letters[1:] + cw.letters[:1]))
            if a[1] != b[1] and a[0] != b[0]]


def _slide_pairs(code: FlatLinkCode, slides) -> list:
    # a spot holding e+ and f- is keyed (e, f); the other spot of its
    # slide holds f+ and e-, so it is keyed (f, e).  Each crossing's one
    # plus letter leaves one spot under a key, except on a 2-letter word,
    # whose spots 0 and 1 hold the same letters: spot 1 is left out, as a
    # slide through it repeats one through spot 0 (_triangles keeps it:
    # on y- x+ it reads x+ y-).  No two other pairs cover the same
    # letters: a longer word's spot is fixed by its positions, and if a
    # 4-letter word has a slide at {0,1}, {2,3}, {1,2} holds one chord's
    # two ends or equal signs.
    comps = code.components
    at = {((x, y) if s == PLUS else (y, x)): (ci, p)
          for ci, p, (x, s), (y, _) in slides() if p != 1 or len(comps[ci]) != 2}
    # only a key whose reverse is also a key holds a slide, met from both
    # ends; spots order as listed, by component and then by position
    keys = at.keys() & ((f, e) for e, f in at)
    return sorted((at[e, f], at[f, e]) for e, f in keys if at[e, f] < at[f, e])


def _triangles(code: FlatLinkCode, slides) -> list:
    # every crossing has one plus letter, so the plus-first slide spots
    # never overlap and map each plus crossing x to at most one minus
    # crossing y: spot_of[x] = (component index, position, y)
    spot_of = {x: (ci, p, y)
               for ci, p, (x, sign), (y, _) in slides() if sign == PLUS}
    found = []
    for x, s in spot_of.items():
        t = spot_of.get(s[2])
        if t is None:
            continue
        u = spot_of.get(t[2])
        # a spot lies on at most one 3-cycle; taking each from its first
        # spot lists them in spot order
        if u is not None and u[2] == x and s < t and s < u:
            found.append((s[:2], *sorted((t[:2], u[:2]))))
    return found


def _with_words(code: FlatLinkCode, new: dict[int, list[tuple]]) -> FlatLinkCode:
    comps = list(code.components)
    for ci, letters in new.items():
        comps[ci] = Codeword(comps[ci].name, tuple(letters))
    return FlatLinkCode(tuple(comps))


def _insert(code: FlatLinkCode, site: MoveSite, gaps, used: set[str]) -> FlatLinkCode:
    """Insert the site's pairs at ``gaps``; ``used`` holds the code's ids.

    The ids a site names may come from a typed move line, so each must
    read as an identifier, as the parser requires of a letter's."""
    for ci, g in gaps:
        if not 0 <= g <= len(code.components[ci]):
            raise StaleSite(f"gap {g} out of range")
    n = len(gaps)
    ids = site.crossings or _fresh_ids(used, n)
    if len(set(ids)) != n or used & set(ids):
        raise StaleSite(f"insert needs {n} fresh crossing id(s)")
    for x in ids:
        if not _IDENT.match(x):
            raise MalformedToken(x)
    # the first variant token starts with the sign of the first letter
    s = PLUS if site.variant[0][0] == "+" else MINUS
    if n == 1:
        (x,) = ids
        pairs = [[(x, s), (x, -s)]]
    else:
        e, f = ids
        second = [(e, -s), (f, s)]
        pairs = [[(e, s), (f, -s)],
                 second if site.variant[1] == "ef" else second[::-1]]
    new = {ci: list(code.components[ci].letters) for ci in {ci for ci, _ in gaps}}
    # write later gaps first so an earlier gap's index stays valid; at
    # equal gaps the first spot's pair ends up in front
    for k in sorted(range(n), key=lambda k: (gaps[k][1], k), reverse=True):
        ci, g = gaps[k]
        new[ci][g:g] = pairs[k]
    return _with_words(code, new)


def _remove(code: FlatLinkCode, spots) -> FlatLinkCode:
    drop = defaultdict(set)
    for ci, p in spots:
        drop[ci].update((p, (p + 1) % len(code.components[ci])))
    return _with_words(code, {
        ci: [l for i, l in enumerate(code.components[ci].letters) if i not in gone]
        for ci, gone in drop.items()})


def _swap(code: FlatLinkCode, spots) -> FlatLinkCode:
    new = {ci: list(code.components[ci].letters) for ci in {ci for ci, _ in spots}}
    for ci, p in spots:
        q = (p + 1) % len(new[ci])
        new[ci][p], new[ci][q] = new[ci][q], new[ci][p]
    return _with_words(code, new)


@dataclass(frozen=True, slots=True)
class _Kind:
    spots: int  # spots a site names
    variants: tuple[tuple[str, ...], ...] = ()  # allowed values, per token
    # listed kinds only: a finder yielding candidate spot tuples in listing
    # order, the one check of the pattern, and the rewrite
    finder: Callable | None = None
    check: Callable | None = None
    rewrite: Callable | None = None


_KINDS = {
    "r1_remove": _Kind(1, (), _kink_spots, _kink, _remove),
    "r1_insert": _Kind(1, (("+-", "-+"),)),
    "r2_remove": _Kind(2, (), _slide_pairs, _slide, _remove),
    "r2_insert": _Kind(2, (("+", "-"), ("ef", "fe"))),
    "r3": _Kind(3, (), _triangles, _triangle, _swap),
}
KINDS = tuple(_KINDS)


def _named(code: FlatLinkCode, spots) -> tuple[tuple[str, int], ...]:
    """(component index, position) spots as a MoveSite addresses them."""
    comps = code.components
    return tuple([(comps[ci].name, p) for ci, p in spots])


def _sites(code: FlatLinkCode, kind: str, slides) -> list[MoveSite]:
    """The sites of a listed kind: each candidate of its finder, with the
    crossings its check names.  On a validated code every candidate
    passes the check."""
    row = _KINDS[kind]
    return [MoveSite(kind, _named(code, spots), row.check(code, spots))
            for spots in row.finder(code, slides)]


def find_move_sites(code: FlatLinkCode, kinds=None) -> list[MoveSite]:
    """List the sites of ``kinds``, grouped by kind in KINDS order.

    Only ``r1_remove``, ``r2_remove`` and ``r3`` sites are listed, all
    three by default; an insertion kind, a parameter, raises ValueError.
    The code must validate: on one that does not, a candidate may fail
    its check, which raises StaleSite.
    """
    listed = [kind for kind, row in _KINDS.items() if row.finder is not None]
    wanted = listed if kinds is None else tuple(kinds)
    for k in wanted:
        if k not in KINDS:
            raise ValueError(f"unknown move kind {k!r}")
        if k not in listed:
            raise ValueError(f"insertion kind {k!r} is not listed: its sites "
                             "are parameters (any gap, any variant)")
    slides = _once(_slide_spots, code)
    return [site for kind in listed if kind in wanted
            for site in _sites(code, kind, slides)]


def apply_move(code: FlatLinkCode, site: MoveSite) -> FlatLinkCode:
    """Apply one move, re-verifying the site against this exact code."""
    try:
        spots = tuple((code.component_index(name), p) for name, p in site.spots)
    except KeyError as exc:
        raise StaleSite(f"no component named {exc.args[0]!r}") from None
    row = _KINDS[site.kind]
    if row.check is None:
        return _insert(code, site, spots,
                       {x for cw in code.components for x, _ in cw.letters})
    actual = sorted(row.check(code, spots))
    if site.crossings and sorted(site.crossings) != actual:
        raise StaleSite(f"site names crossings {','.join(site.crossings)} "
                        f"but the spots hold {','.join(actual)}")
    return row.rewrite(code, spots)


def random_walk(code: FlatLinkCode, steps: int, seed: int = 0,
                weights: dict[str, float] | None = None
                ) -> tuple[FlatLinkCode, list[MoveSite]]:
    """Apply up to ``steps`` seeded random moves; return (code, sites applied).

    The start code must validate; otherwise the error ``validate`` names
    is raised.  Each step picks a kind by weight (1 for every kind that
    ``weights`` leaves out) among those still applicable, then a uniform
    candidate of that kind's finder, the same draw as a uniform site of
    ``find_move_sites``; only the drawn candidate is checked and
    rewritten.  A weight of 0 disables its kind.  A key that is not a
    move kind, or a weight that is not a finite number >= 0, raises
    ValueError naming the kind.  A walk stops early only when no enabled
    move applies at all (removals need matching letters; insertions just
    need a component).  Logged insertion sites carry the concrete fresh
    ids used, so replaying the log with apply_move reproduces the walk.
    """
    w = dict.fromkeys(KINDS, 1.0)
    for kind, weight in (weights or {}).items():
        if kind not in _KINDS:
            raise ValueError(f"unknown move kind {kind!r} in weights")
        if not (isinstance(weight, (int, float)) and math.isfinite(weight)
                and weight >= 0):
            raise ValueError(f"weight of {kind} must be a finite number >= 0, "
                             f"got {weight!r}")
        w[kind] = weight
    used = set(validate(code).ends)  # every crossing id of the current code
    rng = Random(seed)
    log: list[MoveSite] = []
    for _ in range(steps):
        step = _random_step(code, rng, w, used)
        if step is None:
            break
        site, code = step
        log.append(site)
    return code, log


def _random_step(code: FlatLinkCode, rng: Random, w: dict[str, float],
                 used: set[str]) -> tuple[MoveSite, FlatLinkCode] | None:
    """Draw one site and apply it, keeping ``used`` the code's ids."""
    comps = code.components
    if not comps:
        return None
    slides = _once(_slide_spots, code)
    candidates = [k for k in KINDS if w.get(k, 0) > 0]
    while candidates:
        kind = rng.choices(candidates, [w[k] for k in candidates])[0]
        row = _KINDS[kind]
        if row.finder is not None:
            found = row.finder(code, slides)
            if found:
                spots = rng.choice(found)
                crossings = row.check(code, spots)
                if row.rewrite is _remove:
                    used.difference_update(crossings)
                site = MoveSite(kind, _named(code, spots), crossings)
                return site, row.rewrite(code, spots)
            candidates.remove(kind)
            continue
        # the gaps first, then one draw per variant token
        gaps = []
        for _ in range(row.spots):
            ci = rng.randrange(len(comps))
            gaps.append((ci, rng.randrange(len(comps[ci]) + 1)))
        gaps.sort()
        variant = tuple([rng.choice(values) for values in row.variants])
        site = MoveSite(kind, _named(code, gaps), _fresh_ids(used, len(gaps)), variant)
        code = _insert(code, site, gaps, used)
        used.update(site.crossings)
        return site, code
    return None
