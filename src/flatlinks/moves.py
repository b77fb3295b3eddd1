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

Removal and triangle sites are found through an index in O(n log n),
not by trying every pair or triple of spots.  Every crossing has one
plus letter, so the triangle spots ``x+ y-`` form a partial
permutation x -> y, and a triangle is one of its 3-cycles.  Slide spots
are bucketed by their unordered crossing pair, which holds at most four
of them, and only spots of one bucket are matched.  Either way sites are
listed in lexicographic order of their spots, taken by component and
then by position.

A site names components and positions, so it goes stale the moment the
code changes; ``apply_move`` re-verifies every letter it touches and
raises StaleSite on any mismatch.  ``find_move_sites`` lists triangle
spots in plus-first letter order only; applying a swap leaves the
reversed order behind, which ``apply_move`` also accepts, so applying
the same site twice is the identity.

``random_walk`` drives a seeded sequence of random moves for
equivalence fuzzing.  Insertion parameters are sampled directly rather
than enumerated: the insertion sites of a long code number in the
thousands, and a walk only needs one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from random import Random

from .gausscode import (
    PLUS,
    MINUS,
    Codeword,
    FlatLinkCode,
    FlatLinkError,
    Letter,
)

KINDS = ("r1_remove", "r1_insert", "r2_remove", "r2_insert", "r3")

_SPOT_COUNT = {"r1_remove": 1, "r1_insert": 1,
               "r2_remove": 2, "r2_insert": 2, "r3": 3}
_VARIANT_COUNT = {"r1_remove": 0, "r1_insert": 1,
                  "r2_remove": 0, "r2_insert": 2, "r3": 0}


class StaleSite(FlatLinkError):
    """The site does not match the code it is being applied to."""


class MalformedMoveLine(FlatLinkError):
    """A move description that cannot even be read back as a site."""


@dataclass(frozen=True)
class MoveSite:
    """One rewrite, addressed by component names and positions.

    For removals and triangle swaps a spot ``(name, p)`` covers the
    adjacent letter pair at positions p and p+1, cyclically.  For
    insertions the position is a gap index, 0..len inclusive, and
    ``crossings`` may be left empty: apply_move then picks fresh ids of
    the form ``_1``, ``_2``, ... (ordinary ids never start with an
    underscore, so walks cannot collide with user-chosen names).

    The one-line form is ``kind comps positions crossings [variant...]``
    with comma-joined per-spot fields and ``-`` for no crossings;
    ``parse`` reads that form back.
    """

    kind: str
    spots: tuple[tuple[str, int], ...]
    crossings: tuple[str, ...] = ()
    variant: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MalformedMoveLine(f"unknown move kind {self.kind!r}")
        if len(self.spots) != _SPOT_COUNT[self.kind]:
            raise MalformedMoveLine(
                f"{self.kind} takes {_SPOT_COUNT[self.kind]} spot(s), "
                f"got {len(self.spots)}")
        if any(p < 0 for _, p in self.spots):
            raise MalformedMoveLine("negative position")
        if self.crossings and len(self.crossings) != _SPOT_COUNT[self.kind]:
            raise MalformedMoveLine(
                f"{self.kind} involves {_SPOT_COUNT[self.kind]} crossing(s), "
                f"got {len(self.crossings)}")
        if len(self.variant) != _VARIANT_COUNT[self.kind]:
            raise MalformedMoveLine(
                f"{self.kind} takes {_VARIANT_COUNT[self.kind]} variant "
                f"token(s), got {len(self.variant)}")
        if self.kind == "r1_insert" and self.variant[0] not in ("+-", "-+"):
            raise MalformedMoveLine("kink insert order must be +- or -+")
        if self.kind == "r2_insert":
            eps, order2 = self.variant
            if eps not in ("+", "-") or order2 not in ("ef", "fe"):
                raise MalformedMoveLine(
                    "slide insert variant must be a sign and ef or fe")

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
            spots = tuple((c, int(p)) for c, p in zip(comps, positions))
        except ValueError:
            raise MalformedMoveLine(f"unreadable position in {line!r}") from None
        ids = () if id_tok == "-" else tuple(id_tok.split(","))
        return cls(kind, spots, ids, tuple(tokens[4:]))


def _adjacent(cw: Codeword, p: int) -> tuple[Letter, Letter]:
    return cw.letters[p], cw.letters[(p + 1) % len(cw)]


def _disjoint(n: int, starts) -> bool:
    """Whether the spots starting at ``starts`` on an n-letter codeword
    cover pairwise distinct positions."""
    seen: set[int] = set()
    for p in starts:
        spot = {p, (p + 1) % n}
        if len(spot) < 2 or spot & seen:
            return False
        seen |= spot
    return True


def _fresh_ids(code: FlatLinkCode, n: int) -> tuple[str, ...]:
    used = set(code.crossing_ids())
    out: list[str] = []
    k = 1
    while len(out) < n:
        cand = f"_{k}"
        if cand not in used:
            out.append(cand)
            used.add(cand)
        k += 1
    return tuple(out)


def _find_r1_remove(code: FlatLinkCode) -> list[MoveSite]:
    sites = []
    seen = set()
    for ci, cw in enumerate(code.components):
        n = len(cw)
        if n < 2:
            continue
        for p in range(n):
            q = (p + 1) % n
            a, b = cw.letters[p], cw.letters[q]
            if a.crossing != b.crossing or a.sign == b.sign:
                continue
            key = (ci, frozenset((p, q)))  # p=0 and p=1 coincide when n == 2
            if key in seen:
                continue
            seen.add(key)
            sites.append(MoveSite("r1_remove", ((cw.name, p),), (a.crossing,)))
    return sites


def _slide_spots(code: FlatLinkCode):
    """Adjacent opposite-sign pairs of two distinct crossings."""
    for ci, cw in enumerate(code.components):
        n = len(cw)
        if n < 2:
            continue
        for p in range(n):
            a, b = _adjacent(cw, p)
            if a.crossing != b.crossing and a.sign == -b.sign:
                yield ci, p, a, b


def _find_r2_remove(code: FlatLinkCode) -> list[MoveSite]:
    names = code.component_names()
    spots = list(_slide_spots(code))
    # the two spots of a slide hold the same two crossings, and a
    # crossing pair is adjacent at no more than four spots
    buckets = defaultdict(list)
    for i, (_, _, a, b) in enumerate(spots):
        buckets[tuple(sorted((a.crossing, b.crossing)))].append(i)
    found = []
    seen = set()
    for bucket in buckets.values():
        for i, j in combinations(bucket, 2):
            (c1, p1, a1, b1), (c2, p2, a2, b2) = spots[i], spots[j]
            if c1 == c2 and not _disjoint(len(code.components[c1]), (p1, p2)):
                continue
            signs1 = {a1.crossing: a1.sign, b1.crossing: b1.sign}
            if a2.sign != -signs1[a2.crossing] or b2.sign != -signs1[b2.crossing]:
                continue
            # distinct spot pairs can cover the same four letters on short
            # codewords; removing them is one and the same move
            key = frozenset(((c1, p1), (c1, (p1 + 1) % len(code.components[c1])),
                             (c2, p2), (c2, (p2 + 1) % len(code.components[c2]))))
            if key in seen:
                continue
            seen.add(key)
            found.append((i, j))
    found.sort()
    return [MoveSite("r2_remove",
                     ((names[spots[i][0]], spots[i][1]),
                      (names[spots[j][0]], spots[j][1])),
                     (spots[i][2].crossing, spots[i][3].crossing))
            for i, j in found]


def _find_r3(code: FlatLinkCode) -> list[MoveSite]:
    # every crossing has one plus letter, so the plus-first slide spots
    # never overlap and map each plus crossing to at most one minus crossing
    spots = [(ci, p, a.crossing, b.crossing)
             for ci, p, a, b in _slide_spots(code) if a.sign == PLUS]
    spot_of = {x: i for i, (_, _, x, _) in enumerate(spots)}
    found = []
    for i, (_, _, x, y) in enumerate(spots):
        j = spot_of.get(y)
        if j is None:
            continue
        k = spot_of.get(spots[j][3])
        # a spot lies on at most one 3-cycle; taking each from its first
        # spot lists them in spot order
        if k is not None and spots[k][3] == x and i < min(j, k):
            found.append(sorted((i, j, k)))
    names = code.component_names()
    return [MoveSite("r3",
                     tuple((names[spots[s][0]], spots[s][1]) for s in triple),
                     tuple(spots[s][2] for s in triple))
            for triple in found]


def _find_r1_insert(code: FlatLinkCode) -> list[MoveSite]:
    ids = _fresh_ids(code, 1)
    sites = []
    for cw in code.components:
        for g in range(len(cw) + 1):
            for order in ("+-", "-+"):
                sites.append(MoveSite("r1_insert", ((cw.name, g),), ids, (order,)))
    return sites


def _find_r2_insert(code: FlatLinkCode) -> list[MoveSite]:
    names = code.component_names()
    ids = _fresh_ids(code, 2)
    gaps = [(ci, g)
            for ci, cw in enumerate(code.components)
            for g in range(len(cw) + 1)]
    sites = []
    for i, (c1, g1) in enumerate(gaps):
        for c2, g2 in gaps[i:]:
            spots = ((names[c1], g1), (names[c2], g2))
            for eps in ("+", "-"):
                for order2 in ("ef", "fe"):
                    sites.append(MoveSite("r2_insert", spots, ids, (eps, order2)))
    return sites


_FINDERS = {"r1_remove": _find_r1_remove, "r1_insert": _find_r1_insert,
            "r2_remove": _find_r2_remove, "r2_insert": _find_r2_insert,
            "r3": _find_r3}


def find_move_sites(code: FlatLinkCode, kinds=None) -> list[MoveSite]:
    """Enumerate applicable sites, grouped by kind, deterministically.

    Insertion kinds list every gap (or gap pair) with every sign
    variant, which grows quadratically with code length; walks sample
    those parameters directly instead of calling this.
    """
    wanted = KINDS if kinds is None else tuple(kinds)
    for k in wanted:
        if k not in KINDS:
            raise ValueError(f"unknown move kind {k!r}")
    out: list[MoveSite] = []
    for kind in KINDS:
        if kind in wanted:
            out.extend(_FINDERS[kind](code))
    return out


def _check_ids(site: MoveSite, actual) -> None:
    if site.crossings and sorted(site.crossings) != sorted(actual):
        raise StaleSite(
            f"site names crossings {','.join(site.crossings)} but the spots "
            f"hold {','.join(sorted(actual))}")


def _with_letters(code: FlatLinkCode, new: dict[int, list[Letter]]) -> FlatLinkCode:
    comps = list(code.components)
    for ci, letters in new.items():
        comps[ci] = Codeword(comps[ci].name, tuple(letters))
    return FlatLinkCode(tuple(comps))


def _check_spot_position(code: FlatLinkCode, ci: int, p: int) -> None:
    if len(code.components[ci]) < 2 or not 0 <= p < len(code.components[ci]):
        raise StaleSite(f"no adjacent pair starts at position {p}")


def _apply_r1_remove(code, site, idx):
    (ci,) = idx
    (_, p), = site.spots
    _check_spot_position(code, ci, p)
    cw = code.components[ci]
    q = (p + 1) % len(cw)
    a, b = cw.letters[p], cw.letters[q]
    if a.crossing != b.crossing or a.sign == b.sign:
        raise StaleSite("letters at the spot are not a kink pair")
    _check_ids(site, (a.crossing,))
    keep = [l for i, l in enumerate(cw.letters) if i not in (p, q)]
    return _with_letters(code, {ci: keep})


def _apply_r2_remove(code, site, idx):
    c1, c2 = idx
    (_, p1), (_, p2) = site.spots
    _check_spot_position(code, c1, p1)
    _check_spot_position(code, c2, p2)
    if c1 == c2 and not _disjoint(len(code.components[c1]), (p1, p2)):
        raise StaleSite("spots overlap")
    a1, b1 = _adjacent(code.components[c1], p1)
    a2, b2 = _adjacent(code.components[c2], p2)
    for a, b in ((a1, b1), (a2, b2)):
        if a.crossing == b.crossing or a.sign != -b.sign:
            raise StaleSite("letters at a spot are not a slide pair")
    signs1 = {a1.crossing: a1.sign, b1.crossing: b1.sign}
    if ({a2.crossing, b2.crossing} != set(signs1)
            or a2.sign != -signs1[a2.crossing]
            or b2.sign != -signs1[b2.crossing]):
        raise StaleSite("spots do not hold complementary ends")
    _check_ids(site, (a1.crossing, b1.crossing))
    drop = defaultdict(set)
    drop[c1].update((p1, (p1 + 1) % len(code.components[c1])))
    drop[c2].update((p2, (p2 + 1) % len(code.components[c2])))
    new = {ci: [l for i, l in enumerate(code.components[ci].letters)
                if i not in gone]
           for ci, gone in drop.items()}
    return _with_letters(code, new)


def _apply_r3(code, site, idx):
    spots = [(ci, p) for ci, (_, p) in zip(idx, site.spots)]
    for ci, p in spots:
        _check_spot_position(code, ci, p)
    by_comp = defaultdict(list)
    for ci, p in spots:
        by_comp[ci].append(p)
    for ci, starts in by_comp.items():
        if not _disjoint(len(code.components[ci]), starts):
            raise StaleSite("spots overlap")
    modes = set()
    plus, minus = [], []
    for ci, p in spots:
        a, b = _adjacent(code.components[ci], p)
        if a.crossing == b.crossing:
            raise StaleSite("letters at a spot share a crossing")
        if a.sign == PLUS and b.sign == MINUS:
            modes.add("pm")
            plus.append(a.crossing)
            minus.append(b.crossing)
        elif a.sign == MINUS and b.sign == PLUS:
            modes.add("mp")
            plus.append(b.crossing)
            minus.append(a.crossing)
        else:
            raise StaleSite("letters at a spot carry equal signs")
    if len(modes) != 1:
        raise StaleSite("spots mix letter orders")
    if (len(set(plus)) != 3 or set(minus) != set(plus)
            or any(x == y for x, y in zip(plus, minus))):
        raise StaleSite("crossings at the spots do not form a triangle")
    _check_ids(site, plus)
    new = {ci: list(code.components[ci].letters) for ci in by_comp}
    for ci, p in spots:
        q = (p + 1) % len(code.components[ci])
        new[ci][p], new[ci][q] = new[ci][q], new[ci][p]
    return _with_letters(code, new)


def _check_gap(code: FlatLinkCode, ci: int, g: int) -> None:
    if not 0 <= g <= len(code.components[ci]):
        raise StaleSite(f"gap {g} out of range")


def _claim_ids(code: FlatLinkCode, site: MoveSite, n: int) -> tuple[str, ...]:
    ids = site.crossings or _fresh_ids(code, n)
    used = set(code.crossing_ids())
    if len(set(ids)) != n or used & set(ids):
        raise StaleSite(f"insert needs {n} fresh crossing id(s)")
    return ids


def _apply_r1_insert(code, site, idx):
    (ci,) = idx
    (_, g), = site.spots
    _check_gap(code, ci, g)
    (x,) = _claim_ids(code, site, 1)
    (order,) = site.variant
    s = PLUS if order[0] == "+" else MINUS
    letters = list(code.components[ci].letters)
    letters[g:g] = [Letter(x, s), Letter(x, -s)]
    return _with_letters(code, {ci: letters})


def _apply_r2_insert(code, site, idx):
    c1, c2 = idx
    (_, g1), (_, g2) = site.spots
    _check_gap(code, c1, g1)
    _check_gap(code, c2, g2)
    e, f = _claim_ids(code, site, 2)
    eps, order2 = site.variant
    s = PLUS if eps == "+" else MINUS
    pair1 = [Letter(e, s), Letter(f, -s)]
    pair2 = [Letter(e, -s), Letter(f, s)]
    if order2 == "fe":
        pair2.reverse()
    new = {ci: list(code.components[ci].letters) for ci in {c1, c2}}
    inserts = [(c1, g1, 0, pair1), (c2, g2, 1, pair2)]
    # same component: write the later gap first so the earlier index
    # stays valid; equal gaps put spot1's pair in front
    for ci, g, _, pair in sorted(inserts, key=lambda t: (t[1], t[2]), reverse=True):
        new[ci][g:g] = pair
    return _with_letters(code, new)


_APPLIERS = {"r1_remove": _apply_r1_remove, "r1_insert": _apply_r1_insert,
             "r2_remove": _apply_r2_remove, "r2_insert": _apply_r2_insert,
             "r3": _apply_r3}


def apply_move(code: FlatLinkCode, site: MoveSite) -> FlatLinkCode:
    """Apply one move, re-verifying the site against this exact code."""
    try:
        idx = tuple(code.component_index(name) for name, _ in site.spots)
    except KeyError as exc:
        raise StaleSite(f"no component named {exc.args[0]!r}") from None
    return _APPLIERS[site.kind](code, site, idx)


DEFAULT_WEIGHTS = {kind: 1.0 for kind in KINDS}


def random_walk(code: FlatLinkCode, steps: int, seed: int = 0,
                weights: dict[str, float] | None = None
                ) -> tuple[FlatLinkCode, list[MoveSite]]:
    """Apply up to ``steps`` seeded random moves; return (code, sites applied).

    Each step picks a kind by weight among those still applicable, then a
    uniform site of that kind.  A walk stops early only when no enabled
    move applies at all (removals need matching letters; insertions just
    need a component).  Logged insertion sites carry the concrete fresh
    ids used, so replaying the log with apply_move reproduces the walk.
    """
    rng = Random(seed)
    w = dict(DEFAULT_WEIGHTS)
    if weights:
        w.update(weights)
    log: list[MoveSite] = []
    for _ in range(steps):
        site = _random_site(code, rng, w)
        if site is None:
            break
        code = apply_move(code, site)
        log.append(site)
    return code, log


def _random_site(code: FlatLinkCode, rng: Random,
                 w: dict[str, float]) -> MoveSite | None:
    if not code.components:
        return None
    names = code.component_names()
    candidates = [k for k in KINDS if w.get(k, 0) > 0]
    while candidates:
        kind = rng.choices(candidates, [w[k] for k in candidates])[0]
        if kind == "r1_insert":
            ci = rng.randrange(len(names))
            g = rng.randrange(len(code.components[ci]) + 1)
            order = rng.choice(("+-", "-+"))
            return MoveSite(kind, ((names[ci], g),), _fresh_ids(code, 1), (order,))
        if kind == "r2_insert":
            picks = []
            for _ in range(2):
                ci = rng.randrange(len(names))
                picks.append((ci, rng.randrange(len(code.components[ci]) + 1)))
            picks.sort()
            spots = tuple((names[ci], g) for ci, g in picks)
            eps = rng.choice("+-")
            order2 = rng.choice(("ef", "fe"))
            return MoveSite(kind, spots, _fresh_ids(code, 2), (eps, order2))
        sites = _FINDERS[kind](code)
        if sites:
            return rng.choice(sites)
        candidates.remove(kind)
    return None
