"""Shared test machinery: independent oracles and random-code makers.

The oracles recompute everything from the raw letter sequences with
list slicing, so they share no cyclic-walk arithmetic with the library.
"""

import random
import re
from itertools import combinations, count, islice, permutations, product

from hypothesis import strategies as st

from flatlinks import (
    MINUS,
    PLUS,
    Codeword,
    CrossingAppearsOnce,
    CrossingAppearsThrice,
    DuplicateComponentName,
    FlatLinkCode,
    FlatLinkError,
    GenSpec,
    MalformedToken,
    MoveSite,
    SameSignTwice,
    brute_force_filamentation,
    default_component_name,
    link_polynomial,
    random_flat_link,
)

_TOKEN = re.compile(r"([A-Za-z0-9_]+)([+-])\Z")
_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")


def reference_parse(text: str) -> FlatLinkCode:
    """``parse_flat_link`` as a per-token scan: each ``str.split()`` token
    is matched on its own by this module's regular expression and becomes
    a ``(crossing, sign)`` letter, so nothing is read through the library."""
    cleaned = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    segments: list[tuple[str | None, tuple[tuple[str, int], ...]]] = []
    for raw in cleaned.replace("\n", ";").split(";"):
        name = None
        body = raw
        if ":" in raw:
            head, body = raw.split(":", 1)
            head = head.strip()
            if not _IDENT.match(head):
                raise MalformedToken(head)
            name = head
        letters = []
        for token in body.split():
            m = _TOKEN.match(token)
            if not m:
                raise MalformedToken(token)
            letters.append((m.group(1), PLUS if m.group(2) == "+" else MINUS))
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


def validate_error_oracle(code: FlatLinkCode):
    """(error class, offender, count) that ``validate`` must raise, or None
    for a valid code, by scanning the whole letter list once per crossing.

    A repeated component name comes first.  Then crossings are taken in
    the order of their first letters, and the first faulty one is named:
    a letter of it has a sign other than PLUS or MINUS (a plain
    FlatLinkError), it appears once, more than twice (count given), or
    twice with one sign, tested in that order.
    """
    names = [cw.name for cw in code.components]
    for i, name in enumerate(names):
        if name in names[:i]:
            return DuplicateComponentName, name, None
    letters = [l for cw in code.components for l in cw.letters]
    order = []
    for x, _ in letters:
        if x not in order:
            order.append(x)
    for x in order:
        signs = [s for y, s in letters if y == x]
        if any(s not in (PLUS, MINUS) for s in signs):
            return FlatLinkError, x, None
        if len(signs) == 1:
            return CrossingAppearsOnce, x, None
        if len(signs) > 2:
            return CrossingAppearsThrice, x, len(signs)
        if signs[0] == signs[1]:
            return SameSignTwice, x, None
    return None


def eta_oracle(code: FlatLinkCode, component: int, p: int, q: int) -> int:
    """Signed letter count strictly between p and q, by list doubling."""
    letters = code.components[component].letters
    n = len(letters)
    doubled = list(letters) + list(letters)
    end = q if q > p else q + n
    return sum(s for _, s in doubled[p + 1:end])


def total_sign(code: FlatLinkCode, component: int) -> int:
    """Sum of the letter signs on one component."""
    return sum(s for _, s in code.components[component].letters)


def codes_equivalent_syntactically(c1: FlatLinkCode, c2: FlatLinkCode,
                                   allow_relabel: bool = False) -> bool:
    """Equality of codes up to a rotation of each codeword.

    With ``allow_relabel``, one bijective renaming of crossings (applied
    consistently across the whole code) and arbitrary renaming of
    components is also allowed.  Component order still matters, and
    letter signs are never touched.  This is the relation the
    enumeration quotients by, decided here by backtracking search.
    """
    a, b = c1.components, c2.components
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return False

    def rotations(letters):
        n = len(letters)
        doubled = letters + letters
        return [doubled[k:k + n] for k in range(n)] if n else [letters]

    if not allow_relabel:
        return all(x.name == y.name and y.letters in rotations(x.letters)
                   for x, y in zip(a, b))

    def extend(i: int, fwd: dict[str, str], rev: dict[str, str]) -> bool:
        if i == len(a):
            return True
        y = b[i].letters
        for rot in rotations(a[i].letters):
            if any(l[1] != m[1] for l, m in zip(rot, y)):
                continue
            trial_f, trial_r = dict(fwd), dict(rev)
            ok = True
            for (l, _), (m, _) in zip(rot, y):
                u = trial_f.get(l)
                v = trial_r.get(m)
                if u is None and v is None:
                    trial_f[l] = m
                    trial_r[m] = l
                elif u != m or v != l:
                    ok = False
                    break
            if ok and extend(i + 1, trial_f, trial_r):
                return True
        return False

    return extend(0, {}, {})


def compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative sizes summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def signed_chord_diagrams(slots: int):
    """Every pairing of range(slots) into chords, each chord written as
    (slot of its + end, slot of its - end); each diagram comes out once."""

    def pairings(rest):
        if not rest:
            yield []
            return
        first = rest[0]
        for i in range(1, len(rest)):
            for more in pairings(rest[1:i] + rest[i + 1:]):
                yield [(first, rest[i])] + more

    for pairing in pairings(list(range(slots))):
        for flips in product((False, True), repeat=len(pairing)):
            yield [(b, a) if flip else (a, b)
                   for (a, b), flip in zip(pairing, flips)]


def _runs(diagram, sizes) -> tuple:
    """The diagram's slots as (chord number, sign) runs of the given sizes."""
    flat = [None] * sum(sizes)
    for label, (plus, minus) in enumerate(diagram, 1):
        flat[plus], flat[minus] = (label, 1), (label, -1)
    bounds = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    return tuple(tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def _code(runs) -> FlatLinkCode:
    return FlatLinkCode(tuple(
        Codeword(default_component_name(i),
                 tuple((f"c{label}", sign) for label, sign in run))
        for i, run in enumerate(runs)))


def raw_codes(crossings: int, components: int):
    """Every letter arrangement: slots split, paired, and signed."""
    for sizes in compositions(2 * crossings, components):
        for diagram in signed_chord_diagrams(2 * crossings):
            yield _code(_runs(diagram, sizes))


def _canonical_key(runs) -> tuple:
    """Least relabeled form over all per-component rotations."""
    best = None
    for rots in product(*(range(len(run)) or [0] for run in runs)):
        relabel: dict[int, int] = {}
        key = tuple(
            tuple((relabel.setdefault(label, len(relabel) + 1), sign)
                  for label, sign in run[r:] + run[:r])
            for run, r in zip(runs, rots))
        if best is None or key < best:
            best = key
    return best


def reference_enumeration(crossings: int, components: int) -> list[FlatLinkCode]:
    """enumerate_small_codes by generate-then-deduplicate: every raw
    arrangement goes to its least key over the product of all codeword
    rotations, and the set of keys comes out sorted."""
    keys = {_canonical_key(_runs(diagram, sizes))
            for sizes in compositions(2 * crossings, components)
            for diagram in signed_chord_diagrams(2 * crossings)}
    return [_code(key) for key in sorted(keys)]


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
    chords, labels numbered by first occurrence, each end signed."""

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
        if len(open_) + 2 <= total - slot:
            label = (slot + len(open_)) // 2 + 1  # chords started so far, plus one
            for sign in (1, -1):
                out.append((label, sign))
                yield from rec(out, open_ + [(label, sign)])
                out.pop()

    yield from rec([], [])


def _is_least(parts) -> bool:
    """True when no rotation of the codewords, relabeled by first
    occurrence, gives a key smaller than ``parts``.  Component j is
    compared under each relabel map of the rotations that tie with
    ``parts`` on components 0..j-1."""
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


def fill_then_test_enumeration(crossings: int,
                               components: int) -> list[FlatLinkCode]:
    """enumerate_small_codes by fill-then-test: every first-occurrence
    filling, under every cut into codewords, is kept when ``_is_least``
    finds no rotation that beats it.  Same relation and order as
    reference_enumeration, fast enough to reach (5, 2) and (6, 1)."""
    cuts = _cuts(2 * crossings, components)
    keys = []
    for filling in _fillings(2 * crossings):
        for cut in cuts:
            parts = tuple(filling[lo:hi] for lo, hi in cut)
            if _is_least(parts):
                keys.append(parts)
    return [_code(key) for key in sorted(keys)]


# (crossings, components) -> the rotation/relabel classes of the shape:
# the one statement of each count that the tests assert
CLASS_COUNTS = {
    (0, 1): 1, (1, 1): 1, (2, 1): 4, (3, 1): 22, (4, 1): 218,
    (5, 1): 3028, (6, 1): 55540,
    (0, 2): 1, (1, 2): 4, (2, 2): 20, (3, 2): 140, (4, 2): 1548,
    (5, 2): 23244,
    (0, 3): 1, (1, 3): 9, (2, 3): 66, (3, 3): 588, (4, 3): 7344,
    (5, 3): 119808,
    (3, 4): 1952, (3, 5): 5470, (2, 6): 744,
}


def burnside_class_count(crossings: int, components: int) -> int:
    """Rotation/relabel classes counted by Burnside's lemma.

    For each split of the slots into codewords, average over the product
    of the codewords' cyclic groups the number of signed chord diagrams
    that the rotation maps onto themselves.
    """
    count = 0
    for sizes in compositions(2 * crossings, components):
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        group = list(product(*(range(n) or [0] for n in sizes)))
        moved = [[start + (i + r) % n for start, n, r in zip(starts, sizes, rots)
                  for i in range(n)] for rots in group]
        fixed = 0
        for diagram in signed_chord_diagrams(2 * crossings):
            chords = set(diagram)
            fixed += sum({(g[a], g[b]) for a, b in diagram} == chords for g in moved)
        assert fixed % len(group) == 0
        count += fixed // len(group)
    return count


def letter_ends(code: FlatLinkCode) -> dict:
    """crossing id -> {sign: (component, position)} scanned from letters."""
    out: dict = {}
    for ci, cw in enumerate(code.components):
        for pos, (x, sign) in enumerate(cw.letters):
            out.setdefault(x, {})[sign] = (ci, pos)
    return out


def every_component_shares_a_crossing(code: FlatLinkCode) -> bool:
    """No component is split off: each has a crossing with another one."""
    shared = set()
    for sides in letter_ends(code).values():
        comps = {ci for ci, _ in sides.values()}
        if len(comps) == 2:
            shared |= comps
    return shared == set(range(len(code.components)))


def reference_zero_poly_witness(code: FlatLinkCode) -> bool:
    """The zero-poly search goal as defined: the assembled invariant is
    zero and the exhaustive oracle finds no filamentation."""
    return link_polynomial(code).is_zero and brute_force_filamentation(code) is None


def self_poly_oracle(code: FlatLinkCode, component: int) -> dict[int, int]:
    """Exponent -> coefficient dict of one component's polynomial."""
    coeffs: dict[int, int] = {}
    for ends in letter_ends(code).values():
        (cp, pp), (cm, pm) = ends[1], ends[-1]
        if cp == component and cm == component:
            v = eta_oracle(code, component, pp, pm)
            if v != 0:
                coeffs[abs(v)] = coeffs.get(abs(v), 0) + v
    return {e: c for e, c in coeffs.items() if c != 0}


def poly_dict(poly) -> dict[int, int]:
    """Exponent -> coefficient dict of a polynomial, read off its JSON."""
    return {int(e): c for e, c in poly.to_json().items()}


def component_poly(invariant, name: str) -> dict[int, int]:
    """One component's polynomial in a link invariant's JSON, as a dict."""
    for entry in invariant.to_json()["components"]:
        if entry["name"] == name:
            return {int(e): c for e, c in entry["poly"].items()}
    raise KeyError(name)


def linking_diff_oracle(code: FlatLinkCode, a: int, b: int) -> int:
    diff = 0
    for ends in letter_ends(code).values():
        (cp, _), (cm, _) = ends[1], ends[-1]
        if {cp, cm} == {a, b}:
            diff += 1 if cp == a else -1
    return diff


def pair_ends_oracle(code: FlatLinkCode, a: int, b: int):
    """(plus, minus): ids with + end on a resp. - end on a, by position."""
    plus, minus = [], []
    for x, ends in letter_ends(code).items():
        (cp, pp), (cm, pm) = ends[1], ends[-1]
        if {cp, cm} == {a, b}:
            if cp == a:
                plus.append((pp, x))
            else:
                minus.append((pm, x))
    return [x for _, x in sorted(plus)], [x for _, x in sorted(minus)]


def matching_sum_oracle(code: FlatLinkCode, a: int, b: int,
                        pairs) -> int:
    """Total eta_a(x+, y-) + eta_b(y+, x-) over a pairing of AB ids."""
    ends = letter_ends(code)
    total = 0
    for x, y in pairs:
        total += eta_oracle(code, a, ends[x][1][1], ends[y][-1][1])
        total += eta_oracle(code, b, ends[y][1][1], ends[x][-1][1])
    return total


def all_matchings(plus, minus):
    for perm in permutations(minus):
        yield tuple(zip(plus, perm))


def zero_matching_exists_oracle(code: FlatLinkCode, a: int, b: int) -> bool:
    """Exhaustively: is there a pairing whose every pair sums to zero?"""
    ends = letter_ends(code)
    plus, minus = pair_ends_oracle(code, a, b)
    if len(plus) != len(minus):
        return False

    def pair_sum(x, y):
        return (eta_oracle(code, a, ends[x][1][1], ends[y][-1][1])
                + eta_oracle(code, b, ends[y][1][1], ends[x][-1][1]))

    return any(all(pair_sum(x, y) == 0 for x, y in m)
               for m in all_matchings(plus, minus))


def move_sites_oracle(code: FlatLinkCode, kind: str) -> list:
    """The r2_remove or r3 sites, by scanning every pair or triple of spots.

    A spot is the letter pair at positions p and p+1 of a doubled word;
    spots on one component must cover four (or six) distinct positions.
    Slide pairs covering the same four letters count once, first kept.
    """
    spots = []
    for ci, cw in enumerate(code.components):
        n = len(cw.letters)
        doubled = list(cw.letters) + list(cw.letters)
        for p in range(n if n >= 2 else 0):
            a, b = doubled[p:p + 2]
            covers = frozenset((ci, q if q < n else q - n) for q in (p, p + 1))
            spots.append((cw.name, p, a, b, covers))
    sites, seen = [], set()
    if kind == "r2_remove":
        for s1, s2 in combinations(spots, 2):
            (c1, p1, a1, b1, k1), (c2, p2, a2, b2, k2) = s1, s2
            if any(a[0] == b[0] or a[1] == b[1] for a, b in ((a1, b1), (a2, b2))):
                continue
            if k1 & k2 or {a1, b1} != {(x, -s) for x, s in (a2, b2)}:
                continue
            if k1 | k2 not in seen:
                seen.add(k1 | k2)
                sites.append(MoveSite(kind, ((c1, p1), (c2, p2)), (a1[0], b1[0])))
    elif kind == "r3":
        plus_first = [s for s in spots if s[2][1] == 1 and s[3][1] == -1
                      and s[2][0] != s[3][0]]
        for triple in combinations(plus_first, 3):
            covers = [s[4] for s in triple]
            plus = [s[2][0] for s in triple]
            minus = [s[3][0] for s in triple]
            if len(frozenset().union(*covers)) != 6:
                continue
            if len(set(plus)) == 3 and set(minus) == set(plus):
                sites.append(MoveSite(kind, tuple((s[0], s[1]) for s in triple),
                                      tuple(plus)))
    else:
        raise ValueError(f"no oracle for {kind!r}")
    return sites


def fresh_ids_reference(code: FlatLinkCode, n: int) -> tuple[str, ...]:
    """The n ids _1, _2, ... of smallest k that no letter of ``code`` uses."""
    taken = {x for cw in code.components for x, _ in cw.letters}
    free = (f"_{k}" for k in count(1) if f"_{k}" not in taken)
    return tuple(islice(free, n))


def plant_triangle(code: FlatLinkCode, rng: random.Random) -> FlatLinkCode:
    """Insert the spots t1+ t2-, t2+ t3-, t3+ t1- at random gaps of random
    components (never inside another planted spot), then rotate every
    component at random, so a spot may wrap from position n-1 to 0."""
    blocks = [[[letter] for letter in cw.letters] for cw in code.components]
    for x, y in (("t1", "t2"), ("t2", "t3"), ("t3", "t1")):
        word = rng.choice(blocks)
        word.insert(rng.randint(0, len(word)), [(x, 1), (y, -1)])
    out = []
    for cw, word in zip(code.components, blocks):
        letters = [letter for block in word for letter in block]
        k = rng.randrange(len(letters)) if letters else 0
        out.append(Codeword(cw.name, tuple(letters[k:] + letters[:k])))
    return FlatLinkCode(tuple(out))


def random_code(rng: random.Random, max_crossings: int = 6,
                max_components: int = 3, balanced: bool = False,
                min_components: int = 1) -> FlatLinkCode:
    """One random code: crossing budget split over self and pair slots."""
    k = rng.randint(min_components, max_components)
    self_counts = [0] * k
    pair_counts: dict[tuple[int, int], int] = {}
    slots = list(combinations(range(k), 2))
    budget = rng.randint(1, max_crossings)
    while budget > 0:
        if slots and rng.random() < 0.5:
            pair = rng.choice(slots)
            step = 2 if balanced else 1
            if budget >= step:
                pair_counts[pair] = pair_counts.get(pair, 0) + step
                budget -= step
                continue
        self_counts[rng.randrange(k)] += 1
        budget -= 1
    spec = GenSpec.build(k, self_counts, pair_counts,
                         seed=rng.getrandbits(32), balanced=balanced)
    return random_flat_link(spec)


@st.composite
def codes(draw, max_crossings: int = 6, max_components: int = 3,
          balanced: bool = False, min_components: int = 1):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_code(rng, max_crossings, max_components, balanced,
                       min_components)
