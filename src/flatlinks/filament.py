"""Filamentations: partitions of a code's crossings into vanishing parts.

A monofilament is a single self-crossing x with arc count
``intersection_number(x+, x-) == 0``.  A bifilament is a pair {x, y}
whose ends align into two filaments, x+ with y- on one codeword and y+
with x- on another (possibly the same), such that the two arc counts sum
to zero.  The alignment forces the decomposition: a self-crossing can
only pair with a self-crossing of the same component, and a crossing
between components A and B only with another A-B crossing.

Construction is therefore componentwise, and it reads only the crossing
index u that ``validate`` stores in the catalog (see ``invariant``).
Within one component a self-crossing's index is its arc count, and
chords of index +n are matched against chords of index -n.  Across two
components whose sign totals are zero, the pair {x, y} sums to
u(x) + u(y), so a zero-sum matching exists exactly when the indices on
the + side are the negated indices on the - side, as multisets, and
matching equal buckets finds one in linear time.
``brute_force_filamentation`` is the independent exhaustive check used
to test the constructive route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gausscode import (
    CrossingCatalog,
    FlatLinkCode,
    FlatLinkError,
    intersection_number,
    validate,
)
from .invariant import NonzeroFlatLinking, flat_linking_diff

ORACLE_CAP = 12


class PartitionNotCovering(FlatLinkError):
    pass


class PartsOverlap(FlatLinkError):
    pass


class InstanceTooLarge(FlatLinkError):
    pass


@dataclass(frozen=True)
class Filamentation:
    """A partition of the crossing set into mono- and bifilaments.

    Stored canonically: both tuples sorted, each bifilament pair sorted.
    Construction does not check the defining conditions; that is
    ``verify_filamentation``'s job.
    """

    monofilaments: tuple[str, ...] = ()
    bifilaments: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "monofilaments", tuple(sorted(self.monofilaments)))
        object.__setattr__(self, "bifilaments", tuple(
            sorted(tuple(sorted(p)) for p in self.bifilaments)))

    def parts(self):
        for x in self.monofilaments:
            yield (x,)
        for pair in self.bifilaments:
            yield pair

    def to_json(self) -> dict:
        return {"mono": list(self.monofilaments),
                "bi": [list(p) for p in self.bifilaments]}


@dataclass(frozen=True)
class FilamentViolation:
    part: tuple[str, ...]
    reason: str

    def __str__(self) -> str:
        return f"{{{', '.join(self.part)}}}: {self.reason}"


def _bifilament_sum(code: FlatLinkCode, catalog: CrossingCatalog,
                    x: str, y: str) -> int | None:
    """Arc-count sum of the pair {x, y}, or None if the ends misalign."""
    cxp, pxp, cxm, pxm = catalog.ends[x]
    cyp, pyp, cym, pym = catalog.ends[y]
    if cxp != cym or cxm != cyp:
        return None
    if pxp == pym or pyp == pxm:
        return None  # a letter cannot start and end the same filament
    return (intersection_number(code, cxp, pxp, pym)
            + intersection_number(code, cyp, pyp, pxm))


def verify_filamentation(code: FlatLinkCode, f: Filamentation) -> list[FilamentViolation]:
    """Check a claimed filamentation; an empty list means it is one.

    Global structure is enforced by raising: PartsOverlap when a crossing
    sits in two parts, PartitionNotCovering when the parts miss a
    crossing of the code or name one it does not have.  Per-part failures
    (misaligned ends, nonzero arc counts) come back as violations.
    """
    catalog = validate(code)
    all_ids = set(catalog.crossings())
    seen: set[str] = set()
    for part in f.parts():
        for x in part:
            if x in seen:
                raise PartsOverlap(f"crossing {x!r} appears in two parts")
            seen.add(x)
    if seen - all_ids:
        alien = sorted(seen - all_ids)
        raise PartitionNotCovering(f"not crossings of the code: {', '.join(alien)}")
    if all_ids - seen:
        missing = sorted(all_ids - seen)
        raise PartitionNotCovering(f"crossings not covered: {', '.join(missing)}")

    violations = []
    for x in f.monofilaments:
        pc, pp, mc, mp = catalog.ends[x]
        if pc != mc:
            violations.append(FilamentViolation(
                (x,), "monofilament ends lie on two components"))
            continue
        v = intersection_number(code, pc, pp, mp)
        if v != 0:
            violations.append(FilamentViolation((x,), f"arc count {v:+d}, expected 0"))
    for x, y in f.bifilaments:
        s = _bifilament_sum(code, catalog, x, y)
        if s is None:
            violations.append(FilamentViolation(
                (x, y), "ends do not align into two filaments"))
        elif s != 0:
            violations.append(FilamentViolation(
                (x, y), f"arc count sum {s:+d}, expected 0"))
    return violations


def _match(catalog: CrossingCatalog, plus: list[str],
           minus: list[str]) -> tuple[tuple[str, str], ...] | None:
    """Pairs (x, y): each x of ``plus``, in order, takes the earliest
    unused y of ``minus`` whose index is -u(x).  None unless every
    crossing of both lists is matched."""
    buckets: dict[int, list[str]] = {}
    for y in reversed(minus):
        buckets.setdefault(catalog.index[y], []).append(y)
    pairs: list[tuple[str, str]] = []
    for x in plus:
        partners = buckets.get(-catalog.index[x])
        if not partners:
            return None
        pairs.append((x, partners.pop()))
    return tuple(pairs) if len(pairs) == len(minus) else None


def component_filamentation(catalog: CrossingCatalog,
                            component: int) -> Filamentation | None:
    """Filamentation of one component's self-crossings, if one exists.

    Chords of index zero become monofilaments; for each n > 0 the chords
    of index +n are matched, in position order, against those of index
    -n.  Returns None on a count mismatch, which is exactly when the
    component polynomial is nonzero.  Assumes the component's total sign
    is zero (true whenever all pairwise linking differences vanish).
    """
    mono: list[str] = []
    plus, minus = [], []
    for x in catalog.self_crossings(component):
        v = catalog.index[x]
        (mono if v == 0 else plus if v > 0 else minus).append(x)
    bi = _match(catalog, plus, minus)
    if bi is None:
        return None
    return Filamentation(tuple(mono), bi)


def greedy_zero_sum_partition(catalog: CrossingCatalog, a: int,
                              b: int) -> tuple[tuple[str, str], ...] | None:
    """Zero-sum matching of the crossings between two components.

    Returns pairs (x, y), x with its + end on ``a`` and y with its - end
    there.  Each x, in position order on ``a``, takes the earliest unused
    y whose index is the negation of its own; None when some x finds no
    partner, which proves that no zero-sum matching exists.  Raises
    NonzeroFlatLinking when the end counts differ, and also when the
    sign total of ``a`` or ``b`` is nonzero (the total is that
    component's linking difference with all the others): the indices
    decide the pair sums only when both totals vanish.
    """
    diff = flat_linking_diff(catalog, a, b)
    if diff != 0:
        raise NonzeroFlatLinking(diff)
    for c in (a, b):
        if catalog.totals[c] != 0:
            raise NonzeroFlatLinking(catalog.totals[c])
    return _match(catalog, *catalog.pair_ends(a, b))


def link_filamentation(code: FlatLinkCode) -> Filamentation | None:
    """Greedy filamentation of the whole code, or None.

    Returns None immediately when some flat linking difference is
    nonzero; otherwise combines the componentwise matchings with a
    zero-sum matching for every component pair.
    """
    catalog = validate(code)
    k = len(code.components)
    for i, j in combinations(range(k), 2):
        if flat_linking_diff(catalog, i, j) != 0:
            return None
    mono: list[str] = []
    bi: list[tuple[str, str]] = []
    for i in range(k):
        part = component_filamentation(catalog, i)
        if part is None:
            return None
        mono.extend(part.monofilaments)
        bi.extend(part.bifilaments)
    for i, j in combinations(range(k), 2):
        if not catalog.pair_crossings(i, j):
            continue
        pairs = greedy_zero_sum_partition(catalog, i, j)
        if pairs is None:
            return None
        bi.extend(pairs)
    return Filamentation(tuple(mono), tuple(bi))


def brute_force_filamentation(code: FlatLinkCode) -> Filamentation | None:
    """Exhaustive backtracking search over all partitions into legal parts.

    Independent of the constructive route above, and used to test it.
    None is a proof of nonexistence within the definition, never an
    error.  Raises InstanceTooLarge over the crossing cap.
    """
    catalog = validate(code)
    ids = list(catalog.crossings())
    if len(ids) > ORACLE_CAP:
        raise InstanceTooLarge(
            f"{len(ids)} crossings exceeds the oracle cap of {ORACLE_CAP}")

    mono_ok: dict[str, bool] = {}
    for x in ids:
        pc, pp, mc, mp = catalog.ends[x]
        mono_ok[x] = pc == mc and intersection_number(code, pc, pp, mp) == 0
    pair_ok: dict[tuple[str, str], bool] = {}
    for x, y in combinations(ids, 2):
        pair_ok[(x, y)] = _bifilament_sum(code, catalog, x, y) == 0

    def solve(remaining: tuple[str, ...]) -> tuple[list[str], list[tuple[str, str]]] | None:
        if not remaining:
            return ([], [])
        x, rest = remaining[0], remaining[1:]
        if mono_ok[x]:
            sub = solve(rest)
            if sub is not None:
                return ([x] + sub[0], sub[1])
        for i, y in enumerate(rest):
            if pair_ok[(x, y)]:
                sub = solve(rest[:i] + rest[i + 1:])
                if sub is not None:
                    return (sub[0], [(x, y)] + sub[1])
        return None

    found = solve(tuple(ids))
    if found is None:
        return None
    return Filamentation(tuple(found[0]), tuple(found[1]))
