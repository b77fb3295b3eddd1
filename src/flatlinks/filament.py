"""Filamentations: partitions of a code's crossings into vanishing parts.

A monofilament is a single self-crossing x with arc count
``intersection_number(x+, x-) == 0``.  A bifilament is a pair {x, y}
whose ends align into two filaments, x+ with y- on one codeword and y+
with x- on another (possibly the same), such that the two arc counts sum
to zero.

Construction reads only the index buckets of ``index_buckets`` (in
``gausscode``), whose docstring shows why they decide the question: a
filamentation exists exactly when every bucket balances, a component's
index-0 bucket of monofilaments aside.  ``brute_force_filamentation`` is
the independent exhaustive check used to test the constructive route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gausscode import (
    CrossingCatalog,
    FlatLinkCode,
    FlatLinkError,
    index_buckets,
    intersection_number,
    validate,
)

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
    all_ids = set(catalog.ends)
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


def _balanced(buckets) -> bool:
    """Whether every bucket of ``index_buckets`` has sides of equal size;
    a component's index-0 bucket, its monofilaments, is exempt."""
    return all(len(plus) == len(minus) or (a == b and not v)
               for (a, b, v), (plus, minus) in buckets.items())


def greedy_zero_sum_partition(catalog: CrossingCatalog) -> Filamentation | None:
    """Filamentation of the whole code, or None when none exists.

    Only when every index bucket balances are its two sides sorted by
    position on the lower-numbered component (a self-crossing by its +
    end) and paired in that order.  A nonzero sign total unbalances some
    bucket, and is tested first because it is cheaper.  The name is kept
    because ``perfbench/tracer.py`` wraps it by name.
    """
    if any(catalog.totals):
        return None
    buckets = index_buckets(catalog)
    if not _balanced(buckets):
        return None
    ends = catalog.ends
    mono: list[str] = []
    bi: list[tuple[str, str]] = []
    for (a, b, v), (plus, minus) in buckets.items():
        if a == b and not v:
            mono.extend(plus)
            continue
        # by the end on a: the + end, except on the - side of a pair
        end = 1 if a == b else 3
        plus.sort(key=lambda x: ends[x][1])
        minus.sort(key=lambda x: ends[x][end])
        bi.extend(zip(plus, minus))
    return Filamentation(tuple(mono), tuple(bi))


def link_filamentation(code: FlatLinkCode) -> Filamentation | None:
    """Greedy filamentation of the whole code, or None."""
    return greedy_zero_sum_partition(validate(code))


def _solve(remaining: tuple[str, ...], mono_ok, pair_ok
           ) -> tuple[list[str], list[tuple[str, str]]] | None:
    # not a closure: a self-calling closure is a garbage cycle per oracle call
    if not remaining:
        return ([], [])
    x, rest = remaining[0], remaining[1:]
    if mono_ok[x]:
        sub = _solve(rest, mono_ok, pair_ok)
        if sub is not None:
            return ([x] + sub[0], sub[1])
    for i, y in enumerate(rest):
        if pair_ok[(x, y)]:
            sub = _solve(rest[:i] + rest[i + 1:], mono_ok, pair_ok)
            if sub is not None:
                return (sub[0], [(x, y)] + sub[1])
    return None


def brute_force_filamentation(code: FlatLinkCode) -> Filamentation | None:
    """Exhaustive backtracking search over all partitions into legal parts.

    Independent of the constructive route above, and used to test it.
    None is a proof of nonexistence within the definition, never an
    error.  Raises InstanceTooLarge over the crossing cap.
    """
    catalog = validate(code)
    ids = list(catalog.ends)
    if len(ids) > ORACLE_CAP:
        raise InstanceTooLarge(
            f"{len(ids)} crossings exceeds the oracle cap of {ORACLE_CAP}")

    mono_ok: dict[str, bool] = {}
    for x in ids:
        pc, pp, mc, mp = catalog.ends[x]
        mono_ok[x] = pc == mc and intersection_number(code, pc, pp, mp) == 0
    pair_ok = {(x, y): _bifilament_sum(code, catalog, x, y) == 0
               for x, y in combinations(ids, 2)}
    found = _solve(tuple(ids), mono_ok, pair_ok)
    return None if found is None else Filamentation(tuple(found[0]), tuple(found[1]))
