"""Filamentations: partitions of a code's crossings into vanishing parts.

A monofilament is a single self-crossing x with arc count
``intersection_number(x+, x-) == 0``.  A bifilament is a pair {x, y}
whose ends align into two filaments, x+ with y- on one codeword and y+
with x- on another (possibly the same), such that the two arc counts sum
to zero.

Construction reads only the index buckets that ``validate`` (in
``gausscode``) files; the ``CrossingCatalog`` docstring shows why they
decide the question: a filamentation exists exactly when every bucket
balances, a component's index-0 bucket of monofilaments aside.
``brute_force_filamentation`` is the independent exhaustive check used
to test the constructive route.  It and ``verify_filamentation`` read
the definition above from one place, ``_part_fault``.
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

__all__ = [
    "ORACLE_CAP", "Filamentation", "FilamentViolation", "PartitionNotCovering",
    "PartsOverlap", "InstanceTooLarge", "verify_filamentation",
    "link_filamentation", "brute_force_filamentation",
]

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


def _part_fault(code: FlatLinkCode, catalog: CrossingCatalog,
                part: tuple[str, ...]) -> str | None:
    """Why ``part`` is not a monofilament (one id) or a bifilament (two),
    or None when it is one."""
    if len(part) == 1:
        pc, pp, mc, mp = catalog.ends[part[0]]
        if pc != mc:
            return "monofilament ends lie on two components"
        v = intersection_number(code, pc, pp, mp)
        return f"arc count {v:+d}, expected 0" if v else None
    cxp, pxp, cxm, pxm = catalog.ends[part[0]]
    cyp, pyp, cym, pym = catalog.ends[part[1]]
    if cxp != cym or cxm != cyp:
        return "ends do not align into two filaments"
    s = (intersection_number(code, cxp, pxp, pym)
         + intersection_number(code, cyp, pyp, pxm))
    return f"arc count sum {s:+d}, expected 0" if s else None


def verify_filamentation(code: FlatLinkCode, f: Filamentation) -> list[FilamentViolation]:
    """Check a claimed filamentation; an empty list means it is one.

    Global structure is enforced by raising: PartsOverlap when a crossing
    sits in two parts, PartitionNotCovering when the parts miss a
    crossing of the code or name one it does not have.  Per-part failures
    (a bifilament not of two crossings, misaligned ends, nonzero arc
    counts) come back as violations, in the order of ``f.parts()``.
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
    # a claimed bifilament of one id would pass as a monofilament
    faults = [((x,), _part_fault(code, catalog, (x,))) for x in f.monofilaments]
    faults += [(p, _part_fault(code, catalog, p) if len(p) == 2 else
                f"bifilament holds {len(p)} crossing(s), expected 2")
               for p in f.bifilaments]
    return [FilamentViolation(part, fault) for part, fault in faults
            if fault is not None]


def greedy_zero_sum_partition(catalog: CrossingCatalog) -> Filamentation | None:
    """Filamentation of the whole code, or None when none exists.

    Only when every index bucket balances are its two sides sorted by
    position on the lower-numbered component (a self-crossing by its +
    end) and paired in that order.  A nonzero sign total unbalances some
    pair bucket, so the balance test also returns None then.  Not exported:
    ``link_filamentation`` is the public route, and calls this through the
    module global because ``perfbench/tracer.py`` rebinds it by name.
    """
    buckets = catalog.buckets
    # a component's index-0 bucket, its monofilaments, need not balance
    if not all(len(plus) == len(minus) or (a == b and not v)
               for (a, b, v), (plus, minus) in buckets.items()):
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
        bi.extend(zip(sorted(plus, key=lambda x: ends[x][1]),
                      sorted(minus, key=lambda x: ends[x][end])))
    return Filamentation(tuple(mono), tuple(bi))


def link_filamentation(code: FlatLinkCode) -> Filamentation | None:
    """Greedy filamentation of the whole code, or None; the public route."""
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
    ends = catalog.ends
    if len(ends) > ORACLE_CAP:
        raise InstanceTooLarge(
            f"{len(ends)} crossings exceeds the oracle cap of {ORACLE_CAP}")
    # by first letter, so which filamentation is found does not depend on
    # the order of ``ends``
    ids = sorted(ends, key=lambda x: min(ends[x][:2], ends[x][2:]))

    mono_ok = {x: _part_fault(code, catalog, (x,)) is None for x in ids}
    pair_ok = {(x, y): _part_fault(code, catalog, (x, y)) is None
               for x, y in combinations(ids, 2)}
    found = _solve(tuple(ids), mono_ok, pair_ok)
    return None if found is None else Filamentation(tuple(found[0]), tuple(found[1]))
