"""The polynomial invariant of a flat link code.

Every number here is read off the crossing index that ``validate``
stores in the catalog: for a crossing x,
u(x) = P[pos(x-)] - P[pos(x+) + 1], with P the prefix sums of letter
signs on the component each end lies on (plus the sign total for a
self-crossing whose - end comes first).  A self-crossing's index is its
arc count from x+ to x-, and each component contributes one polynomial:
every self-crossing x adds u(x) to the coefficient of t^|u(x)|, so
crossings of index zero drop out.  Each pair of components whose flat
linking difference and two sign totals all vanish contributes a single
linear coefficient, the sum of u over the crossings between them.

With both sign totals zero, the arc-count sum of a pair {x, y} (x with
its + end on the first component, y with its - end there) is
u(x) + u(y), so that sum is the same for every pairing.  These values are
invariant under the flat Reidemeister moves only when every component's
sign total is zero; otherwise the polynomial can change under moves.
A pair coefficient on a component with a nonzero sign total would depend
on the pairing, and so on where the codewords start, so it is not
published.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .gausscode import (
    CrossingCatalog,
    FlatLinkCode,
    FlatLinkError,
    validate,
)


class SameComponent(FlatLinkError):
    pass


class NonzeroFlatLinking(FlatLinkError):
    def __init__(self, diff: int):
        super().__init__(f"flat linking difference is {diff:+d}, no pairing exists")
        self.diff = diff


@dataclass(frozen=True)
class SparsePoly:
    """Integer polynomial with no constant term, stored sparsely.

    ``terms`` is a tuple of (exponent, coefficient) pairs sorted by
    exponent, with every coefficient nonzero and every exponent >= 1.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        exps = [e for e, _ in self.terms]
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be >= 1")
        if any(c == 0 for _, c in self.terms):
            raise ValueError("zero coefficients must be dropped")
        if exps != sorted(set(exps)):
            raise ValueError("terms must be sorted by distinct exponent")

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, int]) -> "SparsePoly":
        return cls(tuple(sorted((e, c) for e, c in coeffs.items() if c != 0)))

    def coefficient(self, exponent: int) -> int:
        for e, c in self.terms:
            if e == exponent:
                return c
        return 0

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in self.terms}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            body = "t" if e == 1 else f"t^{e}"
            if abs(c) != 1:
                body = f"{abs(c)}{body}"
            parts.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(parts)
        return "-" + out[2:] if out.startswith("- ") else out[2:]


@dataclass(frozen=True)
class LinkInvariant:
    """The assembled invariant of a code.

    component_polys: one polynomial per component, keyed by name.
    pair_coeffs: the linear coefficient for every unordered component
        pair whose flat linking difference and two sign totals are zero
        (undefined otherwise, so such pairs are simply absent).
    linking_diffs: the raw +/- end-count difference for every unordered
        pair, measured on the lexicographically smaller name.  Halve it
        for the classical flat linking number.
    """

    component_polys: tuple[tuple[str, SparsePoly], ...]
    pair_coeffs: tuple[tuple[tuple[str, str], int], ...]
    linking_diffs: tuple[tuple[tuple[str, str], int], ...]

    def pair_coeff(self, a: str, b: str) -> int | None:
        """The pair coefficient, or None when the pair is linked or either
        component's sign total is nonzero."""
        key = (min(a, b), max(a, b))
        for k, c in self.pair_coeffs:
            if k == key:
                return c
        return None

    def linking_diff(self, a: str, b: str) -> int:
        key = (min(a, b), max(a, b))
        for k, d in self.linking_diffs:
            if k == key:
                return d
        raise KeyError(key)

    @property
    def is_zero(self) -> bool:
        return (all(p.is_zero for _, p in self.component_polys)
                and all(c == 0 for _, c in self.pair_coeffs)
                and all(d == 0 for _, d in self.linking_diffs))

    def to_json(self) -> dict:
        return {
            "components": [{"name": n, "poly": p.to_json()}
                           for n, p in self.component_polys],
            "pairs": [{"a": a, "b": b, "coeff": c}
                      for (a, b), c in self.pair_coeffs],
            "linking": [{"a": a, "b": b, "diff": d}
                        for (a, b), d in self.linking_diffs],
        }


def flat_linking_diff(catalog: CrossingCatalog, a: int, b: int) -> int:
    """(+ ends) minus (- ends), among crossings between a and b, on a.

    Antisymmetric in the two components.  Raises SameComponent when
    a == b.  The classical flat linking number is half of this value.
    """
    if a == b:
        raise SameComponent(f"need two distinct components, got {a} twice")
    diff = 0
    for x in catalog.pair_crossings(a, b):
        diff += 1 if catalog.ends[x][0] == a else -1
    return diff


def self_polynomial(catalog: CrossingCatalog, component: int) -> SparsePoly:
    """The component's polynomial: sum of u(x) * t^|u(x)| over its
    self-crossings, whose index u(x) is the arc count eta(x+, x-)."""
    coeffs: dict[int, int] = {}
    for x in catalog.self_crossings(component):
        v = catalog.index[x]
        if v != 0:
            coeffs[abs(v)] = coeffs.get(abs(v), 0) + v
    return SparsePoly.from_dict(coeffs)


def link_polynomial(code: FlatLinkCode) -> LinkInvariant:
    """Assemble the whole invariant of a validated code."""
    catalog = validate(code)
    names = [cw.name for cw in code.components]
    polys = sorted(((names[i], self_polynomial(catalog, i))
                    for i in range(len(names))), key=lambda t: t[0])
    diffs, coeffs = [], []
    for i, j in combinations(range(len(names)), 2):
        a, b = (i, j) if names[i] < names[j] else (j, i)
        d = flat_linking_diff(catalog, a, b)
        diffs.append(((names[a], names[b]), d))
        if d == 0 and catalog.totals[a] == catalog.totals[b] == 0:
            coeff = sum(catalog.index[x] for x in catalog.pair_crossings(a, b))
            coeffs.append(((names[a], names[b]), coeff))
    return LinkInvariant(tuple(polys), tuple(sorted(coeffs)), tuple(sorted(diffs)))

