"""The polynomial invariant of a flat link code.

Every number here is read off the index buckets of ``index_buckets``
(in ``gausscode``), which also states how: a component's polynomial
comes from its self-crossing buckets, and a pair's flat linking
difference and linear coefficient from the pair's buckets.  Crossings
of index zero drop out of the polynomials.

A pair coefficient is published only when the pair's linking difference
and both sign totals vanish; otherwise it would depend on where the
codewords start.  The component polynomials are invariant under the flat
Reidemeister moves only when every component's sign total is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .gausscode import FlatLinkCode, index_buckets, validate


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


def _tally(buckets, k: int) -> tuple[list[dict[int, int]],
                                      dict[tuple[int, int], list[int]]]:
    """The raw values of the invariant from the side counts of
    ``index_buckets`` on k components.

    With n = |+ side| - |- side| of a bucket (a, b, v): for a == b, the
    coefficient v n of t^v in the polynomial of a (nonzero ones only);
    for a < b, n added to the pair's linking difference, measured on a,
    and v n to its coefficient, as pairs[a, b] = [difference, coeff].
    """
    polys: list[dict[int, int]] = [{} for _ in range(k)]
    pairs: dict[tuple[int, int], list[int]] = {}
    for (a, b, v), (plus, minus) in buckets.items():
        n = len(plus) - len(minus)
        if not n:
            continue
        if a == b:
            if v:
                polys[a][v] = v * n
            continue
        acc = pairs.get((a, b))
        if acc is None:
            acc = pairs[a, b] = [0, 0]
        acc[0] += n
        acc[1] += v * n
    return polys, pairs


def link_polynomial(code: FlatLinkCode) -> LinkInvariant:
    """Assemble the whole invariant of a validated code."""
    catalog = validate(code)
    names = [cw.name for cw in code.components]
    polys, pairs = _tally(index_buckets(catalog), len(names))
    totals = catalog.totals
    diffs, coeffs = [], []
    for i, j in combinations(range(len(names)), 2):
        d, coeff = pairs.get((i, j), (0, 0))
        key = (names[i], names[j])
        if names[j] < names[i]:
            d, key = -d, (names[j], names[i])
        diffs.append((key, d))
        if d == 0 and totals[i] == totals[j] == 0:
            coeffs.append((key, coeff))
    polys_by_name = sorted(zip(names, map(SparsePoly.from_dict, polys)),
                           key=lambda t: t[0])
    return LinkInvariant(tuple(polys_by_name), tuple(sorted(coeffs)),
                         tuple(sorted(diffs)))
