"""The polynomial invariant of a flat link code.

Every number here is read off the index buckets that ``validate`` (in
``gausscode``) files, and ``CrossingCatalog`` states how: a component's
polynomial comes from its self-crossing buckets, and a pair's flat
linking difference and linear coefficient from the pair's buckets.  Crossings
of index zero drop out of the polynomials.

A pair coefficient is published only when the pair's linking difference
and both sign totals vanish; otherwise it would depend on where the
codewords start.  The component polynomials are invariant under the flat
Reidemeister moves only when every component's sign total is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Mapping

from .gausscode import FlatLinkCode, validate

__all__ = ["SparsePoly", "LinkInvariant", "link_polynomial"]


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

    # built on first use; not fields, so ==, hash and to_json ignore them
    @cached_property
    def _coeff_of(self) -> dict[tuple[str, str], int]:
        return dict(self.pair_coeffs)

    @cached_property
    def _diff_of(self) -> dict[tuple[str, str], int]:
        return dict(self.linking_diffs)

    def pair_coeff(self, a: str, b: str) -> int | None:
        """The pair coefficient, or None when the pair is linked or either
        component's sign total is nonzero."""
        return self._coeff_of.get((min(a, b), max(a, b)))

    def linking_diff(self, a: str, b: str) -> int:
        return self._diff_of[min(a, b), max(a, b)]

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


def _tally(counts) -> tuple[dict[int, dict[int, int]],
                            dict[tuple[int, int], list[int]]]:
    """The raw values of the invariant from ((a, b, v), n) pairs, n =
    |+ side| - |- side| of bucket (a, b, v): the one place bucket counts
    become values, which ``link_polynomial`` publishes and the search
    screen (``generate._key_screen``) tests.

    For a == b, polys[a][v] = v n, the coefficient of t^v in the
    polynomial of a; for a < b, pairs[a, b] = [difference, coeff] sums n
    into the pair's linking difference, measured on a, and v n into its
    coefficient.  A balanced bucket leaves no trace: only nonzero terms,
    and pairs with an unbalanced bucket, are kept.
    """
    polys: dict[int, dict[int, int]] = {}
    pairs: dict[tuple[int, int], list[int]] = {}
    for (a, b, v), n in counts:
        if not n:
            continue
        if a == b:
            if v:
                poly = polys.get(a)
                if poly is None:
                    poly = polys[a] = {}
                poly[v] = v * n
            continue
        acc = pairs.get((a, b))
        if acc is None:
            pairs[a, b] = [n, v * n]
        else:
            acc[0] += n
            acc[1] += v * n
    return polys, pairs


def link_polynomial(code: FlatLinkCode) -> LinkInvariant:
    """Assemble the whole invariant of a validated code."""
    catalog = validate(code)
    names = [cw.name for cw in code.components]
    buckets = catalog.buckets
    # zip over a list is cheaper here than a generator expression
    polys, pairs = _tally(zip(buckets, [len(plus) - len(minus)
                                        for plus, minus in buckets.values()]))
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
    polys_by_name = sorted(((name, SparsePoly.from_dict(polys.get(i, {})))
                            for i, name in enumerate(names)), key=lambda t: t[0])
    return LinkInvariant(tuple(polys_by_name), tuple(sorted(coeffs)),
                         tuple(sorted(diffs)))
