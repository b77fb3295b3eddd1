from itertools import product

import pytest
from hypothesis import given, strategies as st

from flatlinks import (
    LinkInvariant,
    SparsePoly,
    link_polynomial,
    parse_flat_link,
)
from helpers import (
    all_matchings,
    codes,
    component_poly,
    linking_diff_oracle,
    matching_sum_oracle,
    pair_ends_oracle,
    poly_dict,
    self_poly_oracle,
)


def test_sparse_poly_construction():
    p = SparsePoly.from_dict({2: -2, 1: 2, 3: 0})
    assert p.terms == ((1, 2), (2, -2))
    assert poly_dict(p) == {1: 2, 2: -2}
    assert not p.is_zero
    assert SparsePoly().is_zero
    assert p.to_json() == {"1": 2, "2": -2}


def test_sparse_poly_rejects_bad_terms():
    with pytest.raises(ValueError):
        SparsePoly(((0, 1),))
    with pytest.raises(ValueError):
        SparsePoly(((1, 0),))
    with pytest.raises(ValueError):
        SparsePoly(((2, 1), (1, 1)))
    # each fault after a valid term
    for terms in (((1, 1), (0, 1)), ((1, 1), (1, 2)), ((1, 1), (2, 0))):
        with pytest.raises(ValueError):
            SparsePoly(terms)


def test_sparse_poly_rejects_what_the_normal_form_rules_reject():
    # every list of up to 3 terms over small values: rejected, with the one
    # message, exactly when an exponent is below 1, a coefficient is 0 or
    # the exponents are not sorted and distinct
    small = list(product(range(-1, 4), repeat=2))
    for n in range(4):
        for terms in product(small, repeat=n):
            exps = [e for e, _ in terms]
            if (any(e < 1 for e in exps) or any(c == 0 for _, c in terms)
                    or exps != sorted(set(exps))):
                with pytest.raises(ValueError, match="^terms need exponents "
                                   "rising from 1 and nonzero coefficients$"):
                    SparsePoly(terms)
            else:
                assert SparsePoly(terms).terms == terms


def test_sparse_poly_str():
    assert str(SparsePoly()) == "0"
    assert str(SparsePoly.from_dict({1: 2, 2: -2})) == "2t - 2t^2"
    assert str(SparsePoly.from_dict({1: -1, 3: 1})) == "-t + t^3"


def test_self_polynomial_golden():
    code = parse_flat_link("a+ b+ a- c- b- c+")
    assert component_poly(link_polynomial(code), "A") == {1: 2, 2: -2}


def test_self_polynomial_cancels():
    # the two chords contribute +1 and -1 at the same exponent
    code = parse_flat_link("a+ b+ a- b-")
    assert component_poly(link_polynomial(code), "A") == {}


@given(codes(max_crossings=6))
def test_self_polynomial_matches_oracle(code):
    inv = link_polynomial(code)
    for i, name in enumerate(code.component_names()):
        assert component_poly(inv, name) == self_poly_oracle(code, i)


@given(codes(max_crossings=6))
def test_self_polynomial_rotation_invariant(code):
    polys = link_polynomial(code).component_polys
    for i, cw in enumerate(code.components):
        for k in range(1, max(len(cw), 1)):
            assert link_polynomial(code.rotated(i, k)).component_polys == polys


def test_flat_linking_diff():
    # measured on the smaller name, wherever that component stands
    inv = link_polynomial(parse_flat_link("A: x+ y+\nB: x- y-"))
    assert inv.linking_diff("A", "B") == inv.linking_diff("B", "A") == 2
    swapped = link_polynomial(parse_flat_link("B: x+ y+\nA: x- y-"))
    assert swapped.linking_diff("A", "B") == -2


@given(codes(max_crossings=6, min_components=2))
def test_flat_linking_diff_matches_oracle(code):
    inv = link_polynomial(code)
    names = code.component_names()
    k = len(code.components)
    for a in range(k):
        for b in range(a + 1, k):
            expected = linking_diff_oracle(code, a, b)
            if names[b] < names[a]:
                expected = -expected
            assert inv.linking_diff(names[a], names[b]) == expected


def oracle_invariant(code) -> LinkInvariant:
    """The invariant rebuilt from raw letters: the pair coefficient is the
    oracle sum over the position-order zip of the + and - end lists, kept
    only when the pair is unlinked and both sign totals are zero."""
    names = code.component_names()
    totals = [sum(s for _, s in cw.letters) for cw in code.components]
    polys = sorted((names[i], SparsePoly.from_dict(self_poly_oracle(code, i)))
                   for i in range(len(names)))
    diffs, coeffs = [], []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = (i, j) if names[i] < names[j] else (j, i)
            key = (names[a], names[b])
            diff = linking_diff_oracle(code, a, b)
            diffs.append((key, diff))
            if diff == 0 and totals[a] == 0 and totals[b] == 0:
                plus, minus = pair_ends_oracle(code, a, b)
                coeffs.append(
                    (key, matching_sum_oracle(code, a, b, zip(plus, minus))))
    return LinkInvariant(tuple(polys), tuple(sorted(coeffs)), tuple(sorted(diffs)))


@given(st.booleans().flatmap(
    lambda balanced: codes(max_crossings=8, balanced=balanced)))
def test_link_polynomial_matches_oracle(code):
    assert link_polynomial(code) == oracle_invariant(code)


@given(codes(max_crossings=6, min_components=2, balanced=True))
def test_pair_coefficient_is_partition_independent(code):
    # every matching of the pair's crossings sums to the published coefficient
    inv = link_polynomial(code)
    names = code.component_names()
    k = len(code.components)
    for a in range(k):
        for b in range(a + 1, k):
            plus, minus = pair_ends_oracle(code, a, b)
            if not plus:
                continue
            values = {matching_sum_oracle(code, a, b, m)
                      for m in all_matchings(plus, minus)}
            assert values == {inv.pair_coeff(names[a], names[b])}


def test_link_polynomial_golden():
    inv = link_polynomial(parse_flat_link("A: x+ a+ y- a-\nB: y+ x-"))
    assert component_poly(inv, "A") == {1: -1}
    assert component_poly(inv, "B") == {}
    assert inv.pair_coeff("A", "B") == 1
    assert inv.linking_diff("A", "B") == 0
    assert not inv.is_zero
    assert inv.to_json() == {
        "components": [{"name": "A", "poly": {"1": -1}},
                       {"name": "B", "poly": {}}],
        "pairs": [{"a": "A", "b": "B", "coeff": 1}],
        "linking": [{"a": "A", "b": "B", "diff": 0}],
    }


def test_link_polynomial_linked_pair_has_no_coeff():
    inv = link_polynomial(parse_flat_link("A: x+ y+\nB: x- y-"))
    assert inv.pair_coeff("A", "B") is None
    assert inv.linking_diff("A", "B") == 2
    assert not inv.is_zero


def test_pair_lookups_match_the_pair_tables():
    # four components, all sign totals zero: A pairs with a coefficient
    # each, and B, C, D are linked in a cycle, so theirs are absent
    inv = link_polynomial(parse_flat_link(
        "A: c1- c2- c3+ c4+ ; B: c1+ c3- x+ y- ; C: c2+ c4- y+ z- ; D: z+ x-"))
    coeffs, diffs = dict(inv.pair_coeffs), dict(inv.linking_diffs)
    assert coeffs == {("A", "B"): 1, ("A", "C"): -1, ("A", "D"): 0}
    assert len(diffs) == 6
    for (a, b), d in diffs.items():
        for x, y in ((a, b), (b, a)):
            assert inv.linking_diff(x, y) == d
            assert inv.pair_coeff(x, y) == coeffs.get((a, b))
    assert inv.linking_diff("C", "B") == -1
    assert inv.pair_coeff("C", "B") is None
    with pytest.raises(KeyError):
        inv.linking_diff("A", "E")


def test_link_polynomial_trivial_code_is_zero():
    assert link_polynomial(parse_flat_link("A: a+ a-")).is_zero
    assert link_polynomial(parse_flat_link("A: ; B:")).is_zero


def test_link_polynomial_orders_by_name():
    inv = link_polynomial(parse_flat_link("zz: a+ a-\nmm: b+ b-"))
    assert [n for n, _ in inv.component_polys] == ["mm", "zz"]
    assert inv.linking_diffs[0][0] == ("mm", "zz")


@given(codes(max_crossings=6))
def test_link_polynomial_rotation_invariant(code):
    inv = link_polynomial(code)
    for i, cw in enumerate(code.components):
        for k in range(1, len(cw)):
            assert link_polynomial(code.rotated(i, k)) == inv


def test_link_polynomial_drops_pair_on_nonzero_sign_total():
    # A-C is unlinked, but C's sign total is -1, so its pair sum depends on
    # where A starts (0 here, 1 after rotating A by one letter)
    code = parse_flat_link("A: c4+ c1+ c3- c1- c5+ c2-\nB: c6+\n"
                           "C: c4- c3+ c5- c6- c2+")
    inv = link_polynomial(code)
    assert inv.linking_diff("A", "C") == 0
    assert inv.pair_coeff("A", "C") is None
    assert link_polynomial(code.rotated(0, 1)) == inv

