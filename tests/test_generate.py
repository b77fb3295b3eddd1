import random

import pytest
from hypothesis import given, settings, strategies as st

from flatlinks import (
    COMPONENT_CAP,
    ENUMERATION_CAP,
    GenSpec,
    InfeasibleSpec,
    InstanceTooLarge,
    SearchGoal,
    SearchLimits,
    brute_force_filamentation,
    enumerate_small_codes,
    link_polynomial,
    parse_flat_link,
    random_flat_link,
    render_flat_link,
    search_examples,
    validate,
)
from flatlinks import generate
from flatlinks.generate import _is_witness, _least_keys
from helpers import (
    burnside_class_count,
    codes_equivalent_syntactically,
    every_component_shares_a_crossing,
    fill_then_test_enumeration,
    random_code,
    raw_codes,
    reference_enumeration,
    reference_zero_poly_witness,
    total_sign,
)

ZERO_POLY = SearchGoal.ZERO_POLY_NO_FILAMENTATION


def test_genspec_build_normalizes_pairs():
    spec = GenSpec.build(3, (1, 0, 0), {(2, 1): 2, (0, 1): 1})
    assert spec.pair_counts == (((0, 1), 1), ((1, 2), 2))
    assert spec.component_count == 3
    assert spec.crossing_count == 4


def test_genspec_rejects_bad_shapes():
    with pytest.raises(InfeasibleSpec):
        GenSpec((-1,))
    with pytest.raises(InfeasibleSpec):
        GenSpec((0, 0), (((0, 0), 1),))
    with pytest.raises(InfeasibleSpec):
        GenSpec((0, 0), (((0, 1), 1),), balanced=True)
    with pytest.raises(InfeasibleSpec):
        GenSpec.build(2, (1,))


def test_random_flat_link_is_deterministic_and_valid():
    spec = GenSpec.build(2, (2, 1), {(0, 1): 3}, seed=5)
    code = random_flat_link(spec)
    assert code == random_flat_link(spec)
    groups = sorted((pc, mc) if pc <= mc else (mc, pc)
                    for pc, _, mc, _ in validate(code).ends.values())
    assert groups == [(0, 0), (0, 0), (0, 1), (0, 1), (0, 1), (1, 1)]
    assert code != random_flat_link(GenSpec.build(2, (2, 1), {(0, 1): 3}, seed=6))


@pytest.mark.parametrize("spec,text", [
    (GenSpec.build(1, (5,), seed=7),
     "c5+ c2- c1- c3+ c4- c1+ c5- c4+ c2+ c3-"),
    (GenSpec.build(3, (1, 2, 0), {(0, 1): 2, (0, 2): 4, (1, 2): 2},
                   seed=11, balanced=True),
     "c9+ c7+ c1+ c1- c5+ c6- c8- c4- ; c3- c10+ c3+ c5- c11- c2+ c2- c4+ ; "
     "c11+ c6+ c8+ c7- c10- c9-"),
    (GenSpec.build(3, (2, 0, 1), {(0, 1): 3, (1, 2): 1, (0, 2): 2}, seed=3),
     "c8- c2- c6+ c5- c1- c4+ c2+ c7- c1+ ; c6- c4- c5+ c9+ ; c3+ c8+ c7+ c9- c3-"),
])
def test_random_flat_link_text_is_pinned(spec, text):
    # a knot, a balanced and an unbalanced link; the benchmark's input
    # pools are checked in by digests of this text, so it must not drift
    assert render_flat_link(random_flat_link(spec)) == text


@given(st.integers(0, 2**32 - 1))
def test_balanced_generation_kills_linking(seed):
    code = random_code(random.Random(seed), max_crossings=6, balanced=True)
    for a in range(len(code.components)):
        assert total_sign(code, a) == 0
    assert all(d == 0 for _, d in link_polynomial(code).linking_diffs)


def test_enumerate_small_counts_frozen():
    # cross-checked below against a raw quotient; frozen for regression
    assert sum(1 for _ in enumerate_small_codes(1, 1)) == 1
    assert sum(1 for _ in enumerate_small_codes(2, 1)) == 4
    assert sum(1 for _ in enumerate_small_codes(3, 1)) == 22
    assert sum(1 for _ in enumerate_small_codes(4, 1)) == 218
    # past what Burnside checks in time; both match fill-then-test
    assert len(enumerate_small_codes(5, 2)) == 23244
    assert len(enumerate_small_codes(6, 1)) == 55540


def test_enumerate_contains_named_classes():
    reps = list(enumerate_small_codes(2, 1))
    for text in ("a+ b+ a- b-", "a+ a- b+ b-"):
        target = parse_flat_link(text)
        hits = [r for r in reps
                if codes_equivalent_syntactically(r, target, allow_relabel=True)]
        assert len(hits) == 1, text


@pytest.mark.parametrize("crossings,components", [
    (1, 1), (2, 1), (3, 1), (1, 2), (2, 2),
])
def test_enumerate_matches_raw_quotient(crossings, components):
    reps = list(enumerate_small_codes(crossings, components))
    for i, r in enumerate(reps):
        for other in reps[i + 1:]:
            assert not codes_equivalent_syntactically(r, other, allow_relabel=True)
    classes = []
    for code in raw_codes(crossings, components):
        if not any(codes_equivalent_syntactically(code, seen, allow_relabel=True)
                   for seen in classes):
            classes.append(code)
    assert len(classes) == len(reps)
    for code in classes:
        assert any(codes_equivalent_syntactically(code, r, allow_relabel=True)
                   for r in reps)


@pytest.mark.parametrize("crossings,components", [
    (c, k) for c in range(4) for k in range(4)] + [(4, 1), (4, 2)])
def test_enumerate_equals_reference(crossings, components):
    # same least keys in the same order as generate-then-deduplicate
    assert (enumerate_small_codes(crossings, components)
            == reference_enumeration(crossings, components))


@pytest.mark.parametrize("crossings,components", [(4, 3), (5, 1), (3, 4), (2, 6)])
def test_enumerate_equals_fill_then_test(crossings, components):
    # prefix pruning keeps exactly the fillings that the complete test keeps
    assert (enumerate_small_codes(crossings, components)
            == fill_then_test_enumeration(crossings, components))


@pytest.mark.parametrize("crossings,components,count", [
    (0, 1, 1), (1, 1, 1), (2, 1, 4), (3, 1, 22), (4, 1, 218), (5, 1, 3028),
    (2, 2, 20), (3, 2, 140), (4, 2, 1548), (4, 3, 7344), (3, 4, 1952),
])
def test_class_count_matches_burnside(crossings, components, count):
    assert burnside_class_count(crossings, components) == count
    assert len(enumerate_small_codes(crossings, components)) == count


@pytest.mark.parametrize("crossings,components", [
    (3, 1), (4, 2), (5, 1), (4, 3), (3, 4), (2, 6)])
def test_least_keys_come_out_sorted(crossings, components):
    keys = _least_keys(crossings, components)
    assert keys == sorted(keys)


def test_enumerate_is_deterministic_and_validates():
    first = list(enumerate_small_codes(3, 2))
    second = list(enumerate_small_codes(3, 2))
    assert first == second
    for code in first:
        validate(code)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_small_code_has_exactly_one_representative(seed):
    code = random_code(random.Random(seed), max_crossings=3, max_components=2)
    crossings = len(validate(code).ends)
    reps = enumerate_small_codes(crossings, len(code.components))
    hits = [r for r in reps
            if codes_equivalent_syntactically(code, r, allow_relabel=True)]
    assert len(hits) == 1


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_small_codes(-1, 1)
    with pytest.raises(ValueError):
        enumerate_small_codes(1, -1)
    with pytest.raises(InstanceTooLarge):
        enumerate_small_codes(ENUMERATION_CAP + 1, 1)


def test_search_goal_values():
    assert SearchGoal("zero-poly-no-filamentation") is SearchGoal.ZERO_POLY_NO_FILAMENTATION
    assert SearchGoal("nonzero-multi-component") is SearchGoal.NONZERO_MULTI_COMPONENT
    with pytest.raises(ValueError):
        SearchGoal("no-such-goal")
    with pytest.raises(ValueError):
        SearchLimits(-1, 2)


def test_search_finds_zero_poly_witness():
    witness = search_examples(SearchGoal.ZERO_POLY_NO_FILAMENTATION,
                              SearchLimits(2, 8))
    assert witness is not None
    assert link_polynomial(witness).is_zero
    assert brute_force_filamentation(witness) is None


def test_is_witness_matches_reference_on_every_small_class():
    shapes = [(c, 2) for c in range(6)] + [(c, 3) for c in range(5)]
    witnesses = 0
    for crossings, components in shapes:
        for code in enumerate_small_codes(crossings, components):
            expected = reference_zero_poly_witness(code)
            assert _is_witness(ZERO_POLY, code) == expected, code
            witnesses += expected
    assert witnesses == 2 + 44 + 6  # (4, 2), (5, 2) and (4, 3)


def _count_oracle_calls(monkeypatch) -> list:
    calls = []
    oracle = generate.brute_force_filamentation

    def counted(code):
        calls.append(code)
        return oracle(code)

    monkeypatch.setattr(generate, "brute_force_filamentation", counted)
    return calls


def test_search_runs_the_oracle_only_on_the_witness(monkeypatch):
    calls = _count_oracle_calls(monkeypatch)
    witness = search_examples(ZERO_POLY, SearchLimits(2, 8))
    assert witness is not None
    assert calls == [witness]


def test_search_witness_is_oracle_confirmed_without_the_bucket_test(monkeypatch):
    expected = search_examples(ZERO_POLY, SearchLimits(2, 8))
    monkeypatch.setattr(generate, "_balanced", lambda buckets: False)
    calls = _count_oracle_calls(monkeypatch)
    # every zero-polynomial candidate now reaches the oracle, which
    # rejects the ones that do have a filamentation
    assert search_examples(ZERO_POLY, SearchLimits(2, 8)) == expected
    assert len(calls) > 1
    assert calls[-1] == expected


def test_search_finds_nonzero_multi_component_witness():
    witness = search_examples("nonzero-multi-component",
                              SearchLimits(3, 6))
    assert witness is not None
    assert len(witness.components) >= 3
    inv = link_polynomial(witness)
    assert any(c != 0 for _, c in inv.pair_coeffs)
    assert every_component_shares_a_crossing(witness)


def test_search_none_within_tiny_bounds():
    assert search_examples(SearchGoal.ZERO_POLY_NO_FILAMENTATION,
                           SearchLimits(2, 3)) is None


def test_component_cap():
    assert len(enumerate_small_codes(0, COMPONENT_CAP)) == 1
    with pytest.raises(InstanceTooLarge):
        enumerate_small_codes(0, COMPONENT_CAP + 1)
    with pytest.raises(InstanceTooLarge):
        SearchLimits(COMPONENT_CAP + 1, 0)


def test_search_rejects_unverifiable_bounds():
    with pytest.raises(InstanceTooLarge):
        search_examples(SearchGoal.ZERO_POLY_NO_FILAMENTATION,
                        SearchLimits(2, 13))
