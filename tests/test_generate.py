import functools
import gc
import hashlib
import math
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from flatlinks import (
    COMPONENT_CAP,
    ENUMERATION_CAP,
    FlatLinkCode,
    GenSpec,
    InfeasibleSpec,
    InstanceTooLarge,
    MINUS,
    PLUS,
    SearchGoal,
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
from flatlinks.generate import (
    _is_witness, _key_screen, _key_tally, _least_keys, _word_screen)
from helpers import (
    CLASS_COUNTS,
    burnside_class_count,
    codes,
    codes_equivalent_syntactically,
    every_component_shares_a_crossing,
    fill_then_test_enumeration,
    letter_ends,
    random_code,
    raw_codes,
    reference_enumeration,
    reference_zero_poly_witness,
    self_poly_oracle,
    total_sign,
)

ZERO_POLY = SearchGoal.ZERO_POLY_NO_FILAMENTATION
NONZERO_MULTI = SearchGoal.NONZERO_MULTI_COMPONENT
# the fewest letters each codeword of the first witness holds, by goal and
# component count (a zero-poly witness has a pair sharing at least 4
# crossings, which on two components is both codewords), and the fewest
# components the search scans
SHORTEST = {ZERO_POLY: {2: 4, 3: 2}, NONZERO_MULTI: {2: 1, 3: 1}}
LEAST = {ZERO_POLY: 2, NONZERO_MULTI: 3}


def test_genspec_build_normalizes_pairs():
    spec = GenSpec.build(3, (1, 0, 0), {(2, 1): 2, (0, 1): 1})
    assert spec.pair_counts == (((0, 1), 1), ((1, 2), 2))
    assert spec.component_count == 3
    assert spec.crossing_count == 4


def test_genspec_rejects_bad_shapes():
    with pytest.raises(InfeasibleSpec, match="negative self-crossing count"):
        GenSpec((-1,))
    with pytest.raises(InfeasibleSpec, match=re.escape("bad component pair (0, 0)")):
        GenSpec((0, 0), (((0, 0), 1),))
    with pytest.raises(InfeasibleSpec, match=re.escape("duplicate component pair (0, 1)")):
        GenSpec((0, 0), (((0, 1), 1), ((0, 1), 1)))
    with pytest.raises(InfeasibleSpec, match="negative pair-crossing count"):
        GenSpec((0, 0), (((0, 1), -1),))
    with pytest.raises(InfeasibleSpec, match=re.escape("even crossing count for (0, 1)")):
        GenSpec((0, 0), (((0, 1), 1),), balanced=True)
    with pytest.raises(InfeasibleSpec, match="negative component count"):
        GenSpec.build(-1)
    with pytest.raises(InfeasibleSpec, match="self_counts length differs"):
        GenSpec.build(2, (1,))


def test_random_flat_link_is_deterministic_and_valid():
    spec = GenSpec.build(2, (2, 1), {(0, 1): 3}, seed=5)
    code = random_flat_link(spec)
    assert code == random_flat_link(spec)
    groups = sorted((pc, mc) if pc <= mc else (mc, pc)
                    for pc, _, mc, _ in validate(code).ends.values())
    assert groups == [(0, 0), (0, 0), (0, 1), (0, 1), (0, 1), (1, 1)]
    assert code != random_flat_link(GenSpec.build(2, (2, 1), {(0, 1): 3}, seed=6))


def test_random_flat_link_numbers_crossings_in_allocation_order():
    # self-crossings by component, then pair crossings by sorted pair
    spec = GenSpec.build(3, (2, 0, 1), {(2, 1): 1, (0, 1): 2}, seed=4)
    homes: dict[str, list[int]] = {}
    for i, word in enumerate(random_flat_link(spec).components):
        for x, _ in word.letters:
            homes.setdefault(x, []).append(i)
    assert {x: sorted(v) for x, v in homes.items()} == {
        "c1": [0, 0], "c2": [0, 0], "c3": [2, 2],
        "c4": [0, 1], "c5": [0, 1], "c6": [1, 2]}


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
    for crossings in range(1, 5):
        assert (sum(1 for _ in enumerate_small_codes(crossings, 1))
                == CLASS_COUNTS[crossings, 1])
    # past what Burnside checks in time; both match fill-then-test, and
    # the digests pin every rendered class, in order, not only the counts
    for shape, digest in (
            ((5, 2),
             "d962e7b09c2429ea61983349ee0bd5169c7f7e677cbc31d7d252baefe3d7b04f"),
            ((6, 1),
             "346b5a0cea4dcf85423a6f5c2c9529849f57a459c0fe97a4de01a4dd3a352953")):
        reps = enumerate_small_codes(*shape)
        assert len(reps) == CLASS_COUNTS[shape]
        text = "\n".join(render_flat_link(c) for c in reps)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, shape
    # the shapes whose keys replay the most memoized cuts, nested up to 11
    # deep at (2, 12), and (5, 3), the deepest-replaying shape on three
    # components; pinned before the walk memoized its cuts
    for shape, count, digest in (
            ((5, 3), 119808,
             "2b98bdbfbfa24b679ac260e60397793e1b08cdc6ef670fa1d2e15949652b5186"),
            ((4, 4), 27902,
             "551e6c993e8f71c6198281fc7546b3dde7af58da524f7e9db4ede1c653240bdd"),
            ((3, 5), CLASS_COUNTS[3, 5],
             "c3166f5577ee6e2c766d36fb32300cfe4437e92064b52f455a237a81ad072266"),
            ((2, 12), 10740,
             "56fabf7ff45a5e7429b552ac0f7a3bb99dcc7f91130585db9062820f472d9bfe")):
        lines = generate.enumerate_lines(*shape)
        assert len(lines) == count, shape
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, shape


def test_enumerate_shares_equal_codewords():
    # one memo per call: an equal codeword of one component is one object
    seen: dict[tuple, object] = {}
    codes = enumerate_small_codes(3, 3)
    for code in codes:
        for i, word in enumerate(code.components):
            assert seen.setdefault((i, word.letters), word) is word
    assert len(seen) < 3 * len(codes)


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


@pytest.mark.parametrize("crossings,components", [
    (4, 3), (5, 1), (3, 4), (2, 6), (3, 5)])
def test_enumerate_equals_fill_then_test(crossings, components):
    # prefix pruning keeps exactly the fillings that the complete test keeps
    assert (enumerate_small_codes(crossings, components)
            == fill_then_test_enumeration(crossings, components))


@pytest.mark.parametrize("crossings,components,count", [
    (*shape, CLASS_COUNTS[shape]) for shape in (
        (0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1),
        (2, 2), (3, 2), (4, 2), (4, 3), (3, 4), (3, 5), (2, 6))])
def test_class_count_matches_burnside(crossings, components, count):
    assert burnside_class_count(crossings, components) == count
    assert len(enumerate_small_codes(crossings, components)) == count


def _all_keys(crossings: int, components: int) -> list[tuple]:
    keys: list[tuple] = []
    assert _least_keys(crossings, components, keys.append) is None
    return keys


def _admitted(goal: SearchGoal | None, key: tuple, shortest: int) -> bool:
    # every codeword leaves at least ``shortest`` letters for each codeword
    # after it, and every codeword that ends before the last slot passes
    # the goal's codeword test (no test when goal is None)
    rest = sum(map(len, key))
    for i, part in enumerate(key):
        rest -= len(part)
        if rest < shortest * (len(key) - 1 - i):
            return False
        if rest and goal is not None and not _word_screen(goal, part):
            return False
    return True


def _check_pruning(goal: SearchGoal | None, crossings: int,
                   components: int, shortest: int) -> None:
    # a skipped subtree leaves the keys outside it, and their order, as
    # they were
    keys: list[tuple] = []
    admit = None if goal is None else lambda word: _word_screen(goal, word)
    assert _least_keys(crossings, components, keys.append, admit,
                       shortest) is None
    unpruned = _all_keys(crossings, components)
    expected = [key for key in unpruned if _admitted(goal, key, shortest)]
    assert keys == expected
    assert 0 < len(expected) < len(unpruned)


@pytest.mark.parametrize("goal", list(SearchGoal))
@pytest.mark.parametrize("crossings,components", [(4, 2), (3, 4)])
def test_least_keys_skip_exactly_the_keys_admit_rejects(
        goal, crossings, components):
    # (3, 4) has keys with empty codewords in the middle
    _check_pruning(goal, crossings, components, 0)


@pytest.mark.parametrize("goal", [None, *SearchGoal])
@pytest.mark.parametrize("crossings,components,shortest", [
    (4, 2, 2), (3, 3, 1), (3, 3, 2), (4, 3, 1), (4, 3, 2)])
def test_least_keys_skip_exactly_the_keys_below_the_floor(
        goal, crossings, components, shortest):
    _check_pruning(goal, crossings, components, shortest)


@pytest.mark.parametrize("crossings,components,shortest", [
    (0, 2, 1), (0, 3, 2), (1, 3, 2), (2, 4, 2), (5, 12, 1)])
def test_least_keys_make_no_key_without_room_for_the_floor(
        crossings, components, shortest):
    keys: list[tuple] = []
    assert _least_keys(crossings, components, keys.append, None,
                       shortest) is None
    assert keys == []


def _tuple_key(code) -> tuple:
    return tuple(tuple((int(x[1:]), s) for x, s in cw.letters)
                 for cw in code.components)


@pytest.mark.parametrize("crossings,components", [
    (3, 1), (4, 2), (5, 1), (4, 3), (3, 4), (2, 6)])
def test_least_keys_come_out_sorted(crossings, components):
    keys = _all_keys(crossings, components)
    assert keys == sorted(keys)


@pytest.mark.parametrize("crossings,components", [(4, 2), (5, 1), (3, 4)])
def test_int_keys_decode_to_the_reference_tuple_keys(crossings, components):
    # letter 2*label + (sign is +) orders as (label, sign) does, so the
    # decoded keys are the generate-then-deduplicate keys in their order
    decoded = [tuple(tuple((x >> 1, PLUS if x & 1 else MINUS) for x in part)
                     for part in key)
               for key in _all_keys(crossings, components)]
    assert decoded == [_tuple_key(code)
                       for code in reference_enumeration(crossings, components)]


# emit is called only from replay, under each key's first codeword: the
# keys of (4, 3), (3, 4) and (2, 6) mostly replay memoized cuts, and a
# knot's keys are each the lone edge of a first codeword.  The stops
# below are at every 500th key, and the last
REPLAYED = ((4, 3), (3, 4), (2, 6), (5, 1))


@pytest.mark.parametrize("crossings,components,stop_at", [
    (0, 0, 1), (0, 3, 1), (4, 2, 1), (4, 2, 2), (4, 2, 1174), (3, 4, 1952)] + [
    (*shape, n) for shape in REPLAYED
    for n in (*range(500, CLASS_COUNTS[shape], 500), CLASS_COUNTS[shape])])
def test_least_keys_stop_at_the_first_true_emit(crossings, components, stop_at):
    full = _all_keys(crossings, components)
    seen = []

    def emit(key):
        seen.append(key)
        return len(seen) == stop_at

    assert _least_keys(crossings, components, emit) == full[stop_at - 1]
    assert seen == full[:stop_at]


@pytest.mark.parametrize("crossings,components", [*REPLAYED, (4, 2)])
def test_least_keys_pass_every_key_when_emit_never_stops(crossings, components):
    seen = []
    callers = []

    def emit(key):
        seen.append(key)
        callers.append(sys._getframe(1).f_code.co_name)
        return False

    assert _least_keys(crossings, components, emit) is None
    assert len(seen) == CLASS_COUNTS[crossings, components]
    assert seen == sorted(set(seen))
    # replay is the one caller of emit, so the stops above unwind from it
    assert set(callers) == {"replay"}


@pytest.mark.parametrize("crossings", range(5))
def test_least_keys_keep_the_zero_poly_floor_on_three_components(crossings):
    # the floor the zero-poly search sets on three or more components;
    # its scans stop at the (4, 2) witness first, so no search reaches it.
    # A cut's state carries its depth: at equal letters, one codeword more
    # leaves room for one codeword fewer after it
    keys: list[tuple] = []
    assert _least_keys(crossings, 3, keys.append,
                       lambda word: _word_screen(ZERO_POLY, word), 2) is None
    assert keys == [key for key in _all_keys(crossings, 3)
                    if _admitted(ZERO_POLY, key, 2)]
    assert len(keys) == {3: 3, 4: 58}.get(crossings, 0)


def test_enumerate_is_deterministic_and_validates():
    first = list(enumerate_small_codes(3, 2))
    second = list(enumerate_small_codes(3, 2))
    assert first == second
    for code in first:
        validate(code)


def test_enumeration_and_search_leave_no_reference_cycles():
    # the depth-first walk's closures call each other; left as a cycle,
    # they would keep every emitted code alive until a full collection
    gc.collect()
    gc.disable()
    try:
        codes = enumerate_small_codes(3, 2)
        witness = search_examples(SearchGoal.ZERO_POLY_NO_FILAMENTATION, 2, 8)
        assert codes and witness is not None
        del codes, witness
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def _class_bound(crossings: int, components: int) -> int:
    # (2n)!/n! * C(2n+k-1, k-1): letter orders times cuts, over relabelings
    if components == 0:
        return 1
    return (math.factorial(2 * crossings) // math.factorial(crossings)
            * math.comb(2 * crossings + components - 1, components - 1))


def test_enumeration_bound_refuses_shapes_inside_the_caps():
    # each walk would take from seconds to hours; the bound refuses it first
    for shape in ((4, 8), (6, 3), (4, 12), (6, 12)):
        assert _class_bound(*shape) > 10 ** 7
        for enumerate_ in (enumerate_small_codes, generate.enumerate_lines):
            start = time.perf_counter()
            with pytest.raises(InstanceTooLarge, match="exceeds the enumeration bound"):
                enumerate_(*shape)
            assert time.perf_counter() - start < 1, shape
    # every shape enumerated by the tests, CI and docs stays inside it:
    # those of CLASS_COUNTS, then the CLI tests', CI's and the largest the
    # docs name
    for shape in (*CLASS_COUNTS, (0, 0), (2, 5), (2, 12), (6, 2), (3, 12)):
        assert _class_bound(*shape) <= 10 ** 7, shape
        generate._check_shape(*shape)


def test_component_cap_shapes_walk_in_full():
    # the cap bounds how deep _least_keys recurses; shapes at it walk
    # every class, and one component more is refused
    for crossings in (1, 2):
        assert (len(enumerate_small_codes(crossings, COMPONENT_CAP))
                == burnside_class_count(crossings, COMPONENT_CAP))
    with pytest.raises(InstanceTooLarge,
                       match=f"^{COMPONENT_CAP + 1} components exceeds the cap"):
        enumerate_small_codes(1, COMPONENT_CAP + 1)


def test_search_goal_values():
    assert SearchGoal("zero-poly-no-filamentation") is SearchGoal.ZERO_POLY_NO_FILAMENTATION
    assert SearchGoal("nonzero-multi-component") is SearchGoal.NONZERO_MULTI_COMPONENT
    with pytest.raises(ValueError):
        SearchGoal("no-such-goal")


def test_search_rejects_negative_bounds():
    for bounds in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="^limits must be nonnegative$"):
            search_examples(ZERO_POLY, *bounds)


def test_search_finds_zero_poly_witness():
    witness = search_examples(SearchGoal.ZERO_POLY_NO_FILAMENTATION, 2, 8)
    assert witness is not None
    assert link_polynomial(witness).is_zero
    assert brute_force_filamentation(witness) is None


def _split_off_deleted(code: FlatLinkCode) -> FlatLinkCode:
    # the code without its components that share no crossing with another
    shared = set()
    for pc, _, mc, _ in validate(code).ends.values():
        if pc != mc:
            shared.update((pc, mc))
    return FlatLinkCode(tuple(cw for i, cw in enumerate(code.components)
                              if i in shared))


def test_is_witness_matches_reference_on_every_small_class():
    # the key screen passes a key exactly when its code is a witness, so
    # screening keys before building codes skips no witness
    shapes = [(c, 2) for c in range(6)] + [(c, 3) for c in range(5)]
    witnesses = dict.fromkeys(SearchGoal, 0)
    tallied = reduced = 0
    for crossings, components in shapes:
        keys = _all_keys(crossings, components)
        codes = enumerate_small_codes(crossings, components)
        assert len(keys) == len(codes)
        for key, code in zip(keys, codes):
            expected = reference_zero_poly_witness(code)
            assert _is_witness(ZERO_POLY, code) == expected, code
            assert _key_screen(ZERO_POLY, key) == expected, code
            multi = _is_witness(NONZERO_MULTI, code)
            assert multi == (
                any(c != 0 for _, c in link_polynomial(code).pair_coeffs)
                and every_component_shares_a_crossing(code)), code
            assert _key_screen(NONZERO_MULTI, key) == multi, code
            # every codeword of a minimal witness, one whose every
            # component shares a crossing, passes the codeword test and
            # holds the goal's floor of letters, so the pruned walk skips
            # no minimal witness
            shared = every_component_shares_a_crossing(code)
            for goal, witness in ((ZERO_POLY, expected), (NONZERO_MULTI, multi)):
                assert not (witness and shared) or all(
                    len(part) >= SHORTEST[goal][components]
                    and _word_screen(goal, part) for part in key), code
            # a zero-poly witness has a pair sharing at least 4 crossings,
            # so none has fewer crossings
            if expected:
                groups = [frozenset(ci for ci, _ in sides.values())
                          for sides in letter_ends(code).values()]
                assert max(groups.count(g) for g in groups if len(g) == 2) >= 4, code
            # and a zero-poly witness that is not minimal stays one once
            # its split-off components are deleted, so a smaller shape,
            # scanned earlier, holds a witness
            if expected and not shared:
                rest = _split_off_deleted(code)
                assert len(rest.components) < len(code.components), code
                assert reference_zero_poly_witness(rest), code
                reduced += 1
            witnesses[ZERO_POLY] += expected
            witnesses[NONZERO_MULTI] += multi
            # the key tally files a self-crossing whose - end comes first
            # without its component's sign total, so it matches validate's
            # buckets exactly when every total is 0
            catalog = validate(code)
            if not any(catalog.totals):
                assert _key_tally(key) == (
                    {k: len(p) - len(m) for k, (p, m) in catalog.buckets.items()},
                    catalog.totals), code
                tallied += 1
    assert witnesses[ZERO_POLY] == 2 + 44 + 6  # (4, 2), (5, 2) and (4, 3)
    assert witnesses[NONZERO_MULTI] == 1580
    assert tallied == 11767  # the classes whose sign totals are all 0
    assert reduced == 6  # the (4, 3) ones: a (4, 2) one and an empty component


def test_word_screen_zero_poly_matches_its_reference():
    # on two components the first codeword shares a chord exactly when
    # both components share a crossing; the polynomial is the oracle's
    checked = 0
    for crossings in range(6):
        keys = _all_keys(crossings, 2)
        for key, code in zip(keys, enumerate_small_codes(crossings, 2)):
            assert _word_screen(ZERO_POLY, key[0]) == (
                every_component_shares_a_crossing(code)
                and total_sign(code, 0) == 0
                and self_poly_oracle(code, 0) == {}), code
            checked += 1
    assert checked == sum(CLASS_COUNTS[c, 2] for c in range(6))


def _int_key(code) -> tuple:
    # the letters of _least_keys, with crossings labeled by first letter
    labels: dict[str, int] = {}
    return tuple(tuple(2 * labels.setdefault(x, len(labels) + 1)
                       + (s == PLUS) for x, s in cw.letters)
                 for cw in code.components)


def test_key_screen_needs_its_polynomial_test():
    # past the census shapes: the pair's buckets are out of balance with a
    # zero linking difference and coefficient, so only the component
    # polynomials, t on A and -t on B, make this code no witness
    code = parse_flat_link("c1+ c5- c6+ c3+ c1- c4- ; c6- c2- c4+ c2+ c5+ c3-")
    assert not link_polynomial(code).is_zero
    assert not _key_screen(ZERO_POLY, _int_key(code))


@settings(deadline=None)
@given(codes(max_crossings=8, balanced=True), st.sampled_from(list(SearchGoal)))
def test_key_screen_matches_is_witness_on_random_codes(code, goal):
    assert _key_screen(goal, _int_key(code)) == _is_witness(goal, code)


@settings(deadline=None)
@given(codes(max_crossings=8, max_components=4))
def test_is_witness_nonzero_multi_is_its_definition(code):
    # the sharing test read off the letters is the reference's, which
    # reads each crossing's two ends
    assert _is_witness(NONZERO_MULTI, code) == (
        any(c != 0 for _, c in link_polynomial(code).pair_coeffs)
        and every_component_shares_a_crossing(code))


@pytest.mark.parametrize("extra, expected", [
    ("", True),
    (" ; D:", False),         # an empty component
    (" ; D: k+ k-", False),   # a kink-only component
    (" ; D: k+ j- k- j+", False),
])
def test_is_witness_rejects_a_split_off_component(extra, expected):
    # the nonzero pair coefficient of the first witness survives the
    # extra component, which shares no crossing with the others
    code = parse_flat_link("A: c1- c2- c3+ c4+ ; B: c1+ c3- ; C: c2+ c4-" + extra)
    assert any(c != 0 for _, c in link_polynomial(code).pair_coeffs)
    assert every_component_shares_a_crossing(code) == expected
    assert _is_witness(NONZERO_MULTI, code) == expected
    assert _key_screen(NONZERO_MULTI, _int_key(code)) == expected


def _count_calls(monkeypatch, name: str) -> list:
    # the last argument of every call to generate.<name>
    calls = []
    original = getattr(generate, name)

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(generate, name, counted)
    return calls


def test_search_screens_no_candidate_past_the_witness(monkeypatch):
    screened = _count_calls(monkeypatch, "_key_screen")
    confirmed = _count_calls(monkeypatch, "_is_witness")
    witness = search_examples(ZERO_POLY, 2, 8)
    # no witness has fewer than 4 crossings, so the walk starts at (4, 2),
    # whose witness is key 1,174 of 1,548.  It skips every key whose first
    # codeword leaves fewer than 4 letters for the second, has no chord
    # shared with the second, or has a nonzero sign total or polynomial,
    # and screens the rest in the same order
    unpruned = _all_keys(4, 2)[:1175]
    assert screened == [key for key in unpruned
                        if _admitted(ZERO_POLY, key, 4)]
    assert len(screened) == 20
    # only the key that passes the screen is built into a code
    assert confirmed == [witness]


def test_nonzero_multi_search_screens_only_admitted_keys(monkeypatch):
    monkeypatch.setattr(generate, "_word_screen", lambda goal, word: True)
    unscreened = _count_calls(monkeypatch, "_key_screen")
    expected = search_examples(NONZERO_MULTI, 3, 6)
    # the walk still leaves each codeword a letter for each one after it
    assert all(_admitted(None, key, 1) for key in unscreened)
    assert len(unscreened) == 4234
    monkeypatch.undo()
    screened = _count_calls(monkeypatch, "_key_screen")
    assert search_examples(NONZERO_MULTI, 3, 6) == expected
    # the walk skips every key with a codeword before its last one that
    # shares no crossing with another codeword
    assert screened == [key for key in unscreened
                        if _admitted(NONZERO_MULTI, key, 1)]
    assert len(screened) == 1837


def test_search_runs_the_oracle_only_on_the_witness(monkeypatch):
    calls = _count_calls(monkeypatch, "brute_force_filamentation")
    witness = search_examples(ZERO_POLY, 2, 8)
    assert witness is not None
    assert calls == [witness]


def test_search_witness_is_oracle_confirmed_without_the_bucket_test(monkeypatch):
    expected = search_examples(ZERO_POLY, 2, 8)
    monkeypatch.setattr(generate, "_key_screen", lambda goal, key: True)
    calls = _count_calls(monkeypatch, "brute_force_filamentation")
    # every zero-polynomial candidate now reaches the oracle, which
    # rejects the ones that do have a filamentation
    assert search_examples(ZERO_POLY, 2, 8) == expected
    assert len(calls) > 1
    assert calls[-1] == expected
    assert all(link_polynomial(code).is_zero for code in calls)


@functools.cache
def _first_in_shape(goal: SearchGoal, crossings: int, components: int):
    # the first class of the shape, in enumeration order, that witnesses
    # the goal by its reference definition, or None
    for code in enumerate_small_codes(crossings, components):
        if goal is ZERO_POLY:
            if reference_zero_poly_witness(code):
                return code
        elif (any(c != 0 for _, c in link_polynomial(code).pair_coeffs)
              and every_component_shares_a_crossing(code)):
            return code
    return None


def _reference_search(goal: SearchGoal, max_components: int,
                      max_crossings: int):
    # every class of every shape, in the search's shape order, unpruned
    for crossings in range(max_crossings + 1):
        for components in range(LEAST[goal], max_components + 1):
            code = _first_in_shape(goal, crossings, components)
            if code is not None:
                return code
    return None


@pytest.mark.parametrize("goal,max_components,max_crossings", [
    (ZERO_POLY, k, c) for k in range(4) for c in range(6)] + [
    (NONZERO_MULTI, k, c) for k in range(5) for c in range(5)])
def test_search_returns_the_first_witness_of_an_unpruned_scan(
        goal, max_components, max_crossings):
    # the pruned walk makes only the keys a minimal witness can have; the
    # first witness of every class in order is minimal, so it is the same
    assert (search_examples(goal, max_components, max_crossings)
            == _reference_search(goal, max_components, max_crossings))


def test_search_finds_nonzero_multi_component_witness():
    witness = search_examples("nonzero-multi-component", 3, 6)
    assert witness is not None
    assert len(witness.components) >= 3
    inv = link_polynomial(witness)
    assert any(c != 0 for _, c in inv.pair_coeffs)
    assert every_component_shares_a_crossing(witness)


def test_search_none_within_tiny_bounds():
    assert search_examples(SearchGoal.ZERO_POLY_NO_FILAMENTATION, 2, 3) is None


@pytest.mark.parametrize("goal", list(SearchGoal))
def test_witness_free_search_finishes_in_seconds(goal):
    # up to 3 crossings on up to 12 components, where neither goal has a
    # witness: an unpruned walk of every class takes about 16 s per goal.
    # The zero-poly search starts at 4 crossings, so it scans no shape;
    # the nonzero-multi one walks only the keys of minimal witnesses
    start = time.perf_counter()
    assert search_examples(goal, COMPONENT_CAP, 3) is None
    assert time.perf_counter() - start < 5


def test_component_cap():
    assert len(enumerate_small_codes(0, COMPONENT_CAP)) == 1
    with pytest.raises(InstanceTooLarge):
        enumerate_small_codes(0, COMPONENT_CAP + 1)
    with pytest.raises(InstanceTooLarge,
                       match="^13 components exceeds the cap of 12$"):
        search_examples(ZERO_POLY, COMPONENT_CAP + 1, 0)


def test_search_rejects_unverifiable_bounds():
    with pytest.raises(InstanceTooLarge):
        search_examples(SearchGoal.ZERO_POLY_NO_FILAMENTATION, 2, 13)
