import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from flatlinks import (
    MalformedMoveLine,
    CrossingAppearsOnce,
    MoveSite,
    SameSignTwice,
    StaleSite,
    apply_move,
    enumerate_small_codes,
    find_move_sites,
    link_polynomial,
    parse_flat_link,
    random_walk,
    render_flat_link,
    validate,
)
from flatlinks.moves import _KINDS, _once, _slide_spots
from helpers import (
    codes,
    fresh_ids_reference,
    move_sites_oracle,
    plant_triangle,
    random_code,
)


def test_move_site_describe_parse_round_trip():
    lines = [
        "r1_remove A 0 a",
        "r1_insert A 2 _1 +-",
        "r2_remove A,B 1,0 e,f",
        "r2_insert A,A 0,2 - + fe",
        "r3 A,A,A 0,2,4 a,b,c",
    ]
    for line in lines:
        assert MoveSite.parse(line).describe() == line


def test_move_site_rejects_malformed_lines():
    for line in [
        "r9 A 0 a",                # unknown kind
        "r1_remove A,B 0,1 a",     # wrong spot count
        "r1_remove A zero a",      # unreadable position
        "r1_remove A 1_0 -",       # int() reads these three, ...
        "r1_remove A \u0661 -",     # ... an Arabic-Indic 1 ...
        "r1_remove A \u0662 -",     # ... and an Arabic-Indic 2
        "r1_remove A -1 -",        # a position takes no sign, ...
        "r1_remove A +0 -",        # ... either one
        "r1_remove A 0,1 a",       # counts differ
        "r1_insert A 0 - ++",      # bad kink order
        "r2_insert A,A 0,0 - x ef",  # bad sign
        "r2_insert A,A 0,0 - + xy",  # bad slide order
        "r2_insert A,A 0,0 - ef +",  # tokens swapped
        "r1_insert A 0 - +",       # a sign is not a kink order
        "r3 A,A,A 0,2,4 a,b,c +-",  # r3 takes no variant
        "r1_insert A 0 -",         # missing kink order
        "r2_insert A,A 0,0 - + ef ef",  # one token too many
        "r2_remove A,B 0,0 a",     # one crossing for a two-crossing kind
        "r1_remove",               # too short
    ]:
        with pytest.raises(MalformedMoveLine):
            MoveSite.parse(line)
    with pytest.raises(MalformedMoveLine):
        MoveSite("r1_remove", (("A", -1),), ("a",))


def test_find_r1_remove():
    sites = find_move_sites(parse_flat_link("a+ a-"), ("r1_remove",))
    assert [s.describe() for s in sites] == ["r1_remove A 0 a"]
    assert find_move_sites(parse_flat_link("a+ b+ a- b-"), ("r1_remove",)) == []


def test_find_r1_remove_wraparound():
    sites = find_move_sites(parse_flat_link("a+ b+ b- a-"), ("r1_remove",))
    assert [(s.spots[0][1], s.crossings[0]) for s in sites] == [(1, "b"), (3, "a")]


def test_apply_r1_remove():
    code = parse_flat_link("a+ b+ b- a-")
    out = apply_move(code, MoveSite.parse("r1_remove A 1 b"))
    assert render_flat_link(out) == "a+ a-"
    # wraparound spot: positions 3 and 0
    out = apply_move(code, MoveSite.parse("r1_remove A 3 a"))
    assert render_flat_link(out) == "b+ b-"


def test_apply_r1_remove_stale():
    code = parse_flat_link("a+ b+ b- a-")
    with pytest.raises(StaleSite, match="not a kink pair"):
        apply_move(code, MoveSite.parse("r1_remove A 0 a"))
    with pytest.raises(StaleSite, match="names crossings a but the spots hold b"):
        apply_move(code, MoveSite.parse("r1_remove A 1 a"))
    with pytest.raises(StaleSite, match="no component named 'Q'"):
        apply_move(code, MoveSite.parse("r1_remove Q 1 b"))


@pytest.mark.parametrize("text,line,reason", [
    ("A: a+ b- c+ a- b+ c- ; B: d+ d-", "r1_remove A 99 -",
     "no adjacent pair starts at position 99"),
    ("A: x+ x- ; B: y+ y- ; C: z+ z-", "r2_remove A,B 0,0 -",
     "not a slide pair"),
    ("A: a+ b- c+ a- b+ c- ; B: d+ d-", "r2_remove A,A 0,2 -",
     "do not hold complementary ends"),
    ("A: x+ y- y+ z- z+ x-", "r3 A,A,A 1,3,5 -", "share a crossing"),
    ("A: x+ y+ ; B: y- z- ; C: x- z+", "r3 A,B,C 0,0,0 -", "carry equal signs"),
    ("a+ c- b+ a- c+ b-", "r3 A,A,A 0,1,3 a,b,c", "spots overlap"),
])
def test_apply_names_each_stale_pattern(text, line, reason):
    with pytest.raises(StaleSite, match=reason):
        apply_move(parse_flat_link(text), MoveSite.parse(line))


def test_apply_r1_insert():
    code = parse_flat_link("a+ a-")
    out = apply_move(code, MoveSite.parse("r1_insert A 1 - +-"))
    assert render_flat_link(out) == "a+ _1+ _1- a-"
    out = apply_move(code, MoveSite.parse("r1_insert A 0 k -+"))
    assert render_flat_link(out) == "k- k+ a+ a-"


def test_apply_r1_insert_on_empty_component():
    code = parse_flat_link("A: ; B: a+ a-")
    out = apply_move(code, MoveSite.parse("r1_insert A 0 - +-"))
    assert render_flat_link(out) == "_1+ _1- ; a+ a-"


def test_apply_insert_rejects_used_or_bad_ids():
    code = parse_flat_link("a+ a-")
    with pytest.raises(StaleSite, match=re.escape("needs 1 fresh crossing id(s)")):
        apply_move(code, MoveSite.parse("r1_insert A 0 a +-"))
    with pytest.raises(StaleSite, match=re.escape("needs 2 fresh crossing id(s)")):
        apply_move(code, MoveSite.parse("r2_insert A,A 0,0 e,e + ef"))
    with pytest.raises(StaleSite, match="gap 5 out of range"):
        apply_move(code, MoveSite.parse("r1_insert A 5 - +-"))


def test_apply_r2_insert_same_component():
    code = parse_flat_link("a+ a-")
    out = apply_move(code, MoveSite.parse("r2_insert A,A 1,2 - + fe"))
    assert render_flat_link(out) == "a+ _1+ _2- a- _2+ _1-"


def test_apply_r2_insert_equal_gaps_keeps_spot_order():
    code = parse_flat_link("a+ a-")
    out = apply_move(code, MoveSite.parse("r2_insert A,A 0,0 e,f + ef"))
    assert render_flat_link(out) == "e+ f- e- f+ a+ a-"


def test_apply_r2_insert_two_components():
    code = parse_flat_link("A: a+ a-\nB:")
    out = apply_move(code, MoveSite.parse("r2_insert A,B 1,0 e,f - ef"))
    assert render_flat_link(out) == "a+ e- f+ a- ; e+ f-"
    validate(out)


def test_find_and_apply_r2_remove():
    code = parse_flat_link("a+ e+ f- a- f+ e-")
    sites = find_move_sites(code, ("r2_remove",))
    assert len(sites) == 1
    assert sorted(sites[0].crossings) == ["e", "f"]
    assert render_flat_link(apply_move(code, sites[0])) == "a+ a-"


def test_r2_remove_matches_complementary_spots():
    # (e+, f-) at 0 pairs with (e-, f+) at 2; removal empties the word
    code = parse_flat_link("e+ f- e- f+")
    sites = find_move_sites(code, ("r2_remove",))
    assert len(sites) == 1
    assert render_flat_link(apply_move(code, sites[0])) == "A:"


def test_r2_insert_then_remove_round_trip():
    code = parse_flat_link("a+ b+ a- b-")
    site = MoveSite.parse("r2_insert A,A 1,3 - - ef")
    bigger = apply_move(code, site)
    validate(bigger)
    removals = find_move_sites(bigger, ("r2_remove",))
    hits = [s for s in removals if set(s.crossings) == {"_1", "_2"}]
    assert hits
    assert any(render_flat_link(apply_move(bigger, s)) == render_flat_link(code)
               for s in hits)


def test_find_r3_golden():
    code = parse_flat_link("a+ c- b+ a- c+ b-")
    sites = find_move_sites(code, ("r3",))
    assert [s.describe() for s in sites] == ["r3 A,A,A 0,2,4 a,b,c"]


def test_apply_r3_swaps_in_place_and_is_involutive():
    code = parse_flat_link("a+ c- b+ a- c+ b-")
    site = MoveSite.parse("r3 A,A,A 0,2,4 a,b,c")
    once = apply_move(code, site)
    assert render_flat_link(once) == "c- a+ a- b+ b- c+"
    assert link_polynomial(once) == link_polynomial(code)
    again = apply_move(once, site)
    assert again == code


def test_find_r3_both_cycles():
    # the other 3-cycle on the minus side is also a triangle
    code = parse_flat_link("a+ b- c+ a- b+ c-")
    sites = find_move_sites(code, ("r3",))
    assert [s.describe() for s in sites] == ["r3 A,A,A 0,2,4 a,c,b"]


def test_apply_r3_rejects_non_triangles():
    # spots hold four distinct crossings, not three
    code = parse_flat_link("a+ b- b+ a- c+ d- d+ c-")
    with pytest.raises(StaleSite, match="do not form a triangle"):
        apply_move(code, MoveSite.parse("r3 A,A,A 0,2,4 a,b,c"))


def test_apply_r3_rejects_mixed_modes():
    # the spots on A and B read plus-first, the one on C minus-first
    code = parse_flat_link("A: x+ y- ; B: y+ z- ; C: x- z+")
    with pytest.raises(StaleSite, match="mix letter orders"):
        apply_move(code, MoveSite.parse("r3 A,B,C 0,0,0 -"))


INSERT_ONLY = {"r1_insert": 1, "r2_insert": 1, "r1_remove": 0,
               "r2_remove": 0, "r3": 0}


@pytest.mark.parametrize("text, kind, expected", [
    # the spot at 5 wraps from the last letter to the first
    ("t2- t2+ t3- t3+ t1- t1+", "r3", ["r3 A,A,A 1,3,5 t2,t3,t1"]),
    # four spot pairs cover the same four letters of two 2-letter words
    ("e+ f- ; f+ e-", "r2_remove", ["r2_remove A,B 0,0 e,f"]),
])
def test_find_sites_wraparound_and_short_words(text, kind, expected):
    code = parse_flat_link(text)
    sites = find_move_sites(code, (kind,))
    assert [s.describe() for s in sites] == expected
    assert sites == move_sites_oracle(code, kind)


@pytest.mark.parametrize("text, kind, expected", [
    # a 1-letter word's only pair is its letter with itself: not a kink
    ("A: x+ ; B: x-", "r1_remove", []),
    ("A: x+ y- ; B: y+ ; C: x-", "r1_remove", []),
    # spot 1 of a 2-letter word covers the letters of spot 0
    ("x+ x-", "r1_remove", ["r1_remove A 0 x"]),
    ("x- x+", "r1_remove", ["r1_remove A 0 x"]),
    # each 2-letter word has two slide spots, one slide across them
    ("x+ y- ; y+ x-", "r2_remove", ["r2_remove A,B 0,0 x,y"]),
])
def test_find_sites_on_one_and_two_letter_words(text, kind, expected):
    sites = find_move_sites(parse_flat_link(text), (kind,))
    assert [s.describe() for s in sites] == expected


@settings(deadline=None)
@given(codes(max_crossings=8), st.integers(0, 2**31 - 1),
       st.sampled_from(["plain", "inserted", "planted"]))
def test_find_sites_match_pair_and_triple_scan(code, seed, shape):
    if shape == "inserted":
        code, _ = random_walk(code, 6, seed, INSERT_ONLY)
    elif shape == "planted":
        code = plant_triangle(code, random.Random(seed))
    validate(code)
    for kind in ("r2_remove", "r3"):
        assert find_move_sites(code, (kind,)) == move_sites_oracle(code, kind)


def test_find_move_sites_kind_filter_and_order():
    # a kink on B, a slide across B and C, a triangle and three slides on A
    code = parse_flat_link("A: a+ c- b+ a- c+ b- ; B: k+ k- e+ f- ; C: e- f+")
    listed = ["r1_remove B 0 k", "r2_remove A,A 0,3 a,c", "r2_remove A,A 1,4 c,b",
              "r2_remove A,A 2,5 b,a", "r2_remove B,C 2,0 e,f",
              "r3 A,A,A 0,2,4 a,b,c"]
    assert [s.describe() for s in find_move_sites(code)] == listed
    sites = find_move_sites(code, ("r3", "r1_remove"))
    assert [s.describe() for s in sites] == [listed[0], listed[-1]]
    with pytest.raises(ValueError, match="r4"):
        find_move_sites(code, ("r4",))
    with pytest.raises(ValueError, match="r1_insert"):
        find_move_sites(code, ("r1_remove", "r1_insert"))


def test_insert_sites_carry_fresh_ids():
    code = parse_flat_link("_1+ _1-")
    out = apply_move(code, MoveSite.parse("r1_insert A 0 - +-"))
    assert render_flat_link(out) == "_2+ _2- _1+ _1-"
    out = apply_move(code, MoveSite.parse("r2_insert A,A 0,2 - + ef"))
    assert render_flat_link(out) == "_2+ _3- _1+ _1- _2- _3+"
    final, log = random_walk(code, 6, 0, INSERT_ONLY)
    assert len(log) == 6
    used = {"_1"}
    for site in log:
        assert site.crossings and not used & set(site.crossings)
        used |= set(site.crossings)
    assert used == {x for cw in final.components for x, _ in cw.letters}


def test_walk_log_is_pinned():
    # a seed's walk never changes: the draws, the sites and the fresh ids,
    # which reuse an id that a removal freed
    code = parse_flat_link("A: a+ b+ a- b- ; B: c+ c-")
    final, log = random_walk(code, 8, seed=3)
    assert [site.describe() for site in log] == [
        "r1_insert A 2 _1 -+", "r2_insert A,A 4,6 _2,_3 - fe",
        "r2_remove A,A 4,8 _2,_3", "r1_insert B 1 _2 +-",
        "r1_insert A 6 _3 -+", "r2_insert A,A 2,4 _4,_5 + fe",
        "r2_remove A,A 2,6 _4,_5", "r2_insert B,B 1,3 _4,_5 - ef"]
    assert render_flat_link(final) == (
        "a+ b+ _1- _1+ a- b- _3- _3+ ; c+ _4- _5+ _2+ _2- _4+ _5- c-")


PINNED_WALKS_SHA256 = (
    "7fab33f4b66cc554867c21614c71a291bf9e2d1dac0313ae7291bd1f3b7f062c")
REMOVALS_ONLY = {"r1_insert": 0, "r2_insert": 0, "r1_remove": 1,
                 "r2_remove": 1, "r3": 1}


def _pinned_walks():
    """(code, steps, seed, weights) of seeded walks on tiny codes, on
    3-component codes with planted triangles, on unbalanced codes, with
    removal-only and insert-only weights, and 200 steps long."""
    rng = random.Random(31)
    walks = []
    for i in range(40):
        code = random_code(rng, 4, 3, balanced=i % 2 == 0)
        walks += [(code, 20, seed, None) for seed in (1, 2, 3)]
    for _ in range(20):
        code = plant_triangle(random_code(rng, 12, 3, True, 3), rng)
        walks += [(code, 40, seed, None) for seed in (4, 5)]
    for _ in range(20):
        walks.append((random_code(rng, 10, 3), 40, rng.randrange(2**31), None))
    for _ in range(10):
        code = plant_triangle(random_code(rng, 16, 3, True, 2), rng)
        walks.append((code, 30, rng.randrange(2**31), REMOVALS_ONLY))
        walks.append((code, 15, rng.randrange(2**31), INSERT_ONLY))
    for _ in range(5):
        walks.append((random_code(rng, 12, 3), 200, rng.randrange(2**31), None))
    return walks


def test_every_pinned_walk_is_unchanged():
    # the logs and final codes of 205 walks (5,983 steps), digested: any change in what a
    # walk draws, the sites it logs or the ids it picks changes the digest
    digest = hashlib.sha256()
    for code, steps, seed, weights in _pinned_walks():
        final, log = random_walk(code, steps, seed, weights)
        for line in [site.describe() for site in log] + [render_flat_link(final)]:
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_WALKS_SHA256


@settings(deadline=None)
@given(codes(max_crossings=8), st.integers(0, 2**31 - 1), st.booleans())
def test_walk_draws_only_listed_sites(code, seed, planted):
    # every removal or triangle site a walk logs is one that find_move_sites
    # lists on the code the step started from
    if planted:
        code = plant_triangle(code, random.Random(seed))
    final, log = random_walk(code, 12, seed)
    for site in log:
        if _KINDS[site.kind].finder is not None:
            assert site in find_move_sites(code, (site.kind,))
        code = apply_move(code, site)
    assert code == final


@settings(deadline=None)
@given(codes(max_crossings=6), st.integers(0, 2**31 - 1))
def test_walk_inserts_the_smallest_unused_ids(code, seed):
    # an insert-only walk first seeds the code with _k ids, so removals in
    # the second walk free some of them for reuse
    code, _ = random_walk(code, 4, seed, INSERT_ONLY)
    final, log = random_walk(code, 16, seed + 1)
    for site in log:
        if _KINDS[site.kind].finder is None:
            assert site.crossings == fresh_ids_reference(code, len(site.spots))
        code = apply_move(code, site)
    assert code == final


@pytest.mark.parametrize("text, error", [
    ("a+ b+", CrossingAppearsOnce),  # used to walk on to another invalid code
    ("a+ a+", SameSignTwice),  # used to raise StaleSite
])
def test_walk_validates_its_start_code(text, error):
    with pytest.raises(error, match="'a'"):
        random_walk(parse_flat_link(text), 5, 1)


@settings(deadline=None)
@given(codes(max_crossings=4), st.integers(0, 2**31 - 1))
def test_walk_replays_from_log(code, seed):
    final, log = random_walk(code, 6, seed)
    replayed = code
    for site in log:
        replayed = apply_move(replayed, site)
    assert replayed == final
    validate(final)


@settings(deadline=None)
@given(codes(max_crossings=4, balanced=True), st.integers(0, 2**31 - 1))
def test_walk_preserves_invariant(code, seed):
    before = link_polynomial(code)
    final, _ = random_walk(code, 8, seed)
    assert before == link_polynomial(final)


def test_walk_is_deterministic():
    code = parse_flat_link("a+ b+ a- c- b- c+")
    assert random_walk(code, 12, 99) == random_walk(code, 12, 99)


def test_walk_zero_steps():
    code = parse_flat_link("a+ a-")
    final, log = random_walk(code, 0, 1)
    assert final == code and log == []


def test_walk_respects_weights():
    code = parse_flat_link("a+ b+ a- b-")  # no r1/r2/r3 removal applies
    weights = {"r1_insert": 0, "r2_insert": 0, "r2_remove": 0, "r1_remove": 1,
               "r3": 0}
    final, log = random_walk(code, 5, 0, weights)
    assert log == [] and final == code


@pytest.mark.parametrize("weights, message", [
    ({"r1_insrt": 5}, "unknown move kind 'r1_insrt'"),
    ({"r3": float("nan")}, "weight of r3 must be a finite number >= 0, got nan"),
    ({"r2_insert": float("inf")}, "weight of r2_insert must be a finite number"),
    ({"r1_remove": -1}, "weight of r1_remove must be a finite number >= 0, got -1"),
    ({"r2_remove": "2"}, "weight of r2_remove must be a finite number >= 0, got '2'"),
])
def test_walk_rejects_bad_weights(weights, message):
    # a misspelled kind would otherwise run a default walk, a NaN weight
    # would silently disable its kind, and inf or a string would fail
    # inside random
    code = parse_flat_link("a+ b+ a- b-")
    with pytest.raises(ValueError, match=re.escape(message)):
        random_walk(code, 3, 0, weights)


@settings(deadline=None)
@given(codes(max_crossings=4), st.integers(0, 2**31 - 1))
def test_walk_of_removals_only_shrinks(code, seed):
    weights = {"r1_insert": 0, "r2_insert": 0, "r3": 0,
               "r1_remove": 1, "r2_remove": 1}
    final, log = random_walk(code, 10, seed, weights)
    total = sum(len(cw) for cw in final.components)
    assert total <= sum(len(cw) for cw in code.components)
    validate(final)


def test_found_sites_all_apply():
    code = parse_flat_link("A: a+ c- b+ a- c+ b-\nB: e+ f- e- f+")
    # every insertion site too: each gap, each pair of gaps, each variant
    gaps = [(cw.name, g) for cw in code.components for g in range(len(cw) + 1)]
    kinks = [MoveSite("r1_insert", (gap,), (), (order,))
             for gap in gaps for order in ("+-", "-+")]
    slides = [MoveSite("r2_insert", (gap, other), (), (eps, order2))
              for i, gap in enumerate(gaps) for other in gaps[i:]
              for eps in "+-" for order2 in ("ef", "fe")]
    assert (len(kinks), len(slides)) == (24, 312)
    for site in find_move_sites(code) + kinks + slides:
        out = apply_move(code, site)
        validate(out)
        assert link_polynomial(out) == link_polynomial(code)


def test_every_finder_candidate_passes_its_check():
    # find_move_sites lists every candidate a finder proposes, so on a valid
    # code each one must form its kind's pattern: on every class up to
    # (5, 1), (4, 3) and (3, 4), and on random codes after random walks,
    # some with a planted triangle
    shapes = {(n, k) for top_n, top_k in ((5, 1), (4, 3), (3, 4))
              for n in range(top_n + 1) for k in range(top_k + 1)}
    samples = [code for n, k in sorted(shapes) for code in enumerate_small_codes(n, k)]
    rng = random.Random(29)
    for i in range(300):
        code = random_code(rng, 10, 3)
        if i % 2:
            code = plant_triangle(code, rng)
        samples.append(random_walk(code, 8, rng.randrange(2**31))[0])
    rows = [row for row in _KINDS.values() if row.finder is not None]
    checked = 0
    for code in samples:
        validate(code)
        slides = _once(_slide_spots, code)  # one pass per code
        for row in rows:
            for spots in row.finder(code, slides):
                row.check(code, spots)  # raises StaleSite if it fails
                checked += 1
    assert checked > 20_000


@pytest.mark.xfail(strict=True, reason="the polynomial of a component with a "
                   "nonzero sign total is published unreduced, and r1 changes it")
def test_r1_keeps_the_published_invariant_of_an_unbalanced_component():
    # A has sign total 2, and removing its one kink takes the published
    # poly A from 2t^2 to 0 (ROADMAP item 1); a value reduced mod the sign
    # total would survive the move, and this test would pass
    code = parse_flat_link("A: x+ k- k+ y+ ; B: x- y-")
    moved = apply_move(code, MoveSite.parse("r1_remove A 1 k"))
    assert [site.describe() for site in find_move_sites(code)] == [
        "r1_remove A 1 k"]
    assert link_polynomial(moved).to_json() == link_polynomial(code).to_json()
