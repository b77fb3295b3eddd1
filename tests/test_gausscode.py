import gc
import time
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from flatlinks import (
    MINUS,
    PLUS,
    Codeword,
    CrossingAppearsOnce,
    CrossingAppearsThrice,
    DuplicateComponentName,
    FlatLinkCode,
    FlatLinkError,
    MalformedToken,
    MoveSite,
    PositionOutOfRange,
    SamePosition,
    SameSignTwice,
    apply_move,
    intersection_number,
    parse_flat_link,
    render_flat_link,
    validate,
)
from flatlinks.filament import greedy_zero_sum_partition
from helpers import (
    codes,
    codes_equivalent_syntactically,
    eta_oracle,
    letter_ends,
    matching_sum_oracle,
    pair_ends_oracle,
    reference_parse,
    total_sign,
    validate_error_oracle,
)


def test_parse_single_knot():
    code = parse_flat_link("a+ b+ a- c- b- c+")
    assert len(code.components) == 1
    cw = code.components[0]
    assert cw.name == "A"
    assert cw.letters == (("a", PLUS), ("b", PLUS), ("a", MINUS), ("c", MINUS),
                          ("b", MINUS), ("c", PLUS))


def test_parse_named_components_and_comments():
    code = parse_flat_link("""
        # a two component link
        first: x+ a+ y- a-   # self-crossing a
        second: y+ x-
    """)
    assert code.component_names() == ("first", "second")
    assert len(code.components[0]) == 4
    assert len(code.components[1]) == 2


def test_parse_semicolon_separators_and_empty_component():
    code = parse_flat_link("A: ; c1- c2- c1+ c3+ ; c2+ c3-")
    assert code.component_names() == ("A", "B", "C")
    assert code.components[0].letters == ()


def test_parse_unnamed_blank_segments_are_skipped():
    code = parse_flat_link("a+ a-\n\n")
    assert len(code.components) == 1


def test_parse_rejects_malformed_token():
    with pytest.raises(MalformedToken) as exc:
        parse_flat_link("a+ b* a-")
    assert "b*" in str(exc.value)


BAD_TOKENS = ("b*", "a+-", "+", "\u00e9+", "a+b-")
# heads that hold a sign, so the sign stream must not be read before they fail
BAD_HEADS = ("x+:", " a-b :", "+:")
# str.split and the parser's regex both split on these; \x1c also ends a line
SPACES = (" ", "  ", "\t", "\u00a0", "\u2003", "\x1c")


@st.composite
def code_texts(draw):
    """Texts of named and unnamed segments, ``;`` or newline separated,
    with ``#`` comments (some holding signs) and Unicode whitespace.
    Bodies run to 100 tokens; two thirds of the texts carry one
    malformed token or one malformed head."""
    token = st.builds(str.__add__, st.sampled_from(["a", "b", "x1", "_", "C26"]),
                      st.sampled_from("+-"))
    body = st.one_of(st.lists(token, max_size=5), st.lists(token, min_size=20, max_size=100))
    bodies = draw(st.lists(body, max_size=4))
    heads = [draw(st.sampled_from(["", "A:", "k: ", " B :"])) for _ in bodies]
    fault = draw(st.sampled_from([None, "token", "head"]))
    if fault:
        bodies = bodies or [[]]
        heads = heads or [""]
        at = draw(st.integers(0, len(bodies) - 1))
        if fault == "token":
            bodies[at].insert(draw(st.integers(0, len(bodies[at]))),
                              draw(st.sampled_from(BAD_TOKENS)))
        else:
            heads[at] = draw(st.sampled_from(BAD_HEADS))
    text = ""
    for head, body in zip(heads, bodies):
        for word in head.split() + body:
            text += word + draw(st.sampled_from(SPACES))
        if draw(st.booleans()):
            text += draw(st.sampled_from(["# c* ; d:", "# x+ y- ; d:", "#-+"]))
        text += draw(st.sampled_from([";", "\n", " ; "]))
    return text


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except FlatLinkError as exc:
        return type(exc), exc.args, vars(exc)


@settings(max_examples=300)
@given(code_texts())
def test_parse_equals_reference_parse(text):
    got = _parse_outcome(parse_flat_link, text)
    assert got == _parse_outcome(reference_parse, text)
    if isinstance(got, FlatLinkCode):
        letters = [l for cw in got.components for l in cw.letters]
        for l in letters:
            assert type(l) is tuple and len(l) == 2
            assert type(l[0]) is str and (l[1] is PLUS or l[1] is MINUS)
        # a tuple of a str and an int holds no reference cycle, so one
        # collection untracks it: a big code adds nothing to later ones
        gc.collect()
        assert not any(map(gc.is_tracked, letters))


def test_parse_lone_surrogate_is_a_malformed_token():
    # the signs are read from the text as bytes; a lone surrogate, which
    # UTF-8 does not encode, is named like any other bad token, not raised
    # as a UnicodeEncodeError
    for text, bad in (("a+ \ud800- a-", "\ud800-"), ("\ud800: a+ a-", "\ud800"),
                      ("A: a+ ; \udfff", "\udfff")):
        with pytest.raises(MalformedToken) as exc:
            parse_flat_link(text)
        assert exc.value.token == bad
    # in a comment it is cut with the comment
    assert parse_flat_link("a+ a- # \ud800-") == reference_parse("a+ a-")


def test_parse_long_malformed_body_fails_at_once():
    # a regex that backtracks over the whole body would take minutes here
    valid = " ".join(f"x{i}+" for i in range(100_000))
    for text, bad in ((valid + " b*", "b*"), (valid + "-", "x99999+-"),
                      ("a+" * 100_000, "a+" * 100_000)):
        started = time.perf_counter()
        with pytest.raises(MalformedToken) as exc:
            parse_flat_link(text)
        assert exc.value.token == bad
        assert time.perf_counter() - started < 5


def test_parse_rejects_duplicate_component_name():
    with pytest.raises(DuplicateComponentName) as exc:
        parse_flat_link("K: a+ a-\nK: b+ b-")
    assert "K" in str(exc.value)


def test_validate_rejects_single_occurrence():
    with pytest.raises(CrossingAppearsOnce) as exc:
        validate(parse_flat_link("a+ b+ a-"))
    assert "b" in str(exc.value)


def test_validate_rejects_third_occurrence():
    with pytest.raises(CrossingAppearsThrice) as exc:
        validate(parse_flat_link("a+ a- a+ b- b+ a-"))
    assert "a" in str(exc.value)


def test_validate_rejects_equal_signs():
    with pytest.raises(SameSignTwice) as exc:
        validate(parse_flat_link("a+ b+ a+ b-"))
    assert "a" in str(exc.value)


def _validate_outcome(code):
    try:
        validate(code)
    except FlatLinkError as exc:
        offender = getattr(exc, "crossing", getattr(exc, "name", None))
        return type(exc), offender, getattr(exc, "count", None)
    return None


@pytest.mark.parametrize("text, expected", [
    # the first faulty crossing by first letter, and a third letter
    # outranks a repeated sign
    ("a+ b+ a+ a-", (CrossingAppearsThrice, "a", 3)),
    ("b+ a+ a+ a-", (CrossingAppearsOnce, "b", None)),
    ("a+ b+ b+", (CrossingAppearsOnce, "a", None)),
    ("c+ a+ b+ a- a-", (CrossingAppearsOnce, "c", None)),
    ("a+ a- a+ a-", (CrossingAppearsThrice, "a", 4)),
    ("A: a+ b- ; B: b+ a+", (SameSignTwice, "a", None)),
])
def test_validate_names_the_first_fault(text, expected):
    code = parse_flat_link(text)
    assert validate_error_oracle(code) == expected
    assert _validate_outcome(code) == expected


def test_validate_names_a_repeated_component_before_any_crossing():
    code = FlatLinkCode((Codeword("K", (("a", PLUS),)),
                         Codeword("K", (("b", PLUS),))))
    expected = (DuplicateComponentName, "K", None)
    assert validate_error_oracle(code) == expected
    assert _validate_outcome(code) == expected


@st.composite
def mutated_codes(draw):
    """A valid code with one to three letters dropped, duplicated,
    sign-flipped or given the sign 0, and now and then a component
    renamed to another's name."""
    code = draw(codes(max_crossings=6))
    words = [list(cw.letters) for cw in code.components]
    for _ in range(draw(st.integers(1, 3))):
        full = [i for i, w in enumerate(words) if w]
        if not full:
            break
        w = words[draw(st.sampled_from(full))]
        at = draw(st.integers(0, len(w) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "flip", "zero"]))
        if op == "drop":
            del w[at]
        elif op == "duplicate":
            source = words[draw(st.sampled_from(full))]
            w.insert(at, source[draw(st.integers(0, len(source) - 1))])
        else:
            x, s = w[at]
            w[at] = (x, -s if op == "flip" else 0)
    names = [cw.name for cw in code.components]
    if len(names) > 1 and draw(st.integers(0, 9)) == 0:
        names[draw(st.integers(1, len(names) - 1))] = names[0]
    return FlatLinkCode(tuple(Codeword(n, tuple(w))
                              for n, w in zip(names, words)))


@settings(max_examples=400)
@given(mutated_codes())
def test_validate_error_matches_reference(code):
    assert _validate_outcome(code) == validate_error_oracle(code)


def test_catalog_classifies_ends():
    code = parse_flat_link("A: x+ a+ y- a-\nB: y+ x-")
    catalog = validate(code)
    assert catalog.ends == {"x": (0, 0, 1, 1), "a": (0, 1, 0, 3),
                            "y": (1, 0, 0, 2)}
    assert catalog.totals == [0, 0]


def test_render_round_trip_golden():
    text = "A: x+ a+ y- a- ; B: y+ x-"
    code = parse_flat_link(text)
    assert parse_flat_link(render_flat_link(code)) == code
    # default names are left off
    assert str(code) == render_flat_link(code) == "x+ a+ y- a- ; y+ x-"
    assert [str(cw) for cw in code.components] == ["x+ a+ y- a-", "y+ x-"]


@given(codes(max_crossings=5))
def test_render_round_trip(code):
    assert parse_flat_link(render_flat_link(code)) == code
    assert str(code) == render_flat_link(code)
    for cw in code.components:
        assert tuple(cw) == cw.letters
        assert str(cw) == " ".join(x + ("+" if s == PLUS else "-") for x, s in cw)


def test_intersection_number_golden():
    code = parse_flat_link("a+ b+ a- c- b- c+")
    # forward from a+ (0) to a- (2): just b+
    assert intersection_number(code, 0, 0, 2) == 1
    # wrap from a- (2) to a+ (0): c- b- c+
    assert intersection_number(code, 0, 2, 0) == -1
    assert intersection_number(code, 0, 5, 4) == 0


def test_intersection_number_counts_other_components_ends():
    code = parse_flat_link("A: x+ a+ y- a-\nB: y+ x-")
    # from x+ (0) to y- (2): the a+ letter counts even though a is a
    # self-crossing, and y's end counts even though y touches B
    assert intersection_number(code, 0, 0, 2) == 1
    assert intersection_number(code, 0, 0, 3) == 0


def test_intersection_number_rejects_bad_positions():
    code = parse_flat_link("a+ a-")
    with pytest.raises(SamePosition):
        intersection_number(code, 0, 1, 1)
    with pytest.raises(PositionOutOfRange):
        intersection_number(code, 0, 0, 2)


@given(codes(max_crossings=6), st.data())
def test_intersection_number_matches_oracle(code, data):
    comps = [i for i, cw in enumerate(code.components) if len(cw) >= 2]
    if not comps:
        return
    ci = data.draw(st.sampled_from(comps))
    n = len(code.components[ci])
    p = data.draw(st.integers(0, n - 1))
    q = data.draw(st.integers(0, n - 1).filter(lambda v: v != p))
    assert intersection_number(code, ci, p, q) == eta_oracle(code, ci, p, q)


@given(st.one_of(codes(max_crossings=8), codes(max_crossings=8, balanced=True)))
# a self-crossing whose - end comes first, on components of total +2 and -2
@example(parse_flat_link("A: a- x+ a+ y+ ; B: x- y-"))
def test_catalog_matches_references(code):
    catalog = validate(code)
    ends = letter_ends(code)
    # every crossing in exactly one bucket, the + side with its + end on a
    # and the - side with its - end there; the index is the key on the
    # + side and its negative on the - side
    index = {}
    for (a, b, v), (plus, minus) in catalog.buckets.items():
        assert a <= b
        for x in plus:
            assert (ends[x][PLUS][0], ends[x][MINUS][0]) == (a, b)
            assert x not in index
            index[x] = v
        for x in minus:
            assert (ends[x][MINUS][0], ends[x][PLUS][0]) == (a, b)
            assert x not in index
            index[x] = -v
        if a == b:
            assert v >= 0
    assert sorted(index) == sorted(ends)
    for x, sides in ends.items():
        (cp, pp), (cm, pm) = sides[PLUS], sides[MINUS]
        assert catalog.ends[x] == (cp, pp, cm, pm)
        if cp == cm:
            assert index[x] == eta_oracle(code, cp, pp, pm)
    for ci in range(len(code.components)):
        assert catalog.totals[ci] == total_sign(code, ci)
    for a, b in permutations(range(len(code.components)), 2):
        plus, minus = pair_ends_oracle(code, a, b)
        if total_sign(code, a) == total_sign(code, b) == 0:
            for x, y in product(plus, minus):
                assert (index[x] + index[y]
                        == matching_sum_oracle(code, a, b, [(x, y)]))
    # index-0 self-crossings are monofilaments; once the totals vanish,
    # each bucket's + side / - side pairs all vanish (aligned across a
    # pair, opposite on one component)
    for (a, b, v), (plus, minus) in catalog.buckets.items():
        if a == b and v == 0:
            assert not minus
            for x in plus:
                (_, pp), (_, pm) = ends[x][PLUS], ends[x][MINUS]
                assert eta_oracle(code, a, pp, pm) == 0
        if total_sign(code, a) == total_sign(code, b) == 0:
            for x, y in product(plus, minus):
                if a != b:
                    assert matching_sum_oracle(code, a, b, [(x, y)]) == 0
                    continue
                (_, xp), (_, xm) = ends[x][PLUS], ends[x][MINUS]
                (_, yp), (_, ym) = ends[y][PLUS], ends[y][MINUS]
                assert eta_oracle(code, a, xp, xm) == -eta_oracle(code, a, yp, ym)
    # the greedy filamentation sorts copies of the sides it pairs
    before = {k: (list(p), list(m)) for k, (p, m) in catalog.buckets.items()}
    greedy_zero_sum_partition(catalog)
    assert catalog.buckets == before


@given(codes(max_crossings=6))
def test_reciprocity(code):
    # eta(u, v) + eta(v, u) counts everything except the ends
    for ci, cw in enumerate(code.components):
        s = total_sign(code, ci)
        for p in range(len(cw)):
            for q in range(p + 1, len(cw)):
                lhs = (intersection_number(code, ci, p, q)
                       + intersection_number(code, ci, q, p))
                assert lhs == s - cw.letters[p][1] - cw.letters[q][1]


@given(codes(max_crossings=5), st.data())
def test_additivity_through_interior_point(code, data):
    comps = [i for i, cw in enumerate(code.components) if len(cw) >= 3]
    if not comps:
        return
    ci = data.draw(st.sampled_from(comps))
    cw = code.components[ci]
    n = len(cw)
    p = data.draw(st.integers(0, n - 1))
    gap = data.draw(st.integers(2, n - 1))
    q = (p + gap) % n
    w = (p + data.draw(st.integers(1, gap - 1))) % n
    assert intersection_number(code, ci, p, q) == (
        intersection_number(code, ci, p, w)
        + cw.letters[w][1]
        + intersection_number(code, ci, w, q))


def test_total_sign():
    code = parse_flat_link("A: x+ a+ y- a-\nB: y+ x-")
    assert total_sign(code, 0) == 0
    assert total_sign(code, 1) == 0
    code2 = parse_flat_link("A: x+ y+\nB: x- y-")
    assert total_sign(code2, 0) == 2
    assert total_sign(code2, 1) == -2


def test_equivalence_rotation_only():
    c1 = parse_flat_link("a+ b+ a- b-")
    c2 = parse_flat_link("b+ a- b- a+")
    assert codes_equivalent_syntactically(c1, c2)
    assert not codes_equivalent_syntactically(c1, parse_flat_link("a- b+ a+ b-"))


def test_equivalence_needs_matching_names_without_relabel():
    c1 = parse_flat_link("K: a+ a-")
    c2 = parse_flat_link("a+ a-")
    assert not codes_equivalent_syntactically(c1, c2)
    assert codes_equivalent_syntactically(c1, c2, allow_relabel=True)


def test_equivalence_with_relabel_after_rotation():
    # rotating a+ b+ a- b- by one gives b+ a- b- a+, and renaming
    # b -> a, a -> b turns that into a+ b- a- b+
    c1 = parse_flat_link("a+ b+ a- b-")
    c2 = parse_flat_link("a+ b- a- b+")
    assert not codes_equivalent_syntactically(c1, c2)
    assert codes_equivalent_syntactically(c1, c2, allow_relabel=True)


def test_equivalence_distinguishes_interleaving():
    c1 = parse_flat_link("a+ b+ a- b-")
    c2 = parse_flat_link("a+ a- b+ b-")
    assert not codes_equivalent_syntactically(c1, c2, allow_relabel=True)


def test_equivalence_component_order_matters():
    c1 = parse_flat_link("A: a+ a-\nB:")
    c2 = parse_flat_link("A: \nB: a+ a-")
    assert not codes_equivalent_syntactically(c1, c2, allow_relabel=True)


def test_equivalence_relabel_is_one_bijection_across_components():
    # x <-> y works only if applied on both components at once
    c1 = parse_flat_link("A: x+ y+ z-\nB: x- y- z+")
    good = parse_flat_link("A: y+ x+ z-\nB: y- x- z+")
    bad = parse_flat_link("A: y+ x+ z-\nB: x- y- z+")
    assert codes_equivalent_syntactically(c1, good, allow_relabel=True)
    assert not codes_equivalent_syntactically(c1, bad, allow_relabel=True)


@given(codes(max_crossings=5), st.data())
def test_rotation_is_equivalent(code, data):
    rots = tuple(data.draw(st.integers(0, max(len(cw), 1) - 1))
                 for cw in code.components)
    rotated = code
    for i, k in enumerate(rots):
        rotated = rotated.rotated(i, k)
    assert codes_equivalent_syntactically(code, rotated)


def test_letter_and_codeword_basics():
    x, s = l = ("x", PLUS)
    cw = Codeword("A", (l, (x, -s)))
    assert str(cw) == "x+ x-"
    assert len(cw) == 2 and tuple(cw) == (("x", PLUS), ("x", MINUS))
    assert cw.rotated(1).letters == ((x, -s), l)
    code = FlatLinkCode((cw,))
    assert parse_flat_link(str(code)) == code
    assert {x for cw in code.components for x, _ in cw.letters} == {"x"}


def test_validate_checks_signs_and_insert_checks_ids():
    # a hand-built letter's sign must be PLUS or MINUS, at either end of
    # its crossing; that outranks the crossing's count and its other sign
    for letters in ([("x", PLUS), ("x", 0)], [("x", 0), ("x", MINUS)],
                    [("y", PLUS), ("y", MINUS), ("x", 2), ("x", 2)],
                    [("x", 0)], [("x", MINUS), ("x", -2), ("x", MINUS)]):
        code = FlatLinkCode((Codeword("A", tuple(letters)),))
        assert _validate_outcome(code) == (FlatLinkError, "x", None)
        assert validate_error_oracle(code) == (FlatLinkError, "x", None)
    # identifiers are opaque to validate, as component names are
    assert validate(FlatLinkCode((Codeword("A", (("a b", PLUS), ("a b", MINUS))),)))
    # a crossing id typed into a move line is where outside ids enter
    code = parse_flat_link("a+ a-")
    for line, bad in (("r1_insert A 0 x+y +-", "x+y"),
                      ("r2_insert A,A 0,1 x:y,z + ef", "x:y")):
        with pytest.raises(MalformedToken) as info:
            apply_move(code, MoveSite.parse(line))
        assert info.value.token == bad
    site = MoveSite.parse("r2_insert A,A 0,1 z,a_b + fe")
    assert str(apply_move(code, site)) == "z+ a_b- a+ a_b+ z- a-"
