import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from flatlinks import (
    ORACLE_CAP,
    Filamentation,
    InstanceTooLarge,
    PartitionNotCovering,
    PartsOverlap,
    brute_force_filamentation,
    greedy_zero_sum_partition,
    link_filamentation,
    link_polynomial,
    parse_flat_link,
    validate,
    verify_filamentation,
)
import flatlinks.filament as filament
from helpers import (
    codes,
    letter_ends,
    matching_sum_oracle,
    random_code,
    self_poly_oracle,
    zero_matching_exists_oracle,
)


def test_filamentation_is_stored_canonically():
    f = Filamentation(("b", "a"), (("y", "x"), ("c", "d")))
    assert f.monofilaments == ("a", "b")
    assert f.bifilaments == (("c", "d"), ("x", "y"))
    assert list(f.parts()) == [("a",), ("b",), ("c", "d"), ("x", "y")]
    assert f.to_json() == {"mono": ["a", "b"], "bi": [["c", "d"], ["x", "y"]]}


def test_verify_accepts_golden_bifilament():
    code = parse_flat_link("a+ b+ a- b-")
    f = Filamentation((), (("a", "b"),))
    assert verify_filamentation(code, f) == []


def test_verify_accepts_monofilaments():
    code = parse_flat_link("a+ a- b+ b-")
    assert verify_filamentation(code, Filamentation(("a", "b"), ())) == []


def test_verify_rejects_overlap_and_noncover():
    code = parse_flat_link("a+ b+ a- b-")
    with pytest.raises(PartsOverlap):
        verify_filamentation(code, Filamentation(("a",), (("a", "b"),)))
    with pytest.raises(PartitionNotCovering):
        verify_filamentation(code, Filamentation(("a",), ()))
    with pytest.raises(PartitionNotCovering) as exc:
        verify_filamentation(code, Filamentation(("a", "b", "z"), ()))
    assert "z" in str(exc.value)


def test_verify_reports_nonzero_arc_counts():
    code = parse_flat_link("a+ b+ a- b-")
    violations = verify_filamentation(code, Filamentation(("a", "b"), ()))
    assert len(violations) == 2
    assert all("+1" in str(v) or "-1" in str(v) for v in violations)


def test_verify_reports_misaligned_bifilament():
    code = parse_flat_link("A: x+ a+ y- a-\nB: y+ x-")
    violations = verify_filamentation(code, Filamentation(("y",), (("a", "x"),)))
    reasons = {v.part: v.reason for v in violations}
    assert reasons == {("a", "x"): "ends do not align into two filaments",
                       ("y",): "monofilament ends lie on two components"}


def test_verify_reports_every_part_in_order():
    # monofilaments first, then bifilaments, each reason word for word
    code = parse_flat_link("a+ b+ a- c+ b- c-")
    violations = verify_filamentation(code, Filamentation(("c",), (("a", "b"),)))
    assert [str(v) for v in violations] == [
        "{c}: arc count -1, expected 0",
        "{a, b}: arc count sum +1, expected 0",
    ]


def test_verify_reports_bifilament_not_of_two():
    # a bifilament of one crossing is reported even where that crossing
    # would pass as a monofilament
    for text, part in [("a+ b+ a- b- c+ c-", ("a", "b", "c")),
                       ("a+ b+ a- b- c+ d+ c- d-", ("a", "b", "c", "d")),
                       ("c+ c-", ("c",))]:
        violations = verify_filamentation(parse_flat_link(text),
                                          Filamentation((), (part,)))
        assert [str(v) for v in violations] == [
            f"{{{', '.join(part)}}}: bifilament holds {len(part)} crossing(s), "
            "expected 2"], text


def test_component_filamentation_golden():
    code = parse_flat_link("a+ b+ a- b-")
    f = link_filamentation(code)
    assert f == Filamentation((), (("a", "b"),))
    assert verify_filamentation(code, f) == []


def test_component_filamentation_monofilament():
    # adjacent ends: zero letters strictly between them
    code = parse_flat_link("a+ a-")
    assert link_filamentation(code) == Filamentation(("a",), ())


def test_component_filamentation_none_when_poly_nonzero():
    code = parse_flat_link("a+ b+ a- c- b- c+")
    assert not link_polynomial(code).is_zero
    assert link_filamentation(code) is None
    assert brute_force_filamentation(code) is None


@settings(deadline=None)
@given(codes(max_crossings=6, max_components=1))
def test_component_filamentation_iff_zero_poly_iff_brute_force(code):
    found = link_filamentation(code)
    zero = link_polynomial(code).is_zero
    brute = brute_force_filamentation(code)
    assert (found is not None) == zero == (brute is not None)
    if found is not None:
        assert verify_filamentation(code, found) == []
        assert verify_filamentation(code, brute) == []


def test_greedy_zero_sum_partition_golden():
    code = parse_flat_link("A: x1+ y1- x2+ y2-\nB: y1+ x1- y2+ x2-")
    f = greedy_zero_sum_partition(validate(code))
    assert f == Filamentation((), (("x1", "y1"), ("x2", "y2")))
    for pair in f.bifilaments:
        assert matching_sum_oracle(code, 0, 1, [pair]) == 0


def test_greedy_zero_sum_partition_none_when_every_pair_misses():
    # every one of the four candidate pairs has arc-count sum +-1, so
    # no matching exists even though the total coefficient is 0
    code = parse_flat_link("A: x1+ x2+ y1- y2-\nB: y2+ x2- x1- y1+")
    assert greedy_zero_sum_partition(validate(code)) is None
    assert link_polynomial(code).is_zero
    assert brute_force_filamentation(code) is None


def test_greedy_zero_sum_partition_requires_balance():
    code = parse_flat_link("A: x+ y+\nB: x- y-")
    assert greedy_zero_sum_partition(validate(code)) is None


def test_greedy_zero_sum_partition_requires_zero_sign_totals():
    # the A-B difference is 0, but A-C is +1, so A's sign total is +1
    code = parse_flat_link("A: x+ y- z+ ; B: y+ x- ; C: z-")
    assert greedy_zero_sum_partition(validate(code)) is None
    assert brute_force_filamentation(code) is None


@settings(deadline=None)
@given(codes(max_crossings=6, min_components=2, max_components=2, balanced=True))
def test_greedy_matches_exhaustive_existence(code):
    # the pair part exists exactly when a zero-sum matching does, and each
    # component's part exactly when its polynomial vanishes
    f = link_filamentation(code)
    exists = (zero_matching_exists_oracle(code, 0, 1)
              and self_poly_oracle(code, 0) == self_poly_oracle(code, 1) == {})
    assert (f is not None) == exists
    if f is not None:
        assert verify_filamentation(code, f) == []
        ends = letter_ends(code)
        for pair in f.bifilaments:
            # x with its + end on component 0, y with its + end on 1
            x, y = sorted(pair, key=lambda c: ends[c][1][0])
            if ends[x][1][0] != ends[x][-1][0]:
                assert matching_sum_oracle(code, 0, 1, [(x, y)]) == 0


def test_elementary_switch_preserves_total_sum():
    # swapping the minus ends of two pairs keeps the arc-count sum
    code = parse_flat_link("A: x1+ x2+ y1- y2-\nB: y2+ x2- x1- y1+")
    p1 = (("x1", "y1"), ("x2", "y2"))
    p2 = (("x1", "y2"), ("x2", "y1"))
    total = matching_sum_oracle(code, 0, 1, p1)
    assert matching_sum_oracle(code, 0, 1, p2) == total
    assert link_polynomial(code).pair_coeff("A", "B") == total


def test_link_filamentation_golden():
    code = parse_flat_link("A: x+ a+ y- a-\nB: y+ x-")
    # coeff(A, B) is +1, so no zero-sum pairing of {x, y} can exist
    assert link_filamentation(code) is None
    assert brute_force_filamentation(code) is None


def test_link_filamentation_none_on_nonzero_linking():
    # in the second code every sign total is zero, but every linking
    # difference is +-1
    for text in ("A: x+ y+\nB: x- y-", "A: x+ z- ; B: x- y+ ; C: y- z+"):
        code = parse_flat_link(text)
        assert link_filamentation(code) is None
        assert brute_force_filamentation(code) is None


def test_link_filamentation_combines_components_and_pairs():
    code = parse_flat_link("A: a+ a- x+ y-\nB: y+ x-")
    f = link_filamentation(code)
    assert f is not None
    assert verify_filamentation(code, f) == []
    assert ("a",) in f.parts()
    assert ("x", "y") in f.parts()


@settings(deadline=None)
@given(st.one_of(codes(max_crossings=6, balanced=True),
                 codes(max_crossings=6, max_components=4)))
def test_greedy_link_filamentation_matches_brute_force(code):
    greedy = link_filamentation(code)
    brute = brute_force_filamentation(code)
    assert (greedy is None) == (brute is None)
    if greedy is not None:
        assert verify_filamentation(code, greedy) == []
        assert verify_filamentation(code, brute) == []


def test_link_filamentation_leaves_the_catalog_unchanged(monkeypatch):
    # the greedy pairs sorted copies of the bucket sides, so the catalog
    # that validate built, bucket lists in their order, is left as it was
    catalogs = []

    def kept(code):
        catalogs.append(validate(code))
        return catalogs[-1]

    monkeypatch.setattr(filament, "validate", kept)
    rng = random.Random(1717)
    paired = 0
    for _ in range(300):
        code = random_code(rng, max_crossings=12, max_components=3,
                           balanced=True)
        found = link_filamentation(code)
        assert catalogs[-1].buckets == validate(code).buckets
        paired += found is not None and len(found.bifilaments) > 1
    assert paired


@settings(deadline=None)
@given(codes(max_crossings=5))
def test_filamentation_forces_zero_invariant(code):
    if brute_force_filamentation(code) is not None:
        assert link_polynomial(code).is_zero


@pytest.mark.parametrize("text", ["x+ a+ y- a- ; y+ x-", "a+ b+ a- b-",
                                  "a+ b+ c+ a- b- c-"])
def test_oracle_leaves_no_reference_cycles(text):
    code = parse_flat_link(text)
    gc.collect()
    gc.disable()
    try:
        brute_force_filamentation(code)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_brute_force_cap():
    words = " ".join(f"c{i}+ c{i}-" for i in range(13))
    with pytest.raises(InstanceTooLarge):
        brute_force_filamentation(parse_flat_link(words))
    # ORACLE_CAP crossings are still searched
    at_cap = " ".join(f"c{i}+ c{i}-" for i in range(ORACLE_CAP))
    f = brute_force_filamentation(parse_flat_link(at_cap))
    assert len(f.monofilaments) == ORACLE_CAP
