"""Timed end-to-end checks, one per shipped guarantee.

Every comparison is exact integer equality.  Each check prints one
verdict line with its measured runtime and asserts a hard time bound.
Outside checks 09, 12, 14 and 15, which have bounds of their own, a
bound is about ten times the check's time on a 2-core VM and never under
2 s, so a slowdown of that order fails the gate just like a wrong number
would.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from itertools import combinations

from flatlinks import (
    Codeword,
    FlatLinkCode,
    GenSpec,
    MoveSite,
    SearchGoal,
    apply_move,
    brute_force_filamentation,
    enumerate_small_codes,
    find_move_sites,
    intersection_number,
    link_filamentation,
    link_polynomial,
    parse_flat_link,
    random_flat_link,
    random_walk,
    render_flat_link,
    search_examples,
    validate,
    verify_filamentation,
)
from helpers import (
    CLASS_COUNTS,
    all_matchings,
    component_poly,
    eta_oracle,
    every_component_shares_a_crossing,
    letter_ends,
    linking_diff_oracle,
    matching_sum_oracle,
    pair_ends_oracle,
    random_code,
    self_poly_oracle,
    total_sign,
    zero_matching_exists_oracle,
)


def _stamp(n: int, started: float, bound: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    verdict = "PASS" if elapsed < bound else "FAIL"
    print(f"ACCEPTANCE {n}: {verdict} ({elapsed:.2f}s, bound {bound:g}s) {detail}")
    assert elapsed < bound, f"check {n} took {elapsed:.2f}s, bound is {bound:g}s"


def test_criterion_01_arc_count_reciprocity_and_additivity():
    started = time.perf_counter()
    rng = random.Random(101)
    pair_checks = triple_checks = 0
    for _ in range(1000):
        code = random_code(rng, max_crossings=12, max_components=3)
        for ci, cw in enumerate(code.components):
            n = len(cw)
            if n < 2:
                continue
            sgn = [s for _, s in cw.letters]
            total = sum(sgn)
            eta = [[intersection_number(code, ci, p, q) if p != q else 0
                    for q in range(n)] for p in range(n)]
            for p in range(n):
                row = eta[p]
                for q in range(n):
                    if p == q:
                        continue
                    assert row[q] + eta[q][p] == total - sgn[p] - sgn[q]
                    pair_checks += 1
                    for offset in range(1, (q - p) % n):
                        r = (p + offset) % n
                        assert row[q] == row[r] + sgn[r] + eta[r][q]
                        triple_checks += 1
    _stamp(1, started, 3,
           f"1000 codes, {pair_checks} pairs, {triple_checks} triples")


def test_criterion_02_pairing_independence():
    started = time.perf_counter()
    rng = random.Random(202)
    codes_checked = pairings_checked = 0
    while codes_checked < 200:
        # draw the matching size uniformly so 5!-pairing codes show up often
        spec = GenSpec.build(2, [rng.randint(0, 2), rng.randint(0, 2)],
                             {(0, 1): 2 * rng.randint(1, 5)},
                             seed=rng.getrandbits(32), balanced=True)
        code = random_flat_link(spec)
        plus, minus = pair_ends_oracle(code, 0, 1)
        assert plus and len(plus) <= 5
        assert link_polynomial(code).linking_diff(*code.component_names()) == 0
        values = set()
        for matching in all_matchings(plus, minus):
            values.add(matching_sum_oracle(code, 0, 1, matching))
            pairings_checked += 1
        assert values == {link_polynomial(code).pair_coeff(*code.component_names())}
        codes_checked += 1
    _stamp(2, started, 2,
           f"200 codes, {pairings_checked} exhaustive pairings")


def test_criterion_03_move_walks_preserve_the_invariant():
    started = time.perf_counter()
    rng = random.Random(303)
    steps_replayed = 0
    for _ in range(500):
        code = random_code(rng, max_crossings=6, max_components=3,
                           balanced=True)
        reference = link_polynomial(code)
        final, log = random_walk(code, steps=30, seed=rng.getrandbits(32))
        current = code
        for site in log:
            current = apply_move(current, site)
            assert link_polynomial(current) == reference
        assert render_flat_link(current) == render_flat_link(final)
        steps_replayed += len(log)
    _stamp(3, started, 10, f"500 walks, {steps_replayed} steps checked")


def test_criterion_04_knot_filamentation_iff_zero_polynomial():
    started = time.perf_counter()
    rng = random.Random(404)
    codes = []
    for crossings in range(5):
        codes.extend(enumerate_small_codes(crossings, 1))
    exhaustive = len(codes)
    assert exhaustive == sum(CLASS_COUNTS[c, 1] for c in range(5))
    while len(codes) < exhaustive + 500:
        codes.append(random_code(rng, max_crossings=8, max_components=1))
    filamentations = 0
    for code in codes:
        constructed = link_filamentation(code)
        zero = link_polynomial(code).is_zero
        brute = brute_force_filamentation(code)
        assert (constructed is not None) == zero == (brute is not None)
        for witness in (constructed, brute):
            if witness is not None:
                assert verify_filamentation(code, witness) == []
        filamentations += constructed is not None
    _stamp(4, started, 2,
           f"{exhaustive} exhaustive + 500 random codes, "
           f"{filamentations} filamentations verified")


def test_criterion_05_filamentation_forces_zero_invariant():
    started = time.perf_counter()
    rng = random.Random(505)
    successes = 0
    for i in range(500):
        code = random_code(rng, max_crossings=7, min_components=2,
                           max_components=3, balanced=bool(i % 2))
        witness = brute_force_filamentation(code)
        if witness is not None:
            assert verify_filamentation(code, witness) == []
            assert link_polynomial(code).is_zero
            successes += 1
    assert successes > 0
    _stamp(5, started, 2,
           f"500 codes, {successes} filamentations, 0 counterexamples")


def test_criterion_06_greedy_matching_completeness_and_switches():
    started = time.perf_counter()
    rng = random.Random(606)
    codes_checked = matchings_found = 0
    while codes_checked < 300:
        code = random_code(rng, max_crossings=12, max_components=2,
                           balanced=True, min_components=2)
        plus, minus = pair_ends_oracle(code, 0, 1)
        if not plus:
            continue
        assert len(plus) <= 6
        # the code's filamentation holds a zero-sum matching of the pair
        # exactly when one exists and both component polynomials vanish
        greedy = link_filamentation(code)
        assert (greedy is not None) == (
            zero_matching_exists_oracle(code, 0, 1)
            and self_poly_oracle(code, 0) == self_poly_oracle(code, 1) == {})
        if greedy is not None:
            assert verify_filamentation(code, greedy) == []
            ends = letter_ends(code)
            for pair in greedy.bifilaments:
                # x with its + end on component 0, y with its + end on 1
                x, y = sorted(pair, key=lambda c: ends[c][1][0])
                if ends[x][1][0] == ends[x][-1][0]:
                    continue
                assert (eta_oracle(code, 0, ends[x][1][1], ends[y][-1][1])
                        + eta_oracle(code, 1, ends[y][1][1], ends[x][-1][1])) == 0
            matchings_found += 1
        codes_checked += 1
    switches = 0
    while switches < 1000:
        code = random_code(rng, max_crossings=10, max_components=2,
                           balanced=True, min_components=2)
        plus, minus = pair_ends_oracle(code, 0, 1)
        if len(plus) < 2:
            continue
        shuffled = list(minus)
        rng.shuffle(shuffled)
        pairs = list(zip(plus, shuffled))
        # an elementary switch: two pairs exchange their - side crossings
        i, j = rng.sample(range(len(pairs)), 2)
        switched = list(pairs)
        (x, z), (w, y) = pairs[i], pairs[j]
        switched[i], switched[j] = (x, y), (w, z)
        published = link_polynomial(code).pair_coeff(*code.component_names())
        assert (matching_sum_oracle(code, 0, 1, switched)
                == matching_sum_oracle(code, 0, 1, pairs) == published)
        switches += 1
    _stamp(6, started, 2,
           f"300 codes ({matchings_found} matchings), 1000 switches")


def test_criterion_07_search_zero_polynomial_without_filamentation():
    started = time.perf_counter()
    witness = search_examples(SearchGoal.ZERO_POLY_NO_FILAMENTATION,
                              max_components=2, max_crossings=8)
    # the first witness in canonical enumeration order, pinned
    assert render_flat_link(witness) == "c1- c2- c3+ c4+ ; c1+ c2+ c4- c3-"
    assert link_polynomial(witness).is_zero
    assert brute_force_filamentation(witness) is None
    assert link_filamentation(witness) is None
    _stamp(7, started, 2, render_flat_link(witness))


def test_criterion_08_search_nonzero_multi_component():
    started = time.perf_counter()
    # the goal by its string value, which search_examples also takes
    witness = search_examples("nonzero-multi-component",
                              max_components=3, max_crossings=6)
    assert render_flat_link(witness) == "c1- c2- c3+ c4+ ; c1+ c3- ; c2+ c4-"
    assert len(witness.components) >= 3
    assert every_component_shares_a_crossing(witness)
    invariant = link_polynomial(witness)
    assert any(coeff != 0 for _, coeff in invariant.pair_coeffs)
    _stamp(8, started, 2, render_flat_link(witness))


def test_criterion_09_golden_values():
    started = time.perf_counter()
    knot = parse_flat_link("a+ b+ a- c- b- c+")
    assert component_poly(link_polynomial(knot), "A") == {1: 2, 2: -2}
    assert self_poly_oracle(knot, 0) == {1: 2, 2: -2}

    link = parse_flat_link("x+ a+ y- a- ; y+ x-")
    invariant = link_polynomial(link)
    assert component_poly(invariant, "A") == {1: -1}
    assert component_poly(invariant, "B") == {}
    assert invariant.pair_coeff("A", "B") == 1
    assert invariant.linking_diff("A", "B") == 0
    assert self_poly_oracle(link, 0) == {1: -1}
    assert self_poly_oracle(link, 1) == {}
    assert linking_diff_oracle(link, 0, 1) == 0
    plus, minus = pair_ends_oracle(link, 0, 1)
    sums = {matching_sum_oracle(link, 0, 1, matching)
            for matching in all_matchings(plus, minus)}
    assert sums == {1}
    _stamp(9, started, 1, "both golden codes re-derived from raw letters")


def test_criterion_10_same_component_crossing_pair_identity():
    started = time.perf_counter()
    rng = random.Random(1010)
    pairs_checked = 0
    for _ in range(1000):
        code = random_code(rng, max_crossings=6, max_components=3,
                           balanced=True)
        catalog = validate(code)
        for ci in range(len(code.components)):
            assert total_sign(code, ci) == 0
            selfs = [x for x, (pc, _, mc, _) in catalog.ends.items()
                     if pc == mc == ci]
            for x, y in combinations(selfs, 2):
                _, xp, _, xm = catalog.ends[x]
                _, yp, _, ym = catalog.ends[y]
                lhs = (intersection_number(code, ci, xp, ym)
                       + intersection_number(code, ci, yp, xm))
                rhs = (intersection_number(code, ci, xp, xm)
                       + intersection_number(code, ci, yp, ym))
                assert lhs == rhs
                pairs_checked += 1
    _stamp(10, started, 2, f"1000 codes, {pairs_checked} crossing pairs")


def test_criterion_11_link_filamentation_iff_brute_force():
    started = time.perf_counter()
    rng = random.Random(1111)
    found = 0
    for _ in range(3000):
        code = random_code(rng, max_crossings=10, min_components=2,
                           max_components=3, balanced=True)
        constructed = link_filamentation(code)
        brute = brute_force_filamentation(code)
        assert (constructed is None) == (brute is None)
        if constructed is not None:
            assert verify_filamentation(code, constructed) == []
            found += 1
    assert found > 0
    _stamp(11, started, 3,
           f"3000 linked codes, {found} filamentations, both directions")


def test_criterion_12_move_sites_on_a_thousand_crossings():
    spec = GenSpec.build(3, [166, 167, 167],
                         {(0, 1): 166, (0, 2): 168, (1, 2): 166},
                         seed=1212, balanced=True)
    code = random_flat_link(spec)
    letters = list(code.components[0].letters)
    gaps = sorted(random.Random(1212).sample(range(len(letters) + 1), 3))
    starts = [gap + 2 * i for i, gap in enumerate(gaps)]
    for p, (x, y) in zip(starts, (("t1", "t2"), ("t2", "t3"), ("t3", "t1"))):
        letters[p:p] = [(x, 1), (y, -1)]
    code = FlatLinkCode((Codeword("A", tuple(letters)),) + code.components[1:])
    validate(code)
    planted = MoveSite("r3", tuple(("A", p) for p in starts), ("t1", "t2", "t3"))
    started = time.perf_counter()
    sites = find_move_sites(code, ("r1_remove", "r2_remove", "r3"))
    assert planted in sites
    _stamp(12, started, 2,
           f"1000 crossings, {len(sites)} sites, planted {planted.describe()}")


# (crossings, components) -> (classes with a filamentation, classes with a
# zero polynomial but no filamentation); the class counts are CLASS_COUNTS
CENSUS = {
    (0, 1): (1, 0), (0, 2): (1, 0), (0, 3): (1, 0),
    (1, 1): (1, 0), (1, 2): (2, 0), (1, 3): (3, 0),
    (2, 1): (4, 0), (2, 2): (10, 0), (2, 3): (18, 0),
    (3, 1): (20, 0), (3, 2): (56, 0), (3, 3): (112, 0),
    (4, 1): (174, 0), (4, 2): (492, 2), (4, 3): (1014, 6),
    (5, 1): (2016, 0), (5, 2): (5632, 44),
    (6, 1): (30868, 0),
}


def _census(shapes) -> dict:
    """Per shape, the class count and the counts of CENSUS, asserting on
    every class that the greedy filamentation agrees with the oracle and verifies, that a
    filamentation forces a zero polynomial, and that a zero polynomial
    without one occurs only on links."""
    census = {}
    for crossings, components in shapes:
        filamentable = zero_without = 0
        codes = enumerate_small_codes(crossings, components)
        for code in codes:
            constructed = link_filamentation(code)
            assert (constructed is None) == (brute_force_filamentation(code) is None)
            zero = link_polynomial(code).is_zero
            if constructed is not None:
                assert verify_filamentation(code, constructed) == []
                assert zero
                filamentable += 1
            elif zero:
                assert components > 1
                zero_without += 1
        census[crossings, components] = (len(codes), filamentable, zero_without)
    return census


def _census_detail(census) -> str:
    return (f"{sum(n for n, _, _ in census.values())} classes, "
            f"{sum(f for _, f, _ in census.values())} filamentations, "
            f"{sum(z for _, _, z in census.values())} zero without one")


def test_criterion_14_census_of_the_paper_claims():
    # every class up to 5 crossings and 3 components, (5, 3) aside (check
    # 15), and every one-component class at 6: a filamentation forces a
    # zero polynomial, the converse fails first at (4, 2), and on one
    # component a zero polynomial means a filamentation exists
    started = time.perf_counter()
    census = _census(CENSUS)
    assert census == {shape: (CLASS_COUNTS[shape], *counts)
                      for shape, counts in CENSUS.items()}
    _stamp(14, started, 30, _census_detail(census))


def test_criterion_15_census_at_five_crossings_on_three_components():
    # the same claims on the largest three-component shape, its own check
    # so that each stays inside its own bound
    started = time.perf_counter()
    census = _census([(5, 3)])
    assert census == {(5, 3): (CLASS_COUNTS[5, 3], 11598, 138)}
    _stamp(15, started, 30, _census_detail(census))
