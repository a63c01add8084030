"""Layer search, the layered square search, bimagic construction, oracles."""

import functools
import hashlib
import itertools
import math
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares import (Alphabet, BudgetExhausted, CodeWord, SearchSpec,
                          ShapeMismatch, Square, Unsatisfiable, check_bimagic,
                          check_blocks, check_magic, compose_blocks, decompose,
                          entry_properties, gen_square, palindromic_extend,
                          recompose)
from digitsquares import construct, generate, verify
from digitsquares.generate import _layer_stream, bimagic_search
from oracle import (OracleTooLarge, affine_planes, brute_force_squares,
                    count_layers, gf3_full_rank, smallest_line_sum)

A012 = Alphabet((0, 1, 2))


def line_totals(rows):
    """Plain-integer recomputation of all 2n+2 line sums, no package code."""
    n = len(rows)
    vals = [[int(c) for c in row] for row in rows]
    out = [sum(r) for r in vals]
    out += [sum(vals[i][j] for i in range(n)) for j in range(n)]
    out.append(sum(vals[i][i] for i in range(n)))
    out.append(sum(vals[i][n - 1 - i] for i in range(n)))
    return out


def test_gen_layers_matches_brute_force():
    found = set(_layer_stream(3, A012, 3))
    oracle = {tuple(tuple(int(c) for c in row) for row in sq.to_strings())
              for sq in brute_force_squares(3, A012, 3)}
    assert found == oracle
    assert len(found) == 5


def test_gen_layers_is_lexicographic():
    grids = list(_layer_stream(3, A012, 3))
    assert grids == sorted(grids)
    # a shuffled branching order yields the same set of planes
    assert sorted(_layer_stream(3, A012, 3, rng=random.Random(5))) == grids


def test_gen_layers_contains_known_layers():
    grids = set(_layer_stream(3, A012, 3))
    assert ((1, 1, 1), (1, 1, 1), (1, 1, 1)) in grids
    assert ((0, 2, 1), (2, 1, 0), (1, 0, 2)) in grids


def test_gen_layers_empty_when_impossible():
    assert list(_layer_stream(3, A012, 7)) == []
    assert list(_layer_stream(3, A012, -1)) == []


def test_gen_layers_pandiagonal():
    g = next(_layer_stream(5, A012, 5, pandiagonal=True))
    for k in range(5):
        assert sum(g[i][(i + k) % 5] for i in range(5)) == 5
        assert sum(g[i][(k - i) % 5] for i in range(5)) == 5


@pytest.mark.parametrize("order, digits, line_sum, pandiagonal, seed, count, "
                         "digest, next_draw", [
    (4, (0, 1, 2), 4, False, None, 219,
     "e0cabb9a643becc0e8194419bd607673659f28814a2a3cb6f5f4b9363e857f6f", None),
    (5, (0, 1, 2), 5, True, 1, 351,
     "ca45313b3d093ccb86278ebaa558e87625f8b6c53f6d5d5c042507e570eb3a56",
     0.9149110791206112),
    (4, (0, 2, 5), 9, False, 3, 24,
     "9b7448a677586b199581397a1f9f2ad38e45359926812b6a680ef0f76e2eb143",
     0.23677322567489312),
], ids=["order 4 ascending", "order 5 pandiagonal seed 1",
        "gapped alphabet seed 3"])
def test_layer_stream_order_and_draws_are_pinned(order, digits, line_sum,
                                                 pandiagonal, seed, count,
                                                 digest, next_draw):
    # counts, digests and next draws measured on the parent commit: the
    # grids, their order and the generator's draws must not move
    rng = None if seed is None else random.Random(seed)
    grids = list(_layer_stream(order, Alphabet(digits), line_sum,
                               pandiagonal=pandiagonal, rng=rng))
    assert len(grids) == count
    assert hashlib.sha256(repr(grids).encode()).hexdigest() == digest
    if rng is not None:
        assert rng.random() == next_draw


def test_stack_layers(lo_shu):
    planes = decompose(lo_shu)
    assert recompose(list(planes)).cells == lo_shu.cells
    assert recompose(planes, lo_shu.alphabet) == lo_shu
    with pytest.raises(ShapeMismatch):
        recompose([])
    with pytest.raises(ShapeMismatch):
        recompose([planes[0], ((1,),)])
    # a plane from another alphabet is caught when one is given
    with pytest.raises(ValueError):
        recompose([planes[0], ((3, 3, 3),) * 3], lo_shu.alphabet)


GRIDS = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n)
             .map(tuple), min_size=n, max_size=n).map(tuple),
    min_size=1, max_size=3))


@settings(deadline=None)
@given(GRIDS)
def test_mirrored_planes_equal_palindromic_extend(grids):
    # the stream builds palindromic squares from mirrored planes; the public
    # palindromic_extend is the reference
    assert (recompose(grids + grids[::-1])
            == palindromic_extend(recompose(grids)))


def test_gen_square_basic():
    spec = SearchSpec(order=3, width=2, line_sums=(3, 3), distinct=True,
                      deterministic=True)
    sq = next(iter(gen_square(spec)))
    assert set(line_totals(sq.to_strings())) == {33}
    assert len(set(sq.entries())) == 9
    assert sq.alphabet == A012


def test_gen_square_respects_limit():
    spec = SearchSpec(order=3, width=2, line_sums=(3, 3), limit=5,
                      deterministic=True)
    assert len(list(gen_square(spec))) == 5


def test_gen_square_palindromic():
    spec = SearchSpec(order=3, width=4, line_sums=(3, 3, 3, 3),
                      palindromic=True, distinct=True, deterministic=True)
    sq = next(iter(gen_square(spec)))
    assert check_magic(sq) == 3333
    props = entry_properties(sq)
    assert props.palindromic and props.distinct


def test_gen_square_deterministic_is_reproducible():
    spec = SearchSpec(order=3, width=2, line_sums=(3, 3), limit=4,
                      deterministic=True)
    first = [sq.to_strings() for sq in gen_square(spec)]
    second = [sq.to_strings() for sq in gen_square(spec)]
    assert first == second


def test_gen_square_seeded_is_reproducible_and_seed_sensitive():
    def run(seed):
        spec = SearchSpec(order=4, width=4, line_sums=(4,) * 4, distinct=True,
                          limit=2, seed=seed)
        return [sq.to_strings() for sq in gen_square(spec)]

    assert run(1) == run(1)
    assert run(1) != run(2)
    for rows in run(3):
        assert set(line_totals(rows)) == {4444}


def test_gen_square_unsatisfiable_line_sum():
    with pytest.raises(Unsatisfiable):
        list(gen_square(SearchSpec(order=3, width=1, line_sums=(7,))))


def test_gen_square_unsatisfiable_asymmetric_palindrome():
    spec = SearchSpec(order=3, width=2, line_sums=(3, 6), palindromic=True)
    with pytest.raises(Unsatisfiable):
        list(gen_square(spec))


def test_gen_square_unsatisfiable_pigeonhole():
    # only three distinct one-digit cells exist over {0,1,2}
    spec = SearchSpec(order=3, width=1, line_sums=(3,), distinct=True)
    with pytest.raises(Unsatisfiable):
        list(gen_square(spec))


def test_distinct_pool_counts_the_digits_each_place_can_hold():
    # a cell shares its row with four digits in [0, 2], so a sum-1 place
    # holds 0 or 1: 3 * 2 * 2 = 12 cells for 25
    spec = SearchSpec(order=5, width=3, line_sums=(5, 1, 1), distinct=True,
                      deterministic=True)
    with pytest.raises(Unsatisfiable, match="^only 12 distinct cells are "
                                            "available but 25 are needed$"):
        gen_square(spec)
    # a palindromic cell is fixed by its first half: 3 * 1 = 3 cells for 9
    spec = SearchSpec(order=3, width=4, line_sums=(3, 0, 0, 3), distinct=True,
                      palindromic=True)
    with pytest.raises(Unsatisfiable, match="^only 3 distinct cells"):
        gen_square(spec)
    # 3 * 2 * 2 * 2 = 24 cells for 16 passes the rule: the search decides
    spec = SearchSpec(order=4, width=4, line_sums=(4, 1, 1, 1), distinct=True,
                      deterministic=True)
    with pytest.raises(Unsatisfiable, match="search space exhausted"):
        list(gen_square(spec))


@pytest.mark.parametrize("alphabet", ["012", "025", "013"])
def test_the_distinct_pool_rule_rejects_only_what_the_search_exhausts(
        alphabet):
    """Every request the pool rule rejects and the old rule, len(alphabet)
    ** width cells, let through is searched to exhaustion without a square.

    Each multiset of place sums is searched once, in nondecreasing order:
    the order of the places moves the search, not whether a square with
    distinct cells exists (reordering the planes of a square reorders the
    digits of every cell, which keeps them distinct).
    """
    alpha = Alphabet.from_string(alphabet)
    lo, hi = alpha.min_digit, alpha.max_digit
    searched = 0
    for n in (3, 4):
        for width in (1, 2, 3):
            for sums in itertools.combinations_with_replacement(
                    range(n * lo, n * hi + 1), width):
                spec = SearchSpec(order=n, width=width, alphabet=alpha,
                                  line_sums=sums, distinct=True,
                                  deterministic=True)
                try:
                    gen_square(spec)
                except Unsatisfiable as exc:
                    if ("distinct cells" not in str(exc)
                            or len(alpha) ** width < n * n):
                        continue
                else:
                    continue
                searched += 1
                with pytest.raises(Unsatisfiable, match="search space "
                                                        "exhausted"):
                    next(generate._square_stream(spec, generate._layer_planes))
    assert searched > 40


def test_gen_square_exhausts_cleanly():
    # every rule admits these sums, but only the first place has layers
    # (16 of them); no magic layer of order 4 over {0, 2, 5} sums to 13
    spec = SearchSpec(order=4, width=2, alphabet=Alphabet((0, 2, 5)),
                      line_sums=(4, 13))
    with pytest.raises(Unsatisfiable, match="search space exhausted"):
        list(gen_square(spec))


@pytest.mark.parametrize("order, digits, pandiagonal, counts", [
    (4, (0, 1, 2), False, dict(enumerate([1, 8, 48, 144, 219, 144, 48, 8, 1]))),
    (4, (0, 1, 2), True, dict(enumerate([1, 0, 8, 0, 33, 0, 8, 0, 1]))),
    # sum 13 has none: the exhaustion case of the test above
    (4, (0, 2, 5), False, dict(enumerate([1, 0, 8, 0, 16, 8, 8, 24, 1, 24, 16,
                                          8, 24, 0, 16, 8, 0, 8, 0, 0, 1]))),
    # order-5 pandiagonal (351 layers at sum 5) agrees too, but is left
    # out: there the count takes several times as long as the search
    (5, (0, 1, 2), False, {5: 40167}),
], ids=["4-012", "4-012-pandiagonal", "4-025", "5-012-sum-5"])
def test_the_layer_search_finds_as_many_layers_as_a_row_by_row_count(
        order, digits, pandiagonal, counts):
    # the count walks whole rows with the line sums as its state and
    # shares no code and no order with the cell-by-cell search
    alphabet = Alphabet(digits)
    for s, count in counts.items():
        found = sum(1 for _ in _layer_stream(order, alphabet, s, pandiagonal))
        assert found == count_layers(order, alphabet, s, pandiagonal) == count


@st.composite
def layer_requests(draw):
    # order 3-4, or 5 over at most 3 digits; each sum lies from one below
    # the least a layer can have to one above the most, and half of them
    # are the sum of a row of alphabet digits, which more often has layers
    order = draw(st.integers(3, 5))
    size = draw(st.integers(1, 3 if order == 5 else 4))
    alphabet = Alphabet(tuple(draw(st.permutations(range(10)))[:size]))
    width = draw(st.integers(1, 3))
    lo, hi = order * alphabet.min_digit, order * alphabet.max_digit
    row = st.lists(st.sampled_from(alphabet.digits), min_size=order,
                   max_size=order).map(sum)
    sums = tuple(draw(st.lists(st.integers(lo - 1, hi + 1) | row,
                               min_size=width, max_size=width)))
    return SearchSpec(order=order, width=width, alphabet=alphabet,
                      line_sums=sums, pandiagonal=draw(st.booleans()),
                      palindromic=width == 2 and draw(st.booleans()),
                      deterministic=True)


_layer_count = functools.cache(count_layers)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(layer_requests())
def test_a_request_has_a_square_exactly_when_every_place_has_a_layer(spec):
    # admission and the search together against the row-by-row count: a
    # square exists when every searched place has a layer and palindromic
    # sums mirror; a refusal before the search names its reason
    counts = [_layer_count(spec.order, spec.alphabet, s, spec.pandiagonal)
              for s in spec.line_sums[:spec.places]]
    symmetric = not spec.palindromic or (
        spec.line_sums == spec.line_sums[::-1])
    try:
        square = next(gen_square(spec))
    except Unsatisfiable as exc:
        assert not (all(counts) and symmetric)
        message = str(exc)
        refused = re.match(r"line sum (-?\d+) at place (\d+) ", message)
        if refused:
            s, p = map(int, refused.groups())
            assert s == spec.line_sums[p] and _layer_count(
                spec.order, spec.alphabet, s, spec.pandiagonal) == 0
        elif message.startswith("palindromic"):
            assert not symmetric
        else:
            assert message == "search space exhausted without finding a square"
    else:
        assert all(counts) and symmetric
        assert square.alphabet == spec.alphabet


def _factors(x, p):
    # how many times p divides the nonzero integer x
    count = 0
    while x % p == 0:
        x //= p
        count += 1
    return count


@pytest.mark.parametrize("n, p", [(n, p) for n in range(3, 32)
                                  for p in (2, 3) if n % p == 0])
def test_the_weights_behind_the_pandiagonal_divisibility_rule(n, p):
    """gen_square's proof that p divides a pandiagonal layer's line sum, at
    every order a layer search takes: rows weighted -2i^2, columns -2j^2,
    broken diagonals k^2 give every cell a weight divisible by M, and the
    total weight W has one factor of p fewer than M."""
    a = _factors(n, p)
    modulus = 2 ** (a + 1) if p == 2 else 3 ** a
    for i in range(n):
        for j in range(n):
            weight = (-2 * i * i - 2 * j * j
                      + ((j - i) % n) ** 2 + ((i + j) % n) ** 2)
            assert weight % modulus == 0, (i, j)
    rows = columns = [-2 * i * i for i in range(n)]
    diagonals = [k * k for k in range(n)]
    total = sum(rows) + sum(columns) + 2 * sum(diagonals)
    assert 3 * total == -n * (n - 1) * (2 * n - 1)
    assert _factors(total, p) == _factors(modulus, p) - 1


@pytest.mark.parametrize("pandiagonal", [False, True])
def test_the_divisibility_rule_is_all_that_the_line_equations_force(
        pandiagonal):
    # the oracle's smallest integer line sum g, at orders 3-18 (every power
    # of 2 and 3 up to 16 and 9, and gcd(n, 6) = 6 three times): over the
    # digits 0-9, gen_square admits a sum in [1, 3g] exactly when g divides it
    digits = Alphabet(tuple(range(10)))
    for n in range(3, 19):
        g = smallest_line_sum(n, pandiagonal)
        assert g == (math.gcd(n, 6) if pandiagonal else 3 if n == 3 else 1)
        for s in range(1, 3 * g + 1):
            spec = SearchSpec(order=n, width=1, alphabet=digits,
                              line_sums=(s,), pandiagonal=pandiagonal)
            try:
                gen_square(spec)
            except Unsatisfiable:
                assert s % g, (n, s)
            else:
                assert s % g == 0, (n, s)


@pytest.mark.parametrize("pandiagonal", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_layer_search_finds_a_layer_for_exactly_the_admitted_sums(
        n, pandiagonal):
    # every sum in [0, 2n] is in range over {0, 1, 2}; the divisibility rule
    # refuses the rest, and the search must find no layer for those
    admitted = []
    for s in range(2 * n + 1):
        spec = SearchSpec(order=n, width=1, alphabet=A012, line_sums=(s,),
                          pandiagonal=pandiagonal, deterministic=True)
        try:
            gen_square(spec)
        except Unsatisfiable as exc:
            assert "is not a multiple of" in str(exc)
        else:
            admitted.append(s)
        found = next(_layer_stream(n, A012, s, pandiagonal=pandiagonal), None)
        assert (found is not None) == (s in admitted), s
    m = 3 if n == 3 else 2 if pandiagonal and n == 4 else 1
    assert admitted == list(range(0, 2 * n + 1, m))


@pytest.mark.parametrize("spec, message", [
    (SearchSpec(order=6, width=1, line_sums=(4,), pandiagonal=True),
     "line sum 4 at place 0 is not a multiple of 6, as every pandiagonal "
     "layer of order 6 needs"),
    (SearchSpec(order=4, width=1, alphabet=Alphabet(tuple(range(10))),
                line_sums=(13,), pandiagonal=True),
     "line sum 13 at place 0 is not a multiple of 2, as every pandiagonal "
     "layer of order 4 needs"),
    (SearchSpec(order=3, width=2, line_sums=(3, 5)),
     "line sum 5 at place 1 is not a multiple of 3, as every magic layer of "
     "order 3 needs"),
    # an earlier rule names its own fault first
    (SearchSpec(order=3, width=2, line_sums=(3, 5), palindromic=True),
     "palindromic cells force mirror-symmetric line sums, got (3, 5)"),
    (SearchSpec(order=3, width=1, line_sums=(1,), distinct=True),
     "only 2 distinct cells are available but 9 are needed"),
])
def test_gen_square_refuses_an_indivisible_sum_before_any_search(
        monkeypatch, spec, message):
    def no_search(*args, **kwargs):
        raise AssertionError("a layer search started")

    monkeypatch.setattr(generate, "_layer_stream", no_search)
    with pytest.raises(Unsatisfiable, match=f"^{re.escape(message)}$"):
        list(gen_square(spec))


def test_gen_square_budget_zero():
    spec = SearchSpec(order=4, width=4, line_sums=(4,) * 4, budget_ms=0)
    with pytest.raises(BudgetExhausted):
        list(gen_square(spec))


def test_a_budget_at_the_size_bounds_covers_setup():
    # the largest request the bounds take builds little before the first
    # deadline test, so a 1 ms budget ends it at once (about 1.3 ms on a
    # 2-core Xeon VM); the bound here is generous
    spec = SearchSpec(order=31, width=961, line_sums=(31,), budget_ms=1)
    start = time.monotonic()
    with pytest.raises(BudgetExhausted, match="^no square found within 1 ms$"):
        list(gen_square(spec))
    assert time.monotonic() - start < 0.5


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(order=2, width=1, line_sums=(1,))
    # an order past Python's int-to-string limit is shown by its start
    with pytest.raises(ValueError, match=re.escape(
            f"order must be at least 3, got -1{'0' * 38}... "
            "(5002 characters)")):
        SearchSpec(order=-10 ** 5000, width=1, line_sums=(3,))
    with pytest.raises(ValueError, match="^need 1 or 2 line sums, got 3$"):
        SearchSpec(order=3, width=2, line_sums=(3, 3, 3))
    # one sum stands for every place
    assert SearchSpec(order=3, width=2, line_sums=(3,)).line_sums == (3, 3)
    with pytest.raises(ValueError, match="^line_sums is required$"):
        SearchSpec(order=3, width=1)
    with pytest.raises(ValueError):
        SearchSpec(order=3, width=1, line_sums=(3,), limit=0)
    # random.Random seeds with abs(seed): seed -1 would repeat seed 1
    with pytest.raises(ValueError, match="seed must not be negative"):
        SearchSpec(order=3, width=1, line_sums=(3,), seed=-1)
    with pytest.raises(ValueError, match="seed must not be negative"):
        SearchSpec(order=9, width=4, bimagic=True, seed=-2)
    with pytest.raises(ValueError):
        SearchSpec(order=3, width=3, line_sums=(3,) * 3, palindromic=True)
    with pytest.raises(ValueError):
        SearchSpec(order=8, width=4, bimagic=True)
    with pytest.raises(ValueError):
        SearchSpec(order=9, width=4, bimagic=True, palindromic=True)
    with pytest.raises(ValueError):
        SearchSpec(order=9, width=4, bimagic=True, line_sums=(9, 9, 9, 8))
    # a bimagic spec is over (0, 1, 2), whatever order its digits came in
    spec = SearchSpec(order=9, width=4, bimagic=True,
                      alphabet=Alphabet((2, 1, 0)))
    assert (spec.alphabet, spec.line_sums) == (A012, (9, 9, 9, 9))


@pytest.mark.parametrize("exponent", [308, 400, 5000],
                         ids=["10**308", "10**400", "10**5000"])
def test_search_spec_refuses_a_budget_no_deadline_can_hold(exponent):
    # budget_ms / 1000.0 raised OverflowError from the first search step;
    # past 4300 digits, showing the budget raised Python's int-to-string
    # limit instead of the refusal
    shown = f"1{'0' * 39}... ({exponent + 1} characters)"
    with pytest.raises(ValueError, match=re.escape(
            f"budget must be below 10**308 ms, got {shown}")):
        SearchSpec(order=3, width=1, line_sums=(3,), budget_ms=10 ** exponent)


def test_a_budget_of_308_digits_still_runs():
    spec = SearchSpec(order=3, width=1, line_sums=(3,),
                      budget_ms=10 ** 308 - 1)
    assert check_magic(next(gen_square(spec))) == 3


@pytest.mark.parametrize("order, width, palindromic", [
    # the largest requests the recursion-limit rule let through
    (31, 9, False), (20, 570, False), (3, 961, False), (3, 1922, True),
    # and larger ones within the bounds
    (31, 10, False), (31, 961, False), (31, 1922, True),
])
def test_search_spec_takes_requests_within_the_bounds(order, width,
                                                      palindromic):
    spec = SearchSpec(order=order, width=width, line_sums=(order,),
                      palindromic=palindromic)
    assert spec.line_sums == (order,) * width


@pytest.mark.parametrize("order, width, palindromic", [
    (32, 1, False), (3, 962, False), (3, 1924, True),
])
def test_search_spec_refuses_requests_past_the_bounds(order, width,
                                                      palindromic):
    with pytest.raises(ValueError, match=f"^order {order} with width {width} "
                                         f"is too large a search: "):
        SearchSpec(order=order, width=width, line_sums=(order,),
                   palindromic=palindromic)


def test_search_spec_bounds_read_no_interpreter_state(monkeypatch):
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: 50)
    SearchSpec(order=31, width=961, line_sums=(31,))
    # bimagic squares come from a construction, not the layer search
    SearchSpec(order=9, width=4, bimagic=True)


def _deeper(frames, call):
    return call() if frames == 0 else _deeper(frames - 1, call)


def test_the_layer_product_nests_no_frame_per_place():
    spec = SearchSpec(order=3, width=961, line_sums=(3,) * 961)
    square = _deeper(40, lambda: next(iter(gen_square(spec))))
    assert (square.order, square.width) == (3, 961)
    assert set(line_totals([[c.value for c in row] for row in square.cells])
               ) == {spec.s1}


def test_bimagic_search_first_square():
    spec = SearchSpec(order=9, width=4, bimagic=True, deterministic=True)
    sq = next(iter(bimagic_search(spec)))
    assert check_bimagic(sq) == (9999, 17169495)
    assert check_blocks(sq, 3) == 9999
    words = {str(c) for c in sq.entries()}
    assert len(words) == 81
    # every four-digit word over {0,1,2} appears exactly once
    assert "1102" in words and "2011" in words and "0000" in words
    assert entry_properties(sq).rotation_closed


def test_the_bimagic_s2_constant_is_the_multiset_oracle_s2():
    # every family square holds each four-digit word over {0, 1, 2} once
    words = [CodeWord(w) for w in itertools.product((0, 1, 2), repeat=4)]
    assert generate._BIMAGIC_S2 == verify.s2_from_multiset(words, 9)


def test_bimagic_search_via_gen_square():
    spec = SearchSpec(order=9, width=4, bimagic=True, deterministic=True)
    sq = next(iter(gen_square(spec)))
    assert check_bimagic(sq) == (9999, 17169495)


def test_bimagic_search_seeds_differ():
    def first(seed):
        spec = SearchSpec(order=9, width=4, bimagic=True, seed=seed)
        return next(iter(bimagic_search(spec)))

    one, two = first(1), first(2)
    assert one.cells != two.cells
    assert check_bimagic(one) == check_bimagic(two) == (9999, 17169495)


def test_bimagic_search_limit_and_distinct_stream():
    spec = SearchSpec(order=9, width=4, bimagic=True, limit=4,
                      deterministic=True)
    squares = list(bimagic_search(spec))
    assert len(squares) == 4
    assert len({sq.cells for sq in squares}) == 4


def test_the_deterministic_bimagic_walk_ends_after_its_family():
    # one square per coefficient matrix of the family, with zero offsets;
    # a limit past the family ends the walk instead of raising Unsatisfiable
    spec = SearchSpec(order=9, width=4, bimagic=True, limit=3000,
                      deterministic=True)
    squares = list(gen_square(spec))
    assert len(squares) == len({sq.cells for sq in squares}) == 2304


def test_bimagic_extension_to_width_8():
    spec = SearchSpec(order=9, width=4, bimagic=True, deterministic=True)
    ext = palindromic_extend(next(iter(bimagic_search(spec))))
    assert check_bimagic(ext) == (99999999, 1717172174949495)
    props = entry_properties(ext)
    assert props.palindromic and props.distinct
    assert check_blocks(ext, 3) == 99999999


def test_bimagic_recode_to_width_6():
    # cells become two three-digit palindromes glued together
    spec = SearchSpec(order=9, width=4, bimagic=True, deterministic=True)
    sq = next(iter(bimagic_search(spec)))
    p = decompose(sq)
    six = recompose((p[0], p[1], p[0], p[2], p[3], p[2]))
    assert check_bimagic(six) == (999999, 172916950695)
    assert check_blocks(six, 3) == 999999
    assert entry_properties(six).distinct


def test_bimagic_family_is_pinned():
    # the ordered matrices of the deterministic stream; the digest was taken
    # from the determinant-based enumeration that the line masks replaced
    matrices = list(construct._family_matrices())
    assert len(matrices) == 2304
    assert hashlib.sha256(repr(matrices).encode()).hexdigest() == (
        "b02cd08c2325ca247263c8c88cf3b3ee9be8f92d39dcce27fd7482049d2f5210")


def test_full_rank_determinant_agrees_with_elimination(monkeypatch):
    # the 9216 matrices the family walk decides on, 6912 of them singular,
    # then a seeded sample of all 4x4 matrices over GF(3), of which
    # 1 - (2/3)(8/9)(26/27)(80/81), about 44 %, are singular
    decided = []
    full_rank = construct._full_rank
    monkeypatch.setattr(construct, "_full_rank",
                        lambda m: decided.append(m) or full_rank(m))
    assert len(list(construct._family_matrices())) == 2304
    assert len(decided) == 9216
    rng = random.Random(25)
    sample = [tuple(tuple(rng.randrange(3) for _ in range(4))
                    for _ in range(4)) for _ in range(3000)]
    for matrix in decided + sample:
        assert full_rank(matrix) == gf3_full_rank(matrix), matrix
    assert 1200 < sum(not full_rank(m) for m in sample) < 1450


def test_the_planes_built_by_rows_are_the_planes_built_by_cells():
    # every family matrix at zero offsets and at one seeded offset, then a
    # seeded sample of 30 matrices at all 81 offsets: 7038 cases
    matrices = list(construct._family_matrices())
    rng = random.Random(37)
    some = tuple(rng.randrange(3) for _ in range(4))
    cases = [(m, offsets) for m in matrices for offsets in ((0,) * 4, some)]
    cases += itertools.product(rng.sample(matrices, 30),
                               itertools.product(range(3), repeat=4))
    for matrix, offsets in cases:
        planes = construct._affine_planes(matrix, offsets)
        assert planes == affine_planes(matrix, offsets), (matrix, offsets)
        # the word table and Grid see rows of plain ints either way
        rows = [row for plane in planes for row in plane]
        assert {type(row) for row in rows} == {tuple}
        assert set(map(type, itertools.chain.from_iterable(rows))) == {int}


def test_bimagic_family_squares_verify_with_any_offsets():
    rng = random.Random(11)
    for matrix in rng.sample(list(construct._family_matrices()), 30):
        offsets = tuple(rng.randrange(3) for _ in range(4))
        sq = recompose(construct._affine_planes(matrix, offsets), A012)
        assert check_bimagic(sq) == (9999, 17169495)
        assert check_blocks(sq, 3) == 9999
        assert len(set(sq.entries())) == 81


def test_bimagic_seeded_stream_has_no_repeats():
    spec = SearchSpec(order=9, width=4, bimagic=True, limit=40, seed=7)
    squares = list(gen_square(spec))
    assert len(squares) == 40
    assert len({sq.cells for sq in squares}) == 40


@pytest.mark.parametrize("deterministic", [False, True])
def test_bimagic_budget_zero(deterministic):
    spec = SearchSpec(order=9, width=4, bimagic=True, budget_ms=0,
                      deterministic=deterministic)
    with pytest.raises(BudgetExhausted, match="no bimagic square"):
        list(gen_square(spec))


def test_bimagic_seeded_stream_ends_with_the_family(monkeypatch):
    monkeypatch.setattr(construct, "_BIMAGIC_FAMILY_SIZE", 5)
    spec = SearchSpec(order=9, width=4, bimagic=True, limit=10, seed=1)
    squares = list(gen_square(spec))
    assert len(squares) == 5
    assert len({sq.cells for sq in squares}) == 5


def test_bimagic_reverify_rejects_a_broken_square():
    spec = SearchSpec(order=9, width=4, bimagic=True, deterministic=True)
    planes = list(construct._affine_planes(next(construct._family_matrices()),
                                          (0, 0, 0, 0)))
    # swapping two cells of one row keeps every row sum but breaks columns
    row = list(planes[3][0])
    row[0], row[1] = row[1], row[0]
    planes[3] = (tuple(row),) + planes[3][1:]
    with pytest.raises(AssertionError, match="not bimagic"):
        generate._reverify(recompose(planes, A012), spec)


def test_compose_blocks(lo_shu):
    ones = Square.from_strings([["1", "1"], ["1", "1"]])
    big = compose_blocks([[ones, ones], [ones, ones]])
    assert big.order == 4
    assert check_blocks(big, 2) == 4
    with pytest.raises(ShapeMismatch):
        compose_blocks([[ones, lo_shu], [ones, ones]])
    one, two = Square.from_strings([["1"]]), Square.from_strings([["22"]])
    with pytest.raises(ShapeMismatch, match=r"^block \(0, 1\) has width 2, "
                                            r"expected 1$"):
        compose_blocks([[one, two], [one, one]])
    with pytest.raises(ShapeMismatch):
        compose_blocks([[ones, ones]])
    with pytest.raises(ShapeMismatch):
        compose_blocks([])


def test_compose_blocks_magic_tiling():
    spec = SearchSpec(order=3, width=2, line_sums=(3, 3), limit=4,
                      deterministic=True)
    blocks = list(gen_square(spec))
    big = compose_blocks([[blocks[0], blocks[1]], [blocks[2], blocks[3]]])
    assert big.order == 6
    assert check_magic(big) == 66
    assert check_blocks(big, 3) == 99


def test_brute_force_oracle_edges():
    assert len(brute_force_squares(3, A012, 0)) == 1
    with pytest.raises(OracleTooLarge):
        brute_force_squares(3, Alphabet(tuple(range(10))), 15)


def test_brute_force_is_sorted():
    squares = brute_force_squares(3, A012, 6)
    listed = [sq.to_strings() for sq in squares]
    assert listed == sorted(listed)


def test_rotation_preserves_line_sums_of_generated_squares():
    from digitsquares import rotate_square
    spec = SearchSpec(order=3, width=4, line_sums=(3,) * 4, limit=10, seed=5)
    for sq in gen_square(spec):
        assert check_magic(rotate_square(sq)) == 3333
