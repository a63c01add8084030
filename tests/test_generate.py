"""Layer search, the layered square search, bimagic construction, oracles."""

import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares import (Alphabet, BudgetExhausted, SearchSpec, ShapeMismatch,
                          Square, Unsatisfiable, check_bimagic, check_blocks,
                          check_magic, compose_blocks, decompose,
                          entry_properties, gen_square, palindromic_extend,
                          recompose)
from digitsquares import generate
from digitsquares.generate import _layer_stream, bimagic_search
from oracle import OracleTooLarge, brute_force_squares

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


def test_gen_square_exhausts_cleanly():
    # satisfiable-looking sums with an empty layer stream at the second place
    spec = SearchSpec(order=3, width=2, line_sums=(3, 5))
    with pytest.raises(Unsatisfiable):
        list(gen_square(spec))


def test_gen_square_budget_zero():
    spec = SearchSpec(order=4, width=4, line_sums=(4,) * 4, budget_ms=0)
    with pytest.raises(BudgetExhausted):
        list(gen_square(spec))


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(order=2, width=1, line_sums=(1,))
    with pytest.raises(ValueError):
        SearchSpec(order=3, width=2, line_sums=(3,))
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


def test_search_spec_rejects_searches_deeper_than_the_recursion_limit(
        monkeypatch):
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: 1000)
    SearchSpec(order=31, width=9, line_sums=(31,) * 9)
    with pytest.raises(ValueError, match="order 31 with width 10 .* 1000"):
        SearchSpec(order=31, width=10, line_sums=(31,) * 10)
    with pytest.raises(ValueError, match="order 3 with width 1200"):
        SearchSpec(order=3, width=1200, line_sums=(3,) * 1200)
    # palindromic cells search only the first half of the places
    SearchSpec(order=31, width=18, line_sums=(31,) * 18, palindromic=True)
    with pytest.raises(ValueError):
        SearchSpec(order=31, width=20, line_sums=(31,) * 20, palindromic=True)
    # bimagic squares come from a construction, not the layer search
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: 50)
    SearchSpec(order=9, width=4, bimagic=True)
    with pytest.raises(ValueError, match="recursion limit 50"):
        SearchSpec(order=3, width=12, line_sums=(3,) * 12)


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
    matrices = list(generate._family_matrices())
    assert len(matrices) == 2304
    assert hashlib.sha256(repr(matrices).encode()).hexdigest() == (
        "b02cd08c2325ca247263c8c88cf3b3ee9be8f92d39dcce27fd7482049d2f5210")


def test_bimagic_family_squares_verify_with_any_offsets():
    rng = random.Random(11)
    for matrix in rng.sample(list(generate._family_matrices()), 30):
        offsets = tuple(rng.randrange(3) for _ in range(4))
        sq = recompose(generate._affine_planes(matrix, offsets), A012)
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
    monkeypatch.setattr(generate, "_BIMAGIC_FAMILY_SIZE", 5)
    spec = SearchSpec(order=9, width=4, bimagic=True, limit=10, seed=1)
    squares = list(gen_square(spec))
    assert len(squares) == 5
    assert len({sq.cells for sq in squares}) == 5


def test_bimagic_reverify_rejects_a_broken_square():
    spec = SearchSpec(order=9, width=4, bimagic=True, deterministic=True)
    planes = list(generate._affine_planes(next(generate._family_matrices()),
                                          (0, 0, 0, 0)))
    # swapping two cells of one row keeps every row sum but breaks columns
    row = list(planes[3][0])
    row[0], row[1] = row[1], row[0]
    planes[3] = (tuple(row),) + planes[3][1:]
    with pytest.raises(AssertionError, match="not bimagic"):
        generate._reverify([[c.value for c in row]
                            for row in recompose(planes, A012).cells], spec)


def test_compose_blocks(lo_shu):
    ones = Square.from_strings([["1", "1"], ["1", "1"]])
    big = compose_blocks([[ones, ones], [ones, ones]])
    assert big.order == 4
    assert check_blocks(big, 2) == 4
    with pytest.raises(ShapeMismatch):
        compose_blocks([[ones, lo_shu], [ones, ones]])
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
