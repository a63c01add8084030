"""The one-loop layer search against the recursive search it replaced, its
seeded draws against the ``random.Random`` routines they stand for, and the
prefix distinct check against a plain loop."""

import functools
import itertools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares import Alphabet, SearchSpec, construct, generate
from digitsquares.generate import _layer_stream
from oracle import recursive_layer_stream

ALPHABETS = [(0, 1, 2), (0, 1), (1, 2, 3), (0, 2, 5), (0, 9), (3, 4, 7, 8),
             (5,)]


def first_grids(search, order, digits, line_sum, pandiagonal, seed):
    """The first 300 grids of a search and the draw its generator makes next."""
    rng = None if seed is None else random.Random(seed)
    grids = list(itertools.islice(
        search(order, Alphabet(digits), line_sum, pandiagonal=pandiagonal,
               rng=rng), 300))
    return grids, None if rng is None else rng.random()


def assert_searches_agree(order, digits, sums, pandiagonals=(False, True)):
    for line_sum in sums:
        for pandiagonal in pandiagonals:
            for seed in (None, 1, 7):
                case = (order, digits, line_sum, pandiagonal, seed)
                assert (first_grids(_layer_stream, *case)
                        == first_grids(recursive_layer_stream, *case)), case


@pytest.mark.parametrize("order, digits",
                         [(3, d) for d in ALPHABETS + [tuple(range(10))]]
                         + [(4, d) for d in ALPHABETS])
def test_layer_loop_matches_recursive_search_on_every_sum(order, digits):
    assert_searches_agree(order, digits, range(-1, order * max(digits) + 2))


@pytest.mark.parametrize("order, digits",
                         [(n, d) for n in (5, 6) for d in ALPHABETS])
def test_layer_loop_matches_recursive_search_near_the_ends(order, digits):
    # a middle sum can take the two searches a minute at these orders (the
    # order-6 pandiagonal search over {0, 1, 2} exhausts sum 4 in 50 s), so
    # these take the sums just outside, at and next to each end of the range
    lo, hi = min(digits), max(digits)
    assert_searches_agree(order, digits, sorted(
        {-1, order * lo - 1, order * lo, order * lo + 1,
         order * hi - 1, order * hi, order * hi + 1}))


@pytest.mark.parametrize("order, digits", [(5, (0, 1, 2)), (5, (0, 1)),
                                           (6, (0, 1))])
def test_layer_loop_matches_recursive_search_on_the_middle_sum(order, digits):
    assert_searches_agree(order, digits,
                          [order * (min(digits) + max(digits)) // 2], (False,))


@pytest.mark.parametrize("size", range(1, 11))
def test_shuffles_draw_as_random_shuffle(size):
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        shuffles = generate._shuffles(ours, list(range(size)))
        for _ in range(3):
            expected = list(range(size))
            theirs.shuffle(expected)
            assert next(shuffles) == expected
        assert ours.getstate() == theirs.getstate()


def next_draw(rng):
    """The draw rng makes next, taken from a copy so rng does not move."""
    copy = random.Random()
    copy.setstate(rng.getstate())
    return copy.random()


line_mask = functools.cache(construct._line_mask)


def choice_bimagic_planes(seed, count):
    """The seeded bimagic sampler drawn with rng.choice, as it was written:
    its first ``count`` squares' planes, each with the draw its generator
    makes next."""
    rng = random.Random(seed)
    seen, planes = set(), []
    while len(planes) < count:
        matrix = tuple(rng.choice(construct._ROWS) for _ in range(4))
        masks = [line_mask(r) for r in matrix]
        if (masks[0] | masks[1] | masks[2] | masks[3] == 0xFFFF
                and construct._full_rank(matrix)):
            offsets = tuple(rng.randrange(3) for _ in range(4))
            if (matrix, offsets) not in seen:
                seen.add((matrix, offsets))
                planes.append((construct._affine_planes(matrix, offsets),
                               next_draw(rng)))
    return planes


# blocks of the default size; then of 3 words, and of 1, so that every
# matrix crosses a block's edge and picks carry from block to block. A
# square takes about 83,000 words on average and a one-word block about
# 15 us a word; seeds 2 and 8 reach their second square within 31,000
@pytest.mark.parametrize("words, seeds, count", [
    (None, range(6), 15), (3, (2, 8), 2), (1, (2, 8), 2)])
def test_bimagic_sampler_draws_as_random_choice(monkeypatch, words, seeds,
                                                count):
    if words is not None:
        monkeypatch.setattr(construct, "_BLOCK_WORDS", words)
    rngs = []

    class Random(random.Random):
        # the sampler's generator, kept to read its next draw
        def __init__(self, seed):
            super().__init__(seed)
            rngs.append(self)

    monkeypatch.setattr(construct, "random",
                        types.SimpleNamespace(Random=Random))
    for seed in seeds:
        spec = SearchSpec(order=9, width=4, bimagic=True, seed=seed)
        planes = [(p, next_draw(rngs[-1])) for p in itertools.islice(
            construct._bimagic_planes(spec, None), count)]
        assert planes == choice_bimagic_planes(seed, count), seed


def plain_prefix_distinct_ok(grids, places_left, alphabet_size):
    """A group of cells sharing a prefix fits the places left, cell by cell."""
    order = len(grids[0])
    budget = alphabet_size ** places_left
    groups = {}
    for i in range(order):
        for j in range(order):
            key = tuple(g[i][j] for g in grids)
            groups[key] = groups.get(key, 0) + 1
    return all(size <= budget for size in groups.values())


PREFIXES = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n)
                      .map(tuple), min_size=n, max_size=n).map(tuple),
             min_size=1, max_size=4)))


@settings(max_examples=100, deadline=None)
@given(PREFIXES, st.integers(0, 3), st.integers(1, 3))
def test_prefix_distinct_check_matches_plain_loop(prefix, places_left,
                                                  alphabet_size):
    _, grids = prefix
    assert (generate._prefix_distinct_ok(grids, places_left, alphabet_size)
            == plain_prefix_distinct_ok(grids, places_left, alphabet_size))
