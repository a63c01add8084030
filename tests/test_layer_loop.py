"""The one-loop layer search against the recursive search it replaced, its
seeded draws against the ``random.Random`` routines they stand for, the
search that refuses repeated cells against the unpruned search, and the
prefix distinct check against a plain loop."""

import functools
import itertools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares import Alphabet, SearchSpec, construct, generate
from digitsquares.core import _DeadlineHit
from digitsquares.generate import _layer_stream
from oracle import recursive_layer_stream, without_repeated_cells

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


@pytest.mark.parametrize("size", range(1, 11))
def test_skipped_shuffles_draw_as_shuffles(size):
    for seed, count in itertools.product(range(20), (0, 1, 2, 5, 40)):
        ours, theirs = random.Random(seed), random.Random(seed)
        generate._skip_shuffles(ours, size, count)
        shuffles = generate._shuffles(theirs, list(range(size)))
        for _ in range(count):
            next(shuffles)
        assert ours.getstate() == theirs.getstate(), (seed, count)


def real_prefix(order, places):
    """The keys a seeded distinct product over {0, 1, 2} with line sum
    ``order`` hands its last place, the digits its first ``places`` places
    put in each cell: each place's first layer whose cells' groups still fit
    the places left."""
    grids = []
    for place in range(places):
        for grid in _layer_stream(order, Alphabet((0, 1, 2)), order,
                                  rng=random.Random(place)):
            if generate._prefix_distinct_ok(grids + [grid], places - place, 3):
                grids.append(grid)
                break
    return list(zip(*[itertools.chain.from_iterable(g) for g in grids]))


def groupings(order):
    """Keys from real distinct prefixes of the fewest places that leave
    room for n*n cells and of one more, and random groupings into one
    group, two, one per row and one per cell."""
    places = 1
    while 3 ** (places + 1) < order * order:
        places += 1
    yield real_prefix(order, places)
    yield real_prefix(order, places + 1)
    rng = random.Random(order)
    for groups in (1, 2, order, order * order):
        yield [rng.randrange(groups) for _ in range(order * order)]


# every sum at order 3; at order 4 the sums 1 to 7 over {0, 1, 2} and three
# sums over two other alphabets; at order 5 sums with 160 to 449 layers
REFUSALS = (
    [(3, d, s, p) for d in ((0, 1, 2), (0, 2, 5))
     for s in range(3 * max(d) + 1) for p in (False, True)]
    + [(4, (0, 1, 2), s, p) for s in range(1, 8) for p in (False, True)]
    + [(4, (0, 1), s, False) for s in (2, 3, 4)]
    + [(4, (3, 4, 7, 8), s, False) for s in (14, 15, 22)]
    + [(5, (0, 1, 2), s, False) for s in (2, 8)]
    + [(5, (0, 1, 2), 3, True)])


@pytest.mark.parametrize("order, digits, line_sum, pandiagonal", REFUSALS)
def test_refusing_search_skips_exactly_the_unpruned_draws(
        order, digits, line_sum, pandiagonal):
    # exhausted, the refusing search yields the grids of the unpruned search
    # it keeps, in their order, and leaves its generator where the unpruned
    # search does, so each skip made exactly the draws of the rows it skipped
    alphabet = Alphabet(digits)
    for seed in (None, 1, 7):
        theirs = None if seed is None else random.Random(seed)
        grids = list(recursive_layer_stream(order, alphabet, line_sum,
                                            pandiagonal, theirs))
        for taken in groupings(order):
            assert len(taken) == order * order
            ours = None if seed is None else random.Random(seed)
            refused = list(_layer_stream(order, alphabet, line_sum,
                                         pandiagonal, ours, taken=taken))
            assert refused == without_repeated_cells(grids, taken), (taken,
                                                                     seed)
            if seed is not None:
                assert ours.getstate() == theirs.getstate(), (taken, seed)


def test_a_refusing_search_that_keeps_one_count_skips_the_same_draws(
        monkeypatch):
    # the memo of counts is emptied before each new count it keeps
    monkeypatch.setattr(generate, "_TAIL_MEMO", 1)
    for case in [(4, (0, 1, 2), 4, False), (5, (0, 1, 2), 2, False)]:
        test_refusing_search_skips_exactly_the_unpruned_draws(*case)


class Ticks:
    """A stand-in for the search's clock that moves one tick per reading."""

    def __init__(self):
        self.now = 0

    def monotonic(self):
        self.now += 1
        return self.now


def test_the_count_of_skipped_rows_meets_the_deadline(monkeypatch):
    # with every key the same, each row is refused at its last cell; below
    # row 0 of order 31 the count has 28 rows to walk, far more cells than
    # the deadline's ticks, so it must stop there, before any skipped draw
    skips = []
    monkeypatch.setattr(generate, "time", Ticks())
    monkeypatch.setattr(generate, "_skip_shuffles",
                        lambda *args: skips.append(args))
    stream = _layer_stream(31, Alphabet((0, 1, 2)), 31, rng=random.Random(0),
                           deadline=1000, taken=[0] * 31 ** 2)
    with pytest.raises(_DeadlineHit):
        next(stream)
    assert skips == []


def test_a_long_skip_meets_the_deadline_between_its_steps(monkeypatch):
    # keys repeat from row 28 of order 31 on, so the first refusal there
    # skips the draws of row 29, more than one step of them; the clock
    # passes the deadline during the first step
    clock = types.SimpleNamespace(monotonic=lambda: clock.now, now=0.0)
    steps = []

    def step(rng, size, count):
        steps.append(count)
        clock.now = 2.0

    monkeypatch.setattr(generate, "time", clock)
    monkeypatch.setattr(generate, "_skip_shuffles", step)
    stream = _layer_stream(31, Alphabet((0, 1, 2)), 31, rng=random.Random(0),
                           deadline=1.0,
                           taken=[*range(28 * 31), *[-1] * (3 * 31)])
    with pytest.raises(_DeadlineHit):
        next(stream)
    assert steps == [generate._SKIP_STEP]


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
