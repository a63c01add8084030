"""The layer product that records a place's stream and replays it, against
the product that searched every place again on every pass."""

import itertools
import sys
import tracemalloc
from collections import Counter

import pytest

import oracle
from digitsquares import SearchSpec, gen_square, generate
from digitsquares.generate import _layer_planes, _layer_stream

SHAPES = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (5, 2)]


def line_sums(order, width, pandiagonal, palindromic):
    # few layers per inner place, so a limit passes each of them many times:
    # order 3 has 5 layers of sum 3 (1 pandiagonal), order 4 has 8 of sum 1
    # and 8 pandiagonal ones of sum 2, order 5 has 20 of sum 1 (10)
    if order == 3:
        return (3,) * width
    if order == 5:
        return (1,) * width
    inner = 2 if pandiagonal else 1
    if palindromic:
        half = (4,) + (inner,) * (width // 2 - 1)
        return half + half[::-1]
    return (4,) + (inner,) * (width - 1)


def counted(starts):
    """_layer_stream, counting its starts by the place of the pass that
    starts it, read from the caller's ``place``."""
    def start(*args, **kwargs):
        starts[sys._getframe(1).f_locals["place"]] += 1
        return _layer_stream(*args, **kwargs)
    return start


@pytest.mark.parametrize("deterministic", [True, False])
@pytest.mark.parametrize("order, width", SHAPES)
def test_replayed_planes_match_the_re_searching_product(monkeypatch, order,
                                                        width, deterministic):
    # the order-4, width-4 space is too large to exhaust; 2000 squares pass
    # place 1 four times and place 3 hundreds of times
    limit = 2000 if (order, width) == (4, 4) else None
    most: Counter = Counter()
    for distinct, pandiagonal, palindromic in itertools.product(
            (False, True), repeat=3):
        if palindromic and width % 2:
            continue
        spec = SearchSpec(order=order, width=width,
                          line_sums=line_sums(order, width, pandiagonal,
                                              palindromic),
                          distinct=distinct, pandiagonal=pandiagonal,
                          palindromic=palindromic, seed=5,
                          deterministic=deterministic)
        new, old = Counter(), Counter()
        monkeypatch.setattr(generate, "_layer_stream", counted(new))
        monkeypatch.setattr(oracle, "_layer_stream", counted(old))
        replayed = list(itertools.islice(_layer_planes(spec, None), limit))
        searched = list(itertools.islice(
            oracle.re_searching_layer_planes(spec, None), limit))
        case = (distinct, pandiagonal, palindromic)
        assert replayed == searched, case
        assert max(new.values()) <= 2, (case, new)
        most |= old
    # every inner place was passed at least three times: twice searched,
    # then replayed
    assert all(most[p] >= 3 for p in range(1, width)), most


def test_a_request_that_never_restarts_a_place_records_nothing(monkeypatch):
    # the search stops inside the first pass of its last place. Its peak is
    # about 70 KB; a record of that pass's 1,048 grids takes it to 170 KB
    # with each row stored once, and past 0.5 MB without
    spec = SearchSpec(order=5, width=4, line_sums=(5,) * 4, distinct=True,
                      seed=0)
    starts: Counter = Counter()
    monkeypatch.setattr(generate, "_layer_stream", counted(starts))
    tracemalloc.start()
    try:
        assert len(list(gen_square(spec))) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert starts == Counter(range(4))
    assert peak < 120_000
