"""The emit loop's stacking of planes from one long-lived word table,
against the public path ``recompose(planes, alphabet)``.

A table trusts the planes of the generator's own sources and checks only
each new word. It keeps the stacked row of words of each tuple of plane
rows at one index, by value, whichever plane a stream varies fastest, and
empties that memo before it would hold more than ``_MEMO_PLANE_ROWS``
plane rows. Plane tuples from the real sources go through one table for
every spec, so rows of other orders and widths meet in one memo. A plane
no source makes is judged by the public path whatever the table holds, and
a word the table refuses is never entered in it or in its memo. A stream
makes each distinct cell once, and a used table is freed by reference
counting alone.
"""

import gc
import itertools
import re
import weakref

import pytest

from digitsquares import (Alphabet, SearchSpec, ShapeMismatch, core,
                          gen_square, recompose)
from digitsquares.core import _MEMO_PLANE_ROWS, WordTable
from digitsquares.construct import _bimagic_planes
from digitsquares.generate import _layer_planes

ALPHABET = Alphabet((0, 1, 2))

SPECS = [
    *(SearchSpec(order=4, width=width, line_sums=(4,) * width, seed=5,
                 deterministic=deterministic)
      for width in (1, 2, 3, 4) for deterministic in (False, True)),
    SearchSpec(order=3, width=2, line_sums=(3, 3), deterministic=True),
    SearchSpec(order=4, width=2, line_sums=(4, 4), pandiagonal=True, seed=1),
    SearchSpec(order=4, width=3, line_sums=(4,) * 3, distinct=True, seed=2),
    SearchSpec(order=4, width=4, line_sums=(4,) * 4, palindromic=True, seed=3),
    SearchSpec(order=4, width=6, line_sums=(4,) * 6, palindromic=True,
               distinct=True, deterministic=True),
    SearchSpec(order=9, width=4, bimagic=True, seed=7),
    SearchSpec(order=9, width=4, bimagic=True, deterministic=True),
    # one plane: only the length of a row tells these streams' keys apart
    SearchSpec(order=3, width=1, line_sums=(3,), deterministic=True),
    SearchSpec(order=4, width=1, line_sums=(4,), seed=9),
    SearchSpec(order=5, width=1, line_sums=(5,), seed=4),
    SearchSpec(order=4, width=1, line_sums=(4,), seed=11),
]


def spec_with(**fields):
    """The first of SPECS with these fields."""
    return next(spec for spec in SPECS
                if all(getattr(spec, k) == v for k, v in fields.items()))


def source(spec, count):
    plane_source = _bimagic_planes if spec.bimagic else _layer_planes
    return list(itertools.islice(plane_source(spec, None), count))


def rows_reused(squares):
    """How many rows of the squares' cells are a row of words handed out
    before: the same tuple object, which only a memo hands out again."""
    # each row is held, so that no later row takes its id
    held = {}
    reused = 0
    for square in squares:
        for row in square.cells:
            reused += id(row) in held
            held[id(row)] = row
    return reused


def test_one_table_stacks_every_source_as_the_public_path_does():
    table = WordTable(ALPHABET)
    stacked: set = set()
    squares = []
    for spec in SPECS:
        # a seeded bimagic square costs about 3 ms of draws
        for planes in source(spec, 20 if spec.bimagic else 300):
            square = recompose(planes, words=table)
            assert square == recompose(planes, spec.alphabet)
            assert square.alphabet == spec.alphabet
            assert all(cell is table[cell.digits]
                       for row in square.cells for cell in row)
            # the memo is keyed by the rows the planes held at one index,
            # and holds this square's rows of words
            stacked.update(zip(*planes))
            assert set(table._rows) <= stacked
            assert all(table._rows[rows] is words
                       for rows, words in zip(zip(*planes), square.cells))
            assert len(table._rows) * len(planes) <= _MEMO_PLANE_ROWS
            squares.append(square)
    # most rows came from the memo
    assert rows_reused(squares) > sum(s.order for s in squares) / 2


def test_a_palindromic_stream_stacks_its_distinct_rows_once():
    # a palindromic stream varies its middle planes fastest, so its
    # leading planes change from one square to the next
    spec = SearchSpec(order=4, width=8, line_sums=(4,) * 8,
                      palindromic=True, seed=2)
    table = WordTable(ALPHABET)
    squares = [recompose(planes, words=table)
               for planes in source(spec, 2000)]
    assert len(squares) == 2000
    rows = 4 * len(squares)
    assert rows - rows_reused(squares) < rows / 10


def test_the_memo_stays_bounded_past_its_bound():
    # the 2304 deterministic bimagic squares hold 20,736 rows, of 9600
    # distinct row tuples of 4 planes: far more plane rows than the memo
    # may hold
    spec = spec_with(bimagic=True, deterministic=True)
    table = WordTable(ALPHABET)
    emptied = 0
    held = 0
    count = 0
    for planes in _bimagic_planes(spec, None):
        square = recompose(planes, words=table)
        assert square == recompose(planes, ALPHABET)
        assert len(table._rows) * len(planes) <= _MEMO_PLANE_ROWS
        emptied += len(table._rows) < held
        held = len(table._rows)
        count += 1
    assert count == 2304
    assert emptied > 0


def the_entry(plane, wanted):
    """The place (i, j) of the first entry of plane in wanted."""
    return next((i, j) for i, row in enumerate(plane)
                for j, v in enumerate(row) if v in wanted)


def with_entry(plane, i, j, value):
    rows = [list(row) for row in plane]
    rows[i][j] = value
    return tuple(map(tuple, rows))


def float_entry(plane):
    # 1.0 == 1 and hashes as 1, so a lookup would find the word of 1
    i, j = the_entry(plane, (0, 1, 2))
    value = float(plane[i][j])
    return with_entry(plane, i, j, value), (
        ValueError, f"not a decimal digit: {value!r} in cell ({i}, {j})")


def bool_entry(plane):
    i, j = the_entry(plane, (0, 1))
    value = bool(plane[i][j])
    return with_entry(plane, i, j, value), (
        ValueError, f"not a decimal digit: {value!r} in cell ({i}, {j})")


def outside_entry(plane):
    n = len(plane)
    return with_entry(plane, n - 1, 0, 3), (
        ValueError, f"digit 3 in cell ({n - 1}, 0) outside alphabet 012")


def list_row(plane):
    # a list row holds the same digits: the public path takes it
    return (list(plane[0]), *plane[1:]), None


def short_row(plane):
    return (plane[0][:-1], *plane[1:]), (ShapeMismatch, None)


def extra_row(plane):
    return (*plane, plane[0]), (ShapeMismatch, None)


CORRUPTIONS = [float_entry, bool_entry, outside_entry, list_row, short_row,
               extra_row]


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec", [
    spec_with(width=4, deterministic=True),
    spec_with(width=2, deterministic=False),
    spec_with(bimagic=True, deterministic=True),
], ids=["width 4", "width 2", "bimagic"])
def test_a_corrupt_last_plane_of_a_source_is_judged_in_public(spec, corrupt):
    # the table trusts its source's planes; a plane no source makes goes
    # the public path, which checks it whatever the table holds
    table = WordTable(ALPHABET)
    for planes in source(spec, 5):
        square = recompose(planes, words=table)
        assert square == recompose(planes, ALPHABET)
        last, fault = corrupt(planes[-1])
        bad = (*planes[:-1], last)
        if fault is None:
            assert recompose(bad, ALPHABET) == square
            continue
        kind, message = fault
        with pytest.raises(kind) as caught:
            recompose(bad, ALPHABET)
        assert type(caught.value) is kind
        if message is not None:
            assert str(caught.value) == message
        # the public call left the table as it was
        assert recompose(planes, words=table) == square


@pytest.mark.parametrize("digits, message", [
    ((3,), "digit 3 outside alphabet 012"),
    ((0, 3), "digit 3 outside alphabet 012"),
    ((10,), "not a decimal digit: 10"),
    ((-1,), "not a decimal digit: -1"),
    ((True,), "not a decimal digit: True"),
    ((1.0,), "not a decimal digit: 1.0"),
], ids=["outside", "outside second", "ten", "negative", "bool", "float"])
def test_a_word_the_table_refuses_is_never_entered(digits, message):
    table = WordTable(ALPHABET)
    with pytest.raises(ValueError, match=re.escape(message)):
        table[digits]
    assert len(table) == 0
    # the same word as the one cell of order-1 planes: no entry, no memo row
    planes = tuple(((d,),) for d in digits)
    with pytest.raises(ValueError, match=re.escape(message)):
        table.stack(planes)
    assert len(table) == 0
    assert table._rows == {}
    # the table goes on to stack good planes
    good = (*planes[:-1], ((0,),))
    assert recompose(good, words=table) == recompose(good, ALPHABET)


def test_a_stream_makes_each_cell_once(monkeypatch):
    # every word of a stream comes from its table, which makes a cell the
    # first time the stream meets it and hands out that word after
    made = []
    word = core.CodeWord

    def counted(digits):
        made.append(digits)
        return word(digits)

    spec = SearchSpec(order=4, width=4, line_sums=(4,) * 4, seed=5,
                      limit=2000)
    monkeypatch.setattr(core, "CodeWord", counted)
    squares = list(gen_square(spec))
    assert len(squares) == 2000
    cells = {cell for square in squares for row in square.cells
             for cell in row}
    assert len(made) == len(cells)


def test_a_used_table_is_freed_by_reference_counting():
    table = WordTable(ALPHABET)
    for planes in source(spec_with(width=4, deterministic=False), 20):
        recompose(planes, words=table)
    freed = weakref.ref(table)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del table
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
