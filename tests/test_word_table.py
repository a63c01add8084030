"""The emit loop's stacking of planes from one long-lived word table,
against the public path ``recompose(planes, alphabet)``.

A table trusts a plane that is the very object in its place in the call
before, and keeps, while the leading planes stay the same, the stacked row
of words of each distinct row of the last plane. Plane tuples from the
real sources go through one table for every spec, so the lead changes
within a stream and between streams of other orders and widths.
"""

import itertools
from operator import is_

import pytest

from digitsquares import Alphabet, SearchSpec, ShapeMismatch, recompose
from digitsquares.core import WordTable
from digitsquares.generate import _bimagic_planes, _layer_planes

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
]


def spec_with(**fields):
    """The first of SPECS with these fields."""
    return next(spec for spec in SPECS
                if all(getattr(spec, k) == v for k, v in fields.items()))


def source(spec, count):
    plane_source = _bimagic_planes if spec.bimagic else _layer_planes
    return list(itertools.islice(plane_source(spec, None), count))


def memo_rows(table):
    # the last-plane rows the table keeps a stacked row for, per row index
    return [set(memo) for _, memo in table._rows]


def test_one_table_stacks_every_source_as_the_public_path_does():
    table = WordTable(ALPHABET)
    before: tuple = ()
    leads = rows = reused = 0
    for spec in SPECS:
        # a seeded bimagic square costs about 10 ms of draws
        for planes in source(spec, 20 if spec.bimagic else 300):
            n = spec.order
            if not (len(planes) == len(before) and len(before[0]) == n
                    and all(map(is_, planes[:-1], before[:-1]))):
                # another lead: the memo may hold rows of this lead only
                leads += 1
                rows_since_lead: set = set()
                held = 0
            rows_since_lead.update(planes[-1])
            square = recompose(planes, words=table)
            assert square == recompose(planes, spec.alphabet)
            assert square.alphabet == spec.alphabet
            assert all(cell is table[cell.digits]
                       for row in square.cells for cell in row)
            kept = memo_rows(table)
            assert all(memo <= rows_since_lead for memo in kept)
            assert sum(map(len, kept)) <= n * len(rows_since_lead)
            # a row the memo did not gain was handed out from it
            rows += n
            reused += n - (sum(map(len, kept)) - held)
            held = sum(map(len, kept))
            before = planes
    # the lead changed within streams, not only between them, and most
    # rows came from the memo
    assert leads > 10 * len(SPECS)
    assert reused > rows / 2


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
    return with_entry(plane, i, j, float(plane[i][j]))


def bool_entry(plane):
    i, j = the_entry(plane, (0, 1))
    return with_entry(plane, i, j, bool(plane[i][j]))


def outside_entry(plane):
    return with_entry(plane, len(plane) - 1, 0, 3)


def list_row(plane):
    return (list(plane[0]), *plane[1:])


def short_row(plane):
    return (plane[0][:-1], *plane[1:])


def extra_row(plane):
    return (*plane, plane[0])


CORRUPTIONS = [float_entry, bool_entry, outside_entry, list_row, short_row,
               extra_row]


def outcome(planes, **how):
    """The square recompose makes, or the class and message it raises."""
    try:
        return recompose(planes, **how)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec", [
    spec_with(width=4, deterministic=True),
    spec_with(width=2, deterministic=False),
    spec_with(bimagic=True, deterministic=True),
], ids=["width 4", "width 2", "bimagic"])
def test_a_last_plane_under_a_cached_lead_is_judged_as_in_public(spec,
                                                                 corrupt):
    table = WordTable(ALPHABET)
    for planes in source(spec, 5):
        # the second call under a lead starts its memo
        for _ in range(2):
            assert recompose(planes, words=table) == recompose(planes,
                                                               ALPHABET)
        bad = (*planes[:-1], corrupt(planes[-1]))
        got, want = outcome(bad, words=table), outcome(bad, alphabet=ALPHABET)
        assert got == want
        if corrupt in (short_row, extra_row):
            assert got[0] is ShapeMismatch
        elif corrupt is not list_row:
            assert got[0] is ValueError
        # the rejected plane left nothing behind
        assert recompose(planes, words=table) == recompose(planes, ALPHABET)


def test_a_plane_in_a_list_is_checked_on_every_call():
    # a list can change between two calls while staying the same object
    table = WordTable(ALPHABET)
    planes = source(spec_with(width=4, deterministic=True), 1)[0]
    lead = list(planes[0])
    stacked = [lead, *planes[1:]]
    for _ in range(2):
        assert recompose(stacked, words=table) == recompose(planes, ALPHABET)
    lead[0] = float_entry(planes[0])[0]
    with pytest.raises(ValueError, match="not a decimal digit: "):
        recompose(stacked, words=table)
    # likewise a list of planes whose lead is swapped in place
    stacked = list(planes)
    for _ in range(2):
        recompose(stacked, words=table)
    stacked[0] = bool_entry(planes[0])
    with pytest.raises(ValueError, match="not a decimal digit: (True|False)"):
        recompose(stacked, words=table)


def test_a_plane_kept_from_a_call_of_another_order_is_checked_again():
    table = WordTable(ALPHABET)
    order_4 = source(spec_with(order=4, width=2), 1)[0]
    order_3 = source(spec_with(order=3, width=2), 1)[0]
    for mixed in ((order_3[0], order_4[1]), (order_4[0], order_3[1])):
        recompose(order_4, words=table)
        # plane 1, or plane 0, is the very object of the call before
        got = outcome(mixed, words=table)
        assert got == outcome(mixed, alphabet=ALPHABET)
        assert got[0] is ShapeMismatch
