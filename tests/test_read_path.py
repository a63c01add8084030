"""The read path handles each distinct cell word once: the reader, the
transforms, the drawing and the decompose writer against the cell-by-cell
versions kept in oracle.py."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from digitsquares import (MIRROR, ROTATION_180, Alphabet, SearchSpec, Square,
                          compose_blocks, gen_square, mirror_square,
                          rotate_square)
from digitsquares.cli import _json_layers, main
from digitsquares.core import UnmappableDigit
from digitsquares.sevenseg import render_square
from test_core import squares


def outcome(build, *args):
    """What a builder gives: its result, or the type, message and place
    of what it raised."""
    try:
        return build(*args)
    except (ValueError, TypeError) as exc:
        return (type(exc), str(exc),
                getattr(exc, "row", None), getattr(exc, "col", None))


NOT_STRINGS = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                        st.lists(st.text("012", max_size=2), max_size=2),
                        st.dictionaries(st.text("012", max_size=1),
                                        st.integers(), max_size=1))


@st.composite
def faulty_documents(draw):
    """Rows of digit strings of one width with a few faults placed in them,
    and an alphabet or None."""
    n = draw(st.integers(1, 4))
    w = draw(st.integers(1, 3))
    rows = [draw(st.lists(st.text("012", min_size=w, max_size=w),
                          min_size=n, max_size=n)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        fault = draw(st.sampled_from(
            ["not a string", "non-ascii", "empty", "width", "digit 3",
             "short row", "long row", "empty row", "no rows"]))
        if fault == "short row":
            rows[i] = rows[i][:-1]
        elif fault == "long row":
            rows[i] = rows[i] + ["0" * w]
        elif fault == "empty row":
            rows[i] = []
        elif fault == "no rows":
            rows = []
            break
        elif rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = {"not a string": draw(NOT_STRINGS),
                          "non-ascii": "٣", "empty": "",
                          "width": "1" * (w + 1),
                          "digit 3": "3" * w}[fault]
    alphabet = draw(st.one_of(st.none(), st.permutations((0, 1, 2, 3)).map(
        lambda ds: Alphabet(tuple(ds[:3])))))
    return rows, alphabet


@settings(deadline=None, max_examples=300)
@given(faulty_documents())
@example(([["1", ["2"]], ["3", "4"]], None))
@example(([["1", "2"], ["3", "44"]], None))
@example(([["1", "2"], ["3", "4"]], Alphabet((1, 2, 3))))
@example(([["12", "12"], ["12", "1"]], None))
@example(([["0"], ["1"]], None))
@example(([[]], None))
def test_from_strings_matches_the_cell_by_cell_reader(doc):
    rows, alphabet = doc
    got = outcome(Square.from_strings, rows, alphabet)
    want = outcome(oracle.square_from_strings, rows, alphabet)
    assert got == want
    if isinstance(got, Square):
        assert got.cells == want.cells and got.alphabet == want.alphabet


def test_from_strings_shares_one_word_per_distinct_string():
    square = Square.from_strings([["12", "21"], ["21", "12"]])
    assert square.cells[0][0] is square.cells[1][1]
    assert square.cells[0][1] is square.cells[1][0]


def test_cli_names_a_list_cell_and_exits_2(capsys, tmp_path):
    path = tmp_path / "list-cell.json"
    path.write_text(json.dumps(
        {"order": 2, "width": 1, "rows": [["1", ["2"]], ["3", "4"]]}))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: cell (0, 1) must be a digit string, got ['2']\n")


TRANSFORMS = [(rotate_square, ROTATION_180, True),
              (mirror_square, MIRROR, False)]


@settings(deadline=None, max_examples=200)
@given(squares((0, 1, 2, 3, 5, 6, 9), orders=(1, 6), widths=(1, 3)))
@pytest.mark.parametrize("transform, digit_map, flip_rows", TRANSFORMS,
                         ids=["rotate", "mirror"])
def test_transforms_match_the_cell_by_cell_turn(transform, digit_map,
                                                flip_rows, square):
    got = outcome(transform, square)
    want = outcome(oracle.reflect_square, square, digit_map, flip_rows)
    assert got == want
    if isinstance(got, Square):
        # equal alphabets have equal digit order
        assert got.alphabet == want.alphabet


@pytest.mark.parametrize("transform, place", [
    # a half turn writes source rows from the bottom up, each right to
    # left, so the first bad cell written is the one nearest the bottom right
    (rotate_square, (2, 1)),
    # a mirror keeps the rows and writes each right to left
    (mirror_square, (0, 2)),
])
def test_an_unmappable_word_is_named_at_its_first_cell_written(transform,
                                                               place):
    rows = [["12", "10", "34"], ["10", "12", "10"], ["10", "34", "12"]]
    rows[0][0] = "34"
    with pytest.raises(UnmappableDigit) as err:
        transform(Square.from_strings(rows))
    assert (err.value.row, err.value.col) == place
    assert (err.value.position, err.value.digit) == (0, 3)


@settings(deadline=None, max_examples=200)
@given(squares(range(10), orders=(1, 6), widths=(1, 4)))
def test_render_matches_the_cell_by_cell_drawing(square):
    assert render_square(square) == oracle.render_square(square)


def composite_document():
    """Order 162: an 18 x 18 tiling of four bimagic blocks and their half
    turns, like the benchmark's inspect document."""
    blocks = list(gen_square(SearchSpec(order=9, width=4, bimagic=True,
                                        limit=4, deterministic=True)))
    blocks += [rotate_square(b) for b in blocks]
    return compose_blocks([[blocks[(i * 18 + j) % len(blocks)]
                            for j in range(18)] for i in range(18)])


@pytest.mark.parametrize("square", [
    composite_document(),
    Square.from_strings([["7"]]),
    # not magic: layer 1's last cell is 0, so its line sum is null
    Square.from_strings([["10", "22", "01"], ["02", "11", "20"],
                         ["21", "00", "10"]]),
], ids=["order-162", "order-1", "not-magic"])
def test_decompose_writer_matches_json_dumps(square):
    doc = oracle.decompose_document(square)
    layers = [(layer["scale"], layer["line_sum"], layer["rows"])
              for layer in doc["layers"]]
    assert _json_layers(square.order, square.width, layers) == json.dumps(
        doc, indent=2)
    if square.order == 3:
        assert [layer["line_sum"] for layer in doc["layers"]] == [3, None]
