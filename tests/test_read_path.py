"""The read path handles each distinct cell word once: the reader, the
Square's check of its cells, the transforms, the drawing and the
decompose writer against the cell-by-cell versions kept in oracle.py."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from digitsquares import (MIRROR, ROTATION_180, Alphabet, CodeWord, SearchSpec,
                          Square, compose_blocks, gen_square, mirror_square,
                          rotate_square)
from digitsquares import core, sevenseg
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
# a cell whose repr passes 40 characters is shown by its start
@example(([[{"": -10 ** 33}, "0"], ["0", "0"]], None))
def test_from_strings_matches_the_cell_by_cell_reader(doc):
    rows, alphabet = doc
    got = outcome(Square.from_strings, rows, alphabet)
    want = outcome(oracle.square_from_strings, rows, alphabet)
    assert got == want
    if isinstance(got, Square):
        assert got.cells == want.cells and got.alphabet == want.alphabet


@pytest.mark.parametrize("rows", [[5], [["1"], 5]], ids=["row 0", "row 1"])
def test_from_strings_raises_type_error_for_a_row_that_is_no_sequence(rows):
    with pytest.raises(TypeError):
        Square.from_strings(rows)


def test_from_strings_shares_one_word_per_distinct_string():
    square = Square.from_strings([["12", "21"], ["21", "12"]])
    assert square.cells[0][0] is square.cells[1][1]
    assert square.cells[0][1] is square.cells[1][0]


@st.composite
def faulty_grids(draw):
    """Rows of code words of one width with a few faults placed in them,
    and an alphabet or None. Cells take their word from a small pool, some
    as the pool's object and some as an equal word of their own."""
    alphabet = draw(st.one_of(st.none(), st.permutations(range(10)).map(
        lambda ds: Alphabet(tuple(ds[:3])))))
    digits = sorted(alphabet or range(10))
    outside = sorted(set(range(10)) - set(digits)) or [0]
    n = draw(st.integers(1, 4))
    w = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(st.sampled_from(digits), min_size=w,
                                  max_size=w).map(tuple).map(CodeWord),
                         min_size=1, max_size=4))

    def cell():
        word = draw(st.sampled_from(pool))
        return word if draw(st.booleans()) else CodeWord(word.digits)

    rows = [[cell() for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        fault = draw(st.sampled_from(
            ["wide", "narrow", "outside", "not a word", "short row",
             "long row", "empty row", "no rows"]))
        if fault == "short row":
            rows[i] = rows[i][:-1]
        elif fault == "long row":
            rows[i] = rows[i] + [cell()]
        elif fault == "empty row":
            rows[i] = []
        elif fault == "no rows":
            rows = []
            break
        elif rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            d = draw(st.sampled_from(pool)).digits
            rows[i][j] = bad = {"wide": CodeWord(d + d[:1]),
                                "narrow": CodeWord(d[1:] or d + d),
                                "outside": CodeWord(
                                    (draw(st.sampled_from(outside)),) + d[1:]),
                                "not a word": str(CodeWord(d))}[fault]
            # the same faulty object in more cells: a check that skips a
            # word object it has seen must still name its first cell
            for _ in range(draw(st.integers(0, 2))):
                k = draw(st.integers(0, len(rows) - 1))
                if rows[k]:
                    rows[k][draw(st.integers(0, len(rows[k]) - 1))] = bad
    return tuple(map(tuple, rows)), alphabet


def raised(build, *args):
    """The type and message of what a call raised, or None."""
    try:
        build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@settings(deadline=None, max_examples=500)
@given(faulty_grids())
@example(((), None))
@example(((), Alphabet((0, 1, 2))))
@example((((CodeWord((1,)),), ()), None))
@example((((CodeWord((1,)), CodeWord((2, 2))), (CodeWord((3,)),)),
          Alphabet((1, 2))))
@example((((CodeWord((1,)), CodeWord((3,))), (CodeWord((2, 2)), "1")),
          Alphabet((1, 2))))
def test_square_checks_its_cells_as_the_cell_by_cell_loop(grid):
    cells, alphabet = grid
    want = raised(oracle.check_square_cells, cells, alphabet)
    assert raised(Square, cells, alphabet) == want
    if want is None:
        assert Square(cells, alphabet).cells is cells


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


THREE = [["34", "10", "34"], ["10", "12", "10"], ["10", "34", "12"]]
# from_strings makes one word object of "3", in cells (0, 1) and (1, 0)
SHARED = [["1", "3"], ["3", "2"]]


@pytest.mark.parametrize("transform, rows, place", [
    # a half turn writes source rows from the bottom up, each right to
    # left, so the first bad cell written is the one nearest the bottom right
    (rotate_square, THREE, (2, 1)),
    (rotate_square, SHARED, (1, 0)),
    # a mirror keeps the rows and writes each right to left
    (mirror_square, THREE, (0, 2)),
    (mirror_square, SHARED, (0, 1)),
])
def test_an_unmappable_word_is_named_at_its_first_cell_written(transform,
                                                               rows, place):
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


COMPOSITE = composite_document()


@pytest.mark.parametrize("owner, name, step", [
    (CodeWord, "from_string", lambda s: Square.from_strings(s.to_strings())),
    (core, "_reflect_codeword", rotate_square),
    (core, "_reflect_codeword", mirror_square),
    (sevenseg, "_draw_word", render_square),
], ids=["parse", "rotate", "mirror", "render"])
def test_each_step_makes_each_distinct_word_once(monkeypatch, owner, name,
                                                 step):
    # the composite repeats 81 distinct words over 26244 cells
    assert len({word.digits for word in COMPOSITE.entries()}) == 81
    made = []
    make = getattr(owner, name)

    def counted(*args):
        made.append(args)
        return make(*args)

    monkeypatch.setattr(owner, name, counted)
    step(COMPOSITE)
    assert len(made) == 81


@pytest.mark.parametrize("square", [
    COMPOSITE,
    Square.from_strings([["7"]]),
    # not magic: layer 1's last cell is 0, so its line sum is null
    Square.from_strings([["10", "22", "01"], ["02", "11", "20"],
                         ["21", "00", "10"]]),
    # each plane holds every digit 0-9
    Square.from_strings([["09", "18", "27", "36"], ["45", "54", "63", "72"],
                         ["81", "90", "01", "23"], ["45", "67", "89", "98"]]),
], ids=["order-162", "order-1", "not-magic", "ten-digits"])
def test_decompose_writer_matches_json_dumps(square):
    doc = oracle.decompose_document(square)
    layers = [(layer["scale"], layer["line_sum"], layer["rows"])
              for layer in doc["layers"]]
    assert _json_layers(square.order, square.width, layers) == json.dumps(
        doc, indent=2)
    if square.order == 3:
        assert [layer["line_sum"] for layer in doc["layers"]] == [3, None]
