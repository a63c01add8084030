"""Code words, digit maps, squares and the cell-level transforms."""

import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares import (Alphabet, CodeWord, MIRROR, NonMirrorableDigit,
                          NonRotatableDigit, ROTATION_180, SearchSpec,
                          ShapeMismatch, Square, check_magic, compose_blocks,
                          decompose, gen_square, mirror_codeword,
                          mirror_square, palindromic_extend, recompose,
                          rotate_codeword, rotate_square)
from digitsquares.core import UnmappableDigit, WordTable, _quote


def word(text):
    return CodeWord.from_string(text)


def test_leading_zeros_are_significant():
    assert word("0110") != word("110")
    assert word("0110").width == 4
    assert word("110").width == 3
    assert word("0110").value == word("110").value == 110


def test_codeword_rejects_junk():
    with pytest.raises(ValueError):
        CodeWord.from_string("")
    with pytest.raises(ValueError):
        CodeWord.from_string("12a")
    # digits of other scripts pass str.isdigit but are not cells
    for text in ("²", "1٣"):
        with pytest.raises(ValueError):
            CodeWord.from_string(text)
    with pytest.raises(ValueError):
        CodeWord((1, 12))
    with pytest.raises(ValueError):
        CodeWord(())


@pytest.mark.parametrize("text", ["", "12a", " 1", "²", "٣"])
def test_non_digit_strings_are_rejected_once_checked(text):
    with pytest.raises(ValueError, match=re.escape(
            f"not a digit string: {text!r}")):
        CodeWord.from_string(text)
    with pytest.raises(ValueError, match=re.escape(
            f"cell (0, 1) must be a digit string, got {text!r}")):
        Square.from_strings([["1", text], ["2", "3"]])


@pytest.mark.parametrize("value, shown", [
    ("x" * 40, repr("x" * 40)),
    ("x" * 41, f"'{'x' * 40}'... (41 characters)"),
    (10 ** 39, str(10 ** 39)),
    (10 ** 40, f"{10 ** 39}... (41 characters)"),
    ((1,) * 13, str((1,) * 13)),
    ((1,) * 14, f"{str((1,) * 14)[:40]}... (42 characters)"),
    # past Python's int-to-string limit, where repr raises
    (10 ** 5000, f"1{'0' * 39}... (5001 characters)"),
    (-10 ** 5000, f"-1{'0' * 38}... (5002 characters)"),
    # a container of such an int, whose repr raises too
    ((10 ** 5000, 10 ** 5000), "<tuple of 2 items>"),
], ids=["str-40", "str-41", "int-40", "int-41", "tuple-39", "tuple-42",
        "int-5001", "int-minus-5002", "tuple-of-int-5001"])
def test_a_value_past_40_characters_is_shown_by_its_start(value, shown):
    # a string by its own characters, any other value by those of its repr
    assert _quote(value) == shown


def test_a_long_int_is_shown_by_division_as_by_its_repr():
    # within Python's int-to-string limit, the start divided off and the
    # digits counted are those of the repr, on each side of each power of
    # ten from 10**58, where division takes over from repr
    for k in (*range(58, 200), 1000, 4299):
        for value in (10 ** k - 1, 10 ** k, 1 - 10 ** k, -10 ** k,
                      2 ** (3 * k)):
            text = repr(value)
            assert _quote(value) == f"{text[:40]}... ({len(text)} characters)"


def test_codeword_from_string_is_the_word_of_its_digits():
    for text in ("0", "0110", "9876543210"):
        parsed = CodeWord.from_string(text)
        made = CodeWord(tuple(int(c) for c in text))
        assert parsed == made and hash(parsed) == hash(made)
        assert type(parsed.digits[0]) is int
        assert str(parsed) == text and parsed.value == int(text)


def test_codeword_reverse_and_palindromes():
    assert word("012").reverse() == word("210")
    assert word("1221").is_palindrome()
    assert not word("0121").is_palindrome()
    assert word("0").is_palindrome()


def test_codewords_sort_like_strings():
    words = [word(w) for w in ("2011", "0110", "1102", "0000")]
    assert [str(w) for w in sorted(words)] == ["0000", "0110", "1102", "2011"]


def test_rotation_map():
    assert all(ROTATION_180[ROTATION_180[d]] == d for d in ROTATION_180)
    assert set(ROTATION_180) == {0, 1, 2, 5, 6, 8, 9}
    assert ROTATION_180[6] == 9
    assert ROTATION_180[9] == 6
    assert 3 not in ROTATION_180


def test_mirror_map():
    assert all(MIRROR[MIRROR[d]] == d for d in MIRROR)
    assert set(MIRROR) == {0, 1, 2, 5, 8}
    assert MIRROR[2] == 5
    assert MIRROR[5] == 2


def test_alphabet_validation():
    assert Alphabet.from_string("012") == Alphabet((0, 1, 2))
    assert str(Alphabet((0, 1, 2))) == "012"
    assert len(Alphabet((0, 5))) == 2
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet((1, 1))
    # a repeated digit past Python's int-to-string limit is refused as one
    with pytest.raises(ValueError, match=re.escape(
            "alphabet has repeated digits: <tuple of 2 items>")):
        Alphabet((10 ** 5000, 10 ** 5000))
    with pytest.raises(ValueError):
        Alphabet.from_string("1a")
    with pytest.raises(ValueError):
        Alphabet.from_string("0²")


@pytest.mark.parametrize("digits", [(False, True), (0, True), (True,)])
def test_alphabet_rejects_booleans(digits):
    # bool is an int subclass: (False, True) printed as "FalseTrue", which
    # no document can be read back from
    with pytest.raises(ValueError, match="not a decimal digit"):
        Alphabet(digits)


@pytest.mark.parametrize("src, want", [
    ("1221", "1221"),
    ("0121", "1210"),
    ("169", "691"),
    ("0110", "0110"),
    ("2", "2"),
    ("689", "689"),
])
def test_rotate_codeword(src, want):
    assert str(rotate_codeword(word(src))) == want


def test_rotate_codeword_reports_offending_digit():
    with pytest.raises(NonRotatableDigit) as err:
        rotate_codeword(word("172"))
    assert err.value.position == 1
    assert err.value.digit == 7
    assert isinstance(err.value, UnmappableDigit)
    assert "180 degree rotation" in str(err.value)


def test_rotate_codeword_is_involution():
    rng = random.Random(7)
    pool = sorted(ROTATION_180)
    for _ in range(300):
        w = CodeWord(tuple(rng.choice(pool) for _ in range(rng.randint(1, 6))))
        assert rotate_codeword(rotate_codeword(w)) == w


@pytest.mark.parametrize("src, want", [
    ("2", "5"),
    ("11", "11"),
    ("0212", "5150"),
    ("8", "8"),
])
def test_mirror_codeword(src, want):
    assert str(mirror_codeword(word(src))) == want


def test_mirror_codeword_rejects_six():
    with pytest.raises(NonMirrorableDigit) as err:
        mirror_codeword(word("61"))
    assert err.value.position == 0
    assert err.value.digit == 6
    assert isinstance(err.value, UnmappableDigit)
    assert "mirroring" in str(err.value)


def test_mirror_codeword_is_involution():
    rng = random.Random(11)
    pool = sorted(MIRROR)
    for _ in range(300):
        w = CodeWord(tuple(rng.choice(pool) for _ in range(rng.randint(1, 6))))
        assert mirror_codeword(mirror_codeword(w)) == w


def test_square_shape_validation():
    with pytest.raises(ShapeMismatch):
        Square.from_strings([["1", "2"], ["3"]])
    with pytest.raises(ShapeMismatch):
        Square.from_strings([["1", "22"], ["3", "4"]])
    assert Square.from_strings([["7"]]).order == 1


@pytest.mark.parametrize("rows, alphabet, message", [
    # a wide cell in row 0 comes before the short row 1
    ([["1", "22"], ["3"]], None, "cell (0, 1) has width 2, expected 1"),
    # a stray digit in row 0 comes before the wide cell in row 1
    ([["1", "5"], ["3", "44"]], Alphabet((1, 3)), "digit 5 in cell (0, 1)"),
    ([[], ["1"]], None, "row 0 has 0 cells, expected 2"),
    # a cell that is not a digit string is named like the others
    ([["1", "2"], ["²", "4"]], None,
     "cell (1, 0) must be a digit string, got '²'"),
    # the last cell of a long row, and a cell of a row read only once: the
    # cells are walked again to name the cell
    ([["1"] * 299 + ["x"], *[["1"] * 300] * 299], None,
     "cell (0, 299) must be a digit string, got 'x'"),
    ([["1", "2"], iter(["3", "²"])], None,
     "cell (1, 1) must be a digit string, got '²'"),
    # a cell that is not a digit string after a stray digit or a narrow
    # cell: the walk parses each cell as it meets it
    ([["3", "0"], ["0", "x"]], Alphabet((0, 1, 2)),
     "digit 3 in cell (0, 0) outside alphabet 012"),
    ([["00", "0"], ["0", "x"]], None, "cell (0, 1) has width 1, expected 2"),
])
def test_square_reports_its_first_bad_cell_in_row_major_order(rows, alphabet,
                                                              message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Square.from_strings(rows, alphabet)


def test_square_alphabet_enforcement():
    with pytest.raises(ValueError):
        Square.from_strings([["3"]], Alphabet((0, 1, 2)))
    sq = Square.from_strings([["2"]], Alphabet((0, 1, 2)))
    assert sq.alphabet == Alphabet((0, 1, 2))


def test_rotate_square_moves_corners(lo_shu):
    turned = rotate_square(lo_shu)
    assert turned.cells[0][0] == rotate_codeword(lo_shu.cells[2][2])
    assert turned.cells[0][2] == rotate_codeword(lo_shu.cells[2][0])
    assert rotate_square(turned).cells == lo_shu.cells


def test_rotate_square_keeps_line_sums(lo_shu):
    assert check_magic(rotate_square(lo_shu)) == 33


def test_rotate_square_reports_cell():
    sq = Square.from_strings([["1", "2"], ["7", "0"]])
    with pytest.raises(NonRotatableDigit) as err:
        rotate_square(sq)
    assert (err.value.row, err.value.col) == (1, 0)
    assert err.value.digit == 7


def test_mirror_square(lo_shu):
    flipped = mirror_square(lo_shu)
    assert flipped.cells[0][0] == mirror_codeword(lo_shu.cells[0][2])
    assert mirror_square(flipped).cells == lo_shu.cells
    # {0,1,2} reflects into {0,1,5}
    assert flipped.alphabet == Alphabet((0, 1, 5))


def test_mirror_square_reports_cell():
    sq = Square.from_strings([["1", "2"], ["0", "6"]])
    with pytest.raises(NonMirrorableDigit) as err:
        mirror_square(sq)
    assert (err.value.row, err.value.col) == (1, 1)


@pytest.mark.parametrize("transform, error", [
    (rotate_square, NonRotatableDigit),
    (mirror_square, NonMirrorableDigit),
])
def test_transform_rejects_alphabet_digit_without_image(transform, error):
    # every cell has an image, but the image alphabet would need one for 3
    sq = Square.from_strings([["1", "2"], ["0", "1"]], Alphabet((0, 1, 2, 3)))
    with pytest.raises(error) as err:
        transform(sq)
    assert (err.value.position, err.value.digit) == (None, 3)
    assert "alphabet digit 3" in str(err.value)


def test_decompose_single_cell():
    assert decompose(Square.from_strings([["12"]])) == (((1,),), ((2,),))


def test_decompose_recompose_round_trip():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 5)
        w = rng.randint(1, 4)
        cells = tuple(
            tuple(CodeWord(tuple(rng.randint(0, 9) for _ in range(w)))
                  for _ in range(n))
            for _ in range(n))
        sq = Square(cells)
        assert recompose(decompose(sq)).cells == sq.cells


def test_layer_stack_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        recompose(())
    with pytest.raises(ShapeMismatch):
        recompose(((),))
    with pytest.raises(ShapeMismatch):
        recompose((((1,),), ((1, 2), (3, 4))))
    with pytest.raises(ShapeMismatch):
        recompose((((1, 2), (3,)),))
    with pytest.raises(ValueError):
        recompose((((17,),),))


def test_word_table_checks_each_word_once():
    table = WordTable(Alphabet((0, 1, 2)))
    word = table[(0, 1, 2)]
    assert word == CodeWord((0, 1, 2)) and table[(0, 1, 2)].value == 12
    assert table[(0, 1, 2)] is word
    for digits, message in (((0, 3), "digit 3 outside alphabet 012"),
                            ((1, 12), "not a decimal digit: 12")):
        with pytest.raises(ValueError, match=message):
            table[digits]
        assert digits not in table


def identity(a, b):
    """What a pair of words are to equality, hashing, order, repr, the tuple
    of fields and pickle, without their value or text."""
    copy = pickle.loads(pickle.dumps(a))
    return (a == b, a != b, a < b, a <= b, a > b, hash(a), hash(b), repr(a),
            (a.digits,), copy == a, hash(copy), repr(copy))


digit_tuples = st.lists(st.integers(0, 9), min_size=1, max_size=6).map(tuple)


@given(digit_tuples, digit_tuples)
def test_kept_value_and_text_leave_identity_alone(x, y):
    table = WordTable(Alphabet(tuple(range(10))))
    a, b = table[x], CodeWord(y)
    before = identity(a, b)
    for word, digits in ((a, x), (b, y)):
        text = "".join(map(str, digits))
        assert (word.value, str(word)) == (int(text), text)
    assert identity(a, b) == before
    assert table[x] is a
    copy = pickle.loads(pickle.dumps(a))
    assert (copy.value, str(copy)) == (a.value, str(a))
    other = CodeWord(y)
    assert (other.value, str(other)) == (b.value, str(b))


def test_recompose_from_a_word_table_is_recompose(lo_shu):
    planes = decompose(lo_shu)
    table = WordTable(lo_shu.alphabet)
    assert recompose(planes, words=table) == recompose(planes, lo_shu.alphabet)
    assert recompose(planes, words=table).alphabet == lo_shu.alphabet
    with pytest.raises(TypeError, match="not both"):
        recompose(planes, lo_shu.alphabet, words=table)
    # the public path checks the planes the table trusts
    with pytest.raises(ShapeMismatch):
        recompose([planes[0], ((1,),)], lo_shu.alphabet)
    with pytest.raises(ValueError, match=re.escape(
            "digit 3 in cell (0, 0) outside alphabet 012")):
        recompose((((3, 0, 1),) * 3,), lo_shu.alphabet)
    # a word the table refuses has the table's message, without its cell
    with pytest.raises(ValueError, match=re.escape(
            "digit 3 outside alphabet 012")):
        recompose((((3, 0, 1),) * 3,), words=table)


@pytest.mark.parametrize("digit", [1.0, True])
def test_recompose_rejects_digits_that_are_not_ints(digit):
    table = WordTable(Alphabet((0, 1, 2)))
    assert recompose((((1,),),), words=table).cells == ((word("1"),),)
    # (digit,) == (1,): the public path rejects what a lookup would take
    for alphabet in (None, table.alphabet):
        with pytest.raises(ValueError, match=re.escape(
                f"not a decimal digit: {digit!r}")):
            recompose((((digit,),),), alphabet)
    with pytest.raises(ValueError, match="not a decimal digit"):
        CodeWord((0, digit))


def test_recompose_names_the_first_cell_that_is_not_a_digit(lo_shu):
    planes = [[list(row) for row in plane] for plane in decompose(lo_shu)]
    # a fault in the last plane at (2, 1), and one in the first plane after
    # it in row-major order: the cell, not the plane, comes first
    planes[-1][2][1] = "x"
    planes[0][2][2] = 1.0
    with pytest.raises(ValueError) as caught:
        recompose(planes, lo_shu.alphabet)
    assert str(caught.value) == "not a decimal digit: 'x' in cell (2, 1)"


def test_recompose_names_a_stray_digit_before_a_later_cell_not_a_digit():
    # cell (0, 0) holds 3, outside the alphabet; cell (1, 1) holds "x"
    with pytest.raises(ValueError) as caught:
        recompose([((3, 0), (0, "x"))], Alphabet((0, 1, 2)))
    assert str(caught.value) == "digit 3 in cell (0, 0) outside alphabet 012"


def test_palindromic_extend_cells(lo_shu):
    ext = palindromic_extend(lo_shu)
    assert ext.to_strings()[0] == ["1001", "2222", "0110"]
    assert ext.to_strings()[1] == ["0220", "1111", "2002"]
    assert all(c.is_palindrome() for c in ext.entries())


def test_palindromic_extend_scales_line_sums(lo_shu):
    # width doubles, S1 picks up a factor of 10**w + 1: 33 -> 33 * 101
    assert check_magic(palindromic_extend(lo_shu)) == 3333


def test_palindromic_extend_diagonal(lo_shu):
    ext = palindromic_extend(lo_shu)
    diagonal = {str(ext.cells[i][i]) for i in range(3)}
    assert diagonal == {"1001", "1111", "1221"}


@pytest.mark.parametrize("table", [ROTATION_180, MIRROR])
def test_digit_maps_are_read_only(table):
    with pytest.raises(TypeError):
        table[3] = 3
    with pytest.raises(TypeError):
        table[6] = 6
    assert 3 not in table


@st.composite
def squares(draw, digits, orders=(1, 5), widths=(1, 4)):
    """Squares over the given digits, some declaring an unsorted alphabet."""
    n = draw(st.integers(*orders))
    w = draw(st.integers(*widths))
    flat = draw(st.lists(st.sampled_from(sorted(digits)),
                         min_size=n * n * w, max_size=n * n * w))
    cells = tuple(
        tuple(CodeWord(tuple(flat[(i * n + j) * w:(i * n + j + 1) * w]))
              for j in range(n))
        for i in range(n))
    alphabet = None
    if draw(st.booleans()):
        extra = draw(st.sets(st.sampled_from(sorted(digits))))
        digits_used = sorted(set(flat) | extra)
        alphabet = Alphabet(tuple(draw(st.permutations(digits_used))))
    return Square(cells, alphabet)


@settings(deadline=None)
@given(squares(ROTATION_180))
def test_rotate_square_twice_is_identity(square):
    assert rotate_square(rotate_square(square)) == square


@settings(deadline=None)
@given(squares(MIRROR))
def test_mirror_square_twice_is_identity(square):
    assert mirror_square(mirror_square(square)) == square


@settings(deadline=None)
@given(squares(range(10)))
def test_recompose_undoes_decompose(square):
    assert recompose(decompose(square), square.alphabet) == square


@settings(deadline=None, max_examples=50)
@given(st.integers(3, 5), st.integers(1, 4), st.integers(0, 2 ** 16),
       st.data())
def test_rotate_square_keeps_the_line_sum_of_generated_squares(n, w, seed,
                                                                data):
    # a half turn reverses every cell, so the per-place sums come back in
    # reverse order: S1 stays the same when they read the same both ways.
    # At order 3 over {0, 1, 2} only the sums 0, 3 and 6 have a layer.
    place_sum = (st.sampled_from((0, 3, 6)) if n == 3
                 else st.integers(0, 2 * n))
    half = data.draw(st.lists(place_sum, min_size=(w + 1) // 2,
                              max_size=(w + 1) // 2))
    sums = tuple(half + half[::-1][w % 2:])
    spec = SearchSpec(order=n, width=w, line_sums=sums, seed=seed)
    square = next(gen_square(spec))
    assert check_magic(rotate_square(square)) == check_magic(square) == spec.s1


@st.composite
def block_grids(draw):
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    w = draw(st.integers(1, 3))
    block = squares(range(10), orders=(k, k), widths=(w, w))
    if draw(st.booleans()):
        # one shared alphabet, which the composite then declares too
        alphabet = Alphabet(tuple(range(10)))
        block = block.map(lambda sq: Square(sq.cells, alphabet))
    else:
        block = block.map(lambda sq: Square(sq.cells))
    return [[draw(block) for _ in range(m)] for _ in range(m)]


@settings(deadline=None)
@given(block_grids())
def test_compose_blocks_slices_back_into_its_blocks(blocks):
    whole = compose_blocks(blocks)
    k = blocks[0][0].order
    sliced = [[Square(tuple(row[bj * k:(bj + 1) * k]
                            for row in whole.cells[bi * k:(bi + 1) * k]),
                      whole.alphabet)
               for bj in range(len(blocks))]
              for bi in range(len(blocks))]
    assert sliced == blocks
