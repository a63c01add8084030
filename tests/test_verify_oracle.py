"""The checks of `verify` against their code-word versions in `tests/oracle.py`.

`verify` enumerates the rows, columns, diagonals, broken diagonals and
aligned blocks once, on a matrix of plain ints. The oracle is the earlier
code, which walked each family on the cells and read every value per line:
both must give the same sums, labels, verdicts and errors on every square.
"""

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from digitsquares import (CodeWord, Square, check_bimagic, check_blocks,
                          check_magic, check_pandiagonal, entry_properties,
                          line_sums, report)
from digitsquares.core import (ROTATION_180, _block_sums, _broken_diagonals,
                               rotate_codeword)

ALPHABETS = ("012", "01", "5", "0123456789", "69", "347", "0125689")


def cells_of(values, width):
    """A square whose cell (i, j) is values[i][j] written with width digits."""
    return Square.from_strings([[f"{v:0{width}}" for v in row]
                                for row in values])


@st.composite
def line_squares(draw):
    """Squares of order 1-9 and width 1-4, often magic or nearly so.

    Half of them are affine: digit place p of cell (i, j) is g_p((a i + b j)
    mod n). When a, b, a + b and a - b are units mod n, every line and
    every broken diagonal meets each residue once, so the square is magic
    and pandiagonal, and bimagic when all places share (a, b); such pairs
    exist at orders 1, 5 and 7. One cell is sometimes changed afterwards.
    """
    w = draw(st.integers(1, 4))
    digit = st.sampled_from([int(c) for c in draw(st.sampled_from(ALPHABETS))])
    word = st.lists(digit, min_size=w, max_size=w).map(
        lambda ds: int("".join(map(str, ds))))
    if draw(st.booleans()):
        n = draw(st.sampled_from((1, 5, 7)))
        units = st.sampled_from([
            (a, b) for a in range(n) for b in range(n)
            if all(math.gcd(x, n) == 1 for x in (a, b, a + b, a - b))])
        shared = draw(units)
        values = [[0] * n for _ in range(n)]
        for _ in range(w):
            a, b = draw(st.sampled_from([shared, draw(units), draw(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))]))
            g = draw(st.lists(digit, min_size=n, max_size=n))
            for i in range(n):
                for j in range(n):
                    values[i][j] = values[i][j] * 10 + g[(a * i + b * j) % n]
    else:
        n = draw(st.integers(1, 9))
        values = [[draw(word) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = (
            draw(word))
    return cells_of(values, w)


def outcome(check, *args):
    """A check's result, or the type and message of what it raised."""
    try:
        return check(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_checks_agree(square):
    assert line_sums(square) == oracle.line_sums(square)
    assert check_magic(square) == oracle.check_magic(square)
    assert check_bimagic(square) == oracle.check_bimagic(square)
    for bimagic in (False, True):
        assert (outcome(check_pandiagonal, square, bimagic)
                == outcome(oracle.check_pandiagonal, square, bimagic))
    for k in range(square.order + 2):
        assert (outcome(check_blocks, square, k)
                == outcome(oracle.check_blocks, square, k))
    assert report(square).as_dict() == oracle.report(square).as_dict()


# squares (a i + b j) mod n, one width-1 place each, with a, b, a + b and
# a - b units mod n: magic, pandiagonal and bimagic
AFFINE = [
    [[(i + 2 * j) % 5 for j in range(5)] for i in range(5)],
    [[(2 * i + 3 * j) % 7 for j in range(7)] for i in range(7)],
]


# de la Loubere's magic squares of odd order n, cell values 0 to n*n - 1,
# by order: the offset of the second plane that makes them magic
SIAMESE = {3: 1, 5: 0, 7: 0, 9: 1}


def test_checks_agree_on_squares_with_every_property():
    for values in AFFINE:
        square = cells_of(values, 1)
        assert check_bimagic(square) and check_pandiagonal(square, True)
        assert_checks_agree(square)
    for n, d in SIAMESE.items():
        square = cells_of([[n * ((i + j + (n + 1) // 2) % n)
                            + (i + 2 * j + d) % n for j in range(n)]
                           for i in range(n)], 2)
        assert check_magic(square) and not check_pandiagonal(square)
        assert_checks_agree(square)
    # a lo shu of width 2, whose one block of size 3 sums to 99
    square = cells_of([[10, 22, 1], [2, 11, 20], [21, 0, 12]], 2)
    assert check_magic(square) == 33
    assert_checks_agree(square)


@settings(max_examples=300, deadline=None)
@given(line_squares())
def test_checks_agree_with_the_code_word_oracle(square):
    assert_checks_agree(square)


@st.composite
def rotation_squares(draw):
    """Squares whose cells are often closed under a half turn.

    The cells pair words with their rotated images (6 and 9 swap), with a
    word that is its own image in the middle of an odd count; one cell is
    sometimes replaced by a word over all ten digits, where 3, 4 and 7
    have no image.
    """
    n = draw(st.integers(1, 6))
    w = draw(st.integers(1, 4))
    word = st.lists(st.sampled_from((0, 1, 2, 5, 6, 8, 9)),
                    min_size=w, max_size=w).map(tuple).map(CodeWord)
    half = draw(st.lists(word, min_size=n * n // 2, max_size=n * n // 2))
    cells = half + [rotate_codeword(c) for c in half]
    if n % 2:
        h = draw(st.lists(st.sampled_from((0, 1, 2, 5, 6, 8, 9)),
                          min_size=w // 2, max_size=w // 2))
        middle = [draw(st.sampled_from((0, 1, 2, 5, 8)))] if w % 2 else []
        image = [ROTATION_180[d] for d in reversed(h)]
        cells.append(CodeWord(tuple(h + middle + image)))
    cells = draw(st.permutations(cells))
    if draw(st.booleans()):
        k = draw(st.integers(0, n * n - 1))
        cells[k] = CodeWord(tuple(draw(st.lists(st.integers(0, 9),
                                                min_size=w, max_size=w))))
    return Square(tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)))


@settings(max_examples=300, deadline=None)
@given(rotation_squares())
@example(Square.from_strings([["69", "96"], ["96", "69"]]))
@example(Square.from_strings([["6", "6"], ["9", "9"]]))
@example(Square.from_strings([["6", "6"], ["6", "9"]]))
@example(Square.from_strings([["3"]]))
@example(Square.from_strings([["14", "41"], ["11", "11"]]))
@example(Square.from_strings([["17", "71"], ["11", "11"]]))
def test_rotation_closed_matches_the_multiset_definition(square):
    # the oracle's rotation_closed is Counter(map(rotate_codeword, cells))
    # == Counter(cells), False on a digit with no image
    assert entry_properties(square) == oracle.entry_properties(square)


def test_broken_diagonals_and_block_sums_match_their_index_formulas():
    # columns of turned rows and sums of zipped chunks give the diagonals
    # and blocks the index formulas give, on lists of rows and on tuples
    rng = random.Random(29)
    for n in range(1, 13):
        values = [[rng.randrange(10 ** 6) for _ in range(n)] for _ in range(n)]
        for rows in (values, tuple(map(tuple, values))):
            assert (_broken_diagonals(rows)
                    == oracle.broken_diagonals_by_index(rows))
            for k in range(1, n + 1):
                if n % k == 0:
                    assert (_block_sums(rows, k)
                            == oracle.block_sums_by_index(rows, k))
