"""Rendering digits as seven-segment ASCII and turning the page upside down."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares import (CodeWord, MalformedBlock, ROTATION_180, Square,
                          render_square, rotate_codeword, rotate_square,
                          rotate_text)
from digitsquares.sevenseg import _DIGIT_SEGMENTS, _turn, render_codeword


def word(text):
    return CodeWord.from_string(text)


def test_glyph_segment_sets():
    assert _DIGIT_SEGMENTS[8] == frozenset("abcdefg")
    assert _DIGIT_SEGMENTS[1] == frozenset("bc")
    assert _DIGIT_SEGMENTS[0] == frozenset("abcdef")


def test_render_single_digits():
    assert render_codeword(word("2")) == " _\n _|\n|_"
    assert render_codeword(word("1")) == "\n  |\n  |"
    assert render_codeword(word("0")) == " _\n| |\n|_|"


def test_render_codeword_spacing():
    assert render_codeword(word("10")) == "     _\n  | | |\n  | |_|"


def test_render_has_no_trailing_whitespace():
    art = render_codeword(word("0123456789"))
    assert all(line == line.rstrip() for line in art.split("\n"))


def test_glyph_rotation_agrees_with_digit_map():
    for d in sorted(ROTATION_180):
        assert _turn(_DIGIT_SEGMENTS[d]) == _DIGIT_SEGMENTS[ROTATION_180[d]]


def test_glyph_rotation_normalises_the_lone_bars():
    # 1 lands on the left edge after the half turn and snaps back right
    assert _turn(_DIGIT_SEGMENTS[1]) == _DIGIT_SEGMENTS[1]


def test_rotate_text_single_codeword():
    assert rotate_text(render_codeword(word("12"))) \
        == render_codeword(word("21"))
    assert rotate_text(render_codeword(word("0"))) \
        == render_codeword(word("0"))


def test_rotate_text_accepts_trailing_newline():
    art = render_codeword(word("69")) + "\n"
    assert rotate_text(art) == render_codeword(word("69"))


def test_rotate_text_commutes_with_rotate_codeword():
    rng = random.Random(3)
    pool = sorted(ROTATION_180)
    for _ in range(200):
        w = CodeWord(tuple(rng.choice(pool) for _ in range(rng.randint(1, 6))))
        assert rotate_text(render_codeword(w)) \
            == render_codeword(rotate_codeword(w))


def test_rotate_text_is_involution_on_renderings():
    rng = random.Random(5)
    for _ in range(100):
        w = CodeWord(tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 5))))
        art = render_codeword(w)
        assert rotate_text(rotate_text(art)) == art


def test_render_square_layout(lo_shu):
    art = render_square(lo_shu)
    lines = art.split("\n")
    assert len(lines) == 11
    assert lines[3] == "" and lines[7] == ""
    assert all(line == line.rstrip() for line in lines)


def test_rotate_text_commutes_on_squares(lo_shu, lo_shu_extended):
    for sq in (lo_shu, lo_shu_extended):
        assert rotate_text(render_square(sq)) \
            == render_square(rotate_square(sq))


def test_rotate_text_one_by_one_square():
    sq = Square.from_strings([["6"]])
    assert rotate_text(render_square(sq)) == render_square(rotate_square(sq))


@pytest.mark.parametrize("bad", [
    "hello",
    "ab\ncd",
    " _ \n|x|\n|_|",
    "    \n  |\n  |",          # width 4 does not fit 3-wide cells
    " _\n| |\n|_|\n| |\n _\n| |\n|_|",  # band separator is not blank
    "\n" * 11,                    # line width 0 fits no 3 code words
])
def test_rotate_text_rejects_malformed(bad):
    with pytest.raises(MalformedBlock):
        rotate_text(bad)


def test_rotate_text_rejects_ink_between_cells():
    art = render_codeword(word("11"))
    lines = art.split("\n")
    # put a bar into the gap column between the two digit cells
    lines[1] = lines[1][:3] + "|" + lines[1][4:]
    with pytest.raises(MalformedBlock):
        rotate_text("\n".join(lines))


def _ink(art, line, column, char):
    """art with char written at the 1-based line and column."""
    lines = art.split("\n")
    text = lines[line - 1].ljust(column)
    lines[line - 1] = text[:column - 1] + char + text[column:]
    return "\n".join(lines)


_EIGHTS = render_square(Square.from_strings([["8", "8"], ["8", "8"]]))


@pytest.mark.parametrize("art, line, column, char", [
    (render_codeword(word("0")), 2, 2, "x"),
    (_EIGHTS, 4, 1, "_"),
    (render_codeword(word("0")), 1, 1, "_"),
    (render_codeword(word("0")), 1, 3, "|"),
    (render_codeword(word("11")), 2, 4, "|"),
    (_EIGHTS, 1, 5, "_"),
], ids=["not-a-segment-character", "band-separator", "top-left-corner",
        "top-right-corner", "gap-between-digits", "gap-between-words"])
def test_rotate_text_names_the_first_character_its_redraw_misses(
        art, line, column, char):
    with pytest.raises(MalformedBlock) as exc:
        rotate_text(_ink(art, line, column, char))
    assert str(exc.value) == \
        f"unexpected {char!r} at line {line}, column {column}"


def test_rotate_text_rejects_a_blank_cell():
    art = render_codeword(word("81"))
    blank = "\n".join(" " * 3 + line[3:] for line in art.split("\n"))
    with pytest.raises(MalformedBlock,
                       match="^blank digit cell at line 1, column 1$"):
        rotate_text(blank)


@st.composite
def squares(draw):
    n = draw(st.integers(1, 4))
    w = draw(st.integers(1, 3))
    cell = st.lists(st.integers(0, 9), min_size=w, max_size=w)
    flat = draw(st.lists(cell, min_size=n * n, max_size=n * n))
    return Square(tuple(
        tuple(CodeWord(tuple(d)) for d in flat[i * n:(i + 1) * n])
        for i in range(n)))


@settings(deadline=None)
@given(squares())
def test_rotate_text_is_involution_on_square_renderings(square):
    art = render_square(square)
    assert rotate_text(rotate_text(art)) == art
