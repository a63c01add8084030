"""Rendering digits as seven-segment ASCII and turning the page upside down."""

import random

import pytest

from digitsquares import (CodeWord, MalformedBlock, ROTATION_180, Square,
                          render_codeword, render_square, rotate_codeword,
                          rotate_square, rotate_text)
from digitsquares.sevenseg import GLYPHS, SegmentGlyph


def word(text):
    return CodeWord.from_string(text)


def test_glyph_segment_sets():
    assert GLYPHS[8].segments == frozenset("abcdefg")
    assert GLYPHS[1].segments == frozenset("bc")
    assert GLYPHS[0].segments == frozenset("abcdef")


def test_glyph_rejects_unknown_segments():
    with pytest.raises(ValueError):
        SegmentGlyph(frozenset("xyz"))


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
        assert GLYPHS[d].rotate() == GLYPHS[ROTATION_180[d]]


def test_glyph_rotation_normalises_the_lone_bars():
    # 1 lands on the left edge after the half turn and snaps back right
    assert GLYPHS[1].rotate() == GLYPHS[1]


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
