"""Seven-segment ASCII art: rendering digit squares and rotating the page.

Every digit occupies a 3x3 character cell built from the classic segments
a (top), b (top right), c (bottom right), d (bottom), e (bottom left),
f (top left) and g (middle):

     _        a
    |_|     f g b
    |_|     e d c

Digits of one code word are separated by one blank column, code words in a
square row by two, and square rows by one blank line. All lines are
right-trimmed.

A half turn of the page permutes the segments (a<->d, b<->e, c<->f, g is
fixed). The digit 1 needs one extra convention: its two right-edge bars land
on the left edge after the turn, where the eye still reads a 1, so a lone
left-edge bar pair is normalised back to the right edge. With that rule,
rotating the rendering of a square of rotation-safe digits gives exactly the
rendering of the rotated square.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

from .core import CodeWord, Square, _Memo


class MalformedBlock(ValueError):
    """Text handed to rotate_text that is not a seven-segment rendering."""


# where each segment is drawn in its 3x3 cell: segment -> (row, column, ink)
_CHART = {"a": (0, 1, "_"), "f": (1, 0, "|"), "g": (1, 1, "_"),
          "b": (1, 2, "|"), "e": (2, 0, "|"), "d": (2, 1, "_"),
          "c": (2, 2, "|")}

_DIGIT_SEGMENTS = {d: frozenset(s) for d, s in enumerate(
    ["abcdef", "bc", "abdeg", "abcdg", "bcfg",
     "acdfg", "acdefg", "abc", "abcdefg", "abcdfg"])}


@cache
def _draw(segments: frozenset[str]) -> tuple[str, str, str]:
    """The three lines of one cell with the given segments lit."""
    cell = [[" "] * 3 for _ in range(3)]
    for s in segments:
        row, col, ink = _CHART[s]
        cell[row][col] = ink
    return tuple("".join(line) for line in cell)


_DIGIT_LINES = {d: _draw(s) for d, s in _DIGIT_SEGMENTS.items()}


@cache
def _turn(segments: frozenset[str]) -> frozenset[str]:
    """The segments after a half turn, with the lone-bar normalisation."""
    # a half turn swaps a<->d, b<->e and c<->f, and keeps g
    turned = frozenset("".join(segments).translate(str.maketrans("abcdef",
                                                                 "defabc")))
    return frozenset("bc") if turned == frozenset("ef") else turned


def _word(cells: Iterable[tuple[str, str, str]]) -> tuple[str, str, str]:
    """The three lines of a word of drawn cells, one space between cells."""
    return tuple(" ".join(line) for line in zip(*cells))


def _layout(bands: list[list[tuple[str, str, str]]]) -> str:
    """Lay out bands of drawn words: two spaces between words, a blank line
    between bands, every line right-trimmed."""
    out: list[str] = []
    for band in bands:
        if out:
            out.append("")
        out.extend("  ".join(line).rstrip() for line in zip(*band))
    return "\n".join(out)


def _draw_word(digits: tuple[int, ...]) -> tuple[str, str, str]:
    return _word(map(_DIGIT_LINES.__getitem__, digits))


def render_codeword(word: CodeWord) -> str:
    """Three right-trimmed lines of ASCII for one code word."""
    return _layout([[_draw_word(word.digits)]])


def render_square(square: Square) -> str:
    """The whole square as ASCII, one blank line between square rows.

    Each distinct word is drawn once."""
    drawn = _Memo(_draw_word)
    return _layout([[drawn[word.digits] for word in row]
                    for row in square.cells])


def _fit_width(width: int, words: int) -> tuple[int, int]:
    """Recover (digits per word, untrimmed width) from a trimmed line width.

    Right-trimming can eat up to two columns of the last cell (a glyph lit
    only on its left edge), never more, and valid widths are at least four
    apart, so rounding up to the next fitting width is unambiguous.
    """
    for w in range(width, width + 4 * words + 1):
        if (w + 2 - words) % (4 * words) == 0:
            digits = (w + 2 - words) // (4 * words)
            if digits >= 1:
                return digits, w
    raise MalformedBlock(
        f"line width {width} does not fit {words} code words")


def rotate_text(block: str) -> str:
    """Rotate a seven-segment rendering by 180 degrees, as text.

    The block must have come out of render_codeword or render_square (or be
    laid out the same way). Each cell is read at the seven segment spots and
    the whole block is drawn again from what was read; any character the
    redraw does not reproduce is rejected. For squares whose digits all
    survive a half turn this commutes with the digit-level rotation:
    rotating the text equals rendering the rotated square.
    """
    if block.endswith("\n"):
        block = block[:-1]
    raw = block.split("\n")
    if len(raw) % 4 != 3:
        raise MalformedBlock(
            f"{len(raw)} lines do not split into 3-line bands")
    # geometry: each band holds as many code words as there are bands
    words = (len(raw) + 1) // 4
    digits, width = _fit_width(max(len(line) for line in raw), words)
    lines = [line.ljust(width) for line in raw]

    # bands[b][wi][p]: the lit segments of digit p of word wi in band b
    bands = []
    for top in range(0, len(lines), 4):
        band = []
        for wi in range(words):
            word = []
            for p in range(digits):
                left = wi * (4 * digits + 1) + 4 * p
                lit = frozenset(s for s, (r, c, _) in _CHART.items()
                                if lines[top + r][left + c] != " ")
                if not lit:
                    raise MalformedBlock(f"blank digit cell at line {top + 1}, "
                                         f"column {left + 1}")
                word.append(lit)
            band.append(word)
        bands.append(band)

    redrawn = _layout([[_word(map(_draw, word)) for word in band]
                       for band in bands]).split("\n")
    for number, (line, want) in enumerate(zip(lines, redrawn), 1):
        want = want.ljust(width)
        if line != want:
            col = next(c for c in range(width) if line[c] != want[c])
            raise MalformedBlock(
                f"unexpected {line[col]!r} at line {number}, column {col + 1}")

    # reverse each band's digit cells, then regroup them into words
    turned = []
    for band in reversed(bands):
        cells = [_turn(s) for word in reversed(band) for s in reversed(word)]
        turned.append([_word(map(_draw, cells[wi * digits:(wi + 1) * digits]))
                       for wi in range(words)])
    return _layout(turned)
