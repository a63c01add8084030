"""Fixed-width digit strings, squares of them, and digit-level transforms.

Cells are code words: sequences of decimal digits in which leading zeros are
significant ("0110" is four digits wide and is not the same cell as "110").
All arithmetic on cells is exact integer arithmetic on their decimal values;
nothing in this package goes through floating point.

The two transforms that matter are geometric. Rotating a square by a half
turn reads every cell upside down, which on a seven-segment display means
reversing the digit order and substituting each digit by its rotated image
(6 and 9 swap, 0/1/2/5/8 are fixed). Mirroring reflects left to right, under
which 2 and 5 swap and 0/1/8 are fixed. Digits without an image under the
relevant map make the transform fail, loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping, Sequence


class UnmappableDigit(ValueError):
    """A digit with no image under the digit map of a transform.

    ``position`` is the index of the offending digit inside its code word,
    or None when the digit belongs to the square's alphabet rather than to a
    cell. When the failure happens while transforming a whole square, ``row``
    and ``col`` locate the offending cell.
    """

    transform = "the transform"

    def __init__(self, position: int | None, digit: int,
                 row: int | None = None, col: int | None = None):
        self.position = position
        self.digit = digit
        self.row = row
        self.col = col
        if position is None:
            where = f"alphabet digit {digit}"
        else:
            where = f"digit {digit} at position {position}"
            if row is not None:
                where += f" in cell ({row}, {col})"
        super().__init__(f"{where} does not survive {self.transform}")


class NonRotatableDigit(UnmappableDigit):
    """A digit with no image under the half-turn digit map."""

    transform = "a 180 degree rotation"


class NonMirrorableDigit(UnmappableDigit):
    """A digit with no image under the mirror digit map."""

    transform = "mirroring"


class ShapeMismatch(ValueError):
    """Planes, cells or blocks whose dimensions do not agree."""


class InvalidState(ValueError):
    """A check was asked of a square that lacks its prerequisite property."""


class BadBlockSize(ValueError):
    """Block size must divide the order and lie between 1 and the order."""


class Unsatisfiable(RuntimeError):
    """The requested squares provably do not exist, or the search space is spent."""


class BudgetExhausted(RuntimeError):
    """The time budget ran out before the first square was found."""


# the yes/no properties of a square's line sums, PropertyReport fields in order
SUM_PROPERTIES = ("magic", "bimagic", "pandiagonal", "pandiagonal_bimagic")


#: A digit plane: ``plane[i][j]`` is the digit at one place of cell (i, j).
Grid = tuple[tuple[int, ...], ...]


def is_digit_string(text: object) -> bool:
    """Whether ``text`` is a non-empty string of ASCII digits 0-9.

    ``str.isdigit`` alone also accepts characters such as "²" or "٣", which
    ``int`` then rejects or reads as a digit they do not look like.
    """
    return isinstance(text, str) and text.isascii() and text.isdigit()


#: Digits that read as a digit again after a half turn of the display.
ROTATION_180: Mapping[int, int] = MappingProxyType(
    {0: 0, 1: 1, 2: 2, 5: 5, 6: 9, 8: 8, 9: 6})

#: Digits that read as a digit again in a mirror. In the mirror 2 becomes 5.
MIRROR: Mapping[int, int] = MappingProxyType({0: 0, 1: 1, 2: 5, 5: 2, 8: 8})


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of decimal digits a square draws its cells from."""

    digits: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if not self.digits:
            raise ValueError("alphabet must not be empty")
        if len(set(self.digits)) != len(self.digits):
            raise ValueError(f"alphabet has repeated digits: {self.digits}")
        for d in self.digits:
            if not isinstance(d, int) or not 0 <= d <= 9:
                raise ValueError(f"not a decimal digit: {d!r}")
        object.__setattr__(self, "_members", frozenset(self.digits))

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        """Parse an alphabet from a digit string such as "012"."""
        if not is_digit_string(text):
            raise ValueError(f"alphabet must be decimal digits, got {text!r}")
        return cls(tuple(int(c) for c in text))

    def __contains__(self, digit: int) -> bool:
        return digit in self._members

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return "".join(str(d) for d in self.digits)

    @property
    def min_digit(self) -> int:
        return min(self.digits)

    @property
    def max_digit(self) -> int:
        return max(self.digits)


@dataclass(frozen=True, order=True)
class CodeWord:
    """A fixed-width digit string. Width is part of the identity."""

    digits: tuple[int, ...]

    def __post_init__(self):
        if not self.digits:
            raise ValueError("code word must have at least one digit")
        for d in self.digits:
            if (isinstance(d, bool) or not isinstance(d, int)
                    or not 0 <= d <= 9):
                raise ValueError(f"not a decimal digit: {d!r}")

    @classmethod
    def from_string(cls, text: str) -> "CodeWord":
        if not is_digit_string(text):
            raise ValueError(f"not a digit string: {text!r}")
        # ASCII digits leave nothing for __post_init__ to check
        return _unchecked(cls, digits=tuple(map(int, text)))

    def __str__(self) -> str:
        # one %d per digit: the digits are ints 0-9
        return "%d" * len(self.digits) % self.digits

    @property
    def width(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> int:
        # exact: 4-digit words stay below 10**4, Python ints never overflow
        v = 0
        for d in self.digits:
            v = v * 10 + d
        return v

    def reverse(self) -> "CodeWord":
        return CodeWord(self.digits[::-1])

    def is_palindrome(self) -> bool:
        return self.digits == self.digits[::-1]


@dataclass(frozen=True)
class Square:
    """An n x n grid of code words, all the same width.

    ``alphabet`` is optional metadata: when present, every digit of every
    cell must belong to it. Searches attach it; hand-built squares may not.
    """

    cells: tuple[tuple[CodeWord, ...], ...]
    alphabet: Alphabet | None = None

    def __post_init__(self):
        n = len(self.cells)
        if n < 1:
            raise ShapeMismatch("square must have at least one row")
        # an empty first row fails its length check before w is compared
        w = self.cells[0][0].width if self.cells[0] else 0
        for i, row in enumerate(self.cells):
            if len(row) != n:
                raise ShapeMismatch(
                    f"row {i} has {len(row)} cells, expected {n}")
            for j, cell in enumerate(row):
                if cell.width != w:
                    raise ShapeMismatch(
                        f"cell ({i}, {j}) has width {cell.width}, expected {w}")
                if self.alphabet is not None:
                    for d in cell.digits:
                        if d not in self.alphabet:
                            raise ValueError(
                                f"digit {d} in cell ({i}, {j}) outside "
                                f"alphabet {self.alphabet}")

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]],
                     alphabet: Alphabet | None = None) -> "Square":
        """The square of rows of digit strings, each distinct string parsed
        and checked once.

        A faulty document is read again cell by cell, so the error names the
        first faulty cell in row-major order, as the Square would.
        """
        try:
            words = _each_word(rows, CodeWord.from_string)
        except (TypeError, ValueError):
            # an unhashable cell, or a cell that is not a digit string
            words = None
        n = len(rows)
        if (words and all(len(r) == n for r in rows)
                and len({w.width for w in words.values()}) == 1
                and (alphabet is None or all(
                    d in alphabet for w in words.values() for d in w.digits))):
            return _unchecked(cls, alphabet=alphabet, cells=tuple(
                tuple(map(words.__getitem__, r)) for r in rows))
        try:
            cells = tuple(tuple(map(CodeWord.from_string, r)) for r in rows)
        except ValueError:
            i, j = next((i, j) for i, row in enumerate(rows)
                        for j, c in enumerate(row) if not is_digit_string(c))
            raise ValueError(f"cell ({i}, {j}) must be a digit string, "
                             f"got {rows[i][j]!r}") from None
        return cls(cells, alphabet)

    @property
    def order(self) -> int:
        return len(self.cells)

    @property
    def width(self) -> int:
        return self.cells[0][0].width

    def to_strings(self) -> list[list[str]]:
        return [[str(c) for c in row] for row in self.cells]

    def entries(self) -> list[CodeWord]:
        """All cells in row-major order (a multiset, not a set)."""
        return [c for row in self.cells for c in row]


def rotate_codeword(word: CodeWord) -> CodeWord:
    """Read a code word upside down: reverse it, substitute every digit.

    Raises NonRotatableDigit at the first digit (left to right) that
    ROTATION_180 has no image for.
    """
    return _reflect_codeword(word, ROTATION_180, NonRotatableDigit)


def mirror_codeword(word: CodeWord) -> CodeWord:
    """Read a code word in a mirror: reverse it, substitute every digit."""
    return _reflect_codeword(word, MIRROR, NonMirrorableDigit)


def rotate_square(square: Square) -> Square:
    """Turn the whole square by 180 degrees.

    Cell (i, j) of the result is the rotated cell (n-1-i, n-1-j) of the
    input, so the page reads the same way after physically turning it.
    """
    return _reflect_square(square, ROTATION_180, flip_rows=True)


def mirror_square(square: Square) -> Square:
    """Reflect the square left to right, mirroring every cell."""
    return _reflect_square(square, MIRROR, flip_rows=False)


def _reflect_codeword(word: CodeWord, digit_map: Mapping[int, int],
                      error: type[UnmappableDigit], row: int | None = None,
                      col: int | None = None) -> CodeWord:
    # both a half turn and a mirror read the digits right to left
    try:
        return CodeWord(tuple(digit_map[d] for d in reversed(word.digits)))
    except KeyError:
        pos = next(p for p, d in enumerate(word.digits) if d not in digit_map)
        raise error(pos, word.digits[pos], row, col) from None


def _reflect_square(square: Square, digit_map: Mapping[int, int],
                    flip_rows: bool) -> Square:
    # a half turn reverses rows and columns, a mirror only the columns
    error = NonRotatableDigit if flip_rows else NonMirrorableDigit
    n = square.order
    try:
        image = _each_word(square.cells, lambda w: _reflect_codeword(
            w, digit_map, error), _digits)
    except UnmappableDigit:
        # name the first cell in output order whose word has no image
        for i in (reversed(range(n)) if flip_rows else range(n)):
            for j in reversed(range(n)):
                _reflect_codeword(square.cells[i][j], digit_map, error, i, j)
    rows = square.cells[::-1] if flip_rows else square.cells
    cells = tuple(tuple(map(image.__getitem__, map(_digits, reversed(row))))
                  for row in rows)
    alphabet = square.alphabet
    if alphabet is not None:
        # the image square draws from the image alphabet ({0,1,2} mirrors to {0,1,5})
        for d in alphabet:
            if d not in digit_map:
                raise error(None, d)
        alphabet = Alphabet(tuple(digit_map[d] for d in alphabet))
    # a digit map keeps every width and sends the alphabet onto its image,
    # so the image of a square is one too
    return _unchecked(Square, cells=cells, alphabet=alphabet)


def decompose(square: Square) -> tuple[Grid, ...]:
    """Split a square into its digit planes, most significant place first."""
    # each row's places first, row[p] being place p across the row, then
    # each place's rows
    return tuple(zip(*(tuple(zip(*(c.digits for c in row)))
                       for row in square.cells)))


def recompose(planes: Sequence[Grid], alphabet: Alphabet | None = None, *,
              words: WordTable | None = None) -> Square:
    """Stack digit planes, most significant place first, into a square.

    Raises ShapeMismatch unless there are planes and all are n x n for one
    n, and ValueError for an entry that is not a digit or not in ``alphabet``:
    the Square checks the cells, as for any square.

    ``words``, a WordTable, stands in for ``alphabet``: it gives the same
    square as ``recompose(planes, words.alphabet)`` and rejects the same
    planes. When every entry is a plain int, the cells come from the table,
    which checked each word when it made it, and the Square does not check
    them again.
    """
    if words is None:
        return Square(_stack(planes, CodeWord), alphabet)
    if alphabet is not None:
        raise TypeError("recompose takes alphabet or words, not both")
    # the table matches digit tuples by equality: a float or bool equal to
    # a digit would find that digit's word, so only plain ints look it up
    if {type(v) for plane in planes for row in plane for v in row} == {int}:
        return _unchecked(Square, cells=_stack(planes, words.__getitem__),
                          alphabet=words.alphabet)
    return Square(_stack(planes, CodeWord), words.alphabet)


def _stack(planes: Sequence[Grid], word) -> tuple[tuple[CodeWord, ...], ...]:
    # cell (i, j) is word() of the tuple of plane[i][j] over the planes
    if not planes:
        raise ShapeMismatch("need at least one plane")
    n = len(planes[0])
    for p, plane in enumerate(planes):
        if len(plane) != n or any(len(row) != n for row in plane):
            raise ShapeMismatch(f"plane {p} is not {n} x {n}")
    return tuple(tuple(map(word, zip(*rows))) for rows in zip(*planes))


class WordTable(dict):
    """Code words over one alphabet by digit tuple, each checked once.

    ``table[digits]`` is the CodeWord of a tuple of ints. Its first lookup
    checks the digits as CodeWord does, and each against ``alphabet``, and
    raises ValueError without making an entry; later lookups are dict hits,
    and ``table.value[digits]`` is then the word's exact value. A table
    holds at most ``len(alphabet) ** width`` words and lives as long as the
    stream of squares it builds.
    """

    def __init__(self, alphabet: Alphabet):
        super().__init__()
        self.alphabet = alphabet
        self.value: dict[tuple[int, ...], int] = {}

    def __missing__(self, digits: tuple[int, ...]) -> CodeWord:
        word = CodeWord(digits)
        for d in digits:
            if d not in self.alphabet:
                raise ValueError(f"digit {d} outside alphabet {self.alphabet}")
        self.value[digits] = word.value
        self[digits] = word
        return word


def _each_word(rows: Iterable[Iterable[Hashable]], work,
               key=None) -> dict:
    """``work`` of each distinct cell of ``rows``, keyed by ``key(cell)``,
    or by the cell itself when ``key`` is None.

    A square holds few distinct words (at most 81 at width 4 over {0,1,2}),
    so a pass over its cells does the work once per word and one dict
    lookup per cell. Code words are keyed by ``_digits``: a digit tuple
    hashes in C, a dataclass in Python. Raises TypeError for an unhashable
    key.
    """
    cells = list(chain.from_iterable(rows))
    keys = cells if key is None else map(key, cells)
    return {k: work(c) for k, c in dict(zip(keys, cells)).items()}


#: A code word's digit tuple, its key in ``_each_word``.
_digits = attrgetter("digits")


def _unchecked(cls, **fields):
    # a frozen dataclass instance made without __post_init__, for callers
    # that have checked everything it would
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def palindromic_extend(square: Square) -> Square:
    """Replace every cell w by w followed by its reverse.

    The result has doubled width and every cell is a palindrome. Line sums
    scale exactly: a square with all line sums equal to S at width d has
    line sums S * (10**d + 1) after extension.
    """
    cells = tuple(
        tuple(CodeWord(c.digits + c.digits[::-1]) for c in row)
        for row in square.cells)
    return Square(cells, square.alphabet)
