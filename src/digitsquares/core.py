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

from functools import partial, total_ordering
from operator import attrgetter, mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence


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


class _DeadlineHit(Exception):
    # a plane source's cancellation signal; the emit loop in generate
    # catches it, so it never escapes a search
    pass


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


def _quote(value: object) -> str:
    # a value as a message shows it: its repr, or past 40 characters of a
    # string, or of another value's repr, the start and the length, so a
    # long value is not echoed
    if isinstance(value, int) and value.bit_length() > 200:
        # an int of 61 digits or more; past Python's int-to-string limit
        # (4300 digits by default) repr raises, so a start of 41 digits or
        # more is divided off, and the skip digits it drops are counted
        size = abs(value)
        skip = (size.bit_length() - 1) * 30102 // 100000 - 40
        top = "-" * (value < 0) + str(size // 10 ** skip)
        return f"{top[:40]}... ({skip + len(top)} characters)"
    try:
        text = value if isinstance(value, str) else repr(value)
    except Exception:
        # repr raised, as for a container of an int past that limit: the
        # type and, where it has one, the length stand for the value
        try:
            return f"<{type(value).__name__} of {len(value)} items>"
        except Exception:
            return f"<{type(value).__name__}>"
    if len(text) <= 40:
        return repr(value)
    start = repr(text[:40]) if isinstance(value, str) else text[:40]
    return f"{start}... ({len(text)} characters)"


#: Digits that read as a digit again after a half turn of the display.
ROTATION_180: Mapping[int, int] = MappingProxyType(
    {0: 0, 1: 1, 2: 2, 5: 5, 6: 9, 8: 8, 9: 6})

#: Digits that read as a digit again in a mirror. In the mirror 2 becomes 5.
MIRROR: Mapping[int, int] = MappingProxyType({0: 0, 1: 1, 2: 5, 5: 2, 8: 8})


class _Record:
    # A frozen record, as a frozen dataclass is, without the 6 ms a CLI call
    # took to import dataclasses and inspect: its fields are its annotated
    # names in order, a class attribute of a field's name is its default.

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs):
        # each field's value by position, keyword or default (self stands
        # for none: no caller holds it yet), set not through self.__dict__,
        # which would slow each later read
        for i, name in enumerate(self._fields):
            value = args[i] if i < len(args) else kwargs.pop(
                name, self._defaults.get(name, self))
            if value is self:
                break
            object.__setattr__(self, name, value)
        if value is self or kwargs or len(args) > len(self._fields):
            raise TypeError(f"{type(self).__qualname__}() takes the fields "
                            f"{', '.join(self._fields)}, each once")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _field_values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        return (self._field_values() == other._field_values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._field_values())

    def __repr__(self):
        fields = map("%s=%r".__mod__, zip(self._fields, self._field_values()))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Alphabet(_Record):
    """Ordered set of decimal digits a square draws its cells from."""

    digits: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if not self.digits:
            raise ValueError("alphabet must not be empty")
        if len(set(self.digits)) != len(self.digits):
            raise ValueError(
                f"alphabet has repeated digits: {_quote(self.digits)}")
        # the decimal-digit rule of a code word, with its message
        CodeWord(self.digits)
        object.__setattr__(self, "_members", frozenset(self.digits))

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        """Parse an alphabet from a digit string such as "012"."""
        if not is_digit_string(text):
            raise ValueError(
                f"alphabet must be decimal digits, got {_quote(text)}")
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


@total_ordering
class CodeWord(_Record):
    """A fixed-width digit string. Width is part of the identity.

    Its value and text are worked out when it is made and kept on the word,
    outside the fields that equality, hashing, order and repr see.
    """

    digits: tuple[int, ...]

    def __post_init__(self):
        if not self.digits:
            raise ValueError("code word must have at least one digit")
        # exact: Python ints never overflow
        value = 0
        for d in self.digits:
            # bool is an int subclass: (False, True) would print as FalseTrue
            if (isinstance(d, bool) or not isinstance(d, int)
                    or not 0 <= d <= 9):
                raise ValueError(f"not a decimal digit: {_quote(d)}")
            value = value * 10 + d
        object.__setattr__(self, "value", value)
        # one %d per digit: the digits are ints 0-9
        object.__setattr__(self, "_text", "%d" * len(self.digits) % self.digits)

    @classmethod
    def from_string(cls, text: str) -> "CodeWord":
        if not is_digit_string(text):
            raise ValueError(f"not a digit string: {_quote(text)}")
        return cls(tuple(map(int, text)))

    def __str__(self) -> str:
        return self._text

    @property
    def width(self) -> int:
        return len(self.digits)

    def reverse(self) -> "CodeWord":
        return CodeWord(self.digits[::-1])

    def is_palindrome(self) -> bool:
        return self.digits == self.digits[::-1]

    def __lt__(self, other):
        # by digits, as a dataclass with order=True compares
        return (self.digits < other.digits
                if other.__class__ is self.__class__ else NotImplemented)


class _Memo(dict):
    # a value by its key, made once with make(key) when first asked for

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class Square(_Record):
    """An n x n grid of code words, all the same width.

    ``alphabet`` is optional metadata: when present, every digit of every
    cell must belong to it. Searches attach it; hand-built squares may not.
    """

    cells: tuple[tuple[CodeWord, ...], ...]
    alphabet: Alphabet | None = None

    def __post_init__(self):
        _check_cells(self.cells, self.alphabet)

    @classmethod
    def from_strings(cls, rows: Sequence[Sequence[str]],
                     alphabet: Alphabet | None = None) -> "Square":
        """The square of rows of digit strings: each row is mapped in one
        pass, each distinct string parsed once; the Square checks the cells.

        A cell that is not a digit string is named by its place, in the
        Square's one walk of the cells in row-major order.
        """
        words = _Memo(CodeWord.from_string)
        # held, so that a one-shot row can be walked again
        rows = [tuple(row) for row in rows]
        try:
            cells = tuple(tuple(map(words.__getitem__, row)) for row in rows)
        except (TypeError, ValueError):
            # an unhashable cell, or a cell that is not a digit string: the
            # cells are walked again to name the first faulty one

            def parse(i, j, text):
                if not is_digit_string(text):
                    raise ValueError(f"cell ({i}, {j}) must be a digit "
                                     f"string, got {_quote(text)}")
                return words[text]
            _check_cells(rows, alphabet, parse)
            raise  # a fault the walk did not meet again
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
    # cells in output order, each distinct word turned once where it is
    # first met, so a fault names the first cell written
    image: dict = {}
    cells = []
    for i in (reversed(range(n)) if flip_rows else range(n)):
        row = square.cells[i]
        line = []
        for j in reversed(range(n)):
            word = row[j]
            turned = image.get(word.digits)
            if turned is None:
                turned = image[word.digits] = _reflect_codeword(
                    word, digit_map, error, i, j)
            line.append(turned)
        cells.append(tuple(line))
    alphabet = square.alphabet
    if alphabet is not None:
        # the image square draws from the image alphabet ({0,1,2} mirrors to {0,1,5})
        for d in alphabet:
            if d not in digit_map:
                raise error(None, d)
        alphabet = Alphabet(tuple(digit_map[d] for d in alphabet))
    # a digit map keeps every width and sends the alphabet onto its image,
    # so the image of a square is one too
    return _unchecked(Square, cells=tuple(cells), alphabet=alphabet)


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
    n, and ValueError, naming the cell, for an entry that is not a digit or
    not in ``alphabet``: the Square checks the cells, as for any square.

    ``words`` takes only a generator stream's WordTable, in place of
    ``alphabet``, and trusts the planes, which come from the package's own
    plane sources (the stream re-verifies each square): the cells are the
    table's words, checked once when the table made them and not again by
    the Square. A digit the table refuses raises ``digit d outside alphabet
    ...`` without its cell. See ``WordTable.stack``.
    """
    if words is None:
        return Square(_stack(planes, alphabet), alphabet)
    if alphabet is not None:
        raise TypeError("recompose takes alphabet or words, not both")
    return _unchecked(Square, cells=words.stack(planes),
                      alphabet=words.alphabet)


def _stack(planes: Sequence[Grid], alphabet: Alphabet | None
           ) -> tuple[tuple[CodeWord, ...], ...]:
    # cell (i, j) is the code word of plane[i][j] over the planes
    if not planes:
        raise ShapeMismatch("need at least one plane")
    n = len(planes[0])
    for p, plane in enumerate(planes):
        if len(plane) != n or any(len(row) != n for row in plane):
            raise ShapeMismatch(f"plane {p} is not {n} x {n}")
    try:
        return tuple(tuple(map(CodeWord, zip(*rows)))
                     for rows in zip(*planes))
    except ValueError:
        # the cells are walked again to name the first faulty one

        def word(i, j, digits):
            try:
                return CodeWord(digits)
            except ValueError as fault:
                raise ValueError(f"{fault} in cell ({i}, {j})") from None
        _check_cells([list(zip(*rows)) for rows in zip(*planes)], alphabet,
                     word)
        raise  # a fault the walk did not meet again


def _check_cells(rows: Sequence[Sequence], alphabet: Alphabet | None,
                 word=None) -> None:
    # the cell rule of a square in one walk in row-major order, which
    # names the first faulty cell: each row's length, then each cell's word
    # (word(i, j, entry) makes it, if given), its width and its digits. A
    # word object checked before is skipped, since it passed
    n = len(rows)
    if n < 1:
        raise ShapeMismatch("square must have at least one row")
    w = None
    # by id, each word held so that no later word takes its id
    checked = {}
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ShapeMismatch(f"row {i} has {len(row)} cells, expected {n}")
        for j, cell in enumerate(row):
            if word is not None:
                cell = word(i, j, cell)
            if id(cell) in checked:
                continue
            # a cell that is not a code word raises AttributeError here;
            # the first cell sets the width
            if cell.width != w:
                if w is not None:
                    raise ShapeMismatch(f"cell ({i}, {j}) has width "
                                        f"{cell.width}, expected {w}")
                w = cell.width
            if alphabet is not None:
                for d in cell.digits:
                    if d not in alphabet:
                        raise ValueError(f"digit {d} in cell ({i}, {j}) "
                                         f"outside alphabet {alphabet}")
            checked[id(cell)] = cell


def compose_blocks(blocks: Sequence[Sequence[Square]]) -> Square:
    """Tile a grid of equally sized squares into one larger square."""
    m = len(blocks)
    if m < 1:
        raise ShapeMismatch("need at least one block")
    for bi, brow in enumerate(blocks):
        if len(brow) != m:
            raise ShapeMismatch(f"block row {bi} has {len(brow)} blocks, "
                                f"expected {m}")
    k = blocks[0][0].order
    w = blocks[0][0].width
    for bi, brow in enumerate(blocks):
        for bj, block in enumerate(brow):
            if block.order != k:
                raise ShapeMismatch(f"block ({bi}, {bj}) has order "
                                    f"{block.order}, expected {k}")
            if block.width != w:
                raise ShapeMismatch(f"block ({bi}, {bj}) has width "
                                    f"{block.width}, expected {w}")
    n = m * k
    cells = tuple(
        tuple(blocks[i // k][j // k].cells[i % k][j % k] for j in range(n))
        for i in range(n))
    alphabets = {block.alphabet for brow in blocks for block in brow}
    alphabet = alphabets.pop() if len(alphabets) == 1 else None
    return Square(cells, alphabet)


# The lines of a matrix of cell values, which every check of sums reads:
# verify's checks and report, the generator's re-verification and the
# line sums of decompose.


def _values(square: Square) -> list[list[int]]:
    # each cell's exact value, which each word works out once and keeps
    return [[c.value for c in row] for row in square.cells]


def _lines(values: Sequence[Sequence[int]]) -> list[Sequence[int]]:
    # the rows, the columns, the main and the anti-diagonal of a value matrix
    return [*values, *zip(*values), [row[i] for i, row in enumerate(values)],
            [row[~i] for i, row in enumerate(values)]]


def _broken_diagonals(values: Sequence[Sequence[int]]) -> list[list[int]]:
    # wrap-around diagonals +k and -k interleaved; k = 0 gives the main ones.
    # Diagonal +k is column k of the rows each turned left by its index,
    # diagonal -k column k of the rows each turned right by it; a turned
    # row is a window of the row written twice
    n = len(values)
    twice = [row * 2 for row in values]
    plus = zip(*(row[i:i + n] for i, row in enumerate(twice)))
    minus = zip(*(row[n - i:2 * n - i] for i, row in enumerate(twice)))
    return [list(d) for pair in zip(plus, minus) for d in pair]


def _block_sums(values: Sequence[Sequence[int]], k: int) -> list[int]:
    n = len(values)
    if k < 1 or k > n or n % k != 0:
        raise BadBlockSize(
            f"block size {_quote(k)} does not tile a square of order {n}")
    # each row's k-wide chunk sums, then k rows of chunks per block row
    chunks = [list(map(sum, zip(*[iter(row)] * k))) for row in values]
    return [s for i in range(0, n, k) for s in map(sum, zip(*chunks[i:i + k]))]


def _common(totals: Iterable[int]) -> int | None:
    # the one total all lines share, None where they differ
    seen = set(totals)
    return seen.pop() if len(seen) == 1 else None


def _common_sums(lines: list) -> tuple[int | None, int | None]:
    # the sum and the sum of squares shared by all lines
    return (_common(map(sum, lines)),
            _common(sum(map(mul, ln, ln)) for ln in lines))


#: The plane rows a WordTable's row memo holds at most: a stream of 2000
#: order-4 squares stacks about 414 distinct rows, 3312 plane rows at width 8.
_MEMO_PLANE_ROWS = 4096


class WordTable(_Memo):
    """Code words over one alphabet by digit tuple, each checked once.

    ``table[digits]`` is the CodeWord of a tuple of ints. Its first lookup
    checks the digits as CodeWord does, and each against ``alphabet``, and
    raises ValueError without making an entry; later lookups are dict hits
    that hand out the same word object. A table holds at most
    ``len(alphabet) ** width`` words and lives as long as the stream of
    squares it builds.
    """

    def __init__(self, alphabet: Alphabet):
        # not a bound method, which would make the table a reference cycle
        super().__init__(partial(self._word, alphabet))
        self.alphabet = alphabet
        # the stacked row of words of each tuple of plane rows, by value
        self._rows: dict = {}

    @staticmethod
    def _word(alphabet: Alphabet, digits: tuple[int, ...]) -> CodeWord:
        word = CodeWord(digits)
        for d in digits:
            if d not in alphabet:
                raise ValueError(f"digit {d} outside alphabet {alphabet}")
        return word

    def stack(self, planes: Sequence[Grid]
              ) -> tuple[tuple[CodeWord, ...], ...]:
        """The cells of a generator source's planes as this table's words.

        The planes are trusted, and only a new word is checked, by the
        lookup. The rows the planes hold at one index are stacked once and
        kept by their values, whichever plane the stream varies fastest;
        the memo is emptied before it would hold more than
        ``_MEMO_PLANE_ROWS`` plane rows.
        """
        memo = self._rows
        if (len(memo) + len(planes[0])) * len(planes) > _MEMO_PLANE_ROWS:
            memo.clear()
        cells = []
        for rows in zip(*planes):
            words = memo.get(rows)
            if words is None:
                words = memo[rows] = tuple(map(self.__getitem__, zip(*rows)))
            cells.append(words)
        return tuple(cells)


#: A code word's text, as ``str`` gives it, read without a call to __str__.
_word_text = attrgetter("_text")


def _unchecked(cls, **fields):
    # a record made without __post_init__, for the two squares that are
    # valid by construction: the image of a checked square under a digit
    # map, and a stream's square from its WordTable's words
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
