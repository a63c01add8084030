"""Property checks for digit squares: sums, squared sums, diagonals, blocks.

Everything here is read-only and exact. A check that fails is a normal
result (None or False), not an exception; exceptions are reserved for
questions that do not make sense (pandiagonality of a non-magic square,
block size that does not divide the order).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from .core import (SUM_PROPERTIES, BadBlockSize, CodeWord, InvalidState,
                   NonRotatableDigit, Square, _digits, _each_word,
                   rotate_codeword)


class NotDivisible(ArithmeticError):
    """A derived mean is not an integer; carries the exact rational value."""

    def __init__(self, numerator: int, denominator: int):
        # fractions is imported here, by the only code that needs it
        from fractions import Fraction

        self.numerator = numerator
        self.denominator = denominator
        self.remainder = numerator % denominator
        self.exact = Fraction(numerator, denominator)
        super().__init__(
            f"{numerator} is not divisible by {denominator} "
            f"(exact value {self.exact}, remainder {self.remainder})")


@dataclass(frozen=True)
class LineSum:
    """One line of a square: its label, digit sum and sum of squares."""

    label: str
    total: int
    square_total: int


def _values(square: Square) -> list[list[int]]:
    # each cell's exact value, read once per distinct word
    value = _each_word(square.cells, attrgetter("value"), _digits)
    return [list(map(value.__getitem__, map(_digits, row)))
            for row in square.cells]


def _lines(values: Sequence[Sequence[int]]) -> list[Sequence[int]]:
    # the rows, the columns, the main and the anti-diagonal of a value matrix
    return [*values, *zip(*values), [row[i] for i, row in enumerate(values)],
            [row[~i] for i, row in enumerate(values)]]


def _broken_diagonals(values: Sequence[Sequence[int]]) -> list[list[int]]:
    # wrap-around diagonals +k and -k interleaved; k = 0 gives the main ones
    n = len(values)
    return [[row[(k + sign * i) % n] for i, row in enumerate(values)]
            for k in range(n) for sign in (1, -1)]


def _block_sums(values: Sequence[Sequence[int]], k: int) -> list[int]:
    n = len(values)
    if k < 1 or k > n or n % k != 0:
        raise BadBlockSize(f"block size {k} does not tile a square of order {n}")
    # each row's k-wide chunk sums, then k rows of chunks per block row
    chunks = [[sum(row[j:j + k]) for j in range(0, n, k)] for row in values]
    return [s for i in range(0, n, k) for s in map(sum, zip(*chunks[i:i + k]))]


def _common(totals: Iterable[int]) -> int | None:
    # the one total all lines share, None where they differ
    seen = set(totals)
    return seen.pop() if len(seen) == 1 else None


def _common_sums(lines: list) -> tuple[int | None, int | None]:
    # the sum and the sum of squares shared by all lines
    return (_common(map(sum, lines)),
            _common(sum(v * v for v in ln) for ln in lines))


def _line_sums(values: Sequence[Sequence[int]]) -> list[LineSum]:
    n = len(values)
    labels = [*(f"row {i}" for i in range(n)), *(f"col {j}" for j in range(n)),
              "diag main", "diag anti"]
    return [LineSum(label, sum(ln), sum(v * v for v in ln))
            for label, ln in zip(labels, _lines(values))]


def line_sums(square: Square) -> list[LineSum]:
    """Sums over the n rows, n columns and both main diagonals, in that order."""
    return _line_sums(_values(square))


def check_magic(square: Square) -> int | None:
    """The common line sum if all 2n+2 lines agree, else None."""
    return _common(map(sum, _lines(_values(square))))


def check_bimagic(square: Square) -> tuple[int, int] | None:
    """(S1, S2) if all lines agree on both the sum and the sum of squares."""
    s1, s2 = _common_sums(_lines(_values(square)))
    return None if s1 is None or s2 is None else (s1, s2)


def check_pandiagonal(square: Square, bimagic: bool = False) -> bool:
    """Whether every wrap-around diagonal matches the square's line sums.

    Pandiagonality is defined relative to S1, so a square that is not magic
    has no answer here: that raises InvalidState. With ``bimagic=True`` the
    squared sums of the broken diagonals must match S2 as well, and the
    square itself must be bimagic to begin with.
    """
    values = _values(square)
    s1, s2 = _common_sums(_lines(values))
    if s1 is None or (bimagic and s2 is None):
        raise InvalidState(f"square is not {'bimagic' if bimagic else 'magic'}")
    b1, b2 = _common_sums(_broken_diagonals(values))
    return b1 == s1 and (not bimagic or b2 == s2)


def check_blocks(square: Square, k: int) -> int | None:
    """The common sum of all aligned k x k blocks, or None if they differ."""
    return _common(_block_sums(_values(square), k))


@dataclass(frozen=True)
class EntryProperties:
    """Cell-level facts that do not depend on any line sums."""

    palindromic: bool
    distinct: bool
    rotation_closed: bool


def entry_properties(square: Square) -> EntryProperties:
    # each distinct word's digits with its count
    counts = Counter(map(_digits, itertools.chain.from_iterable(square.cells)))
    palindromic = all(d == d[::-1] for d in counts)
    distinct = len(counts) == square.order ** 2
    # a half turn undoes itself, so each word must be as common as its image
    try:
        closed = all(counts[rotate_codeword(CodeWord(d)).digits] == k
                     for d, k in counts.items())
    except NonRotatableDigit:
        closed = False
    return EntryProperties(palindromic, distinct, closed)


@dataclass(frozen=True)
class PythagorasResult:
    a: int
    b: int
    c: int
    left: int
    right: int

    @property
    def holds(self) -> bool:
        return self.left == self.right


def pythagoras_check(a: int, b: int, c: int) -> PythagorasResult:
    """Exact check of a**2 + b**2 == c**2 for three line sums."""
    return PythagorasResult(a, b, c, a * a + b * b, c * c)


def s2_from_multiset(entries: Iterable[CodeWord | int], order: int) -> int:
    """The forced S2 of any bimagic square of this order using these cells.

    In a bimagic square every row carries the same sum of squared values, so
    S2 must equal the total over all n*n cells divided by n. This needs only
    the multiset of entries, which makes it an oracle: a claimed S2 that
    disagrees with it cannot be realised by any arrangement.

    Raises NotDivisible (with the exact rational) when the division fails,
    which already proves no bimagic arrangement exists.
    """
    values = [e.value if isinstance(e, CodeWord) else int(e) for e in entries]
    if len(values) != order * order:
        raise ValueError(
            f"need {order * order} entries for order {order}, got {len(values)}")
    total = sum(v * v for v in values)
    if total % order != 0:
        raise NotDivisible(total, order)
    return total // order


@dataclass(frozen=True)
class PropertyReport:
    """Everything the verifier can say about one square."""

    order: int
    width: int
    s1: int | None
    s2: int | None
    magic: bool
    bimagic: bool
    pandiagonal: bool
    pandiagonal_bimagic: bool
    blocks: tuple[tuple[int, int | None], ...]
    entries: EntryProperties
    lines: tuple[LineSum, ...]

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "width": self.width,
            "s1": self.s1,
            "s2": self.s2,
            **{name: getattr(self, name) for name in SUM_PROPERTIES},
            "blocks": [{"size": k, "sum": s} for k, s in self.blocks],
            "entries": asdict(self.entries),
            "lines": [{"label": ln.label, "sum": ln.total,
                       "square_sum": ln.square_total} for ln in self.lines],
        }


def report(square: Square) -> PropertyReport:
    """Run every check that applies and collect the results."""
    n = square.order
    values = _values(square)
    lines = tuple(_line_sums(values))
    s1 = _common(ln.total for ln in lines)
    s2 = _common(ln.square_total for ln in lines)
    magic = s1 is not None
    bimagic = magic and s2 is not None
    b1, b2 = _common_sums(_broken_diagonals(values)) if magic else (None, None)
    blocks = tuple((k, _common(_block_sums(values, k)))
                   for k in range(2, n + 1) if n % k == 0)
    return PropertyReport(
        order=n,
        width=square.width,
        s1=s1,
        s2=s2 if bimagic else None,
        magic=magic,
        bimagic=bimagic,
        pandiagonal=magic and b1 == s1,
        pandiagonal_bimagic=bimagic and b1 == s1 and b2 == s2,
        blocks=blocks,
        entries=entry_properties(square),
        lines=lines,
    )


@dataclass(frozen=True)
class ClaimAudit:
    """One circulated constant checked against an independently computed value."""

    label: str
    claimed: tuple[int, ...]
    computed: int
    consistent: tuple[bool, ...]
    note: str


def audit_published_values() -> list[ClaimAudit]:
    """Recompute the S2 constants quoted for the order-9 family from scratch.

    Each entry multiset below is forced by the construction (all 81 words
    over {0, 1, 2}, their palindromic extensions, or their three-digit
    palindrome recoding), so s2_from_multiset pins S2 before any square is
    even built. Two different four-digit values circulate; the eight-digit
    value in circulation ends in 0 while the exact sum ends in 5.
    """
    words4 = [CodeWord(w) for w in itertools.product((0, 1, 2), repeat=4)]
    claims = [
        ("order 9, width 4, cells = all 81 words over {0,1,2}",
         words4, (17169395, 17169495),
         "two values circulate for the same square; only one is attainable"),
        ("order 9, width 8, cells = palindromic extensions of the above",
         [CodeWord(w.digits + w.digits[::-1]) for w in words4],
         (1717172174949490,),
         "the quoted value ends in 0, the exact sum of squares forces 5"),
        ("order 9, width 6, cells = paired three-digit palindromes",
         [CodeWord((a1, a0, a1, b1, b0, b1)) for a1, a0, b1, b0
          in itertools.product((0, 1, 2), repeat=4)],
         (172916950695,),
         "exact agreement"),
    ]
    audits = []
    for label, entries, claimed, note in claims:
        computed = s2_from_multiset(entries, 9)
        audits.append(ClaimAudit(
            label=label, claimed=claimed, computed=computed,
            consistent=tuple(c == computed for c in claimed), note=note))
    return audits
