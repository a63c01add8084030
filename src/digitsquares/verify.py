"""Property checks for digit squares: sums, squared sums, diagonals, blocks.

Everything here is read-only and exact. A check that fails is a normal
result (None or False), not an exception; exceptions are reserved for
questions that do not make sense (pandiagonality of a non-magic square,
block size that does not divide the order).
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import attrgetter, mul
from typing import Iterable, Sequence

from .core import (SUM_PROPERTIES, BadBlockSize, CodeWord, InvalidState,
                   NonRotatableDigit, Square, _block_sums, _broken_diagonals,
                   _common, _common_sums, _lines, _Record, _values,
                   rotate_codeword)


#: A code word's digit tuple, its key in a count: a tuple hashes in C.
_digits = attrgetter("digits")


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


class LineSum(_Record):
    """One line of a square: its label, digit sum and sum of squares."""

    label: str
    total: int
    square_total: int


def _line_sums(values: Sequence[Sequence[int]]) -> list[LineSum]:
    n = len(values)
    labels = [*(f"row {i}" for i in range(n)), *(f"col {j}" for j in range(n)),
              "diag main", "diag anti"]
    return [LineSum(label, sum(ln), sum(map(mul, ln, ln)))
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


class EntryProperties(_Record):
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


class PythagorasResult(_Record):
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


class PropertyReport(_Record):
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
            "entries": {name: getattr(self.entries, name)
                        for name in self.entries._fields},
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


class ClaimAudit(_Record):
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
