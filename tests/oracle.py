"""Oracles for the layer search: exhaustive enumeration of width-1 magic
squares, the recursive backtracker the one-loop search replaced, and the
layer product as it searched every place's stream again on every pass; for
the CLI's JSON writers, the documents as dicts for ``json.dumps``; for
the checks of ``verify``, their line geometry on code words as it was
before every check ran on one enumeration of plain-int lines; and for the
read path, the reader, transforms and drawing as they were cell by cell,
before each distinct word was handled once, and the Square's check of
its cells as it went through them one by one."""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from typing import Iterator, Sequence

from digitsquares import (Alphabet, CodeWord, SearchSpec, Square, decompose,
                          verify)
from digitsquares.core import (Grid, NonMirrorableDigit, NonRotatableDigit,
                               ShapeMismatch, _reflect_codeword,
                               is_digit_string, rotate_codeword)
from digitsquares.generate import (_DeadlineHit, _layer_stream,
                                   _prefix_distinct_ok)
from digitsquares.sevenseg import _DIGIT_LINES
from digitsquares.verify import (BadBlockSize, EntryProperties, InvalidState,
                                 LineSum, PropertyReport)


def square_document(square: Square) -> dict:
    """The JSON document of a square, keys in the order they are written."""
    out: dict = {"order": square.order, "width": square.width}
    if square.alphabet is not None:
        out["alphabet"] = str(square.alphabet)
    out["rows"] = square.to_strings()
    return out


def decompose_document(square: Square) -> dict:
    """The decompose command's JSON document, keys in the order they are
    written."""
    layers = [{"place": p, "scale": 10 ** (square.width - 1 - p),
               "line_sum": check_magic(Square(tuple(
                   tuple(CodeWord((d,)) for d in row) for row in grid))),
               "rows": [list(row) for row in grid]}
              for p, grid in enumerate(decompose(square))]
    return {"order": square.order, "width": square.width, "layers": layers}


# The read path as it was cell by cell, kept as written: every cell is
# parsed, turned or drawn on its own.
def square_from_strings(rows: Sequence[Sequence[str]],
                        alphabet: Alphabet | None = None) -> Square:
    """Square.from_strings as it parsed every cell."""
    try:
        cells = tuple(tuple(map(CodeWord.from_string, r)) for r in rows)
    except ValueError:
        i, j = next((i, j) for i, row in enumerate(rows)
                    for j, c in enumerate(row) if not is_digit_string(c))
        raise ValueError(f"cell ({i}, {j}) must be a digit string, "
                         f"got {rows[i][j]!r}") from None
    return Square(cells, alphabet)


def check_square_cells(cells, alphabet: Alphabet | None = None) -> None:
    """Square.__post_init__ as it checked every cell, on ``cells`` and
    ``alphabet`` in place of the square's own fields."""
    n = len(cells)
    if n < 1:
        raise ShapeMismatch("square must have at least one row")
    # an empty first row fails its length check before w is compared
    w = cells[0][0].width if cells[0] else 0
    for i, row in enumerate(cells):
        if len(row) != n:
            raise ShapeMismatch(
                f"row {i} has {len(row)} cells, expected {n}")
        for j, cell in enumerate(row):
            if cell.width != w:
                raise ShapeMismatch(
                    f"cell ({i}, {j}) has width {cell.width}, expected {w}")
            if alphabet is not None:
                for d in cell.digits:
                    if d not in alphabet:
                        raise ValueError(
                            f"digit {d} in cell ({i}, {j}) outside "
                            f"alphabet {alphabet}")


def reflect_square(square: Square, digit_map, flip_rows: bool) -> Square:
    """A half turn (``flip_rows``) or mirror image, turning every cell."""
    error = NonRotatableDigit if flip_rows else NonMirrorableDigit
    n = square.order
    cells = tuple(
        tuple(_reflect_codeword(square.cells[i][j], digit_map, error, i, j)
              for j in reversed(range(n)))
        for i in (reversed(range(n)) if flip_rows else range(n)))
    alphabet = square.alphabet
    if alphabet is not None:
        for d in alphabet:
            if d not in digit_map:
                raise error(None, d)
        alphabet = Alphabet(tuple(digit_map[d] for d in alphabet))
    return Square(cells, alphabet)


def render_square(square: Square) -> str:
    """The seven-segment drawing, every digit of every cell drawn."""
    out: list[str] = []
    for row in square.cells:
        if out:
            out.append("")
        for r in range(3):
            out.append("  ".join(" ".join(_DIGIT_LINES[d][r] for d in c.digits)
                                 for c in row).rstrip())
    return "\n".join(out)


class OracleTooLarge(ValueError):
    """A brute-force enumeration was asked for more states than the cap allows."""


_ORACLE_CAP = 10 ** 8


def brute_force_squares(order: int, alphabet: Alphabet,
                        line_sum: int) -> list[Square]:
    """Every width-1 magic square by exhaustive enumeration, sorted.

    This is the independent oracle the layer search is tested against; it
    shares no code path with the backtracking. The state count is capped so
    nobody asks it for more than it can honestly enumerate.
    """
    states = len(alphabet) ** (order * order)
    if states > _ORACLE_CAP:
        raise OracleTooLarge(f"{states} grids exceeds the cap of {_ORACLE_CAP}")
    found = []
    for flat in itertools.product(sorted(alphabet.digits), repeat=order * order):
        cells = tuple(
            tuple(CodeWord((flat[i * order + j],)) for j in range(order))
            for i in range(order))
        square = Square(cells, alphabet)
        if verify.check_magic(square) == line_sum:
            found.append(square)
    found.sort(key=lambda sq: sq.to_strings())
    return found


# The layer search as it was before it became one loop, kept as written so
# that the loop's grids, their order and its draws can be compared with it.
def recursive_layer_stream(order: int, alphabet: Alphabet, line_sum: int,
                           pandiagonal: bool = False,
                           rng: random.Random | None = None,
                           deadline: float | None = None) -> Iterator[Grid]:
    """Backtracking enumeration of single-digit magic layers, as grids.

    The last cell of each row and the whole last row are forced by the
    running sums, so only an (n-1) x (n-1) corner is branched on. With
    ascending digit order the emission is lexicographic by row-major grid;
    an ``rng`` shuffles the branching order but not the set of grids.
    """
    n, s = order, line_sum
    digits = sorted(alphabet.digits)
    lo, hi = digits[0], digits[-1]
    if s < n * lo or s > n * hi:
        return
    members = set(digits)
    grid = [[lo] * n for _ in range(n)]
    rows, cols = [0] * n, [0] * n
    # wrap-around diagonal classes: plus is (j - i) mod n, minus is (i + j) mod n
    plus, minus = [0] * n, [0] * n

    def fill(k: int) -> Iterator[Grid]:
        # k is the row-major index of the cell to fill
        if deadline is not None and time.monotonic() > deadline:
            raise _DeadlineHit
        if k == n * n:
            yield tuple(tuple(r) for r in grid)
            return
        i, j = divmod(k, n)
        if i == n - 1:
            candidates = (s - cols[j],)
        elif j == n - 1:
            candidates = (s - rows[i],)
        elif rng is None:
            candidates = digits
        else:
            candidates = digits[:]
            rng.shuffle(candidates)
        # d fits if every line through (i, j) can still reach s with its
        # open cells; a diagonal class holds one cell per row, so after row
        # i it has n - 1 - i open cells, as many as the column
        kp, km = (j - i) % n, (i + j) % n
        least = most = cols[j]
        if pandiagonal or kp == 0:
            least, most = min(least, plus[kp]), max(most, plus[kp])
        if pandiagonal or km == n - 1:
            least, most = min(least, minus[km]), max(most, minus[km])
        row_open, col_open = n - 1 - j, n - 1 - i
        low = max(s - rows[i] - row_open * hi, s - least - col_open * hi)
        high = min(s - rows[i] - row_open * lo, s - most - col_open * lo)
        for d in candidates:
            if low <= d <= high and d in members:
                grid[i][j] = d
                rows[i] += d
                cols[j] += d
                plus[kp] += d
                minus[km] += d
                yield from fill(k + 1)
                rows[i] -= d
                cols[j] -= d
                plus[kp] -= d
                minus[km] -= d

    yield from fill(0)


# The layer product as it was before a place's stream was recorded and
# replayed, kept as written: every pass searches the place's layers again.
def re_searching_layer_planes(spec: SearchSpec, deadline: float | None
                              ) -> Iterator[tuple[Grid, ...]]:
    # the lazy product of one layer stream per searched digit place
    n = spec.order
    if spec.palindromic:
        search_width = spec.width // 2
        sums = spec.line_sums[:search_width]
    else:
        search_width = spec.width
        sums = spec.line_sums
    asize = len(spec.alphabet)
    grids: list[Grid] = []

    def rng_for(place: int) -> random.Random | None:
        if spec.deterministic:
            return None
        return random.Random(spec.seed * 65537 + place)

    def rec(place: int) -> Iterator[tuple[Grid, ...]]:
        if place == search_width:
            # the mirrored planes make every cell w + reverse(w)
            yield (*grids, *grids[::-1]) if spec.palindromic else tuple(grids)
            return
        for grid in _layer_stream(n, spec.alphabet, sums[place],
                                  pandiagonal=spec.pandiagonal,
                                  rng=rng_for(place), deadline=deadline):
            grids.append(grid)
            if (not spec.distinct
                    or _prefix_distinct_ok(grids, search_width - place - 1,
                                           asize)):
                yield from rec(place + 1)
            grids.pop()

    return rec(0)


# The checks of verify as they were on code words, kept as written: each
# walks its own cells and reads every cell's value per line, sharing no line
# enumeration with the package.
def _line(label: str, cells: Sequence[CodeWord]) -> LineSum:
    values = [c.value for c in cells]
    return LineSum(label, sum(values), sum(v * v for v in values))


def line_sums(square: Square) -> list[LineSum]:
    """Sums over the n rows, n columns and both main diagonals, in that order."""
    n = square.order
    out = [_line(f"row {i}", square.cells[i]) for i in range(n)]
    out += [_line(f"col {j}", [square.cells[i][j] for i in range(n)])
            for j in range(n)]
    out.append(_line("diag main", [square.cells[i][i] for i in range(n)]))
    out.append(_line("diag anti", [square.cells[i][n - 1 - i] for i in range(n)]))
    return out


def _broken_diagonals(square: Square) -> list[LineSum]:
    # wrap-around diagonals; offsets 0 reproduce the two main diagonals
    n = square.order
    out = []
    for k in range(n):
        out.append(_line(f"broken+{k}",
                         [square.cells[i][(i + k) % n] for i in range(n)]))
        out.append(_line(f"broken-{k}",
                         [square.cells[i][(k - i) % n] for i in range(n)]))
    return out


def _common_sums(lines: Sequence[LineSum]) -> tuple[int | None, int | None]:
    # the sum and the sum of squares shared by all lines, None where they differ
    totals = {ln.total for ln in lines}
    square_totals = {ln.square_total for ln in lines}
    return (totals.pop() if len(totals) == 1 else None,
            square_totals.pop() if len(square_totals) == 1 else None)


def _diagonals_match(broken: Sequence[LineSum], s1: int,
                     s2: int | None = None) -> bool:
    return all(ln.total == s1 and (s2 is None or ln.square_total == s2)
               for ln in broken)


def check_magic(square: Square) -> int | None:
    """The common line sum if all 2n+2 lines agree, else None."""
    return _common_sums(line_sums(square))[0]


def check_bimagic(square: Square) -> tuple[int, int] | None:
    """(S1, S2) if all lines agree on both the sum and the sum of squares."""
    s1, s2 = _common_sums(line_sums(square))
    return None if s1 is None or s2 is None else (s1, s2)


def check_pandiagonal(square: Square, bimagic: bool = False) -> bool:
    """Whether every wrap-around diagonal matches the square's line sums.

    Pandiagonality is defined relative to S1, so a square that is not magic
    has no answer here: that raises InvalidState. With ``bimagic=True`` the
    squared sums of the broken diagonals must match S2 as well, and the
    square itself must be bimagic to begin with.
    """
    s1, s2 = _common_sums(line_sums(square))
    if s1 is None or (bimagic and s2 is None):
        raise InvalidState(f"square is not {'bimagic' if bimagic else 'magic'}")
    return _diagonals_match(_broken_diagonals(square), s1,
                            s2 if bimagic else None)


def check_blocks(square: Square, k: int) -> int | None:
    """The common sum of all aligned k x k blocks, or None if they differ."""
    n = square.order
    if k < 1 or k > n or n % k != 0:
        raise BadBlockSize(f"block size {k} does not tile a square of order {n}")
    sums = set()
    for bi in range(0, n, k):
        for bj in range(0, n, k):
            sums.add(sum(square.cells[bi + di][bj + dj].value
                         for di in range(k) for dj in range(k)))
    return sums.pop() if len(sums) == 1 else None




def entry_properties(square: Square) -> EntryProperties:
    entries = square.entries()
    palindromic = all(c.is_palindrome() for c in entries)
    distinct = len(set(entries)) == len(entries)
    try:
        closed = Counter(map(rotate_codeword, entries)) == Counter(entries)
    except NonRotatableDigit:
        closed = False
    return EntryProperties(palindromic, distinct, closed)


def report(square: Square) -> PropertyReport:
    """Run every check that applies and collect the results."""
    n = square.order
    lines = tuple(line_sums(square))
    s1, s2 = _common_sums(lines)
    magic = s1 is not None
    bimagic = magic and s2 is not None
    broken = _broken_diagonals(square) if magic else []
    blocks = tuple((k, check_blocks(square, k))
                   for k in range(2, n + 1) if n % k == 0)
    return PropertyReport(
        order=n,
        width=square.width,
        s1=s1,
        s2=s2 if bimagic else None,
        magic=magic,
        bimagic=bimagic,
        pandiagonal=magic and _diagonals_match(broken, s1),
        pandiagonal_bimagic=bimagic and _diagonals_match(broken, s1, s2),
        blocks=blocks,
        entries=entry_properties(square),
        lines=lines,
    )
