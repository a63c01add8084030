"""Oracles for the layer search: exhaustive enumeration of width-1 magic
squares, the recursive backtracker the one-loop search replaced and the
grids of it that hold no repeated cell above the last row, the layer
product as it searched every place's stream again on every pass, a
count of layers made row by row, and the smallest line sum the integer line
equations allow; for the bimagic family, full rank over GF(3) by the
elimination a determinant replaced, and its digit planes built cell by
cell; for the CLI's JSON writers, the
documents as dicts for ``json.dumps``; for the checks of ``verify``,
their line geometry on code words as it was before every check ran on one
enumeration of plain-int lines, and the broken diagonals and block sums of
that enumeration by their index formulas; and for the read path, the reader,
transforms and drawing as they were cell by cell, before each distinct
word was handled once, and the Square's check of its cells as it went
through them one by one; for the package's records, the dataclasses they
were."""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import random
import time
from collections import Counter
from typing import Iterator, Sequence

from digitsquares import (Alphabet, CodeWord, SearchSpec, Square, decompose,
                          verify)
from digitsquares.core import (Grid, NonMirrorableDigit, NonRotatableDigit,
                               ShapeMismatch, _quote, _reflect_codeword,
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
    """Square.from_strings as it read each cell in turn: each row's length,
    then each cell's digit string, its width and its digits."""
    n = len(rows)
    if n < 1:
        raise ShapeMismatch("square must have at least one row")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ShapeMismatch(f"row {i} has {len(row)} cells, expected {n}")
        for j, text in enumerate(row):
            if not is_digit_string(text):
                raise ValueError(f"cell ({i}, {j}) must be a digit string, "
                                 f"got {_quote(text)}")
            w = len(rows[0][0])
            if len(text) != w:
                raise ShapeMismatch(
                    f"cell ({i}, {j}) has width {len(text)}, expected {w}")
            for d in map(int, text):
                if alphabet is not None and d not in alphabet:
                    raise ValueError(f"digit {d} in cell ({i}, {j}) outside "
                                     f"alphabet {alphabet}")
    return Square(tuple(tuple(map(CodeWord.from_string, row))
                        for row in rows), alphabet)


def check_square_cells(cells, alphabet: Alphabet | None = None) -> None:
    """Square.__post_init__ as it checked every cell, on ``cells`` and
    ``alphabet`` in place of the square's own fields."""
    n = len(cells)
    if n < 1:
        raise ShapeMismatch("square must have at least one row")
    for i, row in enumerate(cells):
        if len(row) != n:
            raise ShapeMismatch(
                f"row {i} has {len(row)} cells, expected {n}")
        for j, cell in enumerate(row):
            # row 0 has passed its length check: the first cell sets the width
            w = cells[0][0].width
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


def smallest_line_sum(order: int, pandiagonal: bool = False) -> int:
    """The smallest positive line sum of a layer with integer cells.

    The line sums a layer's cells give are a vector in the lattice L that
    each cell's vector of the lines through it spans, so s is a layer's
    line sum exactly when s times the all-ones vector lies in L, and the
    smallest such s is the index of L in L + Z(1, ..., 1). Both lattices
    have the same rank (the constant layer of s/n solves the equations
    over the rationals), and in echelon form over the integers the index
    is the ratio of their pivot products. No digit bound and no search:
    this is what integer arithmetic alone forces.
    """
    n = order
    pivots: dict[int, list[int]] = {}

    def insert(v: list[int]) -> None:
        for col in range(len(v)):
            x = v[col]
            if x == 0:
                continue
            row = pivots.get(col)
            if row is None:
                pivots[col] = v if x > 0 else [-y for y in v]
                return
            # replace the pivot row by the combination whose pivot is
            # gcd(row[col], x), and go on with one that is 0 at col
            g, a, b = _bezout(row[col], x)
            p, q = row[col] // g, x // g
            pivots[col] = [a * r + b * y for r, y in zip(row, v)]
            v = [p * y - q * r for r, y in zip(row, v)]

    size = 4 * n if pandiagonal else 2 * n + 2
    for i in range(n):
        for j in range(n):
            v = [0] * size
            v[i] = v[n + j] = 1
            if pandiagonal:
                v[2 * n + (j - i) % n] = v[3 * n + (i + j) % n] = 1
            else:
                v[2 * n] = int(i == j)
                v[2 * n + 1] = int(i + j == n - 1)
            insert(v)
    rank, covolume = len(pivots), math.prod(r[c] for c, r in pivots.items())
    insert([1] * size)
    assert len(pivots) == rank
    return covolume // math.prod(r[c] for c, r in pivots.items())


def count_layers(order: int, alphabet: Alphabet, line_sum: int,
                 pandiagonal: bool = False) -> int:
    """The number of single-digit magic layers, counted row by row.

    A layer of order n over ``alphabet`` has every row, column and main
    diagonal summing to ``line_sum`` (with ``pandiagonal``, every broken
    diagonal too). The count runs over whole rows that sum to ``line_sum``,
    one row index at a time, and keeps per state the number of row stacks
    that reach it. The state is the partial sums of the columns and of the
    diagonals that must close: the two main ones, or the 2n broken ones.
    Each such line takes one cell per row, so with k rows left each partial
    sum lies within k smallest and k largest digits of ``line_sum``; after
    the last row only the state in which every line is at ``line_sum`` is
    left. No grid is built and no cell is branched on.
    """
    n, s = order, line_sum
    lo, hi = alphabet.min_digit, alphabet.max_digit
    rows = [r for r in itertools.product(alphabet.digits, repeat=n)
            if sum(r) == s]

    def adds(i: int, row: tuple[int, ...]) -> tuple[int, ...]:
        # what row i adds to the columns, then to the diagonals: the
        # broken diagonal k of each direction holds (i, (i + k) mod n)
        # and (i, (k - i) mod n), the main ones (i, i) and (i, n - 1 - i)
        if pandiagonal:
            return (*row, *(row[(i + k) % n] for k in range(n)),
                    *(row[(k - i) % n] for k in range(n)))
        return (*row, row[i], row[n - 1 - i])

    counts = Counter({(0,) * (3 * n if pandiagonal else n + 2): 1})
    for i in range(n):
        least, most = s - (n - 1 - i) * hi, s - (n - 1 - i) * lo
        steps = [adds(i, row) for row in rows]
        after: Counter = Counter()
        for state, count in counts.items():
            for step in steps:
                sums = tuple(map(operator.add, state, step))
                if least <= min(sums) and max(sums) <= most:
                    after[sums] += count
        counts = after
    return sum(counts.values())


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    # (g, x, y) with a*x + b*y = g = gcd(a, b) > 0
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


# The bimagic family's rank test as it was before a determinant replaced it.
def gf3_full_rank(matrix: Sequence[Sequence[int]]) -> bool:
    """Whether a 4x4 matrix with entries 0-2 has full rank over GF(3).

    Elimination, where each nonzero pivot is its own inverse.
    """
    rows = [list(r) for r in matrix]
    for col in range(4):
        pivot = next((r for r in range(col, 4) if rows[r][col]), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for r in range(col + 1, 4):
            f = rows[r][col] * top[col] % 3
            if f:
                rows[r] = [(x - f * y) % 3 for x, y in zip(rows[r], top)]
    return True


# The bimagic family's planes as they were built before each plane's three
# distinct rows were built once and shared, kept as written.
def affine_planes(matrix: Sequence[Sequence[int]],
                  offsets: Sequence[int]) -> tuple[Grid, ...]:
    """The order-9 digit planes (r . (i1, i0, j1, j0) + offset) mod 3, one
    per coefficient row r and offset, worked out cell by cell."""
    return tuple(
        tuple(tuple((a * (i // 3) + b * (i % 3) + c * (j // 3) + d * (j % 3)
                     + off) % 3 for j in range(9))
              for i in range(9))
        for (a, b, c, d), off in zip(matrix, offsets))


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


# What the layer search given ``taken`` keeps of the search as it was
# before it refused repeated cells: the grids whose rows 0 to n-2 hold each
# (key, digit) pair once.
def without_repeated_cells(grids: Sequence[Grid],
                           taken: Sequence) -> list[Grid]:
    kept = []
    for grid in grids:
        pairs = list(zip(taken, itertools.chain.from_iterable(grid[:-1])))
        if len(set(pairs)) == len(pairs):
            kept.append(grid)
    return kept


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


# The broken diagonals and block sums of a value matrix by their index
# formulas, as core took them before it took columns of turned rows and
# sums of zipped chunks.
def broken_diagonals_by_index(values: Sequence[Sequence[int]]
                              ) -> list[list[int]]:
    """Wrap-around diagonals +k and -k interleaved, k = 0 first."""
    n = len(values)
    return [[row[(k + sign * i) % n] for i, row in enumerate(values)]
            for k in range(n) for sign in (1, -1)]


def block_sums_by_index(values: Sequence[Sequence[int]], k: int) -> list[int]:
    """The aligned k x k block sums, block rows first."""
    n = len(values)
    chunks = [[sum(row[j:j + k]) for j in range(0, n, k)] for row in values]
    return [s for i in range(0, n, k) for s in map(sum, zip(*chunks[i:i + k]))]


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


# The package's ten records as the dataclasses they were before they became
# plain classes: the same fields, defaults and frozen and order flags,
# without the checks of __post_init__.
@dataclasses.dataclass(frozen=True)
class AlphabetTwin:
    digits: tuple[int, ...] = (0, 1, 2)


@dataclasses.dataclass(frozen=True, order=True)
class CodeWordTwin:
    digits: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class SquareTwin:
    cells: tuple[tuple[CodeWord, ...], ...]
    alphabet: Alphabet | None = None


@dataclasses.dataclass
class SquareDocumentTwin:
    width: int
    rows: list[list[str]]
    alphabet: Alphabet | None = None


@dataclasses.dataclass(frozen=True)
class SearchSpecTwin:
    order: int
    width: int
    alphabet: Alphabet = Alphabet()
    line_sums: tuple[int, ...] | None = None
    pandiagonal: bool = False
    distinct: bool = False
    palindromic: bool = False
    bimagic: bool = False
    limit: int = 1
    seed: int = 0
    budget_ms: int | None = None
    deterministic: bool = False


@dataclasses.dataclass(frozen=True)
class LineSumTwin:
    label: str
    total: int
    square_total: int


@dataclasses.dataclass(frozen=True)
class EntryPropertiesTwin:
    palindromic: bool
    distinct: bool
    rotation_closed: bool


@dataclasses.dataclass(frozen=True)
class PythagorasResultTwin:
    a: int
    b: int
    c: int
    left: int
    right: int


@dataclasses.dataclass(frozen=True)
class PropertyReportTwin:
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


@dataclasses.dataclass(frozen=True)
class ClaimAuditTwin:
    label: str
    claimed: tuple[int, ...]
    computed: int
    consistent: tuple[bool, ...]
    note: str
