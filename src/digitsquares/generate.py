"""Search and construction of digit squares.

The workhorse is a digit-plane search: a square of width d with constant
per-place line sums s_p is a stack of d single-digit layers, each of which
is itself a (possibly pandiagonal) magic square over the alphabet. Layers
are found by row-major backtracking with the last column and last row forced
by the running sums, and full squares are built as the lazy product of one
layer stream per place. A place's stream is the same on every pass of the
product: it is searched on its first pass, searched and recorded on the
pass after its first run-out, and replayed from the record after that. A
record holds at most all of that place's layers, each row stored once and
shared. The resulting line sum is exact:

    S1 = sum over places p of s_p * 10**(d-1-p)

so a 9x9 square over {0, 1, 2} with every layer summing to 9 has S1 = 9999.

Bimagic squares come from an affine construction over GF(3) whose digit
planes go through the same recompose and re-verify loop as the layer search.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

from . import verify
from .core import (Alphabet, BudgetExhausted, CodeWord, Grid, Square,
                   Unsatisfiable, WordTable, recompose)


# frames kept free for the caller of a search and the search's own fixed
# frames; the CLI needs 12 of them
_CALLER_FRAMES = 30


class _DeadlineHit(Exception):
    # internal cancellation signal; never escapes this module
    pass


@dataclass(frozen=True)
class SearchSpec:
    """What to search for.

    ``line_sums`` gives the target line sum of each digit plane, most
    significant place first; all 2n+2 lines of every plane (and every
    wrap-around diagonal, when ``pandiagonal`` is set) must hit it.
    With ``bimagic`` the only supported shape is order 9, width 4 over
    {0, 1, 2}, and ``line_sums`` defaults to (9, 9, 9, 9).

    ``deterministic`` makes the stream the lexicographically ordered one;
    otherwise the branching order is shuffled by a generator seeded from
    ``seed``, which is still reproducible run to run. A negative ``seed``
    is rejected with ValueError: ``random.Random`` seeds with its absolute
    value, so it would repeat the positive seed's stream.

    A spec whose searched width plus order**2 passes
    ``sys.getrecursionlimit()`` less ``_CALLER_FRAMES`` is rejected with
    ValueError. No search nests that deep now: the rule is only an upper
    bound on order**2 plus width, kept until seeded searches can restart.
    Searches stall below it too; ``budget_ms`` bounds a search's time.
    """

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

    def __post_init__(self):
        if self.order < 3:
            raise ValueError(f"order must be at least 3, got {self.order}")
        if self.width < 1:
            raise ValueError(f"width must be at least 1, got {self.width}")
        if self.limit < 1:
            raise ValueError(f"limit must be at least 1, got {self.limit}")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        if self.budget_ms is not None and self.budget_ms < 0:
            raise ValueError("budget must not be negative")
        if self.bimagic:
            if (self.order, self.width) != (9, 4):
                raise ValueError("bimagic search supports only order 9, width 4")
            if tuple(sorted(self.alphabet.digits)) != (0, 1, 2):
                raise ValueError("bimagic search supports only the {0,1,2} alphabet")
            if self.palindromic:
                raise ValueError("bimagic and palindromic cannot be combined "
                                 "(extend a bimagic square instead)")
            if self.pandiagonal:
                raise ValueError("bimagic search does not offer pandiagonality")
            if self.line_sums is None:
                object.__setattr__(self, "line_sums", (9, 9, 9, 9))
            elif self.line_sums != (9, 9, 9, 9):
                raise ValueError("bimagic squares over {0,1,2} force line sums "
                                 "(9, 9, 9, 9)")
        else:
            if self.line_sums is None:
                raise ValueError("line_sums is required")
            if len(self.line_sums) != self.width:
                raise ValueError(f"need {self.width} line sums, "
                                 f"got {len(self.line_sums)}")
        if self.palindromic and self.width % 2 != 0:
            raise ValueError("palindromic cells need an even width")
        if not self.bimagic:
            # an upper bound on order**2 plus the searched width: the
            # recursion limit less 30; it keeps no search from stalling
            depth = ((self.width // 2 if self.palindromic else self.width)
                     + self.order ** 2)
            limit = sys.getrecursionlimit()
            if depth > limit - _CALLER_FRAMES:
                raise ValueError(
                    f"order {self.order} with width {self.width} searches "
                    f"{depth} frames deep; the recursion limit {limit} "
                    f"allows {limit - _CALLER_FRAMES}")

    @property
    def s1(self) -> int:
        """The line sum every emitted square will have."""
        return sum(s * 10 ** (self.width - 1 - p)
                   for p, s in enumerate(self.line_sums))


def _layer_stream(order: int, alphabet: Alphabet, line_sum: int,
                  pandiagonal: bool = False,
                  rng: random.Random | None = None,
                  deadline: float | None = None) -> Iterator[Grid]:
    """Backtracking enumeration of single-digit magic layers, as grids.

    One loop walks the cells of rows 0 to n-2 in row-major order and keeps,
    for each, the digits it has still to try. A digit goes in only if every
    line through the cell that must sum to s can still reach s with its open
    cells at the smallest and largest digit. The last cell of each row is
    forced by the row sum and the whole last row by the column sums, so only
    an (n-1) x (n-1) corner is branched on. The last row is checked in one
    step: it sums to n*s - (n-1)*s = s by itself, so each of its digits must
    be in the alphabet and each diagonal that must sum to s must close at s.

    With ascending digit order the emission is lexicographic by row-major
    grid. An ``rng`` (a ``random.Random``) shuffles the digits of every
    branching cell entered, with the draws ``rng.shuffle`` makes; that
    changes the order of the grids but not their set.
    """
    n, s = order, line_sum
    digits = sorted(alphabet.digits)
    lo, hi = digits[0], digits[-1]
    if s < n * lo or s > n * hi:
        return
    members = frozenset(digits)
    # running sums in one list: rows, columns, the wrap-around diagonal
    # classes plus = (j - i) mod n and minus = (i + j) mod n, and one spare
    # slot for the digits of diagonals that need not sum to s
    col, plus, minus, spare = n, 2 * n, 3 * n, 4 * n
    sums = [0] * (4 * n + 1)
    # per branched or row-forced cell: the four sums it adds to, whether
    # the row forces it, the diagonal sums it is bounded by (its column's
    # when it is on no tracked diagonal) and the offsets of its bounds; a
    # diagonal class holds one cell per row, so after row i it has
    # n - 1 - i open cells, as many as the column
    cells = []
    for i in range(n - 1):
        for j in range(n):
            c = col + j
            p = plus + (j - i) % n if pandiagonal or i == j else spare
            q = minus + (i + j) % n if pandiagonal or i + j == n - 1 else spare
            row_open, col_open = n - 1 - j, n - 1 - i
            cells.append((i, c, p, q, j == n - 1,
                          c if p == spare else p, c if q == spare else q,
                          s - row_open * hi, s - row_open * lo,
                          s - col_open * hi, s - col_open * lo))
    lines = [cell[:4] for cell in cells]
    # each tracked diagonal ends in the last row, in the cell its column
    # forces, so it closes at s exactly when its sum equals the column's
    closes = [(plus + (j + 1) % n, col + j) for j in range(n)
              if pandiagonal or j == n - 1]
    closes += [(minus + (j - 1) % n, col + j) for j in range(n)
               if pandiagonal or j == 0]
    diagonals, columns = (operator.itemgetter(*ends) for ends in zip(*closes))
    # the alphabet's digits in [low, high], ascending, for lo <= low, high <= hi
    span = hi - lo + 1
    fitting = [tuple(d for d in digits if low <= d <= high)
               for low in range(lo, hi + 1) for high in range(lo, hi + 1)]
    shuffled = None if rng is None else _shuffles(rng, digits)
    grid = [0] * (n * (n - 1))
    todo: list[Iterator[int] | None] = [None] * len(grid)
    k = 0
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise _DeadlineHit
        if k < len(grid):
            r, c, p, q, forced, bp, bq, rlo, rhi, clo, chi = cells[k]
            row = sums[r]
            least = most = sums[c]
            x = sums[bp]
            if x < least:
                least = x
            elif x > most:
                most = x
            x = sums[bq]
            if x < least:
                least = x
            elif x > most:
                most = x
            low, high = rlo - row, rhi - row
            if clo - least > low:
                low = clo - least
            if chi - most < high:
                high = chi - most
            if forced:
                # rlo == rhi == s here, so low == high == s - row if it fits
                candidates = (low,) if low <= high and low in members else ()
            elif rng is None:
                if low < lo:
                    low = lo
                if high > hi:
                    high = hi
                candidates = (fitting[(low - lo) * span + high - lo]
                              if low <= high else ())
            else:
                candidates = next(shuffled)
                if low > lo or high < hi:
                    candidates = [d for d in candidates if low <= d <= high]
            todo[k] = it = iter(candidates)
            d = next(it, None)
        else:
            if diagonals(sums) == columns(sums):
                last = tuple([s - x for x in sums[col:plus]])
                if members.issuperset(last):
                    yield (*(tuple(grid[a:a + n]) for a in range(0, k, n)),
                           last)
            d = None
        # back up past every cell with no digit left to try
        while d is None:
            k -= 1
            if k < 0:
                return
            r, c, p, q = lines[k]
            d = grid[k]
            sums[r] -= d
            sums[c] -= d
            sums[p] -= d
            sums[q] -= d
            d = next(todo[k], None)
        grid[k] = d
        sums[r] += d
        sums[c] += d
        sums[p] += d
        sums[q] += d
        k += 1


def _shuffles(rng: random.Random, items: list) -> Iterator[list]:
    # fresh shuffled copies of items, with the draws rng.shuffle makes:
    # position i swaps with randbelow(i + 1), which draws
    # (i + 1).bit_length() bits until the value is at most i
    getrandbits = rng.getrandbits
    swaps = [(i, (i + 1).bit_length()) for i in range(len(items) - 1, 0, -1)]
    while True:
        out = items[:]
        for i, bits in swaps:
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            out[i], out[j] = out[j], out[i]
        yield out


def _choices(rng: random.Random, size: int) -> Iterator[int]:
    # the indexes successive rng.choice calls on `size` items pick: each is
    # randbelow(size), size.bit_length() bits drawn until the value is below
    # size
    draw = functools.partial(rng.getrandbits, size.bit_length())
    return filter(size.__gt__, iter(draw, -1))


def _prefix_distinct_ok(grids: list[Grid], places_left: int,
                        alphabet_size: int) -> bool:
    # cells sharing a digit prefix must still be separable by the remaining
    # places: a group larger than alphabet_size**places_left is hopeless
    keys = list(zip(*[itertools.chain.from_iterable(g) for g in grids]))
    budget = alphabet_size ** places_left
    if budget == 1:
        return len(set(keys)) == len(keys)
    return max(Counter(keys).values()) <= budget


def _reverify(values: list[list[int]], spec: SearchSpec) -> None:
    """Check a generated square's cell values against every line spec asks.

    ``values[i][j]`` is the exact value of cell (i, j), as the stream's
    word table hands it. All 2n+2 lines must sum to S1; with
    ``pandiagonal``, every broken diagonal too; with ``bimagic``, every
    line must also have squared sum S2 and every aligned 3x3 block sum S1.
    ``distinct`` and ``bimagic`` need n*n different values, which for cells
    of one width are n*n different cells, and ``palindromic`` needs every
    value, written with ``spec.width`` digits, to read the same reversed.
    The lines, broken diagonals and blocks come from ``verify``'s own
    enumeration. Emitted squares are re-verified, not trusted.
    """
    n, s1 = spec.order, spec.s1
    lines = verify._lines(values)
    if spec.bimagic:
        if verify._common_sums(lines) != (s1, _BIMAGIC_S2):
            raise AssertionError(f"generated square is not bimagic with "
                                 f"S1={s1}, S2={_BIMAGIC_S2}")
        if set(verify._block_sums(values, 3)) != {s1}:
            raise AssertionError(f"generated square has 3x3 blocks not "
                                 f"summing to {s1}")
    elif set(map(sum, lines)) != {s1}:
        raise AssertionError(f"generated square is not magic with S1={s1}")
    if (spec.pandiagonal
            and set(map(sum, verify._broken_diagonals(values))) != {s1}):
        raise AssertionError("generated square is not pandiagonal")
    if ((spec.distinct or spec.bimagic)
            and len({v for row in values for v in row}) != n * n):
        raise AssertionError("generated square has repeated cells")
    if spec.palindromic:
        texts = [f"{v:0{spec.width}}" for row in values for v in row]
        if any(t != t[::-1] for t in texts):
            raise AssertionError("generated square has non-palindromic cells")


def gen_square(spec: SearchSpec,
               on_budget: Callable[[int], None] | None = None
               ) -> Iterator[Square]:
    """Squares matching the spec, built as a product of layer streams.

    Provably empty requests raise Unsatisfiable immediately; a search that
    finishes without a single square raises it at the end. If the time
    budget runs out before the first square, BudgetExhausted is raised;
    after the first, the stream ends early and calls ``on_budget(k)``,
    when given, with the number k of squares it emitted.
    """
    if spec.bimagic:
        return bimagic_search(spec, on_budget)
    n = spec.order
    lo, hi = spec.alphabet.min_digit, spec.alphabet.max_digit
    for p, s in enumerate(spec.line_sums):
        if not n * lo <= s <= n * hi:
            raise Unsatisfiable(
                f"line sum {s} at place {p} is outside [{n * lo}, {n * hi}] "
                f"for order {n} over {spec.alphabet}")
    if spec.palindromic:
        for p in range(spec.width):
            if spec.line_sums[p] != spec.line_sums[spec.width - 1 - p]:
                raise Unsatisfiable(
                    "palindromic cells force mirror-symmetric line sums, "
                    f"got {spec.line_sums}")
    if spec.distinct:
        pool = len(spec.alphabet) ** (spec.width // 2 if spec.palindromic
                                      else spec.width)
        if pool < n * n:
            raise Unsatisfiable(
                f"only {pool} distinct cells are available but {n * n} are needed")
    return _square_stream(spec, _layer_planes, spec.alphabet, on_budget)


def _square_stream(spec: SearchSpec,
                   plane_source: Callable[[SearchSpec, float | None],
                                          Iterator[tuple[Grid, ...]]],
                   alphabet: Alphabet,
                   on_budget: Callable[[int], None] | None = None
                   ) -> Iterator[Square]:
    """The one emit loop of every search and construction.

    Each plane tuple from ``plane_source(spec, deadline)`` is stacked by
    ``recompose`` from a word table kept for the life of the stream, so
    each distinct cell is made and checked against ``alphabet`` once and
    the square's cells are not checked again. ``_reverify`` then checks
    the cells' values, which each word of the table works out once per
    stream, and the square is yielded and counted against the limit.
    """
    what = "bimagic square" if spec.bimagic else "square"
    deadline = (None if spec.budget_ms is None
                else time.monotonic() + spec.budget_ms / 1000.0)
    words = WordTable(alphabet)
    emitted = 0
    try:
        for planes in plane_source(spec, deadline):
            square = recompose(planes, words=words)
            _reverify([[c.value for c in row] for row in square.cells], spec)
            yield square
            emitted += 1
            if emitted >= spec.limit:
                return
    except _DeadlineHit:
        if emitted == 0:
            raise BudgetExhausted(
                f"no {what} found within {spec.budget_ms} ms") from None
        if on_budget is not None:
            on_budget(emitted)
        return
    if emitted == 0:
        raise Unsatisfiable("bimagic family exhausted" if spec.bimagic else
                            "search space exhausted without finding a square")


def _layer_planes(spec: SearchSpec, deadline: float | None
                  ) -> Iterator[tuple[Grid, ...]]:
    # the lazy product of one layer stream per searched digit place. A
    # place's stream is the same on every pass (its generator is seeded the
    # same way each time), so it is searched on its first pass, searched
    # and recorded on the pass after its first run-out, and replayed from
    # the record after that, with the deadline tested once per replayed
    # grid. Recording waits for a second pass, so a request that never
    # restarts a place keeps none of the grids its one pass walks. A record
    # holds at most all of the place's layers, each row stored once and
    # shared between them.
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

    # per place: the passes that ran out, and the record of its layers
    ran_out = [0] * search_width
    records: list[list[Grid]] = [[] for _ in range(search_width)]

    def layers(place: int) -> Iterator[Grid]:
        record = records[place]
        if ran_out[place] >= 2:
            for grid in record:
                if deadline is not None and time.monotonic() > deadline:
                    raise _DeadlineHit
                yield grid
            return
        stream = _layer_stream(n, spec.alphabet, sums[place],
                               pandiagonal=spec.pandiagonal,
                               rng=rng_for(place), deadline=deadline)
        if ran_out[place]:
            rows: dict[tuple[int, ...], tuple[int, ...]] = {}
            for grid in stream:
                grid = tuple([rows.setdefault(row, row) for row in grid])
                record.append(grid)
                yield grid
        else:
            yield from stream
        ran_out[place] += 1

    def rec(place: int) -> Iterator[tuple[Grid, ...]]:
        if place == search_width:
            # the mirrored planes make every cell w + reverse(w)
            yield (*grids, *grids[::-1]) if spec.palindromic else tuple(grids)
            return
        for grid in layers(place):
            grids.append(grid)
            if (not spec.distinct
                    or _prefix_distinct_ok(grids, search_width - place - 1,
                                           asize)):
                yield from rec(place + 1)
            grids.pop()

    return rec(0)


def bimagic_search(spec: SearchSpec,
                   on_budget: Callable[[int], None] | None = None
                   ) -> Iterator[Square]:
    """Order-9, width-4 bimagic squares over {0, 1, 2}.

    A cell's four digits are affine functions (r . (i1, i0, j1, j0) + offset)
    mod 3 of the base-3 digits of its row i and column j, one coefficient
    row r per place. Along a row, a column or a main diagonal these
    coordinates sweep a plane of directions (j1, j0), (i1, i0),
    (i1, i0, i1, i0) or (i1, i0, -i1, -i0), on which r acts as a vector of
    GF(3)^2. When in each direction the four rows' vectors lie on the four
    different lines through the origin, every pair of digit planes covers
    all nine value pairs on every line, so all 20 line sums are 9999 and all
    squared sums are equal. A nonzero i0 or j0 coefficient gives every
    aligned 3x3 block the sum 9999, and full rank makes all 81 cells
    distinct. Every square is still re-verified before it is emitted.
    """
    if (spec.order, spec.width) != (9, 4):
        raise ValueError("bimagic search supports only order 9, width 4")
    return _square_stream(spec, _bimagic_planes, Alphabet((0, 1, 2)),
                          on_budget)


def _bimagic_planes(spec: SearchSpec, deadline: float | None
                    ) -> Iterator[tuple[Grid, ...]]:
    if spec.deterministic:
        # lexicographic over coefficient matrices, zero offsets
        for matrix in _family_matrices():
            if deadline is not None and time.monotonic() > deadline:
                raise _DeadlineHit
            yield _affine_planes(matrix, (0, 0, 0, 0))
        return
    rng = random.Random(spec.seed)
    # four rng.choice(_ROWS) calls at a time, as row numbers
    numbers = _choices(rng, len(_ROWS))
    quads = zip(numbers, numbers, numbers, numbers)
    masks = _ROW_MASKS
    seen: set[tuple] = set()
    while len(seen) < _BIMAGIC_FAMILY_SIZE:
        if deadline is not None and time.monotonic() > deadline:
            raise _DeadlineHit
        # about one draw in 11664 is in the family, so this test is hot
        a, b, c, d = next(quads)
        if masks[a] | masks[b] | masks[c] | masks[d] != 0xFFFF:
            continue
        matrix = (_ROWS[a], _ROWS[b], _ROWS[c], _ROWS[d])
        if _full_rank(matrix):
            offsets = tuple(rng.randrange(3) for _ in range(4))
            if (matrix, offsets) not in seen:
                seen.add((matrix, offsets))
                yield _affine_planes(matrix, offsets)


def _line_mask(row: tuple[int, int, int, int]) -> int:
    # one bit per (direction, line through the origin) that the row's vector
    # lies on; 0 if the row is constant along some direction
    a, b, c, d = row
    mask = 0
    for k, (u, v) in enumerate(((c, d), (a, b), (a + c, b + d),
                                (a - c, b - d))):
        u, v = u % 3, v % 3
        if (u, v) == (0, 0):
            return 0
        # the lines are spanned by (1, 0), (0, 1), (1, 1) and (1, 2)
        mask |= 1 << (4 * k + (1 if u == 0 else (0, 2, 3)[v * u % 3]))
    return mask


# rows with i0 or j0 in play; the seeded sampler draws from all 72 of them
_ROWS = [r for r in itertools.product(range(3), repeat=4) if r[1] or r[3]]
# by row number; nonzero for the 48 rows that vary along all four directions
_ROW_MASKS = [_line_mask(r) for r in _ROWS]
_BIMAGIC_FAMILY_SIZE = 2304 * 81    # matrices times offsets
# every family square holds each of the 81 four-digit words once
_BIMAGIC_S2 = verify.s2_from_multiset(
    [CodeWord(w) for w in itertools.product((0, 1, 2), repeat=4)], 9)


def _family_matrices(prefix: tuple = (), used: int = 0
                     ) -> Iterator[tuple[tuple[int, int, int, int], ...]]:
    # the family's coefficient matrices in lexicographic order
    if len(prefix) == 4:
        if _full_rank(prefix):
            yield prefix
        return
    for row, mask in zip(_ROWS, _ROW_MASKS):
        if mask and not used & mask:
            yield from _family_matrices(prefix + (row,), used | mask)


def _full_rank(matrix: tuple[tuple[int, ...], ...]) -> bool:
    # elimination over GF(3), where each nonzero pivot is its own inverse
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


def _affine_planes(matrix: tuple[tuple[int, int, int, int], ...],
                   offsets: tuple[int, ...]) -> tuple[Grid, ...]:
    return tuple(
        tuple(tuple((a * (i // 3) + b * (i % 3) + c * (j // 3) + d * (j % 3)
                     + off) % 3 for j in range(9))
              for i in range(9))
        for (a, b, c, d), off in zip(matrix, offsets))
