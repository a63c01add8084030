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

import itertools
import math
import operator
import random
import time
from collections import Counter
from typing import Callable, Iterator

from .core import (Alphabet, BudgetExhausted, Grid, Square, Unsatisfiable,
                   WordTable, _block_sums, _broken_diagonals, _common_sums,
                   _lines, _quote, _Record, _values, recompose)


# the largest order and number of searched digit places a layer search
# takes, checked before anything is built; the largest each could be under
# the recursion-limit rule these replace, so no request it took is refused
_MAX_ORDER = 31
_MAX_PLACES = 961


class _DeadlineHit(Exception):
    # internal cancellation signal; never escapes this module
    pass


class SearchSpec(_Record):
    """What to search for.

    ``line_sums`` gives the target line sum of each digit plane, most
    significant place first, or one sum for every place; all 2n+2 lines of
    every plane (and every wrap-around diagonal, when ``pandiagonal`` is
    set) must hit it. With ``bimagic`` the only supported shape is order 9,
    width 4 over {0, 1, 2}; the spec's alphabet is then (0, 1, 2) and
    ``line_sums`` defaults to (9, 9, 9, 9).

    ``deterministic`` makes the stream the lexicographically ordered one;
    otherwise the branching order is shuffled by a generator seeded from
    ``seed``, which is still reproducible run to run. A negative ``seed``
    is rejected with ValueError: ``random.Random`` seeds with its absolute
    value, so it would repeat the positive seed's stream.

    A layer search of order above 31, or of more than 961 searched places
    (half the width when ``palindromic``), is rejected with ValueError
    before anything is built. Searches stall below these bounds too;
    ``budget_ms`` bounds a search's time, and must be below 10**308.

    ``places`` is the number of digit places searched, half the width when
    ``palindromic``, and ``s1`` the line sum every emitted square will
    have, both worked out when the spec is made.
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
            raise ValueError(
                f"order must be at least 3, got {_quote(self.order)}")
        if self.width < 1:
            raise ValueError(
                f"width must be at least 1, got {_quote(self.width)}")
        if self.limit < 1:
            raise ValueError(
                f"limit must be at least 1, got {_quote(self.limit)}")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        if self.budget_ms is not None and self.budget_ms < 0:
            raise ValueError("budget must not be negative")
        if self.budget_ms is not None and self.budget_ms >= 10 ** 308:
            # the deadline is a float of seconds, and floats end near 1.8e308
            raise ValueError(f"budget must be below 10**308 ms, got "
                             f"{_quote(self.budget_ms)}")
        object.__setattr__(self, "places", self.width // 2 if self.palindromic
                           else self.width)
        if not self.bimagic and (
                self.order > _MAX_ORDER or self.places > _MAX_PLACES):
            raise ValueError(
                f"order {_quote(self.order)} with width {_quote(self.width)} "
                f"is too large a search: the order may be at most "
                f"{_MAX_ORDER} and the searched places (half the width when "
                f"palindromic) at most {_MAX_PLACES}")
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
            object.__setattr__(self, "alphabet", Alphabet((0, 1, 2)))
            if self.line_sums is None:
                object.__setattr__(self, "line_sums", (9, 9, 9, 9))
        elif self.line_sums is None:
            raise ValueError("line_sums is required")
        if len(self.line_sums) == 1:
            # one sum for every place, expanded only within the bounds
            object.__setattr__(self, "line_sums", self.line_sums * self.width)
        if self.bimagic and self.line_sums != (9, 9, 9, 9):
            raise ValueError("bimagic squares over {0,1,2} force line sums "
                             "(9, 9, 9, 9)")
        if len(self.line_sums) != self.width:
            raise ValueError(f"need 1 or {self.width} line sums, "
                             f"got {len(self.line_sums)}")
        if self.palindromic and self.width % 2 != 0:
            raise ValueError("palindromic cells need an even width")
        object.__setattr__(self, "s1", sum(s * 10 ** (self.width - 1 - p)
                                           for p, s in enumerate(self.line_sums)))


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
    # the digits each branching cell entered tries: ascending, or shuffled
    orderings = (itertools.repeat(digits) if rng is None
                 else _shuffles(rng, digits))
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
            else:
                candidates = next(orderings)
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


def _prefix_distinct_ok(grids: list[Grid], places_left: int,
                        alphabet_size: int) -> bool:
    # cells sharing a digit prefix must still be separable by the remaining
    # places: a group larger than alphabet_size**places_left is hopeless
    keys = list(zip(*[itertools.chain.from_iterable(g) for g in grids]))
    budget = alphabet_size ** places_left
    if budget == 1:
        # the count below tests the same, about 3x slower; nearly every
        # call of a distinct search is at the last place, with budget 1
        return len(set(keys)) == len(keys)
    return max(Counter(keys).values()) <= budget


def _reverify(square: Square, spec: SearchSpec) -> None:
    """Check a generated square against every line and cell rule spec asks.

    The lines are summed over the cells' values, which each word worked
    out when the stream's word table made it. All 2n+2 lines must sum to
    S1; with ``pandiagonal``, every broken diagonal too; with ``bimagic``,
    every line must also have squared sum S2 and every aligned 3x3 block
    sum S1. ``distinct`` and ``bimagic`` need n*n different values, which
    for cells of one width are n*n different cells, and ``palindromic``
    needs every cell's digits to read the same reversed. The lines, broken
    diagonals and blocks come from the one enumeration in ``core`` that
    ``verify`` reads too. Emitted squares are re-verified, not trusted.
    """
    n, s1 = spec.order, spec.s1
    values = _values(square)
    lines = _lines(values)
    if spec.bimagic:
        if _common_sums(lines) != (s1, _BIMAGIC_S2):
            raise AssertionError(f"generated square is not bimagic with "
                                 f"S1={s1}, S2={_BIMAGIC_S2}")
        if set(_block_sums(values, 3)) != {s1}:
            raise AssertionError(f"generated square has 3x3 blocks not "
                                 f"summing to {s1}")
    elif set(map(sum, lines)) != {s1}:
        raise AssertionError(f"generated square is not magic with S1={s1}")
    if (spec.pandiagonal
            and set(map(sum, _broken_diagonals(values))) != {s1}):
        raise AssertionError("generated square is not pandiagonal")
    if ((spec.distinct or spec.bimagic)
            and len({v for row in values for v in row}) != n * n):
        raise AssertionError("generated square has repeated cells")
    if spec.palindromic and not all(
            c.is_palindrome() for row in square.cells for c in row):
        raise AssertionError("generated square has non-palindromic cells")


def gen_square(spec: SearchSpec,
               on_budget: Callable[[int], None] | None = None
               ) -> Iterator[Square]:
    """Squares matching the spec, built as a product of layer streams.

    A request that no square can meet raises Unsatisfiable before any
    search starts, by the first of these rules it breaks:

    - every place's line sum lies in [n*lo, n*hi] for the alphabet's
      smallest and largest digit;
    - palindromic cells need mirror-symmetric line sums;
    - ``distinct`` needs n*n cells among those the searched places' sums
      let a cell hold;
    - every place's line sum is a multiple of gcd(n, 6) for pandiagonal
      layers, and of 3 for magic layers of order 3.

    A search that finishes without a single square raises it at the end.
    If the time budget runs out before the first square, BudgetExhausted is
    raised; after the first, the stream ends early and calls
    ``on_budget(k)``, when given, with the number k of squares it emitted.
    """
    if spec.bimagic:
        return bimagic_search(spec, on_budget)
    n, lo, hi = spec.order, spec.alphabet.min_digit, spec.alphabet.max_digit
    for p, s in enumerate(spec.line_sums):
        if not n * lo <= s <= n * hi:
            raise Unsatisfiable(
                f"line sum {_quote(s)} at place {p} is outside "
                f"[{n * lo}, {n * hi}] for order {n} over {spec.alphabet}")
    if spec.palindromic and spec.line_sums != spec.line_sums[::-1]:
        raise Unsatisfiable("palindromic cells force mirror-symmetric line "
                            f"sums, got {_quote(spec.line_sums)}")
    if spec.distinct:
        # a cell shares its row with n-1 digits in [lo, hi], so at a place
        # with sum s it holds a digit d with s-(n-1)hi <= d <= s-(n-1)lo;
        # the mirrored places of a palindromic cell follow from the others
        pool = 1
        for s in spec.line_sums[:spec.places]:
            pool *= sum(s - (n - 1) * hi <= d <= s - (n - 1) * lo
                        for d in spec.alphabet)
        if pool < n * n:
            raise Unsatisfiable(
                f"only {pool} distinct cells are available but {n * n} are needed")
    # Why a layer's line sum s is a multiple of m:
    # - Order 3: the middle row, the middle column and both diagonals hold
    #   every cell once and the centre three more times, so they add to
    #   4s = 3s + 3*centre, and s = 3*centre.
    # - Pandiagonal, for p in {2, 3} dividing n and p^a the largest power
    #   of p dividing n: weight row i by -2i^2, column j by -2j^2 and the
    #   broken diagonals j - i = k and i + j = k (mod n) by k^2, for
    #   0 <= i, j, k < n. Cell (i, j) gets -2i^2 - 2j^2 + (j - i)^2
    #   + (i + j)^2 = 0, modulo M = 2^(a+1) for p = 2 and 3^a for p = 3:
    #   reducing x = j - i or i + j by t*n moves x^2 by t*n*(t*n - 2x), a
    #   multiple of M. So s*W = 0 (mod M) for the total weight
    #   W = -n(n - 1)(2n - 1)/3, which holds exactly a factors of 2 (p = 2)
    #   or a - 1 factors of 3 (p = 3); hence p divides s.
    m = math.gcd(n, 6) if spec.pandiagonal else 3 if n == 3 else 1
    for p, s in enumerate(spec.line_sums):
        if s % m:
            raise Unsatisfiable(
                f"line sum {s} at place {p} is not a multiple of {m}, as "
                f"every {'pandiagonal' if spec.pandiagonal else 'magic'} "
                f"layer of order {n} needs")
    return _square_stream(spec, _layer_planes, on_budget)


def _square_stream(spec: SearchSpec,
                   plane_source: Callable[[SearchSpec, float | None],
                                          Iterator[tuple[Grid, ...]]],
                   on_budget: Callable[[int], None] | None = None
                   ) -> Iterator[Square]:
    """The one emit loop of every search and construction.

    Each plane tuple from ``plane_source(spec, deadline)`` is stacked by
    ``recompose`` from a word table kept for the life of the stream, which
    trusts the source's planes: each distinct cell is made and checked
    against the spec's alphabet once, and each distinct row of the planes
    once while the table's bounded row memo holds it. ``_reverify`` then
    checks the cells' values, which each word worked out when the table
    made it, and the square is yielded and counted against the limit.
    """
    deadline = (None if spec.budget_ms is None
                else time.monotonic() + spec.budget_ms / 1000.0)
    words = WordTable(spec.alphabet)
    emitted = 0
    try:
        for planes in plane_source(spec, deadline):
            square = recompose(planes, words=words)
            _reverify(square, spec)
            yield square
            emitted += 1
            if emitted >= spec.limit:
                return
    except _DeadlineHit:
        if emitted == 0:
            raise BudgetExhausted(
                f"no {'bimagic square' if spec.bimagic else 'square'} found "
                f"within {spec.budget_ms} ms") from None
        if on_budget is not None:
            on_budget(emitted)
        return
    if emitted == 0:
        raise Unsatisfiable("search space exhausted without finding a square")


def _layer_planes(spec: SearchSpec, deadline: float | None
                  ) -> Iterator[tuple[Grid, ...]]:
    # the lazy product of one layer stream per searched digit place, walked
    # by one loop over a stack of the open streams, one per place up to the
    # one being drawn from. A place's stream is the same on every pass (its
    # generator is seeded the same way each time), so it is searched on its
    # first pass, searched and recorded on the pass after its first run-out,
    # and replayed from the record after that, with the deadline tested once
    # per replayed grid. Recording waits for a second pass, so a request
    # that never restarts a place keeps none of the grids its one pass
    # walks. A record holds at most all of the place's layers, each row
    # stored once and shared between them; it is made on a pass that
    # repeats a finished pass, so it never holds more grids than the first
    # pass walked.
    search_width = spec.places
    asize = len(spec.alphabet)

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
        rng = (None if spec.deterministic
               else random.Random(spec.seed * 65537 + place))
        stream = _layer_stream(spec.order, spec.alphabet, spec.line_sums[place],
                               pandiagonal=spec.pandiagonal, rng=rng,
                               deadline=deadline)
        if ran_out[place]:
            rows: dict[tuple[int, ...], tuple[int, ...]] = {}
            for grid in stream:
                grid = tuple([rows.setdefault(row, row) for row in grid])
                record.append(grid)
                yield grid
        else:
            yield from stream
        ran_out[place] += 1

    # the layer drawn at each place below the top stream's
    grids: list[Grid] = []
    streams = [layers(0)]
    while streams:
        grid = next(streams[-1], None)
        if grid is None:
            # the top place ran out: drop the layer drawn below it, if any,
            # so the place below draws its next
            streams.pop()
            del grids[-1:]
            continue
        grids.append(grid)
        if spec.distinct and not _prefix_distinct_ok(
                grids, search_width - len(grids), asize):
            grids.pop()
        elif len(grids) < search_width:
            streams.append(layers(len(grids)))
        else:
            # the mirrored planes make every cell w + reverse(w)
            yield (*grids, *grids[::-1]) if spec.palindromic else tuple(grids)
            grids.pop()


def bimagic_search(spec: SearchSpec,
                   on_budget: Callable[[int], None] | None = None
                   ) -> Iterator[Square]:
    """Order-9, width-4 bimagic squares over {0, 1, 2}; spec must be a
    bimagic SearchSpec, the one guard of that shape (not checked again here).

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
    return _square_stream(spec, _bimagic_planes, on_budget)


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
    # rng.choice(_ROWS) draws getrandbits(7), the top 7 bits of one 32-bit
    # word, until they are below 72: so of a block of words, the top bytes
    # below 144 are the picks, twice each row number plus a spare bit.
    # Every four picks are one matrix, and its rows' line masks OR to
    # 0xFFFF when both mask bytes do, tested for a whole block at once by
    # ORing each pick's mask byte with the next three's in one integer.
    kept = 2 * len(_ROWS)
    rejects = bytes(range(kept, 256))
    tables = [bytes(_ROW_MASKS[b >> 1] >> shift & 0xFF for b in range(kept))
              .ljust(256, b"\0") for shift in (0, 8)]
    seen: set[tuple] = set()
    picks = b""
    while len(seen) < _BIMAGIC_FAMILY_SIZE:
        if deadline is not None and time.monotonic() > deadline:
            raise _DeadlineHit
        start = rng.getstate()
        top = rng.getrandbits(32 * _BLOCK_WORDS).to_bytes(
            4 * _BLOCK_WORDS, "little")[3::4]
        carried = len(picks)
        # the picks after the block's last whole matrix carry over
        picks += top.translate(None, rejects)
        whole = len(picks) // 4 * 4
        covered = -1
        for table in tables:
            x = int.from_bytes(picks[:whole].translate(table), "little")
            covered &= x | x >> 8 | x >> 16 | x >> 24
        found = covered.to_bytes(whole, "little")[::4]
        q = found.find(0xFF)
        while q >= 0:
            matrix = tuple(_ROWS[b >> 1] for b in picks[4 * q:4 * q + 4])
            if _full_rank(matrix):
                break
            q = found.find(0xFF, q + 1)
        else:
            picks = picks[whole:]
            continue
        # put rng where the matrix's last pick left it, k words on
        k = [*itertools.compress(itertools.count(1), map(kept.__gt__, top))
             ][4 * q + 3 - carried]
        rng.setstate(start)
        rng.getrandbits(32 * k)
        picks = b""
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
# words the seeded sampler draws at a time
_BLOCK_WORDS = 4096
# S2 of every family square, which holds each of the 81 four-digit words
# over {0, 1, 2} once: verify.s2_from_multiset of those words at order 9
_BIMAGIC_S2 = 17169495
# the 24 column orders of a 4x4 matrix, each with its sign
_SIGNED_ORDERS = [
    (p, (-1) ** sum(a > b for a, b in itertools.combinations(p, 2)))
    for p in itertools.permutations(range(4))]


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
    # full rank over GF(3): a determinant that 3 does not divide
    a, b, c, d = matrix
    return sum(sign * a[i] * b[j] * c[k] * d[m]
               for (i, j, k, m), sign in _SIGNED_ORDERS) % 3 != 0


def _affine_planes(matrix: tuple[tuple[int, int, int, int], ...],
                   offsets: tuple[int, ...]) -> tuple[Grid, ...]:
    return tuple(
        tuple(tuple((a * (i // 3) + b * (i % 3) + c * (j // 3) + d * (j % 3)
                     + off) % 3 for j in range(9))
              for i in range(9))
        for (a, b, c, d), off in zip(matrix, offsets))
