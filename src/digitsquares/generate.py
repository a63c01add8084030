"""Digit-square search, and the emit loop it shares with every construction.

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
                   _DeadlineHit, _lines, _quote, _Record, _values, recompose)


# the largest order and number of searched digit places a layer search
# takes, checked before anything is built; the largest each could be under
# the recursion-limit rule these replace, so no request it took is refused
_MAX_ORDER = 31
_MAX_PLACES = 961


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


# S2 of every family square, which holds each of the 81 four-digit words
# over {0, 1, 2} once: verify.s2_from_multiset of those words at order 9
_BIMAGIC_S2 = 17169495


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
    """Order-9, width-4 bimagic squares over {0, 1, 2}, built by the GF(3)
    construction in ``construct``; spec must be a bimagic SearchSpec, the
    one guard of that shape (not checked again here)."""
    from . import construct
    return _square_stream(spec, construct._bimagic_planes, on_budget)

