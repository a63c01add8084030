"""Oracles for the layer search: exhaustive enumeration of width-1 magic
squares, and the recursive backtracker the one-loop search replaced; and
for the CLI's JSON writer, the document as a dict for ``json.dumps``."""

from __future__ import annotations

import itertools
import random
import time
from typing import Iterator

from digitsquares import Alphabet, CodeWord, Square, verify
from digitsquares.core import Grid
from digitsquares.generate import _DeadlineHit


def square_document(square: Square) -> dict:
    """The JSON document of a square, keys in the order they are written."""
    out: dict = {"order": square.order, "width": square.width}
    if square.alphabet is not None:
        out["alphabet"] = str(square.alphabet)
    out["rows"] = square.to_strings()
    return out


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
