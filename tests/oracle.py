"""Exhaustive enumeration of width-1 magic squares, the layer search's oracle."""

import itertools

from digitsquares import Alphabet, CodeWord, Square, verify


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
