"""Algebraic constructions of digit squares: the GF(3) bimagic family.

Order-9, width-4 bimagic squares over {0, 1, 2}. A cell's four digits are
affine functions (r . (i1, i0, j1, j0) + offset) mod 3 of the base-3
digits of its row i and column j, one coefficient row r per place. Along a
row, a column or a main diagonal these coordinates sweep a plane of
directions (j1, j0), (i1, i0), (i1, i0, i1, i0) or (i1, i0, -i1, -i0), on
which r acts as a vector of GF(3)^2. When in each direction the four rows'
vectors lie on the four different lines through the origin, every pair of
digit planes covers all nine value pairs on every line, so all 20 line sums
are 9999 and all squared sums are equal. A nonzero i0 or j0 coefficient
gives every aligned 3x3 block the sum 9999, and full rank makes all 81
cells distinct. The planes go through ``generate``'s emit loop, which
re-verifies every square before it is emitted.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Iterator

from .core import Grid, _DeadlineHit


def _bimagic_planes(spec, deadline: float | None
                    ) -> Iterator[tuple[Grid, ...]]:
    # spec is a bimagic SearchSpec, read only for deterministic and seed
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
    # plane p is R[i] + C[j] + offset mod 3, with R[i] = a*i1 + b*i0 and
    # C[j] = c*j1 + d*j0: row i is one of three rows, picked by R[i] mod 3,
    # so each of those is built once and shared
    planes = []
    for (a, b, c, d), off in zip(matrix, offsets):
        part = [c * (j // 3) + d * (j % 3) + off for j in range(9)]
        rows = [tuple([(r + x) % 3 for x in part]) for r in range(3)]
        planes.append(tuple([rows[(a * (i // 3) + b * (i % 3)) % 3]
                             for i in range(9)]))
    return tuple(planes)
