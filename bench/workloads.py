"""The benchmark's workloads: CLI call sequences made from one seed.

A workload is a round of `digitsquares` calls run one after another (a
closed loop with one client). Each call carries the independent check of its
output. Everything a round needs, including the inspect document, is made
here from the benchmark seed; the program only sees the arguments and files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checker

NAMES = ("stream", "search", "inspect")

# Rough wall time of one round on the commit that introduced the benchmark
# (2-core Xeon VM; it varies with the host by 20 % and more). A run makes
# round(seconds / ROUND_S) rounds, so the work of a run is fixed by
# --seconds and is the same for every commit compared: a faster program
# finishes sooner instead of drawing more samples.
ROUND_S = {"stream": 2.0, "search": 18.0, "inspect": 3.4}


def rounds(name: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[name]))


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check its stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[bytes], int]   # raises CheckFailed, else squares checked

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _generate(args: list[str], **expect) -> Call:
    argv = ("generate", *args, "--format", "json")
    return Call(argv, partial(checker.check_generated, **expect))


# At --limit 5000 a call took 2.5 s and a 36 s run held 14 calls, too few
# for a percentile with ten calls above it, so latency_tail_s was the
# slowest call, which one slowed call moves (it spread by 29 % between runs
# of the same code). At 2000 a run holds 36 calls.
STREAM_LIMIT = 2000


def stream(seed: int, workdir: Path) -> list[Call]:
    # cost barely depends on the program seed, so the seeds themselves vary
    rng = random.Random(f"stream/{seed}")
    return [_generate(["--order", "4", "--width", "4", "--line-sum", "4",
                       "--limit", str(STREAM_LIMIT),
                       "--seed", str(rng.randrange(10 ** 6))],
                      order=4, width=4, line_sums=[4] * 4, limit=STREAM_LIMIT)
            for _ in range(2)]


# Time to a result swings by two orders of magnitude with the program seed
# (order 5 distinct: median 0.07 s, seed 16 takes 5.9 s), so a handful of
# seed-derived requests would measure the draw, not the program. Every run
# therefore asks for the same requests, tail included; the benchmark seed
# only decides their order. The two bimagic requests are the only calls of
# any workload through the GF(3) construction.
SEARCH_PANDIAGONAL_SEEDS = range(10)
SEARCH_DISTINCT_SEEDS = range(20)
SEARCH_BIMAGIC_SEEDS = (1, 2)
SEARCH_BIMAGIC_LIMIT = 15


def search(seed: int, workdir: Path) -> list[Call]:
    rng = random.Random(f"search/{seed}")
    pan = [_generate(["--order", "6", "--width", "4", "--line-sum", "6",
                      "--pandiagonal", "--seed", str(k)],
                     order=6, width=4, line_sums=[6] * 4, pandiagonal=True)
           for k in SEARCH_PANDIAGONAL_SEEDS]
    dis = [_generate(["--order", "5", "--width", "4", "--line-sum", "5",
                      "--distinct", "--seed", str(k)],
                     order=5, width=4, line_sums=[5] * 4, distinct=True)
           for k in SEARCH_DISTINCT_SEEDS]
    rng.shuffle(pan)
    rng.shuffle(dis)
    mixed = [c for pair in itertools.zip_longest(pan, dis) for c in pair]
    mixed = [c for c in mixed if c is not None]
    for k in SEARCH_BIMAGIC_SEEDS:
        mixed.insert(rng.randrange(len(mixed) + 1), _generate(
            ["--order", "9", "--width", "4", "--bimagic",
             "--limit", str(SEARCH_BIMAGIC_LIMIT), "--seed", str(k)],
            order=9, width=4, limit=SEARCH_BIMAGIC_LIMIT, bimagic=True))
    return mixed


# One affine map over GF(3) whose four digit planes give an order-9 bimagic
# square: digit p of cell (i, j) is row p of the matrix applied to the base-3
# digits (i1, i0, j1, j0) of the coordinates, plus an offset. Permuting the
# planes and shifting the offsets keeps the property, which yields the 729
# blocks of the inspect document; each is re-checked when it is built.
BLOCK_MATRIX = ((0, 1, 1, 0), (1, 0, 0, 2), (1, 1, 2, 1), (1, 2, 1, 1))
# Blocks per side: order 162, 26244 cells. At order 243 a call took 1 to
# 1.8 s and a 36 s run held 30 calls, so the tail percentile fell on the
# second-cheapest of the 12 verify and decompose calls, where one slowed
# transform or render call moved it. At order 162 a run holds about 60
# calls and that percentile sits inside the group of the slowest calls.
INSPECT_BLOCKS = 18
INSPECT_S1 = INSPECT_BLOCKS * checker.BIMAGIC_S1


def _block(matrix, offsets) -> list[list[str]]:
    rows = []
    for i in range(9):
        row = []
        for j in range(9):
            x = (i // 3, i % 3, j // 3, j % 3)
            row.append("".join(
                str((sum(c * v for c, v in zip(mrow, x)) + off) % 3)
                for mrow, off in zip(matrix, offsets)))
        rows.append(row)
    return rows


def inspect_document(seed: int) -> checker.InspectDocument:
    """Order-162 composite of 324 of the 729 bimagic blocks, drawn and placed
    by a seeded permutation."""
    blocks = []
    for perm in itertools.islice(itertools.permutations(range(4)), 9):
        matrix = tuple(BLOCK_MATRIX[p] for p in perm)
        for offsets in itertools.product(range(3), repeat=4):
            block = _block(matrix, offsets)
            checker.check_square(block, checker.BIMAGIC_S1, bimagic=True)
            blocks.append(block)
    random.Random(f"inspect/{seed}").shuffle(blocks)
    m = INSPECT_BLOCKS
    rows = [[blocks[(i // 9) * m + j // 9][i % 9][j % 9] for j in range(9 * m)]
            for i in range(9 * m)]
    return checker.InspectDocument(rows, "012")


def inspect(seed: int, workdir: Path) -> list[Call]:
    doc = inspect_document(seed)
    path = workdir / f"inspect-{seed}.json"
    path.write_text(json.dumps(doc.as_json()), encoding="utf-8")
    src = str(path)
    return [
        Call(("verify", "--magic", "--blocks", "9", "--format", "json", src),
             partial(doc.check_verify, blocks=9, s1=INSPECT_S1)),
        Call(("transform", "--rotate180", src),
             partial(doc.check_transform, rotate=True)),
        Call(("transform", "--mirror", src),
             partial(doc.check_transform, rotate=False)),
        Call(("render", src), doc.check_render),
        Call(("decompose", "--format", "json", src), doc.check_decompose),
    ]


BUILDERS = {"stream": stream, "search": search, "inspect": inspect}
