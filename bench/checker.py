"""Independent checker for the output of digitsquares CLI calls.

Nothing here imports digitsquares: every property is recomputed from the
printed text with plain integer arithmetic, so a change to the package that
alters what it prints cannot also alter what this module expects.
"""

from __future__ import annotations

import itertools
import json

ROTATE = {0: 0, 1: 1, 2: 2, 5: 5, 6: 9, 8: 8, 9: 6}
MIRROR = {0: 0, 1: 1, 2: 5, 5: 2, 8: 8}

# lit segments per digit: a top, b top right, c bottom right, d bottom,
# e bottom left, f top left, g middle
SEGMENTS = {0: "abcdef", 1: "bc", 2: "abdeg", 3: "abcdg", 4: "bcfg",
            5: "acdfg", 6: "acdefg", 7: "abc", 8: "abcdefg", 9: "abcdfg"}

# every four-digit word over {0, 1, 2} once: the cell multiset of an order-9
# bimagic square, which forces S2 = (sum of squared values) / 9
BIMAGIC_WORDS = ["".join(w) for w in itertools.product("012", repeat=4)]
BIMAGIC_S1 = 9999
BIMAGIC_S2 = sum(int(w) ** 2 for w in BIMAGIC_WORDS) // 9


class CheckFailed(Exception):
    """The output of one call is not what the request promises."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def lines_of(values: list[list[int]]) -> list[list[int]]:
    """Rows, columns, main diagonal and anti diagonal, in that order."""
    n = len(values)
    return (values + [[values[i][j] for i in range(n)] for j in range(n)]
            + [[values[i][i] for i in range(n)],
               [values[i][n - 1 - i] for i in range(n)]])


def broken_diagonals(values: list[list[int]]) -> list[list[int]]:
    n = len(values)
    return ([[values[i][(i + k) % n] for i in range(n)] for k in range(n)]
            + [[values[i][(k - i) % n] for i in range(n)] for k in range(n)])


def common(sums: list[int]) -> int | None:
    return sums[0] if len(set(sums)) == 1 else None


def block_sums(values: list[list[int]], k: int) -> list[int]:
    n = len(values)
    return [sum(sum(values[bi + di][bj:bj + k]) for di in range(k))
            for bi in range(0, n, k) for bj in range(0, n, k)]


def parse_json(stdout: bytes) -> object:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def grid_of(doc: object, order: int, width: int, alphabet: str) -> list[list[str]]:
    """The rows of one square document, after checking its shape."""
    _require(isinstance(doc, dict), "square document is not an object")
    _require(doc.get("order") == order and doc.get("width") == width,
             f"shape {doc.get('order')}x{doc.get('width')}, "
             f"expected {order}x{width}")
    _require(doc.get("alphabet") == alphabet,
             f"alphabet {doc.get('alphabet')!r}, expected {alphabet!r}")
    rows = doc.get("rows")
    _require(isinstance(rows, list) and len(rows) == order,
             f"expected {order} rows")
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == order,
                 f"row {i} does not have {order} cells")
        for j, cell in enumerate(row):
            _require(isinstance(cell, str) and len(cell) == width
                     and set(cell) <= set(alphabet),
                     f"cell ({i}, {j}) = {cell!r} is not {width} digits "
                     f"from {alphabet!r}")
    return rows


def check_square(rows: list[list[str]], s1: int, *, pandiagonal: bool = False,
                 distinct: bool = False, bimagic: bool = False) -> None:
    """Check the line sums and the requested properties of one grid."""
    order = len(rows)
    values = [[int(c) for c in row] for row in rows]
    lines = lines_of(values)
    _require(all(sum(ln) == s1 for ln in lines), f"a line does not sum to {s1}")
    if pandiagonal:
        _require(all(sum(ln) == s1 for ln in broken_diagonals(values)),
                 f"a broken diagonal does not sum to {s1}")
    if distinct or bimagic:
        _require(len({c for row in rows for c in row}) == order * order,
                 "cells repeat")
    if bimagic:
        _require(all(sum(v * v for v in ln) == BIMAGIC_S2 for ln in lines),
                 f"a squared line sum is not {BIMAGIC_S2}")
        _require(all(s == BIMAGIC_S1 for s in block_sums(values, 3)),
                 f"a 3x3 block does not sum to {BIMAGIC_S1}")


def check_generated(stdout: bytes, *, order: int, width: int,
                    line_sums: list[int] | None = None, limit: int = 1,
                    alphabet: str = "012", pandiagonal: bool = False,
                    distinct: bool = False, bimagic: bool = False) -> int:
    """Check a `generate --format json` output; return the squares it holds."""
    if bimagic:
        s1 = BIMAGIC_S1
    else:
        s1 = sum(s * 10 ** (width - 1 - p) for p, s in enumerate(line_sums))
    docs = parse_json(stdout)
    _require(isinstance(docs, list), "generate output is not a JSON list")
    _require(len(docs) == limit, f"{len(docs)} squares, expected {limit}")
    seen = set()
    for idx, doc in enumerate(docs):
        rows = grid_of(doc, order, width, alphabet)
        key = tuple(map(tuple, rows))
        _require(key not in seen, f"square {idx} repeats an earlier one")
        seen.add(key)
        try:
            check_square(rows, s1, pandiagonal=pandiagonal, distinct=distinct,
                         bimagic=bimagic)
        except CheckFailed as exc:
            raise CheckFailed(f"square {idx}: {exc}") from None
    return len(docs)


def transform_rows(rows: list[list[str]], table: dict[int, int],
                   rotate: bool) -> list[list[str]]:
    """Rotate a grid a half turn, or mirror it left to right, cell by cell."""
    n = len(rows)
    src = [list(reversed(row)) for row in rows]
    if rotate:
        src.reverse()
    return [["".join(str(table[int(d)]) for d in reversed(cell)) for cell in row]
            for row in src]


def render_rows(rows: list[list[str]]) -> str:
    """Seven-segment art of a grid, laid out as `digitsquares render` does."""
    def glyph(d: str) -> tuple[str, ...]:
        on = SEGMENTS[int(d)]
        chart = ((" ", "a_", " "), ("f|", "g_", "b|"), ("e|", "d_", "c|"))
        return tuple("".join(spot[1] if spot[0] in on else " " for spot in line)
                     for line in chart)

    glyphs = {d: glyph(d) for d in "0123456789"}
    out: list[str] = []
    for i, row in enumerate(rows):
        if i:
            out.append("")
        for r in range(3):
            out.append("  ".join(" ".join(glyphs[d][r] for d in cell)
                                 for cell in row).rstrip())
    return "\n".join(out)


class InspectDocument:
    """The composite square the inspect workload reads, with its expected facts."""

    def __init__(self, rows: list[list[str]], alphabet: str):
        self.rows = rows
        self.alphabet = alphabet
        self.order = len(rows)
        self.width = len(rows[0][0])
        self.values = [[int(c) for c in row] for row in rows]

    def as_json(self) -> dict:
        return {"order": self.order, "width": self.width,
                "alphabet": self.alphabet, "rows": self.rows}

    def check_verify(self, stdout: bytes, blocks: int, s1: int) -> int:
        rep = parse_json(stdout)
        _require(isinstance(rep, dict), "verify output is not an object")
        lines = lines_of(self.values)
        sums = [sum(ln) for ln in lines]
        squares = [sum(v * v for v in ln) for ln in lines]
        own_s1 = common(sums)
        _require(own_s1 == s1, f"document line sum {own_s1}, expected {s1}")
        s2 = common(squares)
        broken = broken_diagonals(self.values)
        pandiagonal = all(sum(ln) == s1 for ln in broken)
        pan_bimagic = s2 is not None and all(
            sum(ln) == s1 and sum(v * v for v in ln) == s2 for ln in broken)
        words = [c for row in self.rows for c in row]
        rotated = sorted("".join(str(ROTATE[int(d)]) for d in reversed(w))
                         for w in words if all(int(d) in ROTATE for d in w))
        n = self.order
        expected = {
            "order": n, "width": self.width, "s1": s1, "s2": s2,
            "magic": True, "bimagic": s2 is not None,
            "pandiagonal": pandiagonal, "pandiagonal_bimagic": pan_bimagic,
            "blocks": [{"size": k, "sum": common(block_sums(self.values, k))}
                       for k in range(2, n + 1) if n % k == 0],
            "entries": {
                "palindromic": all(w == w[::-1] for w in words),
                "distinct": len(set(words)) == len(words),
                "rotation_closed": rotated == sorted(words),
            },
            "checks": [{"name": "magic", "ok": True},
                       {"name": f"blocks {blocks}",
                        "ok": common(block_sums(self.values, blocks)) is not None}],
        }
        for key, want in expected.items():
            _require(rep.get(key) == want,
                     f"verify reports {key}={rep.get(key)!r}, expected {want!r}")
        labels = ([f"row {i}" for i in range(n)] + [f"col {j}" for j in range(n)]
                  + ["diag main", "diag anti"])
        want_lines = [{"label": lab, "sum": s, "square_sum": q}
                      for lab, s, q in zip(labels, sums, squares)]
        _require(rep.get("lines") == want_lines, "verify line sums differ")
        return 1

    def check_transform(self, stdout: bytes, rotate: bool) -> int:
        table = ROTATE if rotate else MIRROR
        image_alphabet = "".join(sorted(str(table[int(d)]) for d in self.alphabet))
        expected = {"order": self.order, "width": self.width,
                    "alphabet": image_alphabet,
                    "rows": transform_rows(self.rows, table, rotate)}
        _require(parse_json(stdout) == expected,
                 "transformed square differs from the expected image")
        return 1

    def check_render(self, stdout: bytes) -> int:
        text = stdout.decode("utf-8")
        expected = render_rows(self.rows) + "\n"
        want_lines = 4 * self.order - 1
        _require(text.count("\n") == want_lines,
                 f"render printed {text.count(chr(10))} lines, "
                 f"expected {want_lines}")
        _require(text == expected, "rendered art differs from the expected art")
        return 1

    def check_decompose(self, stdout: bytes) -> int:
        doc = parse_json(stdout)
        _require(isinstance(doc, dict) and doc.get("order") == self.order
                 and doc.get("width") == self.width,
                 "decompose output has the wrong shape")
        layers = doc.get("layers")
        w, n = self.width, self.order
        _require(isinstance(layers, list) and len(layers) == w,
                 f"expected {w} layers")
        total = [[0] * n for _ in range(n)]
        for p, layer in enumerate(layers):
            plane = [[int(cell[p]) for cell in row] for row in self.rows]
            want = {"place": p, "scale": 10 ** (w - 1 - p),
                    "line_sum": common([sum(ln) for ln in lines_of(plane)]),
                    "rows": plane}
            _require(layer == want, f"layer {p} differs from the input's plane")
            for i in range(n):
                for j in range(n):
                    total[i][j] += layer["rows"][i][j] * layer["scale"]
        _require(total == self.values, "layers do not restack to the input")
        return 1
