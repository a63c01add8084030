"""Acceptance suite: eleven criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the verdict lines as
they happen. Timing bounds are asserted, not just observed; all sums are
exact integers with zero tolerance.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

from digitsquares import (Alphabet, CodeWord, MIRROR, ROTATION_180,
                          SearchSpec, Square, audit_published_values,
                          check_bimagic, check_blocks, check_magic,
                          check_pandiagonal, compose_blocks, decompose,
                          entry_properties, gen_square, mirror_codeword,
                          pythagoras_check, recompose, rotate_codeword,
                          rotate_square, rotate_text, s2_from_multiset)
from digitsquares.cli import main
from digitsquares.generate import _layer_stream, bimagic_search
from digitsquares.sevenseg import render_codeword
from oracle import square_document


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL  {label}")
        raise
    print(f"criterion {num:02d} PASS  {label}")


def clocked():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


def line_totals(rows):
    """Plain-integer recomputation of all 2n+2 line sums, no package code."""
    n = len(rows)
    vals = [[int(c) for c in row] for row in rows]
    out = [sum(r) for r in vals]
    out += [sum(vals[i][j] for i in range(n)) for j in range(n)]
    out.append(sum(vals[i][i] for i in range(n)))
    out.append(sum(vals[i][n - 1 - i] for i in range(n)))
    return out


def test_criterion_01_pythagorean_identity():
    with criterion(1, "3333^2 + 4444^2 = 5555^2 with exact squares"):
        tick = clocked()
        res = pythagoras_check(3333, 4444, 5555)
        elapsed = tick()
        assert res.holds
        assert 3333 ** 2 == 11108889
        assert 4444 ** 2 == 19749136
        assert 5555 ** 2 == 30858025
        assert res.left == 11108889 + 19749136 == res.right == 30858025
        assert elapsed < 0.001


def test_criterion_02_fixture_rows_sum_to_repdigits():
    with criterion(2, "fixture rows sum to 3333, 4444 and 5555"):
        tick = clocked()
        rows = (
            (["1221", "1111", "1001"], 3333),
            (["1012", "2101", "1210", "0121"], 4444),
            (["2002", "2222", "0011", "0200", "1120"], 5555),
        )
        sums = [(sum(int(c) for c in cells), want) for cells, want in rows]
        elapsed = tick()
        assert all(got == want for got, want in sums)
        assert elapsed < 0.001


def test_criterion_03_order_3_generation(tmp_path, capsys):
    with criterion(3, "order 3: S1=33 distinct and S1=3333 palindromic, "
                      "each under 1 s"):
        out2 = tmp_path / "w2.json"
        tick = clocked()
        code = main(["generate", "--order", "3", "--width", "2",
                     "--line-sum", "3", "--distinct", "--out", str(out2)])
        elapsed = tick()
        capsys.readouterr()
        assert code == 0
        assert elapsed < 1.0
        rows = json.loads(out2.read_text())["rows"]
        assert set(line_totals(rows)) == {33}
        assert len({c for row in rows for c in row}) == 9

        out4 = tmp_path / "w4.json"
        tick = clocked()
        code = main(["generate", "--order", "3", "--width", "4",
                     "--line-sum", "3", "--palindromic", "--distinct",
                     "--out", str(out4)])
        elapsed = tick()
        capsys.readouterr()
        assert code == 0
        assert elapsed < 1.0
        rows = json.loads(out4.read_text())["rows"]
        assert set(line_totals(rows)) == {3333}
        assert all(c == c[::-1] for row in rows for c in row)


def test_criterion_04_orders_4_and_5():
    with criterion(4, "S1=4444 distinct under 10 s; S1=5555 pandiagonal "
                      "under 60 s"):
        tick = clocked()
        four = next(iter(gen_square(SearchSpec(
            order=4, width=4, line_sums=(4,) * 4, distinct=True,
            deterministic=True))))
        elapsed = tick()
        assert elapsed < 10.0
        assert check_magic(four) == 4444
        assert set(line_totals(four.to_strings())) == {4444}
        assert entry_properties(four).distinct

        tick = clocked()
        five = next(iter(gen_square(SearchSpec(
            order=5, width=4, line_sums=(5,) * 4, pandiagonal=True,
            deterministic=True))))
        elapsed = tick()
        assert elapsed < 60.0
        assert check_magic(five) == 5555
        assert check_pandiagonal(five)
        g = [[int(c) for c in row] for row in five.to_strings()]
        for k in range(5):
            assert sum(g[i][(i + k) % 5] for i in range(5)) == 5555
            assert sum(g[i][(k - i) % 5] for i in range(5)) == 5555


def test_criterion_05_rotation_keeps_s1():
    with criterion(5, "rotate_square re-verifies with identical S1 on 100 "
                      "generated squares under 5 s"):
        tick = clocked()
        squares = list(gen_square(SearchSpec(
            order=3, width=4, line_sums=(3,) * 4, limit=100, seed=9)))
        assert len(squares) == 100
        for sq in squares:
            s1 = check_magic(sq)
            assert s1 == 3333
            assert check_magic(rotate_square(sq)) == s1
        assert tick() < 5.0


def test_criterion_06_layer_stream_matches_exhaustive_enumeration():
    with criterion(6, "_layer_stream equals the exhaustive set for every "
                      "s in 0..6 under 10 s"):
        tick = clocked()
        by_sum = {s: set() for s in range(7)}
        for flat in itertools.product((0, 1, 2), repeat=9):
            g = (flat[0:3], flat[3:6], flat[6:9])
            sums = {sum(g[0]), sum(g[1]), sum(g[2])}
            sums.update(g[0][j] + g[1][j] + g[2][j] for j in range(3))
            sums.add(g[0][0] + g[1][1] + g[2][2])
            sums.add(g[0][2] + g[1][1] + g[2][0])
            if len(sums) == 1:
                by_sum[sums.pop()].add(g)
        for s in range(7):
            found = set(_layer_stream(3, Alphabet((0, 1, 2)), s))
            assert found == by_sum[s]
        assert len(by_sum[3]) == 5
        assert tick() < 10.0


def test_criterion_07_bimagic_audit_and_search():
    with criterion(7, "S2 oracle fixes 17169495 and flags 17169395; emitted "
                      "bimagic squares verify (9999, 17169495) with 9999 "
                      "blocks"):
        words = [CodeWord(w) for w in itertools.product((0, 1, 2), repeat=4)]
        assert s2_from_multiset(words, 9) == 17169495
        audit = audit_published_values()[0]
        # both circulated constants must be surfaced, one of them flagged
        assert set(audit.claimed) == {17169395, 17169495}
        assert dict(zip(audit.claimed, audit.consistent)) == {
            17169395: False, 17169495: True}

        spec = SearchSpec(order=9, width=4, bimagic=True, deterministic=True,
                          budget_ms=600_000)
        squares = list(itertools.islice(bimagic_search(spec), 1))
        for sq in squares:
            assert check_bimagic(sq) == (9999, 17169495)
            assert check_blocks(sq, 3) == 9999
            assert set(line_totals(sq.to_strings())) == {9999}
        assert len(squares) == 1


def test_criterion_08_palindromic_s2_ends_in_five():
    with criterion(8, "palindromic-extension S2 ends in 5, so the circulated "
                      "value ending in 0 is unattainable"):
        tick = clocked()
        ext = [CodeWord(w + w[::-1])
               for w in itertools.product((0, 1, 2), repeat=4)]
        s2 = s2_from_multiset(ext, 9)
        assert s2 % 10 == 5
        assert s2 == 1717172174949495
        assert s2 != 1717172174949490
        audit = audit_published_values()[1]
        assert audit.consistent == (False,)
        assert tick() < 1.0


def test_criterion_09_round_trips_and_rendering_laws():
    with criterion(9, "1000 decompose round trips, 500 text-rotation "
                      "commutes, 500 mirror involutions under 5 s"):
        tick = clocked()
        rng = random.Random(1102)
        for _ in range(1000):
            n = rng.randint(1, 5)
            w = rng.randint(1, 4)
            cells = tuple(
                tuple(CodeWord(tuple(rng.randint(0, 9) for _ in range(w)))
                      for _ in range(n))
                for _ in range(n))
            sq = Square(cells)
            assert recompose(decompose(sq)).cells == sq.cells
        pool = sorted(ROTATION_180)
        for _ in range(500):
            word = CodeWord(tuple(rng.choice(pool)
                                  for _ in range(rng.randint(1, 6))))
            assert rotate_text(render_codeword(word)) \
                == render_codeword(rotate_codeword(word))
        mpool = sorted(MIRROR)
        for _ in range(500):
            word = CodeWord(tuple(rng.choice(mpool)
                                  for _ in range(rng.randint(1, 6))))
            assert mirror_codeword(mirror_codeword(word)) == word
        assert tick() < 5.0


def test_criterion_10_deterministic_runs_are_byte_identical(tmp_path, capsys):
    with criterion(10, "two cmd_generate runs with --deterministic --seed 0 "
                       "match byte for byte under 60 s"):
        tick = clocked()
        args = ["generate", "--order", "4", "--width", "4", "--line-sum", "4",
                "--distinct", "--limit", "3", "--deterministic", "--seed", "0"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert tick() < 60.0


def test_criterion_11_composite_blocks_and_exit_codes(tmp_path, capsys):
    with criterion(11, "composed squares verify S1=222222220 with constant "
                       "blocks; exit codes 0/1/2/3 as contracted"):
        # sixteen order-4 blocks, each with line sums 55555555, tile order 16
        blocks = list(gen_square(SearchSpec(
            order=4, width=8, line_sums=(5,) * 8, limit=16,
            deterministic=True)))
        assert all(check_magic(b) == 55555555 for b in blocks)
        sixteen = compose_blocks(
            [[blocks[4 * i + j] for j in range(4)] for i in range(4)])
        assert sixteen.order == 16
        assert check_magic(sixteen) == 4 * 55555555 == 222222220
        assert check_blocks(sixteen, 4) == 222222220

        # twenty-five order-5 blocks, line sums 44444444, tile order 25
        blocks = list(gen_square(SearchSpec(
            order=5, width=8, line_sums=(4,) * 8, limit=25,
            deterministic=True)))
        assert all(check_magic(b) == 44444444 for b in blocks)
        twentyfive = compose_blocks(
            [[blocks[5 * i + j] for j in range(5)] for i in range(5)])
        assert check_magic(twentyfive) == 5 * 44444444 == 222222220
        assert check_blocks(twentyfive, 5) == 222222220

        # the order-16 composite through the CLI, plus the exit contract
        path = tmp_path / "sixteen.json"
        path.write_text(json.dumps(square_document(sixteen)))
        code = main(["verify", "--magic", "--blocks", "4", str(path)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "s1: 222222220" in out
        assert "block 4: 222222220" in out
        assert "check blocks 4: PASS" in out

        assert check_bimagic(sixteen) is None
        code = main(["verify", "--bimagic", str(path)])
        capsys.readouterr()
        assert code == 1

        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code = main(["verify", str(broken)])
        _, err = capsys.readouterr()
        assert code == 2
        assert err

        code = main(["generate", "--order", "3", "--width", "1",
                     "--line-sum", "7"])
        capsys.readouterr()
        assert code == 3
