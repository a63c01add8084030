"""Line sums, property checks, the S2 oracle and the constant audit."""

import pytest

from digitsquares import (Alphabet, BadBlockSize, CodeWord, InvalidState,
                          SearchSpec, Square, audit_published_values,
                          check_bimagic, check_blocks, check_magic,
                          check_pandiagonal, entry_properties, gen_square,
                          line_sums, pythagoras_check, report,
                          s2_from_multiset, verify)
from digitsquares.verify import NotDivisible


def uniform(order, text):
    return Square.from_strings([[text] * order for _ in range(order)])


def test_line_sums_shape(lo_shu):
    lines = line_sums(lo_shu)
    assert len(lines) == 8
    assert [ln.label for ln in lines] == [
        "row 0", "row 1", "row 2", "col 0", "col 1", "col 2",
        "diag main", "diag anti"]
    assert all(ln.total == 33 for ln in lines)


def test_line_sums_squares(lo_shu):
    # 10^2 + 22^2 + 1^2 = 585 on the first row
    assert line_sums(lo_shu)[0].square_total == 585


def test_check_magic(lo_shu, lo_shu_extended):
    assert check_magic(lo_shu) == 33
    assert check_magic(lo_shu_extended) == 3333
    assert check_magic(uniform(3, "1")) == 3


def test_check_magic_rejects_near_misses(lo_shu):
    rows = lo_shu.to_strings()
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    assert check_magic(Square.from_strings(rows)) is None


def test_check_bimagic():
    assert check_bimagic(uniform(3, "1")) == (3, 3)
    assert check_bimagic(uniform(4, "05")) == (20, 100)


def test_check_bimagic_needs_both(lo_shu):
    # magic but the squared sums differ from line to line
    assert check_magic(lo_shu) == 33
    assert check_bimagic(lo_shu) is None


def test_check_pandiagonal_needs_magic():
    sq = Square.from_strings([["1", "2"], ["2", "2"]])
    with pytest.raises(InvalidState):
        check_pandiagonal(sq)


def test_check_pandiagonal(lo_shu):
    # cyclic layers keep single symbols on wrap-around diagonals
    assert check_pandiagonal(lo_shu) is False
    cyclic = Square.from_strings(
        [[str((2 * i + j) % 5) for j in range(5)] for i in range(5)])
    assert check_magic(cyclic) == 10
    assert check_pandiagonal(cyclic) is True


def test_check_pandiagonal_bimagic_flag():
    assert check_pandiagonal(uniform(3, "1"), bimagic=True) is True
    with pytest.raises(InvalidState):
        check_pandiagonal(Square.from_strings([["1", "2"], ["2", "1"]]),
                          bimagic=True)


def test_check_blocks():
    assert check_blocks(uniform(4, "1"), 2) == 4
    assert check_blocks(uniform(4, "1"), 4) == 16
    ragged = Square.from_strings([["1", "2"], ["2", "1"]])
    assert check_blocks(ragged, 1) is None


def test_check_blocks_bad_size(lo_shu):
    with pytest.raises(BadBlockSize):
        check_blocks(lo_shu, 2)
    with pytest.raises(BadBlockSize):
        check_blocks(lo_shu, 0)
    with pytest.raises(BadBlockSize):
        check_blocks(lo_shu, 4)


def test_entry_properties(lo_shu, lo_shu_extended):
    props = entry_properties(lo_shu)
    # all nine width-2 words appear, so the rotation permutes the multiset
    assert not props.palindromic
    assert props.distinct
    assert props.rotation_closed
    ext = entry_properties(lo_shu_extended)
    assert ext.palindromic and ext.distinct and ext.rotation_closed


def test_entry_properties_counterexamples():
    dull = uniform(3, "1")
    props = entry_properties(dull)
    assert props.palindromic
    assert not props.distinct
    assert props.rotation_closed
    sevens = uniform(3, "7")
    assert not entry_properties(sevens).rotation_closed
    # 6 rotates to 9, which is not in the multiset
    sixes = Square.from_strings([["6", "1"], ["1", "6"]])
    assert not entry_properties(sixes).rotation_closed


def test_pythagoras_check():
    res = pythagoras_check(3333, 4444, 5555)
    assert res.holds
    assert (res.left, res.right) == (30858025, 30858025)
    assert not pythagoras_check(3, 4, 6).holds


def test_s2_from_multiset_small():
    assert s2_from_multiset([CodeWord((1,))] * 9, 3) == 3
    assert s2_from_multiset([1] * 9, 3) == 3


def test_s2_from_multiset_matches_direct_sum():
    words = [CodeWord((a, b, c, d))
             for a in (0, 1, 2) for b in (0, 1, 2)
             for c in (0, 1, 2) for d in (0, 1, 2)]
    total = sum(int(str(w)) ** 2 for w in words)
    assert total % 9 == 0
    assert s2_from_multiset(words, 9) == total // 9 == 17169495


def test_s2_from_multiset_not_divisible():
    entries = [1] + [0] * 8
    with pytest.raises(NotDivisible) as err:
        s2_from_multiset(entries, 3)
    assert err.value.remainder == 1
    assert err.value.exact.numerator == 1
    assert err.value.exact.denominator == 3


def test_s2_from_multiset_checks_count():
    with pytest.raises(ValueError):
        s2_from_multiset([1, 2, 3], 3)


def test_report(lo_shu_extended):
    rep = report(lo_shu_extended)
    assert rep.order == 3
    assert rep.width == 4
    assert rep.s1 == 3333
    assert rep.s2 is None
    assert rep.magic and not rep.bimagic
    assert not rep.pandiagonal and not rep.pandiagonal_bimagic
    assert rep.blocks == ((3, 9999),)
    assert rep.entries.palindromic
    assert len(rep.lines) == 8


def _bimagic_nine():
    spec = SearchSpec(order=9, width=4, bimagic=True, deterministic=True)
    return next(iter(gen_square(spec)))


REPORTED = {
    "lo_shu": lambda lo_shu: lo_shu,
    "bimagic": lambda lo_shu: _bimagic_nine(),
    "pandiagonal bimagic": lambda lo_shu: uniform(3, "1"),
    "pandiagonal": lambda lo_shu: Square.from_strings(
        [[str((2 * i + j) % 5) for j in range(5)] for i in range(5)]),
    "not magic": lambda lo_shu: Square.from_strings([["1", "2"], ["2", "2"]]),
}


@pytest.mark.parametrize("name", sorted(REPORTED))
def test_report_agrees_with_individual_checks(name, lo_shu):
    square = REPORTED[name](lo_shu)
    rep = report(square)
    s1 = check_magic(square)
    pair = check_bimagic(square)
    assert rep.s1 == s1
    assert rep.s2 == (pair[1] if pair else None)
    assert rep.magic == (s1 is not None)
    assert rep.bimagic == (pair is not None)
    assert rep.pandiagonal == (s1 is not None and check_pandiagonal(square))
    assert rep.pandiagonal_bimagic == (
        pair is not None and check_pandiagonal(square, bimagic=True))
    assert rep.lines == tuple(line_sums(square))
    assert rep.entries == entry_properties(square)


def test_report_sums_each_line_once(monkeypatch):
    # one read of the cells, one enumeration of the lines and one of the
    # broken diagonals serve every sum-based property
    calls = []

    def counted(name):
        original = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda arg: calls.append(name) or original(arg))

    counted("_values")
    counted("_lines")
    counted("_broken_diagonals")
    rep = report(uniform(3, "1"))
    assert rep.pandiagonal and rep.pandiagonal_bimagic
    assert sorted(calls) == ["_broken_diagonals", "_lines", "_values"]


def test_report_as_dict(lo_shu):
    payload = report(lo_shu).as_dict()
    assert payload["s1"] == 33
    assert payload["blocks"] == [{"size": 3, "sum": 99}]
    assert payload["lines"][0] == {"label": "row 0", "sum": 33,
                                   "square_sum": 585}


def test_audit_flags_the_inconsistent_constants():
    audits = audit_published_values()
    assert len(audits) == 3
    assert len({a.label for a in audits}) == 3

    four = audits[0]
    assert four.computed == 17169495
    assert four.claimed == (17169395, 17169495)
    assert four.consistent == (False, True)

    eight = audits[1]
    assert eight.computed == 1717172174949495
    assert eight.computed % 10 == 5
    assert eight.consistent == (False,)

    six = audits[2]
    assert six.computed == 172916950695
    assert six.consistent == (True,)
