"""Re-verification on integers against the checks of `verify`.

Every plane source feeds the emit loop (`generate._square_stream`), which
stacks the planes from its word table and re-verifies the cell values on
plain ints. The oracle stacks the same planes with the public `recompose`
and asks `verify.check_*` the same questions. Both must accept the planes
the sources make and reject the same corrupted ones.

Both sides take their rows, columns, diagonals, broken diagonals and 3x3
blocks from the one line enumeration in `core`, which `verify` imports and
`tests/test_verify_oracle.py` holds to the code-word checks in
`tests/oracle.py`. What this file still checks on its own is the rest of
the emit loop: the square the word table stacks for `_reverify`, and
the mapping from a spec to its checks (which lines, sums, blocks and cell
properties `pandiagonal`, `distinct`, `palindromic` and `bimagic` ask for).
"""

import itertools

import pytest

from digitsquares import (CodeWord, SearchSpec, check_bimagic, check_blocks,
                          check_magic, check_pandiagonal, construct,
                          entry_properties, generate, recompose,
                          s2_from_multiset)

BIMAGIC_S2 = s2_from_multiset(
    [CodeWord(w) for w in itertools.product((0, 1, 2), repeat=4)], 9)


def oracle_accepts(planes, spec):
    """Whether the planes stack to a square with every property spec asks."""
    try:
        square = recompose(planes, spec.alphabet)
    except ValueError:
        return False
    if spec.bimagic:
        ok = (check_bimagic(square) == (spec.s1, BIMAGIC_S2)
              and check_blocks(square, 3) == spec.s1)
    else:
        ok = check_magic(square) == spec.s1
    entries = entry_properties(square)
    return (ok and (not spec.pandiagonal or check_pandiagonal(square))
            and (not (spec.distinct or spec.bimagic) or entries.distinct)
            and (not spec.palindromic or entries.palindromic))


def stream_accepts(planes, spec):
    """Whether the emit loop lets the planes through as a square."""
    squares = generate._square_stream(spec, lambda spec, deadline: [planes])
    try:
        (square,) = squares
    except (AssertionError, ValueError):
        return False
    assert square == recompose(planes, spec.alphabet)
    return True


def source(spec):
    plane_source = (construct._bimagic_planes if spec.bimagic
                    else generate._layer_planes)
    return plane_source(spec, None)


SPECS = {
    "seeded": SearchSpec(order=4, width=4, line_sums=(4,) * 4, seed=5),
    "deterministic": SearchSpec(order=4, width=3, line_sums=(3, 4, 5),
                                deterministic=True),
    "pandiagonal": SearchSpec(order=4, width=2, line_sums=(4, 4),
                              pandiagonal=True, seed=1),
    "distinct": SearchSpec(order=4, width=3, line_sums=(4,) * 3,
                           distinct=True, seed=2),
    "palindromic": SearchSpec(order=4, width=4, line_sums=(4,) * 4,
                              palindromic=True, seed=3),
    "palindromic distinct": SearchSpec(order=4, width=6, line_sums=(4,) * 6,
                                       palindromic=True, distinct=True,
                                       deterministic=True),
    "bimagic seeded": SearchSpec(order=9, width=4, bimagic=True, seed=7),
    "bimagic deterministic": SearchSpec(order=9, width=4, bimagic=True,
                                        deterministic=True),
}


def replaced(planes, p, i, j, digit):
    """The planes with plane p's digit at (i, j) set to digit."""
    out = [list(map(list, plane)) for plane in planes]
    out[p][i][j] = digit
    return tuple(tuple(map(tuple, plane)) for plane in out)


@pytest.mark.parametrize("name", SPECS)
def test_both_accept_every_square_the_sources_make(name):
    spec = SPECS[name]
    for planes in itertools.islice(source(spec), 40):
        assert stream_accepts(planes, spec)
        assert oracle_accepts(planes, spec)


@pytest.mark.parametrize("name", SPECS)
def test_both_reject_one_changed_digit_and_a_digit_outside_the_alphabet(name):
    spec = SPECS[name]
    n, width = spec.order, spec.width
    for k, planes in enumerate(itertools.islice(source(spec), 10)):
        p, i, j = k % width, k % n, (3 * k + 1) % n
        other = (planes[p][i][j] + 1 + k % 2) % 3
        for digit in (other, 3):
            corrupt = replaced(planes, p, i, j, digit)
            assert not stream_accepts(corrupt, spec)
            assert not oracle_accepts(corrupt, spec)


# the planes of one spec read under another that asks for more
@pytest.mark.parametrize("made, asked, rejects", [
    ("seeded", "distinct", "repeated cells"),
    ("seeded", "pandiagonal", "not pandiagonal"),
    ("seeded", "palindromic", "non-palindromic cells"),
])
def test_both_reject_squares_missing_a_property(made, asked, rejects):
    made, asked = SPECS[made], SPECS[asked]
    # the same line sums, so only the asked property can fail
    asked = SearchSpec(order=made.order, width=made.width,
                       line_sums=made.line_sums,
                       pandiagonal=asked.pandiagonal, distinct=asked.distinct,
                       palindromic=asked.palindromic)
    verdicts = set()
    for planes in itertools.islice(source(made), 60):
        accepted = stream_accepts(planes, asked)
        assert accepted == oracle_accepts(planes, asked)
        verdicts.add(accepted)
        if not accepted:
            with pytest.raises(AssertionError, match=rejects):
                list(generate._square_stream(
                    asked, lambda spec, deadline: [planes]))
    assert False in verdicts


def test_both_reject_a_wrong_s2_under_bimagic():
    spec = SPECS["bimagic deterministic"]
    for planes in itertools.islice(source(spec), 10):
        # every plane alone still sums to 9 on every line, so S1 holds
        corrupt = (*planes[:3], planes[2])
        assert check_magic(recompose(corrupt)) == spec.s1
        assert check_bimagic(recompose(corrupt)) != (spec.s1, BIMAGIC_S2)
        assert not oracle_accepts(corrupt, spec)
        with pytest.raises(AssertionError, match="not bimagic"):
            list(generate._square_stream(
                spec, lambda spec, deadline: [corrupt]))



def test_both_reject_3x3_blocks_off_s1_under_bimagic():
    spec = SPECS["bimagic deterministic"]
    # moving rows and columns alike by a permutation that commutes with
    # i -> 8 - i keeps every line a line, but mixes the 3x3 blocks
    sigma = (0, 1, 3, 2, 4, 6, 5, 7, 8)
    for planes in itertools.islice(source(spec), 10):
        moved = tuple(tuple(tuple(plane[a][b] for b in sigma) for a in sigma)
                      for plane in planes)
        assert check_bimagic(recompose(moved)) == (spec.s1, BIMAGIC_S2)
        assert check_blocks(recompose(moved), 3) != spec.s1
        assert not oracle_accepts(moved, spec)
        with pytest.raises(AssertionError, match="3x3 blocks"):
            list(generate._square_stream(
                spec, lambda spec, deadline: [moved]))


# order-5 layers g((a i + b j) mod 5), magic with sum 5: with (a, b) = (1, 1)
# every +k broken diagonal meets each residue once and every -k one a
# single residue, and the other way round with (1, 4)
@pytest.mark.parametrize("a, b, g", [(1, 1, (0, 2, 0, 2, 1)),
                                     (1, 4, (1, 0, 2, 0, 2))])
def test_both_reject_broken_diagonals_off_s1_in_one_direction(a, b, g):
    spec = SearchSpec(order=5, width=1, line_sums=(5,), pandiagonal=True)
    layer = tuple(tuple(g[(a * i + b * j) % 5] for j in range(5))
                  for i in range(5))
    assert check_magic(recompose((layer,))) == 5
    assert not oracle_accepts((layer,), spec)
    with pytest.raises(AssertionError, match="not pandiagonal"):
        list(generate._square_stream(
            spec, lambda spec, deadline: [(layer,)]))
