import warnings

import pytest

from digitsquares import Alphabet, Square, palindromic_extend

# Hypothesis imports libcst to write a failing example's patch, and that
# import warns with DeprecationWarning: under "-W error" the run would end in
# INTERNALERROR and hide the example. The command-line -W overrides a
# pytest.ini filter, so libcst is imported here once with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def lo_shu():
    """Order 3, width 2 over {0,1,2}; every row, column and diagonal sums to 33."""
    return Square.from_strings(
        [["10", "22", "01"], ["02", "11", "20"], ["21", "00", "12"]],
        Alphabet((0, 1, 2)))


@pytest.fixture
def lo_shu_extended(lo_shu):
    """The palindromic extension of lo_shu: width 4, line sums 3333."""
    return palindromic_extend(lo_shu)
