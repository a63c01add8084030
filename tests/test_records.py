"""The package's records against the dataclasses they were.

Each record is a plain class on ``core._Record``; ``oracle.py`` keeps its
``@dataclass`` twin, with the same fields, defaults and flags and without the
checks. Built from the same values, a record and its twin agree on what a
frozen dataclass offers: repr, equality, hashing, CodeWord's order, pickling,
construction by position and keyword, and the errors of a bad call or an
assignment.
"""

import dataclasses
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsquares import (Alphabet, CodeWord, PropertyReport, SearchSpec,
                          Square)
from digitsquares.cli import SquareDocument
from digitsquares.verify import (ClaimAudit, EntryProperties, LineSum,
                                 PythagorasResult)
from oracle import (AlphabetTwin, ClaimAuditTwin, CodeWordTwin,
                    EntryPropertiesTwin, LineSumTwin, PropertyReportTwin,
                    PythagorasResultTwin, SearchSpecTwin, SquareDocumentTwin,
                    SquareTwin)

# small ranges, so that two draws are often equal
small = st.integers(0, 2)
words = st.lists(small, min_size=1, max_size=3).map(tuple)
optional = st.one_of(st.none(), small)


@st.composite
def squares(draw):
    n, w = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    word = st.tuples(*[small] * w).map(CodeWord)
    cells = tuple(tuple(draw(word) for _ in range(n)) for _ in range(n))
    return cells, draw(st.sampled_from([None, Alphabet()]))


@st.composite
def search_specs(draw):
    # values SearchSpec's checks take and leave as they are: one line sum
    # per place, not bimagic
    palindromic = draw(st.booleans())
    width = draw(st.integers(1, 2)) * (2 if palindromic else 1)
    return (draw(st.integers(3, 4)), width,
            draw(st.sampled_from([Alphabet(), Alphabet((0, 1))])),
            tuple(draw(small) for _ in range(width)), draw(st.booleans()),
            draw(st.booleans()), palindromic, False, draw(st.integers(1, 2)),
            draw(small), draw(st.sampled_from([None, 0, 5, 10 ** 308 - 1])),
            draw(st.booleans()))


lines = st.tuples(st.sampled_from(["row 0", "col 1"]), small, small)
entries = st.tuples(st.booleans(), st.booleans(), st.booleans())

# each record, its twin and a strategy for its field values in order
RECORDS = [
    (Alphabet, AlphabetTwin,
     st.tuples(st.lists(small, min_size=1, unique=True).map(tuple))),
    (CodeWord, CodeWordTwin, st.tuples(words)),
    (Square, SquareTwin, squares()),
    (SquareDocument, SquareDocumentTwin,
     st.tuples(small, st.lists(st.lists(st.sampled_from(["1", "02"]),
                                        max_size=2), max_size=2),
               st.sampled_from([None, Alphabet()]))),
    (SearchSpec, SearchSpecTwin, search_specs()),
    (LineSum, LineSumTwin, lines),
    (EntryProperties, EntryPropertiesTwin, entries),
    (PythagorasResult, PythagorasResultTwin, st.tuples(*[small] * 5)),
    (PropertyReport, PropertyReportTwin,
     st.tuples(small, small, optional, optional, *[st.booleans()] * 4,
               st.lists(st.tuples(small, optional), max_size=2).map(tuple),
               entries.map(lambda v: EntryProperties(*v)),
               st.lists(lines.map(lambda v: LineSum(*v)), max_size=2)
               .map(tuple))),
    (ClaimAudit, ClaimAuditTwin,
     st.tuples(st.sampled_from(["a", "b"]),
               st.lists(small, max_size=2).map(tuple), small,
               st.lists(st.booleans(), max_size=2).map(tuple),
               st.sampled_from(["same", "differs"]))),
]
ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)


def outcome(fn, *args, **kwargs):
    """What a call gives, in terms a record and its twin share: the repr of
    a record returned, any other value, or the kind of error it raised."""
    try:
        value = fn(*args, **kwargs)
    except AttributeError:
        # a frozen dataclass raises FrozenInstanceError, an AttributeError
        return "raises", AttributeError
    except TypeError:
        return "raises", TypeError
    return "returns", (repr(value).replace("Twin(", "(")
                       if dataclasses.is_dataclass(value)
                       or type(value).__module__.startswith("digitsquares")
                       else value)


def seen(x, y, x_again):
    """What a record, another and a record from x's values are to each
    other and to a pickle round trip, as comparable values."""
    copy = pickle.loads(pickle.dumps(x))
    return (repr(x).replace("Twin(", "("), x == y, x != y, x == x_again,
            x != x_again, outcome(hash, x), outcome(hash, y),
            *(outcome(op, x, y) for op in ORDERINGS),
            copy == x, repr(copy).replace("Twin(", "("), outcome(hash, copy))


@pytest.mark.parametrize("record, twin, values", RECORDS,
                         ids=[record.__name__ for record, _, _ in RECORDS])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_the_dataclass_it_was(record, twin, values, data):
    names = [f.name for f in dataclasses.fields(twin)]
    assert record._fields == tuple(names)
    x_values, y_values = data.draw(values), data.draw(values)
    by_name = dict(zip(names, x_values))
    ours = seen(record(*x_values), record(*y_values), record(**by_name))
    theirs = seen(twin(*x_values), twin(*y_values), twin(**by_name))
    assert ours == theirs

    # each default, by leaving its field out
    for field in dataclasses.fields(twin):
        rest = {k: v for k, v in by_name.items() if k != field.name}
        if field.default is dataclasses.MISSING:
            assert outcome(record, **rest) == outcome(twin, **rest) == (
                "raises", TypeError)
        elif (record, field.name) != (SearchSpec, "line_sums"):
            # SearchSpec's own check asks for line sums unless bimagic
            assert outcome(record, **rest) == outcome(twin, **rest)
    # an argument too many, an unknown keyword, a field given twice
    for args, kwargs in (([*x_values, x_values[0]], {}),
                         (x_values, {"no_such_field": 1}),
                         (x_values[:1], {names[0]: x_values[0]})):
        assert outcome(record, *args, **kwargs) == outcome(
            twin, *args, **kwargs) == ("raises", TypeError)

    # assignment and deletion of a field
    x, tx = record(*x_values), twin(*x_values)
    for name, value in zip(names, y_values):
        for change, args in ((setattr, (name, value)), (delattr, (name,))):
            assert outcome(change, x, *args) == ("raises", AttributeError)
            if twin.__dataclass_params__.frozen:
                assert outcome(change, tx, *args) == ("raises", AttributeError)
    # SquareDocument was the one record a dataclass left open to assignment;
    # nothing assigns to it, and now it is frozen as the others are
    assert twin.__dataclass_params__.frozen or record is SquareDocument
