"""End-to-end behaviour of the command line, through main()."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import digitsquares
import oracle
from digitsquares import (SearchSpec, Square, construct, decompose,
                          gen_square, generate, recompose, render_square)
from digitsquares.cli import (DocumentError, _json_head, _json_rows, main,
                              parse_document)
from oracle import square_document
from test_core import squares

EXT_DOC = {
    "order": 3,
    "width": 4,
    "alphabet": "012",
    "rows": [["1001", "2222", "0110"],
             ["0220", "1111", "2002"],
             ["2112", "0000", "1221"]],
}

GOLDEN_REPORT = """\
order: 3
width: 4
s1: 3333
s2: -
magic: yes
bimagic: no
pandiagonal: no
pandiagonal-bimagic: no
block 3: 9999
entries: palindromic=yes distinct=yes rotation-closed=yes
"""


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def ext_path(tmp_path):
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(EXT_DOC))
    return str(path)


def test_verify_text_report_is_stable(capsys, ext_path):
    code, out, err = run(capsys, "verify", ext_path)
    assert code == 0
    assert out == GOLDEN_REPORT
    assert err == ""


def test_verify_json_report(capsys, ext_path):
    code, out, _ = run(capsys, "verify", "--format", "json", ext_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["s1"] == 3333
    assert payload["magic"] is True
    assert payload["entries"]["palindromic"] is True
    assert len(payload["lines"]) == 8
    assert "checks" not in payload
    code, out, _ = run(capsys, "verify", "--format", "json", "--magic",
                       "--bimagic", "--blocks", "3", ext_path)
    assert code == 1
    assert json.loads(out)["checks"] == [
        {"name": "magic", "ok": True}, {"name": "bimagic", "ok": False},
        {"name": "blocks 3", "ok": True}]


def test_verify_checks_set_the_exit_code(capsys, ext_path):
    code, out, _ = run(capsys, "verify", "--magic", ext_path)
    assert code == 0
    assert "check magic: PASS" in out
    code, out, _ = run(capsys, "verify", "--bimagic", ext_path)
    assert code == 1
    assert "check bimagic: FAIL" in out
    # captured output is not a terminal, so no escape codes
    assert "\x1b[" not in out


class _Terminal(io.StringIO):
    def isatty(self):
        return True


@pytest.mark.parametrize("no_color", [None, "1"], ids=["color", "NO_COLOR"])
def test_verify_colors_its_verdicts_on_a_terminal(monkeypatch, ext_path,
                                                  no_color):
    if no_color is None:
        monkeypatch.delenv("NO_COLOR", raising=False)
    else:
        monkeypatch.setenv("NO_COLOR", no_color)
    monkeypatch.setattr("sys.stdout", _Terminal())
    code = main(["verify", "--magic", "--bimagic", ext_path])
    out = sys.stdout.getvalue()
    assert code == 1
    if no_color is None:
        assert "check magic: \x1b[32mPASS\x1b[0m\n" in out
        assert "check bimagic: \x1b[31mFAIL\x1b[0m\n" in out
    else:
        assert "check magic: PASS\n" in out and "\x1b[" not in out


def test_verify_blocks_flag(capsys, ext_path):
    code, out, _ = run(capsys, "verify", "--blocks", "3", ext_path)
    assert code == 0
    assert "check blocks 3: PASS" in out
    code, _, err = run(capsys, "verify", "--blocks", "2", ext_path)
    assert code == 2
    assert "block size 2" in err


def verify_bytes(capsys, tmp_path, monkeypatch, data, from_stdin):
    """Run verify on a document's bytes, read from a file or from stdin."""
    if from_stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        return run(capsys, "verify", "-")
    path = tmp_path / "doc"
    path.write_bytes(data)
    return run(capsys, "verify", str(path))


# the byte order mark a spreadsheet's "CSV UTF-8" export starts a file with
BOM = "\ufeff".encode()


@pytest.mark.parametrize("mark", [b"", BOM], ids=["plain", "bom"])
@pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
def test_verify_reads_csv(capsys, tmp_path, monkeypatch, mark, from_stdin):
    data = mark + b'# 3,2\n"10","22","01"\n"02","11","20"\n"21","00","12"\n'
    code, out, _ = verify_bytes(capsys, tmp_path, monkeypatch, data,
                                from_stdin)
    assert code == 0
    assert "s1: 33" in out


@pytest.mark.parametrize("mark", [b"", BOM], ids=["plain", "bom"])
@pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
def test_verify_reads_json(capsys, tmp_path, monkeypatch, mark, from_stdin):
    data = mark + json.dumps(EXT_DOC).encode()
    code, out, _ = verify_bytes(capsys, tmp_path, monkeypatch, data,
                                from_stdin)
    assert code == 0
    assert "s1: 3333" in out


def test_verify_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EXT_DOC)))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0
    assert "s1: 3333" in out


def test_verify_rejects_truncated_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"order": 3')
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "line" in err


def test_verify_rejects_wrong_cell_width(capsys, tmp_path):
    doc = dict(EXT_DOC, rows=[["100", "2222", "0110"],
                              ["0220", "1111", "2002"],
                              ["2112", "0000", "1221"]])
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "cell (0, 0)" in err


def test_verify_rejects_cells_outside_alphabet(capsys, tmp_path):
    doc = dict(EXT_DOC, rows=[["1001", "2222", "0110"],
                              ["0220", "1911", "2002"],
                              ["2112", "0000", "1221"]])
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "alphabet" in err


def _with_cell(i, j, cell):
    """EXT_DOC with cell (i, j) replaced."""
    rows = [list(row) for row in EXT_DOC["rows"]]
    rows[i][j] = cell
    return dict(EXT_DOC, rows=rows)


@pytest.mark.parametrize("doc, where", [
    # both pass str.isdigit; int() rejects "²" and reads "٣" as 3
    ({"order": 1, "width": 1, "rows": [["²"]]}, "cell (0, 0)"),
    ({"order": 1, "width": 1, "rows": [["٣"]]}, "cell (0, 0)"),
    ({"order": 1, "width": 1, "alphabet": "11", "rows": [["1"]]},
     "alphabet has repeated digits"),
    ({"order": 1, "width": 1, "alphabet": "1²", "rows": [["1"]]}, "alphabet"),
    (_with_cell(2, 1, "22222"), "cell (2, 1)"),
    (_with_cell(1, 1, "1911"), "cell (1, 1)"),
    (_with_cell(0, 1, 2222), "cell (0, 1)"),
    (_with_cell(1, 2, ["2002"]), "cell (1, 2)"),
    (dict(EXT_DOC, rows=[EXT_DOC["rows"][0], EXT_DOC["rows"][1][:2],
                         EXT_DOC["rows"][2]]), "row 1"),
], ids=["superscript cell", "arabic-indic cell", "repeated alphabet digit",
        "superscript alphabet", "too wide cell", "digit outside alphabet",
        "int cell", "list cell", "short row"])
def test_verify_rejects_non_ascii_digits_and_repeats(capsys, tmp_path, doc,
                                                     where):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: ")
    assert where in err
    assert out == ""


def test_verify_rejects_non_ascii_csv_header(capsys, tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("# ²,1\n1\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "line 1" in err


def test_verify_reads_csv_header_after_blank_lines(capsys, tmp_path):
    path = tmp_path / "sq.csv"
    path.write_text('\n\n# 3,2\n"10","22","01"\n"02","11","20"\n"21","00","12"\n')
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "s1: 33" in out


@pytest.mark.parametrize("key", ["order", "width"])
def test_verify_rejects_boolean_order_and_width(capsys, tmp_path, key):
    doc = dict({"order": 1, "width": 1, "rows": [["1"]]}, **{key: True})
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert f"{key} must be a positive integer, got True" in err


R = EXT_DOC["rows"]


def _with_rows(rows, **keys):
    """EXT_DOC with its rows, and any other key given, replaced."""
    return dict(EXT_DOC, rows=rows, **keys)


def js(doc):
    return json.dumps(doc, ensure_ascii=False).encode()


def _too_long_for_int():
    """What int() says of a number of 5000 digits, worded by the Python
    release that runs the test."""
    try:
        int("9" * 5000)
    except ValueError as exc:
        return str(exc)


# name -> (document bytes, the message after "error: <source>: "), the
# first fault in checking order: the document's shape, the declared width on
# cell (0, 0), then Square's check of the cells
MALFORMED = {
    "csv field over the csv module's limit": (
        b'# 1,1\n"' + b"1" * 140000 + b'"\n',
        "bad CSV: field larger than field limit (131072)"),
    # the non-strict dialect read this as the square ["1"]
    "csv quote never closed": (b'# 1,1\n"1\n',
                               "bad CSV: unexpected end of data"),
    "json nested 2000 deep": (
        b'{"order": ' + b"[" * 2000 + b"]" * 2000 + b"}",
        "JSON nested too deeply"),
    "not utf-8": (b'{"order": 1, "width": 1, "rows": [["\xe9"]]}',
                  "not UTF-8 text, byte 36: invalid continuation byte"),
    # bytes are counted from the file's first, the mark's too
    "not utf-8 after a byte order mark": (
        BOM + b'{"order": 1, "width": 1, "rows": [["\xe9"]]}',
        "not UTF-8 text, byte 39: invalid continuation byte"),
    # one mark is skipped at the very start only
    "byte order mark after a blank line": (
        b"\n" + BOM + b'{"order": 1, "width": 1, "rows": [["1"]]}',
        "expected '{' (JSON) or '# order,width' (CSV), got '\\ufeff'"),
    "two byte order marks": (
        BOM + BOM + b"# 1,1\n1\n",
        "expected '{' (JSON) or '# order,width' (CSV), got '\\ufeff'"),
    "json integer of 5000 digits": (
        b'{"order": ' + b"9" * 5000 + b', "width": 1}',
        f"invalid JSON: {_too_long_for_int()}"),
    "csv header number of 5000 digits": (
        b"# " + b"9" * 5000 + b",1\n1\n",
        "line 1: header must be '# order,width', got '# " + "9" * 38
        + "'... (5004 characters)"),
    # the cases of test_verify_rejects_non_ascii_digits_and_repeats
    "superscript cell": (js({"order": 1, "width": 1, "rows": [["²"]]}),
                         "cell (0, 0) must be a digit string, got '²'"),
    "arabic-indic cell": (js({"order": 1, "width": 1, "rows": [["٣"]]}),
                          "cell (0, 0) must be a digit string, got '٣'"),
    "repeated alphabet digit": (
        js({"order": 1, "width": 1, "alphabet": "11", "rows": [["1"]]}),
        "alphabet has repeated digits: (1, 1)"),
    "superscript alphabet": (
        js({"order": 1, "width": 1, "alphabet": "1²", "rows": [["1"]]}),
        "alphabet must be decimal digits, got '1²'"),
    "too wide cell": (js(_with_cell(2, 1, "22222")),
                      "cell (2, 1) has width 5, expected 4"),
    "digit outside alphabet": (js(_with_cell(1, 1, "1911")),
                               "digit 9 in cell (1, 1) outside alphabet 012"),
    "int cell": (js(_with_cell(0, 1, 2222)),
                 "cell (0, 1) must be a digit string, got 2222"),
    "list cell": (js(_with_cell(1, 2, ["2002"])),
                  "cell (1, 2) must be a digit string, got ['2002']"),
    "short row": (js(_with_rows([R[0], R[1][:2], R[2]])),
                  "row 1 must be a list of 3 cells"),
    # the other document faults above
    "truncated json": (b'{"order": 3', "invalid JSON at line 1, column 12: "
                                        "Expecting ',' delimiter"),
    "cell (0, 0) narrower than declared": (
        js(_with_cell(0, 0, "100")), "cell (0, 0) is 3 digits wide, expected 4"),
    "non-ascii csv header": ("# ²,1\n1\n".encode(),
                             "line 1: header must be '# order,width', "
                             "got '# ²,1'"),
    "boolean order": (js({"order": True, "width": 1, "rows": [["1"]]}),
                      "order must be a positive integer, got True"),
    "boolean width": (js({"order": 1, "width": True, "rows": [["1"]]}),
                      "width must be a positive integer, got True"),
    # the faults of test_read_path.py::faulty_documents
    "null cell": (js(_with_cell(2, 2, None)),
                  "cell (2, 2) must be a digit string, got None"),
    "float cell": (js(_with_cell(1, 0, 1.5)),
                   "cell (1, 0) must be a digit string, got 1.5"),
    "boolean cell": (js(_with_cell(0, 2, True)),
                     "cell (0, 2) must be a digit string, got True"),
    "object cell": (js(_with_cell(2, 0, {"1": 2})),
                    "cell (2, 0) must be a digit string, got {'1': 2}"),
    "non-ascii digit in a cell": (
        js(_with_cell(1, 1, "1٣11")),
        "cell (1, 1) must be a digit string, got '1٣11'"),
    "empty cell": (js(_with_cell(2, 2, "")),
                   "cell (2, 2) must be a digit string, got ''"),
    "digit 3": (js(_with_cell(0, 1, "3333")),
                "digit 3 in cell (0, 1) outside alphabet 012"),
    "long row": (js(_with_rows([R[0], R[1] + ["0000"], R[2]])),
                 "row 1 must be a list of 3 cells"),
    "empty row": (js(_with_rows([R[0], [], R[2]])),
                  "row 1 must be a list of 3 cells"),
    "no rows": (js(_with_rows([])), "rows must be a list of 3 rows"),
    "digit outside another alphabet": (
        js(dict(EXT_DOC, alphabet="123")),
        "digit 0 in cell (0, 0) outside alphabet 123"),
    # the shape of a document
    "empty document": (b"", "expected '{' (JSON) or '# order,width' (CSV), "
                            "got ''"),
    "blank document": (b" \n\n", "expected '{' (JSON) or '# order,width' "
                                 "(CSV), got ''"),
    "neither json nor csv": (b"order 3", "expected '{' (JSON) or "
                                         "'# order,width' (CSV), got 'o'"),
    "top level is a list": (b'[{"order": 3}]', "expected '{' (JSON) or "
                                               "'# order,width' (CSV), "
                                               "got '['"),
    "text after the object": (
        b'{"order": 1, "width": 1, "rows": [["1"]]} x',
        "invalid JSON at line 1, column 43: Extra data"),
    "missing order": (js({"width": 1, "rows": [["1"]]}), "missing key 'order'"),
    "missing width": (js({"order": 1, "rows": [["1"]]}), "missing key 'width'"),
    "missing rows": (js({"order": 1, "width": 1}), "missing key 'rows'"),
    "zero order": (js({"order": 0, "width": 1, "rows": []}),
                   "order must be a positive integer, got 0"),
    "negative width": (js({"order": 1, "width": -1, "rows": [["1"]]}),
                       "width must be a positive integer, got -1"),
    "string width": (js({"order": 1, "width": "1", "rows": [["1"]]}),
                     "width must be a positive integer, got '1'"),
    "float order": (js({"order": 1.0, "width": 1, "rows": [["1"]]}),
                    "order must be a positive integer, got 1.0"),
    "alphabet a number": (
        js({"order": 1, "width": 1, "alphabet": 12, "rows": [["1"]]}),
        "alphabet must be decimal digits, got 12"),
    "empty alphabet": (
        js({"order": 1, "width": 1, "alphabet": "", "rows": [["1"]]}),
        "alphabet must be decimal digits, got ''"),
    "rows an object": (js({"order": 1, "width": 1, "rows": {"0": ["1"]}}),
                       "rows must be a list of 1 rows"),
    "too few rows": (js(_with_rows(R[:2])), "rows must be a list of 3 rows"),
    "row a string": (js(_with_rows([R[0], "0220,1111,2002", R[2]])),
                     "row 1 must be a list of 3 cells"),
    "declared width too large": (js(dict(EXT_DOC, width=5)),
                                 "cell (0, 0) is 4 digits wide, expected 5"),
    "declared order too small": (js(dict(EXT_DOC, order=2)),
                                 "rows must be a list of 2 rows"),
    "csv header of three numbers": (b"# 3,4,1\n1\n",
                                    "line 1: header must be '# order,width', "
                                    "got '# 3,4,1'"),
    "csv header without a width": (b"# 3\n1\n",
                                   "line 1: header must be '# order,width', "
                                   "got '# 3'"),
    "csv with too few data rows": (b'# 3,2\n"10","22","01"\n"02","11","20"\n',
                                   "expected 3 data rows, got 2"),
    "csv with a short row": (
        b'# 3,2\n"10","22","01"\n"02","11"\n"21","00","12"\n',
        "row 1 must be a list of 3 cells"),
    "csv cell too wide": (
        b'# 3,2\n"10","22","01"\n"02","111","20"\n"21","00","12"\n',
        "cell (1, 1) has width 3, expected 2"),
    "csv cell (0, 0) too narrow": (
        b'# 3,2\n"1","22","01"\n"02","11","20"\n"21","00","12"\n',
        "cell (0, 0) is 1 digits wide, expected 2"),
    "csv cell not digits": (
        b'# 3,2\n"10","22","01"\n"02","ab","20"\n"21","00","12"\n',
        "cell (1, 1) must be a digit string, got 'ab'"),
    # two faults: the one checked first is named
    "bad alphabet and a short row": (
        js(_with_rows([R[0], R[1][:2], R[2]], alphabet="1²")),
        "alphabet must be decimal digits, got '1²'"),
    "cell (0, 0) too wide and a short row": (
        js(_with_rows([["10010", *R[0][1:]], R[1][:2], R[2]])),
        "row 1 must be a list of 3 cells"),
    "cell (0, 0) too wide and a digit outside the alphabet": (
        js(_with_rows([["10010", *R[0][1:]], [R[1][0], "1911", R[1][2]],
                       R[2]])),
        "cell (0, 0) is 5 digits wide, expected 4"),
    "int cell after a too narrow cell (0, 0)": (
        js(_with_rows([["100", 2222, R[0][2]], R[1], R[2]])),
        "cell (0, 0) is 3 digits wide, expected 4"),
    "int cell (0, 0) and a too wide cell": (
        js(_with_rows([[1001, *R[0][1:]], [R[1][0], "11111", R[1][2]], R[2]])),
        "cell (0, 0) must be a digit string, got 1001"),
    # cells are parsed in the walk of Square's check: a fault before a
    # cell that is not a digit string is named first
    "digit outside the alphabet and a cell not digits": (
        js({"order": 2, "width": 1, "alphabet": "012",
            "rows": [["3", "0"], ["0", "x"]]}),
        "digit 3 in cell (0, 0) outside alphabet 012"),
    "too narrow cell and a cell not digits": (
        js({"order": 2, "width": 2, "rows": [["00", "0"], ["0", "x"]]}),
        "cell (0, 1) has width 1, expected 2"),
    "missing order and rows": (js({"width": True}), "missing key 'order'"),
    # a value past 40 characters is shown by its first 40 and its length
    "alphabet of 5000 ones": (
        js({"order": 1, "width": 1, "alphabet": "1" * 5000, "rows": [["1"]]}),
        f"alphabet has repeated digits: {'(' + '1, ' * 13}... "
        "(15000 characters)"),
    "cell of 5000 x": (js({"order": 1, "width": 1, "rows": [["x" * 5000]]}),
                       "cell (0, 0) must be a digit string, got "
                       f"'{'x' * 40}'... (5000 characters)"),
    "cell a list of 3000 strings": (
        js({"order": 1, "width": 1, "rows": [[["x"] * 3000]]}),
        "cell (0, 0) must be a digit string, got "
        f"{str(['x'] * 9)[:40]}... (15000 characters)"),
    "cell an object with a long key": (
        js({"order": 1, "width": 1, "rows": [[{"x" * 5000: 1}]]}),
        f"cell (0, 0) must be a digit string, got {{'{'x' * 38}... "
        "(5007 characters)"),
    "order of 5000 x": (js({"order": "x" * 5000, "width": 1, "rows": [["1"]]}),
                        "order must be a positive integer, got "
                        f"'{'x' * 40}'... (5000 characters)"),
    "order a list of 3000 ints": (
        js({"order": [1] * 3000, "width": 1, "rows": [["1"]]}),
        f"order must be a positive integer, got {'[' + '1, ' * 13}... "
        "(9000 characters)"),
    "order of 4000 digits": (
        js({"order": 10 ** 4000 - 1, "width": 1, "rows": [["1"]]}),
        f"rows must be a list of {'9' * 40}... (4000 characters) rows"),
    "width of 4000 digits": (
        js({"order": 1, "width": 10 ** 4000 - 1, "rows": [["1"]]}),
        f"cell (0, 0) is 1 digits wide, expected {'9' * 40}... "
        "(4000 characters)"),
    "csv order of 4000 digits": (
        b"# " + b"9" * 4000 + b",1\n1\n",
        f"expected {'9' * 40}... (4000 characters) data rows, got 1"),
}


@pytest.mark.parametrize("command", [["verify"], ["transform", "--mirror"],
                                     ["transform", "--rotate180"], ["render"],
                                     ["decompose"]],
                         ids=["verify", "transform", "rotate180", "render",
                              "decompose"])
@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
def test_malformed_documents_exit_2_naming_the_source(capsys, tmp_path,
                                                      monkeypatch, command,
                                                      case, from_stdin):
    data, message = MALFORMED[case]
    if from_stdin:
        source = "-"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    else:
        source = str(tmp_path / "doc")
        (tmp_path / "doc").write_bytes(data)
    code, out, err = run(capsys, *command, source)
    shown = "<stdin>" if from_stdin else source
    assert (code, out, err) == (2, "", f"error: {shown}: {message}\n")
    # no value is echoed whole
    assert len(err) < 1000 and not re.search(r"(.)\1{40}", err)


@st.composite
def digit_like_documents(draw):
    # a quarter of the documents use ASCII digits only, so that many parse
    chars = "0129" + draw(st.sampled_from(["", "²", "٣", "²٣"]))
    order = draw(st.integers(0, 3))
    width = draw(st.integers(0, 3))
    if draw(st.booleans()):
        cell = st.text(chars, min_size=width, max_size=width)
        row = st.lists(cell, min_size=order, max_size=order)
        rows = draw(st.lists(row, min_size=order, max_size=order))
    else:
        row = st.lists(st.text(chars, max_size=3), max_size=3)
        rows = draw(st.lists(row, max_size=3))
    doc = {"order": order, "width": width, "rows": rows}
    if draw(st.booleans()):
        doc["alphabet"] = draw(st.one_of(
            st.text(chars, max_size=4),
            st.permutations(chars).map("".join)))
    return doc


@st.composite
def one_width_documents(draw):
    # ASCII cells all of one width, which need not be the declared one, and
    # an alphabet that may leave out digits the cells use: documents the
    # cell rules alone reject, which digit_like_documents seldom draws
    order = draw(st.integers(1, 3))
    cell_width = draw(st.integers(1, 3))
    cell = st.text("0129", min_size=cell_width, max_size=cell_width)
    row = st.lists(cell, min_size=order, max_size=order)
    doc = {"order": order,
           "width": draw(st.sampled_from([cell_width, cell_width % 3 + 1])),
           "rows": draw(st.lists(row, min_size=order, max_size=order))}
    if draw(st.booleans()):
        digits = draw(st.permutations("0129"))
        doc["alphabet"] = "".join(digits[:draw(st.integers(1, 4))])
    return doc


def _ascii_digits(text):
    return isinstance(text, str) and text != "" and all(
        c in "0123456789" for c in text)


def _reference_accepts(doc):
    """The document rule written out plainly, one check after another.

    The shape first: order and width positive, a valid alphabet if one is
    given, order rows of order cells. Then every cell on its own: ASCII
    digits, the declared width, digits inside the alphabet.
    """
    order, width, rows = doc["order"], doc["width"], doc["rows"]
    if order < 1 or width < 1:
        return False
    alphabet = doc.get("alphabet")
    if alphabet is not None and (not _ascii_digits(alphabet)
                                 or len(set(alphabet)) != len(alphabet)):
        return False
    if len(rows) != order or any(len(row) != order for row in rows):
        return False
    return all(_ascii_digits(cell) and len(cell) == width
               and (alphabet is None or set(cell) <= set(alphabet))
               for row in rows for cell in row)


@settings(deadline=None)
@given(st.one_of(digit_like_documents(), one_width_documents()))
def test_digit_like_documents_parse_or_raise_document_error(doc):
    try:
        square = parse_document(json.dumps(doc))
    except DocumentError:
        assert not _reference_accepts(doc)
        return
    assert _reference_accepts(doc)
    assert isinstance(square, Square)
    assert square.to_strings() == doc["rows"]


@settings(deadline=None, max_examples=200)
@given(digit_like_documents())
def test_csv_documents_read_like_json_documents(doc):
    # a row of no cells would be a blank line, which the CSV reader skips
    assume(all(doc["rows"]))
    doc.pop("alphabet", None)
    csv_text = f"# {doc['order']},{doc['width']}\n" + "".join(
        ",".join(f'"{cell}"' for cell in row) + "\n" for row in doc["rows"])
    read = []
    # each also after the byte order mark that is skipped
    for text in (json.dumps(doc), csv_text):
        for mark in ("", "\ufeff"):
            try:
                read.append(parse_document(mark + text))
            except DocumentError:
                read.append(None)
    assert read == read[:1] * 4


@settings(deadline=None, max_examples=60)
@given(digit_like_documents())
def test_whole_cli_runs_on_digit_like_documents_exit_0_1_or_2(doc):
    text = json.dumps(doc)
    for command in (["verify"], ["transform", "--rotate180"],
                    ["transform", "--mirror"], ["render"], ["decompose"]):
        out, err = io.StringIO(), io.StringIO()
        with (mock.patch("sys.stdin", io.StringIO(text)),
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            code = main([*command, "-"])
        assert code in (0, 1, 2), (command, err.getvalue())
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")


def _write(path, doc):
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv, code, prefix", [
    (["verify", "{truncated}"], 2, "error: {truncated}: invalid JSON"),
    (["verify", "{missing}"], 2, "error: [Errno 2] No such file"),
    (["verify", "--blocks", "2", "{ext}"], 2,
     "error: block size 2 does not tile a square of order 3"),
    (["transform", "--rotate180", "{three}"], 1, "cannot transform: "),
    (["transform", "--mirror", "{three}"], 1, "cannot transform: "),
    (["generate", "--line-sum", "99"], 3, "no squares: "),
    (["generate", "--order", "4", "--width", "4", "--line-sum", "4",
      "--budget-ms", "0"], 3, "out of budget: "),
    (["generate", "--width", "0"], 2, "error: --line-sum is required"),
    (["generate", "--width", "0", "--line-sum", "3"], 2,
     "error: width must be at least 1"),
], ids=["malformed", "missing", "blocks", "rotate-3", "mirror-3",
        "unsatisfiable", "budget", "no-line-sum", "width-0"])
def test_exit_code_contract(capsys, tmp_path, argv, code, prefix):
    paths = {
        "truncated": _write(tmp_path / "bad.json", '{"order": 3'),
        "missing": str(tmp_path / "nope.json"),
        "ext": _write(tmp_path / "ext.json", EXT_DOC),
        "three": _write(tmp_path / "three.json", {
            "order": 3, "width": 1, "rows": [["3", "1", "1"]] * 3}),
    }
    got, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (got, out) == (code, "")
    assert err.startswith(prefix.format(**paths))
    assert "Traceback" not in err


@pytest.fixture
def int_digit_limit(request):
    """Python's digit limit for int to str, set for one test (4300 unless
    parametrised) and restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length to str")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(getattr(request, "param", 4300))
    yield
    sys.set_int_max_str_digits(saved)


def wide_document(tmp_path, width):
    """Order 3, every cell width ones: the squared sums have 2 * width - 1
    digits, decompose's largest scale 10 ** (width - 1) has width."""
    return _write(tmp_path / f"wide{width}.json", {
        "order": 3, "width": width, "rows": [["1" * width] * 3] * 3})


@pytest.mark.usefixtures("int_digit_limit")
@pytest.mark.parametrize("command, widest", [
    (["verify"], 2150),
    (["verify", "--lines"], 2150),
    (["verify", "--format", "json"], 2150),
    (["decompose"], 4300),
    (["decompose", "--format", "json"], 4300),
])
def test_too_wide_documents_exit_2_before_writing(capsys, tmp_path, command,
                                                  widest):
    code, out, err = run(capsys, *command, wide_document(tmp_path, widest))
    assert (code, err) == (0, "")
    assert out
    code, out, err = run(capsys, *command, wide_document(tmp_path, widest + 1))
    assert (code, out) == (2, "")
    assert err == (f"error: cells {widest + 1} digits wide give numbers of "
                   f"more than 4300 digits, Python's limit for integer to "
                   f"string conversion\n")


@pytest.mark.usefixtures("int_digit_limit")
@pytest.mark.parametrize("command", [["transform", "--rotate180"],
                                     ["transform", "--mirror"], ["render"]])
def test_wide_documents_transform_and_render(capsys, tmp_path, command):
    code, out, err = run(capsys, *command, wide_document(tmp_path, 4400))
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("int_digit_limit", [0], indirect=True)
@pytest.mark.parametrize("lacks_the_limit", [False, True],
                         ids=["limit-0", "no-get_int_max_str_digits"])
def test_wide_documents_without_a_digit_limit(capsys, tmp_path, monkeypatch,
                                              int_digit_limit,
                                              lacks_the_limit):
    if lacks_the_limit:
        # as on a Python before 3.10.7
        monkeypatch.delattr(sys, "get_int_max_str_digits")
    code, out, err = run(capsys, "verify", "--lines",
                         wide_document(tmp_path, 2151))
    assert (code, err) == (0, "")
    assert f"s2: {3 * int('1' * 2151) ** 2}\n" in out


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2
    assert err


def test_generate_then_verify(capsys, tmp_path):
    out_path = tmp_path / "sq.json"
    code, _, _ = run(capsys, "generate", "--order", "3", "--width", "2",
                     "--line-sum", "3", "--distinct", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--magic", "--distinct",
                       str(out_path))
    assert code == 0
    assert "s1: 33" in out


def test_generate_json_array(capsys):
    code, out, _ = run(capsys, "generate", "--order", "3", "--width", "1",
                       "--line-sum", "3", "--limit", "3", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 3
    assert all(d["order"] == 3 for d in docs)


def test_generate_text_uses_separators(capsys):
    code, out, _ = run(capsys, "generate", "--order", "3", "--width", "1",
                       "--line-sum", "3", "--limit", "2")
    assert code == 0
    assert out.count("---") == 1


def test_generate_per_place_line_sums(capsys):
    code, out, _ = run(capsys, "generate", "--order", "3", "--width", "2",
                       "--line-sum", "3,6", "--format", "json")
    assert code == 0
    doc = json.loads(out)[0]
    assert sum(int(c) for c in doc["rows"][0]) == 36


def test_generate_unsatisfiable_exits_3(capsys):
    code, _, err = run(capsys, "generate", "--order", "3", "--width", "1",
                       "--line-sum", "7")
    assert code == 3
    assert "no squares" in err


def test_generate_unsatisfiable_out_leaves_no_file(capsys, tmp_path):
    path = tmp_path / "none.json"
    code, _, _ = run(capsys, "generate", "--order", "3", "--width", "1",
                     "--line-sum", "2", "--out", str(path))
    assert code == 3
    assert not path.exists()


def test_generate_writes_squares_as_they_arrive(capsys, monkeypatch):
    def one_then_fail(spec, on_budget=None):
        yield Square.from_strings([["1"]])
        raise RuntimeError("search died after the first square")

    monkeypatch.setattr(generate, "gen_square", one_then_fail)
    with pytest.raises(RuntimeError):
        main(["generate", "--order", "3", "--width", "1", "--line-sum", "3"])
    out = capsys.readouterr().out
    assert out == json.dumps({"order": 1, "width": 1, "rows": [["1"]]},
                             indent=2)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("limit", ["1", "3"])
def test_generate_streamed_output_matches_whole_dump(capsys, fmt, limit):
    args = ["generate", "--order", "3", "--width", "2", "--line-sum", "3",
            "--limit", limit, "--deterministic", "--format", fmt]
    code, out, _ = run(capsys, *args)
    assert code == 0
    docs = [square_document(sq)
            for sq in gen_square(SearchSpec(order=3, width=2, line_sums=(3, 3),
                                            limit=int(limit),
                                            deterministic=True))]
    if fmt == "json":
        assert out == json.dumps(docs, indent=2) + "\n"
    else:
        assert out == "\n---\n".join(json.dumps(d, indent=2)
                                      for d in docs) + "\n"


@settings(deadline=None, max_examples=300)
@given(squares(range(10), orders=(1, 6), widths=(1, 8)))
def test_json_writer_matches_json_dumps(square):
    doc = square_document(square)
    assert (_json_head(square, "") + _json_rows(square, "")
            == json.dumps(doc, indent=2))
    # inside an array every line sits two spaces deeper; the second document
    # reads every cell's text that the first one kept on its word
    assert (_json_head(square, "  ") + _json_rows(square, "  ")
            == json.dumps([doc], indent=2)[2:-2])


STREAM = ["generate", "--order", "4", "--width", "4", "--line-sum", "4",
          "--limit", "2000", "--seed", "123456"]


@pytest.mark.parametrize("argv,digest", [
    (STREAM + ["--format", "json"],
     "610a5d76a1ea66a615413551799091855f1ebfe1d771a767dd3a5584db521fcd"),
    (STREAM,
     "3746b2f65435994bfcb3872628ecb242ffa76a6dcaeb538e6cbe62884d98e3df"),
    (["transform", "--rotate180"],
     "3adff4eddb308ba15fcfab564880f1a1a6ca5135b619f3ae19f3600efb58d774"),
    (["transform", "--mirror"],
     "b2d61d210dd621819593cbc3e1854edff01e2d4ea0069ca62f8f8f16b79d3413"),
    # varies its middle planes fastest, so most of its rows come from the
    # word table's row memo, which reused none of them when it was keyed
    # by the leading planes
    (["generate", "--order", "4", "--width", "8", "--line-sum", "4",
      "--palindromic", "--seed", "2", "--limit", "2000", "--format", "json"],
     "8dc6d575f17b49c6143d28b05d5dcd16d0c849f6e6dca85beeb1f3773a897efa"),
    # the whole deterministic GF(3) family, one square per matrix
    (["generate", "--order", "9", "--width", "4", "--bimagic",
      "--deterministic", "--limit", "2304", "--format", "json"],
     "92608fbbb049c2b9e73ab641a1d6174014cd809850bec8fc26b394e869f0ce44"),
    # seeded distinct searches, whose last place walks thousands of layers
    # before one gives distinct cells
    (["generate", "--order", "5", "--width", "4", "--line-sum", "5",
      "--distinct", "--seed", "16", "--format", "json"],
     "8df906f83d33e8954d09ab5225c810c253af07447c7bd15f8f47dba328c9db38"),
    (["generate", "--order", "6", "--width", "4", "--line-sum", "6",
      "--distinct", "--seed", "2", "--format", "json"],
     "7cb398177242767e917b88766769cc89cadc4b34f11ee2253c6dc979f741eda6"),
])
def test_written_documents_are_pinned(capsys, ext_path, argv, digest):
    # digests of the output json.dumps wrote before the direct writer, of
    # the palindromic stream before its rows were reused, of the bimagic
    # family before its planes were built by rows, and of the distinct
    # searches before the last place refused repeated cells in its walk
    if argv[0] == "transform":
        argv = argv + [ext_path]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (["--order", "3", "--width", "4", "--line-sum", "3", "--limit", "1000"],
     "6839d81a250b209b496c950fae4862f44b40ef379d505b173d8990581ba4d5ea"),
    (["--order", "4", "--width", "4", "--line-sum", "4", "--palindromic",
      "--limit", "1000"],
     "e4becf78b6e95edc44974cb90e7eaf881de8051797c59c5966c4109540c51360"),
    (["--order", "4", "--width", "3", "--line-sum", "4", "--distinct",
      "--limit", "50"],
     "3e57439a7cd32c71b2fc37aae5314d223578f40a919116538c0b900e3ee24f5a"),
])
def test_multi_pass_streams_are_pinned(capsys, argv, digest):
    # streams that pass their inner places many times, so most of their
    # layers come from a place's record; digests of the output when every
    # pass searched its place again. The first stream is all 625 squares.
    code, out, err = run(capsys, "generate", *argv, "--deterministic",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class Clock:
    """A stand-in for the searches' clock: time moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    # the layer search and the bimagic construction each read their own
    # module's clock
    clock = Clock()
    monkeypatch.setattr(generate, "time", clock)
    monkeypatch.setattr(construct, "time", clock)
    return clock


@pytest.mark.parametrize("argv", [
    ["--order", "4", "--width", "4", "--line-sum", "4", "--seed", "3"],
    # tests its deadline once per block of draws, not once per matrix
    ["--order", "9", "--width", "4", "--bimagic", "--seed", "3"],
], ids=["layers", "bimagic"])
def test_generate_says_when_the_budget_cuts_the_stream(capsys, monkeypatch,
                                                       clock, argv):

    class Stdout(io.StringIO):
        # the budget is spent as soon as the first square is written
        def write(self, text):
            clock.now = 1e9
            return super().write(text)

    argv = ["generate", *argv, "--format", "json"]
    code, whole, err = run(capsys, *argv, "--limit", "1")
    assert (code, err) == (0, "")
    clock.now = 0.0
    stdout = Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(argv + ["--limit", "5", "--budget-ms", "1000"])
    assert code == 0
    assert stdout.getvalue() == whole
    assert capsys.readouterr().err == (
        "budget of 1000 ms spent after 1 of 5 squares\n")


def test_generate_budget_cuts_a_stream_of_replayed_places(capsys,
                                                          monkeypatch, clock):
    # order 3, width 7: five layers per place, so place 1's third pass
    # starts at square 2 * 5**6 + 1, when every inner place replays its
    # record; only place 0 still searches, once per 5**6 squares
    cut = 2 * 5 ** 6 + 1

    class Stdout(io.StringIO):
        # one write per square, then one for the tail
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes == cut:
                clock.now = 1e9
            return super().write(text)

    stdout = Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["generate", "--order", "3", "--width", "7", "--line-sum",
                 "3", "--limit", "1000000000", "--budget-ms", "1000"])
    assert code == 0
    emitted = stdout.getvalue().count("---") + 1
    assert cut <= emitted <= cut + 1
    assert capsys.readouterr().err == (
        f"budget of 1000 ms spent after {emitted} of 1000000000 squares\n")


@pytest.mark.parametrize("limit", ["3", "100"])
def test_generate_is_silent_when_the_budget_is_not_spent(capsys, clock,
                                                         limit):
    # the limit is reached, or the space is exhausted (5 squares), in time
    code, out, err = run(capsys, "generate", "--order", "3", "--width", "1",
                         "--line-sum", "3", "--deterministic", "--limit",
                         limit, "--budget-ms", "1000")
    assert (code, err) == (0, "")
    assert out.count("---") == min(int(limit), 5) - 1


def test_generate_budget_exhausted_exits_3(capsys):
    code, _, err = run(capsys, "generate", "--order", "4", "--width", "4",
                       "--line-sum", "4", "--budget-ms", "0")
    assert code == 3
    assert "budget" in err


def test_generate_flag_conflicts_exit_2(capsys):
    code, _, err = run(capsys, "generate", "--bimagic", "--order", "8",
                       "--width", "4")
    assert code == 2
    assert "order 9" in err
    code, _, err = run(capsys, "generate", "--order", "3", "--width", "2")
    assert code == 2
    assert "--line-sum" in err


def run_child(*argv):
    # a fresh interpreter, so the search starts at the CLI's own stack depth
    env = dict(os.environ,
               PYTHONPATH=str(Path(digitsquares.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "digitsquares", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


BOUNDS = ("is too large a search: the order may be at most 31 and the "
          "searched places (half the width when palindromic) at most 961")
# an integer past Python's default int-to-string limit of 4300 digits
TOO_LONG = "9" * 5000
LONGER_THAN_PYTHON = ("an integer of 5000 digits is longer than Python's "
                      "limit of 4300 digits")
# a long value that is not digits, and how a message shows it
NOT_DIGITS = "x" * 5000
SHOWN = f"'{'x' * 40}'... (5000 characters)"


@pytest.mark.parametrize("argv, code, message", [
    # the command line's own
    ([], 2, "error: --line-sum is required unless --bimagic is set"),
    (["--line-sum", "3,x"], 2, "error: --line-sum must be integers, got '3,x'"),
    (["--width", "2", "--line-sum", "3,3,3"], 2,
     "error: --line-sum needs 1 or 2 values, got 3"),
    (["--alphabet", "00", "--line-sum", "0"], 2,
     "error: alphabet has repeated digits: (0, 0)"),
    # SearchSpec's
    (["--order", "2", "--line-sum", "2"], 2,
     "error: order must be at least 3, got 2"),
    (["--width", "0", "--line-sum", "3"], 2,
     "error: width must be at least 1, got 0"),
    (["--line-sum", "3", "--limit", "0"], 2,
     "error: limit must be at least 1, got 0"),
    (["--line-sum", "3", "--seed", "-1"], 2,
     "error: seed must not be negative"),
    (["--line-sum", "3", "--budget-ms", "-1"], 2,
     "error: budget must not be negative"),
    (["--order", "32", "--width", "1", "--line-sum", "32"], 2,
     f"error: order 32 with width 1 {BOUNDS}"),
    (["--width", "962", "--line-sum", "3"], 2,
     f"error: order 3 with width 962 {BOUNDS}"),
    (["--width", "1924", "--line-sum", "3", "--palindromic"], 2,
     f"error: order 3 with width 1924 {BOUNDS}"),
    (["--order", "8", "--width", "4", "--bimagic"], 2,
     "error: bimagic search supports only order 9, width 4"),
    (["--order", "9", "--width", "4", "--bimagic", "--alphabet", "013"], 2,
     "error: bimagic search supports only the {0,1,2} alphabet"),
    (["--order", "9", "--width", "4", "--bimagic", "--palindromic"], 2,
     "error: bimagic and palindromic cannot be combined "
     "(extend a bimagic square instead)"),
    (["--order", "9", "--width", "4", "--bimagic", "--pandiagonal"], 2,
     "error: bimagic search does not offer pandiagonality"),
    (["--order", "9", "--width", "4", "--bimagic", "--line-sum", "8"], 2,
     "error: bimagic squares over {0,1,2} force line sums (9, 9, 9, 9)"),
    (["--width", "3", "--line-sum", "3", "--palindromic"], 2,
     "error: palindromic cells need an even width"),
    # gen_square's, before any search
    (["--line-sum", "7"], 3,
     "no squares: line sum 7 at place 0 is outside [0, 6] for order 3 "
     "over 012"),
    (["--width", "2", "--line-sum", "3,6", "--palindromic"], 3,
     "no squares: palindromic cells force mirror-symmetric line sums, "
     "got (3, 6)"),
    (["--line-sum", "3", "--distinct"], 3,
     "no squares: only 3 distinct cells are available but 9 are needed"),
    (["--order", "6", "--line-sum", "4", "--pandiagonal"], 3,
     "no squares: line sum 4 at place 0 is not a multiple of 6, as every "
     "pandiagonal layer of order 6 needs"),
    # an integer past Python's limit, named by its digit count
    (["--line-sum", TOO_LONG], 2, f"error: --line-sum: {LONGER_THAN_PYTHON}"),
    (["--line-sum", "3", "--seed", TOO_LONG], 2,
     f"digitsquares generate: error: argument --seed: {LONGER_THAN_PYTHON}"),
])
def test_every_generate_refusal(capsys, argv, code, message):
    try:
        result = run(capsys, "generate", *argv)
    except SystemExit as exc:
        # argparse refuses the flag itself: its usage, then one error line
        out, err = capsys.readouterr()
        result = exc.code, out, err.splitlines(keepends=True)[-1]
    assert result == (code, "", message + "\n")


def test_a_refused_wide_request_builds_nothing(capsys):
    tracemalloc.start()
    try:
        code = main(["generate", "--width", "10000000", "--line-sum", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "order 3 with width 10000000" in capsys.readouterr().err
    # one tuple of the line sums would take 80 MB
    assert peak < 5_000_000


@pytest.mark.parametrize("order, width", [("34", "1"), ("3", "1200")])
def test_generate_too_deep_search_exits_2(order, width):
    proc = run_child("generate", "--order", order, "--width", width,
                     "--line-sum", order)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: order {order} with width {width} {BOUNDS}\n"


@pytest.mark.parametrize("order, width", [("31", "1"), ("3", "961")])
def test_generate_deepest_allowed_search_runs(order, width):
    # the largest order, and the most searched places, the bounds let by
    proc = run_child("generate", "--order", order, "--width", width,
                     "--line-sum", order, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    (doc,) = json.loads(proc.stdout)
    assert (doc["order"], doc["width"]) == (int(order), int(width))


@pytest.mark.parametrize("argv", [
    # reaches its last place at once, and spends its budget there counting
    # the draws of the rows its refusals skip
    ["--order", "8", "--width", "5", "--line-sum", "8", "--seed", "3"],
    # the largest order; its first place finds no layer in time
    ["--order", "31", "--width", "3", "--line-sum", "140", "--alphabet",
     "0123456789"],
], ids=["order-8", "order-31"])
def test_generate_distinct_search_ends_at_its_budget(argv):
    start = time.monotonic()
    proc = run_child("generate", *argv, "--distinct", "--budget-ms", "300")
    assert time.monotonic() - start < 20
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "out of budget: no square found within 300 ms\n"


def test_generate_bimagic(capsys, tmp_path):
    out_path = tmp_path / "bi.json"
    code, _, _ = run(capsys, "generate", "--order", "9", "--width", "4",
                     "--bimagic", "--deterministic", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--bimagic", "--blocks", "3",
                       "--distinct", str(out_path))
    assert code == 0
    assert "s2: 17169495" in out
    # the construction's alphabet is 012, in whatever order it was asked for
    code, out, _ = run(capsys, "generate", "--order", "9", "--width", "4",
                       "--bimagic", "--alphabet", "210", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["alphabet"] == "012"


@pytest.mark.parametrize("seed,digest", [
    ("1", "82dbdbe5c4661315a0a243f49ac4587a0a5c66a4bd7ca3e8d77990c6cc7ce253"),
    ("2", "68609845a11b4d565adb881151fe118eeae19908d5c9683272ce94f20cf09e76"),
])
def test_generate_seeded_bimagic_stream_is_pinned(capsys, seed, digest):
    # the digests the benchmark baseline pins for these two calls
    code, out, _ = run(capsys, "generate", "--order", "9", "--width", "4",
                       "--bimagic", "--limit", "15", "--seed", seed,
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("flag", ["--order", "--width", "--limit", "--seed",
                                  "--budget-ms"])
@pytest.mark.parametrize("value", ["\u0663", "+3"])
def test_generate_integer_flags_take_ascii_digits_only(capsys, flag, value):
    argv = {"--order": "3", "--width": "1", "--line-sum": "3", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["generate"] + [x for item in argv.items() for x in item])
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer in ASCII digits" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("flag, argv, message", [
    *(pytest.param(flag, ["generate", "--line-sum", "3", flag, sign + TOO_LONG],
                   f"{flag}: {LONGER_THAN_PYTHON}", id=f"{flag}={sign}9...")
      for flag in ("--order", "--width", "--limit", "--seed", "--budget-ms")
      for sign in ("", "-")),
    pytest.param("--line-sum", ["generate", "--width", "2", "--line-sum",
                                f"3,-{TOO_LONG}"],
                 f"--line-sum: {LONGER_THAN_PYTHON}", id="--line-sum=3,-9..."),
    pytest.param("--blocks", ["verify", "--blocks", TOO_LONG, "-"],
                 f"--blocks: {LONGER_THAN_PYTHON}", id="--blocks=9..."),
    # a long value that is not digits is shown by its start and length
    *(pytest.param(flag, ["generate", "--line-sum", "3", flag, NOT_DIGITS],
                   f"{flag}: expected an integer in ASCII digits, got {SHOWN}",
                   id=f"{flag}=x...")
      for flag in ("--order", "--width", "--limit", "--seed", "--budget-ms")),
    pytest.param("--line-sum", ["generate", "--line-sum", f"3,{NOT_DIGITS}"],
                 f"--line-sum must be integers, got '3,{'x' * 38}'... "
                 f"(5002 characters)", id="--line-sum=3,x..."),
    # Alphabet's own message, which names the flag without its dashes
    pytest.param("alphabet", ["generate", "--line-sum", "3", "--alphabet",
                              NOT_DIGITS],
                 f"alphabet must be decimal digits, got {SHOWN}",
                 id="--alphabet=x..."),
    pytest.param("--blocks", ["verify", "--blocks", NOT_DIGITS, "-"],
                 f"--blocks: expected an integer in ASCII digits, got {SHOWN}",
                 id="--blocks=x..."),
])
def test_an_oversized_integer_flag_is_named_not_echoed(capsys, flag, argv,
                                                       message):
    # past Python's limit int() raises, and argparse or the generate
    # command would echo all the digits or name no flag; a value that is
    # not digits was echoed whole
    with mock.patch("sys.stdin", io.StringIO("")):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(message) and flag in message
    assert "99999" not in err and "x" * 41 not in err and len(err) < 1000


# an integer within Python's limit, which every integer flag takes
_NINES = "9" * 4000
_NINES_SHOWN = f"{'9' * 40}... (4000 characters)"


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["generate", "--line-sum", "3", "--alphabet", "1" * 5000], 2,
                 f"error: alphabet has repeated digits: {'(' + '1, ' * 13}... "
                 "(15000 characters)", id="--alphabet=1..."),
    pytest.param(["generate", "--line-sum", "3", "--order", _NINES], 2,
                 f"error: order {_NINES_SHOWN} with width 1 is too large a "
                 "search: the order may be at most 31 and the searched "
                 "places (half the width when palindromic) at most 961",
                 id="--order=9..."),
    *(pytest.param(["generate", "--line-sum", "3", f"--{flag}", "-" + _NINES],
                   2, f"error: {flag} must be at least {least}, got "
                      f"-{'9' * 39}... (4001 characters)",
                   id=f"--{flag}=-9...")
      for flag, least in (("order", 3), ("width", 1), ("limit", 1))),
    pytest.param(["generate", "--line-sum", "3,3", "--width", _NINES], 2,
                 f"error: --line-sum needs 1 or {_NINES_SHOWN} values, got 2",
                 id="--width=9..."),
    pytest.param(["generate", "--line-sum", _NINES], 3,
                 f"no squares: line sum {_NINES_SHOWN} at place 0 is outside "
                 "[0, 6] for order 3 over 012", id="--line-sum=9..."),
    pytest.param(["generate", "--width", "1922", "--palindromic",
                  "--line-sum", "3," * 1921 + "6"], 3,
                 "no squares: palindromic cells force mirror-symmetric line "
                 f"sums, got {'(' + '3, ' * 13}... (5766 characters)",
                 id="--line-sum=3,...,6"),
    pytest.param(["verify", "--blocks", _NINES, "-"], 2,
                 f"error: block size {_NINES_SHOWN} does not tile a square "
                 "of order 1", id="--blocks=9..."),
    # past 10**308 ms the deadline overflowed a float, with a traceback
    pytest.param(["generate", "--line-sum", "3", "--budget-ms",
                  "1" + "0" * 400], 2,
                 f"error: budget must be below 10**308 ms, got 1{'0' * 39}... "
                 "(401 characters)", id="--budget-ms=10**400"),
])
def test_a_long_flag_value_is_shown_by_its_start_and_length(capsys, argv,
                                                            code, message):
    # a value past 40 characters is shown by its first 40 and its length,
    # as in a document, also where the search or the verifier refuses it
    doc = '{"order": 1, "width": 1, "rows": [["1"]]}'
    with mock.patch("sys.stdin", io.StringIO(doc)):
        assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", message + "\n")
    assert len(err) < 1000 and not re.search(r"(.)\1{40}", err)


_XS = "x" * 5000


@pytest.mark.parametrize("argv, shown", [
    (["generate", "--line-sum", "3", "--format", _XS],
     f"invalid choice: '{'x' * 39}... (5002 characters)"),
    ([_XS], f"'{'x' * 39}... (5002 characters)"),
    (["verify", "-", _XS],
     f"unrecognized arguments: {'x' * 40}... (5000 characters)"),
    # a long value of short words, and a long list of short arguments
    (["generate", "--line-sum", "3", "--format", "x " * 2500],
     f"invalid choice: '{'x ' * 19}x... (5002 characters)"),
    (["verify", "-", *["y"] * 2000],
     f"unrecognized arguments: {'y ' * 20}... (3999 characters)"),
], ids=["--format=x...", "command=x...", "verify - x...", "--format=x x ...",
        "verify - y y ..."])
def test_argparse_shows_a_long_value_by_its_start_and_length(capsys, argv,
                                                              shown):
    # argparse's own messages: each value they echo past 40 characters,
    # the repr of an invalid choice or the list of unrecognized arguments,
    # is shown by its first 40 and its length
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and shown in err.splitlines()[-1]
    assert len(err) < 1000 and not re.search(r"(.)\1{40}", err)


def test_generate_line_sum_takes_ascii_digits_only(capsys):
    for raw in ("\u0663", "3,\u0663,3"):
        code, _, err = run(capsys, "generate", "--order", "3", "--width", "3",
                           "--line-sum", raw)
        assert code == 2
        assert f"--line-sum must be integers, got {raw!r}" in err
    # a minus sign is still read, and a negative seed is refused: the
    # generator would seed with abs(seed) and repeat the positive seed
    code, out, err = run(capsys, "generate", "--order", "3", "--width", "1",
                         "--line-sum", "3", "--seed", "-1", "--format", "json")
    assert (code, out) == (2, "")
    assert "seed must not be negative" in err


def test_verify_blocks_takes_ascii_digits_only(capsys, ext_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--blocks", "\u0663", ext_path])
    assert exc.value.code == 2
    assert "argument --blocks: expected an integer" in capsys.readouterr().err


def test_generate_deterministic_is_byte_identical(capsys, tmp_path):
    args = ["generate", "--order", "3", "--width", "2", "--line-sum", "3",
            "--distinct", "--limit", "3", "--deterministic", "--seed", "0"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_transform_rotate_twice_is_identity(capsys, tmp_path, ext_path):
    once = tmp_path / "once.json"
    twice = tmp_path / "twice.json"
    assert run(capsys, "transform", "--rotate180", ext_path,
               "--out", str(once))[0] == 0
    assert run(capsys, "transform", "--rotate180", str(once),
               "--out", str(twice))[0] == 0
    assert json.loads(twice.read_text())["rows"] == EXT_DOC["rows"]


def test_transform_rotated_square_still_verifies(capsys, tmp_path, ext_path):
    rot = tmp_path / "rot.json"
    run(capsys, "transform", "--rotate180", ext_path, "--out", str(rot))
    code, out, _ = run(capsys, "verify", str(rot))
    assert code == 0
    assert "s1: 3333" in out


def test_transform_mirror_changes_alphabet(capsys, ext_path):
    code, out, _ = run(capsys, "transform", "--mirror", ext_path)
    assert code == 0
    assert json.loads(out)["alphabet"] == "015"


@pytest.mark.parametrize("mode, alphabet", [("--rotate180", "21"),
                                             ("--mirror", "51")])
def test_transform_keeps_the_declared_alphabet_order(capsys, tmp_path, mode,
                                                     alphabet):
    path = tmp_path / "unsorted.json"
    path.write_text(json.dumps({"order": 2, "width": 1, "alphabet": "21",
                                "rows": [["1", "2"], ["2", "1"]]}))
    code, out, _ = run(capsys, "transform", mode, str(path))
    assert code == 0
    assert json.loads(out)["alphabet"] == alphabet


def test_transform_failure_exits_1(capsys, tmp_path):
    path = tmp_path / "seven.json"
    path.write_text(json.dumps({
        "order": 3, "width": 1,
        "rows": [["7", "1", "1"], ["1", "1", "1"], ["1", "1", "7"]]}))
    code, _, err = run(capsys, "transform", "--rotate180", str(path))
    assert code == 1
    # the scan hits the source cell (2, 2) first when filling (0, 0)
    assert "cell (2, 2)" in err


@pytest.mark.parametrize("mode, image", [
    ("--rotate180", "a 180 degree rotation"),
    ("--mirror", "mirroring"),
])
def test_transform_alphabet_digit_without_image_exits_1(capsys, tmp_path,
                                                        mode, image):
    # the cells all have images, but the declared alphabet's 3 does not
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(dict(EXT_DOC, alphabet="0123")))
    code, out, err = run(capsys, "transform", mode, str(path))
    assert code == 1
    assert out == ""
    assert err == f"cannot transform: alphabet digit 3 does not survive {image}\n"


def test_transform_needs_exactly_one_mode(ext_path):
    with pytest.raises(SystemExit) as exc:
        main(["transform", ext_path])
    assert exc.value.code == 2


def test_render_matches_library(capsys, ext_path):
    square = parse_document(json.dumps(EXT_DOC))
    code, out, _ = run(capsys, "render", ext_path)
    assert code == 0
    assert out == render_square(square) + "\n"


def test_render_compact_drops_blank_lines(capsys, ext_path):
    code, out, _ = run(capsys, "render", "--compact", ext_path)
    assert code == 0
    assert "" not in out.rstrip("\n").split("\n")


def test_decompose_text(capsys, ext_path):
    code, out, _ = run(capsys, "decompose", ext_path)
    assert code == 0
    assert "layer 0: scale 1000, line sum 3" in out
    assert "layer 3: scale 1, line sum 3" in out


def test_decompose_json(capsys, ext_path):
    code, out, _ = run(capsys, "decompose", "--format", "json", ext_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["width"] == 4
    assert payload["layers"][0]["line_sum"] == 3
    # outer planes mirror the inner ones on palindromic squares
    assert payload["layers"][0]["rows"] == payload["layers"][3]["rows"]


# layer 1 of this square is not magic: its last cell is 0, not 2
SKEWED_DOC = {"order": 3, "width": 2,
              "rows": [["10", "22", "01"], ["02", "11", "20"],
                       ["21", "00", "10"]]}
# every row and column of both layers sums to 3; layer 0's anti-diagonal
# and layer 1's main diagonal sum to 6
DIAGONAL_DOC = {"order": 3, "width": 2,
                "rows": [["02", "11", "20"], ["10", "22", "01"],
                         ["21", "00", "12"]]}


@pytest.mark.parametrize("doc,fmt,digest", [
    (EXT_DOC, "text",
     "0ceaab25609e1c10da7618b0e8a52ec45ba73993a11e0dc588d63c04ffa9267b"),
    (EXT_DOC, "json",
     "68d4083a73b1fc6b7a39e58a76922f28a85dc79d4de3720dbe2a5be2b22a8e27"),
    (SKEWED_DOC, "text",
     "cbd3555fcde387ef71e6dc45accbabbb9a003357801b20fef8184ddde5b7509c"),
    (SKEWED_DOC, "json",
     "38030e1d43ce725514e37618c501b8b07c812929d681c48e61b81f37207c16b5"),
    (DIAGONAL_DOC, "text",
     "5a270551fadc1f9099bce3abf2c252b9a95590b0ff4ec454a0ceb071f58f30fc"),
    (DIAGONAL_DOC, "json",
     "b966ae193852e2d33df29ae389f913cd083acda674f6ad36589909fef8946d1b"),
], ids=["magic-text", "magic-json", "skewed-text", "skewed-json",
        "diagonal-text", "diagonal-json"])
def test_decompose_output_is_pinned(capsys, monkeypatch, doc, fmt, digest):
    # digests of the output when each layer's line sum came from
    # check_magic on a width-1 Square
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "decompose", "--format", fmt, "-")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if doc is SKEWED_DOC:
        assert ("line sum -" in out) if fmt == "text" else (
            [layer["line_sum"] for layer in json.loads(out)["layers"]]
            == [3, None])


def code_word_decompose(square, fmt):
    """What decompose wrote when each layer was checked as a Square of
    code words by the oracle's check_magic."""
    layers = [{"place": p, "scale": 10 ** (square.width - 1 - p),
               "line_sum": oracle.check_magic(recompose((grid,))),
               "rows": [list(row) for row in grid]}
              for p, grid in enumerate(decompose(square))]
    if fmt == "json":
        return json.dumps({"order": square.order, "width": square.width,
                           "layers": layers}, indent=2) + "\n"
    out = ""
    for entry in layers:
        common = entry["line_sum"]
        out += (f"layer {entry['place']}: scale {entry['scale']}, "
                f"line sum {common if common is not None else '-'}\n")
        out += "".join("  " + " ".join(map(str, row)) + "\n"
                       for row in entry["rows"])
    return out


@settings(deadline=None, max_examples=100)
@given(squares((0, 1, 2), orders=(1, 5), widths=(1, 4)),
       st.sampled_from(["text", "json"]))
def test_decompose_matches_the_code_word_line_sums(square, fmt):
    out = io.StringIO()
    text = json.dumps(square_document(square))
    with (mock.patch("sys.stdin", io.StringIO(text)),
          contextlib.redirect_stdout(out)):
        assert main(["decompose", "--format", fmt, "-"]) == 0
    assert out.getvalue() == code_word_decompose(square, fmt)


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_rejects_unknown_flags():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--frobnicate", "x.json"])
    assert exc.value.code == 2
