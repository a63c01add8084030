"""Checker, metric declarations and tracer of the benchmark.

    PYTHONPATH=src python -m pytest -q bench/test_checker.py
"""

import json
from functools import partial

import pytest

import checker
import run
import workloads
from digitsquares.cli import main


def cli_stdout(capsys, *argv) -> bytes:
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode("utf-8")


def corrupt_cell(rows, i=1, j=2):
    cell = rows[i][j]
    rows[i][j] = cell[:-1] + ("1" if cell[-1] != "1" else "2")


STREAM = dict(order=4, width=4, line_sums=[4] * 4, limit=3)


@pytest.fixture
def stream_out(capsys):
    return cli_stdout(capsys, "generate", "--order", "4", "--width", "4",
                      "--line-sum", "4", "--limit", "3", "--seed", "5",
                      "--format", "json")


def test_generated_stream_passes(stream_out):
    assert checker.check_generated(stream_out, **STREAM) == 3


def test_one_changed_cell_is_rejected(stream_out):
    docs = json.loads(stream_out)
    corrupt_cell(docs[2]["rows"])
    with pytest.raises(checker.CheckFailed, match="square 2"):
        checker.check_generated(json.dumps(docs), **STREAM)


def test_short_count_is_rejected(stream_out):
    docs = json.loads(stream_out)[:2]
    with pytest.raises(checker.CheckFailed, match="2 squares, expected 3"):
        checker.check_generated(json.dumps(docs), **STREAM)


def test_wrong_exit_code_is_a_failure(stream_out):
    call = workloads.Call(("generate",),
                          lambda out: checker.check_generated(out, **STREAM))
    outcome = run.Outcome(label="generate", wall_s=0.1, exit_code=3,
                          stdout_sha256="", stdout_bytes=len(stream_out))
    run.judge(call, outcome, stream_out, {})
    assert not outcome.ok and "exit code 3" in outcome.error


@pytest.mark.parametrize("flags, expect", [
    (("--order", "6", "--line-sum", "6", "--pandiagonal"),
     dict(order=6, line_sums=[6] * 4, pandiagonal=True)),
    (("--order", "5", "--line-sum", "5", "--distinct"),
     dict(order=5, line_sums=[5] * 4, distinct=True)),
    (("--order", "9", "--bimagic", "--limit", "2"),
     dict(order=9, bimagic=True, limit=2)),
])
def test_property_breaks_are_rejected(capsys, flags, expect):
    out = cli_stdout(capsys, "generate", "--width", "4", "--seed", "1",
                     *flags, "--format", "json")
    assert checker.check_generated(out, width=4, **expect) >= 1
    docs = json.loads(out)
    rows = docs[0]["rows"]
    # swapping two cells of one row keeps every row sum but breaks a column
    # or diagonal (or a broken diagonal, or a 3x3 block)
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    with pytest.raises(checker.CheckFailed):
        checker.check_generated(json.dumps(docs), width=4, **expect)


def test_repeated_cells_are_rejected_when_distinct():
    rows = [["0110", "0110", "0110"]] * 3
    with pytest.raises(checker.CheckFailed, match="cells repeat"):
        checker.check_square(rows, 330, distinct=True)


@pytest.fixture
def small_doc(tmp_path):
    block = workloads._block(workloads.BLOCK_MATRIX, (0, 1, 2, 0))
    doc = checker.InspectDocument(block, "012")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc.as_json()))
    return doc, str(path)


def _edit_json(fn):
    def edit(out: bytes) -> bytes:
        obj = json.loads(out)
        fn(obj)
        return json.dumps(obj, indent=2).encode()
    return edit


def _bump_plane_digit(doc):
    row = doc["layers"][1]["rows"][0]
    row[0] = (row[0] + 1) % 3


INSPECT_CASES = {
    "verify": (("verify", "--magic", "--blocks", "3", "--format", "json"),
               lambda doc: partial(doc.check_verify, blocks=3,
                                   s1=checker.BIMAGIC_S1),
               lambda out: out.replace(b"9999", b"9998", 1)),
    "rotate": (("transform", "--rotate180"),
               lambda doc: partial(doc.check_transform, rotate=True),
               _edit_json(lambda d: corrupt_cell(d["rows"]))),
    "mirror": (("transform", "--mirror"),
               lambda doc: partial(doc.check_transform, rotate=False),
               _edit_json(lambda d: corrupt_cell(d["rows"]))),
    "render": (("render",), lambda doc: doc.check_render,
               lambda out: out.replace(b"_", b" ", 1)),
    "decompose": (("decompose", "--format", "json"),
                  lambda doc: doc.check_decompose,
                  _edit_json(_bump_plane_digit)),
}


@pytest.mark.parametrize("case", sorted(INSPECT_CASES))
def test_inspect_output_passes_and_corruption_fails(capsys, small_doc, case):
    doc, path = small_doc
    argv, make_check, corrupt = INSPECT_CASES[case]
    check = make_check(doc)
    out = cli_stdout(capsys, *argv, path)
    assert check(out) == 1
    with pytest.raises(checker.CheckFailed):
        check(corrupt(out))


def test_mirror_maps_the_alphabet(capsys, small_doc):
    doc, path = small_doc
    image = json.loads(cli_stdout(capsys, "transform", "--mirror", path))
    assert image["alphabet"] == "015"
    assert set("".join(c for row in image["rows"] for c in row)) <= set("015")


TINY = [workloads.Call(("generate", "--order", "3", "--width", "2",
                        "--line-sum", "3", "--limit", "2", "--format", "json"),
                       partial(checker.check_generated, order=3, width=2,
                               line_sums=[3, 3], limit=2))]


def declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_end_to_end_metrics_match_the_declaration():
    result = run.measure("tiny", TINY, count=1, limit_s=0)
    assert result["failed"] == 0 and result["attempted"] == 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared("end_to_end")


def test_per_layer_metrics_match_the_declaration():
    result = run.traced("tiny", TINY, count=1, limit_s=0)
    assert result["failed"] == 0 and result["attempted"] == 2
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared("per_layer")
    assert result["record"]["missing_boundaries"] == []
    assert result["metrics"]["generate.squares_emitted"]["value"] == 2


def test_a_removed_boundary_reads_as_missing(monkeypatch):
    from digitsquares import generate
    monkeypatch.delattr(generate, "_prefix_distinct_ok")
    result = run.traced("tiny", TINY, count=1, limit_s=0)
    assert result["failed"] == 0
    assert result["missing_boundaries"] == ["generate._prefix_distinct_ok"]
    for name in ("generate.distinct_prune_s", "generate.distinct_checks",
                 "generate.distinct_rejects"):
        assert result["metrics"][name]["value"] is None
    # a layer the workload does not use is measured, and reads 0
    assert result["metrics"]["generate.construct_s"]["value"] == 0


def test_a_crash_in_a_traced_call_is_a_failed_call(monkeypatch):
    from digitsquares import generate

    def broken(*args, **kwargs):
        raise AssertionError("re-verification failed")

    monkeypatch.setattr(generate, "_reverify", broken)
    result = run.traced("tiny", TINY, count=1, limit_s=0)
    assert result["attempted"] == 2 and result["failed"] == 2
    outcome = result["record"]["rounds"][1][0]
    assert outcome["exit_code"] == 1
    assert "re-verification failed" in outcome["stderr_tail"]


def test_stdout_that_differs_from_the_baseline_fails(monkeypatch):
    label = TINY[0].label
    result = run.measure("tiny", TINY, count=1, limit_s=0)
    assert result["metrics"]["ok_frac"]["value"] == 1
    digest = result["record"]["rounds"][0][0]["stdout_sha256"]
    monkeypatch.setattr(run, "baseline_digests", lambda: {label: digest})
    assert run.measure("tiny", TINY, count=1, limit_s=0)["failed"] == 0
    monkeypatch.setattr(run, "baseline_digests", lambda: {label: "0" * 64})
    result = run.measure("tiny", TINY, count=1, limit_s=0)
    assert result["metrics"]["ok_frac"]["value"] == 0
    assert result["record"]["rounds"][0][0]["error"] == \
        "stdout differs from baseline"


@pytest.mark.parametrize("seed", [0, 1, 49])
def test_the_baseline_pins_every_workload_call(seed):
    pinned = run.baseline_digests()
    for name in ("stream", "search"):
        calls = workloads.BUILDERS[name](seed, None)
        assert all(c.label in pinned for c in calls), name
