"""Benchmark of the digitsquares CLI: end-to-end runs and a traced run.

    python3 bench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is taken from src/.
With --trace 0 each call of the workload's round is a `python -m
digitsquares` child process, one at a time (a closed loop with one client),
and the round is repeated round(--seconds / its length on the seed commit)
times, so every commit compared does the same work.
With --trace 1 the same calls run in this process through cli.main, once
plainly and once with span wrappers installed, which gives per-layer self
times and counts. `--workload all` runs every workload in turn.

Every call's stdout is checked by checker.py, which does not import the
package, and its sha256 is recorded next to its timing. The last line of
stdout is one JSON object: correct, attempted, failed and metrics. Records
of every call, the environment and the spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checker
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
BASELINE = ROOT / "bench" / "baseline.json"
CALL_TIMEOUT_S = 60.0
HELP_RUNS = 15

# name -> unit, for --trace 0
END_TO_END = {
    "wall_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
    "first_output_s": "s", "squares_per_s": "1/s", "peak_rss_mb": "MB",
    "setup_s": "s", "ok_frac": "ratio",
}

# span self times reported per layer, for --trace 1
SELF_TIMES = (
    "generate.plane_search", "generate.distinct_prune", "generate.reverify",
    "generate.product", "generate.construct", "verify.check_magic",
    "verify.entry_properties", "verify.check_pandiagonal",
    "verify.check_bimagic", "verify.check_blocks", "verify.report",
    "verify.line_sums", "core.recompose", "core.square_validate",
    "core.transform", "core.decompose", "sevenseg.render", "cli.parse",
    "cli.emit",
)
COUNTS = (
    "generate.plane_streams", "generate.planes_yielded",
    "generate.distinct_checks", "generate.distinct_rejects",
    "generate.squares_emitted", "verify.line_sums_calls",
    "core.recompose_calls", "core.square_validations",
)
# metric name for a span whose self time is not simply "<span>_s"
RENAMED = {"generate.product": "generate.product_self_s"}


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


@dataclass
class Outcome:
    """One executed call: timing, resources, output digest and verdict."""

    label: str
    wall_s: float
    exit_code: int
    stdout_sha256: str
    stdout_bytes: int
    squares: int = 0
    first_output_s: float | None = None
    max_rss_mb: float | None = None
    error: str | None = None
    stderr_tail: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None


def judge(call: workloads.Call, outcome: Outcome, stdout: bytes,
          verdicts: dict, expected: dict | None = None) -> None:
    """Check one call's output; identical bytes reuse an earlier verdict.

    expected maps call labels to the stdout sha256 of the baseline commit:
    deterministic streams stay byte-identical, so a call whose output moved
    has failed even if the output is valid.
    """
    if outcome.exit_code != 0:
        outcome.error = f"exit code {outcome.exit_code}, expected 0"
        return
    want = (expected or {}).get(call.label)
    if want is not None and want != outcome.stdout_sha256:
        outcome.error = "stdout differs from baseline"
        return
    key = (call.label, outcome.stdout_sha256)
    if key not in verdicts:
        try:
            verdicts[key] = (call.check(stdout), None)
        except checker.CheckFailed as exc:
            verdicts[key] = (0, str(exc))
    outcome.squares, outcome.error = verdicts[key]


def baseline_digests() -> dict[str, str]:
    """Call label -> stdout sha256 recorded in the baseline."""
    try:
        return json.loads(BASELINE.read_text(encoding="utf-8"))["stdout_sha256"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no stdout digests in {BASELINE.name}: {exc}") from exc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], env: dict) -> tuple[Outcome, bytes]:
    """Run one child to completion, timing spawn to exit and the first byte."""
    out_chunks: list[bytes] = []
    err_chunks: list[bytes] = []
    first = None
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "digitsquares", *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=env)
    error = None
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out_chunks)
        sel.register(proc.stderr, selectors.EVENT_READ, err_chunks)
        while sel.get_map():
            left = CALL_TIMEOUT_S - (time.perf_counter() - start)
            ready = sel.select(timeout=max(left, 0.0))
            if not ready:
                proc.kill()
                error = f"killed after {CALL_TIMEOUT_S:.0f} s"
                break
            for key, _ in ready:
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fileobj)
                    continue
                if key.data is out_chunks and first is None:
                    first = time.perf_counter() - start
                key.data.append(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    stdout = b"".join(out_chunks)
    outcome = Outcome(
        label=" ".join(argv), wall_s=wall, exit_code=proc.returncode,
        stdout_sha256=hashlib.sha256(stdout).hexdigest(),
        stdout_bytes=len(stdout), first_output_s=first,
        max_rss_mb=usage.ru_maxrss / 1024.0,
        stderr_tail=b"".join(err_chunks)[-400:].decode("utf-8", "replace"),
        error=error)
    return outcome, stdout


def in_process(cli, argv: list[str], tracer: spans.Tracer | None
               ) -> tuple[Outcome, bytes]:
    """Run one call through cli.main in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(list(argv))
            else:
                # the call span's self time is what no layer span covers
                code = tracer.call("trace.uncovered", cli.main, list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash of the program is a failed call
            traceback.print_exc(file=err)
            code = 1
    wall = time.perf_counter() - start
    stdout = out.getvalue().encode("utf-8")
    return Outcome(label=" ".join(argv), wall_s=wall, exit_code=code,
                   stdout_sha256=hashlib.sha256(stdout).hexdigest(),
                   stdout_bytes=len(stdout),
                   stderr_tail=err.getvalue()[-400:]), stdout


def run_round(calls, execute, verdicts: dict, expected: dict) -> list[Outcome]:
    outcomes = []
    for call in calls:
        outcome, stdout = execute(call.argv)
        judge(call, outcome, stdout, verdicts, expected)
        outcomes.append(outcome)
    return outcomes


def repeat(step, count: int, limit_s: float) -> None:
    """Call step() count times; on a host too slow for that, stop after limit_s."""
    start = time.perf_counter()
    for _ in range(count):
        step()
        if time.perf_counter() - start > limit_s:
            return


def mark_unstable(rounds: list[list[Outcome]]) -> None:
    """A call whose stdout differs between repeats of itself has failed."""
    for k in range(len(rounds[0])):
        digests = {r[k].stdout_sha256 for r in rounds}
        if len(digests) > 1:
            for r in rounds:
                if r[k].ok:
                    r[k].error = "stdout differs between repeats of this call"


def tail_rank(n: int) -> tuple[int, str]:
    """Index of the highest sample with ten or more samples above it.

    Below 22 calls that sample would sit under the median, so the largest
    call is reported instead; the note says which.
    """
    if n - 11 >= n // 2:
        return n - 11, f"p{100 * (n - 11) / n:.0f}: 10 samples above"
    return n - 1, "max: fewer than 22 calls"


def end_to_end(rounds: list[list[Outcome]], help_walls: list[float]):
    calls = [o for r in rounds for o in r]
    walls = sorted(o.wall_s for o in calls)
    index, tail_note = tail_rank(len(walls))
    firsts = [o.first_output_s for o in calls if o.first_output_s is not None]
    attempted = len(calls)
    failed = sum(not o.ok for o in calls)
    values = {
        "wall_s": (statistics.median(sum(o.wall_s for o in r) for r in rounds),
                   len(rounds), "median over rounds of the round's summed call wall"),
        "latency_p50_s": (statistics.median(walls), len(walls), "median call"),
        "latency_tail_s": (walls[index], len(walls), tail_note),
        # no output at all means every call failed; the timeout stands in
        "first_output_s": (statistics.median(firsts) if firsts else CALL_TIMEOUT_S,
                           len(firsts), "median spawn to first stdout byte"),
        "squares_per_s": (sum(o.squares for o in calls) / sum(walls), len(calls),
                          "checked squares / summed call wall"),
        "peak_rss_mb": (max(o.max_rss_mb for o in calls), len(calls),
                        "largest child max RSS"),
        "setup_s": (statistics.median(help_walls), len(help_walls),
                    "median `digitsquares --help` wall"),
        "ok_frac": ((attempted - failed) / attempted, attempted,
                    "calls that exited 0 and passed the check"),
    }
    return values, attempted, failed


def measure(workload: str, calls, count: int, limit_s: float) -> dict:
    env = child_env()
    # the first start compiles bytecode; users pay that once, not per call
    warm, _ = spawn(["--help"], env)
    if warm.exit_code != 0:
        raise BenchError(f"`digitsquares --help` exited {warm.exit_code}: "
                         f"{warm.stderr_tail}")
    help_walls = []
    for _ in range(HELP_RUNS):
        outcome, _ = spawn(["--help"], env)
        if outcome.exit_code != 0:
            raise BenchError(f"`digitsquares --help` exited {outcome.exit_code}")
        help_walls.append(outcome.wall_s)
    rounds: list[list[Outcome]] = []
    verdicts: dict = {}
    expected = baseline_digests()
    repeat(lambda: rounds.append(
        run_round(calls, lambda argv: spawn(list(argv), env), verdicts,
                  expected)),
        count, limit_s)
    mark_unstable(rounds)
    values, attempted, failed = end_to_end(rounds, help_walls)
    return {
        "metrics": {name: {"value": v, "unit": END_TO_END[name]}
                    for name, (v, _, _) in values.items()},
        "table": [(name, v, END_TO_END[name], n, note)
                  for name, (v, n, note) in values.items()],
        "attempted": attempted, "failed": failed,
        "record": {"rounds": [[vars(o) for o in r] for r in rounds],
                   "setup_help_walls_s": help_walls},
    }


def load_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from digitsquares import cli, core, generate, sevenseg, verify
    return {"cli": cli, "core": core, "generate": generate,
            "sevenseg": sevenseg, "verify": verify}


def traced(workload: str, calls, count: int, limit_s: float) -> dict:
    modules = load_package()
    cli = modules["cli"]
    plain, layered, tracers, installs = [], [], [], []
    verdicts: dict = {}
    expected = baseline_digests()

    def execute_pair():
        # one plain round, then the same calls traced
        plain.append(run_round(
            calls, lambda argv: in_process(cli, argv, None), verdicts,
            expected))
        tracer = spans.Tracer()
        installed = spans.Installed(tracer, modules)
        try:
            layered.append(run_round(
                calls, lambda argv: in_process(cli, argv, tracer), verdicts,
                expected))
        finally:
            installed.undo()
        tracers.append(tracer)
        installs.append(installed)

    repeat(execute_pair, count, limit_s)
    rounds = [r for pair in zip(plain, layered) for r in pair]
    mark_unstable(rounds)

    fed = installs[-1].fed

    def median(source, fn):
        # a boundary that is gone reads as missing (None), never as 0
        if source not in fed:
            return None
        return statistics.median(fn(t) for t in tracers)

    values = {}
    for span in SELF_TIMES:
        values[RENAMED.get(span, f"{span}_s")] = (
            median(span, lambda t: t.self_s.get(span, 0.0)), "s")
    values["generate.reverify_total_s"] = (
        median("generate.reverify",
               lambda t: t.total_s.get("generate.reverify", 0.0)), "s")
    for name in COUNTS:
        values[name] = (median(name, lambda t: t.counts.get(name, 0)), "count")
    plain_wall = statistics.median(sum(o.wall_s for o in r) for r in plain)
    traced_wall = statistics.median(sum(o.wall_s for o in r) for r in layered)
    values["trace.uncovered_s"] = (statistics.median(
        t.self_s.get("trace.uncovered", 0.0) for t in tracers), "s")
    values["trace.wall_s"] = (traced_wall, "s")
    values["trace.plain_wall_s"] = (plain_wall, "s")
    values["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    values["trace.spans"] = (statistics.median(len(t.spans) for t in tracers),
                             "count")

    calls_all = [o for r in rounds for o in r]
    failed = sum(not o.ok for o in calls_all)
    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"spans-{workload}.json.gz"
    with gzip.open(span_file, "wt", encoding="utf-8") as fh:
        json.dump({"columns": ["id", "name", "start", "end", "parent"],
                   "spans": tracers[-1].spans}, fh)
    n = len(tracers)
    return {
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in values.items()},
        "table": [(name, v, unit, n, "median over traced rounds")
                  for name, (v, unit) in values.items()],
        "attempted": len(calls_all), "failed": failed,
        "missing_boundaries": installs[-1].missing,
        "record": {"rounds": [[vars(o) for o in r] for r in rounds],
                   "missing_boundaries": installs[-1].missing,
                   "spans_file": span_file.name},
    }


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform()}


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = OUT / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    env_info = environment()
    env_info["loadavg_before"] = loadavg()
    setup_start = time.perf_counter()
    calls = workloads.BUILDERS[name](seed, inputs.relative_to(ROOT))
    build_s = time.perf_counter() - setup_start
    # a traced step is a plain round and a traced one
    count = workloads.rounds(name, seconds / 2 if trace else seconds)
    try:
        result = (traced if trace else measure)(name, calls, count,
                                                2 * seconds)
    finally:
        shutil.rmtree(inputs)
    env_info["loadavg_after"] = loadavg()
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "rounds_planned": count,
              "environment": env_info,
              "input_build_s": build_s,
              "calls": [c.label for c in calls], **result["record"]}
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    result["record_file"] = path
    result["environment"] = env_info
    return result


def print_table(name: str, seed: int, result: dict) -> None:
    env = result["environment"]
    print(f"# workload {name}, seed {seed}: {result['attempted']} calls, "
          f"{result['failed']} failed; python {env['python']}, "
          f"nproc {env['nproc']}, {env['cpu_model']}; "
          f"loadavg {env['loadavg_before']} -> {env['loadavg_after']}")
    for metric, value, unit, n, note in result["table"]:
        shown = "missing" if value is None else f"{value:14.6f}"
        print(f"  {metric:28s} {shown:>14s} {unit:6s} n={n:<4d} {note}")
    if result.get("missing_boundaries"):
        print("  missing boundaries (their metrics read null): "
              + ", ".join(result["missing_boundaries"]))
    print(f"  record: {result['record_file'].relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "digitsquares" / "__init__.py").is_file():
        print(f"error: no digitsquares package under {SRC}", file=sys.stderr)
        return 2
    # call arguments name files relative to the checkout root
    os.chdir(ROOT)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
            print_table(name, args.seed, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{m}": v for name, r in results.items()
                   for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
