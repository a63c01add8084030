"""Measure the benchmark's run-to-run spread and write the baseline.

    python3 bench/spread.py

For every workload it runs bench/run.py on seeds 1-10 twice (two sets of
runs of the same code), with BENCHMARK.json's run_seconds, and then once
traced on seed 1. Per set and end-to-end metric it records the median, the
quartiles (statistics.quantiles, n=4), the interquartile range as a share of
the median and every value; for the second set also how much worse its
median is than the first's, in the metric's `better` direction. It records
the stdout sha256 of every call and whether both sets gave the same digests,
and runs every other call of seeds 0-49 once in-process to record its
digest too, and writes it all to bench/baseline.json. run.py fails a call
whose stdout differs from the digest recorded there, so the digests of the
previous baseline are cleared first: they may belong to other code or
other workloads, and every call here is checked by checker.py instead.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2
TRACED_SEED = 1
PINNED_SEEDS = range(50)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "bench" / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["digests"] = {o["label"]: o["stdout_sha256"]
                         for rnd in record["rounds"] for o in rnd}
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0, "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """Share of the first median by which the second is worse (< 0: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def measure_set(name: str, seconds: int, better: dict) -> dict:
    runs = []
    for seed in SEEDS:
        runs.append(run_once(name, seed, seconds, 0))
        print(f"{name} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4f}" for k, v in runs[-1]["metrics"].items()),
            flush=True)
    digests: dict[str, set] = {}
    for r in runs:
        for label, digest in r["digests"].items():
            digests.setdefault(label, set()).add(digest)
    return {
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": {m: dict(summarise([r["metrics"][m]["value"] for r in runs]),
                            unit=runs[0]["metrics"][m]["unit"])
                    for m in better},
        "digests": digests,
    }


def pin(name: str, pinned: dict, unstable: list[str]) -> None:
    """Add the stdout digest of every call of name on PINNED_SEEDS to pinned."""
    cli = run.load_package()["cli"]
    inputs = run.OUT / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        for seed in PINNED_SEEDS:
            for call in workloads.BUILDERS[name](seed, inputs.relative_to(ROOT)):
                if call.label in pinned or call.label in unstable:
                    continue
                outcome, stdout = run.in_process(cli, call.argv, None)
                run.judge(call, outcome, stdout, {})
                if not outcome.ok:
                    raise SystemExit(f"{call.label}: {outcome.error}")
                pinned[call.label] = outcome.stdout_sha256
    finally:
        shutil.rmtree(inputs)


def main() -> int:
    run.BASELINE.write_text(json.dumps({"stdout_sha256": {}}) + "\n")
    # call arguments name input files relative to the checkout root
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    summary: dict = {
        "environment": run.environment(), "run_seconds": seconds,
        "seeds": list(SEEDS), "traced_seed": TRACED_SEED,
        "workloads": {}, "stdout_sha256": {},
    }
    for name in workloads.NAMES:
        sets = [measure_set(name, seconds, better) for _ in range(SETS)]
        first, second = sets[0]["metrics"], sets[1]["metrics"]
        for m, s in second.items():
            s["worse_than_first"] = worse_by(first[m]["median"], s["median"],
                                             better[m])
        digests = [s.pop("digests") for s in sets]
        labels = sorted(set().union(*digests))
        unstable = [label for label in labels
                    if len(set().union(*(d.get(label, set()) for d in digests))) > 1]
        traced = run_once(name, TRACED_SEED, seconds, 1)
        summary["workloads"][name] = {
            "sets": sets, "digests_identical": not unstable,
            "unstable_calls": unstable,
            "traced": {"failed": traced["failed"],
                       "attempted": traced["attempted"],
                       "metrics": traced["metrics"]},
        }
        summary["stdout_sha256"].update(
            (label, next(iter(digests[0][label]))) for label in labels
            if label not in unstable and label in digests[0])
        pin(name, summary["stdout_sha256"], unstable)
        for m in better:
            a, b = first[m], second[m]
            print(f"  {name:8s} {m:16s} median {a['median']:12.4f} "
                  f"{b['median']:12.4f} {a['unit']:6s} iqr/median "
                  f"{a['iqr_share']:.4f} {b['iqr_share']:.4f} "
                  f"second worse by {b['worse_than_first']:+.4f}")
        print(f"  {name}: {sets[0]['failed'] + sets[1]['failed']} of "
              f"{sets[0]['attempted'] + sets[1]['attempted']} calls failed; "
              f"{len(unstable)} calls with differing digests", flush=True)
    run.BASELINE.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
