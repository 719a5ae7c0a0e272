"""Repeat the benchmark over several seeds and summarize each metric.

    python3 clibench/repeat.py --workload NAME --seeds 1-10

Runs `clibench/run.py --trace 0` once per seed, from the current directory,
with the run length from BENCHMARK.json, and prints
per metric the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the quartile spread as a share of
the median. Raw results are appended to .clibench_results/<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def summarize(results):
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        rows[name] = (med, q1, q3, (q3 - q1) / med if med else float("nan"))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    seconds = str(json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])

    out_dir = Path(".clibench_results")
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"{args.workload}.jsonl"
    results = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", file=sys.stderr)
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name, (med, q1, q3, spread) in summarize(results).items():
        print(f"{name:34s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
