"""Benchmark of the goxlens CLI, run the way a user runs it.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a goxlens source tree. The workload's inputs are made
from the seed (`goxlens synth` plus files written here), then each pipeline
command runs as its own process, one at a time, with the CLI's defaults:
ingest -> detect -> bars -> the workload's `analyze` studies. Every output is
checked (see checks.py). The last line of stdout is one JSON object with the
number of operations attempted and failed (an operation is one CLI command or
one output check) and the metrics:

  --trace 0  end-to-end wall times, peak RSS and set-up time
  --trace 1  per-layer self times and counts from spans recorded inside each
             command (tracer.py), plus the tracing overhead

Each end-to-end metric is sampled until its samples add up to at least
--seconds: the first pass runs the whole pipeline, later passes re-run the
commands whose first sample was under --seconds, together, until each of
their metrics has its --seconds, and the median is reported.
An operation is counted once however many samples it took. Set-up runs
SETUPS times and reports its median.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import Workload  # noqa: E402

SETUPS = 3
IMPORT_SAMPLES = 3
COMMAND_TIMEOUT_S = 170
CONSOLE = "import sys; from goxlens.cli import main; sys.exit(main())"
WORK_DIR = ".clibench_work"
TRACE_DIR = ".clibench_traces"


class CommandFailed(Exception):
    pass


@dataclass
class Command:
    label: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    code: int
    start: float
    end: float


class Cli:
    """Runs goxlens commands as separate processes and measures each."""

    def __init__(self, root: Path, logs: Path, workload: str, trace_to: Optional[Path] = None):
        self.root = root
        self.logs = logs
        self.workload = workload
        self.trace_to = trace_to  # directory for per-command span files, or None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.n = 0
        self.commands: List[Command] = []

    def argv(self, args: List[str]) -> List[str]:
        if self.trace_to is None:
            return [sys.executable, "-c", CONSOLE, *args]
        spans = self.trace_to / f"c{self.n}.json"
        return [sys.executable, str(HERE / "tracer.py"), str(spans), self.workload,
                f"c{self.n}", "--", *args]

    def __call__(self, args: List[str], label: str) -> Command:
        argv = self.argv([str(a) for a in args])
        log = self.logs / f"{self.n:03d}-{label}.log"
        self.n += 1
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=fh, stderr=fh)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cmd = Command(
            label=label,
            wall_s=end - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            start=start,
            end=end,
        )
        self.commands.append(cmd)
        if cmd.code != 0:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"[clibench] {label} exited {cmd.code}:\n{tail}", file=sys.stderr)
        return cmd


def _setup(workload: Workload, seed: int, root: Path, cli: Cli) -> workloads.Inputs:
    def run_cli(args, label):
        if cli(args, label).code != 0:
            raise CommandFailed(f"set-up command {label} failed")

    return workloads.setup(workload, seed, root, run_cli)


def pipeline_commands(workload: Workload, seed: int, inputs: workloads.Inputs, out: Path):
    """(label, args) of one pipeline round, in order; outputs go under `out`."""
    outs = {stage: out / stage for stage in ("ingest", "detect", "bars", *workload.studies)}
    trades = outs["ingest"] / "trades.csv"
    bars = outs["bars"] / "bars.csv"
    cmds = [
        ("ingest", ["ingest", "--trades", inputs.trades, "--schema", inputs.schema,
                    "--out", outs["ingest"]]),
        ("detect", ["detect", "--trades", trades, "--window", workload.window,
                    "--out", outs["detect"]]),
        ("bars", ["bars", "--trades", trades, "--window", workload.window,
                  "--out", outs["bars"]]),
    ]
    aux_kind = {"onchain": "onchain", "market": "market_daily", "media": "trends",
                "cross-asset": "asset_bar:nikkei"}
    for study in workload.studies:
        args = ["analyze", study, "--bars", bars, "--out", outs[study]]
        if study == "timing":
            args += ["--seed", seed]
        if study in aux_kind:
            args += ["--aux", f"{aux_kind[study]}={inputs.aux[aux_kind[study]]}"]
        cmds.append((f"analyze-{study}", args))
    return cmds, outs


def run_pass(cmds, cli: Cli) -> Dict[str, Command]:
    return {label: cli(args, label) for label, args in cmds}


def pipeline_s(done: Dict[str, Command]) -> float:
    cmds = list(done.values())
    return cmds[-1].end - cmds[0].start


def metric_of(label: str) -> str:
    return "analyze_s" if label.startswith("analyze-") else f"{label}_s"


@dataclass
class Measurement:
    metrics: Dict[str, float]
    n_commands: int
    failed: set  # labels of commands that exited non-zero in any pass


def measure(cmds, cli: Cli, seconds: float) -> Measurement:
    """Sample each end-to-end metric until its samples add up to `seconds`.

    The first pass runs the whole pipeline and gives one pipeline_s sample.
    A metric whose first sample is under `seconds` is short. While any short
    metric still needs samples, later passes re-run, in pipeline order, the
    commands of every short metric (a repeated command rewrites the same
    bytes), so the short commands are sampled a pipeline apart and all get
    the same number of samples. Each metric is the median of its samples;
    peak_rss_mb is the largest peak over all commands.
    """
    samples: Dict[str, List[float]] = {m: [] for m in ("pipeline_s", *map(metric_of, dict(cmds)))}
    failed: set = set()
    rss = 0.0
    short: Optional[set] = None
    todo = cmds
    while todo:
        done = run_pass(todo, cli)
        failed |= {label for label, c in done.items() if c.code != 0}
        rss = max(rss, *(c.maxrss_mb for c in done.values()))
        if len(done) == len(cmds):
            samples["pipeline_s"].append(pipeline_s(done))
        walls: Dict[str, float] = {}
        for label, c in done.items():
            walls[metric_of(label)] = walls.get(metric_of(label), 0.0) + c.wall_s
        for m, wall in walls.items():
            samples[m].append(wall)
        if short is None:
            short = {m for m, v in samples.items() if v[0] < seconds}
        need = set() if failed else {m for m, v in samples.items() if sum(v) < seconds}
        if need:
            need = short
        todo = [(l, a) for l, a in cmds if "pipeline_s" in need or metric_of(l) in need]
    metrics = {m: statistics.median(v) for m, v in samples.items()}
    metrics["peak_rss_mb"] = rss
    return Measurement(metrics, len(cmds), failed)


def check_outputs(workload: Workload, outs, truth) -> List[checks.CheckResult]:
    results = checks.run_checks(workload, outs, truth)
    for name, ok, detail in results:
        if not ok:
            print(f"[clibench] check {name} FAILED: {detail}", file=sys.stderr)
    return results


# --- per-layer metrics from spans ----------------------------------------------------

# metric -> span name whose summed self time it reports
SELF_TIME = {
    "synth.gen_exchange_log_s": "synth.gen_exchange_log",
    "ingest.parse_trade_log_s": "ingest.parse_trade_log",
    "ingest.pair_and_dedup_s": "ingest.pair_and_dedup",
    "ingest.write_canonical_csv_s": "ingest.write_canonical_csv",
    "ingest.parse_aux_s": "ingest.parse_aux",
    "detect.flag_wash_s": "detect.flag_wash",
    "features.build_bars_s": "features.build_bars",
    "features.bars_to_csv_s": "features.bars_to_csv",
    "features.bars_from_csv_s": "features.bars_from_csv",
    "features.column_s": "features.column",
    "features.weekly_rollup_s": "features.weekly_rollup",
    "features.filter_stationary_weeks_s": "features.filter_stationary_weeks",
    "features.daily_quartiles_s": "features.daily_quartiles",
    "features.build_asset_bars_s": "features.build_asset_bars",
    "econometrics.adf_s": "econometrics.adf",
    "econometrics.ols_s": "econometrics.ols",
    "econometrics.johansen_s": "econometrics.johansen",
    "econometrics.granger_s": "econometrics.granger",
    "econometrics.var_fit_s": "econometrics.var_fit",
    "econometrics.irf_s": "econometrics.irf",
    "econometrics.engle_granger_s": "econometrics.engle_granger",
    "ml.build_lagged_s": "ml.build_lagged",
    "ml.train_tree_s": "ml.train_tree",
    "ml.train_forest_s": "ml.train_forest",
    "ml.train_boost_gradient_s": "ml.train_boost_gradient",
    "ml.train_boost_adaboost_s": "ml.train_boost_adaboost",
    "ml.train_rnn_gru_s": "ml.train_rnn_gru",
    "ml.train_rnn_lstm_s": "ml.train_rnn_lstm",
    "ml.importance_report_s": "ml.importance_report",
    "studies.timing_s": "studies.timing",
    "studies.event_s": "studies.event",
    "studies.media_s": "studies.media",
    "studies.onchain_s": "studies.onchain",
    "studies.market_s": "studies.market",
    "studies.cross_asset_s": "studies.cross_asset",
    "studies.digest_s": "studies.digest",
}

# metric -> span name whose calls it counts
CALLS = {
    "features.column_calls": "features.column",
    "econometrics.adf_calls": "econometrics.adf",
    "econometrics.ols_calls": "econometrics.ols",
}

# metric -> (span name, attribute) summed over spans
ATTR_SUMS = {
    "synth.trades": ("synth.gen_exchange_log", "trades"),
    "ingest.half_rows": ("ingest.parse_trade_log", "half_rows"),
    "ingest.row_errors": ("ingest.parse_trade_log", "row_errors"),
    "econometrics.ols_rank_deficient": ("econometrics.ols", "rank_deficient"),
    "econometrics.irf_ridge_fallbacks": ("econometrics.irf", "ridge_fallback"),
}


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Summed self time per span name: duration minus the child spans'."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0) + s["end"] - s["start"]
    out: Dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child.get(s["id"], 0)
        out[s["name"]] = out.get(s["name"], 0.0) + own / 1e9
    return out


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    own = self_times(spans)
    m = {metric: own.get(name, 0.0) for metric, name in SELF_TIME.items()}
    for metric, name in CALLS.items():
        m[metric] = sum(s["name"] == name for s in spans)
    for metric, (name, key) in ATTR_SUMS.items():
        m[metric] = sum((s["attrs"] or {}).get(key, 0) for s in spans if s["name"] == name)

    def first_attrs(command: str, name: str) -> dict:
        hits = [s["attrs"] for s in spans if s["command"] == command and s["name"] == name]
        return hits[0] if hits and hits[0] else {}

    dedup = first_attrs("ingest", "ingest.pair_and_dedup")
    m["ingest.kept_ratio"] = dedup.get("deduplicated", 0) / max(dedup.get("paired", 0), 1)
    m["detect.wash_trades"] = first_attrs("detect", "detect.flag_wash").get("wash_trades", 0)
    return m


def collect_spans(cli: Cli, workload: str) -> List[dict]:
    """Read the per-command span files; command spans come from wall clocks here."""
    spans = []
    for i, cmd in enumerate(cli.commands):
        cid = f"c{i}"
        spans.append({"id": cid, "parent": None, "name": f"cmd.{cmd.label}",
                      "start": int(cmd.start * 1e9), "end": int(cmd.end * 1e9),
                      "attrs": None, "command": cmd.label, "workload": workload})
        path = cli.trace_to / f"{cid}.json"
        if not path.exists():
            continue
        for sid, parent, name, start, end, attrs in json.loads(path.read_text())["spans"]:
            spans.append({"id": sid, "parent": parent, "name": name, "start": start,
                          "end": end, "attrs": attrs, "command": cmd.label,
                          "workload": workload})
    return spans


# --- one benchmark run ------------------------------------------------------------------

def fresh_import_s(cli: Cli) -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import goxlens.cli"], cwd=cli.root,
                       env=cli.env, check=True, timeout=COMMAND_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path,
        work: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if work.exists():
        shutil.rmtree(work)
    logs = work / "logs"
    logs.mkdir(parents=True)
    try:
        if trace:
            return _run_traced(workload, seed, root, work, logs)
        return _run_plain(workload, seed, seconds, root, work, logs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_plain(workload, seed, seconds, root, work, logs) -> dict:
    cli = Cli(root, logs, workload.name)
    setup_s = []
    inputs = None
    for i in range(SETUPS):
        t0 = time.perf_counter()
        made = _setup(workload, seed, work / f"setup{i}", cli)
        setup_s.append(time.perf_counter() - t0)
        if inputs is None:
            inputs = made
        else:
            shutil.rmtree(made.root)
    truth = workloads.read_truth(workload, inputs)
    cmds, outs = pipeline_commands(workload, seed, inputs, work / "out")
    m = measure(cmds, cli, seconds)
    results = check_outputs(workload, outs, truth)
    metrics = dict(m.metrics, setup_s=statistics.median(setup_s))
    print(f"[clibench] {workload.name} seed {seed}: {len(cli.commands) - SETUPS} command "
          f"runs for {m.n_commands} commands; setups {[round(s, 3) for s in setup_s]}",
          file=sys.stderr)
    return _result(m.n_commands, len(m.failed), results, metrics, END_TO_END_UNITS)


def _run_traced(workload, seed, root, work, logs) -> dict:
    spans_dir = work / "spans"
    spans_dir.mkdir()
    traced = Cli(root, logs, workload.name, trace_to=spans_dir)
    inputs = _setup(workload, seed, work / "setup0", traced)
    truth = workloads.read_truth(workload, inputs)
    plain = Cli(root, logs, workload.name)
    cmds, outs = pipeline_commands(workload, seed, inputs, work / "plain")
    base = run_pass(cmds, plain)
    results = check_outputs(workload, outs, truth)
    shutil.rmtree(work / "plain")
    cmds, outs = pipeline_commands(workload, seed, inputs, work / "traced")
    done = run_pass(cmds, traced)
    results += check_outputs(workload, outs, truth)
    spans = collect_spans(traced, workload.name)
    metrics = layer_metrics(spans)
    metrics["cli.import_s"] = fresh_import_s(plain)
    metrics["cli.cpu_s"] = sum(c.cpu_s for c in base.values())
    metrics["trace.pipeline_s"] = pipeline_s(done)
    metrics["trace.overhead_s"] = pipeline_s(done) - pipeline_s(base)
    metrics["trace.spans"] = len(spans) - len(traced.commands)
    trace_dir = root / TRACE_DIR
    trace_dir.mkdir(exist_ok=True)
    out = trace_dir / f"{workload.name}-seed{seed}.json"
    out.write_text(json.dumps({"workload": workload.name, "seed": seed, "spans": spans}))
    print(f"[clibench] spans written to {out}; overhead "
          f"{metrics['trace.overhead_s']:+.3f} s on {pipeline_s(base):.3f} s", file=sys.stderr)
    units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith("ratio") else "count")
             for k in metrics}
    n_failed = sum(c.code != 0 for c in (*base.values(), *done.values()))
    return _result(2 * len(cmds), n_failed, results, metrics, units)


END_TO_END_UNITS = {
    "setup_s": "s", "ingest_s": "s", "detect_s": "s", "bars_s": "s",
    "analyze_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
}


def _result(n_commands: int, failed_commands: int, results: List[checks.CheckResult],
            metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    return {
        "correct": all(ok for _n, ok, _d in results),
        "attempted": n_commands + len(results),
        "failed": failed_commands + sum(not ok for _n, ok, _d in results),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "goxlens" / "cli.py").is_file():
        print("clibench: run from the root of a goxlens source tree (src/goxlens missing)",
              file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")], check=True)
    try:
        result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     root, root / WORK_DIR / f"{args.workload}-{args.seed}")
    except CommandFailed as exc:
        print(f"clibench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
