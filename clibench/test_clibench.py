"""Self-test of the benchmark at smoke scale (about a minute in all).

    python3 -m pytest clibench/test_clibench.py -q

Every workload runs its full command list and checks on reduced inputs, the
printed metric names match BENCHMARK.json, and corrupting one output makes
the check that guards it fail.
"""

import csv
import json
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return sorted(m["name"] for m in CONTRACT[kind])


@pytest.mark.parametrize("name", sorted(workloads.SMOKE))
def test_smoke_workload_runs_clean(name, tmp_path):
    result = run.run(workloads.SMOKE[name], 3, 0.0, False, ROOT, tmp_path / "w")
    assert result["correct"] and result["failed"] == 0, result
    assert sorted(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_short_commands_are_sampled_again_but_counted_once(tmp_path):
    w = workloads.SMOKE["timing_120d"]
    cli = run.Cli(ROOT, tmp_path, w.name)
    inputs = run._setup(w, 3, tmp_path / "setup", cli)
    cmds, _outs = run.pipeline_commands(w, 3, inputs, tmp_path / "out")
    m = run.measure(cmds, cli, 3.0)
    assert m.n_commands == 4 and not m.failed
    runs = [c.label for c in cli.commands[1:]]  # after the synth set-up command
    assert runs[:4] == [label for label, _args in cmds]
    assert runs.count("ingest") >= 2 and len(runs) > m.n_commands
    assert runs.count("ingest") == runs.count("detect") == runs.count("bars")


def test_traced_run_reports_every_layer_metric(tmp_path):
    result = run.run(workloads.SMOKE["timing_120d"], 3, 0.0, True, ROOT, tmp_path / "w")
    assert result["correct"] and result["failed"] == 0, result
    assert sorted(result["metrics"]) == _names("per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["econometrics.adf_calls"] >= 5 and m["ml.train_rnn_lstm_s"] > 0


@pytest.fixture(scope="module")
def clean_round(tmp_path_factory):
    work = tmp_path_factory.mktemp("round")
    w = workloads.SMOKE["paper_window"]
    cli = run.Cli(ROOT, work, w.name)
    inputs = run._setup(w, 5, work / "setup", cli)
    truth = workloads.read_truth(w, inputs)
    cmds, _outs = run.pipeline_commands(w, 5, inputs, work / "out")
    done = run.run_pass(cmds, cli)
    assert all(c.code == 0 for c in done.values())
    assert not _failed(w, work / "out", truth)
    return w, truth, work / "out"


def _rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(edit(rows))


def _failed(w, out, truth):
    outs = {stage: out / stage for stage in ("ingest", "detect", "bars", *w.studies)}
    return {name for name, ok, _d in checks.run_checks(w, outs, truth) if not ok}


def test_changed_bar_wash_volume_fails(clean_round, tmp_path):
    w, truth, out = clean_round
    bars = out / "bars" / "bars.csv"
    saved = bars.read_bytes()
    try:
        def bump(rows):
            i = next(j for j, r in enumerate(rows) if j and r[1] != "0.00000000")
            whole, frac = rows[i][1].split(".")
            rows[i][1] = f"{whole}.{int(frac) + 1:08d}"
            return rows

        _rewrite(bars, bump)
        assert _failed(w, out, truth) == {"bars.total_identity", "bars.volume_truth"}
    finally:
        bars.write_bytes(saved)


def test_dropped_wash_row_fails(clean_round):
    w, truth, out = clean_round
    wash = out / "detect" / "wash_trades.csv"
    saved = wash.read_bytes()
    try:
        _rewrite(wash, lambda rows: rows[:-1])
        assert _failed(w, out, truth) == {"detect.wash_keys"}
    finally:
        wash.write_bytes(saved)
