import json
import shutil
import subprocess
import threading

import numpy as np
import pytest

from goxlens.cli import _write_text, main
from goxlens.features import BarSeries
from goxlens.ingest import DAY, fmt_ts, parse_date, parse_trade_log

from conftest import bars_from_arrays

MONDAY = parse_date("2013-01-07")


def run(*argv):
    return main(list(argv))


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def write_noise_bars(path, seed=0, n=672, t0=MONDAY):
    rng = np.random.default_rng(seed)
    bars = bars_from_arrays(
        100.0 + 3.0 * rng.standard_normal(n),
        nonwash=150.0 + 5.0 * rng.standard_normal(n),
        liq=1e-4 * (1.0 + 0.2 * rng.standard_normal(n)),
        vol=1e-3 * (1.0 + 0.2 * rng.standard_normal(n)),
        t0=t0,
    )
    with open(path, "w", newline="") as fh:
        bars.to_csv(fh)
    return path


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """One shared generator run with duplicates planted on top."""
    out = tmp_path_factory.mktemp("synth")
    spec = out / "spec.json"
    spec.write_text(json.dumps({"duplicate_rate": 0.05}))
    assert run("synth", "--spec", str(spec), "--out", str(out), "--seed", "11") == 0
    return out


@pytest.fixture(scope="module")
def noise_bars_csv(tmp_path_factory):
    return write_noise_bars(tmp_path_factory.mktemp("bars") / "bars.csv")


# --- synth ----------------------------------------------------------------


def test_synth_same_seed_byte_identical(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "n_days": 7,
                "duplicate_rate": 0.05,
                "var_truth": {
                    "c": [0.0, 0.0],
                    "coefs": [[[0.5, 0.1], [0.0, 0.4]]],
                    "sigma_u": [[1.0, 0.0], [0.0, 1.0]],
                    "T": 300,
                },
                "cointegration": {"T": 200, "noise_scale": 1.0},
                "trend_weeks": [["2013-01-07", 2.0], ["2013-01-14", 1.0]],
            }
        )
    )
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("synth", "--spec", str(spec), "--out", str(out), "--seed", "7") == 0
    assert dir_bytes(a) == dir_bytes(b)
    assert set(dir_bytes(a)) == {"trades.csv", "truth.json", "var.csv", "coint.csv", "trends.csv"}
    assert not list(a.glob("*.tmp"))

    truth = json.loads((a / "truth.json").read_text())
    assert truth["spec"]["seed"] == 7
    assert "beta" in truth and "var_seed" in truth


def test_synth_seed_changes_the_log(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--out", str(a), "--seed", "1") == 0
    assert run("synth", "--out", str(b), "--seed", "2") == 0
    assert (a / "trades.csv").read_bytes() != (b / "trades.csv").read_bytes()


def test_synth_requires_seed(tmp_path, capsys):
    assert run("synth", "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "goxlens: error:" in err
    assert "--seed" in err


def test_synth_rejects_unknown_spec_field(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"frobnicate": 1}))
    assert run("synth", "--spec", str(spec), "--out", str(tmp_path / "o"), "--seed", "3") == 2
    assert "goxlens:" in capsys.readouterr().err


# --- detect / ingest / bars over generated input --------------------------


def test_detect_summary_matches_generator_truth(synth_dir, tmp_path):
    out = tmp_path / "det"
    assert run("detect", "--trades", str(synth_dir / "trades.csv"), "--out", str(out)) == 0

    truth = json.loads((synth_dir / "truth.json").read_text())
    summary = json.loads((out / "detect.json").read_text())
    assert summary["wash_count"] == truth["wash_count"]
    assert summary["stats"]["deduplicated"] == truth["pre_injection_count"]
    assert summary["stats"]["duplicates_removed"] == truth["n_duplicates"]

    lines = (out / "wash_trades.csv").read_text().splitlines()
    assert lines[0] == "buyer,seller,timestamp,bitcoins,money"
    assert len(lines) == 1 + truth["wash_count"]
    assert all(line.split(",")[0] == line.split(",")[1] for line in lines[1:])


def test_ingest_preserves_dedup_stats(synth_dir, tmp_path):
    out = tmp_path / "ing"
    code = run(
        "ingest",
        "--trades", str(synth_dir / "trades.csv"),
        "--schema", "canonical",
        "--out", str(out),
    )
    assert code == 0
    truth = json.loads((synth_dir / "truth.json").read_text())
    report = json.loads((out / "ingest.json").read_text())
    assert report["stats"]["deduplicated"] == truth["pre_injection_count"]
    assert report["n_row_errors"] == 0
    # round trip: the canonical rewrite parses cleanly under its own schema
    reparsed = parse_trade_log(str(out / "trades.csv"), schema="canonical")
    assert len(reparsed.row_errors) == 0
    assert len(reparsed) == 2 * truth["pre_injection_count"]


def test_ingest_round_trips_early_years_and_refuses_past_9999(tmp_path):
    # a year before 1000 is written back in four digits, so the rewrite ingests
    # again without row errors; an epoch past 9999-12-31 is a row error
    log = tmp_path / "log.csv"
    log.write_text(
        "user_id,trade_id,timestamp,currency,bitcoins,money,side\n"
        "a,1,0999-01-01 00:00:00,USD,1.0,5.0,buy\n"
        "b,1,0999-01-01 00:00:00,USD,1.0,5.0,sell\n"
        "c,2,99999999999999,USD,1.0,5.0,buy\n"
        "d,2,99999999999999,USD,1.0,5.0,sell\n"
    )
    first, second = tmp_path / "first", tmp_path / "second"
    assert run("ingest", "--trades", str(log), "--schema", "canonical", "--out", str(first)) == 0
    report = json.loads((first / "ingest.json").read_text())
    assert [(e["line"], e["reason"]) for e in report["first_row_errors"]] == [
        (line, "timestamp out of range: '99999999999999'") for line in (4, 5)
    ]
    rewritten = first / "trades.csv"
    assert rewritten.read_text().splitlines()[1:] == [
        "a,t0,0999-01-01 00:00:00,USD,1.00000000,5.00000,buy",
        "b,t0,0999-01-01 00:00:00,USD,1.00000000,5.00000,sell",
    ]
    code = run("ingest", "--trades", str(rewritten), "--schema", "canonical", "--out", str(second))
    assert code == 0
    assert json.loads((second / "ingest.json").read_text())["n_row_errors"] == 0
    assert (second / "trades.csv").read_bytes() == rewritten.read_bytes()


def test_detect_without_wash_trades_writes_the_header_only(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(
        "user_id,trade_id,timestamp,currency,bitcoins,money,side\n"
        "a,1,2013-01-01 00:00:00,USD,1.0,5.0,buy\n"
        "b,1,2013-01-01 00:00:00,USD,1.0,5.0,sell\n"
    )
    out = tmp_path / "det"
    code = run("detect", "--trades", str(log), "--schema", "canonical", "--out", str(out))
    assert code == 0
    assert (out / "wash_trades.csv").read_text() == "buyer,seller,timestamp,bitcoins,money\n"
    assert json.loads((out / "detect.json").read_text())["wash_count"] == 0


def test_bars_cover_the_window_densely(synth_dir, tmp_path):
    out = tmp_path / "bars"
    code = run(
        "bars",
        "--trades", str(synth_dir / "trades.csv"),
        "--window", "2013-01-01..2013-01-14",
        "--out", str(out),
    )
    assert code == 0
    bars = BarSeries.from_csv(str(out / "bars.csv"))
    assert len(bars) == 14 * 48
    assert bars.start[0] == parse_date("2013-01-01")

    # without --window the grid spans the default analysis window
    wide = tmp_path / "wide"
    assert run("bars", "--trades", str(synth_dir / "trades.csv"), "--out", str(wide)) == 0
    wide_bars = BarSeries.from_csv(str(wide / "bars.csv"))
    assert len(wide_bars) == wide_bars.window.n_days * 48

    narrow = tmp_path / "narrow"
    code = run(
        "bars",
        "--trades", str(synth_dir / "trades.csv"),
        "--window", "2013-01-02..2013-01-03",
        "--out", str(narrow),
    )
    assert code == 0
    assert len(BarSeries.from_csv(str(narrow / "bars.csv"))) == 2 * 48


# --- analyze --------------------------------------------------------------


def test_analyze_timing_writes_stable_report(noise_bars_csv, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run(
            "analyze", "timing",
            "--bars", str(noise_bars_csv),
            "--lags", "1",
            "--seed", "5",
            "--out", str(out),
        )
        assert code == 0

    text = (a / "report.json").read_text()
    report = json.loads(text)
    # byte-stable serialization: sorted keys, trailing newline
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    for name in report["tables"]:
        assert (a / f"{name}.csv").is_file()
        assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()
    assert not list(a.glob("*.tmp"))


def test_analyze_timing_output_does_not_depend_on_threads(noise_bars_csv, tmp_path):
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        code = run(
            "analyze", "timing",
            "--bars", str(noise_bars_csv),
            "--lags", "1",
            "--seed", "5",
            "--threads", threads,
            "--out", str(out),
        )
        assert code == 0
        outs[threads] = dir_bytes(out)
    assert outs["1"] == outs["2"]
    rows = outs["1"]["rnn_loss.csv"].decode().splitlines()
    assert rows[0] == "row,gru,lstm"
    assert [r.split(",")[0] for r in rows[1:]] == [f"epoch={e}" for e in range(21)]


def test_concurrent_writes_to_one_path_leave_one_whole_file(tmp_path):
    target = tmp_path / "report.json"
    texts = [letter * 400_000 + "\n" for letter in "ab"]
    errors = []

    def write_many(text):
        try:
            for _ in range(25):
                _write_text(target, text)
        except OSError as e:
            errors.append(e)

    writers = [threading.Thread(target=write_many, args=(text,)) for text in texts]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=60)
    assert not any(w.is_alive() for w in writers)
    assert errors == []
    assert target.read_text() in texts
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_analyze_timing_requires_seed(noise_bars_csv, tmp_path, capsys):
    code = run("analyze", "timing", "--bars", str(noise_bars_csv), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "--seed is required" in capsys.readouterr().err


def test_analyze_timing_stationarity_abort_and_force(tmp_path, capsys):
    rng = np.random.default_rng(7)
    walk = 500.0 + np.cumsum(rng.standard_normal(672))
    bars = bars_from_arrays(
        walk,
        nonwash=150.0 + 5.0 * rng.standard_normal(672),
        liq=1e-4 * (1.0 + 0.2 * rng.standard_normal(672)),
        vol=1e-3 * (1.0 + 0.2 * rng.standard_normal(672)),
        t0=MONDAY,
    )
    path = tmp_path / "walk.csv"
    with open(path, "w", newline="") as fh:
        bars.to_csv(fh)

    base = ["analyze", "timing", "--bars", str(path), "--lags", "1", "--seed", "5"]
    assert run(*base, "--out", str(tmp_path / "o1")) == 3
    err = capsys.readouterr().err
    assert "analysis aborted" in err
    assert "non-stationary" in err

    assert run(*base, "--force", "--out", str(tmp_path / "o2")) == 0
    assert (tmp_path / "o2" / "report.json").is_file()


def test_analyze_onchain_requires_exactly_one_aux(noise_bars_csv, tmp_path, capsys):
    code = run("analyze", "onchain", "--bars", str(noise_bars_csv), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "exactly one --aux onchain=path" in capsys.readouterr().err


ONCHAIN_HEADER = "timestamp,transaction_id,address,type,amount"


def test_analyze_notes_malformed_aux_rows(noise_bars_csv, tmp_path):
    rng = np.random.default_rng(4)
    lines = [ONCHAIN_HEADER, f"{fmt_ts(MONDAY)},bad,addr,output,lots"]
    for i in range(672):
        lines.append(f"{fmt_ts(MONDAY + 1800 * i)},tx{i},addr,output,{rng.random() * 50:.4f}")
    lines.append(f"{fmt_ts(MONDAY)},short,addr")
    chain = tmp_path / "chain.csv"
    chain.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    args = ["analyze", "onchain", "--bars", str(noise_bars_csv), "--out", str(out)]
    assert run(*args, "--aux", f"onchain={chain}") == 0
    notes = json.loads((out / "report.json").read_text())["notes"]
    assert notes[-1] == (
        "onchain: 2 malformed rows skipped; "
        "first at line 2: could not convert string to float: 'lots'"
    )


def test_analyze_onchain_with_no_point_in_window_exits_2(noise_bars_csv, tmp_path, capsys):
    chain = tmp_path / "chain.csv"
    chain.write_text(ONCHAIN_HEADER + "\n")
    code = run(
        "analyze", "onchain", "--bars", str(noise_bars_csv),
        "--aux", f"onchain={chain}", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "no on-chain points inside the bar window" in capsys.readouterr().err


def test_analyze_rejects_malformed_aux_flag(noise_bars_csv, tmp_path, capsys):
    code = run(
        "analyze", "onchain",
        "--bars", str(noise_bars_csv),
        "--aux", "onchain",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert "expected kind[:name]=path" in capsys.readouterr().err


def test_analyze_cross_asset_via_aux_flag(noise_bars_csv, tmp_path):
    rng = np.random.default_rng(3)
    start = MONDAY
    lines = ["timestamp,close,tick,volume"]
    level = 0.0
    for i in range(672):
        level = 0.5 * level + rng.standard_normal()
        close = 100.0 + 3.0 * level
        tick = 50.0 + rng.random()
        volume = 10.0 + rng.random()
        lines.append(f"{fmt_ts(start + i * 1800)},{close!r},{tick!r},{volume!r}")
    asset = tmp_path / "nikkei.csv"
    asset.write_text("\n".join(lines) + "\n")

    out = tmp_path / "o"
    code = run(
        "analyze", "cross-asset",
        "--bars", str(noise_bars_csv),
        "--aux", f"asset_bar:nikkei={asset}",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "nikkei" in json.dumps(report)
    for name in report["tables"]:
        assert (out / f"{name}.csv").is_file()


def test_analyze_event_defaults_to_study_date(tmp_path):
    event = parse_date("2012-04-20")
    path = write_noise_bars(tmp_path / "bars.csv", seed=2, n=28 * 48, t0=event - 14 * DAY)
    out = tmp_path / "o"
    assert run("analyze", "event", "--bars", str(path), "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["parameters"]["event"] == "2012-04-20 00:00:00"
    for name in report["tables"]:
        assert (out / f"{name}.csv").is_file()


def test_analyze_event_outside_bars_is_a_data_error(tmp_path, capsys):
    event = parse_date("2012-04-20")
    path = write_noise_bars(tmp_path / "bars.csv", seed=2, n=14 * 48, t0=event - 7 * DAY)
    assert run("analyze", "event", "--bars", str(path), "--out", str(tmp_path / "o")) == 2
    assert "pre window" in capsys.readouterr().err


def test_analyze_event_rejects_bad_timestamp(noise_bars_csv, tmp_path, capsys):
    code = run(
        "analyze", "event",
        "--bars", str(noise_bars_csv),
        "--event", "not-a-time",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert "bad --event" in capsys.readouterr().err


# --- ml -------------------------------------------------------------------


def test_ml_writes_importance_artifacts(noise_bars_csv, tmp_path):
    out = tmp_path / "o"
    code = run(
        "ml",
        "--bars", str(noise_bars_csv),
        "--lags", "1,2",
        "--seed", "3",
        "--out", str(out),
    )
    assert code == 0

    report = json.loads((out / "importance.json").read_text())
    assert report["placebo"] == "placebo"
    assert set(report["families"]) == {"cart", "forest", "gradient_boost", "adaboost", "gru", "lstm"}
    # 4 non-target series x 2 lags, plus the placebo
    assert len(report["columns"]) == 9

    rows = (out / "importance.csv").read_text().splitlines()
    assert rows[0] == "feature,cart,forest,gradient_boost,adaboost,gru,lstm"
    assert len(rows) == 1 + len(report["columns"])


# --- exit codes and wiring ------------------------------------------------


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    assert run("detect", "--out", str(tmp_path / "o")) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run("frobnicate") == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    code = run("detect", "--trades", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "goxlens:" in capsys.readouterr().err


def test_wrong_header_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert run("detect", "--trades", str(bad), "--out", str(tmp_path / "o")) == 2
    assert "missing columns" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    [
        "2013-01-07 00:30:00,1.00000000",  # short row
        "2013-01-07 00:30:00,1.00000000,2.0.0,3.00000000,0.00000,,0.0,0.0",  # bad amount
        "2013-01-07 00:30:00,1.00000000,2.00000000,9.00000000,0.00000,,0.0,0.0",  # total
        "99999999999999999999,1.00000000,2.00000000,3.00000000,0.00000,,0.0,0.0",  # start
    ],
)
def test_malformed_bars_row_is_a_data_error(noise_bars_csv, tmp_path, capsys, row):
    bad = tmp_path / "bars.csv"
    bad.write_text("".join(noise_bars_csv.read_text().splitlines(keepends=True)[:2]) + row + "\n")
    assert run("analyze", "event", "--bars", str(bad), "--out", str(tmp_path / "o")) == 2
    assert "bars line 3" in capsys.readouterr().err


def _break_utf8(path, line):
    """A copy of the file at `path` with byte 0xff put into line `line` (1-based)."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1][:1] + b"\xff" + lines[line - 1][1:]
    return b"".join(lines)


@pytest.mark.parametrize("kind", ["trades", "aux", "bars"])
def test_input_that_is_not_utf8_is_a_data_error(synth_dir, noise_bars_csv, tmp_path, capsys, kind):
    bad = tmp_path / "bad.csv"
    out = str(tmp_path / "o")
    if kind == "trades":  # a canonical ledger with the byte in a user name
        bad.write_bytes(_break_utf8(synth_dir / "trades.csv", 3))
        args, name = ["detect", "--trades", str(bad), "--out", out], "trade log"
    elif kind == "aux":
        chain = tmp_path / "chain.csv"
        chain.write_text(ONCHAIN_HEADER + f"\n{fmt_ts(MONDAY)},t1,a,output,1" * 2 + "\n")
        bad.write_bytes(_break_utf8(chain, 3))
        args = ["analyze", "onchain", "--bars", str(noise_bars_csv), "--aux", f"onchain={bad}"]
        args, name = args + ["--out", out], "aux 'onchain'"
    else:
        bad.write_bytes(_break_utf8(noise_bars_csv, 3))
        args, name = ["analyze", "event", "--bars", str(bad), "--out", out], "bars"
    assert run(*args) == 2
    assert f"goxlens: {name} line 3: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "study, column, cell", [("event", 6, "nan"), ("media", 7, "inf"), ("timing", 6, "-inf")]
)
def test_non_finite_bar_measure_is_a_data_error(
    analyze_invocations, tmp_path, capsys, study, column, cell
):
    # bars.csv may carry any float in amihud and rvol; a fit refuses a
    # non-finite one, naming the shape of its input, and the run exits 2
    argv = list(dict(analyze_invocations[1])[study])
    at = argv.index("--bars") + 1
    with open(argv[at], newline="") as fh:
        lines = fh.read().split("\r\n")
    cells = lines[200].split(",")
    cells[column] = cell
    lines[200] = ",".join(cells)
    argv[at] = str(tmp_path / "bars.csv")
    with open(argv[at], "w", newline="") as fh:
        fh.write("\r\n".join(lines))
    assert run(*argv, "--out", str(tmp_path / "o")) == 2
    assert "has non-finite values" in capsys.readouterr().err


def test_unparseable_window_is_usage_error(synth_dir, tmp_path, capsys):
    code = run(
        "detect",
        "--trades", str(synth_dir / "trades.csv"),
        "--window", "2013-01-05",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert "bad window" in capsys.readouterr().err


def test_console_script_runs(tmp_path):
    exe = shutil.which("goxlens")
    assert exe, "console script not installed"
    out = tmp_path / "o"
    proc = subprocess.run(
        [exe, "synth", "--out", str(out), "--seed", "7"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "trades.csv").is_file()
    assert (out / "truth.json").is_file()


@pytest.mark.parametrize(
    "window", ["2013-01-+1..2013-01-10", "2013-01-01..2013- 1-10", "2013-+1-01..2013-01-10"]
)
def test_loose_window_date_is_usage_error(synth_dir, tmp_path, capsys, window):
    code = run(
        "detect",
        "--trades", str(synth_dir / "trades.csv"),
        "--window", window,
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert "bad date" in capsys.readouterr().err
