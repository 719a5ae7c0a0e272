"""Batch command line: ingest -> detect -> bars -> analyze, plus ml and synth.

Stages communicate through files so every intermediate stays auditable. All
outputs are written atomically (temp file, then rename) and are byte-stable:
JSON uses sorted keys with non-finite floats as string sentinels, CSV cells
use repr() for floats. Exit codes: 0 success, 1 usage, 2 bad data, 3 analysis
abort.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple

# One BLAS thread per process, set before numpy loads OpenBLAS: the fits are
# small, a second thread spins without saving wall time, and the parallel
# work runs in `--threads` worker processes. A value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .detect import TimeWindow, flag_wash
from .errors import AnalysisAbort, GoxlensError
from .features import (
    BarSeries,
    build_asset_bars,
    build_bars,
    daily_quartiles,
    daily_sums,
    filter_stationary_weeks,
    weekly_rollup,
)
from .ingest import (
    BTC_DECIMALS,
    MONEY_DECIMALS,
    fmt_date,
    fmt_ts,
    format_fixed,
    format_timestamps,
    pair_and_dedup,
    parse_aux,
    parse_trade_log,
    parse_ts,
    write_canonical_csv,
)
from .synth import SynthSpec, gen_cointegrated_pair, gen_exchange_log, gen_var_process

if TYPE_CHECKING:
    from .studies import StudyReport

# The studies and models are imported inside the commands that use them, so
# ingest, detect and bars start without them. scipy loads later still, inside
# the fits that report a p-value or run Johansen.

log = logging.getLogger(__name__)

DEFAULT_LAG_TEXT = "1,2,3,4,24"


class UsageError(Exception):
    """Bad invocation discovered after argparse (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# --- atomic, byte-stable output ---------------------------------------------

def _write_text(path: Path, text: str) -> None:
    # Each write gets a temp file of its own, created exclusively, so two runs
    # into one directory never share one. (mkstemp would make it mode 0600.)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _write_text(path, buf.getvalue())


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, set, frozenset)):
        items = sorted(v) if isinstance(v, (set, frozenset)) else v
        return [_jsonable(x) for x in items]
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return "NaN"
        if math.isinf(f):
            return "Infinity" if f > 0 else "-Infinity"
        return f
    return v


def _write_json(path: Path, obj) -> None:
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    _write_text(path, text + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_report(report: "StudyReport", out: Path) -> None:
    _write_json(out / "report.json", report.to_dict())
    for name, table in report.tables.items():
        buf = io.StringIO()
        table.write_csv(buf)
        _write_text(out / f"{name}.csv", buf.getvalue())


# --- shared argument plumbing ------------------------------------------------

def _parse_window(args) -> Optional[TimeWindow]:
    if not getattr(args, "window", None):
        return None
    try:
        return TimeWindow.parse(args.window)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _parse_lags(text: str) -> List[int]:
    try:
        lags = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"bad --lags {text!r}; expected comma-separated integers") from None
    if not lags:
        raise UsageError(f"bad --lags {text!r}; expected at least one lag")
    return lags


def _parse_aux_flags(args) -> List[Tuple[str, Optional[str], str]]:
    """--aux kind[:name]=path, repeatable -> [(kind, name, path)]."""
    out = []
    for item in args.aux or []:
        head, sep, path = item.partition("=")
        if not sep or not path:
            raise UsageError(f"bad --aux {item!r}; expected kind[:name]=path")
        kind, _, name = head.partition(":")
        if not kind:
            raise UsageError(f"bad --aux {item!r}; empty kind")
        out.append((kind, name or None, path))
    return out


def _read_aux(kind: str, name: Optional[str], path: str, notes: List[str]):
    """parse_aux, with a note in `notes` when malformed rows were skipped."""
    aux = parse_aux(path, kind)
    if aux.row_errors:
        line, reason = aux.row_errors[0]
        head = f"{kind}:{name}" if name else kind
        notes.append(
            f"{head}: {len(aux.row_errors)} malformed rows skipped; first at line {line}: {reason}"
        )
    return aux


def _require_aux(args, kind: str, notes: List[str]):
    entries = [e for e in _parse_aux_flags(args) if e[0] == kind]
    if len(entries) != 1:
        raise UsageError(f"exactly one --aux {kind}=path is required")
    return _read_aux(*entries[0], notes)


def _load_flagged(args):
    parsed = parse_trade_log(args.trades, schema=args.schema)
    return flag_wash(pair_and_dedup(parsed), _parse_window(args)), parsed


def _load_bars(args) -> BarSeries:
    bars = BarSeries.from_csv(args.bars)
    window = _parse_window(args)
    return bars.slice(window) if window else bars


def _require_seed(args) -> int:
    if args.seed is None:
        raise UsageError("--seed is required (this command draws random numbers)")
    return args.seed


# --- subcommands -------------------------------------------------------------

def cmd_ingest(args) -> int:
    out = _out_dir(args)
    parsed = parse_trade_log(args.trades, schema=args.schema)
    ledger = pair_and_dedup(parsed)
    buf = io.StringIO()
    write_canonical_csv(
        buf,
        [f"t{i}" for i in range(len(ledger))],
        ledger.users[ledger.buyer],
        ledger.users[ledger.seller],
        ledger.ts,
        ledger.bitcoins_e8,
        ledger.money_e5,
    )
    _write_text(out / "trades.csv", buf.getvalue())
    _write_json(
        out / "ingest.json",
        {
            "schema": args.schema,
            "stats": ledger.stats.as_dict(),
            "n_row_errors": len(parsed.row_errors),
            "first_row_errors": [
                {"line": line, "reason": reason}
                for line, reason in parsed.row_errors[:20]
            ],
        },
    )
    return 0


def cmd_detect(args) -> int:
    out = _out_dir(args)
    flagged, parsed = _load_flagged(args)
    wash = np.array(flagged.wash, dtype=bool)
    _write_csv(
        out / "wash_trades.csv",
        [
            ["buyer", "seller", "timestamp", "bitcoins", "money"],
            *zip(
                flagged.users[flagged.buyer[wash]],
                flagged.users[flagged.seller[wash]],
                format_timestamps(flagged.ts[wash]),
                format_fixed(flagged.bitcoins_e8[wash], BTC_DECIMALS),
                format_fixed(flagged.money_e5[wash], MONEY_DECIMALS),
            ),
        ],
    )
    _write_json(
        out / "detect.json",
        {
            "window": {"start": fmt_ts(flagged.window.start), "end": fmt_ts(flagged.window.end)},
            "wash_count": flagged.wash_count,
            "nonwash_count": flagged.nonwash_count,
            "stats": flagged.stats.as_dict(),
            "n_row_errors": len(parsed.row_errors),
        },
    )
    return 0


def cmd_bars(args) -> int:
    out = _out_dir(args)
    flagged, _parsed = _load_flagged(args)
    bars = build_bars(flagged)
    buf = io.StringIO()
    bars.to_csv(buf)
    _write_text(out / "bars.csv", buf.getvalue())
    return 0


def cmd_analyze(args) -> int:
    from .studies import (
        EventConfig,
        study_cross_asset,
        study_event,
        study_market,
        study_media,
        study_onchain,
        study_timing,
    )

    out = _out_dir(args)
    bars = _load_bars(args)
    study = args.study
    aux_notes: List[str] = []  # malformed aux rows, added to the report's notes

    if study == "timing":
        report = study_timing(
            bars,
            lags=_parse_lags(args.lags),
            seed=_require_seed(args),
            force=args.force,
            threads=args.threads,
        )
    elif study == "onchain":
        chain = _require_aux(args, "onchain", aux_notes)
        report = study_onchain(bars, chain, daily_quartiles(bars))
    elif study == "market":
        report = study_market(
            daily_sums(bars, "nonwash"),
            _require_aux(args, "market_daily", aux_notes),
            daily_quartiles(bars),
        )
    elif study == "cross-asset":
        entries = [e for e in _parse_aux_flags(args) if e[0] == "asset_bar"]
        if not entries:
            raise UsageError("at least one --aux asset_bar:LABEL=path is required")
        assets = [
            build_asset_bars(
                _read_aux(kind, name, path, aux_notes), bars.window, name or Path(path).stem
            )
            for kind, name, path in entries
        ]
        report = study_cross_asset(bars, assets)
    elif study == "media":
        weekly, dropped = filter_stationary_weeks(weekly_rollup(bars))
        _write_csv(
            out / "dropped_weeks.csv",
            [["week_start", "series", "reason"], *([fmt_date(wk), s, r] for wk, s, r in dropped)],
        )
        report = study_media(weekly, _require_aux(args, "trends", aux_notes))
    elif study == "event":
        try:
            event_ts = parse_ts(args.event)
        except ValueError as e:
            raise UsageError(f"bad --event: {e}") from None
        config = EventConfig(event_ts, args.pre_days, args.post_days)
        report = study_event(bars, config)
    else:  # unreachable: argparse restricts choices
        raise UsageError(f"unknown study {study!r}")

    report.notes.extend(aux_notes)
    _emit_report(report, out)
    return 0


def cmd_ml(args) -> int:
    from .ml import importance_report
    from .studies import train_model_suite

    out = _out_dir(args)
    bars = _load_bars(args)
    _ds, models = train_model_suite(
        bars.series_map(),
        _parse_lags(args.lags),
        _require_seed(args),
        threads=args.threads,
        target=args.target,
    )
    rep = importance_report(models)
    _write_json(out / "importance.json", rep.to_dict())
    _write_csv(out / "importance.csv", rep.rank_table())
    return 0


def cmd_synth(args) -> int:
    out = _out_dir(args)
    seed = _require_seed(args)
    spec_dict = {}
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec_dict = json.load(fh)
    spec_dict["seed"] = seed
    spec = SynthSpec.from_dict(spec_dict)

    csv_text, sidecar = gen_exchange_log(spec)
    _write_text(out / "trades.csv", csv_text)

    words = np.random.SeedSequence(seed).generate_state(3, dtype=np.uint64)
    if spec.var_truth:
        vt = spec.var_truth
        var_seed = int(words[1])
        data = gen_var_process(
            np.asarray(vt["c"], dtype=np.float64),
            [np.asarray(a, dtype=np.float64) for a in vt["coefs"]],
            np.asarray(vt["sigma_u"], dtype=np.float64),
            int(vt.get("T", 1000)),
            var_seed,
        )
        _write_csv(
            out / "var.csv",
            [[f"y{i + 1}" for i in range(data.shape[1])], *data.tolist()],
        )
        sidecar["var_seed"] = var_seed

    if spec.cointegration:
        cfg = spec.cointegration
        coint_seed = int(words[2])
        pair = gen_cointegrated_pair(
            int(cfg.get("T", 1000)), float(cfg.get("noise_scale", 1.0)), coint_seed
        )
        _write_csv(out / "coint.csv", [["x", "y"], *zip(pair.x.tolist(), pair.y.tolist())])
        sidecar["coint_seed"] = coint_seed
        sidecar["beta"] = pair.beta

    if spec.trend_weeks:
        _write_csv(
            out / "trends.csv",
            [["week_start", "score"], *([date, float(score)] for date, score in spec.trend_weeks)],
        )

    _write_json(out / "truth.json", sidecar)
    return 0


# --- wiring ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="goxlens",
        description="Exchange-ledger forensics: wash flagging, bar features, and studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common_out(p):
        p.add_argument("--out", required=True, help="output directory (created if missing)")

    def common_window(p):
        p.add_argument("--window", help="analysis window START..END, dates inclusive")

    def common_seed(p):
        p.add_argument("--seed", type=int, help="random seed (required on stochastic paths)")

    def common_threads(p):
        p.add_argument(
            "--threads",
            type=int,
            default=os.cpu_count() or 1,
            help="worker processes for the model families (default: logical cores)",
        )

    p = sub.add_parser("ingest", help="parse a raw trade log into canonical half rows")
    p.add_argument("--trades", required=True, help="input trade CSV")
    p.add_argument(
        "--schema",
        choices=["mtgox_leak", "canonical"],
        default="mtgox_leak",
        help="input layout (default: mtgox_leak)",
    )
    common_out(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("detect", help="flag wash trades inside the analysis window")
    p.add_argument("--trades", required=True, help="input trade CSV")
    p.add_argument(
        "--schema",
        choices=["mtgox_leak", "canonical"],
        default="canonical",
        help="input layout (default: canonical)",
    )
    common_window(p)
    common_out(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bars", help="build 30-minute bars from flagged trades")
    p.add_argument("--trades", required=True, help="input trade CSV")
    p.add_argument(
        "--schema",
        choices=["mtgox_leak", "canonical"],
        default="canonical",
        help="input layout (default: canonical)",
    )
    common_window(p)
    common_out(p)
    p.set_defaults(func=cmd_bars)

    p = sub.add_parser("analyze", help="run a study over prebuilt bars")
    p.add_argument(
        "study",
        choices=["timing", "onchain", "market", "cross-asset", "media", "event"],
    )
    p.add_argument("--bars", required=True, help="bars CSV from the bars subcommand")
    p.add_argument(
        "--aux",
        action="append",
        metavar="KIND[:NAME]=PATH",
        help="auxiliary series (repeatable); kinds: onchain, market_daily, trends, asset_bar",
    )
    p.add_argument("--lags", default=DEFAULT_LAG_TEXT, help="comma-separated feature lags")
    p.add_argument("--force", action="store_true", help="proceed past the stationarity gate")
    p.add_argument("--event", default="2012-04-20T00:00:00Z", help="event timestamp")
    p.add_argument("--pre-days", type=int, default=14, help="days before the event")
    p.add_argument("--post-days", type=int, default=14, help="days after the event")
    common_window(p)
    common_seed(p)
    common_threads(p)
    common_out(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ml", help="train the model families and rank feature importances")
    p.add_argument("--bars", required=True, help="bars CSV from the bars subcommand")
    p.add_argument("--lags", default=DEFAULT_LAG_TEXT, help="comma-separated feature lags")
    p.add_argument("--target", default="wash", help="target series (default: wash)")
    common_window(p)
    common_seed(p)
    common_threads(p)
    common_out(p)
    p.set_defaults(func=cmd_ml)

    p = sub.add_parser("synth", help="generate labeled synthetic inputs")
    p.add_argument("--spec", help="generator spec JSON (defaults apply when omitted)")
    common_seed(p)
    common_out(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"goxlens: error: {e}", file=sys.stderr)
        return 1
    except AnalysisAbort as e:
        print(f"goxlens: analysis aborted: {e}", file=sys.stderr)
        return 3
    except GoxlensError as e:
        print(f"goxlens: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"goxlens: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
