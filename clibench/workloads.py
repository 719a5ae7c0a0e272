"""Workload definitions and input generation for the goxlens CLI benchmark.

A workload is a fixed-size synthetic corpus plus the CLI commands a user
would run on it: ingest -> detect -> bars -> one or more `analyze` studies.
Every input is a pure function of the workload and the seed. `goxlens synth`
writes the canonical ledger and its ground truth; this module adds what the
generator does not make (the raw `mtgox_leak` dump with planted faults and the
auxiliary series) and reads the ground truth back for the output checks.
"""

from __future__ import annotations

import calendar
import csv
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

DAY = 86400
BAR_SECONDS = 1800
BARS_PER_DAY = DAY // BAR_SECONDS

# Planted faults in the raw dump. Each malformed row makes
# exactly one row error; each non-USD trade contributes two dropped halves;
# each orphan half is one unpaired trade id.
MALFORMED_ROWS = (
    ["u1", "x0", "2012-04-10 10:00:00", "N", "USD", "1.2.3", "10.00000", "buy"],
    ["u2", "x1", "2012-04-10 10:00:00", "N", "USD", "0.123456789", "10.00000", "buy"],
    ["u3", "x2", "2012-13-45 10:00:00", "N", "USD", "1.00000000", "10.00000", "sell"],
    ["u4", "x3", "2012-04-11"],
    ["", "x4", "2012-04-11 12:00:00", "N", "USD", "1.00000000", "10.00000", "sell"],
    ["u5", "x5", "2012-04-12 08:00:00", "N", "USD", "-1.00000000", "10.00000", "buy"],
)


@dataclass(frozen=True)
class Workload:
    name: str
    first_day: str
    n_days: int
    trades_per_interval: float
    raw_dump: bool  # write the ledger in the mtgox_leak layout with planted faults
    studies: Tuple[str, ...]
    duplicate_rate: float = 0.0
    wash_rate: float = 0.03
    wash_windows: Tuple[Tuple[str, str, float], ...] = ()
    non_usd_trades: int = 0
    orphan_halves: int = 0
    onchain_rows: int = 0

    @property
    def window(self) -> str:
        last = _epoch_day(self.first_day) + (self.n_days - 1) * DAY
        return f"{self.first_day}..{_fmt_date(last)}"

    @property
    def n_bars(self) -> int:
        return self.n_days * BARS_PER_DAY

    def synth_spec(self) -> dict:
        return {
            "start": self.first_day,
            "n_days": self.n_days,
            "n_traders": 50,
            "trades_per_interval": self.trades_per_interval,
            "wash_rate": self.wash_rate,
            "wash_windows": [list(w) for w in self.wash_windows],
            "duplicate_rate": self.duplicate_rate,
            "price": 5.0,
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="timing_120d",
            first_day="2012-02-21",
            n_days=120,
            trades_per_interval=3.0,
            raw_dump=False,
            studies=("timing",),
        ),
        Workload(
            name="paper_window",
            first_day="2011-06-26",
            n_days=695,
            trades_per_interval=1.0,
            raw_dump=True,
            studies=("media", "onchain", "market", "cross-asset", "event"),
            duplicate_rate=0.02,
            non_usd_trades=500,
            orphan_halves=200,
            wash_windows=(
                ("2011-11-07", "2011-11-21", 0.3),
                ("2012-04-16", "2012-04-30", 0.3),
                ("2013-02-04", "2013-02-18", 0.3),
            ),
            onchain_rows=20000,
        ),
    )
}

# Reduced sizes for the self-test: same commands and checks, seconds to run.
SMOKE: Dict[str, Workload] = {
    "timing_120d": replace(WORKLOADS["timing_120d"], n_days=7, trades_per_interval=3.0),
    "paper_window": replace(
        WORKLOADS["paper_window"],
        first_day="2012-03-05",
        n_days=70,
        trades_per_interval=1.0,
        onchain_rows=500,
        wash_windows=(("2012-03-19", "2012-03-26", 0.3),),
        non_usd_trades=20,
        orphan_halves=10,
    ),
}


# --- dates, without goxlens ----------------------------------------------------

_midnights: Dict[str, int] = {}


def _epoch_day(text: str) -> int:
    ts = _midnights.get(text)
    if ts is None:
        ts = calendar.timegm((int(text[0:4]), int(text[5:7]), int(text[8:10]), 0, 0, 0))
        _midnights[text] = ts
    return ts


def epoch(text: str) -> int:
    """'YYYY-MM-DD HH:MM:SS' (UTC) to epoch seconds."""
    return (
        _epoch_day(text[:10])
        + 3600 * int(text[11:13])
        + 60 * int(text[14:16])
        + int(text[17:19])
    )


def _fmt_ts(ts: int) -> str:
    y, mo, d, h, mi, s = _gm(ts)
    return f"{y:04d}-{mo:02d}-{d:02d} {h:02d}:{mi:02d}:{s:02d}"


def _fmt_date(ts: int) -> str:
    y, mo, d = _gm(ts)[:3]
    return f"{y:04d}-{mo:02d}-{d:02d}"


def _gm(ts: int):
    return time.gmtime(ts)[:6]


def fixed(text: str, decimals: int) -> int:
    """Decimal string to an integer at 10**-decimals (inputs are well formed)."""
    whole, _, frac = text.partition(".")
    return int(whole) * 10**decimals + int(frac.ljust(decimals, "0") or 0)


def iso_week_start(ts: int) -> int:
    day = ts // DAY
    return (day - (day + 3) % 7) * DAY  # epoch day 0 was a Thursday


# --- setup: everything a user would have to produce before ingest ----------------

@dataclass
class Inputs:
    """Paths of one workload's generated inputs."""

    root: Path
    trades: Path  # the file `goxlens ingest` reads
    schema: str
    synth_dir: Path
    aux: Dict[str, Path] = field(default_factory=dict)


def setup(workload: Workload, seed: int, root: Path, run_cli) -> Inputs:
    """Generate the workload's inputs under `root`.

    `run_cli(args, label)` runs one goxlens command and raises on failure; the
    ledger comes from `goxlens synth`, the rest is written here.
    """
    root.mkdir(parents=True, exist_ok=True)
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(workload.synth_spec(), sort_keys=True))
    synth_dir = root / "synth"
    run_cli(
        ["synth", "--spec", str(spec_path), "--seed", str(seed), "--out", str(synth_dir)],
        "synth",
    )
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xB3AC]))
    inputs = Inputs(root, synth_dir / "trades.csv", "canonical", synth_dir)
    if workload.raw_dump:
        inputs.trades = root / "dump.csv"
        inputs.schema = "mtgox_leak"
        _write_raw_dump(workload, synth_dir / "trades.csv", inputs.trades, rng)
    if "onchain" in workload.studies:
        inputs.aux["onchain"] = _write_onchain(workload, root / "onchain.csv", rng)
    if "market" in workload.studies:
        inputs.aux["market_daily"] = _write_market(workload, root / "market.csv", rng)
    if "media" in workload.studies:
        inputs.aux["trends"] = _write_trends(workload, root / "trends.csv", rng)
    if "cross-asset" in workload.studies:
        inputs.aux["asset_bar:nikkei"] = _write_asset_bars(workload, root / "nikkei.csv", rng)
    return inputs


def _write_raw_dump(workload: Workload, canonical: Path, out: Path, rng) -> None:
    """Rewrite a canonical half-row file in the mtgox_leak layout.

    Planted at seeded positions: whole non-USD trades, orphan USD halves and
    the malformed rows above. Halves keep their order, so duplicates injected
    by the generator stay where it put them.
    """
    with open(canonical, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [[u, tid, ts, "N", cur, btc, money, side] for u, tid, ts, cur, btc, money, side in reader]
    n = len(rows)
    first = _epoch_day(workload.first_day)
    span = workload.n_days * DAY
    extra: List[Tuple[int, List[List[str]]]] = []
    for i in range(workload.non_usd_trades):
        ts = _fmt_ts(first + int(rng.integers(span)))
        btc = f"{int(rng.integers(1, 10))}.{int(rng.integers(10**8)):08d}"
        money = f"{int(rng.integers(1, 50))}.{int(rng.integers(10**5)):05d}"
        cur = ("EUR", "JPY", "GBP")[i % 3]
        extra.append((int(rng.integers(n + 1)), [
            [f"u{int(rng.integers(50))}", f"f{i}", ts, "N", cur, btc, money, "buy"],
            [f"u{int(rng.integers(50))}", f"f{i}", ts, "N", cur, btc, money, "sell"],
        ]))
    for i in range(workload.orphan_halves):
        ts = _fmt_ts(first + int(rng.integers(span)))
        btc = f"{int(rng.integers(1, 10))}.{int(rng.integers(10**8)):08d}"
        extra.append((int(rng.integers(n + 1)), [
            [f"u{int(rng.integers(50))}", f"o{i}", ts, "N", "USD", btc, "12.50000", "buy"],
        ]))
    for row in MALFORMED_ROWS:
        extra.append((int(rng.integers(n + 1)), [list(row)]))
    extra.sort(key=lambda e: e[0])
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["User_Id", "Trade_Id", "Date", "Japan", "Currency", "Bitcoins", "Money", "Type"])
        pos = 0
        for at, planted in extra:
            w.writerows(rows[pos:at])
            w.writerows(planted)
            pos = at
        w.writerows(rows[pos:])


def _days(workload: Workload) -> np.ndarray:
    return _epoch_day(workload.first_day) + DAY * np.arange(workload.n_days, dtype=np.int64)


def _write_onchain(workload: Workload, out: Path, rng) -> Path:
    first = _epoch_day(workload.first_day)
    ts = np.sort(first + rng.integers(0, workload.n_days * DAY, workload.onchain_rows))
    kinds = rng.integers(0, 2, workload.onchain_rows)
    amounts = rng.lognormal(1.0, 1.2, workload.onchain_rows)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "transaction_id", "address", "type", "amount"])
        for i in range(workload.onchain_rows):
            w.writerow([
                _fmt_ts(int(ts[i])), f"tx{i}", f"addr{i % 997}",
                ("input", "output")[kinds[i]], repr(round(float(amounts[i]), 8)),
            ])
    return out


def _write_market(workload: Workload, out: Path, rng) -> Path:
    volumes = rng.lognormal(math.log(3000.0), 0.4, workload.n_days)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "volume_btc"])
        for day, v in zip(_days(workload), volumes):
            w.writerow([_fmt_date(int(day)), repr(round(float(v), 4))])
    return out


def _write_trends(workload: Workload, out: Path, rng) -> Path:
    first = iso_week_start(_epoch_day(workload.first_day))
    last = iso_week_start(int(_days(workload)[-1]))
    weeks = range(first, last + 1, 7 * DAY)
    scores = rng.integers(5, 101, len(weeks))
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["week_start", "score"])
        for wk, s in zip(weeks, scores):
            w.writerow([_fmt_date(wk), int(s)])
    return out


def _write_asset_bars(workload: Workload, out: Path, rng) -> Path:
    """Tokyo-session bars (00:00-06:00 UTC, weekdays): weekends are closed days."""
    close = 9000.0
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "close", "tick", "volume"])
        for day in _days(workload):
            if (int(day) // DAY + 3) % 7 >= 5:  # Saturday, Sunday
                continue
            for slot in range(12):
                close *= math.exp(0.002 * float(rng.standard_normal()))
                w.writerow([
                    _fmt_ts(int(day) + slot * BAR_SECONDS), repr(round(close, 2)),
                    int(rng.poisson(300)), repr(round(float(rng.lognormal(10.0, 0.3)), 1)),
                ])
    return out


# --- ground truth, read back from what setup wrote --------------------------------

@dataclass
class Truth:
    n_bars: int
    first_ts: int
    raw_rows: int
    dropped_non_usd: int
    unpaired: int
    paired: int
    duplicates_removed: int
    deduplicated: int
    row_errors: int
    wash_keys: List[Tuple[str, str, int, int, int]]  # (buyer, seller, btc_e8, money_e5, ts)
    bar_wash_e8: np.ndarray
    bar_total_e8: np.ndarray
    day_nonwash_btc: np.ndarray  # per window day, float BTC
    market_btc: Optional[np.ndarray] = None
    n_iso_weeks: int = 0


def read_truth(workload: Workload, inputs: Inputs) -> Truth:
    """Ground truth from the generator's sidecar and the files setup wrote."""
    sidecar = json.loads((inputs.synth_dir / "truth.json").read_text())
    first = _epoch_day(workload.first_day)
    n_bars = workload.n_bars
    wash = np.zeros(n_bars, dtype=np.int64)
    total = np.zeros(n_bars, dtype=np.int64)
    n_halves = 0
    with open(inputs.synth_dir / "trades.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for buy in reader:
            sell = next(reader)
            n_halves += 2
            if not buy[1].startswith("t"):
                continue  # an injected duplicate of an organic trade
            i = (epoch(buy[2]) - first) // BAR_SECONDS
            btc = fixed(buy[4], 8)
            total[i] += btc
            if buy[0] == sell[0]:
                wash[i] += btc
    nonwash_day = (total - wash).reshape(-1, BARS_PER_DAY).sum(axis=1) / 1e8
    organic = sidecar["pre_injection_count"]
    dups = sidecar["n_duplicates"]
    t = Truth(
        n_bars=n_bars,
        first_ts=first,
        raw_rows=n_halves,
        dropped_non_usd=0,
        unpaired=0,
        paired=organic + dups,
        duplicates_removed=dups,
        deduplicated=organic,
        row_errors=0,
        wash_keys=[tuple(k) for k in sidecar["wash_keys"]],
        bar_wash_e8=wash,
        bar_total_e8=total,
        day_nonwash_btc=nonwash_day,
    )
    if workload.raw_dump:
        t.raw_rows += 2 * workload.non_usd_trades + workload.orphan_halves
        t.dropped_non_usd = 2 * workload.non_usd_trades
        t.unpaired = workload.orphan_halves
        t.row_errors = len(MALFORMED_ROWS)
    if "market_daily" in inputs.aux:
        with open(inputs.aux["market_daily"], newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            t.market_btc = np.array([float(v) for _d, v in reader])
    last_day = first + (workload.n_days - 1) * DAY
    t.n_iso_weeks = (iso_week_start(last_day) - iso_week_start(first)) // (7 * DAY) + 1
    return t
