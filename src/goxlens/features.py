"""30-minute bars and derived measures.

Everything downstream runs on five aligned series built here from flagged
trades: wash volume, nonwash volume, total volume, Amihud illiquidity ("liq")
and realized volatility ("vol"). Also: the bars.csv codec, daily wash-volume
quartiles, ISO-week rollups with a stationarity filter, and external asset
bars with closed-market zeros.

Measure conventions (the bar-level formulas are ours; sources define only the
names): Amihud is |log return of bar VWAP| per unit of bar dollar volume,
realized volatility is the sum of squared per-trade log returns within the
bar. Both are 0 whenever an input is missing (empty bar, absent VWAP, zero
dollar volume) so sparse stretches stay finite.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from datetime import date as _date
from datetime import datetime, timezone
from typing import Callable, Optional, Sequence

import numpy as np

from .detect import FlaggedLedger, TimeWindow
from .errors import DataError, DegenerateSeriesError
from .ingest import (
    BTC_DECIMALS,
    BTC_UNIT,
    DAY,
    MONEY_DECIMALS,
    MONEY_UNIT,
    _BLOCK,
    AuxSeries,
    Source,
    _open_text,
    _read_fixed,
    _read_stamps,
    _right_aligned,
    bin_sums,
    fmt_ts,
    format_fixed,
    format_timestamps,
    last_of_runs,
    parse_scaled,
    parse_ts,
)

BAR_SECONDS = 1800
BARS_PER_DAY = DAY // BAR_SECONDS  # 48

#: The five core series every study consumes, in canonical order.
STUDY_SERIES = ("wash", "nonwash", "total", "liq", "vol")


def amihud(prev_vwap: Optional[float], vwap: Optional[float], dollar_volume: float) -> float:
    """|ln(vwap_t / vwap_{t-1})| / dollar_volume_t; 0 when any input is missing (None, NaN)."""
    if prev_vwap is None or vwap is None:
        return 0.0
    if not (prev_vwap > 0.0 and vwap > 0.0 and dollar_volume > 0.0):
        return 0.0
    return abs(math.log(vwap / prev_vwap)) / dollar_volume


def realized_vol(prices: Sequence[float]) -> float:
    """Sum of squared log returns over consecutive positive prices; 0 if < 2."""
    total = 0.0
    prev = None
    for p in prices:
        if p <= 0.0:
            continue
        if prev is not None:
            r = math.log(p / prev)
            total += r * r
        prev = p
    return total


#: bars.csv columns, in file order.
BARS_HEADER = ["start", "wash", "nonwash", "total", "dollar", "vwap", "amihud", "rvol"]

# The header line `to_csv` writes; `_read_canonical` takes only files that open with it
_HEADER_LINE = ",".join(BARS_HEADER) + "\r\n"
# Longest float cell `_read_canonical` takes; repr() of a float is at most 24 long
_MAX_FLOAT_WIDTH = 32

# BarSeries columns and their dtypes, in constructor order; `_parse_bar_row`
# makes one record of this layout per bars.csv row
_COLUMNS = np.dtype(
    [
        ("start", np.int64),
        ("wash_e8", np.int64),
        ("nonwash_e8", np.int64),
        ("dollar_e5", np.int64),
        ("n_trades", np.int64),
        ("vwap", np.float64),
        ("amihud", np.float64),
        ("rvol", np.float64),
    ]
)


@dataclass
class BarSeries:
    """Dense bars on the 30-minute grid covering a window, one array per field.

    `start` (bar open, epoch seconds), `wash_e8` and `nonwash_e8` (BTC at
    1e-8), `dollar_e5` (quote currency at 1e-5) and `n_trades` are int64
    sums; `vwap` (NaN when the bar has no priced trade), `amihud` and `rvol`
    are float64. `column` gives the float views the studies consume.
    `source_digest` is the `content_digest` of the bars.csv text `from_csv`
    read the frame from; frames built any other way (slices included) have
    None.
    """

    start: np.ndarray
    wash_e8: np.ndarray
    nonwash_e8: np.ndarray
    dollar_e5: np.ndarray
    n_trades: np.ndarray
    vwap: np.ndarray
    amihud: np.ndarray
    rvol: np.ndarray
    window: TimeWindow
    label: str = "mtgox"
    source_digest: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in _COLUMNS.names:
            setattr(self, name, np.ascontiguousarray(getattr(self, name), _COLUMNS[name]))
        if any(len(getattr(self, name)) != len(self.start) for name in _COLUMNS.names):
            raise DataError("bar columns differ in length")
        broken = np.flatnonzero(np.diff(self.start) != BAR_SECONDS)
        if len(broken):
            a, b = self.start[broken[0] : broken[0] + 2].tolist()
            raise DataError(f"bar grid broken: {fmt_ts(a)} then {fmt_ts(b)}")

    def __len__(self) -> int:
        return len(self.start)

    def column(self, name: str) -> np.ndarray:
        """A float64 series: volumes in BTC, dollar volume, or a bar measure."""
        if name == "wash":
            return self.wash_e8 / BTC_UNIT
        if name == "nonwash":
            return self.nonwash_e8 / BTC_UNIT
        if name == "total":
            return (self.wash_e8 + self.nonwash_e8) / BTC_UNIT
        if name == "dollar":
            return self.dollar_e5 / MONEY_UNIT
        if name == "vwap":
            return self.vwap.copy()
        if name in ("amihud", "liq"):
            return self.amihud.copy()
        if name in ("rvol", "vol"):
            return self.rvol.copy()
        raise DataError(f"unknown bar column {name!r}")

    def matrix(self, names: Sequence[str] = STUDY_SERIES) -> np.ndarray:
        return np.column_stack([self.column(n) for n in names])

    def series_map(self, names: Sequence[str] = STUDY_SERIES) -> dict:
        return {n: self.column(n) for n in names}

    def days(self) -> tuple[np.ndarray, np.ndarray]:
        """UTC day epochs in date order, and each bar's index into them."""
        return np.unique(self.start - self.start % DAY, return_inverse=True)

    def slice(self, window: TimeWindow) -> "BarSeries":
        """Bars whose start lies in the window; grid alignment is kept."""
        lo, hi = np.searchsorted(self.start, [window.start, window.end])
        if lo == hi:
            raise DataError(
                f"no bars in window {fmt_ts(window.start)}..{fmt_ts(window.end)}"
            )
        columns = (getattr(self, name)[lo:hi] for name in _COLUMNS.names)
        return BarSeries(*columns, window, self.label)

    def to_csv(self, stream) -> None:
        """Write bars.csv: CRLF lines, the `format_timestamps` and `format_fixed` spellings."""
        w = csv.writer(stream)
        w.writerow(BARS_HEADER)
        for i in range(0, len(self), _BLOCK):
            rows = slice(i, i + _BLOCK)
            wash, nonwash = self.wash_e8[rows], self.nonwash_e8[rows]
            w.writerows(
                zip(
                    format_timestamps(self.start[rows]),
                    format_fixed(wash, BTC_DECIMALS),
                    format_fixed(nonwash, BTC_DECIMALS),
                    format_fixed(wash + nonwash, BTC_DECIMALS),
                    format_fixed(self.dollar_e5[rows], MONEY_DECIMALS),
                    ("" if v != v else v for v in self.vwap[rows].tolist()),  # csv writes repr()
                    self.amihud[rows].tolist(),
                    self.rvol[rows].tolist(),
                )
            )

    @classmethod
    def from_csv(cls, source: Source, label: str = "mtgox") -> "BarSeries":
        """Load bars.csv, checking every row (`DataError` names the first bad line).

        Text in exactly the layout `to_csv` writes is read a column at a time;
        any other text, valid or not, is parsed row by row by `_parse_bar_row`.
        """
        with _open_text(source, "bars") as fh:
            text = fh.read()
        columns = _read_canonical(text)
        if columns is None:
            columns = _read_rows(text)
        start = columns[0]
        window = TimeWindow(int(start[0]), int(start[-1]) + BAR_SECONDS)
        bars = cls(*columns, window, label)
        # a file `to_csv` wrote holds exactly the text re-serializing would give
        bars.source_digest = content_digest("bars", label, text)
        return bars


def content_digest(*parts) -> str:
    """SHA-256 over length-prefixed parts (str parts as UTF-8), as hex."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def _read_rows(text: str) -> tuple:
    """bars.csv text as `_COLUMNS` arrays, parsed row by row by `_parse_bar_row`."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != BARS_HEADER:
        raise DataError(f"bad bars header: {header}; expected {BARS_HEADER}")
    parsed = (_parse_bar_row(row, reader.line_num) for row in reader if row)
    rows = np.fromiter(parsed, _COLUMNS)
    if not len(rows):
        raise DataError("empty bars file")
    return tuple(rows[name] for name in _COLUMNS.names)


def _read_canonical(text: str) -> Optional[tuple]:
    """bars.csv text as `_COLUMNS` arrays if it is in the layout `to_csv` writes, else None.

    That layout is the exact header, then CRLF lines of eight unquoted cells:
    `start` spelled as by `fmt_ts` on one 30-minute grid, fixed-point amounts
    with exactly the scale's fractional digits, total = wash + nonwash. Each
    check runs on whole columns; float cells go through float() as in
    `_parse_bar_row`. Whatever this accepts, `_parse_bar_row` accepts with the
    same values; it returns None on anything else, valid or not.
    """
    if not (text.startswith(_HEADER_LINE) and text.endswith("\r\n") and text.isascii()):
        return None
    data = text.encode("ascii")
    n_lines = data.count(b"\r\n")  # the header included
    if data.count(b"\r") != n_lines or data.count(b"\n") != n_lines:
        return None
    # nothing here undoes csv quoting, and `_read_floats` would drop a NUL ending a cell
    if b'"' in data or b"\0" in data:
        return None
    buf = np.frombuffer(data, np.uint8)
    delim = buf == ord(",")
    delim |= buf == ord("\r")
    cuts = np.flatnonzero(delim)
    del delim
    if len(cuts) != 8 * n_lines or n_lines < 2:
        return None
    cuts = cuts.reshape(n_lines, 8)
    if np.any(buf[cuts[:, 7]] != ord("\r")):  # so each line holds exactly 7 commas
        return None
    # cell k of data row i spans buf[lo(k)[i]:hi[i, k]]; row 0 of `cuts` is the header
    hi = cuts[1:]

    def lo(k: int) -> np.ndarray:
        return cuts[:-1, 7] + 2 if k == 0 else hi[:, k - 1] + 1

    n = len(hi)
    start = _read_stamps(buf, lo(0), hi[:, 0])
    if start is None or not np.all(np.diff(start) == BAR_SECONDS):
        return None

    fixed = [_read_fixed(buf, lo(k), hi[:, k], d) for k, d in zip((1, 2, 3, 4), (8, 8, 8, 5))]
    if any(c is None for c in fixed):
        return None
    wash, nonwash, total, dollar = fixed
    if not np.array_equal(total, wash + nonwash):
        return None

    priced = hi[:, 5] > lo(5)  # an empty vwap cell is NaN
    vwap = np.full(n, math.nan)
    try:
        vwap[priced] = _read_floats(buf, lo(5)[priced], hi[priced, 5])
        amihud = _read_floats(buf, lo(6), hi[:, 6])
        rvol = _read_floats(buf, lo(7), hi[:, 7])
    except ValueError:
        return None
    return start, wash, nonwash, dollar, np.zeros(n, np.int64), vwap, amihud, rvol


def _read_floats(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Cells buf[lo:hi] through float(); ValueError if one fails or is over `_MAX_FLOAT_WIDTH`."""
    if not len(hi):
        return np.empty(0)
    size = hi - lo
    width = max(int(size.max()), 1)
    if width > _MAX_FLOAT_WIDTH:
        raise ValueError("float cell too long")
    chars = _right_aligned(buf, hi, width)
    # float() skips leading blanks, so padding a cell with them keeps its value
    chars[np.arange(width) < (width - size)[:, None]] = ord(" ")
    cells = chars.view(f"S{width}").ravel()
    out = np.empty(len(cells))
    for i in range(0, len(cells), _BLOCK):
        part = cells[i : i + _BLOCK].tolist()
        out[i : i + len(part)] = np.fromiter(map(float, part), np.float64, len(part))
    return out


def _parse_bar_row(row: list[str], line: int) -> tuple:
    """One bars.csv row as a `_COLUMNS` record; the file carries no trade counts (0)."""
    if len(row) != len(BARS_HEADER):
        raise DataError(f"bars line {line}: expected {len(BARS_HEADER)} fields, got {len(row)}")
    try:
        start = parse_ts(row[0])
        wash = parse_scaled(row[1], BTC_DECIMALS)
        nonwash = parse_scaled(row[2], BTC_DECIMALS)
        total = parse_scaled(row[3], BTC_DECIMALS)
        dollar = parse_scaled(row[4], MONEY_DECIMALS)
        vwap = math.nan if row[5] == "" else float(row[5])
        measures = float(row[6]), float(row[7])
    except ValueError as e:
        raise DataError(f"bars line {line}: {e}") from None
    if total != wash + nonwash:
        raise DataError(f"bars line {line}: total {row[3]} is not wash + nonwash")
    if max(total, dollar) >= 2**63:
        raise DataError(f"bars line {line}: amount out of range")
    return start, wash, nonwash, dollar, 0, vwap, *measures


def build_bars(flagged: FlaggedLedger) -> BarSeries:
    """Aggregate flagged trades onto the dense 30-minute grid of their window.

    Gaps become zero-volume bars. VWAP is sum(money)/sum(bitcoins) over priced
    (bitcoins > 0) trades; Amihud uses the previous bar's VWAP (0 at the first
    bar or across a VWAP gap); realized volatility uses within-bar trade
    prices in ledger order.
    """
    window = flagged.window
    n_bars = -((window.start - window.end) // BAR_SECONDS)
    bar = (flagged.ts - window.start) // BAR_SECONDS
    btc, money = flagged.bitcoins_e8, flagged.money_e5
    wash = np.array(flagged.wash, dtype=bool)
    priced = btc > 0

    def bar_sums(values: np.ndarray, mask=slice(None)) -> np.ndarray:
        out = np.zeros(n_bars, dtype=np.int64)
        np.add.at(out, bar[mask], values[mask])
        return out

    wash_e8 = bar_sums(btc, wash)
    nonwash_e8 = bar_sums(btc, ~wash)
    dollar_e5 = bar_sums(money)
    money_priced = bar_sums(money, priced)
    btc_priced = wash_e8 + nonwash_e8  # zero-BTC trades add nothing
    vwap = np.full(n_bars, math.nan)
    has = btc_priced > 0
    vwap[has] = (money_priced[has] / MONEY_UNIT) / (btc_priced[has] / BTC_UNIT)
    prev_vwap = np.concatenate(([math.nan], vwap[:-1]))
    dollar = dollar_e5 / MONEY_UNIT
    liq = [amihud(*a) for a in zip(prev_vwap.tolist(), vwap.tolist(), dollar.tolist())]

    # each bar's priced trades, in ledger order
    order = np.flatnonzero(priced)
    order = order[np.argsort(bar[order], kind="stable")]
    # exact per-trade prices: money_e5 * BTC_UNIT can overflow int64, a Python int cannot
    prices = [
        m * BTC_UNIT / (b * MONEY_UNIT)
        for m, b in zip(money[order].tolist(), btc[order].tolist())
    ]
    bar_of = bar[order]
    rvol = np.zeros(n_bars)
    # run boundaries of equal bar indices; the -1 pads mark both ends
    edges = np.flatnonzero(np.diff(bar_of, prepend=-1, append=-1)).tolist()
    for a, b in zip(edges, edges[1:]):
        rvol[bar_of[a]] = realized_vol(prices[a:b])

    n_trades = np.bincount(bar, minlength=n_bars)
    starts = window.start + BAR_SECONDS * np.arange(n_bars, dtype=np.int64)
    return BarSeries(starts, wash_e8, nonwash_e8, dollar_e5, n_trades, vwap, liq, rvol, window)


@dataclass(frozen=True)
class QuartileLabel:
    day: int  # epoch of UTC midnight
    quartile: int  # 1 (lowest daily wash volume) .. 4 (highest)

    @property
    def date(self) -> _date:
        return datetime.fromtimestamp(self.day, tz=timezone.utc).date()


def daily_quartiles(bars: BarSeries) -> list[QuartileLabel]:
    """Label each day Q1..Q4 by its total wash volume.

    Days are ranked ascending (ties broken by date), and quartile bounds fall
    at the 25/50/75 percentiles of the ranking, so group sizes differ by at
    most one. Returned sorted by date.
    """
    days, day_of_bar = bars.days()
    n = len(days)
    if n < 4:
        raise DataError(f"quartiles need >= 4 days, got {n}")
    wash = np.zeros(n, dtype=np.int64)
    np.add.at(wash, day_of_bar, bars.wash_e8)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((days, wash))] = np.arange(n)
    quartile = 1 + (4 * rank) // n
    return [QuartileLabel(d, q) for d, q in zip(days.tolist(), quartile.tolist())]


def quartile_map(labels: Sequence[QuartileLabel]) -> dict[int, int]:
    return {lab.day: lab.quartile for lab in labels}


@dataclass
class WeeklyBucket:
    """One ISO week: summed series values plus the in-week per-bar paths."""

    week_start: int  # epoch of the ISO Monday, UTC midnight
    sums: dict[str, float]
    series: dict[str, np.ndarray]
    n_bars: int


def week_start_of(ts):
    """Epoch of the ISO Monday of ts (an int or an int array)."""
    day_number = ts // DAY
    weekday = (day_number + 3) % 7  # epoch day 0 was a Thursday
    return (day_number - weekday) * DAY


def weekly_rollup(bars: BarSeries) -> list[WeeklyBucket]:
    """Accumulate the five study series to ISO weeks (Monday start, UTC).

    Sums are over every bar of the week; per-bar paths are retained so the
    stationarity filter can test within-week behaviour. Partial edge weeks are
    kept here and left to the filter.
    """
    weeks, first = np.unique(week_start_of(bars.start), return_index=True)
    columns = bars.series_map()
    ends = [*first[1:].tolist(), len(bars)]
    out = []
    for wk, a, b in zip(weeks.tolist(), first.tolist(), ends):
        series = {name: columns[name][a:b].copy() for name in STUDY_SERIES}
        sums = {name: float(series[name].sum()) for name in STUDY_SERIES}
        out.append(WeeklyBucket(wk, sums, series, b - a))
    return out


def filter_stationary_weeks(
    weekly: Sequence[WeeklyBucket],
    test: Optional[Callable[[np.ndarray], bool]] = None,
) -> tuple[list[WeeklyBucket], list[tuple[int, str, str]]]:
    """Drop weeks where any of the five in-week series fails the test.

    The default test is an ADF rejection at 5% (AIC lag choice). Returns
    (retained, dropped) where dropped entries are (week_start, series,
    reason) with reason in {"nonstationary", "degenerate", "insufficient"}.
    """
    if test is None:
        from .econometrics import adf

        def test(x: np.ndarray) -> bool:
            return adf(x, lag_rule="aic").reject_at_5pct

    retained: list[WeeklyBucket] = []
    dropped: list[tuple[int, str, str]] = []
    for wk in weekly:
        verdict = None
        for name in STUDY_SERIES:
            try:
                ok = test(wk.series[name])
            except DegenerateSeriesError:
                verdict = (wk.week_start, name, "degenerate")
                break
            except DataError:
                if not np.isfinite(wk.series[name]).all():
                    raise  # a bad cell in the bars, not a short week
                verdict = (wk.week_start, name, "insufficient")
                break
            if not ok:
                verdict = (wk.week_start, name, "nonstationary")
                break
        if verdict is None:
            retained.append(wk)
        else:
            dropped.append(verdict)
    return retained, dropped


@dataclass
class AssetBarSeries:
    """External asset, 30-minute percent-change bars; zero when closed.

    Columns: pct_close, pct_liq, pct_vol, pct_tick_or_volume. The liq and vol
    measures are bar-level analogues of the ledger measures (|log return| per
    unit of activity; squared log return), computed over consecutive open
    bars, then percent-changed. `activity_source` records whether tick counts
    or traded volume fed liq and the fourth column.
    """

    label: str
    starts: np.ndarray
    open_mask: np.ndarray
    columns: dict[str, np.ndarray]
    activity_source: str

    def __len__(self) -> int:
        return len(self.starts)


ASSET_COLUMNS = ("pct_close", "pct_liq", "pct_vol", "pct_tick_or_volume")


def build_asset_bars(aux: AuxSeries, window: TimeWindow, label: str) -> AssetBarSeries:
    """Align an asset_bar aux series to the window's 30-minute grid.

    Slots without data are closed-market slots and contribute exact zeros to
    every column. Within a slot the last close wins and tick/volume sum. All
    outputs are finite (zero-previous-value percent changes emit 0).
    """
    if aux.kind != "asset_bar":
        raise DataError(f"expected asset_bar aux series, got {aux.kind!r}")
    n = -((window.start - window.end) // BAR_SECONDS)
    inside = (aux.ts >= window.start) & (aux.ts < window.end)
    slot = (aux.ts[inside] - window.start) // BAR_SECONDS
    tick = bin_sums(slot, aux.values["tick"][inside], n)
    volume = bin_sums(slot, aux.values["volume"][inside], n)
    close = np.zeros(n)
    last = last_of_runs(slot)  # ts is sorted, so this is the slot's last point
    close[slot[last]] = aux.values["close"][inside][last]
    open_mask = np.bincount(slot, minlength=n) > 0

    activity_source = "tick" if np.any(tick != 0.0) else "volume"
    activity = tick if activity_source == "tick" else volume

    # Bar-level measures over consecutive open slots. math.log, not np.log:
    # numpy's SIMD log differs from it in the last bit on some values.
    opened = np.flatnonzero(open_mask)
    liq = np.zeros(n)
    vol = np.zeros(n)
    prev_close = None
    for i in opened.tolist():
        if prev_close is not None and prev_close > 0.0 and close[i] > 0.0:
            r = math.log(close[i] / prev_close)
            vol[i] = r * r
            if activity[i] > 0.0:
                liq[i] = abs(r) / activity[i]
        prev_close = close[i]

    def pct_open(values: np.ndarray) -> np.ndarray:
        out = np.zeros(n)
        now, before = values[opened[1:]], values[opened[:-1]]
        nz = before != 0.0
        out[opened[1:][nz]] = 100.0 * (now[nz] - before[nz]) / before[nz]
        return out

    starts = window.start + BAR_SECONDS * np.arange(n, dtype=np.int64)
    columns = {
        "pct_close": pct_open(close),
        "pct_liq": pct_open(liq),
        "pct_vol": pct_open(vol),
        "pct_tick_or_volume": pct_open(activity),
    }
    return AssetBarSeries(label, starts, open_mask, columns, activity_source)


def daily_sums(bars: BarSeries, name: str) -> list[tuple[int, float]]:
    """(day epoch, summed column value) per UTC day, in date order."""
    days, day_of_bar = bars.days()
    # bincount adds each day's values left to right, in bar order
    sums = np.bincount(day_of_bar, weights=bars.column(name), minlength=len(days))
    return list(zip(days.tolist(), sums.tolist()))
