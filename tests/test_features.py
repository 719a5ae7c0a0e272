import io
import math
import random
import re
from datetime import datetime, timezone

import numpy as np
import pytest

from goxlens import features
from goxlens.detect import TimeWindow, flag_wash
from goxlens.errors import DataError
from goxlens.features import (
    ASSET_COLUMNS,
    BAR_SECONDS,
    BARS_HEADER,
    BARS_PER_DAY,
    STUDY_SERIES,
    BarSeries,
    amihud,
    build_asset_bars,
    build_bars,
    content_digest,
    daily_quartiles,
    daily_sums,
    filter_stationary_weeks,
    quartile_map,
    realized_vol,
    week_start_of,
    weekly_rollup,
)
from goxlens.ingest import BTC_UNIT, DAY, MONEY_UNIT, parse_aux, parse_date, parse_ts

from conftest import MONDAY, bars_from_arrays, canonical_csv, halves, ledger_of

D0 = "2012-01-01"


def flagged_from(rows, first_day=D0, last_day="2012-01-01"):
    return flag_wash(ledger_of(canonical_csv(rows)), TimeWindow.from_dates(first_day, last_day))


# --- point measures ----------------------------------------------------------


def test_amihud_zero_return():
    assert amihud(10.0, 10.0, 500.0) == 0.0


def test_amihud_hand_value():
    assert amihud(10.0, 10.0 * math.exp(0.02), 200.0) == pytest.approx(1e-4, rel=1e-12)


def test_amihud_missing_inputs():
    assert amihud(None, 10.0, 100.0) == 0.0
    assert amihud(10.0, None, 100.0) == 0.0
    assert amihud(10.0, 11.0, 0.0) == 0.0  # zero-volume bar floors at 0


def test_amihud_price_scale_covariance():
    rng = random.Random(1)
    for _ in range(50):
        prev, cur, dv = rng.uniform(1, 50), rng.uniform(1, 50), rng.uniform(1, 1e4)
        k = rng.uniform(0.1, 10)
        scaled = amihud(prev * k, cur * k, dv * k)
        assert scaled == pytest.approx(amihud(prev, cur, dv) / k, rel=1e-9)


def test_rvol_degenerate_inputs():
    assert realized_vol([]) == 0.0
    assert realized_vol([101.0]) == 0.0
    assert realized_vol([7.0, 7.0, 7.0]) == 0.0


def test_rvol_hand_value():
    want = math.log(1.01) ** 2 + math.log(100 / 101) ** 2  # ~1.9803e-4
    assert realized_vol([100.0, 101.0, 100.0]) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(1.9803e-4, rel=1e-4)


def test_rvol_price_scale_invariance():
    prices = [100.0, 103.0, 99.5, 101.25]
    assert realized_vol([3.7 * p for p in prices]) == pytest.approx(
        realized_vol(prices), rel=1e-12
    )


# --- bar construction --------------------------------------------------------


def test_wash_and_nonwash_volumes_add():
    rows = halves("1", "1", "w", "2012-01-01 00:10:00", 6.0, 30.0)
    rows += halves("2", "3", "n", "2012-01-01 00:20:00", 6.0, 30.0)
    bars = build_bars(flagged_from(rows))
    assert bars.column("wash")[0] == 6.0
    assert bars.column("nonwash")[0] == 6.0
    assert bars.column("total")[0] == 12.0
    assert bars.n_trades[0] == 2
    assert bars.column("dollar")[0] == 60.0
    assert bars.vwap[0] == pytest.approx(5.0)  # 60 USD / 12 BTC


def test_gap_hour_gives_zero_bars():
    rows = halves("1", "2", "a", "2012-01-01 00:10:00", 1.0, 5.0)
    rows += halves("1", "2", "b", "2012-01-01 03:10:00", 1.0, 5.0)
    bars = build_bars(flagged_from(rows))
    assert len(bars) == 48
    middle = slice(2, 6)  # 01:00 .. 03:00
    assert np.all(bars.column("total")[middle] == 0) and np.all(bars.n_trades[middle] == 0)
    assert np.all(bars.amihud[middle] == 0.0) and np.all(bars.rvol[middle] == 0.0)


def test_two_week_window_is_672_bars():
    rows = halves("1", "2", "a", "2012-01-03 12:00:00", 1.0, 5.0)
    bars = build_bars(flagged_from(rows, "2012-01-01", "2012-01-14"))
    assert len(bars) == 14 * BARS_PER_DAY == 672


def test_bar_vwap_amihud_rvol_hand_values():
    rows = halves("1", "2", "a", "2012-01-01 00:05:00", 2.0, 20.0)  # price 10
    rows += halves("1", "2", "b", "2012-01-01 00:25:00", 2.0, 24.0)  # price 12
    rows += halves("1", "2", "c", "2012-01-01 00:35:00", 1.0, 12.0)  # price 12
    bars = build_bars(flagged_from(rows))
    assert bars.vwap[0] == pytest.approx(44.0 / 4.0)
    assert bars.amihud[0] == 0.0  # no previous bar vwap
    assert bars.rvol[0] == pytest.approx(math.log(1.2) ** 2)
    assert bars.vwap[1] == pytest.approx(12.0)
    assert bars.amihud[1] == pytest.approx(abs(math.log(12.0 / 11.0)) / 12.0)
    assert bars.rvol[1] == 0.0


def test_amihud_skips_vwap_gaps():
    rows = halves("1", "2", "a", "2012-01-01 00:05:00", 1.0, 10.0)
    rows += halves("1", "2", "b", "2012-01-01 01:05:00", 1.0, 11.0)
    bars = build_bars(flagged_from(rows))
    assert math.isnan(bars.vwap[1])
    # the 01:00 bar has volume but follows a vwap gap: no return, amihud 0
    assert bars.amihud[2] == 0.0


def test_total_identity_random_ledgers():
    rng = random.Random(9)
    for trial in range(5):
        rows = []
        for i in range(200):
            wash = rng.random() < 0.3
            u = f"u{rng.randrange(8)}"
            v = u if wash else f"v{rng.randrange(8)}"
            ts = f"2012-01-01 {rng.randrange(24):02d}:{rng.randrange(60):02d}:{rng.randrange(60):02d}"
            rows += halves(u, v, f"t{trial}_{i}", ts, round(rng.uniform(0.1, 4), 3), 5.0)
        bars = build_bars(flagged_from(rows))
        total_e8 = np.round(bars.column("total") * BTC_UNIT).astype(np.int64)
        assert np.array_equal(total_e8, bars.wash_e8 + bars.nonwash_e8)


def test_adjacent_bars_sum_to_hourly_aggregate():
    rng = random.Random(4)
    rows = []
    for i in range(120):
        sec = rng.randrange(3600)  # all inside hour 0
        ts = f"2012-01-01 00:{sec // 60:02d}:{sec % 60:02d}"
        u = f"u{rng.randrange(5)}"
        v = u if rng.random() < 0.4 else f"v{rng.randrange(5)}"
        rows += halves(u, v, f"t{i}", ts, round(rng.uniform(0.1, 2), 3), round(rng.uniform(1, 9), 2))
    fl = flagged_from(rows)
    bars = build_bars(fl)
    want = {"wash": 0, "nonwash": 0, "dollar": 0, "n": 0}
    for btc, money, w in zip(fl.bitcoins_e8.tolist(), fl.money_e5.tolist(), fl.wash):
        want["wash" if w else "nonwash"] += btc
        want["dollar"] += money
        want["n"] += 1
    assert bars.wash_e8[:2].sum() == want["wash"]
    assert bars.nonwash_e8[:2].sum() == want["nonwash"]
    assert bars.dollar_e5[:2].sum() == want["dollar"]
    assert bars.n_trades[:2].sum() == want["n"]


# --- serialization -----------------------------------------------------------


def test_bars_csv_round_trip_is_exact():
    rows = halves("1", "1", "a", "2012-01-01 00:05:00", 1.5, 15.0)
    rows += halves("1", "2", "b", "2012-01-01 11:35:00", 2.25, 20.0)
    bars = build_bars(flagged_from(rows))
    buf = io.StringIO()
    bars.to_csv(buf)
    again = BarSeries.from_csv(io.StringIO(buf.getvalue()))
    buf2 = io.StringIO()
    again.to_csv(buf2)
    assert buf.getvalue() == buf2.getvalue()
    assert len(again) == len(bars)
    assert np.array_equal(again.column("wash"), bars.column("wash"))
    assert np.array_equal(again.column("liq"), bars.column("liq"))


def test_bars_csv_written_by_to_csv_never_reaches_the_row_parser(tmp_path, monkeypatch):
    rows = halves("1", "1", "a", "2012-01-01 00:05:00", 1.5, 15.0)
    rows += halves("1", "2", "b", "2012-01-02 11:35:00", 2.25, 20.0)
    rows += halves("3", "2", "c", "2012-01-02 11:36:00", 0.0, 7.0)
    built = build_bars(flagged_from(rows, last_day="2012-01-03"))  # empty bars, NaN vwaps
    rng = np.random.default_rng(5)
    n = 2 * features._BLOCK + 300  # the codec's blocks: two whole, one part
    noisy = bars_from_arrays(
        rng.uniform(0.0, 1e9, n),  # ten whole digits: the widest the bulk reader takes
        rng.uniform(0.0, 50.0, n),
        liq=rng.standard_exponential(n) * 1e-5,
        vol=np.where(rng.random(n) < 0.5, 0.0, rng.standard_exponential(n)),
        dollar=rng.uniform(0.0, 1e12, n),
        t0=parse_date("1999-12-31"),
    )

    def refuse(row, line):
        raise AssertionError(f"bars line {line} went to the row parser")

    monkeypatch.setattr(features, "_parse_bar_row", refuse)
    for bars in (built, noisy):
        path = tmp_path / "bars.csv"
        with open(path, "w", newline="") as fh:
            bars.to_csv(fh)
        again = BarSeries.from_csv(str(path))
        text = path.read_bytes().decode()
        assert again.source_digest == content_digest("bars", "mtgox", text)
        assert again.window == bars.window
        for name in ("start", "wash_e8", "nonwash_e8", "dollar_e5", "vwap", "amihud", "rvol"):
            assert getattr(again, name).tobytes() == getattr(bars, name).tobytes(), name
    with pytest.raises(AssertionError, match="row parser"):  # the guard is live
        BarSeries.from_csv(io.StringIO(text.replace("\r\n", "\n")))


@pytest.mark.parametrize(
    "cell, text, reason",
    [
        (0, "2012-03-05 00:00:00", "bar grid broken"),  # a grid start off by a week
        (0, "2012-02-27 24:00:00", "bars line 4502: bad timestamp"),
        (2, "1.5000000", "bars line 4502: total"),  # 7 decimals: valid, so total differs
        (3, "1.0000000x", "bars line 4502: malformed amount"),
        (7, "1e", "bars line 4502: could not convert"),
    ],
)
def test_bars_csv_error_past_the_first_block_names_its_line(cell, text, reason):
    bars = bars_from_arrays(np.full(2 * features._BLOCK, 1.0), t0=parse_date("2012-01-01"))
    buf = io.StringIO()
    bars.to_csv(buf)
    lines = buf.getvalue().split("\r\n")
    cells = lines[4501].split(",")  # data row 4501, past the first block of 4096
    cells[cell] = text
    lines[4501] = ",".join(cells)
    with pytest.raises(DataError, match=re.escape(reason)):
        BarSeries.from_csv(io.StringIO("\r\n".join(lines)))


def test_bars_csv_amounts_without_a_point_keep_their_value():
    # as wide as a canonical cell, but whole BTC: the row parser must read it
    rest = ",,0.0,0.0\r\n"
    text = ",".join(BARS_HEADER) + "\r\n"
    text += "2012-01-01 00:00:00,1234000000,0.00000000,1234000000,0.00000" + rest
    text += "2012-01-01 00:30:00,0.00000000,0.00000000,0.00000000,1234000000000" + rest
    bars = BarSeries.from_csv(io.StringIO(text))
    assert bars.wash_e8.tolist() == [1234000000 * BTC_UNIT, 0]
    assert bars.dollar_e5.tolist() == [0, 1234000000000 * MONEY_UNIT]


def test_bars_csv_grid_past_year_9999_is_left_to_the_row_parser():
    # 10000-01-01 has no 19-character spelling, so its row (cut to 19) is not read in bulk
    rest = ",1.00000000,2.00000000,3.00000000,0.00000,,0.0,0.0\r\n"
    text = ",".join(BARS_HEADER) + "\r\n" + "9999-12-31 23:30:00" + rest
    assert len(BarSeries.from_csv(io.StringIO(text))) == 1
    with pytest.raises(DataError, match="bars line 3: bad timestamp"):
        BarSeries.from_csv(io.StringIO(text + "10000-01-0 T00:00:0" + rest))


def test_bars_csv_header_enforced():
    with pytest.raises(DataError):
        BarSeries.from_csv(io.StringIO("start,wash\n"))


@pytest.mark.parametrize(
    "row, reason",
    [
        ("2012-01-01 00:30:00,1.00000000,2.00000000", "expected 8 fields, got 3"),
        ("2012-01-01 00:30:00,1.0x,2.00000000,3.00000000,0.00000,,0.0,0.0", "malformed amount"),
        ("2012-01-01 00:30:00,1.00000000,2.00000000,4.00000000,0.00000,,0.0,0.0",
         "not wash + nonwash"),
        ("2012-01-01 00:30:00,1.00000000,2.00000000,3.00000000,0.00000,,zero,0.0",
         "could not convert"),
        ("2012-01-01 00:30:00,99999999999.00000000,0.00000000,99999999999.00000000,0.00000,,0.0,0.0",
         "out of range"),
        # one second past 9999-12-31 23:59:59, the last start fmt_ts can print
        ("253402300800,1.00000000,2.00000000,3.00000000,0.00000,,0.0,0.0",
         "timestamp out of range"),
        ("99999999999999999999,1.00000000,2.00000000,3.00000000,0.00000,,0.0,0.0",
         "timestamp out of range"),
    ],
)
def test_bars_csv_rejects_malformed_rows(row, reason):
    good = "2012-01-01 00:00:00,1.00000000,2.00000000,3.00000000,0.00000,,0.0,0.0"
    text = f"start,wash,nonwash,total,dollar,vwap,amihud,rvol\n{good}\n{row}\n"
    with pytest.raises(DataError, match=f"bars line 3: .*{re.escape(reason)}"):
        BarSeries.from_csv(io.StringIO(text))


def test_bar_grid_and_column_lengths_checked():
    bars = bars_from_arrays([1.0, 2.0, 3.0])
    columns = [bars.start, bars.wash_e8, bars.nonwash_e8, bars.dollar_e5, bars.n_trades,
               bars.vwap, bars.amihud, bars.rvol]
    gap = bars.start.copy()
    gap[2] += BAR_SECONDS
    with pytest.raises(DataError, match="bar grid broken"):
        BarSeries(gap, *columns[1:], bars.window)
    with pytest.raises(DataError, match="differ in length"):
        BarSeries(*columns[:-1], bars.rvol[:2], bars.window)


def test_matrix_and_series_map():
    bars = bars_from_arrays([1.0, 2.0], [3.0, 4.0])
    m = bars.matrix()
    assert m.shape == (2, 5)
    assert np.array_equal(m[:, 0], [1.0, 2.0])
    assert np.array_equal(m[:, 2], [4.0, 6.0])  # total
    sm = bars.series_map()
    assert set(sm) == set(STUDY_SERIES)
    with pytest.raises(DataError):
        bars.column("sentiment")


def test_slice_alignment():
    bars = bars_from_arrays(np.arange(96.0), t0=parse_date("2012-01-02"))
    sub = bars.slice(TimeWindow.from_dates("2012-01-03", "2012-01-03"))
    assert len(sub) == 48
    assert sub.column("wash")[0] == 48.0
    with pytest.raises(DataError):
        bars.slice(TimeWindow.from_dates("2012-02-01", "2012-02-02"))


# --- daily quartiles ---------------------------------------------------------


def _bars_with_daily_wash(volumes, t0=MONDAY):
    wash = np.repeat(np.asarray(volumes, dtype=np.float64) / BARS_PER_DAY, BARS_PER_DAY)
    return bars_from_arrays(wash, t0=t0)


def test_quartiles_eight_days():
    vols = [10, 20, 30, 40, 50, 60, 70, 80]
    labels = daily_quartiles(_bars_with_daily_wash(vols))
    assert [lab.quartile for lab in labels] == [1, 1, 2, 2, 3, 3, 4, 4]
    assert labels[0].day == MONDAY
    assert labels[0].date.isoformat() == "2013-01-07"


def test_quartiles_tie_break_by_date():
    labels = daily_quartiles(_bars_with_daily_wash([5.0] * 8))
    assert [lab.quartile for lab in labels] == [1, 1, 2, 2, 3, 3, 4, 4]


def test_quartile_sizes_balanced():
    rng = random.Random(6)
    for n_days in (4, 5, 6, 7, 9, 13):
        vols = [rng.uniform(1, 100) for _ in range(n_days)]
        labels = daily_quartiles(_bars_with_daily_wash(vols))
        sizes = [sum(1 for l in labels if l.quartile == q) for q in (1, 2, 3, 4)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n_days


def test_quartiles_monotone_transform_invariant():
    rng = random.Random(8)
    vols = [rng.uniform(1, 18) for _ in range(12)]  # exp stays in fixed-point range
    base = [l.quartile for l in daily_quartiles(_bars_with_daily_wash(vols))]
    for f in (lambda v: 3 * v + 1, lambda v: v**1.5, math.exp):
        got = [l.quartile for l in daily_quartiles(_bars_with_daily_wash([f(v) for v in vols]))]
        assert got == base


def test_quartiles_need_four_days():
    with pytest.raises(DataError):
        daily_quartiles(_bars_with_daily_wash([1, 2, 3]))


def test_quartile_map():
    labels = daily_quartiles(_bars_with_daily_wash([10, 20, 30, 40]))
    qm = quartile_map(labels)
    assert qm[MONDAY] == 1 and qm[MONDAY + 3 * DAY] == 4


def test_daily_sums():
    bars = _bars_with_daily_wash([10, 20, 30, 40])
    sums = daily_sums(bars, "wash")
    assert [d for d, _ in sums] == [MONDAY + i * DAY for i in range(4)]
    assert [v for _, v in sums] == pytest.approx([10, 20, 30, 40])


# --- weekly machinery --------------------------------------------------------


def test_week_start_matches_calendar():
    rng = random.Random(10)
    for _ in range(200):
        ts = rng.randrange(parse_date("2011-01-01"), parse_date("2014-01-01"))
        ws = week_start_of(ts)
        d = datetime.fromtimestamp(ws, tz=timezone.utc)
        assert d.weekday() == 0  # Monday
        assert d.hour == d.minute == d.second == 0
        assert ws <= ts < ws + 7 * DAY


def test_weekly_rollup_sums():
    n = 2 * 7 * BARS_PER_DAY
    wash = np.arange(n, dtype=np.float64) * 1e-3
    bars = bars_from_arrays(wash, 2 * wash, t0=MONDAY)
    weekly = weekly_rollup(bars)
    assert [wk.week_start for wk in weekly] == [MONDAY, MONDAY + 7 * DAY]
    assert all(wk.n_bars == 336 for wk in weekly)
    assert weekly[0].sums["wash"] == pytest.approx(wash[:336].sum())
    assert weekly[1].sums["nonwash"] == pytest.approx(2 * wash[336:].sum())
    assert weekly[0].sums["total"] == pytest.approx(3 * wash[:336].sum())
    assert len(weekly[0].series["wash"]) == 336


def test_weekly_rollup_keeps_partial_edges():
    bars = bars_from_arrays(np.ones(336 + 48), t0=MONDAY)  # one week and one day
    weekly = weekly_rollup(bars)
    assert [wk.n_bars for wk in weekly] == [336, 48]


def test_constant_week_dropped_as_degenerate():
    bars = bars_from_arrays(np.full(336, 5.0), t0=MONDAY)
    retained, dropped = filter_stationary_weeks(weekly_rollup(bars))
    assert retained == []
    assert (MONDAY, "wash", "degenerate") in dropped


def test_stationarity_filter_uses_injected_test():
    rng = np.random.default_rng(0)
    mk = lambda: 100.0 + rng.standard_normal(336)
    bars = bars_from_arrays(mk(), mk(), mk(), mk(), t0=MONDAY)
    calls = []

    def always(x):
        calls.append(len(x))
        return True

    retained, dropped = filter_stationary_weeks(weekly_rollup(bars), test=always)
    assert len(retained) == 1 and dropped == []
    assert len(calls) == len(STUDY_SERIES)

    retained, dropped = filter_stationary_weeks(weekly_rollup(bars), test=lambda x: False)
    assert retained == []
    assert dropped[0][2] == "nonstationary"


def test_trend_weeks_fail_the_default_filter():
    # 100 weeks of flat noise, 17 seeded with strong in-week linear trends
    rng = np.random.default_rng(17)
    trendy = set(rng.choice(100, size=17, replace=False).tolist())
    chunks = []
    for w in range(100):
        base = 100.0 + rng.standard_normal(336)
        if w in trendy:
            base = base + np.linspace(0.0, 60.0, 336)
        chunks.append(base)
    wash = np.concatenate(chunks)
    noise = lambda: 100.0 + rng.standard_normal(len(wash))
    bars = bars_from_arrays(wash, noise(), noise(), noise(), t0=MONDAY)
    retained, dropped = filter_stationary_weeks(weekly_rollup(bars))
    dropped_weeks = {ws for ws, series, _ in dropped if series == "wash"}
    trendy_starts = {MONDAY + 7 * DAY * w for w in trendy}
    assert len(dropped_weeks & trendy_starts) >= 15
    assert len(retained) >= 70  # flat weeks overwhelmingly survive


# --- asset bars --------------------------------------------------------------


def _asset_aux(hours=range(8, 20), days=2, base=100.0, drift=0.5):
    lines = ["timestamp,close,tick,volume"]
    t0 = parse_date("2012-01-02")
    price = base
    for d in range(days):
        for h in hours:
            ts = t0 + d * DAY + h * 3600
            price += drift
            lines.append(f"{datetime.fromtimestamp(ts, tz=timezone.utc):%Y-%m-%d %H:%M:%S},{price},7,")
    return parse_aux(io.StringIO("\n".join(lines) + "\n"), "asset_bar")


def test_asset_bars_impute_zeros_off_hours():
    window = TimeWindow.from_dates("2012-01-02", "2012-01-03")
    ab = build_asset_bars(_asset_aux(), window, "gold")
    assert ab.label == "gold"
    assert len(ab.starts) == 96
    assert set(ab.columns) == set(ASSET_COLUMNS)
    # midnight bar: market closed, all zero
    assert not ab.open_mask[0]
    assert all(ab.columns[c][0] == 0.0 for c in ASSET_COLUMNS)
    # the 08:00 slot is open
    i = 16
    assert ab.open_mask[i]
    assert ab.activity_source == "tick"


def test_asset_pct_series_follow_prices():
    window = TimeWindow.from_dates("2012-01-02", "2012-01-03")
    ab = build_asset_bars(_asset_aux(), window, "gold")
    pc = ab.columns["pct_close"]
    open_idx = np.flatnonzero(ab.open_mask)
    # first open slot has no previous price: 0 by the zero-previous rule
    assert pc[open_idx[0]] == 0.0
    second = open_idx[1]
    assert pc[second] != 0.0
