import random

import numpy as np
import pytest

from goxlens.detect import DEFAULT_WINDOW_END, DEFAULT_WINDOW_START, TimeWindow, flag_wash
from goxlens.ingest import DAY, parse_date, parse_ts

from conftest import canonical_csv, halves, ledger_of, trade_keys


# --- windows -----------------------------------------------------------------


def test_window_parse_and_bounds():
    w = TimeWindow.parse("2011-06-26..2013-05-20")
    assert w.start == parse_date("2011-06-26")
    # the named last day is included, stored half-open
    assert w.end == parse_date("2013-05-20") + DAY
    assert w.contains(parse_ts("2013-05-20 23:59:59"))
    assert not w.contains(parse_date("2013-05-21"))
    assert not w.contains(w.start - 1)


def test_default_window():
    w = TimeWindow.default()
    assert w == TimeWindow.from_dates(DEFAULT_WINDOW_START, DEFAULT_WINDOW_END)
    assert w.n_days == 695


def test_window_rejects_garbage():
    for bad in ("2011-06-26", "b..a", "2011-06-26..not-a-date", ""):
        with pytest.raises(ValueError):
            TimeWindow.parse(bad)


def test_empty_window_rejected():
    from goxlens.errors import DataError

    t = parse_date("2012-01-01")
    with pytest.raises(DataError):
        TimeWindow(t, t)


def test_n_days():
    assert TimeWindow.from_dates("2012-01-01", "2012-01-14").n_days == 14


# --- flagging ----------------------------------------------------------------


def _flag(rows, window=None):
    return flag_wash(ledger_of(canonical_csv(rows)), window)


def test_self_trade_is_wash():
    fl = _flag(halves("42", "42", "t", "2012-01-01 00:00:00", 1.0, 5.0))
    assert fl.wash == [True]
    assert fl.wash_count == 1 and fl.nonwash_count == 0


def test_cross_trade_is_not_wash():
    fl = _flag(halves("42", "43", "t", "2012-01-01 00:00:00", 1.0, 5.0))
    assert fl.wash == [False]


def test_trades_outside_window_excluded():
    rows = halves("1", "2", "in", "2012-01-05 12:00:00", 1.0, 5.0)
    rows += halves("3", "3", "out", "2012-02-01 00:00:00", 1.0, 5.0)
    fl = _flag(rows, TimeWindow.from_dates("2012-01-01", "2012-01-31"))
    assert len(fl) == 1
    assert fl.wash_count == 0


def test_counts_partition_the_window():
    rng = random.Random(2)
    rows = []
    planted = 0
    for i in range(10_000):
        ts = f"2012-01-01 {i // 3600:02d}:{(i // 60) % 60:02d}:{i % 60:02d}"
        if i % 33 == 0 and planted < 300:
            rows += halves(f"w{i}", f"w{i}", f"t{i}", ts, 1.0, 5.0)
            planted += 1
        else:
            a, b = rng.sample(range(50), 2)
            rows += halves(f"u{a}", f"u{b}", f"t{i}", ts, 1.0 + (i % 7) * 0.01, 5.0)
    assert planted == 300
    fl = _flag(rows)
    flagged = {buyer for (buyer, *_), w in zip(trade_keys(fl), fl.wash) if w}
    assert fl.wash_count == 300  # recall and precision both exact
    assert all(u.startswith("w") for u in flagged)
    assert fl.wash_count + fl.nonwash_count == len(fl)
    assert int(np.count_nonzero(fl.buyer == fl.seller)) == 300


def test_flags_are_pure_in_counterparties():
    rows = halves("5", "5", "a", "2012-01-01 00:00:00", 1.0, 5.0)
    rows += halves("5", "6", "b", "2012-01-01 00:00:01", 1.0, 5.0)
    fl1 = _flag(rows)
    fl2 = _flag(list(reversed(rows)))
    m1 = dict(zip(trade_keys(fl1), fl1.wash))
    m2 = dict(zip(trade_keys(fl2), fl2.wash))
    assert m1 == m2
