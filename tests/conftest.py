"""Shared builders for the test suite.

Most tests need either a dense bar grid with chosen series values or a tiny
canonical trade log; both are cheap to fabricate directly, which keeps the
unit tests independent of the generator module they also have to test.
"""

import io

import numpy as np

from goxlens.detect import TimeWindow
from goxlens.features import BAR_SECONDS, BarSeries
from goxlens.ingest import BTC_UNIT, MONEY_UNIT, pair_and_dedup, parse_date, parse_trade_log

# A Monday at UTC midnight, so bar grids align with week starts.
MONDAY = parse_date("2013-01-07")


def bars_from_arrays(
    wash,
    nonwash=None,
    liq=None,
    vol=None,
    dollar=None,
    t0=MONDAY,
    label="test",
):
    """Dense 30-minute BarSeries with the given per-bar series values."""
    wash = np.asarray(wash, dtype=np.float64)
    n = len(wash)

    def col(x):
        return np.zeros(n) if x is None else np.asarray(x, dtype=np.float64)

    def fixed(x, unit):
        return np.round(col(x) * unit).astype(np.int64)

    return BarSeries(
        start=t0 + BAR_SECONDS * np.arange(n),
        wash_e8=fixed(wash, BTC_UNIT),
        nonwash_e8=fixed(nonwash, BTC_UNIT),
        dollar_e5=fixed(dollar, MONEY_UNIT),
        n_trades=np.ones(n, dtype=np.int64),
        vwap=np.full(n, 100.0),
        amihud=col(liq),
        rvol=col(vol),
        window=TimeWindow(t0, t0 + n * BAR_SECONDS),
        label=label,
    )


CANONICAL_HEADER = "user_id,trade_id,timestamp,currency,bitcoins,money,side"


def canonical_csv(rows):
    """rows: iterables of (user, trade, timestamp, currency, bitcoins, money, side)."""
    lines = [CANONICAL_HEADER]
    lines.extend(",".join(str(v) for v in r) for r in rows)
    return "\n".join(lines) + "\n"


def ledger_of(text, schema="canonical"):
    return pair_and_dedup(parse_trade_log(io.StringIO(text), schema=schema).records)


def halves(user_a, user_b, trade_id, ts, btc, money):
    """The two canonical half-rows of one trade, buy side first."""
    return [
        (user_a, trade_id, ts, "USD", btc, money, "buy"),
        (user_b, trade_id, ts, "USD", btc, money, "sell"),
    ]


# --- planted-signal corpus, shared by the tree and importance tests ----------
#
# target_t = 10 * x1_{t-1} + small noise, five distractor series, lag-1
# features plus the placebo. Training all four tree families over 20 seeds is
# the expensive part, so the reports are built once and reused.

_PLANTED: dict = {}


def planted_reports(n_seeds=20, n_rows=2000):
    key = (n_seeds, n_rows)
    if key not in _PLANTED:
        from goxlens.ml import build_lagged, importance_report, train_boost, train_forest, train_tree

        reports = []
        for seed in range(n_seeds):
            rng = np.random.default_rng(1000 + seed)
            n = n_rows + 1
            series = {f"x{j}": rng.standard_normal(n) for j in range(1, 7)}
            y = np.empty(n)
            y[0] = 0.0
            y[1:] = 10.0 * series["x1"][:-1] + 0.01 * rng.standard_normal(n - 1)
            series["y"] = y
            ds = build_lagged(series, lags=(1,), seed=seed, target="y")
            models = [
                train_tree(ds),
                train_forest(ds, seed=seed),
                train_boost(ds, "gradient_second_order", seed=seed),
                train_boost(ds, "adaboost_regression", seed=seed),
            ]
            reports.append(importance_report(models))
        _PLANTED[key] = reports
    return _PLANTED[key]
