"""Shared builders for the test suite.

Most tests need either a dense bar grid with chosen series values or a tiny
canonical trade log; both are cheap to fabricate directly, which keeps the
unit tests independent of the generator module they also have to test.
"""

import io

import numpy as np
import pytest

from goxlens.detect import TimeWindow
from goxlens.features import BAR_SECONDS, BarSeries
from goxlens.ingest import (
    BTC_UNIT,
    DAY,
    MONEY_UNIT,
    fmt_date,
    fmt_ts,
    pair_and_dedup,
    parse_date,
    parse_trade_log,
)

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
    return pair_and_dedup(parse_trade_log(io.StringIO(text), schema=schema))


def trade_keys(led):
    """(buyer, seller, bitcoins_e8, money_e5, ts) per trade of a TradeLedger or FlaggedLedger."""
    return list(
        zip(
            led.users[led.buyer].tolist(),
            led.users[led.seller].tolist(),
            led.bitcoins_e8.tolist(),
            led.money_e5.tolist(),
            led.ts.tolist(),
        )
    )


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


# --- one small invocation per analyze study ---------------------------------


def noise_bars(n, t0, seed):
    r = np.random.default_rng(seed)
    return bars_from_arrays(
        100.0 + 3.0 * r.standard_normal(n),
        nonwash=150.0 + 5.0 * r.standard_normal(n),
        liq=1e-4 * (1.0 + 0.2 * r.standard_normal(n)),
        vol=1e-3 * (1.0 + 0.2 * r.standard_normal(n)),
        t0=t0,
    )


def write_bars(path, bars):
    with open(path, "w", newline="") as fh:
        bars.to_csv(fh)
    return str(path)


@pytest.fixture(scope="module")
def analyze_invocations(tmp_path_factory):
    """One representative fixed-seed invocation per study."""
    root = tmp_path_factory.mktemp("analyze")
    bars672 = write_bars(root / "b672.csv", noise_bars(672, MONDAY, seed=1))
    bars8d = write_bars(root / "b8d.csv", noise_bars(8 * 48, MONDAY, seed=2))
    bars120d = write_bars(root / "b120d.csv", noise_bars(120 * 48, MONDAY, seed=3))
    bars44w = write_bars(root / "b44w.csv", noise_bars(44 * 7 * 48, MONDAY, seed=4))
    bars_event = write_bars(
        root / "bevent.csv", noise_bars(28 * 48, parse_date("2012-04-06"), seed=5)
    )

    rng = np.random.default_rng(12)
    onchain = root / "onchain.csv"
    rows = ["timestamp,transaction_id,address,type,amount"]
    for i in range(8 * 48):
        amount = 300.0 + 30.0 * abs(rng.standard_normal())
        rows.append(f"{fmt_ts(MONDAY + i * BAR_SECONDS)},tx{i},addr{i % 7},input,{amount!r}")
    onchain.write_text("\n".join(rows) + "\n")

    market = root / "market.csv"
    rows = ["date,volume_btc"]
    for i in range(120):
        rows.append(f"{fmt_date(MONDAY + i * DAY)},{50000.0 + 1000.0 * rng.standard_normal()!r}")
    market.write_text("\n".join(rows) + "\n")

    asset = root / "asset.csv"
    rows = ["timestamp,close,tick,volume"]
    level = 0.0
    for i in range(672):
        level = 0.5 * level + rng.standard_normal()
        rows.append(
            f"{fmt_ts(MONDAY + i * BAR_SECONDS)},{100.0 + 3.0 * level!r},"
            f"{50.0 + rng.random()!r},{10.0 + rng.random()!r}"
        )
    asset.write_text("\n".join(rows) + "\n")

    trends = root / "trends.csv"
    rows = ["week_start,score"]
    for i in range(44):
        rows.append(f"{fmt_date(MONDAY + i * 7 * DAY)},{3.0 if i % 2 == 0 else 1.0!r}")
    trends.write_text("\n".join(rows) + "\n")

    return root, [
        ("timing", ["analyze", "timing", "--bars", bars672, "--lags", "1", "--seed", "5"]),
        ("onchain", ["analyze", "onchain", "--bars", bars8d, "--aux", f"onchain={onchain}"]),
        ("market", ["analyze", "market", "--bars", bars120d, "--aux", f"market_daily={market}"]),
        (
            "cross-asset",
            ["analyze", "cross-asset", "--bars", bars672, "--aux", f"asset_bar:nikkei={asset}"],
        ),
        ("media", ["analyze", "media", "--bars", bars44w, "--aux", f"trends={trends}"]),
        ("event", ["analyze", "event", "--bars", bars_event]),
    ]
