import io
import json

import numpy as np
import pytest

from goxlens.econometrics import granger, irf, var_fit
from goxlens import studies
from goxlens.detect import TimeWindow
from goxlens.errors import AnalysisAbort, DataError, StationarityError, TrainingDivergence
from goxlens.features import (
    ASSET_COLUMNS,
    STUDY_SERIES,
    AssetBarSeries,
    BarSeries,
    QuartileLabel,
    WeeklyBucket,
)
from goxlens.ingest import DAY, AuxSeries
from goxlens.studies import (
    DEFAULT_EVENT_TS,
    EventConfig,
    ReportTable,
    digest_bars,
    study_cross_asset,
    study_event,
    study_market,
    study_media,
    study_onchain,
    study_timing,
    train_model_suite,
)

from conftest import MONDAY, bars_from_arrays

WEEK = 7 * DAY
FAMILIES = ["cart", "forest", "gradient_boost", "adaboost", "gru", "lstm"]


def _serialized(report):
    return json.dumps(report.to_dict(), sort_keys=True)


# --- fixtures -------------------------------------------------------------


def _positive_noise_bars(seed, n=672):
    rng = np.random.default_rng(seed)
    return bars_from_arrays(
        100.0 + 3.0 * rng.standard_normal(n),
        150.0 + 5.0 * rng.standard_normal(n),
        1e-4 * (1.0 + 0.2 * rng.standard_normal(n)),
        1e-3 * (1.0 + 0.2 * rng.standard_normal(n)),
    )


def _dependent_bars(seed=42, n=672):
    """wash follows the previous bar's nonwash volume."""
    rng = np.random.default_rng(seed)
    nw = np.empty(n)
    nw[0] = 150.0
    for t in range(1, n):
        nw[t] = 150.0 + 0.3 * (nw[t - 1] - 150.0) + 10.0 * rng.standard_normal()
    w = np.empty(n)
    w[0] = 90.0
    w[1:] = 0.6 * nw[:-1] + 3.0 * rng.standard_normal(n - 1)
    liq = 1e-4 * (1.0 + 0.2 * rng.standard_normal(n))
    vol = 1e-3 * (1.0 + 0.2 * rng.standard_normal(n))
    return bars_from_arrays(w, nw, liq, vol)


# --- timing ---------------------------------------------------------------


def test_timing_constructed_dependence():
    bars = _dependent_bars()
    g = granger(bars.matrix(), "nonwash", "wash", 1, names=list(STUDY_SERIES))
    assert g.passed and g.pvalue < 0.01

    rep = study_timing(bars, seed=0)
    assert set(rep.tables) == {
        "adf", "importance", "importance_rank", "johansen", "granger", "irf", "rnn_loss"
    }
    loss = rep.tables["rnn_loss"]
    assert loss.columns == ["gru", "lstm"]
    assert [label for label, _ in loss.rows] == [f"epoch={e}" for e in range(21)]
    irf_table = rep.tables["irf"]
    labels = [label for label, _ in irf_table.rows]
    assert labels == [f"h={h}" for h in range(1, 11)] + ["sum", "n"]
    assert irf_table.rows[0][1]["nonwash_to_wash"] > 0.0
    assert irf_table.rows[11][1]["nonwash_to_wash"] == 672 - 4
    assert irf_table.columns == ["wash_to_nonwash", "nonwash_to_wash", "wash_to_total"]
    cells = [v for _label, row in irf_table.rows[:11] for v in row.values()]
    assert all(np.isfinite(v) and abs(v) < 1e3 for v in cells)
    assert any(n.startswith("irf: VAR(4) on wash, nonwash, liq, vol; spectral radius ")
               for n in rep.notes)

    assert [label for label, _ in rep.tables["granger"].rows] == [
        f"wash->{effect}_L{lag}"
        for effect in ("nonwash", "total", "liq", "vol")
        for lag in (1, 2)
    ]
    assert rep.tables["importance"].columns == FAMILIES
    assert len(rep.tables["importance_rank"].rows) == 4 * 5 + 1
    assert any(n.startswith("johansen excludes total") for n in rep.notes)
    assert any(n.startswith("johansen rank = ") for n in rep.notes)


def test_timing_noise_bars_rarely_pass_granger_and_rerun_is_identical():
    bars = _positive_noise_bars(7)
    before = bars.matrix().copy()
    rep_a = study_timing(bars, seed=3)
    rep_b = study_timing(bars, seed=3)
    assert _serialized(rep_a) == _serialized(rep_b)
    np.testing.assert_array_equal(bars.matrix(), before)

    passed = sum(cells["passed"] for _, cells in rep_a.tables["granger"].rows)
    assert passed <= 3  # 8 tests at the 5% level on independent noise


def test_timing_stationarity_gate():
    rng = np.random.default_rng(1)
    n = 672
    walk = 1000.0 + np.cumsum(rng.standard_normal(n))
    bars = bars_from_arrays(
        walk,
        150.0 + 5.0 * rng.standard_normal(n),
        1e-4 * (1.0 + 0.2 * rng.standard_normal(n)),
        1e-3 * (1.0 + 0.2 * rng.standard_normal(n)),
    )
    with pytest.raises(StationarityError) as exc:
        study_timing(bars, seed=0)
    assert set(exc.value.failures) >= {"wash"}
    assert "wash" in str(exc.value)

    rep = study_timing(bars, lags=(1, 2), seed=0, force=True)
    assert "forced past stationarity failure on wash" in rep.notes
    wash_row = dict(rep.tables["adf"].rows)["wash"]
    assert wash_row["reject_5pct"] == 0
    assert rep.parameters["force"] is True


def test_model_suite_is_seed_deterministic():
    # in process, then across two worker processes: the same models
    bars = _positive_noise_bars(11, n=330)
    series = bars.series_map()
    ds_a, models_a = train_model_suite(series, (1,), seed=9, threads=1)
    ds_b, models_b = train_model_suite(series, (1,), seed=9, threads=2)
    np.testing.assert_array_equal(ds_a.X, ds_b.X)
    assert [m.family for m in models_a] == FAMILIES
    assert [m.family for m in models_b] == FAMILIES
    for ma, mb in zip(models_a, models_b):
        np.testing.assert_array_equal(ma.importances, mb.importances)
    for ma, mb in zip(models_a[4:], models_b[4:]):
        assert ma.loss_trace == mb.loss_trace
        for key in ma.net.params:
            np.testing.assert_array_equal(ma.net.params[key], mb.net.params[key])


def test_model_suite_worker_errors_keep_their_type(monkeypatch):
    series = _positive_noise_bars(11, n=330).series_map()

    def diverging(ds, cell, seed):
        raise TrainingDivergence(f"{cell} training diverged at epoch 1", [1.0, 2e3])

    monkeypatch.setattr(studies, "train_rnn", diverging)
    with pytest.raises(TrainingDivergence) as exc:
        train_model_suite(series, (1,), seed=9, threads=2)
    assert exc.value.trace == [1.0, 2e3]
    assert "gru" in str(exc.value)  # the first failing family in report order


@pytest.mark.parametrize("threads", [1, 2])
def test_model_suite_short_split_is_a_data_error(threads):
    series = _positive_noise_bars(11, n=150).series_map()
    with pytest.raises(DataError, match="training rows"):
        train_model_suite(series, (1,), seed=9, threads=threads)


# --- onchain --------------------------------------------------------------


def _onchain_setup(seed, planted=True, n_days=8):
    rng = np.random.default_rng(seed)
    n = n_days * 48
    nw = 150.0 + 20.0 * rng.standard_normal(n)
    bars = bars_from_arrays(10.0 + rng.standard_normal(n), nw)
    per_quartile = n_days // 4
    labels = [
        QuartileLabel(ts - ts % DAY, 1 + d // per_quartile)
        for d, ts in enumerate(range(MONDAY, MONDAY + n_days * DAY, DAY))
    ]
    quartiles = np.repeat([1 + d // per_quartile for d in range(n_days)], 48)
    chain = np.empty(n)
    ar = 0.0
    for i in range(n):  # persistent background settlement flow
        ar = 0.9 * ar + 3.0 * rng.standard_normal()
        chain[i] = 300.0 + ar
    if planted:
        q4 = quartiles == 4
        chain[q4] = 2.0 * nw[q4] + 5.0 * rng.standard_normal(int(q4.sum()))
    return bars, AuxSeries("onchain", bars.start.copy(), {"output": chain}), labels


def test_onchain_planted_quartile_recovers_slope():
    bars, chain, labels = _onchain_setup(0)
    rep = study_onchain(bars, chain, labels)
    rows = dict(rep.tables["quartiles"].rows)
    assert abs(rows["Q4"]["slope"] - 2.0) < 0.1
    assert rows["Q4"]["pvalue"] < 1e-6
    assert rows["Q4"]["adj_r2"] > 0.9
    assert all(rows[q]["n"] == 96 for q in ("Q1", "Q2", "Q3", "Q4"))
    others = [rows[q]["eg_pvalue"] for q in ("Q1", "Q2", "Q3")]
    assert rows["Q4"]["eg_pvalue"] < min(others)


def test_onchain_independent_is_rarely_significant():
    clean = 0
    for seed in range(100):
        bars, chain, labels = _onchain_setup(300 + seed, planted=False)
        rep = study_onchain(bars, chain, labels)
        pvals = [cells["pvalue"] for _, cells in rep.tables["quartiles"].rows]
        clean += all(p >= 0.01 for p in pvals)
    assert clean >= 95


def test_onchain_thin_quartile_marked_insufficient():
    bars, chain, _ = _onchain_setup(2)
    # push every day into Q4 except a single Q1 day
    labels = [
        QuartileLabel(ts - ts % DAY, 1 if d == 0 else 4)
        for d, ts in enumerate(range(MONDAY, MONDAY + 8 * DAY, DAY))
    ]
    rep = study_onchain(bars, chain, labels, min_bars=60)
    rows = dict(rep.tables["quartiles"].rows)
    assert rows["Q1"]["n"] == 48
    assert rows["Q1"]["slope"] != rows["Q1"]["slope"]  # nan
    assert any(note.startswith("Q1: insufficient") for note in rep.notes)
    assert any(note.startswith("Q2: insufficient") for note in rep.notes)


def test_onchain_input_validation():
    bars, chain, labels = _onchain_setup(3)
    with pytest.raises(DataError):
        study_onchain(bars, AuxSeries("trends", chain.ts, chain.values), labels)
    with pytest.raises(DataError):
        study_onchain(bars, chain, labels[:2])  # labels stop covering bar days
    outside = AuxSeries(
        "onchain",
        np.append(MONDAY - DAY, chain.ts),
        {"output": np.append(1.0, chain.values["output"])},
    )
    rep = study_onchain(bars, outside, labels)
    assert any("outside the bar window" in note for note in rep.notes)
    before = AuxSeries("onchain", chain.ts[:1] - 8 * DAY, {"output": np.ones(1)})
    with pytest.raises(DataError, match="no on-chain points inside the bar window"):
        study_onchain(bars, before, labels)


def test_onchain_constant_quartile_gets_no_cointegration_test():
    # no settlement, then the same non-zero settlement, on every Q1 bar; then
    # the same non-wash volume on every Q1 bar, which leaves the fit rank deficient
    for level, flat in ((0.0, "response"), (7.0, "response"), (150.0, "regressor")):
        bars, chain, labels = _onchain_setup(5)
        if flat == "response":
            chain.values["output"][:96] = level
        else:
            nw = bars.column("nonwash").copy()
            nw[:96] = level
            bars = bars_from_arrays(bars.column("wash"), nw)
        rep = study_onchain(bars, chain, labels)
        rows = dict(rep.tables["quartiles"].rows)
        for col in ("slope", "pvalue", "adj_r2", "eg_pvalue"):
            assert np.isnan(rows["Q1"][col]), (level, col)
        assert rows["Q1"]["n"] == 96
        assert rep.notes == [f"Q1: {flat} is constant over its 96 bars; no fit"]
        assert all(np.isfinite(rows[q]["eg_pvalue"]) for q in ("Q2", "Q3", "Q4"))


# --- market ---------------------------------------------------------------


def _market_setup(seed=0, n_days=120, slope_by_quartile=None):
    rng = np.random.default_rng(seed)
    days = [ts - ts % DAY for ts in range(MONDAY, MONDAY + n_days * DAY, DAY)]
    nw = 100.0 + 10.0 * rng.standard_normal(n_days)
    per_quartile = n_days // 4
    labels = [QuartileLabel(d, 1 + i // per_quartile) for i, d in enumerate(days)]
    if slope_by_quartile is None:
        market_vals = nw.copy()
    else:
        market_vals = np.array(
            [
                slope_by_quartile[1 + i // per_quartile] * nw[i]
                + 0.5 * rng.standard_normal()
                for i in range(n_days)
            ]
        )
    market = AuxSeries(
        "market_daily", np.array(days), {"volume_btc": np.asarray(market_vals, dtype=float)}
    )
    return list(zip(days, nw)), market, labels


def test_market_identical_series_fit_exactly():
    daily, market, labels = _market_setup()
    rep = study_market(daily, market, labels)
    for _, cells in rep.tables["quartiles"].rows:
        assert abs(cells["slope"] - 1.0) < 1e-9
        assert abs(cells["adj_r2"] - 1.0) < 1e-9
        assert cells["n"] == 30
    mean_row = rep.tables["exchange_share"].rows[-1]
    assert mean_row[0] == "mean"
    assert abs(mean_row[1]["pct"] - 50.0) < 1e-9


def test_market_planted_slopes_are_monotone():
    daily, market, labels = _market_setup(
        seed=1, slope_by_quartile={1: 0.5, 2: 1.0, 3: 1.5, 4: 2.0}
    )
    rep = study_market(daily, market, labels)
    slopes = [cells["slope"] for _, cells in rep.tables["quartiles"].rows]
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    assert abs(slopes[0] - 0.5) < 0.05
    assert abs(slopes[3] - 2.0) < 0.05


def test_market_share_and_join_bookkeeping():
    daily, market, labels = _market_setup(seed=2)
    # one ledger day has no market observation: dropped with a note
    short_market = AuxSeries(
        "market_daily", market.ts[:-1], {"volume_btc": market.values["volume_btc"][:-1]}
    )
    rep = study_market(daily, short_market, labels)
    assert any("1 days without a market observation" in n for n in rep.notes)
    assert dict(rep.tables["quartiles"].rows)["Q4"]["n"] == 29

    # hand-check one share row: nonwash 1, market 3 -> 25%
    d0 = MONDAY - MONDAY % DAY
    one = study_market(
        [(d0, 1.0)],
        AuxSeries("market_daily", np.array([d0]), {"volume_btc": np.array([3.0])}),
        [QuartileLabel(d0, 1)],
    )
    assert one.tables["exchange_share"].rows[0][1]["pct"] == 25.0
    assert any(note.startswith("Q1: insufficient") for note in one.notes)

    with pytest.raises(DataError):
        study_market(daily, AuxSeries("trends", market.ts, market.values), labels)
    with pytest.raises(DataError):
        study_market([(d0 + 500 * DAY, 1.0)], market, labels)  # no overlap


# --- cross-asset ----------------------------------------------------------


def _asset_setup(seed, coupled=True, n=672):
    rng = np.random.default_rng(seed)
    asset = np.empty(n)
    ar = 0.0
    for i in range(n):
        ar = 0.5 * ar + rng.standard_normal()
        asset[i] = ar
    w = np.empty(n)
    w[0] = 100.0
    drive = -3.0 * asset[:-1] if coupled else np.zeros(n - 1)
    w[1:] = 100.0 + drive + rng.standard_normal(n - 1)
    bars = bars_from_arrays(w, 150.0 + 10.0 * rng.standard_normal(n))
    cols = {c: np.zeros(n) for c in ASSET_COLUMNS}
    cols["pct_close"] = asset
    ab = AssetBarSeries("nikkei", bars.start, np.ones(n, dtype=bool), cols, "tick")
    return bars, ab


def test_cross_asset_planted_suppression_is_negative():
    bars, ab = _asset_setup(0)
    rep = study_cross_asset(bars, [ab])
    table = rep.tables["irf"]
    assert table.columns == ["nikkei:pct_close"]
    assert table.rows[0][1]["nikkei:pct_close"] < 0.0  # h=1
    assert table.rows[10][1]["nikkei:pct_close"] < 0.0  # sum
    assert table.rows[11][1]["nikkei:pct_close"] == 672 - 4
    # the three silent columns are skipped, not imputed into the table
    assert sorted(rep.notes) == [
        f"nikkei:{c}: all zero; skipped"
        for c in ("pct_liq", "pct_tick_or_volume", "pct_vol")
    ]


def test_cross_asset_independent_sum_sits_in_null_band():
    sums = []
    for seed in range(1, 200):
        bars, ab = _asset_setup(seed, coupled=False)
        data = np.column_stack([bars.column("wash"), ab.columns["pct_close"]])
        model = var_fit(data, 4, names=["wash", "nikkei:pct_close"])
        resp = irf(model, 10).percent_response("wash", "nikkei:pct_close")
        sums.append(float(resp[:10].sum()))
    lo, hi = np.percentile(sums, [2.5, 97.5])

    bars, ab = _asset_setup(0, coupled=False)
    rep = study_cross_asset(bars, [ab])
    observed = rep.tables["irf"].rows[10][1]["nikkei:pct_close"]
    assert lo < observed < hi

    bars_s, ab_s = _asset_setup(0, coupled=True)
    rep_s = study_cross_asset(bars_s, [ab_s])
    assert rep_s.tables["irf"].rows[10][1]["nikkei:pct_close"] < lo


def test_cross_asset_validation_and_all_zero_asset():
    bars, ab = _asset_setup(1)
    silent = AssetBarSeries(
        "ghost",
        bars.start,
        np.zeros(len(bars), dtype=bool),
        {c: np.zeros(len(bars)) for c in ASSET_COLUMNS},
        "volume",
    )
    rep = study_cross_asset(bars, [silent])
    assert rep.tables["irf"].columns == []
    assert len(rep.notes) == 4  # every column skipped

    with pytest.raises(DataError):
        study_cross_asset(bars, [ab, ab])  # duplicate label
    offgrid = AssetBarSeries(
        "late", ab.starts + 1800, ab.open_mask, ab.columns, "tick"
    )
    with pytest.raises(DataError):
        study_cross_asset(bars, [offgrid])


# --- media ----------------------------------------------------------------


def _weekly_setup(seed=0, n_side=150, a_above=1.0, a_below=0.35, rho_below=0.9):
    """Two regimes of weekly sums: a fast-decaying response of nonwash to
    wash when attention is high, slow accumulation when it is low."""
    rng = np.random.default_rng(seed)
    weeks, scores = [], []
    for side, score in (("below", 1.0), ("above", 3.0)):
        w_prev, nw_prev = 1000.0, 2000.0
        for _ in range(n_side):
            w = 1000.0 + 100.0 * rng.standard_normal()
            if side == "above":
                nw = 2000.0 + a_above * (w_prev - 1000.0) + 50.0 * rng.standard_normal()
            else:
                nw = (
                    2000.0
                    + a_below * (w_prev - 1000.0)
                    + rho_below * (nw_prev - 2000.0)
                    + 50.0 * rng.standard_normal()
                )
            sums = {
                "wash": w,
                "nonwash": nw,
                "total": w + nw,
                "liq": 10.0 + rng.standard_normal(),
                "vol": 5.0 + rng.standard_normal(),
            }
            weeks.append(
                WeeklyBucket(
                    week_start=MONDAY + len(weeks) * WEEK,
                    sums=sums,
                    series={k: np.full(4, sums[k] / 4.0) for k in STUDY_SERIES},
                    n_bars=4,
                )
            )
            scores.append(score)
            w_prev, nw_prev = w, nw
    return weeks, _trends(weeks, scores)


def _trends(weeks, scores):
    starts = np.array([wk.week_start for wk in weeks])
    return AuxSeries("trends", starts, {"score": np.array(scores, dtype=float)})


def test_media_attention_regimes_shape_the_response():
    weeks, trends = _weekly_setup()
    rep = study_media(weeks, trends, var_order=1)
    assert rep.notes[0] == "300 weeks in; trend median 2.0"
    above = rep.tables["above"]
    below = rep.tables["below"]
    col = "wash_to_nonwash"
    assert abs(above.rows[0][1][col]) > abs(below.rows[0][1][col])
    assert above.rows[10][1][col] < below.rows[10][1][col]
    assert above.rows[11][1][col] == 150
    assert [label for label, _ in above.rows] == [
        f"h={h}" for h in range(1, 11)
    ] + ["sum", "n"]


def test_media_constant_trends_abort():
    weeks, _ = _weekly_setup(n_side=15)
    flat = _trends(weeks, [7.0] * len(weeks))
    with pytest.raises(AnalysisAbort, match="median split impossible"):
        study_media(weeks, flat)


def test_media_small_side_skipped_and_order_clamped():
    weeks, _ = _weekly_setup(n_side=20)  # 40 weeks total
    scores = [5.0 if i < 9 else 1.0 for i in range(len(weeks))]
    trends = _trends(weeks, scores)
    rep = study_media(weeks, trends, var_order=1)
    assert "above" not in rep.tables
    assert "below" in rep.tables
    assert any(n == "above: only 9 weeks (need 20); skipped" for n in rep.notes)

    # an order-p VAR on four series leaves n - p - 4p - 1 residual degrees of
    # freedom, which must be at least 4: 25-week sides support order 4, and
    # 24-week sides clamp to 3
    rep2 = study_media(*_weekly_setup(n_side=25), var_order=4)
    assert not any("clamped" in n for n in rep2.notes)
    assert any(n.startswith("above: VAR(4) on wash, nonwash, liq, vol;") for n in rep2.notes)
    rep3 = study_media(*_weekly_setup(n_side=24), var_order=4)
    for side in ("above", "below"):
        assert f"{side}: VAR order clamped to 3" in rep3.notes
        assert any(n.startswith(f"{side}: VAR(3) on wash, nonwash, liq, vol;") for n in rep3.notes)
        assert all(np.isfinite(c) for _label, cells in rep3.tables[side].rows for c in cells.values())
    # a side too short for order 1 names the shortfall
    with pytest.raises(DataError, match="support an order of at most 0, got 1"):
        study_media(*_weekly_setup(n_side=9), min_weeks=5)


def test_media_last_score_of_a_week_wins():
    weeks, trends = _weekly_setup(n_side=20)
    # a zero on each Monday, then the week's real score on its Wednesday
    doubled = AuxSeries(
        "trends",
        np.column_stack([trends.ts, trends.ts + 2 * DAY]).ravel(),
        {"score": np.column_stack([np.zeros(len(trends)), trends.values["score"]]).ravel()},
    )
    plain, mid_week = (study_media(weeks, t, var_order=1) for t in (trends, doubled))
    assert plain.inputs["trends"] != mid_week.inputs["trends"]
    plain.inputs, mid_week.inputs = {}, {}
    assert _serialized(mid_week) == _serialized(plain)


def test_media_input_validation():
    weeks, trends = _weekly_setup(n_side=20)
    with pytest.raises(DataError):
        study_media(weeks, AuxSeries("onchain", trends.ts, trends.values))
    with pytest.raises(DataError):
        study_media([], trends)
    with pytest.raises(DataError, match="no trend score for week"):
        study_media(weeks, _trends(weeks[:-1], trends.values["score"][:-1]))


# --- event ----------------------------------------------------------------


def _event_bars(seed, surge_pre=True, n_days=28):
    rng = np.random.default_rng(seed)
    n = n_days * 48
    half = n // 2
    nw = np.empty(n)
    ar = 0.0
    for i in range(n):
        ar = 0.3 * ar + 10.0 * rng.standard_normal()
        nw[i] = 150.0 + ar
    w = 100.0 + 2.0 * rng.standard_normal(n)
    if surge_pre:
        w[1:half] += 0.8 * (nw[: half - 1] - 150.0)
    return bars_from_arrays(w, nw, t0=DEFAULT_EVENT_TS - (n_days // 2) * DAY)


def test_event_windows_hold_672_bars_each():
    rep = study_event(_event_bars(0, surge_pre=False))
    for side in ("pre", "post"):
        table = rep.tables[side]
        assert [label for label, _ in table.rows] == [
            f"h={h}" for h in range(1, 11)
        ] + ["sum", "n"]
        for col in table.columns:
            assert table.rows[11][1][col] == 672
    assert rep.parameters["event"] == "2012-04-20 00:00:00"


def test_event_leaves_constant_series_out_and_notes_each_fit():
    rep = study_event(_event_bars(0, surge_pre=False))  # liq and vol are all zero
    for side in ("pre", "post"):
        assert f"{side}: liq is constant; left out of the VAR" in rep.notes
        assert f"{side}: vol is constant; left out of the VAR" in rep.notes
        fit = [n for n in rep.notes if n.startswith(f"{side}: VAR(4) on wash, nonwash; ")]
        assert len(fit) == 1 and "spectral radius" in fit[0] and "unstable" not in fit[0]
        table = rep.tables[side]
        assert table.columns == ["wash_to_nonwash", "nonwash_to_wash", "wash_to_total"]
        cells = [v for _label, row in table.rows[:11] for v in row.values()]
        assert all(np.isfinite(v) and abs(v) < 1e3 for v in cells)
    assert any("total_to_wash is not reported" in n for n in rep.notes)


def _event_ledger_bars(seed):
    """28 days around the event: wash follows lagged nonwash, liq and vol vary."""
    rng = np.random.default_rng(seed)
    n = 28 * 48
    nw = 150.0 + 10.0 * rng.standard_normal(n)
    w = 100.0 + 2.0 * rng.standard_normal(n)
    w[1:] += 0.5 * (nw[:-1] - 150.0)
    liq = 1e-4 * (1.0 + 0.2 * rng.standard_normal(n))
    vol = 1e-3 * (1.0 + 0.2 * rng.standard_normal(n))
    return bars_from_arrays(w, nw, liq, vol, t0=DEFAULT_EVENT_TS - 14 * DAY)


def test_wash_to_total_is_the_sum_of_the_wash_and_nonwash_responses():
    from test_irf import sim_oracle

    bars = _event_ledger_bars(3)
    rep = study_event(bars)
    sub = bars.slice(EventConfig().pre_window)
    total = sub.column("total")
    assert total == pytest.approx(sub.column("wash") + sub.column("nonwash"), rel=1e-15)
    got = {c: np.array([row[c] for _l, row in rep.tables["pre"].rows[:10]])
           for c in rep.tables["pre"].columns}

    free = ["wash", "nonwash", "liq", "vol"]
    m = var_fit(sub.matrix(free), 4, names=free)
    scale = 100.0 / np.mean(np.abs(total[4:]))
    hand = irf(m, 10).responses
    assert got["wash_to_total"] == pytest.approx(scale * (hand[:, 0, 0] + hand[:, 1, 0]), rel=1e-12)
    oracle = sim_oracle(m, 10, 0)
    assert np.max(np.abs(got["wash_to_total"] - scale * (oracle[:, 0] + oracle[:, 1]))) < 1e-8

    # in the (wash, total, liq, vol) basis, the shock to total is the nonwash shock
    basis = ["wash", "total", "liq", "vol"]
    m_total = var_fit(sub.matrix(basis), 4, names=basis)
    via_total = irf(m_total, 10).percent_response("wash", "total")
    assert np.max(np.abs(via_total - got["nonwash_to_wash"])) < 1e-10


def test_event_pre_surge_shows_up_only_pre():
    rep = study_event(_event_bars(0, surge_pre=True))
    col = "nonwash_to_wash"
    pre_sum = rep.tables["pre"].rows[10][1][col]
    post_sum = rep.tables["post"].rows[10][1][col]
    assert pre_sum > post_sum
    assert pre_sum > 1.0


def test_event_identical_halves_give_identical_tables():
    rng = np.random.default_rng(5)
    half = 672
    w = 100.0 + 3.0 * rng.standard_normal(half)
    nw = 150.0 + 12.0 * rng.standard_normal(half)
    liq = 1e-4 * (1.0 + 0.3 * rng.standard_normal(half))
    vol = 1e-3 * (1.0 + 0.3 * rng.standard_normal(half))
    bars = bars_from_arrays(
        np.concatenate([w, w]),
        np.concatenate([nw, nw]),
        np.concatenate([liq, liq]),
        np.concatenate([vol, vol]),
        t0=DEFAULT_EVENT_TS - 14 * DAY,
    )
    rep = study_event(bars)
    assert json.dumps(rep.tables["pre"].to_dict()) == json.dumps(
        rep.tables["post"].to_dict()
    )


def test_event_window_errors_name_the_window():
    short = bars_from_arrays(
        np.full(480, 100.0) + np.random.default_rng(0).standard_normal(480),
        t0=DEFAULT_EVENT_TS - 10 * DAY,
    )
    with pytest.raises(DataError, match="pre window"):
        study_event(short)
    with pytest.raises(DataError):
        EventConfig(pre_days=0)
    cfg = EventConfig(pre_days=7, post_days=7)
    assert cfg.pre_window.end == cfg.post_window.start == DEFAULT_EVENT_TS


# --- report plumbing ------------------------------------------------------


def test_report_table_cells_and_csv():
    table = ReportTable("demo", ["a", "b"])
    table.add("r1", {"a": 1, "b": 0.5})
    table.add("r2", {"a": np.int64(2), "b": float("nan")})
    assert table.rows[0][1] == {"a": 1, "b": 0.5}
    assert isinstance(table.rows[1][1]["a"], int)

    import io

    buf = io.StringIO()
    table.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "row,a,b"
    assert lines[1] == "r1,1,0.5"
    assert lines[2].startswith("r2,2,nan")

    d = table.to_dict()
    assert d["columns"] == ["a", "b"]
    assert d["rows"][0] == {"label": "r1", "cells": {"a": 1, "b": 0.5}}


def test_cheap_studies_commute_and_do_not_mutate():
    bars, chain, labels = _onchain_setup(4)
    daily, market, mlabels = _market_setup(seed=4)
    before = bars.matrix().copy()
    chain_before = (chain.ts.copy(), {k: v.copy() for k, v in chain.values.items()})

    first = (_serialized(study_onchain(bars, chain, labels)),
             _serialized(study_market(daily, market, mlabels)))
    second = (_serialized(study_market(daily, market, mlabels)),
              _serialized(study_onchain(bars, chain, labels)))
    assert first[0] == second[1]
    assert first[1] == second[0]
    np.testing.assert_array_equal(bars.matrix(), before)
    np.testing.assert_array_equal(chain.ts, chain_before[0])
    for name, column in chain_before[1].items():
        np.testing.assert_array_equal(chain.values[name], column)


def test_input_digests_track_content():
    bars_a = _positive_noise_bars(0, n=48)
    bars_b = _positive_noise_bars(0, n=48)
    bars_c = _positive_noise_bars(1, n=48)
    assert digest_bars(bars_a) == digest_bars(bars_b)
    assert digest_bars(bars_a) != digest_bars(bars_c)

    # a loaded bars.csv is digested as the text read: for a file to_csv wrote,
    # that is the frame's digest; other spellings of the same bars differ
    buf = io.StringIO()
    bars_a.to_csv(buf)
    loaded = BarSeries.from_csv(io.StringIO(buf.getvalue()), label="test")
    assert loaded.source_digest == digest_bars(loaded) == digest_bars(bars_a)
    respelled = BarSeries.from_csv(io.StringIO(buf.getvalue().replace("\r\n", "\n")), label="test")
    np.testing.assert_array_equal(respelled.matrix(), bars_a.matrix())
    assert digest_bars(respelled) != digest_bars(bars_a)
    # slices have no source text and are re-serialized
    window = TimeWindow(bars_a.start[4], bars_a.start[20])
    assert loaded.slice(window).source_digest is None
    assert digest_bars(loaded.slice(window)) == digest_bars(bars_a.slice(window))
