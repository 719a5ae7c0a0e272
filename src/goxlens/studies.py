"""End-to-end analyses over flagged bar series.

Each study is a pure function from immutable inputs to a StudyReport: a study
id, a content digest of every input, the parameters used, named result tables,
and free-form notes. Reports are deterministic, so two runs over the same
inputs produce identical bytes once serialized.

Impulse-response table columns are named "<shock>_to_<effect>" and hold the
percent-convention responses (response scaled by the effect series' mean
absolute level). The timing, event and media studies fit their VARs on the
four free ledger series (LEDGER_VAR_SERIES); total = wash + nonwash is left
out of every fit, and its responses are derived.
"""

from __future__ import annotations

import csv
import io
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .detect import TimeWindow
from .econometrics import adf, engle_granger, granger, irf, johansen, ols, var_fit
from .econometrics.varmodel import max_order
from .errors import AnalysisAbort, DataError, DegenerateSeriesError, StationarityError
from .features import (
    ASSET_COLUMNS,
    BAR_SECONDS,
    STUDY_SERIES,
    AssetBarSeries,
    BarSeries,
    QuartileLabel,
    WeeklyBucket,
    content_digest,
    quartile_map,
    week_start_of,
)
from .ingest import DAY, AuxSeries, bin_sums, fmt_date, fmt_ts, last_of_runs, parse_date
from .ml import (
    build_lagged,
    importance_report,
    train_boost,
    train_forest,
    train_rnn,
    train_tree,
)
from .ml.dataset import DEFAULT_LAGS

__all__ = [
    "EventConfig",
    "ReportTable",
    "StudyReport",
    "study_cross_asset",
    "study_event",
    "study_market",
    "study_media",
    "study_onchain",
    "study_timing",
    "train_model_suite",
]

DEFAULT_EVENT_TS = parse_date("2012-04-20")

# The series of every ledger VAR and of timing's Johansen test. total is the
# exact sum of wash and nonwash, so any system holding all three is singular
# (Lütkepohl 2005, §2.3); it is left out, and its responses are derived.
LEDGER_VAR_SERIES = ("wash", "nonwash", "liq", "vol")


@dataclass
class ReportTable:
    """Named numeric cells; every row carries the same column set."""

    name: str
    columns: List[str]
    rows: List[Tuple[str, Dict[str, float]]] = field(default_factory=list)

    def add(self, label: str, cells: Dict[str, float]) -> None:
        clean = {}
        for key, v in cells.items():
            if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                clean[key] = int(v)
            else:
                clean[key] = float(v)
        self.rows.append((label, clean))

    def to_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "rows": [{"label": label, "cells": cells} for label, cells in self.rows],
        }

    def write_csv(self, stream) -> None:
        w = csv.writer(stream)
        w.writerow(["row", *self.columns])
        for label, cells in self.rows:
            w.writerow([label, *(_cell(cells.get(c)) for c in self.columns)])


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return repr(float(v))


@dataclass
class StudyReport:
    study: str
    inputs: Dict[str, str]
    parameters: dict
    tables: Dict[str, ReportTable]
    notes: List[str]

    def to_dict(self) -> dict:
        return {
            "study": self.study,
            "inputs": dict(self.inputs),
            "parameters": dict(self.parameters),
            "tables": {name: t.to_dict() for name, t in self.tables.items()},
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class EventConfig:
    """An event timestamp with symmetric-by-default day windows around it."""

    event_ts: int = DEFAULT_EVENT_TS
    pre_days: int = 14
    post_days: int = 14

    def __post_init__(self):
        if self.pre_days < 1 or self.post_days < 1:
            raise DataError(
                f"event windows must be at least one day, got "
                f"pre={self.pre_days} post={self.post_days}"
            )

    @property
    def pre_window(self) -> TimeWindow:
        return TimeWindow(self.event_ts - self.pre_days * DAY, self.event_ts)

    @property
    def post_window(self) -> TimeWindow:
        return TimeWindow(self.event_ts, self.event_ts + self.post_days * DAY)


# --- input digests -----------------------------------------------------------

def digest_bars(bars: BarSeries) -> str:
    if bars.source_digest is not None:
        return bars.source_digest
    buf = io.StringIO()
    bars.to_csv(buf)
    return content_digest("bars", bars.label, buf.getvalue())


def digest_aux(aux: AuxSeries) -> str:
    names = sorted(aux.values)
    rows = zip(aux.ts.tolist(), *(aux.values[name].tolist() for name in names))
    points = (f"{ts}:{list(zip(names, values))!r}" for ts, *values in rows)
    return content_digest("aux", aux.kind, *points)


def digest_labels(labels: Sequence[QuartileLabel]) -> str:
    return content_digest("labels", repr([(lab.day, lab.quartile) for lab in labels]))


def digest_daily(pairs: Sequence[Tuple[int, float]]) -> str:
    return content_digest("daily", repr([(int(d), float(v)) for d, v in pairs]))


def digest_weekly(weekly: Sequence[WeeklyBucket]) -> str:
    parts: list = ["weekly"]
    for wk in weekly:
        parts.append(f"{wk.week_start}:{wk.n_bars}")
        for name in STUDY_SERIES:
            parts.append(name)
            parts.append(np.ascontiguousarray(wk.series[name]).tobytes())
    return content_digest(*parts)


def digest_asset(ab: AssetBarSeries) -> str:
    parts: list = ["asset", ab.label, ab.activity_source]
    parts.append(np.ascontiguousarray(ab.starts).tobytes())
    parts.append(np.ascontiguousarray(ab.open_mask).tobytes())
    for name in ASSET_COLUMNS:
        parts.append(name)
        parts.append(np.ascontiguousarray(ab.columns[name]).tobytes())
    return content_digest(*parts)


# --- shared pieces -----------------------------------------------------------

def _seed_words(seed: int, n: int) -> list[int]:
    return [int(w) for w in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)]


# Model families in report order, and the order the worker pool takes them:
# longest first, so the recurrent fits start at once and the short ones fill in.
# Single-process fit times on timing_120d bars (4,015 training rows x 21
# features, 2-core host): lstm 5.1 s, gru 5.0 s, gradient 0.9-1.5 s, forest
# 0.5-0.7 s, adaboost 0.1-0.2 s, tree 0.02 s.
_FAMILIES = ("tree", "forest", "gradient_second_order", "adaboost_regression", "gru", "lstm")
_LONGEST_FIRST = ("lstm", "gru", "gradient_second_order", "forest", "adaboost_regression", "tree")


def _fit_family(ds, family: str, seed: int):
    """Train one model family; module level, so a worker process can run it."""
    if family == "tree":
        return train_tree(ds)
    if family == "forest":
        return train_forest(ds, seed=seed)
    if family in ("gru", "lstm"):
        return train_rnn(ds, family, seed=seed)
    return train_boost(ds, family, seed=seed)


def train_model_suite(series, lags, seed: int, threads: int = 1, target: str = "wash"):
    """Build the lagged dataset and train all six model families.

    The placebo column and each stochastic trainer get their own sub-seed
    derived from `seed`, so one integer pins the whole suite. Returns
    (dataset, models) with the models in a fixed family order.

    With threads > 1 and the fork start method available, the families train
    in up to `threads` forked worker processes, which inherit the loaded
    modules. Forking is safe only while no other thread runs, as in the CLI;
    a caller with threads of its own should pass threads=1. Each family's
    result depends only on its sub-seed, so the models are the same for every
    `threads`. A family's error reaches the caller with its own type; when
    several fail, the first in report order is raised.
    """
    words = _seed_words(seed, 6)
    ds = build_lagged(series, lags, seed=words[0], target=target)
    seeds = dict(zip(_FAMILIES, [0, *words[1:]]))  # the tree draws nothing
    if threads > 1 and "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(min(threads, len(_FAMILIES)), mp_context=context) as pool:
            jobs = {fam: pool.submit(_fit_family, ds, fam, seeds[fam]) for fam in _LONGEST_FIRST}
            models = [jobs[fam].result() for fam in _FAMILIES]
    else:
        models = [_fit_family(ds, fam, seeds[fam]) for fam in _FAMILIES]
    return ds, models


def _irf_table(name: str, responses: dict, horizons: int) -> ReportTable:
    """Rows h=1..H, their sum and n from each column's (percent response, sample size)."""
    table = ReportTable(name, list(responses))
    for h in range(1, horizons + 1):
        table.add(f"h={h}", {c: float(r[h - 1]) for c, (r, _n) in responses.items()})
    table.add("sum", {c: float(r[:horizons].sum()) for c, (r, _n) in responses.items()})
    table.add("n", {c: float(n) for c, (_r, n) in responses.items()})
    return table


def _ledger_irf(name: str, data: np.ndarray, var_order: int, horizons: int,
                notes: List[str], n: Optional[int] = None) -> ReportTable:
    """IRF table of a VAR on `data`, whose columns are LEDGER_VAR_SERIES.

    total's response is the sum of the wash and nonwash rows, exact by
    linearity, in percent of mean |wash + nonwash| over the regression rows.
    A constant liq or vol is left out and the order is clamped to what the
    rows support, each with a note, as is the fit. The n row holds `n`
    (default: the fit's effective rows).
    """
    # wash and nonwash stay: every column needs them, and var_fit names them if constant
    keep = [i for i, s in enumerate(LEDGER_VAR_SERIES) if i < 2 or np.ptp(data[:, i]) != 0]
    names = [LEDGER_VAR_SERIES[i] for i in keep]
    notes.extend(f"{name}: {s} is constant; left out of the VAR"
                 for s in LEDGER_VAR_SERIES if s not in names)
    data = data[:, keep]
    # too few rows for order 1: var_fit's error then names the shortfall
    p = min(var_order, max(1, max_order(*data.shape)))
    if p != var_order:
        notes.append(f"{name}: VAR order clamped to {p}")
    model = var_fit(data, p, names=names)
    irfm = irf(model, horizons)
    notes.append(
        f"{name}: VAR({p}) on {', '.join(names)}; spectral radius "
        f"{irfm.spectral_radius!r}{'' if irfm.stable else '; unstable'}"
    )
    total = np.mean(np.abs(data[p:, 0] + data[p:, 1]))
    n = model.nobs if n is None else n
    return _irf_table(name, {
        "wash_to_nonwash": (irfm.percent_response("nonwash", "wash"), n),
        "nonwash_to_wash": (irfm.percent_response("wash", "nonwash"), n),
        "wash_to_total": (100.0 * irfm.responses[:, :2, 0].sum(axis=1) / total, n),
    }, horizons)


_IRF_NOTES = (
    "all h=1 cells are emitted, including the wash-response columns that "
    "summary layouts sometimes leave blank",
    "wash_to_total is the wash plus nonwash response; total_to_wash is not reported: "
    "with wash ordered first, a shock to total is the nonwash shock (nonwash_to_wash)",
)


def _quartiles_of(labels: Sequence[QuartileLabel], days: np.ndarray, what: str) -> np.ndarray:
    qmap = quartile_map(labels)
    try:
        return np.array([qmap[day] for day in days.tolist()])
    except KeyError as e:
        raise DataError(f"quartile labels do not cover {what} {fmt_date(e.args[0])}") from None


def _quartile_table(
    y: np.ndarray, x: np.ndarray, quartiles: np.ndarray, min_n: int, unit: str,
    notes: List[str], eg_pvalue: Optional[Callable[[int, np.ndarray, np.ndarray], float]] = None,
) -> ReportTable:
    """Per wash-volume quartile, the OLS of y on x with an intercept.

    Rows Q1..Q4 hold the slope, its p-value, the adjusted R² and n, plus
    `eg_pvalue(q, y, x)` as "eg_pvalue" when that is given. A quartile with
    fewer than `min_n` rows, whose y is constant, or whose fit is rank deficient
    (x constant) gets NaN cells and a note.
    """
    columns = ["slope", "pvalue", "adj_r2", *(["eg_pvalue"] if eg_pvalue else []), "n"]
    table = ReportTable("quartiles", columns)
    for q in (1, 2, 3, 4):
        mask = quartiles == q
        n = int(mask.sum())
        cells = {**dict.fromkeys(columns, float("nan")), "n": n}
        if n < min_n:
            notes.append(f"Q{q}: insufficient ({n} {unit}, need {min_n})")
        elif np.ptp(y[mask]) == 0.0:
            notes.append(f"Q{q}: response is constant over its {n} {unit}; no fit")
        else:
            fit = ols(y[mask], x[mask][:, None])
            if fit.rank_deficient:
                notes.append(f"Q{q}: regressor is constant over its {n} {unit}; no fit")
            else:
                cells.update(slope=fit.params[1], pvalue=fit.pvalues[1], adj_r2=fit.rsquared_adj)
                if eg_pvalue:
                    cells["eg_pvalue"] = eg_pvalue(q, y[mask], x[mask])
        table.add(f"Q{q}", cells)
    return table


# --- studies -----------------------------------------------------------------

def study_timing(
    bars: BarSeries,
    lags: Sequence[int] = DEFAULT_LAGS,
    seed: int = 0,
    force: bool = False,
    threads: int = 1,
    var_order: int = 4,
    horizons: int = 10,
) -> StudyReport:
    """Lead-lag structure of wash volume against the other ledger series.

    Gates on ADF stationarity of all five series (override with `force`),
    then reports cross-family feature importances, a cointegration rank
    table, a Granger grid with wash as the cause, and the impulse responses
    of a VAR on the four free series (total = wash + nonwash is derived).
    """
    series = bars.series_map()
    tables: Dict[str, ReportTable] = {}
    notes: List[str] = []

    adf_table = ReportTable("adf", ["stat", "lag", "reject_5pct"])
    failures: Dict[str, Optional[float]] = {}
    for name in STUDY_SERIES:
        try:
            r = adf(series[name])
        except (DegenerateSeriesError, DataError):
            if not np.isfinite(series[name]).all():
                raise  # a bad cell in the bars, not a failed test
            failures[name] = None
            adf_table.add(name, {"stat": float("nan"), "lag": -1, "reject_5pct": 0})
            continue
        adf_table.add(
            name,
            {"stat": r.statistic, "lag": r.lag, "reject_5pct": int(r.reject_at_5pct)},
        )
        if not r.reject_at_5pct:
            failures[name] = r.statistic
    if failures and not force:
        raise StationarityError(failures)
    for name in sorted(failures):
        notes.append(f"forced past stationarity failure on {name}")
    tables["adf"] = adf_table

    _ds, models = train_model_suite(series, lags, seed, threads=threads)
    rep = importance_report(models)
    value_table = ReportTable("importance", rep.families)
    rank_table = ReportTable("importance_rank", rep.families)
    for col in rep.columns:
        value_table.add(col, {fam: rep.values[fam][col] for fam in rep.families})
        rank_table.add(col, {fam: rep.ranks[fam][col] for fam in rep.families})
    tables["importance"] = value_table
    tables["importance_rank"] = rank_table
    for fam in rep.families:
        below = ", ".join(sorted(rep.features_below_placebo[fam])) or "none"
        notes.append(f"{fam}: features below placebo: {below}")
    notes.append(
        "recurrent importances are mean absolute prediction gradients over the test rows"
    )
    traces = {m.family: m.loss_trace for m in models if m.family in ("gru", "lstm")}
    loss_table = ReportTable("rnn_loss", list(traces))
    for epoch, losses in enumerate(zip(*traces.values())):
        loss_table.add(f"epoch={epoch}", dict(zip(traces, losses)))
    tables["rnn_loss"] = loss_table
    notes.append(
        "rnn_loss: standardized training-set mean squared error before each epoch, then final"
    )

    data = bars.matrix()
    free = bars.matrix(LEDGER_VAR_SERIES)
    joh = johansen(free, var_order, names=list(LEDGER_VAR_SERIES))
    notes.append("johansen excludes total (exact sum of wash and nonwash)")
    joh_columns = {
        "eigenvalue": joh.eigenvalues,
        "trace": joh.trace_stats,
        "trace_crit_95": joh.trace_crit_95,
        "max_eigen": joh.max_eigen_stats,
        "max_eigen_crit_95": joh.max_eigen_crit_95,
    }
    joh_table = ReportTable("johansen", list(joh_columns))
    for r in range(len(joh.eigenvalues)):
        joh_table.add(f"r={r}", {c: v[r] for c, v in joh_columns.items()})
    tables["johansen"] = joh_table
    notes.append(f"johansen rank = {joh.rank}")

    granger_table = ReportTable("granger", ["fstat", "pvalue", "passed"])
    for effect in ("nonwash", "total", "liq", "vol"):
        for lag in (1, 2):
            g = granger(data, "wash", effect, lag, names=list(STUDY_SERIES))
            granger_table.add(
                f"wash->{effect}_L{lag}",
                {"fstat": g.fstat, "pvalue": g.pvalue, "passed": int(g.passed)},
            )
    tables["granger"] = granger_table

    tables["irf"] = _ledger_irf("irf", free, var_order, horizons, notes)
    notes.extend(_IRF_NOTES)

    return StudyReport(
        study="timing",
        inputs={"bars": digest_bars(bars)},
        parameters={
            "lags": sorted(set(int(l) for l in lags)),
            "seed": seed,
            "var_order": var_order,
            "horizons": horizons,
            "force": force,
        },
        tables=tables,
        notes=notes,
    )


def study_onchain(
    bars: BarSeries,
    onchain: AuxSeries,
    labels: Sequence[QuartileLabel],
    min_bars: int = 30,
    min_eg_len: int = 50,
) -> StudyReport:
    """Relate blockchain settlement volume to honest exchange volume.

    On-chain outputs are summed into the 30-minute bar grid; within each
    wash-volume quartile the study regresses on-chain volume on non-wash
    volume and runs the pairwise cointegration test. Quartiles with too few
    bars are marked insufficient rather than dropped.
    """
    if onchain.kind != "onchain":
        raise DataError(f"expected onchain aux series, got {onchain.kind!r}")
    window = bars.window
    inside = (onchain.ts >= window.start) & (onchain.ts < window.end)
    if not inside.any():
        raise DataError("no on-chain points inside the bar window")
    slot = (onchain.ts[inside] - window.start) // BAR_SECONDS
    chain = bin_sums(slot, onchain.values["output"][inside], len(bars))
    days, day_of_bar = bars.days()
    quartiles = _quartiles_of(labels, days, "bar day")[day_of_bar]

    skipped = len(onchain) - len(slot)
    notes = [f"{skipped} on-chain points outside the bar window were ignored"] if skipped else []

    def eg_pvalue(q: int, y: np.ndarray, x: np.ndarray) -> float:
        if len(y) < min_eg_len:
            notes.append(f"Q{q}: too few bars for the cointegration test ({len(y)})")
            return float("nan")
        try:
            return engle_granger(y, x).pvalue
        except DegenerateSeriesError as e:
            notes.append(f"Q{q}: no cointegration test ({e})")
            return float("nan")

    nonwash = bars.column("nonwash")
    table = _quartile_table(chain, nonwash, quartiles, min_bars, "bars", notes, eg_pvalue)

    return StudyReport(
        study="onchain",
        inputs={
            "bars": digest_bars(bars),
            "onchain": digest_aux(onchain),
            "labels": digest_labels(labels),
        },
        parameters={"min_bars": min_bars, "min_eg_len": min_eg_len},
        tables={"quartiles": table},
        notes=notes,
    )


def study_market(
    daily_nonwash: Sequence[Tuple[int, float]],
    market: AuxSeries,
    labels: Sequence[QuartileLabel],
    min_days: int = 30,
) -> StudyReport:
    """Relate rival-exchange volume to honest volume, day by day.

    Joins the two daily series on shared dates, regresses market volume on
    non-wash volume within each quartile, and reports the per-day share of
    combined volume that the ledger carries (with its mean).
    """
    if market.kind != "market_daily":
        raise DataError(f"expected market_daily aux series, got {market.kind!r}")
    days = np.array([d for d, _ in daily_nonwash], dtype=np.int64)
    seen = np.isin(days, market.ts)
    if not seen.any():
        raise DataError("no overlapping days between the daily series")
    days = days[seen]
    nw = np.array([v for _, v in daily_nonwash], dtype=np.float64)[seen]
    mkt = market.values["volume_btc"][np.searchsorted(market.ts, days)]

    quartiles = _quartiles_of(labels, days, "day")

    dropped = len(seen) - len(days)
    notes = [f"{dropped} days without a market observation were dropped"] if dropped else []
    table = _quartile_table(mkt, nw, quartiles, min_days, "days", notes)

    share_table = ReportTable("exchange_share", ["pct"])
    denom = nw + mkt
    share = np.divide(100.0 * nw, denom, out=np.full(len(nw), np.nan), where=denom > 0)
    for d, pct in zip(days.tolist(), share.tolist()):
        share_table.add(fmt_date(d), {"pct": pct})
    finite = share[~np.isnan(share)].tolist()
    # Python's left-to-right sum: np.mean adds pairwise, which can move the last bit
    share_table.add("mean", {"pct": sum(finite) / len(finite) if finite else np.nan})

    return StudyReport(
        study="market",
        inputs={
            "daily_nonwash": digest_daily(daily_nonwash),
            "market": digest_aux(market),
            "labels": digest_labels(labels),
        },
        parameters={"min_days": min_days},
        tables={"quartiles": table, "exchange_share": share_table},
        notes=notes,
    )


def study_cross_asset(
    bars: BarSeries,
    assets: Sequence[AssetBarSeries],
    var_order: int = 4,
    horizons: int = 10,
) -> StudyReport:
    """Response of wash volume to shocks in outside asset markets.

    Each nonzero asset column enters a two-variable VAR with wash volume
    (wash ordered first); the table holds the percent responses of wash to a
    one-standard-deviation shock in the asset variable. All-zero columns
    (markets closed throughout) are skipped with a note.
    """
    wash = bars.column("wash")
    notes: List[str] = []
    inputs = {"bars": digest_bars(bars)}
    responses: Dict[str, Tuple[np.ndarray, int]] = {}

    seen = set()
    for ab in assets:
        if ab.label in seen:
            raise DataError(f"duplicate asset label {ab.label!r}")
        seen.add(ab.label)
        inputs[f"asset:{ab.label}"] = digest_asset(ab)
        if not np.array_equal(ab.starts, bars.start):
            raise DataError(f"asset {ab.label!r} is not on the bar grid")
        for col in ASSET_COLUMNS:
            vals = ab.columns[col]
            name = f"{ab.label}:{col}"
            if not np.any(vals != 0.0):
                notes.append(f"{name}: all zero; skipped")
                continue
            data = np.column_stack([wash, vals])
            model = var_fit(data, var_order, names=["wash", name])
            irfm = irf(model, horizons)
            responses[name] = (irfm.percent_response("wash", name), model.nobs)

    return StudyReport(
        study="cross_asset",
        inputs=inputs,
        parameters={"var_order": var_order, "horizons": horizons},
        tables={"irf": _irf_table("irf", responses, horizons)},
        notes=notes,
    )


def study_media(
    weekly: Sequence[WeeklyBucket],
    trends: AuxSeries,
    var_order: int = 4,
    horizons: int = 10,
    min_weeks: int = 20,
) -> StudyReport:
    """Impulse responses conditioned on public search attention.

    Weeks (already screened for in-week stationarity) are split at the median
    trend score: strictly above versus at-or-below. Each side gets its own
    VAR on the weekly sums of the four free series (total's response is
    derived), with the order clamped down when a side has too few weeks to
    support it.
    """
    if trends.kind != "trends":
        raise DataError(f"expected trends aux series, got {trends.kind!r}")
    if not weekly:
        raise DataError("no weeks to analyze")
    weeks = week_start_of(trends.ts)
    last = last_of_runs(weeks)  # ts is sorted: the week's last score wins
    wanted = np.array([wk.week_start for wk in weekly], dtype=np.int64)
    missing = wanted[~np.isin(wanted, weeks)]
    if len(missing):
        raise DataError(f"no trend score for week {fmt_date(int(missing[0]))}")
    scores = trends.values["score"][last][np.searchsorted(weeks[last], wanted)]
    if scores.max() == scores.min():
        raise AnalysisAbort("trend scores are constant; median split impossible")
    median = float(np.median(scores))

    tables: Dict[str, ReportTable] = {}
    notes = [f"{len(weekly)} weeks in; trend median {median!r}"]
    for side, group in (
        ("above", [wk for wk, s in zip(weekly, scores) if s > median]),
        ("below", [wk for wk, s in zip(weekly, scores) if s <= median]),
    ):
        n = len(group)
        if n < min_weeks:
            notes.append(f"{side}: only {n} weeks (need {min_weeks}); skipped")
            continue
        data = np.array([[wk.sums[name] for name in LEDGER_VAR_SERIES] for wk in group])
        tables[side] = _ledger_irf(side, data, var_order, horizons, notes, n)
    notes.extend(_IRF_NOTES)

    return StudyReport(
        study="media",
        inputs={"weekly": digest_weekly(weekly), "trends": digest_aux(trends)},
        parameters={
            "var_order": var_order,
            "horizons": horizons,
            "min_weeks": min_weeks,
        },
        tables=tables,
        notes=notes,
    )


def study_event(
    bars: BarSeries,
    config: EventConfig = EventConfig(),
    var_order: int = 4,
    horizons: int = 10,
) -> StudyReport:
    """Separate VARs on the four free series (see study_timing) in the bars
    before and after an event timestamp."""
    tables: Dict[str, ReportTable] = {}
    notes: List[str] = []
    for name, win, days in (
        ("pre", config.pre_window, config.pre_days),
        ("post", config.post_window, config.post_days),
    ):
        expected = days * (DAY // BAR_SECONDS)
        try:
            sub = bars.slice(win)
        except DataError:
            raise DataError(
                f"{name} window {fmt_ts(win.start)}..{fmt_ts(win.end)} has no bars"
            ) from None
        if len(sub) != expected:
            raise DataError(f"{name} window needs {expected} bars, found {len(sub)}")
        data = sub.matrix(LEDGER_VAR_SERIES)
        tables[name] = _ledger_irf(name, data, var_order, horizons, notes, len(sub))

    return StudyReport(
        study="event",
        inputs={"bars": digest_bars(bars)},
        parameters={
            "event": fmt_ts(config.event_ts),
            "pre_days": config.pre_days,
            "post_days": config.post_days,
            "var_order": var_order,
            "horizons": horizons,
        },
        tables=tables,
        notes=[*notes, *_IRF_NOTES],
    )
