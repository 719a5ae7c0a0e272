"""Output checks for one pipeline round, computed apart from the program.

Each check compares a CLI output with the generator's ground truth, with the
benchmark's own reading of the inputs it wrote, or with a property the method
must have. Nothing here imports goxlens or compares against stored output.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from workloads import BARS_PER_DAY, Truth, Workload, epoch, fixed

VAR_ORDER = 4  # the CLI's default VAR order in every study
EVENT_DAYS = 14  # the CLI's default --pre-days and --post-days

CheckResult = Tuple[str, bool, str]


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def _rows(report: dict, table: str) -> Dict[str, dict]:
    return {r["label"]: r["cells"] for r in report["tables"][table]["rows"]}


def _finite(report: dict, tables) -> Tuple[bool, str]:
    bad = [
        (t, label, col)
        for t in tables
        for label, cells in _rows(report, t).items()
        for col, v in cells.items()
        if not (isinstance(v, (int, float)) and math.isfinite(v))
    ]
    return not bad, f"{len(bad)} non-finite cells, first {bad[:3]}"


def _read_csv(path: Path) -> List[List[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


# --- ledger stages ------------------------------------------------------------

def check_ingest(out: Path, truth: Truth) -> Tuple[bool, str]:
    meta = json.loads((out / "ingest.json").read_text())
    want = {
        "raw_rows": truth.raw_rows,
        "dropped_non_usd": truth.dropped_non_usd,
        "unpaired": truth.unpaired,
        "paired": truth.paired,
        "duplicates_removed": truth.duplicates_removed,
        "deduplicated": truth.deduplicated,
    }
    got = {k: meta["stats"][k] for k in want}
    want["n_row_errors"], got["n_row_errors"] = truth.row_errors, meta["n_row_errors"]
    return got == want, f"got {got}, planted {want}"


def check_detect(out: Path, truth: Truth) -> Tuple[bool, str]:
    found = Counter(
        (b, s, fixed(btc, 8), fixed(money, 5), epoch(ts))
        for b, s, ts, btc, money in _read_csv(out / "wash_trades.csv")
    )
    planted = Counter(truth.wash_keys)
    hits = sum((found & planted).values())
    n_found, n_planted = sum(found.values()), sum(planted.values())
    ok = hits == n_found == n_planted
    return ok, f"{hits} true positives, {n_found} flagged, {n_planted} planted"


def _bars(out: Path) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    rows = _read_csv(out / "bars.csv")
    starts = np.array([epoch(r[0]) for r in rows], dtype=np.int64)
    cols = [np.array([fixed(r[j], 8) for r in rows], dtype=np.int64) for j in (1, 2, 3)]
    return (starts, *cols)


def check_bars_grid(out: Path, truth: Truth) -> Tuple[bool, str]:
    starts = _bars(out)[0]
    grid = truth.first_ts + 1800 * np.arange(truth.n_bars, dtype=np.int64)
    ok = len(starts) == truth.n_bars and np.array_equal(starts, grid)
    return ok, f"{len(starts)} bars, expected {truth.n_bars} on the window grid"


def check_bars_identity(out: Path, truth: Truth) -> Tuple[bool, str]:
    _s, wash, nonwash, total = _bars(out)
    bad = int(np.sum(total != wash + nonwash))
    return bad == 0, f"{bad} bars where total != wash + nonwash"


def check_bars_volume(out: Path, truth: Truth) -> Tuple[bool, str]:
    _s, wash, _nw, total = _bars(out)
    if len(wash) != truth.n_bars:
        return False, f"{len(wash)} bars, expected {truth.n_bars}"
    sums = (int(wash.sum()), int(total.sum()))
    want = (int(truth.bar_wash_e8.sum()), int(truth.bar_total_e8.sum()))
    per_bar = int(np.sum((wash != truth.bar_wash_e8) | (total != truth.bar_total_e8)))
    ok = sums == want and per_bar == 0
    return ok, f"sum(wash, total) e8 {sums} vs truth {want}; {per_bar} bars differ"


# --- studies --------------------------------------------------------------------

def check_event(out: Path, truth: Truth) -> Tuple[bool, str]:
    report = _report(out)
    n = {side: _rows(report, side)["n"] for side in ("pre", "post")}
    want = EVENT_DAYS * BARS_PER_DAY
    ok = all(v == want for cells in n.values() for v in cells.values())
    fin, detail = _finite(report, ("pre", "post"))
    return ok and fin, f"n rows {n} (want {want}); {detail}"


def check_timing_adf(out: Path, truth: Truth) -> Tuple[bool, str]:
    rows = _rows(_report(out), "adf")
    rejected = {k: c["reject_5pct"] for k, c in rows.items()}
    return len(rows) == 5 and all(rejected.values()), f"reject_5pct {rejected}"


def check_timing_ranks(out: Path, truth: Truth) -> Tuple[bool, str]:
    table = _report(out)["tables"]["importance_rank"]
    rows = [r["cells"] for r in table["rows"]]
    bad = [
        fam for fam in table["columns"]
        if sorted(r[fam] for r in rows) != list(range(1, len(rows) + 1))
    ]
    ok = len(table["columns"]) == 6 and not bad
    return ok, f"{len(table['columns'])} families; not a permutation: {bad}"


def check_timing_johansen(out: Path, truth: Truth) -> Tuple[bool, str]:
    rows = _rows(_report(out), "johansen")
    k = len(rows)
    eig = [rows[f"r={r}"]["eigenvalue"] for r in range(k)]
    trace = [rows[f"r={r}"]["trace"] for r in range(k)]
    max_eig = [rows[f"r={r}"]["max_eigen"] for r in range(k)]
    tail = [math.fsum(max_eig[r:]) for r in range(k)]
    identity = all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9) for a, b in zip(trace, tail))
    in_range = all(0.0 <= e < 1.0 for e in eig)
    return identity and in_range, f"trace {trace} vs tail sums {tail}; eigenvalues {eig}"


def check_timing_granger(out: Path, truth: Truth) -> Tuple[bool, str]:
    p = {k: c["pvalue"] for k, c in _rows(_report(out), "granger").items()}
    ok = len(p) == 8 and all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in p.values())
    return ok, f"p-values {p}"


def check_timing_irf(out: Path, truth: Truth) -> Tuple[bool, str]:
    report = _report(out)
    n = _rows(report, "irf")["n"]
    want = truth.n_bars - VAR_ORDER
    fin, detail = _finite(report, ("irf",))
    return fin and all(v == want for v in n.values()), f"n {n} (want {want}); {detail}"


def check_onchain(out: Path, truth: Truth) -> Tuple[bool, str]:
    n = {k: c["n"] for k, c in _rows(_report(out), "quartiles").items()}
    days = [v / BARS_PER_DAY for v in n.values()]
    ok = (
        sum(n.values()) == truth.n_bars
        and all(d == int(d) for d in days)
        and max(days) - min(days) <= 1
    )
    return ok, f"quartile bar counts {n} (want sum {truth.n_bars}); days {days}"


def check_market(out: Path, truth: Truth) -> Tuple[bool, str]:
    rows = _rows(_report(out), "exchange_share")
    mean = rows.pop("mean")["pct"]
    got = np.array([c["pct"] for c in rows.values()])
    nw, mkt = truth.day_nonwash_btc, truth.market_btc
    want = 100.0 * nw / (nw + mkt)
    if len(got) != len(want):
        return False, f"{len(got)} share rows, expected {len(want)}"
    err = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
    mean_err = abs(mean - float(np.mean(got))) / abs(mean)
    ok = err < 1e-9 and mean_err < 1e-12
    return ok, f"max rel error per day {err:.3g}; mean rel error {mean_err:.3g}"


def check_media_weeks(out: Path, truth: Truth) -> Tuple[bool, str]:
    report = _report(out)
    m = re.match(r"(\d+) weeks in", report["notes"][0])
    retained = int(m.group(1)) if m else -1
    dropped = _read_csv(out / "dropped_weeks.csv")
    distinct = len({r[0] for r in dropped}) == len(dropped)
    ok = distinct and retained + len(dropped) == truth.n_iso_weeks
    fin, detail = _finite(report, tuple(report["tables"]))
    return ok and fin, (
        f"{retained} retained + {len(dropped)} dropped weeks, "
        f"window touches {truth.n_iso_weeks}; {detail}"
    )


def check_cross_asset(out: Path, truth: Truth) -> Tuple[bool, str]:
    report = _report(out)
    fin, detail = _finite(report, ("irf",))
    n_cols = len(report["tables"]["irf"]["columns"])
    return fin and n_cols > 0, f"{n_cols} asset columns; {detail}"


Check = Callable[[Path, Truth], Tuple[bool, str]]

LEDGER_CHECKS: Tuple[Tuple[str, str, Check], ...] = (
    ("ingest.counts", "ingest", check_ingest),
    ("detect.wash_keys", "detect", check_detect),
    ("bars.grid", "bars", check_bars_grid),
    ("bars.total_identity", "bars", check_bars_identity),
    ("bars.volume_truth", "bars", check_bars_volume),
)

STUDY_CHECKS: Dict[str, Tuple[Tuple[str, Check], ...]] = {
    "event": (("event.n_and_finite", check_event),),
    "timing": (
        ("timing.adf_rejects", check_timing_adf),
        ("timing.rank_permutation", check_timing_ranks),
        ("timing.johansen_identity", check_timing_johansen),
        ("timing.granger_pvalues", check_timing_granger),
        ("timing.irf_finite_n", check_timing_irf),
    ),
    "onchain": (("onchain.quartile_counts", check_onchain),),
    "market": (("market.exchange_share", check_market),),
    "media": (("media.week_accounting", check_media_weeks),),
    "cross-asset": (("cross_asset.irf_finite", check_cross_asset),),
}


def run_checks(workload: Workload, outs: Dict[str, Path], truth: Truth) -> List[CheckResult]:
    """Run every check that applies to the workload; an exception is a failure."""
    plan = [(name, outs[stage], fn) for name, stage, fn in LEDGER_CHECKS]
    for study in workload.studies:
        plan.extend((name, outs[study], fn) for name, fn in STUDY_CHECKS[study])
    results = []
    for name, out, fn in plan:
        try:
            ok, detail = fn(out, truth)
        except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
