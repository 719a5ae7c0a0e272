"""Run one goxlens command with spans recorded around each layer's functions.

Usage: python3 clibench/tracer.py SPANS_JSON WORKLOAD PARENT_ID -- ARGS...

The public functions of each goxlens module are wrapped from outside; a
function that another module imported by name is rebound there too, so
`studies.adf` and `econometrics.adf` record the same span. Spans stay in
memory and are written to SPANS_JSON once, when the command returns. The
program's own sources are not touched.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

T_START = time.perf_counter_ns()


def _rnn_name(args, kwargs):
    return f"ml.train_rnn_{kwargs.get('cell', args[1] if len(args) > 1 else '?')}"


def _boost_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "?")
    return "ml.train_boost_" + mode.split("_")[0]


# (module, attribute, span name or naming function, attribute extractor)
TARGETS = (
    ("goxlens.synth", "gen_exchange_log", "synth.gen_exchange_log",
     lambda r: {"trades": r[1]["pre_injection_count"]}),
    ("goxlens.ingest", "parse_trade_log", "ingest.parse_trade_log",
     lambda r: {"half_rows": r.n_rows, "row_errors": len(r.row_errors)}),
    ("goxlens.ingest", "pair_and_dedup", "ingest.pair_and_dedup",
     lambda r: {"paired": r.stats.paired, "deduplicated": r.stats.deduplicated}),
    ("goxlens.ingest", "write_canonical_csv", "ingest.write_canonical_csv", None),
    ("goxlens.ingest", "parse_aux", "ingest.parse_aux", None),
    ("goxlens.detect", "flag_wash", "detect.flag_wash",
     lambda r: {"wash_trades": sum(r.wash)}),
    ("goxlens.features", "build_bars", "features.build_bars", None),
    ("goxlens.features", "weekly_rollup", "features.weekly_rollup", None),
    ("goxlens.features", "filter_stationary_weeks", "features.filter_stationary_weeks", None),
    ("goxlens.features", "daily_quartiles", "features.daily_quartiles", None),
    ("goxlens.features", "build_asset_bars", "features.build_asset_bars", None),
    ("goxlens.features", "daily_sums", "features.daily_sums", None),
    ("goxlens.econometrics.unitroot", "adf", "econometrics.adf", None),
    ("goxlens.econometrics.ols", "ols", "econometrics.ols",
     lambda r: {"rank_deficient": int(r.rank_deficient)}),
    ("goxlens.econometrics.cointegration", "johansen", "econometrics.johansen", None),
    ("goxlens.econometrics.cointegration", "engle_granger", "econometrics.engle_granger", None),
    ("goxlens.econometrics.varmodel", "granger", "econometrics.granger", None),
    ("goxlens.econometrics.varmodel", "var_fit", "econometrics.var_fit", None),
    ("goxlens.econometrics.irf", "irf", "econometrics.irf",
     lambda r: {"ridge_fallback": int(r.ridge > 0.0)}),
    ("goxlens.ml.dataset", "build_lagged", "ml.build_lagged", None),
    ("goxlens.ml.trees", "train_tree", "ml.train_tree", None),
    ("goxlens.ml.trees", "train_forest", "ml.train_forest", None),
    ("goxlens.ml.trees", "train_boost", _boost_name, None),
    ("goxlens.ml.rnn", "train_rnn", _rnn_name, None),
    ("goxlens.ml.importance", "importance_report", "ml.importance_report", None),
    ("goxlens.studies", "study_timing", "studies.timing", None),
    ("goxlens.studies", "study_event", "studies.event", None),
    ("goxlens.studies", "study_media", "studies.media", None),
    ("goxlens.studies", "study_onchain", "studies.onchain", None),
    ("goxlens.studies", "study_market", "studies.market", None),
    ("goxlens.studies", "study_cross_asset", "studies.cross_asset", None),
    ("goxlens.studies", "digest_bars", "studies.digest", None),
    ("goxlens.studies", "digest_aux", "studies.digest", None),
    ("goxlens.studies", "digest_labels", "studies.digest", None),
    ("goxlens.studies", "digest_daily", "studies.digest", None),
    ("goxlens.studies", "digest_weekly", "studies.digest", None),
    ("goxlens.studies", "digest_asset", "studies.digest", None),
)

# BarSeries methods: (attribute, span name, is classmethod)
BAR_METHODS = (
    ("to_csv", "features.bars_to_csv", False),
    ("from_csv", "features.bars_from_csv", True),
    ("column", "features.column", False),
)


class Recorder:
    """Spans as [id, parent, name, start_ns, end_ns, attrs], kept in memory."""

    def __init__(self, prefix: str, root_parent):
        self.prefix = prefix
        self.spans = []
        self.local = threading.local()
        self.root_parent = root_parent
        self.lock = threading.Lock()

    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def open(self, name, start=None):
        with self.lock:
            span = [f"{self.prefix}.{len(self.spans)}", None, name, 0, 0, None]
            self.spans.append(span)
        stack = self._stack()
        span[1] = stack[-1][0] if stack else self.root_parent
        stack.append(span)
        span[3] = time.perf_counter_ns() if start is None else start
        return span

    def close(self, span, attrs=None):
        span[4] = time.perf_counter_ns()
        self._stack().pop()
        span[5] = attrs

    def wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name if isinstance(name, str) else name(args, kwargs))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(span)
                if attrs_of is not None and result is not None:
                    span[5] = attrs_of(result)

        return traced


def install(rec: Recorder) -> None:
    """Wrap every target and rebind it wherever goxlens imported it by name."""
    import importlib

    replaced = {}
    for module, attr, name, attrs_of in TARGETS:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)
        replaced[id(fn)] = (fn, rec.wrap(fn, name, attrs_of))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "goxlens" and not mod_name.startswith("goxlens."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])

    from goxlens.features import BarSeries

    for attr, name, is_cls in BAR_METHODS:
        raw = BarSeries.__dict__[attr]
        if is_cls:
            setattr(BarSeries, attr, classmethod(rec.wrap(raw.__func__, name, None)))
        else:
            setattr(BarSeries, attr, rec.wrap(raw, name, None))


def main(argv) -> int:
    spans_path, workload, parent = argv[0], argv[1], argv[2]
    if argv[3] != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON WORKLOAD PARENT_ID -- ARGS...")
    args = argv[4:]
    rec = Recorder(parent, parent)
    imp = rec.open("cli.import", start=T_START)
    import goxlens.cli

    rec.close(imp)
    install(rec)
    span = rec.open("cli.main")
    try:
        code = goxlens.cli.main(args)
    finally:
        rec.close(span)
        with open(spans_path, "w") as fh:
            json.dump({"workload": workload, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
