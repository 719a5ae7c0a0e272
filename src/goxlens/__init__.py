"""Forensic analysis of exchange trade ledgers.

The pipeline runs ingest (half-row pairing, dedup) -> detect (wash flagging)
-> features (30-minute bars, quartiles, weekly rollups) -> studies (VAR,
cointegration, impulse responses, model-based importance ranking), with a
statistics kernel in `econometrics`, regressors in `ml`, and ground-truth
generators in `synth`. The `goxlens` console script exposes the same stages
as batch subcommands.
"""

import importlib

# public name -> submodule; each submodule is imported the first time one of
# its names is read (PEP 562), so `import goxlens.cli` does not pull in the
# studies or the models (and no module loads scipy at import time)
_SOURCES = {
    "detect": ("FlaggedLedger", "TimeWindow", "flag_wash"),
    "errors": (
        "AnalysisAbort",
        "DataError",
        "DegenerateSeriesError",
        "GoxlensError",
        "PairingError",
        "SchemaError",
        "SingularityError",
        "StationarityError",
        "TrainingDivergence",
    ),
    "features": (
        "AssetBarSeries",
        "BarSeries",
        "QuartileLabel",
        "WeeklyBucket",
        "build_asset_bars",
        "build_bars",
        "daily_quartiles",
        "daily_sums",
        "filter_stationary_weeks",
        "weekly_rollup",
    ),
    "ingest": (
        "AuxSeries",
        "TradeLedger",
        "pair_and_dedup",
        "parse_aux",
        "parse_trade_log",
        "write_canonical_csv",
    ),
    "studies": (
        "EventConfig",
        "ReportTable",
        "StudyReport",
        "study_cross_asset",
        "study_event",
        "study_market",
        "study_media",
        "study_onchain",
        "study_timing",
    ),
    "synth": ("SynthSpec", "gen_cointegrated_pair", "gen_exchange_log", "gen_var_process"),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE_OF)


def __getattr__(name):
    module = _SOURCE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
