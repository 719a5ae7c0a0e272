"""Exception hierarchy.

Every failure the library raises on purpose derives from GoxlensError, so the
CLI can map exception families onto exit codes in one place: schema/data
problems exit 2, analysis aborts exit 3. Errors pickle with their attributes
and message intact, so one raised in a worker process reaches the caller.
"""


class GoxlensError(Exception):
    """Base class for all deliberate failures."""


class SchemaError(GoxlensError):
    """Input file does not match the declared schema (missing column, bad header)."""


class DataError(GoxlensError):
    """Well-formed input that the requested computation cannot accept."""


class PairingError(DataError):
    """A trade id occurred more than twice in the input."""

    def __init__(self, trade_ids):
        self.trade_ids = list(trade_ids)
        shown = ", ".join(self.trade_ids[:10])
        more = "" if len(self.trade_ids) <= 10 else f" (+{len(self.trade_ids) - 10} more)"
        super().__init__(f"trade ids seen more than twice: {shown}{more}")

    def __reduce__(self):
        return (type(self), (self.trade_ids,))


class DegenerateSeriesError(DataError):
    """A series is constant (or too short) where variation is required."""


class SingularityError(DataError):
    """A moment matrix is numerically singular; names the offending columns."""

    def __init__(self, message, columns=()):
        self.columns = list(columns)
        super().__init__(message)


class AnalysisAbort(GoxlensError):
    """A study cannot produce a meaningful result (exit code 3 family)."""


class StationarityError(AnalysisAbort):
    """Pre-analysis stationarity screen failed; carries the offending series."""

    def __init__(self, failures):
        # failures: mapping name -> ADF statistic (or None when degenerate)
        self.failures = dict(failures)
        parts = ", ".join(
            f"{name} (adf={stat:.3f})" if stat is not None else f"{name} (degenerate)"
            for name, stat in self.failures.items()
        )
        super().__init__(f"non-stationary at 5%: {parts}")

    def __reduce__(self):
        return (type(self), (self.failures,))


class TrainingDivergence(AnalysisAbort):
    """Iterative training diverged; carries the loss trace."""

    def __init__(self, message, trace=()):
        self.trace = list(trace)
        super().__init__(message)
