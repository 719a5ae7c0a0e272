"""Wash-trade flagging.

A trade is a wash when the same account sits on both sides. Flagging is pure
bookkeeping on a ledger restricted to an analysis window; the window is stored
half-open [start, end) in epoch seconds but is normally built from an
inclusive pair of dates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError
from .ingest import DAY, TradeLedger, fmt_ts, parse_date

DEFAULT_WINDOW_START = "2011-06-26"
DEFAULT_WINDOW_END = "2013-05-20"


@dataclass(frozen=True)
class TimeWindow:
    """Half-open [start, end) in epoch seconds."""

    start: int
    end: int

    def __post_init__(self):
        if self.end <= self.start:
            raise DataError(f"empty window: end {fmt_ts(self.end)} <= start {fmt_ts(self.start)}")

    @classmethod
    def from_dates(cls, first_day: str, last_day: str) -> "TimeWindow":
        """Inclusive calendar dates; last_day's full 24h is inside the window."""
        return cls(parse_date(first_day), parse_date(last_day) + DAY)

    @classmethod
    def default(cls) -> "TimeWindow":
        return cls.from_dates(DEFAULT_WINDOW_START, DEFAULT_WINDOW_END)

    @classmethod
    def parse(cls, text: str) -> "TimeWindow":
        """'YYYY-MM-DD..YYYY-MM-DD', both ends inclusive."""
        first, sep, last = text.partition("..")
        if not sep or not first or not last:
            raise ValueError(f"bad window {text!r}; expected START..END dates")
        return cls.from_dates(first, last)

    def contains(self, ts: int) -> bool:
        return self.start <= ts < self.end

    @property
    def n_days(self) -> int:
        return (self.end - self.start) // DAY


@dataclass
class FlaggedLedger(TradeLedger):
    """A ledger's trades inside a window, in ledger order, with a wash flag each.

    `stats` are those of the whole ledger. `wash` is a list of Python bools,
    not a numpy array, so that a sum over it is a Python int, which `json` can
    write.
    """

    wash: list[bool]
    window: TimeWindow

    @property
    def wash_count(self) -> int:
        return self.wash.count(True)

    @property
    def nonwash_count(self) -> int:
        return len(self.wash) - self.wash_count


def flag_wash(ledger: TradeLedger, window: Optional[TimeWindow] = None) -> FlaggedLedger:
    """Restrict to the window and mark buyer == seller trades as wash.

    Pure: the input ledger is not modified, ordering is preserved. The default
    window covers the standard analysis span.
    """
    if window is None:
        window = TimeWindow.default()
    # the ledger is sorted by timestamp, so the window is one run of it
    lo, hi = np.searchsorted(ledger.ts, [window.start, window.end]).tolist()
    columns = (ledger.ts, ledger.buyer, ledger.seller, ledger.bitcoins_e8, ledger.money_e5)
    ts, buyer, seller, btc, money = (c[lo:hi] for c in columns)
    wash = (buyer == seller).tolist()
    return FlaggedLedger(ts, buyer, seller, btc, money, ledger.users, ledger.stats, wash, window)
