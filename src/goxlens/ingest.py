"""Exchange-log ingestion: parsing, half-pairing, de-duplication, aux series.

Monetary amounts are held as fixed-point integers (BTC at 8 decimal places,
quote currency at 5) so that volume sums are exact; floats only appear at the
edges via properties. Timestamps are integer epoch seconds, UTC throughout.

Trade logs arrive with one row per order half; two halves share a trade id.
Pairing joins them, the first-seen half is the buyer unless an explicit side
column says otherwise, and exact duplicates of the combined key
(buyer, seller, bitcoins, money, timestamp) collapse to one trade.
"""

from __future__ import annotations

import csv
import io
import logging
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Union

from .errors import DataError, PairingError, SchemaError

log = logging.getLogger("goxlens.ingest")

BTC_DECIMALS = 8
MONEY_DECIMALS = 5
BTC_UNIT = 10**BTC_DECIMALS
MONEY_UNIT = 10**MONEY_DECIMALS
DAY = 86400

Source = Union[str, Path, IO]


def parse_scaled(text: str, decimals: int) -> int:
    """Parse a non-negative decimal string into an integer at 10**-decimals.

    Rejects signs, exponents, and more fractional digits than `decimals`
    (precision loss would be silent otherwise).
    """
    t = text.strip()
    if not t:
        raise ValueError("empty amount")
    if t[0] in "+-":
        raise ValueError(f"signed amount not allowed: {text!r}")
    if "." in t:
        whole, _, frac = t.partition(".")
        if "." in frac:
            raise ValueError(f"malformed amount: {text!r}")
    else:
        whole, frac = t, ""
    if not whole and not frac:
        raise ValueError(f"malformed amount: {text!r}")
    if (whole and not whole.isdigit()) or (frac and not frac.isdigit()):
        raise ValueError(f"malformed amount: {text!r}")
    if len(frac) > decimals:
        raise ValueError(f"more than {decimals} decimal places: {text!r}")
    scaled = int(whole) if whole else 0
    return scaled * 10**decimals + (int(frac.ljust(decimals, "0")) if frac else 0)


def format_scaled(value: int, decimals: int) -> str:
    """Inverse of parse_scaled: fixed-point integer to a plain decimal string."""
    if value < 0:
        raise ValueError("negative fixed-point value")
    digits = str(value).rjust(decimals + 1, "0")
    cut = len(digits) - decimals
    return f"{digits[:cut]}.{digits[cut:]}"


# Timestamp parsing is the hot loop for multi-million-row logs; cache the
# midnight epoch per date string and do the clock arithmetic by hand.
_midnight_cache: dict[str, int] = {}


def _date_to_epoch(text: str) -> int:
    try:
        return _midnight_cache[text]
    except KeyError:
        pass
    d = date(int(text[0:4]), int(text[5:7]), int(text[8:10]))
    ts = int(datetime(d.year, d.month, d.day, tzinfo=timezone.utc).timestamp())
    _midnight_cache[text] = ts
    return ts


# ASCII digits only; `_date_to_epoch` then rejects a month or day out of range
_DATE = r"\d{4}-\d\d-\d\d"
_CANONICAL_DATE = re.compile(_DATE, re.ASCII)
# The fast path takes only this exact layout; anything else goes to
# fromisoformat, which parses the other ISO spellings or raises.
_CANONICAL_TS = re.compile(rf"({_DATE})[ T]([01]\d|2[0-3]):([0-5]\d):([0-5]\d)", re.ASCII)


def parse_ts(text: str) -> int:
    """'YYYY-MM-DD HH:MM:SS' (or ISO 'T', or plain epoch digits) to epoch seconds."""
    t = text.strip()
    if t.isdigit():
        return int(t)
    if t.endswith("Z") or t.endswith("z"):  # fromisoformat rejects this before 3.11
        t = t[:-1] + "+00:00"
    try:
        m = _CANONICAL_TS.fullmatch(t)
        if m:
            day, hh, mm, ss = m.groups()
            return _date_to_epoch(day) + 3600 * int(hh) + 60 * int(mm) + int(ss)
        dt = datetime.fromisoformat(t)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad timestamp: {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def parse_date(text: str) -> int:
    """'YYYY-MM-DD' to epoch seconds at UTC midnight."""
    t = text.strip()
    if not _CANONICAL_DATE.fullmatch(t):
        raise ValueError(f"bad date: {text!r}")
    try:
        return _date_to_epoch(t)
    except ValueError as exc:
        raise ValueError(f"bad date: {text!r}") from exc


def fmt_ts(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")


def fmt_date(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d")


@dataclass(slots=True)
class RawTradeRecord:
    """One order half as it appears in the log."""

    user_id: str
    trade_id: str
    ts: int
    currency: str
    bitcoins_e8: int
    money_e5: int
    side: str  # "buy" | "sell" | "unknown"

    @property
    def bitcoins(self) -> float:
        return self.bitcoins_e8 / BTC_UNIT

    @property
    def money(self) -> float:
        return self.money_e5 / MONEY_UNIT


@dataclass(slots=True)
class PairedTrade:
    """Both halves joined: one economic trade."""

    buyer: str
    seller: str
    ts: int
    bitcoins_e8: int
    money_e5: int

    @property
    def bitcoins(self) -> float:
        return self.bitcoins_e8 / BTC_UNIT

    @property
    def money(self) -> float:
        return self.money_e5 / MONEY_UNIT

    @property
    def price(self) -> float:
        """Quote per BTC; only defined for priced (bitcoins > 0) trades."""
        if self.bitcoins_e8 <= 0:
            raise ValueError("price undefined for zero-BTC trade")
        return (self.money_e5 * BTC_UNIT) / (self.bitcoins_e8 * MONEY_UNIT)

    @property
    def key(self) -> tuple:
        return (self.buyer, self.seller, self.bitcoins_e8, self.money_e5, self.ts)


@dataclass
class ParseResult:
    records: list[RawTradeRecord]
    row_errors: list[tuple[int, str]]  # (1-based line number, reason)
    n_rows: int

    @property
    def n_skipped(self) -> int:
        return len(self.row_errors)


@dataclass
class DedupStats:
    raw_rows: int
    dropped_non_usd: int
    unpaired: int
    paired: int
    duplicates_removed: int
    deduplicated: int

    def as_dict(self) -> dict:
        return {
            "raw_rows": self.raw_rows,
            "dropped_non_usd": self.dropped_non_usd,
            "unpaired": self.unpaired,
            "paired": self.paired,
            "duplicates_removed": self.duplicates_removed,
            "deduplicated": self.deduplicated,
        }


@dataclass
class TradeLedger:
    """De-duplicated paired trades in (ts, buyer, seller, amounts) order."""

    trades: list[PairedTrade]
    stats: DedupStats

    def __len__(self) -> int:
        return len(self.trades)

    def __iter__(self):
        return iter(self.trades)


_SCHEMAS = {
    "mtgox_leak": {
        "required": ["User_Id", "Trade_Id", "Date", "Japan", "Currency", "Bitcoins", "Money"],
        "optional": ["Type"],
    },
    "canonical": {
        "required": ["user_id", "trade_id", "timestamp", "currency", "bitcoins", "money", "side"],
        "optional": [],
    },
}


def _open_text(source: Source):
    """Return (file, should_close). Binary streams are wrapped, not copied."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)) or (
        hasattr(source, "read") and isinstance(source.read(0), bytes)
    ):
        return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
    return source, False


def parse_trade_log(source: Source, schema: str = "mtgox_leak") -> ParseResult:
    """Parse a half-trade CSV under the named schema.

    Malformed rows are skipped and collected in row_errors; a missing required
    column is fatal (SchemaError). Side values other than buy/sell map to
    "unknown". Row order is preserved.
    """
    if schema not in _SCHEMAS:
        raise SchemaError(f"unknown schema {schema!r}; expected one of {sorted(_SCHEMAS)}")
    spec = _SCHEMAS[schema]
    fh, should_close = _open_text(source)
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: no header row")
        header = [h.strip() for h in header]
        pos = {name: i for i, name in enumerate(header)}
        missing = [c for c in spec["required"] if c not in pos]
        if missing:
            raise SchemaError(f"schema {schema!r}: missing columns {missing}; header {header}")

        if schema == "mtgox_leak":
            i_user, i_tid, i_ts = pos["User_Id"], pos["Trade_Id"], pos["Date"]
            i_cur, i_btc, i_money = pos["Currency"], pos["Bitcoins"], pos["Money"]
            i_side = pos.get("Type", -1)
        else:
            i_user, i_tid, i_ts = pos["user_id"], pos["trade_id"], pos["timestamp"]
            i_cur, i_btc, i_money = pos["currency"], pos["bitcoins"], pos["money"]
            i_side = pos["side"]
        width = max(i_user, i_tid, i_ts, i_cur, i_btc, i_money, i_side) + 1

        records: list[RawTradeRecord] = []
        errors: list[tuple[int, str]] = []
        n_rows = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            n_rows += 1
            if len(row) < width:
                errors.append((lineno, f"expected at least {width} fields, got {len(row)}"))
                continue
            user = row[i_user].strip()
            tid = row[i_tid].strip()
            if not user or not tid:
                errors.append((lineno, "empty user or trade id"))
                continue
            try:
                ts = parse_ts(row[i_ts])
                btc = parse_scaled(row[i_btc], BTC_DECIMALS)
                money = parse_scaled(row[i_money], MONEY_DECIMALS)
            except ValueError as exc:
                errors.append((lineno, str(exc)))
                continue
            side = row[i_side].strip().lower() if i_side >= 0 else ""
            if side not in ("buy", "sell"):
                side = "unknown"
            records.append(
                RawTradeRecord(user, tid, ts, row[i_cur].strip(), btc, money, side)
            )
        return ParseResult(records, errors, n_rows)
    finally:
        if should_close:
            fh.close()


def pair_and_dedup(records: Iterable[RawTradeRecord]) -> TradeLedger:
    """Join order halves by trade id, assign roles, drop exact duplicates.

    Non-USD halves are dropped before pairing. A trade id seen more than twice
    is unresolvable and raises PairingError naming the ids; ids seen once are
    counted as unpaired and skipped. Roles come from an explicit buy/sell side
    when exactly one interpretation fits, otherwise the first-seen half is the
    buyer. Amounts and timestamp are taken from the first-seen half.

    Duplicates share the combined key (buyer, seller, bitcoins, money,
    timestamp); the first-paired instance is kept. Output is sorted by that
    key, timestamp first.
    """
    by_id: dict[str, list[RawTradeRecord]] = {}
    raw_rows = 0
    dropped = 0
    for rec in records:
        raw_rows += 1
        if rec.currency != "USD":
            dropped += 1
            continue
        by_id.setdefault(rec.trade_id, []).append(rec)

    ambiguous = sorted(tid for tid, halves in by_id.items() if len(halves) > 2)
    if ambiguous:
        raise PairingError(ambiguous)

    paired: list[PairedTrade] = []
    unpaired = 0
    for halves in by_id.values():
        if len(halves) == 1:
            unpaired += 1
            continue
        a, b = halves
        if a.side == "buy":
            buyer, seller = a, b
        elif b.side == "buy":
            buyer, seller = b, a
        elif a.side == "sell":
            buyer, seller = b, a
        elif b.side == "sell":
            buyer, seller = a, b
        else:
            buyer, seller = a, b
        paired.append(
            PairedTrade(buyer.user_id, seller.user_id, a.ts, a.bitcoins_e8, a.money_e5)
        )

    seen: set[tuple] = set()
    unique: list[PairedTrade] = []
    for t in paired:
        k = t.key
        if k in seen:
            continue
        seen.add(k)
        unique.append(t)
    unique.sort(key=lambda t: (t.ts, t.buyer, t.seller, t.bitcoins_e8, t.money_e5))

    stats = DedupStats(
        raw_rows=raw_rows,
        dropped_non_usd=dropped,
        unpaired=unpaired,
        paired=len(paired),
        duplicates_removed=len(paired) - len(unique),
        deduplicated=len(unique),
    )
    return TradeLedger(unique, stats)


def write_canonical_csv(trades: Iterable[PairedTrade], stream: IO[str]) -> int:
    """Write trades back out as canonical half rows (two per trade).

    Synthetic sequential trade ids; buy half first. Re-ingesting the output
    reproduces the same ledger (pairing keeps first-seen as buyer and the buy
    half carries the amounts). Returns the number of trades written.
    """
    w = csv.writer(stream)
    w.writerow(["user_id", "trade_id", "timestamp", "currency", "bitcoins", "money", "side"])
    n = 0
    for i, t in enumerate(trades):
        tid = f"t{i}"
        ts = fmt_ts(t.ts)
        btc = format_scaled(t.bitcoins_e8, BTC_DECIMALS)
        money = format_scaled(t.money_e5, MONEY_DECIMALS)
        w.writerow([t.buyer, tid, ts, "USD", btc, money, "buy"])
        w.writerow([t.seller, tid, ts, "USD", btc, money, "sell"])
        n += 1
    return n


@dataclass(slots=True)
class AuxPoint:
    ts: int
    values: dict


@dataclass
class AuxSeries:
    """A timestamped auxiliary series; points strictly increasing in time."""

    kind: str
    points: list[AuxPoint]
    row_errors: list[tuple[int, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def ts_array(self):
        return [p.ts for p in self.points]

    def value_array(self, key: str, default: float = 0.0):
        return [p.values.get(key, default) for p in self.points]


_AUX_SCHEMAS = {
    "onchain": ["timestamp", "transaction_id", "address", "type", "amount"],
    "market_daily": ["date", "volume_btc"],
    "supply": ["date", "circulating_supply"],
    "trends": ["week_start", "score"],
    "asset_bar": ["timestamp", "close", "tick", "volume"],
}


def parse_aux(source: Source, kind: str) -> AuxSeries:
    """Parse an auxiliary CSV of the given kind.

    onchain rows aggregate per timestamp into {"input": sum, "output": sum}.
    Daily kinds (market_daily, supply, trends) must be strictly increasing;
    a duplicated or out-of-order date is fatal. asset_bar duplicates keep the
    later row (a warning is logged). Malformed rows are skipped and collected.
    """
    if kind not in _AUX_SCHEMAS:
        raise SchemaError(f"unknown aux kind {kind!r}; expected one of {sorted(_AUX_SCHEMAS)}")
    cols = _AUX_SCHEMAS[kind]
    fh, should_close = _open_text(source)
    try:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"aux {kind!r}: empty input")
        pos = {name: i for i, name in enumerate(header)}
        missing = [c for c in cols if c not in pos]
        if missing:
            raise SchemaError(f"aux {kind!r}: missing columns {missing}; header {header}")
        idx = [pos[c] for c in cols]
        width = max(idx) + 1

        errors: list[tuple[int, str]] = []
        rows: list[tuple] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < width:
                errors.append((lineno, f"expected at least {width} fields, got {len(row)}"))
                continue
            vals = [row[i].strip() for i in idx]
            try:
                rows.append(_parse_aux_row(kind, vals))
            except ValueError as exc:
                errors.append((lineno, str(exc)))
        points = _assemble_aux(kind, rows)
        return AuxSeries(kind, points, errors)
    finally:
        if should_close:
            fh.close()


def _parse_aux_row(kind: str, vals: list[str]) -> tuple:
    if kind == "onchain":
        ts = parse_ts(vals[0])
        direction = vals[3].lower()
        if direction not in ("input", "output"):
            raise ValueError(f"bad transfer type {vals[3]!r}")
        amount = float(vals[4])
        if not amount >= 0.0:  # also catches NaN
            raise ValueError(f"bad amount {vals[4]!r}")
        return (ts, direction, amount)
    if kind == "asset_bar":
        ts = parse_ts(vals[0])
        close = float(vals[1])
        if not close > 0.0:
            raise ValueError(f"bad close {vals[1]!r}")
        tick = float(vals[2]) if vals[2] else 0.0
        volume = float(vals[3]) if vals[3] else 0.0
        return (ts, close, tick, volume)
    # daily kinds: (date-ish, value)
    ts = parse_date(vals[0])
    value = float(vals[1])
    if value != value:
        raise ValueError(f"bad value {vals[1]!r}")
    return (ts, value)


def _assemble_aux(kind: str, rows: list[tuple]) -> list[AuxPoint]:
    if kind == "onchain":
        agg: dict[int, dict] = {}
        for ts, direction, amount in rows:
            slot = agg.setdefault(ts, {"input": 0.0, "output": 0.0})
            slot[direction] += amount
        return [AuxPoint(ts, agg[ts]) for ts in sorted(agg)]
    if kind == "asset_bar":
        agg2: dict[int, AuxPoint] = {}
        for ts, close, tick, volume in rows:
            if ts in agg2:
                log.warning("asset_bar: duplicate timestamp %s, keeping later row", fmt_ts(ts))
            agg2[ts] = AuxPoint(ts, {"close": close, "tick": tick, "volume": volume})
        return [agg2[ts] for ts in sorted(agg2)]

    key = {"market_daily": "volume_btc", "supply": "supply", "trends": "score"}[kind]
    points = []
    prev = None
    for ts, value in rows:
        if prev is not None and ts <= prev:
            raise DataError(
                f"aux {kind!r}: dates must be strictly increasing, saw {fmt_date(ts)} "
                f"after {fmt_date(prev)}"
            )
        prev = ts
        points.append(AuxPoint(ts, {key: value}))
    return points
