"""Exchange-log ingestion: parsing, half-pairing, de-duplication, aux series.

Monetary amounts are held as fixed-point integers (BTC at 8 decimal places,
quote currency at 5) so that volume sums are exact, and the trade ledger is a
set of int64 numpy columns with user names dictionary-encoded. Timestamps are
integer epoch seconds, UTC throughout.

Trade logs arrive with one row per order half; two halves share a trade id.
Pairing joins them, the first-seen half is the buyer unless an explicit side
column says otherwise, and exact duplicates of the combined key
(buyer, seller, bitcoins, money, timestamp) collapse to one trade.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import IO, Iterator, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, PairingError, SchemaError

log = logging.getLogger("goxlens.ingest")

BTC_DECIMALS = 8
MONEY_DECIMALS = 5
BTC_UNIT = 10**BTC_DECIMALS
MONEY_UNIT = 10**MONEY_DECIMALS
DAY = 86400
# Epoch range of timestamps parse_ts accepts: 0001-01-01 00:00:00 to
# 9999-12-31 23:59:59 UTC, the span with four-digit years
FIRST_TS = -62135596800
LAST_TS = 253402300799
_EPOCH = datetime(1970, 1, 1)

#: Columns of a canonical trade log, in file order.
CANONICAL_HEADER = ["user_id", "trade_id", "timestamp", "currency", "bitcoins", "money", "side"]
# Rows per block wherever a column is held as text or Python objects. A whole
# column of them (5 MB of start strings at 33,360 bars) would, once freed,
# raise glibc's dynamic mmap threshold and leave later arrays on the heap,
# which measurably raised the peak RSS of the command loading the bars.
_BLOCK = 4096

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
    if (whole and not _is_digits(whole)) or (frac and not _is_digits(frac)):
        raise ValueError(f"malformed amount: {text!r}")
    if len(frac) > decimals:
        raise ValueError(f"more than {decimals} decimal places: {text!r}")
    scaled = int(whole) if whole else 0
    return scaled * 10**decimals + (int(frac.ljust(decimals, "0")) if frac else 0)


def _is_digits(text: str) -> bool:
    """Non-empty and only 0-9 (str.isdigit alone also takes other scripts' digits and "²")."""
    return text.isascii() and text.isdigit()


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
    """'YYYY-MM-DD HH:MM:SS' (or ISO 'T', or plain epoch digits) to epoch seconds.

    The result lies in [FIRST_TS, LAST_TS], so `fmt_ts` can spell it back.
    """
    t = text.strip()
    if _is_digits(t):
        return _in_range(int(t), text)
    if t.endswith("Z") or t.endswith("z"):  # fromisoformat rejects this before 3.11
        t = t[:-1] + "+00:00"
    try:
        m = _CANONICAL_TS.fullmatch(t)
        if m:  # four year digits: always in range
            day, hh, mm, ss = m.groups()
            return _date_to_epoch(day) + 3600 * int(hh) + 60 * int(mm) + int(ss)
        dt = datetime.fromisoformat(t)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad timestamp: {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return _in_range(int(dt.timestamp()), text)


def _in_range(ts: int, text: str) -> int:
    if not FIRST_TS <= ts <= LAST_TS:
        raise ValueError(f"timestamp out of range: {text!r}")
    return ts


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
    """'YYYY-MM-DD HH:MM:SS' in UTC, the year always in four digits."""
    return (_EPOCH + timedelta(seconds=int(ts))).isoformat(" ")


def fmt_date(ts: int) -> str:
    return (_EPOCH + timedelta(seconds=int(ts))).date().isoformat()


# `ParseResult.side` codes; a side other than buy or sell is unknown
UNKNOWN, BUY, SELL = 0, 1, 2
_SIDES = {"buy": BUY, "sell": SELL}
# The ledger is int64: a larger amount is a row error, not a wrap-around
_AMOUNT_LIMIT = 2**63


@dataclass
class ParseResult:
    """The valid half rows of a trade log as columns, in file order.

    `ts` (epoch seconds), `bitcoins_e8`, `money_e5`, `user` and `trade` are
    int64; `user` and `trade` are codes into `user_names` and `trade_ids`,
    sorted object arrays of names, so code order is string order. `side`
    (int8) holds the UNKNOWN/BUY/SELL codes and `usd` (bool) marks the rows
    whose currency is USD.
    """

    ts: np.ndarray
    bitcoins_e8: np.ndarray
    money_e5: np.ndarray
    user: np.ndarray
    trade: np.ndarray
    side: np.ndarray
    usd: np.ndarray
    user_names: np.ndarray
    trade_ids: np.ndarray
    row_errors: list[tuple[int, str]]  # (1-based line number, reason)
    n_rows: int

    def __len__(self) -> int:
        return len(self.ts)


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
    """De-duplicated trades as int64 columns, sorted by (ts, buyer, seller, bitcoins, money).

    `buyer` and `seller` are codes into `users`, a sorted object array of
    names, so the sort follows the user names.
    """

    ts: np.ndarray
    buyer: np.ndarray
    seller: np.ndarray
    bitcoins_e8: np.ndarray
    money_e5: np.ndarray
    users: np.ndarray
    stats: DedupStats

    def __len__(self) -> int:
        return len(self.ts)


_SCHEMAS = {
    "mtgox_leak": {
        "required": ["User_Id", "Trade_Id", "Date", "Japan", "Currency", "Bitcoins", "Money"],
        "optional": ["Type"],
    },
    "canonical": {
        "required": CANONICAL_HEADER,
        "optional": [],
    },
}


@contextmanager
def _open_text(source: Source, what: str) -> Iterator[IO[str]]:
    """`source` as a text file: paths are opened and binary streams wrapped, as UTF-8.

    Bytes that are not UTF-8 raise DataError naming `what` and their line.
    """
    path = isinstance(source, (str, Path))
    if path:
        fh = open(source, "r", encoding="utf-8", newline="")
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)) or isinstance(source.read(0), bytes):
        start = source.tell() if source.seekable() else None
        fh = io.TextIOWrapper(source, encoding="utf-8", newline="")
    else:
        yield source
        return
    try:
        yield fh
    except UnicodeDecodeError:
        if path:
            with open(source, "rb") as raw:
                line = _first_bad_line(raw)
        elif start is not None:
            source.seek(start)
            line = _first_bad_line(source)
        else:
            raise DataError(f"{what}: not valid UTF-8") from None
        raise DataError(f"{what} line {line}: not valid UTF-8") from None
    finally:
        if path:
            fh.close()
        else:
            fh.detach()  # the caller's stream stays open


def _first_bad_line(raw: IO[bytes]) -> int:
    """The line (counted as csv counts lines) holding the first bytes of `raw` not in UTF-8."""
    line = 1
    for chunk in raw:  # split after each LF; a CR alone also ends a line
        try:
            chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            return line + _line_ends(chunk[: exc.start])
        line += _line_ends(chunk)
    return line


def _line_ends(data: bytes) -> int:
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def parse_trade_log(source: Source, schema: str = "mtgox_leak") -> ParseResult:
    """Parse a half-trade CSV under the named schema.

    Malformed rows are skipped and collected in row_errors; a missing required
    column is fatal (SchemaError). Side values other than buy/sell map to
    UNKNOWN. Row order is preserved.

    Canonical text in exactly the layout `write_canonical_csv` writes is read
    a column at a time, a block of lines at a time (`_read_canonical_log`);
    any other text, valid or not, is parsed row by row by `_parse_rows`.
    """
    if schema not in _SCHEMAS:
        raise SchemaError(f"unknown schema {schema!r}; expected one of {sorted(_SCHEMAS)}")
    path = isinstance(source, (str, Path))
    if schema == "canonical" and (path or source.seekable()):
        with open(source, "rb") if path else nullcontext(source) as fh:
            start = fh.tell()
            parsed = _read_canonical_log(fh)
            if parsed is not None:
                return parsed
            fh.seek(start)
    return _parse_rows(source, schema)


def _parse_rows(source: Source, schema: str) -> ParseResult:
    """`parse_trade_log` row by row: the definition of a valid row."""
    spec = _SCHEMAS[schema]
    with _open_text(source, "trade log") as fh:
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

        # names get codes in first-seen order here, renumbered in sorted order below
        users: dict[str, int] = {}
        tids: dict[str, int] = {}
        ts_col, btc_col, money_col, user_col, tid_col = (array("q") for _ in range(5))
        side_col, usd_col = bytearray(), bytearray()
        errors: list[tuple[int, str]] = []
        n_rows = 0
        last_cells = None
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
            cells = (row[i_ts], row[i_btc], row[i_money])
            # a trade's two halves usually sit on adjacent rows with the same
            # timestamp and amounts: parse those cells once for both
            if cells != last_cells:
                try:
                    values = (
                        parse_ts(cells[0]),
                        parse_scaled(cells[1], BTC_DECIMALS),
                        parse_scaled(cells[2], MONEY_DECIMALS),
                    )
                    if max(values[1:]) >= _AMOUNT_LIMIT:
                        raise ValueError("amount out of range")
                except ValueError as exc:
                    errors.append((lineno, str(exc)))
                    continue
                last_cells = cells
            ts, btc, money = values
            side = row[i_side].strip().lower() if i_side >= 0 else ""
            ts_col.append(ts)
            btc_col.append(btc)
            money_col.append(money)
            user_col.append(users.setdefault(user, len(users)))
            tid_col.append(tids.setdefault(tid, len(tids)))
            side_col.append(_SIDES.get(side, UNKNOWN))
            usd_col.append(row[i_cur].strip() == "USD")
    user_codes, user_names = _sorted_codes(user_col, users)
    tid_codes, trade_ids = _sorted_codes(tid_col, tids)
    return ParseResult(
        np.frombuffer(ts_col, np.int64),
        np.frombuffer(btc_col, np.int64),
        np.frombuffer(money_col, np.int64),
        user_codes,
        tid_codes,
        np.frombuffer(side_col, np.int8),
        np.frombuffer(usd_col, np.bool_),
        user_names,
        trade_ids,
        errors,
        n_rows,
    )


def _sorted_codes(codes: array, first_seen: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """First-seen codes renumbered into the sorted names, and those names."""
    names = sorted(first_seen)
    renumber = np.empty(len(names), np.int64)
    renumber[[first_seen[name] for name in names]] = np.arange(len(names))
    return renumber[np.frombuffer(codes, np.int64)], np.array(names, dtype=object)


# --- the canonical trades.csv layout, a column at a time -------------------

# The header line `write_canonical_csv` writes; `_read_canonical_log` takes only
# text that opens with it
_LOG_HEADER = (",".join(CANONICAL_HEADER) + "\r\n").encode()
# `_read_canonical_log` reads the text in blocks of about this many bytes, cut
# after a line end, so its memory follows the int64 columns, not the text.
# Larger blocks gain little speed and leave more freed scratch memory resident:
# 1 MiB blocks raised the peak RSS of `detect` on a 67k-row ledger by 2.5 MB.
_TEXT_BLOCK = 1 << 17
# Longest user name or trade id `_read_canonical_log` takes; each block holds
# its names as a (rows, longest name) byte matrix
_MAX_NAME = 256
# A bound on the length of a line in the layout: two names, then at most 72
# bytes of other cells, commas and CRLF
_MAX_LINE = 2 * _MAX_NAME + 100
# Most whole digits `_read_fixed` takes in a fixed-point cell: every value
# stays below 10**18 at either scale, so sums of two fit in int64
_MAX_WHOLE = {BTC_DECIMALS: 10, MONEY_DECIMALS: 13}
# The separators of a `fmt_ts` timestamp, at offsets 4, 7, 10, 13 and 16
_TS_MARKS = np.frombuffer(b"-- ::", np.uint8)
# Days in each month of a common year, indexed by month
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _read_canonical_log(fh: IO) -> Optional[ParseResult]:
    """The rest of `fh` as a ParseResult if in the layout `write_canonical_csv` writes, else None.

    That layout is the exact header, then CRLF lines of seven unquoted ASCII
    cells: user and trade id (no blanks at either end), a `fmt_ts` timestamp,
    USD, fixed-point amounts with exactly the scale's fractional digits, and
    buy or sell. Each block of lines is checked and read a column at a time,
    its names dictionary-encoded; whatever this accepts, `_parse_rows`
    accepts with the same values. It returns None on anything else, valid
    or not, having read `fh` up to the first block that fails.
    """
    # columns grow as `_parse_rows`'s do; `user` and `trade` hold codes into
    # the concatenation of the blocks' distinct names, renumbered at the end
    ts, btc, money, user, trade = (array("q") for _ in range(5))
    side = array("b")
    names: tuple[list[np.ndarray], list[np.ndarray]] = ([], [])
    for i, block in enumerate(_line_blocks(fh)):
        if i == 0:
            if not block.startswith(_LOG_HEADER):
                return None
            block = block[len(_LOG_HEADER) :]
            if not block:  # the header line filled the block
                continue
        parts = _read_log_block(block)
        if parts is None:
            return None
        for column, part in zip((ts, btc, money, side), parts):
            column.frombytes(part.tobytes())
        for column, blocks, (distinct, codes) in zip((user, trade), names, (parts[4:6], parts[6:])):
            column.frombytes((codes + sum(map(len, blocks))).tobytes())
            blocks.append(distinct)
    if not ts:
        return None
    user_codes, user_names = _merge_codes(names[0], user)
    del user
    trade_codes, trade_ids = _merge_codes(names[1], trade)
    del trade
    n = len(ts)
    return ParseResult(
        np.frombuffer(ts, np.int64),
        np.frombuffer(btc, np.int64),
        np.frombuffer(money, np.int64),
        user_codes,
        trade_codes,
        np.frombuffer(side, np.int8),
        np.ones(n, np.bool_),
        user_names,
        trade_ids,
        [],
        n,
    )


def _line_blocks(fh: IO) -> Iterator[bytes]:
    """The rest of `fh` in blocks of about `_TEXT_BLOCK` bytes, each cut after its last LF.

    Text past `_MAX_LINE` bytes with no LF is yielded as it is, a block that
    fails the layout, so text with no LF is never held whole.
    """
    rest = b""
    while chunk := fh.read(_TEXT_BLOCK):
        if isinstance(chunk, str):  # any non-ASCII byte fails the layout anyway
            chunk = chunk.encode("utf-8", "surrogatepass")
        block = rest + chunk
        end = block.rfind(b"\n") + 1
        if not end and len(block) > _MAX_LINE:
            end = len(block)
        rest = block[end:]
        if end:
            yield block[:end]
    if rest:
        yield rest


def _read_log_block(data: bytes) -> Optional[tuple]:
    """Whole lines in the canonical layout as columns, else None.

    The columns are ts, bitcoins_e8, money_e5, side, users, user, trade_ids
    and trade: `users` and `trade_ids` are the block's sorted distinct names
    as 'S' arrays, `user` and `trade` each row's index into them.
    """
    if not data.endswith(b"\r\n") or b'"' in data:  # nothing here undoes csv quoting
        return None
    buf = np.frombuffer(data, np.uint8)
    if buf.max() > ord("~"):  # no DEL, no byte past ASCII
        return None
    cuts = np.flatnonzero((buf == ord(",")) | (buf == ord("\r")))
    n = len(cuts) // 7
    if len(cuts) != 7 * n:
        return None
    # cell k of row i spans buf[lo(k)[i]:hi[i, k]]
    hi = cuts.reshape(n, 7)
    # each line is 6 commas and CRLF apart, and no other control byte (NUL, tab, ...) is anywhere
    ends = hi[:, 6]
    if (
        np.any(buf[ends] != ord("\r"))
        or np.any(buf[ends + 1] != ord("\n"))
        or np.count_nonzero(buf < 32) != 2 * n
    ):
        return None

    def lo(k: int) -> np.ndarray:
        return np.concatenate(([0], hi[:-1, 6] + 2)) if k == 0 else hi[:, k - 1] + 1

    # each check below reads windows that end in cells the checks before it sized
    ts = _read_stamps(buf, lo(2), hi[:, 2])
    if ts is None or not np.all(_spelled(buf, lo(3), hi[:, 3], b"USD")):
        return None
    btc = _read_fixed(buf, lo(4), hi[:, 4], BTC_DECIMALS)
    money = _read_fixed(buf, lo(5), hi[:, 5], MONEY_DECIMALS)
    buy = _spelled(buf, lo(6), hi[:, 6], b"buy")
    names = [_read_name(buf, lo(k), hi[:, k]) for k in (0, 1)]
    if (
        btc is None
        or money is None
        or not np.all(buy | _spelled(buf, lo(6), hi[:, 6], b"sell"))
        or any(c is None for c in names)
    ):
        return None
    side = np.where(buy, BUY, SELL).astype(np.int8)
    (users, user), (trade_ids, trade) = (np.unique(c, return_inverse=True) for c in names)
    return ts, btc, money, side, users, user, trade_ids, trade


def _right_aligned(buf: np.ndarray, hi: np.ndarray, width: int) -> np.ndarray:
    """(len(hi), width) bytes: row i is buf[hi[i] - width:hi[i]].

    The callers read cells far enough into their buffer that no window starts
    before it: after the header line, or after a line's leading cells.
    """
    return sliding_window_view(buf, width)[hi - width]


def _read_fixed(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, decimals: int):
    """Cells buf[lo:hi] spelled `<1.._MAX_WHOLE digits>.<decimals digits>` as int64, else None."""
    width = _MAX_WHOLE[decimals] + 1 + decimals
    size = hi - lo
    if size.min() < decimals + 2 or size.max() > width:
        return None
    chars = _right_aligned(buf, hi, width)
    point = width - 1 - decimals
    if np.any(chars[:, point] != ord(".")):
        return None
    digits = chars - np.uint8(ord("0"))
    digits[np.arange(width) < (width - size)[:, None]] = 0  # before the cell
    digits[:, point] = 0
    if np.any(digits > 9):
        return None
    value = np.zeros(len(hi), np.int64)
    for c in range(width):
        if c != point:
            value = value * 10 + digits[:, c]
    return value


def _spelled(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, word: bytes) -> np.ndarray:
    """Per cell buf[lo:hi], whether it is exactly `word`."""
    chars = _right_aligned(buf, hi, len(word))
    return (hi - lo == len(word)) & np.all(chars == np.frombuffer(word, np.uint8), axis=1)


def _read_stamps(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Optional[np.ndarray]:
    """Cells buf[lo:hi] spelled as `fmt_ts` spells a valid time, as epoch seconds, else None."""
    if np.any(hi - lo != 19):
        return None
    chars = _right_aligned(buf, hi, 19)
    if not np.array_equal(chars[:, [4, 7, 10, 13, 16]], np.broadcast_to(_TS_MARKS, (len(hi), 5))):
        return None
    digits = chars - np.uint8(ord("0"))
    digits[:, [4, 7, 10, 13, 16]] = 0
    if np.any(digits > 9):
        return None

    def number(a: int, b: int) -> np.ndarray:
        value = digits[:, a].astype(np.int64)
        for c in range(a + 1, b):
            value = value * 10 + digits[:, c]
        return value

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second = number(11, 13), number(14, 16), number(17, 19)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    if not (
        np.all(year >= 1)
        and np.all((month >= 1) & (month <= 12))
        and np.all((day >= 1) & (day <= month_days))
        and np.all((hour <= 23) & (minute <= 59) & (second <= 59))
    ):
        return None
    # days from 1970-01-01 to the date, counting years from March (H. Hinnant's days_from_civil)
    y = year - (month <= 2)
    era = y // 400
    yoe = y - 400 * era
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = 146097 * era + 365 * yoe + yoe // 4 - yoe // 100 + doy - 719468
    return DAY * days + 3600 * hour + 60 * minute + second


def _read_name(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Optional[np.ndarray]:
    """Cells buf[lo:hi] as an 'S' array, if each is 1 to `_MAX_NAME` bytes and not blank-padded."""
    size = hi - lo
    width = int(size.max())
    if size.min() < 1 or width > _MAX_NAME:
        return None
    if np.any(buf[lo] == ord(" ")) or np.any(buf[hi - 1] == ord(" ")):
        return None
    if int(lo[-1]) + width > len(buf):
        buf = np.concatenate((buf, np.zeros(width, np.uint8)))
    chars = sliding_window_view(buf, width)[lo]
    chars[np.arange(width) >= size[:, None]] = 0  # past the cell
    return chars.view(f"S{width}").ravel()


def _merge_codes(names: list[np.ndarray], codes: array) -> tuple[np.ndarray, np.ndarray]:
    """Codes into the concatenated `names` (blocks of sorted 'S' names): codes into their
    sorted union, and that union as str. Empties `names`."""
    union, index = np.unique(np.concatenate(names), return_inverse=True)
    names.clear()
    # the names, one per line: they hold neither LF nor NUL (which pads them here)
    n = len(union)
    chars = np.column_stack((union.view(np.uint8).reshape(n, -1), np.full(n, ord("\n"), np.uint8)))
    text = chars[chars != 0].tobytes().decode("ascii")
    del chars
    return index[np.frombuffer(codes, np.int64)], np.array(text.split("\n")[:-1], dtype=object)


def pair_and_dedup(parsed: ParseResult) -> TradeLedger:
    """Join order halves by trade id, assign roles, drop exact duplicates.

    Non-USD halves are dropped before pairing. A trade id seen more than twice
    is unresolvable and raises PairingError naming the ids; ids seen once are
    counted as unpaired and skipped. Roles come from an explicit buy/sell side
    when exactly one interpretation fits, otherwise the first-seen half is the
    buyer. Amounts and timestamp are taken from the first-seen half.

    Duplicates share the combined key (buyer, seller, bitcoins, money,
    timestamp) and collapse to one trade. Output is sorted by that key,
    timestamp first.
    """
    usd = np.flatnonzero(parsed.usd)
    trade = parsed.trade[usd]
    counts = np.bincount(trade, minlength=len(parsed.trade_ids))
    ambiguous = np.flatnonzero(counts > 2)
    if len(ambiguous):
        raise PairingError(parsed.trade_ids[ambiguous].tolist())

    # USD halves grouped by trade id, each id's halves in file order
    grouped = usd[np.argsort(trade, kind="stable")]
    first = (np.cumsum(counts) - counts)[counts == 2]
    a, b = grouped[first], grouped[first + 1]
    side_a, side_b = parsed.side[a], parsed.side[b]
    # the second-seen half buys when the first does not say buy and either the
    # second says buy or the first says sell
    swap = (side_a != BUY) & ((side_b == BUY) | (side_a == SELL))
    buyer = np.where(swap, parsed.user[b], parsed.user[a])
    seller = np.where(swap, parsed.user[a], parsed.user[b])

    columns = (parsed.ts[a], buyer, seller, parsed.bitcoins_e8[a], parsed.money_e5[a])
    order = np.lexsort(columns[::-1])
    columns = [c[order] for c in columns]
    first_of_key = np.ones(len(order), dtype=bool)
    first_of_key[1:] = np.any([c[1:] != c[:-1] for c in columns], axis=0)
    ts, buyer, seller, btc, money = (c[first_of_key] for c in columns)

    stats = DedupStats(
        raw_rows=len(parsed),
        dropped_non_usd=len(parsed) - len(usd),
        unpaired=int(np.count_nonzero(counts == 1)),
        paired=len(a),
        duplicates_removed=len(a) - len(ts),
        deduplicated=len(ts),
    )
    return TradeLedger(ts, buyer, seller, btc, money, parsed.user_names, stats)


def format_timestamps(ts: np.ndarray) -> list[str]:
    """`fmt_ts` over an int64 column."""
    text = np.datetime_as_string(np.asarray(ts).astype("datetime64[s]")).tolist()
    return [t.replace("T", " ") for t in text]


def format_fixed(values: np.ndarray, decimals: int) -> list[str]:
    """Inverse of parse_scaled over an int64 column: `<whole>.<exactly decimals digits>`."""
    if len(values) and values.min() < 0:
        raise ValueError("negative fixed-point value")
    whole, frac = np.divmod(values, 10**decimals)
    return list(map(f"%d.%0{decimals}d".__mod__, zip(whole.tolist(), frac.tolist())))


def write_canonical_csv(
    stream: IO[str], trade_ids, buyers, sellers, ts, bitcoins_e8, money_e5
) -> int:
    """Write trades as canonical half rows, the buy half first; returns the trade count.

    `trade_ids`, `buyers` and `sellers` are sequences of names, the rest int64
    columns, one entry per trade. Re-ingesting the output reproduces the
    trades (pairing keeps the first-seen half as buyer and takes its amounts).
    The text is what `csv.writer` writes: CRLF lines, a name quoted only where
    it holds a comma, quote, CR or LF.
    """
    stream.write(_LOG_HEADER.decode())
    for i in range(0, len(ts), _BLOCK):
        part = slice(i, i + _BLOCK)
        ids = _csv_cells(trade_ids[part])
        stamps = format_timestamps(ts[part])
        btc = format_fixed(bitcoins_e8[part], BTC_DECIMALS)
        money = format_fixed(money_e5[part], MONEY_DECIMALS)
        trades = zip(_csv_cells(buyers[part]), ids, stamps, btc, money, _csv_cells(sellers[part]))
        stream.write("".join(map(_write_trade, trades)))
    return len(ts)


def _write_trade(cells: tuple) -> str:
    buyer, tid, stamp, btc, money, seller = cells
    return (
        f"{buyer},{tid},{stamp},USD,{btc},{money},buy\r\n"
        f"{seller},{tid},{stamp},USD,{btc},{money},sell\r\n"
    )


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_cells(names) -> list[str]:
    """Names as `csv.QUOTE_MINIMAL` spells them: quoted, quotes doubled, where they need it."""
    cells = map(str, names)
    return ['"' + n.replace('"', '""') + '"' if _NEEDS_QUOTES.search(n) else n for n in cells]


@dataclass
class AuxSeries:
    """A timestamped auxiliary series: an int64 `ts` column, strictly increasing,
    and in `values` one float64 column per value name (see `parse_aux`)."""

    kind: str
    ts: np.ndarray
    values: dict[str, np.ndarray]
    row_errors: list[tuple[int, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ts)


_AUX_SCHEMAS = {
    "onchain": ["timestamp", "transaction_id", "address", "type", "amount"],
    "market_daily": ["date", "volume_btc"],
    "supply": ["date", "circulating_supply"],
    "trends": ["week_start", "score"],
    "asset_bar": ["timestamp", "close", "tick", "volume"],
}


def parse_aux(source: Source, kind: str) -> AuxSeries:
    """Parse an auxiliary CSV of the given kind.

    The value columns are "input" and "output" for onchain (sums per
    timestamp), "close", "tick" and "volume" for asset_bar, and "volume_btc",
    "supply" or "score" for the daily kinds market_daily, supply or trends.
    Daily kinds must be strictly increasing; a duplicated or out-of-order date
    is fatal. asset_bar duplicates keep the later row (a warning is logged).
    Malformed rows are skipped and collected.
    """
    if kind not in _AUX_SCHEMAS:
        raise SchemaError(f"unknown aux kind {kind!r}; expected one of {sorted(_AUX_SCHEMAS)}")
    cols = _AUX_SCHEMAS[kind]
    with _open_text(source, f"aux {kind!r}") as fh:
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
    return AuxSeries(kind, *_assemble_aux(kind, rows), errors)


def _parse_aux_row(kind: str, vals: list[str]) -> tuple:
    if kind == "onchain":
        ts = parse_ts(vals[0])
        direction = vals[3].lower()
        if direction not in ("input", "output"):
            raise ValueError(f"bad transfer type {vals[3]!r}")
        amount = float(vals[4])
        if not (amount >= 0.0 and math.isfinite(amount)):
            raise ValueError(f"bad amount {vals[4]!r}")
        return (ts, direction == "output", amount)
    if kind == "asset_bar":
        ts = parse_ts(vals[0])
        close = float(vals[1])
        if not (close > 0.0 and math.isfinite(close)):
            raise ValueError(f"bad close {vals[1]!r}")
        tick = float(vals[2]) if vals[2] else 0.0
        volume = float(vals[3]) if vals[3] else 0.0
        if not (math.isfinite(tick) and math.isfinite(volume)):
            raise ValueError(f"non-finite tick or volume {vals[2]!r}, {vals[3]!r}")
        return (ts, close, tick, volume)
    # daily kinds: (date-ish, value)
    ts = parse_date(vals[0])
    value = float(vals[1])
    if not math.isfinite(value):
        raise ValueError(f"bad value {vals[1]!r}")
    return (ts, value)


def bin_sums(slot: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """float64 sums of `weights` into `n` slots, each slot added in index order."""
    return np.bincount(slot, weights, minlength=n).astype(np.float64, copy=False)


def last_of_runs(keys: np.ndarray) -> np.ndarray:
    """Mask of the last element of each run of equal adjacent keys."""
    return np.append(keys[1:] != keys[:-1], True)[: len(keys)]


def _assemble_aux(kind: str, rows: list[tuple]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    columns = list(zip(*rows)) or [()] * 4  # no rows: empty columns, as many as asset_bar's
    ts = np.array(columns[0], dtype=np.int64)
    if kind == "onchain":
        ts, slot = np.unique(ts, return_inverse=True)
        output = np.array(columns[1], dtype=bool)
        amount = np.array(columns[2], dtype=np.float64)
        sides = (("input", ~output), ("output", output))
        return ts, {name: bin_sums(slot[side], amount[side], len(ts)) for name, side in sides}
    values = [np.array(c, dtype=np.float64) for c in columns[1:]]
    if kind == "asset_bar":
        order = np.argsort(ts, kind="stable")
        keep = order[last_of_runs(ts[order])]
        if len(keep) < len(ts):
            log.warning("asset_bar: %d duplicate timestamps, kept later rows", len(ts) - len(keep))
        return ts[keep], {name: v[keep] for name, v in zip(("close", "tick", "volume"), values)}
    bad = np.flatnonzero(np.diff(ts) <= 0)
    if len(bad):
        i = int(bad[0])
        raise DataError(
            f"aux {kind!r}: dates must be strictly increasing, saw {fmt_date(int(ts[i + 1]))} "
            f"after {fmt_date(int(ts[i]))}"
        )
    key = {"market_daily": "volume_btc", "supply": "supply", "trends": "score"}[kind]
    return ts, {key: values[0]}
