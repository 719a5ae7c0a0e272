"""Property-based invariants of the ledger -> bars path.

Random small canonical ledgers (zero-BTC and zero-money trades, repeated
trades the dedup folds, empty bars and empty ledgers included) must conserve
fixed-point volume from the flagged ledger into the bars, and the bars must
survive a CSV round trip byte for byte. Per-day sums must equal a plain
left-to-right sum, and fixed-point amounts must round-trip in any spelling
the parser accepts. On random half-row ledgers (unpaired ids, non-USD rows,
ids seen three times) the dedup counts must match a brute-force recount. On
random bar frames, the column-at-a-time bars.csv reader and the row parser
must agree: the same frame and digest from canonical and respelled text, and
the same error from a row broken in one cell. The same holds for trades.csv:
on random ledgers written by `write_canonical_csv`, respelled copies and
copies with one broken cell, the column-at-a-time reader and the row parser
must give equal parse results, and the writer must match `csv.writer` byte
for byte. Aux series held as columns must
give what the per-point code gave: the same input digest on random series of
every kind, the same on-chain sums per timestamp, the same on-chain bar bins
and the same asset bars. Least squares must not depend on the data's scale:
an ADF statistic is unchanged by any scale and offset of the series, and an
OLS t-value by any column's scale.
"""

import csv
import io
import math
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goxlens import features, ingest, studies
from goxlens.econometrics import adf, ols
from goxlens.detect import TimeWindow, flag_wash
from goxlens.errors import DataError, PairingError
from goxlens.features import (
    ASSET_COLUMNS,
    BAR_SECONDS,
    STUDY_SERIES,
    BarSeries,
    QuartileLabel,
    build_asset_bars,
    build_bars,
    content_digest,
    daily_sums,
)
from goxlens.ingest import (
    BTC_DECIMALS,
    DAY,
    FIRST_TS,
    LAST_TS,
    MONEY_DECIMALS,
    AuxSeries,
    fmt_ts,
    format_fixed,
    parse_aux,
    parse_date,
    parse_scaled,
    parse_trade_log,
    parse_ts,
    write_canonical_csv,
)

from conftest import bars_from_arrays, canonical_csv, halves, ledger_of, trade_keys

D0 = parse_date("2012-01-01")
WINDOW = TimeWindow.from_dates("2012-01-01", "2012-01-02")

trade = st.tuples(
    st.integers(0, 3),  # buyer
    st.integers(0, 3),  # seller; equal ids make a wash trade
    st.integers(0, 2 * DAY - 1),  # seconds into the window
    st.one_of(st.just(0), st.integers(1, 10**10)),  # bitcoins_e8
    st.one_of(st.just(0), st.integers(1, 10**9)),  # money_e5
)
PROPERTY = settings(max_examples=60, deadline=None, database=None)


def _spelled(value, decimals):
    """A fixed-point amount spelled as the writers spell it."""
    return f"{value // 10**decimals}.{value % 10**decimals:0{decimals}d}"


def _flagged(trades):
    rows = []
    for i, (buyer, seller, sec, btc, money) in enumerate(trades):
        rows += halves(
            f"u{buyer}",
            f"u{seller}",
            f"t{i}",
            fmt_ts(D0 + sec),
            _spelled(btc, BTC_DECIMALS),
            _spelled(money, MONEY_DECIMALS),
        )
    return flag_wash(ledger_of(canonical_csv(rows)), WINDOW)


@PROPERTY
@given(st.lists(trade, max_size=40))
def test_bars_conserve_ledger_volume(trades):
    flagged = _flagged(trades)
    bars = build_bars(flagged)
    assert len(bars) == 2 * DAY // BAR_SECONDS

    btc = flagged.bitcoins_e8.tolist()
    total = [0] * len(bars)
    for ts, b in zip(flagged.ts.tolist(), btc):
        total[(ts - WINDOW.start) // BAR_SECONDS] += b
    assert (bars.wash_e8 + bars.nonwash_e8).tolist() == total

    assert int(bars.wash_e8.sum()) == sum(b for b, w in zip(btc, flagged.wash) if w)
    assert int(bars.nonwash_e8.sum()) == sum(b for b, w in zip(btc, flagged.wash) if not w)
    assert int(bars.dollar_e5.sum()) == sum(flagged.money_e5.tolist())
    assert int(bars.n_trades.sum()) == len(flagged)


@PROPERTY
@given(st.lists(trade, max_size=40))
def test_bars_csv_round_trip_and_total_column(trades):
    buf = io.StringIO()
    build_bars(_flagged(trades)).to_csv(buf)
    again = io.StringIO()
    BarSeries.from_csv(io.StringIO(buf.getvalue())).to_csv(again)
    assert again.getvalue() == buf.getvalue()

    for line in buf.getvalue().splitlines()[1:]:
        _start, wash, nonwash, total = line.split(",")[:4]
        assert parse_scaled(total, 8) == parse_scaled(wash, 8) + parse_scaled(nonwash, 8)


@PROPERTY
@given(
    st.integers(1, 4).flatmap(
        lambda days: st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=48 * days, max_size=48 * days
        )
    )
)
def test_daily_sums_match_a_left_to_right_sum(values):
    bars = bars_from_arrays(np.arange(len(values), dtype=float), liq=values, t0=D0)
    for name in (*STUDY_SERIES, "dollar"):
        col = bars.column(name).tolist()
        want = []
        for day in range(len(col) // 48):
            acc = 0.0
            for v in col[48 * day : 48 * (day + 1)]:
                acc += v
            want.append((D0 + day * DAY, acc))
        assert daily_sums(bars, name) == want


@PROPERTY
@given(st.integers(0, 10**20), st.sampled_from([BTC_DECIMALS, MONEY_DECIMALS]), st.data())
def test_scaled_amounts_round_trip_in_any_spelling(value, decimals, data):
    text = _spelled(value, decimals)
    if value < 2**63:  # the int64 columns the writers format
        assert format_fixed(np.array([value]), decimals) == [text]
    assert parse_scaled(text, decimals) == value
    # the same amount with zeros trimmed or padded on the left, or blanks around it
    whole, frac = text.split(".")
    trimmed = frac.rstrip("0")
    spelled = data.draw(
        st.sampled_from(
            [
                f"{whole}.{trimmed}" if trimmed else whole,
                f"00{text}",
                f" {text} ",
                f".{frac}" if whole == "0" else text,
            ]
        )
    )
    assert parse_scaled(spelled, decimals) == value


# small domains, so equal trades (the duplicates dedup folds) are common
small_trade = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)


@PROPERTY
@given(
    st.lists(small_trade, max_size=30),
    st.lists(st.integers(0, 29), max_size=4),  # trades that get a non-USD third half
    st.integers(0, 4),  # orphan USD halves, each under a fresh id
    st.lists(st.integers(0, 29), max_size=2),  # trades that get a USD third half
    st.data(),
)
def test_dedup_stats_match_a_brute_force_recount(trades, non_usd, orphans, triples, data):
    rows = []
    for i, (buyer, seller, sec, btc, money) in enumerate(trades):
        rows += halves(f"u{buyer}", f"u{seller}", f"t{i}", fmt_ts(D0 + sec), f"{btc}.0", f"{money}.0")
    non_usd = [i for i in non_usd if i < len(trades)]
    for i in non_usd:
        rows.append(("u9", f"t{i}", fmt_ts(D0), "EUR", "1.0", "1.0", "buy"))
    for j in range(orphans):
        rows.append((f"u{j}", f"o{j}", fmt_ts(D0), "USD", "1.0", "1.0", "sell"))
    tripled = sorted({f"t{i}" for i in triples if i < len(trades)})
    for tid in tripled:
        rows.append(("u9", tid, fmt_ts(D0), "USD", "1.0", "1.0", "sell"))
    rows = data.draw(st.permutations(rows))

    if tripled:
        with pytest.raises(PairingError) as err:
            ledger_of(canonical_csv(rows))
        assert err.value.trade_ids == tripled
        return
    ledger = ledger_of(canonical_csv(rows))
    # a trade's key: buyer, seller, then the amounts and time in fixed point
    keys = {(f"u{b}", f"u{s}", D0 + sec, btc * 10**8, money * 10**5) for b, s, sec, btc, money in trades}
    stats = ledger.stats
    assert stats.raw_rows == len(rows)
    assert stats.dropped_non_usd == len(non_usd)
    assert stats.unpaired == orphans
    assert stats.paired == len(trades)
    assert stats.deduplicated == len(keys) == len(ledger)
    assert stats.paired - stats.duplicates_removed == stats.deduplicated
    assert sorted((b, s, ts, btc, money) for b, s, btc, money, ts in trade_keys(ledger)) == sorted(keys)


def _reference_ledger(rows):
    """Plain-Python pairing and dedup: a dict of halves per trade id, a seen-set, a sort.

    The reference for the columnar `pair_and_dedup`. Takes canonical half rows
    (user, trade id, timestamp, currency, bitcoins, money, side), all valid;
    returns the ledger's (buyer, seller, bitcoins_e8, money_e5, ts) keys in
    output order and its `DedupStats` as a dict, or raises PairingError.
    """
    by_id = {}
    dropped = 0
    for user, tid, ts, currency, btc, money, side in rows:
        if currency != "USD":
            dropped += 1
            continue
        side = side.strip().lower()
        half = (user, parse_ts(ts), parse_scaled(btc, 8), parse_scaled(money, 5), side)
        by_id.setdefault(tid, []).append(half)
    ambiguous = sorted(tid for tid, halves in by_id.items() if len(halves) > 2)
    if ambiguous:
        raise PairingError(ambiguous)
    paired = []
    unpaired = 0
    for halves in by_id.values():
        if len(halves) == 1:
            unpaired += 1
            continue
        a, b = halves
        if a[4] == "buy":
            buyer, seller = a, b
        elif b[4] == "buy":
            buyer, seller = b, a
        elif a[4] == "sell":
            buyer, seller = b, a
        else:
            buyer, seller = a, b
        paired.append((buyer[0], seller[0], a[2], a[3], a[1]))
    seen = set()
    unique = []
    for key in paired:
        if key not in seen:
            seen.add(key)
            unique.append(key)
    unique.sort(key=lambda k: (k[4], k[0], k[1], k[2], k[3]))
    stats = {
        "raw_rows": len(rows),
        "dropped_non_usd": dropped,
        "unpaired": unpaired,
        "paired": len(paired),
        "duplicates_removed": len(paired) - len(unique),
        "deduplicated": len(unique),
    }
    return unique, stats


# users whose string order differs from their numeric or case-folded order,
# and non-ASCII ones; sides in every spelling the parser maps
AWKWARD_USERS = ["u1", "u10", "U1", "u2", "\u00e9", "e\u0301", "\u65e5\u672c", "a b"]
half_row = st.tuples(
    st.sampled_from(AWKWARD_USERS),
    st.sampled_from(["buy", "sell", "", "BUY", " Sell ", "bid"]),
    st.sampled_from(["USD", "USD", "USD", "EUR"]),
)
paired_trade = st.tuples(
    st.sampled_from(["t", "T", "\u00e9"]),  # trade id prefix
    half_row,
    half_row,
    st.integers(0, 2),  # seconds
    st.integers(0, 2),  # bitcoins
    st.integers(0, 2),  # money
    st.sampled_from([2, 2, 2, 1, 3]),  # halves written: orphans and ids seen three times too
)


@PROPERTY
@given(st.lists(paired_trade, max_size=30), st.data())
def test_columnar_pairing_matches_the_dict_reference(trades, data):
    rows = []
    for i, (prefix, first, second, sec, btc, money, n_halves) in enumerate(trades):
        for user, side, currency in (first, second, first)[:n_halves]:
            rows.append((user, f"{prefix}{i}", fmt_ts(D0 + sec), currency, f"{btc}.5", f"{money}.0", side))
    rows = data.draw(st.permutations(rows))
    try:
        want, want_stats = _reference_ledger(rows)
    except PairingError as err:
        with pytest.raises(PairingError) as got:
            ledger_of(canonical_csv(rows))
        assert got.value.trade_ids == err.trade_ids
        return
    ledger = ledger_of(canonical_csv(rows))
    assert trade_keys(ledger) == want
    assert ledger.stats.as_dict() == want_stats


# --- bars.csv codec: the column-at-a-time reader against the row parser ------

# amounts past the bulk reader's digit bound (10**18) still fit int64 here
btc_e8 = st.one_of(st.integers(0, 10**12), st.integers(0, 4 * 10**18))
dollar_e5 = st.one_of(st.integers(0, 10**9), st.integers(0, 2**63 - 1))
frame = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.integers(0, 2 * 10**5).map(lambda k: D0 + (k - 10**5) * BAR_SECONDS),
        *(st.lists(cell, min_size=n, max_size=n) for cell in (btc_e8, btc_e8, dollar_e5)),
        *(st.lists(st.floats(), min_size=n, max_size=n) for _ in range(3)),
    )
)


def _frame_text(spec) -> str:
    t0, wash, nonwash, dollar, vwap, liq, vol = spec
    n = len(wash)
    bars = BarSeries(
        t0 + BAR_SECONDS * np.arange(n), wash, nonwash, dollar, np.zeros(n, np.int64),
        vwap, liq, vol, TimeWindow(t0, t0 + n * BAR_SECONDS),
    )
    buf = io.StringIO()
    bars.to_csv(buf)
    return buf.getvalue()


def _load(text: str, rows_only: bool):
    """from_csv over `text`, or with the bulk reader turned off; DataError as a value."""
    bulk_off = mock.patch.object(features, "_read_canonical", return_value=None)
    with bulk_off if rows_only else nullcontext():
        try:
            return BarSeries.from_csv(io.StringIO(text), label="prop")
        except DataError as err:
            return str(err)


def _same_frame(a, b) -> bool:
    return (
        all(
            getattr(a, name).dtype == getattr(b, name).dtype
            and getattr(a, name).tobytes() == getattr(b, name).tobytes()
            for name in features._COLUMNS.names
        )
        and a.window == b.window
        and a.label == b.label
    )


def _respell(text: str, data) -> str:
    """The same bars in other spellings `_parse_bar_row` accepts."""
    eol = data.draw(st.sampled_from(["\r\n", "\n"]), label="line ending")
    lines = text.split("\r\n")[:-1]
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        start = cells[0]
        cells[0] = data.draw(st.sampled_from([
            start, start.replace(" ", "T"), str(parse_ts(start)) if parse_ts(start) >= 0 else start,
        ]))
        for k in (1, 2, 3, 4):
            whole, frac = cells[k].split(".")
            frac = frac.rstrip("0")
            cells[k] = data.draw(st.sampled_from([cells[k], f"{whole}.{frac}" if frac else whole]))
        cells = [f'"{c}"' if data.draw(st.booleans()) else c for c in cells]
        out.append(",".join(cells))
    return eol.join(out) + eol + data.draw(st.sampled_from(["", eol]), label="blank line")


@PROPERTY
@given(frame, st.data())
def test_bulk_bars_reader_matches_the_row_parser(spec, data):
    text = _frame_text(spec)
    bulk = _load(text, rows_only=False)
    rows = _load(text, rows_only=True)
    if isinstance(rows, str):  # an amount the row parser rejects: same message both ways
        assert bulk == rows
        return
    assert _same_frame(bulk, rows)
    assert bulk.source_digest == rows.source_digest == features.content_digest("bars", "prop", text)

    respelled = _respell(text, data)
    again, again_rows = _load(respelled, rows_only=False), _load(respelled, rows_only=True)
    assert _same_frame(again, again_rows) and _same_frame(again, bulk)
    assert again.source_digest == again_rows.source_digest == features.content_digest(
        "bars", "prop", respelled
    )


BROKEN_CELLS = {
    0: ["2012-01-01 25:00:00", "2012x01x01 00:00:00", "2012-01-01 00:00:0", "", "now",
        "\u0661\u0662\u0663", "\u00b2"],
    1: ["1.0x", "1.123456789", "-1.00000000", "+1.00000000", "1e3", ".", "", "\u0663.5", "\u00b2"],
    2: ["2.0.0", " ", "1,5"],
    3: ["9.00000000", "0.00000001"],
    4: ["1.000001", "0.0000a", "99999999999999.00000"],
    5: ["zero", "1.0.0"],
    6: ["", "zero", "1..0"],
    7: ["", "x"],
}


@PROPERTY
@given(frame, st.data())
def test_broken_bars_row_fails_alike_on_both_paths(spec, data):
    lines = _frame_text(spec).split("\r\n")
    i = data.draw(st.integers(1, len(lines) - 2), label="row")
    cells = lines[i].split(",")
    k = data.draw(st.sampled_from(sorted(BROKEN_CELLS)), label="cell")
    cells[k] = data.draw(st.sampled_from(BROKEN_CELLS[k]), label="text")
    lines[i] = ",".join(cells)
    text = "\r\n".join(lines)
    bulk, rows = _load(text, rows_only=False), _load(text, rows_only=True)
    if not isinstance(rows, str):  # the new cell happens to be valid (say, total = wash + nonwash)
        assert _same_frame(bulk, rows)
        return
    assert bulk == rows
    assert rows.startswith(f"bars line {i + 1}: ") or rows.startswith("bar grid broken")


# --- trades.csv codec: the column-at-a-time reader against the row parser ---

# names in every class the bulk reader treats apart: plain, needing csv quotes,
# blank at an end, non-ASCII; an empty one is a row error
LOG_NAMES = ["u1", "~", "a,b", 'say "hi"', " pad", "pad ", "\u00e9", "\u65e5\u672c", "x\ny", "cr\r", "d\x7f", ""]
name = st.one_of(
    st.text(st.sampled_from("abz019_-.:/"), min_size=1, max_size=12), st.sampled_from(LOG_NAMES)
)
log_amount = st.one_of(st.just(0), st.integers(0, 10**12), st.integers(0, 2**63 - 1))
log_trade = st.tuples(
    name, name, name,  # trade id, buyer, seller
    st.one_of(st.integers(FIRST_TS, LAST_TS), st.sampled_from([FIRST_TS, LAST_TS, 0, D0])),
    log_amount, log_amount,
)


def _log_text(trades) -> str:
    ids, buyers, sellers, ts, btc, money = (list(c) for c in zip(*trades)) if trades else ([],) * 6
    buf = io.StringIO()
    write_canonical_csv(
        buf, ids, buyers, sellers, *(np.array(c, dtype=np.int64) for c in (ts, btc, money))
    )
    return buf.getvalue()


def _parse_log(text: str, rows_only: bool, binary: bool = False):
    """parse_trade_log over `text`, or with the bulk reader turned off."""
    bulk_off = mock.patch.object(ingest, "_read_canonical_log", return_value=None)
    source = io.BytesIO(text.encode()) if binary else io.StringIO(text)
    with bulk_off if rows_only else nullcontext():
        return parse_trade_log(source, schema="canonical")


def _same_parse(a, b) -> bool:
    columns = ("ts", "bitcoins_e8", "money_e5", "user", "trade", "side", "usd")
    return (
        all(
            getattr(a, c).dtype == getattr(b, c).dtype
            and getattr(a, c).tobytes() == getattr(b, c).tobytes()
            for c in columns
        )
        and a.user_names.dtype == b.user_names.dtype == object
        and a.user_names.tolist() == b.user_names.tolist()
        and a.trade_ids.tolist() == b.trade_ids.tolist()
        and a.row_errors == b.row_errors
        and a.n_rows == b.n_rows
    )


def _plain(text: str) -> bool:
    """A name the bulk reader takes: printable ASCII, no comma or quote, no blank at an end."""
    return (
        text.isascii() and text.isprintable() and text == text.strip() != "" and not set(text) & set(',"')
    )


@PROPERTY
@given(st.lists(log_trade, max_size=12), st.booleans())
def test_bulk_trade_log_reader_matches_the_row_parser(trades, binary):
    text = _log_text(trades)
    with mock.patch.object(ingest, "_parse_rows", wraps=ingest._parse_rows) as rows:
        bulk = _parse_log(text, rows_only=False, binary=binary)
    assert _same_parse(bulk, _parse_log(text, rows_only=True))
    # the bulk reader must take every file in the layout, not just agree when it falls back
    in_layout = all(
        _plain(tid) and _plain(buyer) and _plain(seller) and max(btc, money) < 10**18
        for tid, buyer, seller, _ts, btc, money in trades
    )
    assert rows.called == (not trades or not in_layout)


@pytest.mark.parametrize("text", LOG_NAMES)
def test_each_awkward_name_reads_alike_on_both_paths(text):
    log = _log_text([("t0", text, "b", D0, 1, 2), (text, "a", text, D0 + 1, 3, 4)])
    with mock.patch.object(ingest, "_parse_rows", wraps=ingest._parse_rows) as rows:
        bulk = _parse_log(log, rows_only=False)
    assert _same_parse(bulk, _parse_log(log, rows_only=True))
    assert rows.called == (not _plain(text))


plain_trade = st.tuples(
    *(st.text(st.sampled_from("ab0"), min_size=1, max_size=3) for _ in range(3)),
    st.integers(FIRST_TS, LAST_TS),
    st.integers(0, 10**12),
    st.integers(0, 10**12),
)


def _respell_log(text: str, data) -> str:
    """The same half rows in other spellings `_parse_rows` reads, or (BUY, EUR) maps alike."""
    eol = data.draw(st.sampled_from(["\r\n", "\n"]), label="line ending")
    lines = text.split("\r\n")[:-1]
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        pick = lambda *options: data.draw(st.sampled_from(options))  # noqa: E731
        cells[0] = pick(cells[0], f" {cells[0]}", f"{cells[0]} ")
        cells[2] = pick(cells[2], cells[2].replace(" ", "T"))
        cells[3] = pick("USD", " USD", "EUR")
        for k in (4, 5):
            whole, frac = cells[k].split(".")
            frac = frac.rstrip("0")
            cells[k] = pick(cells[k], f"{whole}.{frac}" if frac else whole)
        cells[6] = pick(cells[6], cells[6].upper(), f" {cells[6]}")
        cells = [f'"{c}"' if data.draw(st.booleans()) else c for c in cells]
        out.append(",".join(cells))
        if data.draw(st.integers(0, 9)) == 0:
            out.append("")
    return eol.join(out) + eol


@PROPERTY
@given(st.lists(plain_trade, min_size=1, max_size=10), st.data())
def test_respelled_trade_log_parses_alike_on_both_paths(trades, data):
    text = _log_text(trades)
    bulk = _parse_log(text, rows_only=False)
    respelled = _respell_log(text, data)
    again = _parse_log(respelled, rows_only=False)
    assert _same_parse(again, _parse_log(respelled, rows_only=True))
    if "EUR" not in respelled:
        assert _same_parse(again, bulk)


BROKEN_LOG_CELLS = {
    0: ["", " ", "\t"],
    1: ["", "  "],
    2: ["2012-02-30 00:00:00", "1900-02-29 00:00:00", "0000-01-01 00:00:00", "2012-01-01 24:00:00",
        "2012-01-01 00:00", "10000-01-01 00:00:00", "\u0661\u0662\u0663", "\u00b2"],
    3: ["usd", "US D", ""],
    4: ["1.0x", "-1.00000000", "1.123456789", "\u0663.5", "\u00b2", "99999999999.00000000", ""],
    5: ["1.000001", "0.0000a", "99999999999999.00000", "\u00b2"],
    6: ["", "hold", "Sell", "buy\x00"],
}


@PROPERTY
@given(st.lists(plain_trade, min_size=1, max_size=10), st.data())
def test_broken_trade_log_row_fails_alike_on_both_paths(trades, data):
    lines = _log_text(trades).split("\r\n")
    i = data.draw(st.integers(1, len(lines) - 2), label="row")
    cells = lines[i].split(",")
    k = data.draw(st.sampled_from(sorted(BROKEN_LOG_CELLS)), label="cell")
    cells[k] = data.draw(st.sampled_from(BROKEN_LOG_CELLS[k]), label="text")
    lines[i] = ",".join(cells)
    text = "\r\n".join(lines)
    bulk, rows = _parse_log(text, rows_only=False), _parse_log(text, rows_only=True)
    assert _same_parse(bulk, rows)
    assert rows.n_rows == len(lines) - 2


@pytest.mark.parametrize("k, cell", [(k, c) for k, cells in BROKEN_LOG_CELLS.items() for c in cells])
def test_each_broken_trade_log_cell_fails_alike_on_both_paths(k, cell):
    lines = _log_text([("t0", "a", "b", D0, 1, 2), ("t1", "b", "a", D0 + 1, 3, 4)]).split("\r\n")
    cells = lines[3].split(",")
    cells[k] = cell
    lines[3] = ",".join(cells)
    text = "\r\n".join(lines)
    assert _same_parse(_parse_log(text, rows_only=False), _parse_log(text, rows_only=True))


def test_block_boundary_inside_a_name_run_changes_nothing(tmp_path):
    # one buyer and one seller across 40 trades: every block boundary cuts a
    # run of equal user names, and most cut a trade's two halves apart
    n = 40
    text = _log_text([(f"t{i}", "buyer", "seller", D0 + i, i, 2 * i) for i in range(n)])
    path = tmp_path / "trades.csv"
    path.write_text(text, newline="")
    whole = parse_trade_log(path, schema="canonical")
    assert _same_parse(whole, _parse_log(text, rows_only=True))
    for block in (53, 97, 128, 1000):  # a block cut inside a line waits for the line's end
        with mock.patch.object(ingest, "_TEXT_BLOCK", block), mock.patch.object(
            ingest, "_read_log_block", wraps=ingest._read_log_block
        ) as read:
            cut = parse_trade_log(path, schema="canonical")
        assert read.call_count > 1 and all(c.args[0] for c in read.call_args_list)
        assert _same_parse(cut, whole)
    assert whole.user_names.tolist() == ["buyer", "seller"] and len(whole.trade_ids) == n


@PROPERTY
@given(st.lists(st.tuples(name, name, name), max_size=8), st.data())
def test_trade_log_writer_matches_csv_writer(names, data):
    n = len(names)
    ts, btc, money = (data.draw(st.lists(c, min_size=n, max_size=n)) for c in (
        st.integers(FIRST_TS, LAST_TS), st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)
    ))
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["user_id", "trade_id", "timestamp", "currency", "bitcoins", "money", "side"])
    for (tid, buyer, seller), t, b, m in zip(names, ts, btc, money):
        cells = [fmt_ts(t), "USD", _spelled(b, BTC_DECIMALS), _spelled(m, MONEY_DECIMALS)]
        writer.writerow([buyer, tid, *cells, "buy"])
        writer.writerow([seller, tid, *cells, "sell"])
    assert _log_text([(*c, t, b, m) for c, t, b, m in zip(names, ts, btc, money)]) == want.getvalue()


# --- aux series as columns ---------------------------------------------------

AUX_NAMES = {
    "onchain": ("input", "output"),
    "asset_bar": ("close", "tick", "volume"),
    "market_daily": ("volume_btc",),
    "supply": ("supply",),
    "trends": ("score",),
}
aux_value = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0]))
amount = st.one_of(st.floats(0.0, 1e12), st.integers(0, 10**8).map(lambda k: k / 1e4), st.just(-0.0))


def _reference_digest(kind, points):
    """digest_aux over per-point (ts, values dict) records, as it was written for them."""
    parts = ["aux", kind]
    for ts, values in points:
        parts.append(f"{ts}:{sorted(values.items())!r}")
    return content_digest(*parts)


def _columns(kind, points) -> AuxSeries:
    ts = np.array([t for t, _ in points], dtype=np.int64)
    # columns in reverse name order: the digest must not follow the dict's order
    names = AUX_NAMES[kind][::-1]
    values = {n: np.array([v[n] for _, v in points], dtype=np.float64) for n in names}
    return AuxSeries(kind, ts, values)


def _points(stamps, data, names, value):
    return [(t, {n: data.draw(value, label=n) for n in names}) for t in sorted(stamps)]


@PROPERTY
@given(
    st.sampled_from(sorted(AUX_NAMES)),
    st.lists(st.integers(FIRST_TS, LAST_TS), unique=True, max_size=20),
    st.data(),
)
def test_aux_digest_matches_the_per_point_digest(kind, stamps, data):
    points = _points(stamps, data, AUX_NAMES[kind], aux_value)
    assert studies.digest_aux(_columns(kind, points)) == _reference_digest(kind, points)


def test_aux_digest_is_pinned():
    text = (
        "timestamp,transaction_id,address,type,amount\n"
        "2012-01-01 00:00:05,t1,a,output,1.5\n"
        "2012-01-01 00:00:05,t2,b,input,0.1\n"
        "2012-01-01 00:00:05,t3,c,input,0.2\n"
        "2012-01-01 00:40:00,t4,d,output,3\n"
    )
    aux = parse_aux(io.StringIO(text), "onchain")
    assert aux.values["input"].tolist() == [0.1 + 0.2, 0.0]
    assert studies.digest_aux(aux) == (
        "77c22b72e8a2f19473fe4eda30ae154ee53fe4f29e0389b8c39addb91f87ee10"
    )


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 5), st.booleans(), amount), max_size=40))
def test_onchain_parse_sums_like_the_per_point_loop(rows):
    lines = ["timestamp,transaction_id,address,type,amount"]
    agg = {}
    for i, (k, output, value) in enumerate(rows):
        ts = D0 + 7 * k  # few distinct stamps, so most repeat
        side = "output" if output else "input"
        lines.append(f"{fmt_ts(ts)},tx{i},addr,{side.upper() if i % 3 else side},{value!r}")
        agg.setdefault(ts, {"input": 0.0, "output": 0.0})[side] += value
    aux = parse_aux(io.StringIO("\n".join(lines) + "\n"), "onchain")
    points = [(ts, agg[ts]) for ts in sorted(agg)]
    assert aux.row_errors == []
    assert aux.ts.dtype == np.int64 and aux.ts.tolist() == [ts for ts, _ in points]
    for name in ("input", "output"):
        assert aux.values[name].dtype == np.float64
        assert aux.values[name].tolist() == [values[name] for _, values in points]
    assert studies.digest_aux(aux) == _reference_digest("onchain", points)


def _reference_chain(points, window, n):
    chain = np.zeros(n)
    skipped = 0
    for ts, values in points:
        if not window.contains(ts):
            skipped += 1
            continue
        chain[(ts - window.start) // BAR_SECONDS] += values["output"]
    return chain, skipped


# offsets from 3 bars before a two-day window to 4 bars past it, as bar and second in
# bar; the bars next to the window's edges and its day boundary come up often
bar_index = st.one_of(st.sampled_from([-1, 0, 47, 48, 95, 96]), st.integers(-3, 99))
aux_stamps = st.lists(
    st.builds(lambda bar, s: bar * BAR_SECONDS + s, bar_index, st.integers(0, 1799)),
    unique=True,
    max_size=40,
)


@PROPERTY
@given(aux_stamps, st.data())
def test_onchain_binning_matches_the_per_point_loop(offsets, data):
    bars = bars_from_arrays(np.zeros(96), nonwash=np.arange(96.0), t0=D0)
    labels = [QuartileLabel(D0, 1), QuartileLabel(D0 + DAY, 2)]
    points = _points([D0 + t for t in offsets], data, AUX_NAMES["onchain"], amount)
    chain, skipped = _reference_chain(points, bars.window, len(bars))
    onchain = _columns("onchain", points)
    # min_bars past the frame: every quartile is insufficient, so no fit runs
    with mock.patch.object(studies, "_quartile_table", wraps=studies._quartile_table) as table:
        if skipped == len(points):
            with pytest.raises(DataError, match="no on-chain points inside the bar window"):
                studies.study_onchain(bars, onchain, labels, min_bars=10**6)
            return
        rep = studies.study_onchain(bars, onchain, labels, min_bars=10**6)
    assert table.call_args.args[0].tobytes() == chain.tobytes()
    note = f"{skipped} on-chain points outside the bar window were ignored"
    assert (note in rep.notes) == (skipped > 0)


def _reference_asset_bars(points, window):
    """build_asset_bars over per-point records, one point at a time."""
    n = -((window.start - window.end) // BAR_SECONDS)
    close, tick, volume = np.zeros(n), np.zeros(n), np.zeros(n)
    open_mask = np.zeros(n, dtype=bool)
    for ts, values in points:
        if not window.contains(ts):
            continue
        i = (ts - window.start) // BAR_SECONDS
        close[i] = values["close"]
        tick[i] += values["tick"]
        volume[i] += values["volume"]
        open_mask[i] = True
    source = "tick" if np.any(tick != 0.0) else "volume"
    activity = tick if source == "tick" else volume
    liq, vol = np.zeros(n), np.zeros(n)
    prev_close = None
    for i in np.flatnonzero(open_mask):
        if prev_close is not None and prev_close > 0.0 and close[i] > 0.0:
            r = math.log(close[i] / prev_close)
            vol[i] = r * r
            if activity[i] > 0.0:
                liq[i] = abs(r) / activity[i]
        prev_close = close[i]

    def pct_open(values):
        out = np.zeros(n)
        prev = None
        for i in np.flatnonzero(open_mask):
            if prev is not None and prev != 0.0:
                out[i] = 100.0 * (values[i] - prev) / prev
            prev = values[i]
        return out

    columns = dict(zip(ASSET_COLUMNS, map(pct_open, (close, liq, vol, activity))))
    return open_mask, columns, source


@PROPERTY
@given(aux_stamps, st.booleans(), st.data())
def test_asset_bars_match_the_per_point_loop(offsets, no_ticks, data):
    window = TimeWindow(D0, D0 + 96 * BAR_SECONDS)
    measure = st.one_of(st.just(0.0), st.floats(0.01, 1e4))
    points = _points([D0 + t for t in offsets], data, AUX_NAMES["asset_bar"], measure)
    if no_ticks:
        points = [(ts, dict(values, tick=0.0)) for ts, values in points]
    got = build_asset_bars(_columns("asset_bar", points), window, "x")
    open_mask, columns, source = _reference_asset_bars(points, window)
    assert got.open_mask.tobytes() == open_mask.tobytes()
    assert got.activity_source == source
    for name in ASSET_COLUMNS:
        assert got.columns[name].tobytes() == columns[name].tobytes(), name


# --- scale-free least squares ------------------------------------------------


def _ar1(seed: int, n: int, phi: float) -> np.ndarray:
    e = np.random.default_rng(seed).standard_normal(n)
    y = np.empty(n)
    y[0] = e[0]
    for t in range(1, n):
        y[t] = phi * y[t - 1] + e[t]
    return y


@PROPERTY
@given(
    st.integers(0, 2**32 - 1),
    st.integers(40, 400),
    st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    st.floats(-12.0, 12.0),
    st.floats(-1e3, 1e3),
)
def test_adf_statistic_is_invariant_to_scale_and_offset(seed, n, phi, log_a, b_sd):
    y = _ar1(seed, n, phi)
    a = 10.0**log_a
    want = adf(y)
    got = adf(a * y + b_sd * a * y.std())
    assert got.lag == want.lag
    assert got.statistic == pytest.approx(want.statistic, rel=1e-8)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
def test_ols_tvalues_are_invariant_to_column_scale(seed, k, data):
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(k + 3, 120))
    X = rng.standard_normal((n, k))
    y = X @ rng.standard_normal(k) + rng.standard_normal(n)
    scale = 10.0 ** np.array(data.draw(st.lists(st.floats(-12.0, 12.0), min_size=k, max_size=k)))
    want = ols(y, X)
    got = ols(y, X * scale)
    assert got.tvalues == pytest.approx(want.tvalues, rel=1e-9)
    assert got.params[1:] * scale == pytest.approx(want.params[1:], rel=1e-9)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.data())
def test_ols_bse_matches_the_normal_equations_on_well_scaled_designs(seed, k, data):
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(k + 3, 200))
    X = rng.standard_normal((n, k))
    fit = ols(X @ rng.standard_normal(k) + rng.standard_normal(n), X)
    Xd = np.column_stack([np.ones(n), X])
    want = np.sqrt(np.diag(np.linalg.pinv(Xd.T @ Xd)) * fit.rss / fit.df_resid)
    assert fit.bse == pytest.approx(want, rel=1e-10)
