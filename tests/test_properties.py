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
the same error from a row broken in one cell.
"""

import io
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goxlens import features
from goxlens.detect import TimeWindow, flag_wash
from goxlens.errors import DataError, PairingError
from goxlens.features import BAR_SECONDS, STUDY_SERIES, BarSeries, build_bars, daily_sums
from goxlens.ingest import (
    BTC_DECIMALS,
    DAY,
    MONEY_DECIMALS,
    fmt_ts,
    format_fixed,
    parse_date,
    parse_scaled,
    parse_ts,
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
    0: ["2012-01-01 25:00:00", "2012x01x01 00:00:00", "2012-01-01 00:00:0", "", "now"],
    1: ["1.0x", "1.123456789", "-1.00000000", "+1.00000000", "1e3", ".", ""],
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
