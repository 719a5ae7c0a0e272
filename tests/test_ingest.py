import io
import random
from unittest import mock

import numpy as np
import pytest

from goxlens import ingest
from goxlens.errors import DataError, PairingError, SchemaError
from goxlens.ingest import (
    BTC_UNIT,
    BUY,
    DAY,
    MONEY_UNIT,
    fmt_date,
    fmt_ts,
    format_fixed,
    pair_and_dedup,
    parse_aux,
    parse_date,
    parse_scaled,
    parse_trade_log,
    parse_ts,
    write_canonical_csv,
)

from conftest import canonical_csv, halves, ledger_of, trade_keys

MTGOX_HEADER = "User_Id,Trade_Id,Date,Japan,Currency,Bitcoins,Money,Type"


# --- fixed-point parsing -----------------------------------------------------


def test_parse_scaled_basic():
    assert parse_scaled("6.00", 8) == 6 * BTC_UNIT
    assert parse_scaled("28.12392", 5) == 2812392
    assert parse_scaled("0.00000001", 8) == 1
    assert parse_scaled("50.0385001", 8) == 5003850010
    assert parse_scaled(".5", 8) == 50000000


def test_parse_scaled_rejects_junk():
    for bad in ("", "abc", "1.2.3", "1e5", "+2", "-1.5", "0.123456789"):
        with pytest.raises(ValueError):
            parse_scaled(bad, 8)


# digits of other scripts, and characters str.isdigit takes that int() refuses
NON_ASCII_DIGITS = ["\u0663.5", "1.\u0665", "\u00b2", "\u0661\u0662\u0663", "\uff11.0"]


@pytest.mark.parametrize("text", NON_ASCII_DIGITS)
def test_parse_scaled_takes_ascii_digits_only(text):
    with pytest.raises(ValueError, match="malformed amount"):
        parse_scaled(text, 8)


@pytest.mark.parametrize("text", NON_ASCII_DIGITS)
def test_parse_ts_takes_ascii_epoch_digits_only(text):
    with pytest.raises(ValueError, match="bad timestamp"):
        parse_ts(text)


def test_format_scaled_round_trip():
    rng = random.Random(7)
    for _ in range(500):
        decimals = rng.choice((5, 8))
        v = rng.randrange(0, 10**13)
        (text,) = format_fixed(np.array([v]), decimals)
        assert parse_scaled(text, decimals) == v
    with pytest.raises(ValueError):
        format_fixed(np.array([-1]), 8)


# --- timestamps --------------------------------------------------------------


def test_parse_ts_formats():
    base = parse_date("2013-01-15")
    assert parse_ts("2013-01-15") == base
    assert parse_ts("2013-01-15 00:00:00") == base
    assert parse_ts("2013-01-15T00:00:00Z") == base
    assert parse_ts("2013-01-15T01:00:00+01:00") == base
    assert parse_ts("2013-01-15T00:00:42Z") == base + 42


def test_ts_format_round_trip():
    ts = parse_ts("2011-12-31 21:19:04")
    assert fmt_ts(ts) == "2011-12-31 21:19:04"
    assert parse_ts(fmt_ts(ts)) == ts
    assert fmt_date(ts) == "2011-12-31"
    assert ts - ts % DAY == parse_date("2011-12-31")


# Each of these once shifted the time silently (25:00 became 01:00 the next
# day) or read a malformed field as a number.
BAD_TIMESTAMPS = [
    "2012-01-01 25:00:00",
    "2012-01-01 24:00:00",
    "2012-01-01 00:60:00",
    "2012-01-01 00:-1:00",
    "2012-01-01 00:00:99",
    "2012x01x01 00:00:00",
    "2012-01-01 1 :00:00",
    "2012-01-01 +1:00:00",
    "2012-+1-01 00:00:00",
    "2012-13-01 00:00:00",
    "2012-01-01 \u0661\u0662:00:00",  # non-ASCII digits
]


@pytest.mark.parametrize("text", BAD_TIMESTAMPS)
def test_parse_ts_rejects_malformed_fields(text):
    with pytest.raises(ValueError, match="bad timestamp"):
        parse_ts(text)


def test_parse_ts_canonical_fields_at_their_bounds():
    base = parse_date("2012-02-29")
    assert parse_ts("2012-02-29 23:59:59") == base + DAY - 1
    assert parse_ts("2012-02-29T00:00:00") == base
    assert parse_ts(" 2012-02-29 00:00:59 ") == base + 59


def test_bad_timestamps_become_row_errors():
    lines = [MTGOX_HEADER, "u0,1,2012-01-01 00:00:00,NJP,USD,1.5,10.0,buy"]
    lines += [f"u{i},{i + 2},{ts},NJP,USD,1.5,10.0,buy" for i, ts in enumerate(BAD_TIMESTAMPS)]
    pr = parse_trade_log(io.StringIO("\n".join(lines) + "\n"), schema="mtgox_leak")
    assert pr.ts.tolist() == [parse_date("2012-01-01")]
    assert [line for line, _ in pr.row_errors] == list(range(3, 3 + len(BAD_TIMESTAMPS)))
    assert all("bad timestamp" in reason for _, reason in pr.row_errors)


BAD_DATES = [
    "2012-+1-01",
    "2012- 1-01",
    "2012-01-+1",
    "2012-1-01",
    "2012-01-1",
    "2012-13-01",
    "2012-02-30",
    "0000-01-01",
    "2012/01/01",
    "2012-01-01 00:00:00",
    "\u0662\u0660\u0661\u0662-01-01",  # non-ASCII digits
]


@pytest.mark.parametrize("text", BAD_DATES)
def test_parse_date_rejects_malformed_fields(text):
    with pytest.raises(ValueError, match="bad date"):
        parse_date(text)


def test_parse_date_fields_at_their_bounds():
    assert parse_date("2012-02-29") == parse_date("2012-03-01") - DAY
    assert parse_date(" 9999-12-31 ") == parse_date("0001-01-01") + 3652058 * DAY


def test_bad_dates_become_daily_aux_row_errors():
    lines = ["date,volume_btc", "2012-01-01,100"] + [f"{d},5" for d in BAD_DATES]
    aux = parse_aux(io.StringIO("\n".join(lines) + "\n"), "market_daily")
    assert aux.ts.tolist() == [parse_date("2012-01-01")]
    assert [line for line, _ in aux.row_errors] == list(range(3, 3 + len(BAD_DATES)))
    assert all("bad date" in reason for _, reason in aux.row_errors)


# --- trade log parsing -------------------------------------------------------


def test_leak_row_parses_to_exact_amounts():
    text = MTGOX_HEADER + "\n176214,2650732688407216,2011-12-31 21:19:04,NJP,USD,6.00,28.12392,buy\n"
    pr = parse_trade_log(io.StringIO(text), schema="mtgox_leak")
    assert pr.n_rows == 1 and not pr.row_errors
    assert pr.user_names[pr.user].tolist() == ["176214"]
    assert pr.trade_ids[pr.trade].tolist() == ["2650732688407216"]
    assert pr.bitcoins_e8.tolist() == [6 * BTC_UNIT]
    assert pr.money_e5.tolist() == [2812392]
    assert pr.ts.tolist() == [parse_ts("2011-12-31 21:19:04")]
    assert pr.side.tolist() == [BUY] and pr.usd.tolist() == [True]


def test_canonical_file_is_read_a_column_at_a_time_with_the_row_parsers_values(tmp_path):
    led = ledger_of(canonical_csv(_dup_rows(40, 7)))
    path = tmp_path / "trades.csv"
    path.write_text(_rewrite(led)[1], newline="")
    with mock.patch.object(ingest, "_parse_rows", wraps=ingest._parse_rows) as rows:
        bulk = parse_trade_log(path, schema="canonical")
        assert not rows.called
        by_row = ingest._parse_rows(path, "canonical")
    for name in ("ts", "bitcoins_e8", "money_e5", "user", "trade", "side", "usd"):
        got, want = getattr(bulk, name), getattr(by_row, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert bulk.user_names.tolist() == by_row.user_names.tolist()
    assert bulk.trade_ids.tolist() == by_row.trade_ids.tolist()
    assert (bulk.row_errors, bulk.n_rows) == (by_row.row_errors, by_row.n_rows) == ([], 80)


def test_text_off_the_canonical_layout_is_parsed_row_by_row():
    text = _rewrite(ledger_of(canonical_csv(_dup_rows(5, 2))))[1]
    for other in (text.replace("\r\n", "\n"), text.replace("b1,", '"b1",'), text + "\r\n"):
        with mock.patch.object(ingest, "_parse_rows", wraps=ingest._parse_rows) as rows:
            parsed = parse_trade_log(io.StringIO(other), schema="canonical")
        assert rows.called and len(parsed) == 10


@pytest.mark.parametrize("block", [1024, 4096])
def test_text_without_lf_is_given_up_after_one_block(block):
    # CR line ends, which csv reads from a file: the bulk reader must not hold
    # the whole text looking for an LF
    text = _rewrite(ledger_of(canonical_csv(_dup_rows(100, 2))))[1].replace("\r\n", "\r")
    fh = io.BytesIO(text.encode())
    with mock.patch.object(ingest, "_TEXT_BLOCK", block):
        assert ingest._read_canonical_log(fh) is None
    assert fh.tell() == block < len(text)
    assert len(parse_trade_log(io.BytesIO(text.encode()), schema="canonical")) == 200


@pytest.mark.parametrize("wrap", [io.BytesIO, lambda data: io.BufferedReader(io.BytesIO(data))])
def test_bytes_that_are_not_utf8_name_their_line(wrap):
    text = "user_id,trade_id,timestamp,currency,bitcoins,money,side\r\n"
    text += "u1,t1,2012-01-01 00:00:00,USD,1.00000000,1.00000,buy\r\n"
    data = text.encode() + b"u\xff,t1,2012-01-01 00:00:00,USD,1.00000000,1.00000,sell\r\n"
    with pytest.raises(DataError, match="trade log line 3: not valid UTF-8"):
        parse_trade_log(wrap(data), schema="canonical")
    data = b"date,volume_btc\r2012-01-01,1\r2012-01-02,\xe2\x82\r"
    with pytest.raises(DataError, match="aux 'market_daily' line 3: not valid UTF-8"):
        parse_aux(wrap(data), "market_daily")


def test_header_only_file_is_empty():
    pr = parse_trade_log(io.StringIO(MTGOX_HEADER + "\n"), schema="mtgox_leak")
    assert len(pr) == 0 and pr.row_errors == []


def test_unknown_schema_rejected():
    with pytest.raises(SchemaError):
        parse_trade_log(io.StringIO(MTGOX_HEADER), schema="nope")


def test_bad_header_rejected():
    with pytest.raises(SchemaError):
        parse_trade_log(io.StringIO("a,b,c\n"), schema="mtgox_leak")


def test_bad_rows_become_row_errors():
    rng = random.Random(3)
    corrupt = set(rng.sample(range(1000), 10))
    lines = [MTGOX_HEADER]
    for i in range(1000):
        btc = "oops" if i in corrupt else "1.5"
        lines.append(f"u{i},{2 * i},2012-01-01 00:00:{i % 60:02d},NJP,USD,{btc},10.0,buy")
    bad = sum("oops" in ln for ln in lines[1:])  # independent line scan
    pr = parse_trade_log(io.StringIO("\n".join(lines) + "\n"), schema="mtgox_leak")
    assert bad == 10
    assert len(pr) == 990
    assert len(pr.row_errors) == 10


def test_non_usd_rows_dropped_in_pairing():
    rows = halves("1", "2", "a", "2012-01-01 00:00:00", 1.0, 10.0)
    rows += [
        ("3", "b", "2012-01-01 00:00:01", "EUR", "1.0", "8.0", "buy"),
        ("4", "b", "2012-01-01 00:00:01", "EUR", "1.0", "8.0", "sell"),
    ]
    led = ledger_of(canonical_csv(rows))
    assert len(led) == 1
    assert led.stats.dropped_non_usd == 2


# --- pairing -----------------------------------------------------------------


def test_minimal_pair_roles_follow_side():
    led = ledger_of(canonical_csv(halves("7", "8", "t", "2012-01-01 00:00:00", 2.0, 9.0)))
    ((buyer, seller, *_),) = trade_keys(led)
    assert (buyer, seller) == ("7", "8")
    assert led.stats.duplicates_removed == 0


def test_first_seen_is_buyer_without_sides():
    rows = [
        ("9", "t", "2012-01-01 00:00:00", "USD", "2.0", "9.0", ""),
        ("5", "t", "2012-01-01 00:00:00", "USD", "2.0", "9.0", ""),
    ]
    ((buyer, seller, *_),) = trade_keys(ledger_of(canonical_csv(rows)))
    assert (buyer, seller) == ("9", "5")


def test_three_halves_is_a_pairing_error():
    rows = canonical_csv(
        halves("1", "2", "t", "2012-01-01 00:00:00", 1.0, 5.0)
        + [("3", "t", "2012-01-01 00:00:00", "USD", "1.0", "5.0", "buy")]
    )
    with pytest.raises(PairingError) as e:
        ledger_of(rows)
    assert "t" in str(e.value)


def test_lone_half_counts_as_unpaired():
    rows = halves("1", "2", "a", "2012-01-01 00:00:00", 1.0, 5.0)
    rows.append(("3", "b", "2012-01-01 00:00:01", "USD", "1.0", "5.0", "buy"))
    led = ledger_of(canonical_csv(rows))
    assert len(led) == 1
    assert led.stats.unpaired == 1


def test_ledger_sorted_by_timestamp():
    rows = halves("1", "2", "b", "2012-01-01 00:00:05", 1.0, 5.0)
    rows += halves("3", "4", "a", "2012-01-01 00:00:01", 1.0, 5.0)
    led = ledger_of(canonical_csv(rows))
    ts = led.ts.tolist()
    assert ts == sorted(ts)


# --- dedup -------------------------------------------------------------------


def _dup_rows(n_trades, n_dups, ts="2012-01-01 00:00:00"):
    rows = []
    for i in range(n_trades):
        rows += halves(f"b{i}", f"s{i}", f"t{i}", ts, 1.0 + i, 5.0)
    for j in range(n_dups):
        # same combined key as trade j, fresh trade id
        rows += halves(f"b{j}", f"s{j}", f"d{j}", ts, 1.0 + j, 5.0)
    return rows


def test_exact_key_duplicates_removed():
    led = ledger_of(canonical_csv(_dup_rows(5000 - 500, 500)))
    assert led.stats.deduplicated == 4500
    assert led.stats.duplicates_removed == 500


def test_repeated_identical_rows_collapse():
    # three co-timed identical trades against one counterparty: one survivor
    rows = []
    for tid in ("x1", "x2", "x3"):
        rows += halves("10", "20", tid, "2011-12-31 21:19:04", 6.0, 28.12392)
    led = ledger_of(canonical_csv(rows))
    assert len(led) == 1
    assert led.stats.duplicates_removed == 2


def test_dedup_oracle_is_combined_key_set():
    rng = random.Random(11)
    rows = []
    keys = set()
    for i in range(400):
        b, s = f"b{rng.randrange(20)}", f"s{rng.randrange(20)}"
        btc = round(rng.uniform(0.1, 3.0), 2)
        ts = f"2012-01-01 00:{rng.randrange(60):02d}:00"
        rows += halves(b, s, f"t{i}", ts, btc, 5.0)
        keys.add((b, s, btc, ts))
    led = ledger_of(canonical_csv(rows))
    assert len(led) == len(keys)


def test_conservation_bounds():
    led = ledger_of(canonical_csv(_dup_rows(40, 7)))
    st = led.stats
    assert st.deduplicated <= st.paired <= st.raw_rows // 2


def test_permutation_invariance():
    rows = _dup_rows(30, 6)
    led_a = ledger_of(canonical_csv(rows))
    rng = random.Random(5)
    rng.shuffle(rows)
    led_b = ledger_of(canonical_csv(rows))
    assert trade_keys(led_a) == trade_keys(led_b)


def _rewrite(led):
    """The ledger as `goxlens ingest` writes it: (trade count, canonical CSV text)."""
    buf = io.StringIO()
    users = led.users
    n = write_canonical_csv(
        buf, [f"t{i}" for i in range(len(led))], users[led.buyer], users[led.seller],
        led.ts, led.bitcoins_e8, led.money_e5,
    )
    return n, buf.getvalue()


def test_round_trip_is_idempotent():
    led = ledger_of(canonical_csv(_dup_rows(25, 5)))
    again = ledger_of(_rewrite(led)[1])
    assert trade_keys(again) == trade_keys(led)
    assert again.stats.duplicates_removed == 0


def test_canonical_writer_layout():
    led = ledger_of(canonical_csv(halves("7", "8", "t", "2012-01-01 00:00:00", 2.0, 9.0)))
    n, text = _rewrite(led)
    lines = text.splitlines()
    assert n == 1
    assert lines[0] == "user_id,trade_id,timestamp,currency,bitcoins,money,side"
    assert lines[1] == "7,t0,2012-01-01 00:00:00,USD,2.00000000,9.00000,buy"
    assert lines[2] == "8,t0,2012-01-01 00:00:00,USD,2.00000000,9.00000,sell"


# --- auxiliary series --------------------------------------------------------


def test_onchain_row_parses():
    text = (
        "timestamp,transaction_id,address,type,amount\n"
        "2011-10-06 11:55:30,42101c,15wNVu5eEynhJmitToi,output,50.0385001\n"
    )
    aux = parse_aux(io.StringIO(text), "onchain")
    assert aux.ts.tolist() == [parse_ts("2011-10-06 11:55:30")]
    assert aux.values["output"].tolist() == [pytest.approx(50.0385001)]
    assert aux.values["input"].tolist() == [0.0]


def test_onchain_equal_timestamps_sum():
    amounts = [1.5, 2.0, 0.25, 4.0, 1.0, 3.5, 0.75, 2.25, 6.0]
    lines = ["timestamp,transaction_id,address,type,amount"]
    for i, a in enumerate(amounts):
        kind = "output" if i % 2 == 0 else "input"
        lines.append(f"2011-10-06 11:55:30,tx{i},addr{i},{kind},{a}")
    aux = parse_aux(io.StringIO("\n".join(lines) + "\n"), "onchain")
    assert len(aux) == 1
    assert aux.values["output"][0] == pytest.approx(sum(amounts[0::2]))  # hand-summed
    assert aux.values["input"][0] == pytest.approx(sum(amounts[1::2]))


def test_onchain_unknown_direction_is_row_error():
    text = (
        "timestamp,transaction_id,address,type,amount\n"
        "2011-10-06 11:55:30,tx,addr,sideways,1.0\n"
        "2011-10-06 11:55:31,tx2,addr,input,2.0\n"
    )
    aux = parse_aux(io.StringIO(text), "onchain")
    assert len(aux) == 1
    assert len(aux.row_errors) == 1


@pytest.mark.parametrize(
    "kind, header, row",
    [
        ("onchain", "timestamp,transaction_id,address,type,amount",
         "2011-10-06 11:55:30,tx,addr,input,{}"),
        ("asset_bar", "timestamp,close,tick,volume", "2012-01-01 00:00:00,{},5,1.0"),
        ("asset_bar", "timestamp,close,tick,volume", "2012-01-01 00:00:00,10.0,{},1.0"),
        ("asset_bar", "timestamp,close,tick,volume", "2012-01-01 00:00:00,10.0,5,{}"),
        ("market_daily", "date,volume_btc", "2012-01-01,{}"),
        ("supply", "date,circulating_supply", "2012-01-01,{}"),
        ("trends", "week_start,score", "2012-01-01,{}"),
    ],
)
def test_non_finite_aux_values_are_row_errors(kind, header, row):
    cells = ["inf", "-inf", "nan", "Infinity"]
    text = "\n".join([header, row.format("1.0"), *(row.format(c) for c in cells)]) + "\n"
    aux = parse_aux(io.StringIO(text), kind)
    assert len(aux) == 1
    assert [line for line, _ in aux.row_errors] == list(range(3, 3 + len(cells)))


def test_amount_past_int64_is_a_row_error():
    big = "92233720368.54775808"  # 2**63 at 1e-8
    text = canonical_csv(
        halves("1", "2", "a", "2012-01-01 00:00:00", "1.0", "5.0")
        + halves("3", "4", "b", "2012-01-01 00:00:00", big, "5.0")
    )
    pr = parse_trade_log(io.StringIO(text), schema="canonical")
    assert len(pr) == 2
    assert pr.row_errors == [(4, "amount out of range"), (5, "amount out of range")]


def test_supply_single_row():
    aux = parse_aux(io.StringIO("date,circulating_supply\n2012-01-01,8000000\n"), "supply")
    assert len(aux) == 1
    assert aux.values["supply"].tolist() == [8000000.0]


def test_daily_series_must_be_monotone():
    text = "date,circulating_supply\n2012-01-02,8000000\n2012-01-01,7900000\n"
    with pytest.raises(DataError):
        parse_aux(io.StringIO(text), "supply")


def test_asset_bar_duplicate_timestamp_later_wins():
    text = (
        "timestamp,close,tick,volume\n"
        "2012-01-01 00:00:00,10.0,5,\n"
        "2012-01-01 00:00:00,11.0,6,\n"
    )
    aux = parse_aux(io.StringIO(text), "asset_bar")
    assert len(aux) == 1
    assert aux.values["close"].tolist() == [11.0]
    assert aux.values["tick"].tolist() == [6.0]


def test_aux_unknown_kind():
    with pytest.raises(SchemaError):
        parse_aux(io.StringIO("x\n"), "carrier_pigeon")


def test_aux_value_arrays():
    text = "date,volume_btc\n2012-01-01,100\n2012-01-02,250.5\n"
    aux = parse_aux(io.StringIO(text), "market_daily")
    assert aux.ts.tolist() == [parse_date("2012-01-01"), parse_date("2012-01-02")]
    assert aux.values["volume_btc"].tolist() == [100.0, 250.5]
    assert aux.ts.dtype == np.int64 and aux.values["volume_btc"].dtype == np.float64


@pytest.mark.parametrize(
    "kind, header",
    [
        ("onchain", "timestamp,transaction_id,address,type,amount"),
        ("market_daily", "date,volume_btc"),
        ("supply", "date,circulating_supply"),
        ("trends", "week_start,score"),
        ("asset_bar", "timestamp,close,tick,volume"),
    ],
)
def test_header_only_aux_file_is_empty(kind, header):
    aux = parse_aux(io.StringIO(header + "\n"), kind)
    assert len(aux) == 0 and aux.ts.dtype == np.int64
    assert aux.row_errors == []
    assert all(len(v) == 0 and v.dtype == np.float64 for v in aux.values.values())
