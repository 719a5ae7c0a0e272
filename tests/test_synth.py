import io
import math

import numpy as np
import pytest

from goxlens.detect import TimeWindow, flag_wash
from goxlens.errors import DataError
from goxlens.ingest import DAY, parse_date
from goxlens.synth import (
    CointegratedPair,
    SynthSpec,
    gen_cointegrated_pair,
    gen_exchange_log,
    gen_var_process,
)

from conftest import ledger_of, trade_keys


def _window(spec):
    start = parse_date(spec.start)
    return TimeWindow(start, start + spec.n_days * DAY)


# --- exchange log ---------------------------------------------------------


def test_zero_rate_plants_no_wash():
    spec = SynthSpec(seed=1, n_days=1, trades_per_interval=5.0, wash_rate=0.0)
    csv_text, sidecar = gen_exchange_log(spec)
    assert sidecar["wash_count"] == 0
    assert sidecar["wash_trade_ids"] == []
    flagged = flag_wash(ledger_of(csv_text), _window(spec))
    assert sum(flagged.wash) == 0


def test_planted_wash_count_tracks_the_rate():
    spec = SynthSpec(seed=5, n_days=14, trades_per_interval=20.0, wash_rate=0.03)
    _, sidecar = gen_exchange_log(spec)
    n = sidecar["pre_injection_count"]
    expected = 0.03 * n
    sigma = math.sqrt(n * 0.03 * 0.97)
    assert abs(sidecar["wash_count"] - expected) <= 3.0 * sigma


def test_flagging_recovers_exactly_the_planted_set():
    spec = SynthSpec(seed=9, n_days=2, trades_per_interval=15.0, wash_rate=0.05)
    csv_text, sidecar = gen_exchange_log(spec)
    flagged = flag_wash(ledger_of(csv_text), _window(spec))
    got = {k for k, w in zip(trade_keys(flagged), flagged.wash) if w}
    want = {tuple(k) for k in sidecar["wash_keys"]}
    assert got == want


def test_duplicate_injection_is_fully_recovered_by_dedup():
    spec = SynthSpec(seed=3, n_days=3, trades_per_interval=15.0, duplicate_rate=0.05)
    csv_text, sidecar = gen_exchange_log(spec)
    ledger = ledger_of(csv_text)
    assert ledger.stats.duplicates_removed == sidecar["n_duplicates"]
    assert ledger.stats.deduplicated == sidecar["pre_injection_count"]
    assert sidecar["n_duplicates"] > 0  # the rate actually fired


def test_log_is_byte_deterministic():
    spec = SynthSpec(seed=11, n_days=2, duplicate_rate=0.02)
    a_csv, a_side = gen_exchange_log(spec)
    b_csv, b_side = gen_exchange_log(spec)
    assert a_csv == b_csv
    assert a_side == b_side
    c_csv, _ = gen_exchange_log(SynthSpec(seed=12, n_days=2, duplicate_rate=0.02))
    assert c_csv != a_csv


def test_surge_window_overrides_the_base_rate():
    spec = SynthSpec(
        seed=7,
        n_days=6,
        trades_per_interval=8.0,
        wash_rate=0.0,
        wash_windows=(("2013-01-03", "2013-01-05", 1.0),),
    )
    csv_text, sidecar = gen_exchange_log(spec)
    lo, hi = parse_date("2013-01-03"), parse_date("2013-01-05")
    assert sidecar["wash_count"] > 0
    for key in sidecar["wash_keys"]:
        assert lo <= key[4] < hi
    # outside the surge the base rate 0 applies: all wash keys are inside,
    # and every in-window trade is wash (rate 1.0)
    flagged = flag_wash(ledger_of(csv_text), _window(spec))
    in_window = [(b, s) for b, s, _, _, ts in trade_keys(flagged) if lo <= ts < hi]
    assert len(in_window) == sidecar["wash_count"]
    assert all(b == s for b, s in in_window)


def test_log_round_trips_through_the_parser():
    spec = SynthSpec(seed=2, n_days=1, trades_per_interval=10.0, duplicate_rate=0.1)
    csv_text, sidecar = gen_exchange_log(spec)
    lines = csv_text.splitlines()
    assert lines[0] == "user_id,trade_id,timestamp,currency,bitcoins,money,side"
    assert len(lines) == 1 + 2 * (sidecar["pre_injection_count"] + sidecar["n_duplicates"])
    ledger = ledger_of(csv_text)
    assert ledger.stats.raw_rows == len(lines) - 1
    assert ledger.stats.unpaired == 0


# --- spec round trip ------------------------------------------------------


def test_spec_round_trips_and_validates():
    spec = SynthSpec(
        seed=4,
        wash_windows=(("2013-01-02", "2013-01-03", 0.5),),
        trend_weeks=(("2013-01-07", 55.0),),
        var_truth={"c": [0.1], "coefs": [[[0.5]]], "sigma_u": [[1.0]], "T": 100},
    )
    again = SynthSpec.from_dict(spec.to_dict())
    assert again == spec

    with pytest.raises(DataError):
        SynthSpec.from_dict({"seed": 1, "typo_field": 2})
    with pytest.raises(DataError):
        SynthSpec(n_traders=1)
    with pytest.raises(DataError):
        SynthSpec(wash_rate=1.5)
    with pytest.raises(DataError):
        SynthSpec(duplicate_rate=-0.1)
    with pytest.raises(DataError):
        SynthSpec(price=0.0)


# --- VAR process ----------------------------------------------------------


def test_pure_noise_covariance_approaches_identity():
    y = gen_var_process(
        np.zeros(2), [np.zeros((2, 2))], np.eye(2), T=10_000, seed=0
    )
    assert y.shape == (10_000, 2)
    cov = np.cov(y.T)
    assert np.all(np.abs(cov - np.eye(2)) < 0.05)


def test_noise_off_converges_to_the_fixed_point():
    c = np.array([1.0, -0.5])
    A1 = np.array([[0.5, 0.1], [0.0, 0.3]])
    y = gen_var_process(c, [A1], np.zeros((2, 2)), T=10, seed=0)
    fixed_point = np.linalg.solve(np.eye(2) - A1, c)
    np.testing.assert_allclose(y[-1], fixed_point, atol=1e-9)
    np.testing.assert_allclose(y[0], y[-1], atol=1e-9)  # converged in burn-in


def test_var_process_is_seed_deterministic():
    args = (np.zeros(2), [0.4 * np.eye(2)], np.eye(2), 200)
    a = gen_var_process(*args, seed=13)
    b = gen_var_process(*args, seed=13)
    np.testing.assert_array_equal(a, b)
    c = gen_var_process(*args, seed=14)
    assert not np.array_equal(a, c)


def test_var_process_validation():
    with pytest.raises(DataError, match="spectral radius"):
        gen_var_process(np.zeros(2), [1.1 * np.eye(2)], np.eye(2), 100, seed=0)
    with pytest.raises(DataError):
        gen_var_process(np.zeros(2), [np.zeros((3, 3))], np.eye(2), 100, seed=0)
    with pytest.raises(DataError):
        gen_var_process(np.zeros(2), [np.zeros((2, 2))], np.eye(3), 100, seed=0)
    with pytest.raises(DataError):
        gen_var_process(np.zeros(2), [], np.eye(2), 0, seed=0)
    with pytest.raises(DataError, match="positive definite"):
        gen_var_process(
            np.zeros(2), [], np.array([[1.0, 2.0], [2.0, 1.0]]), 100, seed=0
        )


def test_lag_two_truth_is_recoverable():
    # sanity for the ground-truth plumbing: a strong VAR(2) keeps both lags
    A1 = np.array([[0.5, 0.0], [0.0, 0.4]])
    A2 = np.array([[0.3, 0.0], [0.2, 0.2]])
    y = gen_var_process(np.zeros(2), [A1, A2], 0.01 * np.eye(2), T=5000, seed=21)
    from goxlens.econometrics import var_fit

    fit = var_fit(y, 2)
    np.testing.assert_allclose(fit.coefs[0], A1, atol=0.05)
    np.testing.assert_allclose(fit.coefs[1], A2, atol=0.05)


# --- cointegrated pair ----------------------------------------------------


def test_pair_is_deterministic_and_typed():
    a = gen_cointegrated_pair(200, 1.0, seed=6)
    b = gen_cointegrated_pair(200, 1.0, seed=6)
    assert isinstance(a, CointegratedPair)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    assert a.beta == b.beta
    assert 0.5 <= a.beta <= 2.0

    with pytest.raises(DataError):
        gen_cointegrated_pair(99, 1.0, seed=0)
    with pytest.raises(DataError):
        gen_cointegrated_pair(200, -1.0, seed=0)
