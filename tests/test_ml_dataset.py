import numpy as np
import pytest

from goxlens.errors import DataError
from goxlens.ml import DEFAULT_LAGS, PLACEBO, build_lagged


def _series(n, n_features=2, seed=0, target="wash"):
    rng = np.random.default_rng(seed)
    out = {target: rng.standard_normal(n)}
    for j in range(n_features):
        out[f"f{j}"] = rng.standard_normal(n)
    return out


def test_default_lag_set():
    assert DEFAULT_LAGS == (1, 2, 3, 4, 24)


def test_single_lag_trims_one_row():
    ds = build_lagged(_series(10), lags=(1,))
    assert len(ds.y) == 9
    assert ds.X.shape == (9, 3)  # two features + placebo


def test_max_lag_24_drops_24_rows():
    ds = build_lagged(_series(100), lags=(1, 2, 24))
    assert len(ds.y) == 76


def test_column_names_and_order():
    ds = build_lagged(_series(60), lags=(2, 1))
    assert ds.columns == ["f0_t-1", "f0_t-2", "f1_t-1", "f1_t-2", PLACEBO]
    assert ds.columns[-1] == PLACEBO
    assert ds.target == "wash"
    assert ds.lags == (1, 2)


def test_lagged_values_align():
    n = 30
    s = {"wash": np.arange(n, dtype=float), "f0": 100.0 + np.arange(n)}
    ds = build_lagged(s, lags=(1, 3))
    # row r is time index 3 + r
    assert np.array_equal(ds.y, np.arange(3, 30, dtype=float))
    assert np.array_equal(ds.X[:, 0], 100.0 + np.arange(2, 29))  # f0_t-1
    assert np.array_equal(ds.X[:, 1], 100.0 + np.arange(0, 27))  # f0_t-3


def test_target_never_leaks_into_features():
    ds = build_lagged(_series(50), lags=(1, 2))
    assert all(not c.startswith("wash") for c in ds.columns)


def test_split_is_chronological_seventy_percent():
    ds = build_lagged(_series(101), lags=(1,))
    assert ds.split == int(0.7 * 100)
    assert ds.X_train.shape[0] == ds.split
    assert ds.X_test.shape[0] == 100 - ds.split
    assert np.array_equal(ds.X_train, ds.X[: ds.split])
    assert np.array_equal(ds.y_test, ds.y[ds.split :])


def test_placebo_is_seeded_and_last():
    a = build_lagged(_series(200), lags=(1, 2), seed=7)
    b = build_lagged(_series(200), lags=(1, 2), seed=7)
    c = build_lagged(_series(200), lags=(1, 2), seed=8)
    pa, pb, pc = (ds.X[:, -1] for ds in (a, b, c))
    assert np.array_equal(pa, pb)
    assert not np.array_equal(pa, pc)
    assert pa.min() >= 0.0 and pa.max() < 1.0


def test_duplicate_and_unsorted_lags_normalize():
    ds = build_lagged(_series(40), lags=(3, 1, 1))
    assert ds.lags == (1, 3)


def test_validation_errors():
    with pytest.raises(DataError):
        build_lagged(_series(40), target="volume")
    with pytest.raises(DataError):
        build_lagged(_series(40), lags=(0, 1))
    with pytest.raises(DataError):
        build_lagged(_series(40), lags=())
    with pytest.raises(DataError):
        build_lagged(_series(40), lags=(25,))  # max lag >= n/2
    bad = _series(40)
    bad["f0"] = bad["f0"][:-1]
    with pytest.raises(DataError):
        build_lagged(bad, lags=(1,))
