import numpy as np
import pytest

from goxlens.errors import DataError
from goxlens.ml import (
    MIN_TRAIN_ROWS,
    build_lagged,
    train_boost,
    train_forest,
    train_tree,
)
from goxlens.ml import trees
from goxlens.ml.dataset import LaggedDataset

from conftest import planted_reports


def _ds(n=400, seed=0, signal=None, target_noise=1.0):
    """Lag-1 design over six feature series; `signal` plants y on x1's lag."""
    rng = np.random.default_rng(seed)
    series = {f"x{j}": rng.standard_normal(n) for j in range(1, 7)}
    y = target_noise * rng.standard_normal(n)
    if signal:
        y[1:] += signal * series["x1"][:-1]
    series["y"] = y
    return build_lagged(series, lags=(1,), seed=seed, target="y")


def _step_ds(n=600, seed=3):
    rng = np.random.default_rng(seed)
    series = {f"x{j}": rng.uniform(0.0, 1.0, n) for j in range(1, 4)}
    y = np.zeros(n)
    y[1:] = (series["x1"][:-1] > 0.5).astype(float)
    series["y"] = y
    return build_lagged(series, lags=(1,), seed=seed, target="y")


# --- single tree -------------------------------------------------------------


def test_step_function_root_split():
    ds = _step_ds()
    model = train_tree(ds)
    root = model.root
    j = ds.columns.index("x1_t-1")
    assert root.feature == j
    assert 0.4 < root.threshold < 0.6

    # independent exhaustive scan: the best sse split must sit there too
    X, y = ds.X_train, ds.y_train
    best = (np.inf, None, None)
    for col in range(X.shape[1]):
        xs = np.sort(np.unique(X[:, col]))
        for lo, hi in zip(xs[:-1], xs[1:]):
            thr = (lo + hi) / 2.0
            left, right = y[X[:, col] <= thr], y[X[:, col] > thr]
            sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            if sse < best[0]:
                best = (sse, col, thr)
    assert best[1] == j
    assert 0.4 < best[2] < 0.6


def test_constant_target_single_leaf():
    rng = np.random.default_rng(0)
    series = {f"x{j}": rng.standard_normal(300) for j in range(1, 4)}
    series["y"] = np.full(300, 2.5)
    ds = build_lagged(series, lags=(1,), seed=0, target="y")
    model = train_tree(ds)
    assert model.root.is_leaf
    assert np.array_equal(model.importances, np.zeros(ds.n_features))
    assert model.predict(ds.X_test) == pytest.approx(np.full(len(ds.y_test), 2.5))


def test_tree_predictions_bounded_by_training_targets():
    ds = _ds(seed=5, signal=3.0)
    model = train_tree(ds)
    pred = model.predict(ds.X_test)
    assert pred.min() >= ds.y_train.min() - 1e-12
    assert pred.max() <= ds.y_train.max() + 1e-12


def test_depth_cap_respected():
    ds = _ds(seed=6, signal=2.0)
    model = train_tree(ds, max_depth=3)

    def depth(node):
        if node.is_leaf:
            return 0
        return 1 + max(depth(node.left), depth(node.right))

    assert depth(model.root) <= 3


# --- forest ------------------------------------------------------------------


def test_forest_deterministic():
    ds = _ds(seed=7, signal=2.0)
    a = train_forest(ds, n_trees=20, seed=1)
    b = train_forest(ds, n_trees=20, seed=1)
    c = train_forest(ds, n_trees=20, seed=2)
    assert np.array_equal(a.importances, b.importances)
    assert np.array_equal(a.predict(ds.X_test), b.predict(ds.X_test))
    assert not np.array_equal(a.importances, c.importances)


def test_forest_predictions_bounded():
    ds = _ds(seed=8, signal=2.0)
    model = train_forest(ds, n_trees=15, seed=0)
    pred = model.predict(ds.X_test)
    assert pred.min() >= ds.y_train.min() - 1e-12
    assert pred.max() <= ds.y_train.max() + 1e-12


# --- boosting ----------------------------------------------------------------


def test_gradient_boost_fits_signal():
    ds = _ds(seed=9, signal=5.0, target_noise=0.1)
    model = train_boost(ds, "gradient_second_order", n_rounds=60, seed=0)
    assert model.family == "gradient_boost"
    pred = model.predict(ds.X_test)
    sse = float(((pred - ds.y_test) ** 2).mean())
    base = float(((ds.y_train.mean() - ds.y_test) ** 2).mean())
    assert sse < 0.5 * base


def test_adaboost_fits_signal():
    ds = _ds(seed=10, signal=5.0, target_noise=0.1)
    model = train_boost(ds, "adaboost_regression", n_rounds=40, seed=0)
    assert model.family == "adaboost"
    pred = model.predict(ds.X_test)
    base = float(((ds.y_train.mean() - ds.y_test) ** 2).mean())
    assert float(((pred - ds.y_test) ** 2).mean()) < 0.5 * base


def test_unknown_boost_mode():
    with pytest.raises(DataError):
        train_boost(_ds(), "stochastic_hope")


def test_boost_deterministic():
    ds = _ds(seed=11, signal=2.0)
    a = train_boost(ds, "adaboost_regression", n_rounds=20, seed=3)
    b = train_boost(ds, "adaboost_regression", n_rounds=20, seed=3)
    assert np.array_equal(a.importances, b.importances)
    assert np.array_equal(a.predict(ds.X_test), b.predict(ds.X_test))


# --- pre-sorted rows against a per-node sort ---------------------------------


def _per_node_order(XT, idx):
    """Each feature's node rows from a stable sort of that node alone."""
    return np.array([idx[np.argsort(x[idx], kind="mergesort")] for x in XT])


class _PerNodeSort:
    """Reference splitter: ignores the pre-sorted rows and sorts every node anew."""

    def best_split(self, idx, ranked, features):
        return super().best_split(idx, _per_node_order(self.XT, idx), features)


class _RefSseSplitter(_PerNodeSort, trees._SseSplitter):
    pass


class _RefGradSplitter(_PerNodeSort, trees._GradSplitter):
    pass


def _tie_heavy_ds(seed):
    """Features with many ties: coarse rounding, long zero runs, a constant column."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(90, 260))
    zero_runs = rng.standard_normal(n)
    zero_runs[: n // 3] = 0.0
    zero_runs[n // 2 : n // 2 + n // 5] = 0.0
    X = np.column_stack(
        [
            np.round(rng.standard_normal(n)),
            zero_runs,
            np.full(n, 1.5),
            rng.integers(0, 3, n).astype(np.float64),
            np.round(rng.uniform(0.0, 1.0, n), 1),
            rng.uniform(0.0, 1.0, n),
        ]
    )
    y = X[:, 0] + 0.5 * (X[:, 1] > 0) + 0.3 * rng.standard_normal(n)
    if seed % 2:
        y = np.round(y, 1)  # ties in the target as well
    columns = [f"c{j}" for j in range(X.shape[1])]
    return LaggedDataset(X=X, y=y, columns=columns, target="y", lags=(1,), split=int(0.7 * n))


_FITS = {
    "tree": lambda ds: train_tree(ds),
    "forest": lambda ds: train_forest(ds, n_trees=12, seed=5),
    "gradient": lambda ds: train_boost(ds, "gradient_second_order", n_rounds=15),
    "adaboost": lambda ds: train_boost(ds, "adaboost_regression", n_rounds=15),
}


def _fingerprint(model, ds):
    return (
        model.importances.tobytes(),
        model.predict(ds.X_train).tobytes(),
        model.predict(ds.X_test).tobytes(),
    )


@pytest.mark.parametrize("seed", range(8))
def test_presorted_rows_match_a_per_node_sort(seed, monkeypatch):
    ds = _tie_heavy_ds(seed)
    got = {name: _fingerprint(fit(ds), ds) for name, fit in _FITS.items()}
    monkeypatch.setattr(trees, "_SseSplitter", _RefSseSplitter)
    monkeypatch.setattr(trees, "_GradSplitter", _RefGradSplitter)
    for name, fit in _FITS.items():
        assert got[name] == _fingerprint(fit(ds), ds), name


def test_each_fit_sorts_once(monkeypatch):
    ds = _ds(seed=13, signal=2.0)
    calls = []
    real_argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        calls.append(1)
        return real_argsort(*args, **kwargs)

    monkeypatch.setattr(trees.np, "argsort", counting_argsort)
    counts = {}
    for name, fit in {
        "tree": lambda: train_tree(ds),
        "forest_3": lambda: train_forest(ds, n_trees=3, seed=0),
        "forest_10": lambda: train_forest(ds, n_trees=10, seed=0),
        "gradient_5": lambda: train_boost(ds, "gradient_second_order", n_rounds=5),
        "gradient_20": lambda: train_boost(ds, "gradient_second_order", n_rounds=20),
        "adaboost_10": lambda: train_boost(ds, "adaboost_regression", n_rounds=10),
    }.items():
        calls.clear()
        fit()
        counts[name] = len(calls)
    assert counts == dict.fromkeys(counts, 1)


# --- shared invariants -------------------------------------------------------


def test_gain_importances_nonnegative_and_sized():
    ds = _ds(seed=12, signal=1.0)
    models = [
        train_tree(ds),
        train_forest(ds, n_trees=10, seed=0),
        train_boost(ds, "gradient_second_order", n_rounds=20, seed=0),
        train_boost(ds, "adaboost_regression", n_rounds=20, seed=0),
    ]
    for m in models:
        assert m.importances.shape == (ds.n_features,)
        assert np.all(m.importances >= 0.0)


def test_min_train_rows_enforced():
    ds = _ds(n=int(MIN_TRAIN_ROWS / 0.7))  # split lands just under the floor
    assert ds.split < MIN_TRAIN_ROWS
    for fn in (
        lambda: train_tree(ds),
        lambda: train_forest(ds, n_trees=2),
        lambda: train_boost(ds, "gradient_second_order", n_rounds=2),
    ):
        with pytest.raises(DataError):
            fn()


def test_planted_signal_single_seed():
    # one seed of the shared corpus; the acceptance suite loops all twenty
    report = planted_reports(n_seeds=1)[0]
    sig = "x1_t-1"
    for fam in ("cart", "forest", "gradient_boost", "adaboost"):
        assert report.ranks[fam][sig] == 1
        assert report.placebo_rank[fam] > 1
