import numpy as np
import pytest

from goxlens.errors import DataError, TrainingDivergence
from goxlens.ml import MIN_RNN_TRAIN_ROWS, RecurrentNet, build_lagged, train_rnn
from goxlens.ml.rnn import BLOCK_ROWS

CELLS = ("gru", "lstm")


def _planted_ds(seed, n=450, beta=0.9, noise=0.3):
    """y follows the lag of a separate driver series x, plus small noise."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = np.zeros(n)
    y[1:] = beta * x[:-1] + noise * rng.standard_normal(n - 1)
    return build_lagged({"x": x, "y": y}, lags=(1,), seed=seed, target="y")


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-10)


# -- gradients -------------------------------------------------------------


@pytest.mark.parametrize("cell", CELLS)
def test_parameter_gradients_match_finite_differences(cell):
    # every coordinate of every parameter tensor, central differences
    rng = np.random.default_rng(7)
    net = RecurrentNet(cell=cell, n_steps=4, hidden=3, seed=11)
    X = rng.standard_normal((5, 4))
    y = rng.standard_normal(5)
    _, grads = net.loss_and_grads(X, y)
    h = 1e-5
    for name, grad in grads.items():
        flat_p = net.params[name].reshape(-1)
        flat_g = grad.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up, _ = net.loss_and_grads(X, y)
            flat_p[i] = orig - h
            down, _ = net.loss_and_grads(X, y)
            flat_p[i] = orig
            fd = (up - down) / (2.0 * h)
            assert _rel_err(fd, flat_g[i]) < 1e-4, f"{name}[{i}]: {flat_g[i]} vs {fd}"


@pytest.mark.parametrize("cell", CELLS)
def test_input_gradients_match_finite_differences(cell):
    rng = np.random.default_rng(3)
    net = RecurrentNet(cell=cell, n_steps=3, hidden=4, seed=5)
    X = rng.standard_normal((4, 3))
    dX = net.input_grads(X)
    assert dX.shape == X.shape
    h = 1e-5
    for r in range(X.shape[0]):
        for t in range(X.shape[1]):
            bumped = X.copy()
            bumped[r, t] += h
            up, _ = net.forward(bumped)
            bumped[r, t] -= 2.0 * h
            down, _ = net.forward(bumped)
            fd = (up[r] - down[r]) / (2.0 * h)
            assert _rel_err(fd, dX[r, t]) < 1e-4


@pytest.mark.parametrize("cell", CELLS)
def test_blocked_passes_match_one_whole_pass(cell):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((600, 5))
    y = rng.standard_normal(600)
    assert len(X) > 2 * BLOCK_ROWS
    net = RecurrentNet(cell=cell, n_steps=5, hidden=6, seed=2)
    yhat, cache = net.forward(X)
    _, dX = net.backward(cache, np.ones(len(X)))
    np.testing.assert_allclose(net.loss(X, y), np.mean((yhat - y) ** 2), rtol=1e-12)
    np.testing.assert_allclose(net.input_grads(X), dX, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("cell", CELLS)
def test_zeroed_parameters_predict_the_output_bias(cell):
    net = RecurrentNet(cell=cell, n_steps=5, hidden=6, seed=0)
    for key in net.params:
        net.params[key] = np.zeros_like(net.params[key])
    net.params["by"] = np.array([1.7])
    yhat, _ = net.forward(np.random.default_rng(1).standard_normal((9, 5)))
    np.testing.assert_allclose(yhat, 1.7)


def test_unknown_cell_rejected():
    with pytest.raises(DataError):
        RecurrentNet(cell="elman", n_steps=2, hidden=4, seed=0)


# -- training --------------------------------------------------------------


@pytest.mark.parametrize("cell", CELLS)
def test_planted_signal_beats_mean_predictor(cell):
    wins = 0
    for seed in range(10):
        ds = _planted_ds(seed)
        model = train_rnn(ds, cell, hidden=8, seed=seed, learning_rate=0.05)
        mse = float(np.mean((model.predict(ds.X_test) - ds.y_test) ** 2))
        baseline = float(np.mean((ds.y_train.mean() - ds.y_test) ** 2))
        wins += mse < baseline
    assert wins >= 8


def test_training_is_seed_deterministic():
    ds = _planted_ds(0)
    a = train_rnn(ds, "gru", hidden=6, seed=4)
    b = train_rnn(ds, "gru", hidden=6, seed=4)
    np.testing.assert_array_equal(a.importances, b.importances)
    assert a.loss_trace == b.loss_trace
    for key in a.net.params:
        np.testing.assert_array_equal(a.net.params[key], b.net.params[key])
    c = train_rnn(ds, "gru", hidden=6, seed=5)
    assert not np.array_equal(a.importances, c.importances)


def test_importances_cover_all_columns():
    # needs enough epochs to converge; at 20 the net is still underfit and
    # the last-step placebo keeps a large pass-through gradient
    ds = _planted_ds(2)
    model = train_rnn(ds, "lstm", hidden=6, seed=2, epochs=100, learning_rate=0.05)
    assert model.columns == ds.columns
    assert model.importances.shape == (ds.n_features,)
    assert np.all(np.isfinite(model.importances))
    assert np.all(model.importances >= 0.0)
    assert model.importances[ds.columns.index("x_t-1")] > model.importances[-1]


def test_divergence_aborts_with_loss_trace():
    ds = _planted_ds(0)
    with pytest.raises(TrainingDivergence) as exc:
        train_rnn(ds, "gru", hidden=16, seed=0, learning_rate=20.0)
    assert len(exc.value.trace) >= 1
    assert all(isinstance(v, float) for v in exc.value.trace)
    assert "diverged" in str(exc.value)


def test_short_training_split_rejected():
    ds = _planted_ds(0, n=100)
    assert ds.split < MIN_RNN_TRAIN_ROWS
    with pytest.raises(DataError):
        train_rnn(ds, "gru", hidden=4, seed=0)


# Loss traces of _planted_ds(0), seed=3, epochs=8, as trained by the earlier
# per-gate kernels (one weight matrix per gate, full-batch loss passes).
PER_GATE_TRACES = {
    "gru": [
        1.0558655413608424, 1.0340762191247934, 1.0145483684733312,
        0.9965341919184378, 0.9799020297473732, 0.9646213659618907,
        0.9502536931350434, 0.9364879216313162, 0.9237055233179231,
    ],
    "lstm": [
        0.9339622732532572, 0.9278040721127653, 0.9215884187911413,
        0.915154876707679, 0.908581086895526, 0.9019302531573796,
        0.895151848328433, 0.8881364123385498, 0.8810958039771738,
    ],
}


@pytest.mark.parametrize("cell", CELLS)
def test_loss_trace_matches_the_per_gate_kernels(cell):
    model = train_rnn(_planted_ds(0), cell, seed=3, epochs=8)
    np.testing.assert_allclose(model.loss_trace, PER_GATE_TRACES[cell], rtol=1e-12, atol=0.0)


def test_loss_trace_has_one_entry_per_epoch_plus_final():
    ds = _planted_ds(1)
    model = train_rnn(ds, "gru", hidden=4, epochs=5, seed=1)
    assert len(model.loss_trace) == 6
    assert model.loss_trace[-1] < 1e3 * model.loss_trace[0]
