"""Minimal GRU/LSTM regressor in numpy with analytic BPTT.

Architecture choice: the tabular feature row is treated as an ordered
sequence, one timestep per feature column, with scalar input per step. That
gives every column (including the placebo) its own position in the unrolled
graph and hence its own analytic input gradient, which is what the
importance convention below needs. A single recurrent layer feeds a linear
head; training is plain mini-batch gradient descent on squared error.

Gate parameters are stacked: all input projections are computed before the
time loop, each step does one recurrent matmul (the GRU two, as its candidate
sees r*h), and the weight gradients are formed after the backward loop from
the stored gate gradients (Appleyard et al., arXiv 1604.01946).

Importance = mean absolute d(prediction)/d(input) over the test rows, in the
raw feature/target scale. This is a magnitude convention of ours; rankings,
not signed values, are what get compared across model families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, TrainingDivergence
from .dataset import LaggedDataset

MIN_RNN_TRAIN_ROWS = 200

# Full-set passes (epoch and final loss, test-set input gradients) run in row
# blocks. Rows are independent; small blocks keep every matmul on one BLAS
# thread and keep the per-step cache from setting the process's peak memory.
BLOCK_ROWS = 256

GATES = {"gru": "zrc", "lstm": "ifog"}


def _blocks(X):
    return [X[lo : lo + BLOCK_ROWS] for lo in range(0, len(X), BLOCK_ROWS)]


def _sum_steps_rows(a, b):
    """Sum over steps t of a[t] @ b[t].T, rows being the last axis. One small
    matmul per step: a single one over all steps would wake BLAS threads."""
    return (a @ b.swapaxes(1, 2)).sum(axis=0)


class RecurrentNet:
    """The bare network over standardized inputs.

    `params` holds the gate parameters stacked in GATES order along the last
    axis, Wx (G*H,), Wh (H, G*H) and b (G*H,), and the linear head Wy (H,)
    and by (1,). Every gate but the last is a sigmoid; the last is a tanh.
    """

    def __init__(self, cell: str, n_steps: int, hidden: int, seed: int):
        if cell not in GATES:
            raise DataError(f"unknown cell {cell!r}; expected gru or lstm")
        self.cell, self.n_steps, self.hidden = cell, n_steps, hidden
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        r, H, G = 1.0 / np.sqrt(hidden), hidden, len(GATES[cell])
        Wx, Wh = np.empty(G * H), np.empty((H, G * H))
        for k in range(G):  # draws go gate by gate: that gate's Wx, then its Wh
            Wx[k * H : (k + 1) * H] = rng.uniform(-r, r, size=H)
            Wh[:, k * H : (k + 1) * H] = rng.uniform(-r, r, size=(H, H))
        b = np.zeros(G * H)
        if cell == "lstm":
            b[H : 2 * H] = 1.0  # open forget gate at init
        self.params = {"Wx": Wx, "Wh": Wh, "b": b, "Wy": rng.uniform(-r, r, size=H),
                       "by": np.zeros(1)}

    def forward(self, X: np.ndarray):
        """X: (B, n_steps) standardized. Returns (yhat (B,), cache); per-step
        arrays are (G*H, B) and (H, B), rows last, so each gate is contiguous."""
        p, H = self.params, self.hidden
        S = p["b"].size - H  # the sigmoid gates' rows come first
        # sigmoid(u) = 0.5 * tanh(u / 2) + 0.5: halving the sigmoid gates'
        # parameters is exact, and one tanh then serves all gates at once
        half = np.repeat([0.5, 1.0], [S, H])
        WhT = (p["Wh"] * half).T
        # acts[t]: step t's input projection plus bias, one matmul over [x; 1]
        # for all steps; overwritten in place by the gate values
        x1 = np.stack([X.T, np.ones_like(X.T)], axis=1)
        acts = (np.stack([p["Wx"], p["b"]], axis=1) * half[:, None]) @ x1
        hs = np.zeros((self.n_steps + 1, H, len(X)))
        if self.cell == "gru":
            extra = np.empty_like(hs[1:])  # r * h, the candidate's recurrent input
            for t in range(self.n_steps):
                a, h = acts[t], hs[t]
                zr = a[:S]
                zr += WhT[:S] @ h
                np.tanh(zr, out=zr)
                np.add(zr * 0.5, 0.5, out=zr)
                np.multiply(a[H:S], h, out=extra[t])
                c = a[S:]
                c += WhT[S:] @ extra[t]
                np.tanh(c, out=c)
                np.multiply(a[:H], c - h, out=hs[t + 1])
                hs[t + 1] += h
        else:
            extra = np.zeros_like(hs)  # cell states
            for t in range(self.n_steps):
                a = acts[t]
                a += WhT @ hs[t]
                np.tanh(a, out=a)
                np.add(a[:S] * 0.5, 0.5, out=a[:S])
                np.multiply(a[H : 2 * H], extra[t], out=extra[t + 1])
                extra[t + 1] += a[:H] * a[S:]
                np.multiply(a[2 * H : S], np.tanh(extra[t + 1]), out=hs[t + 1])
        yhat = p["Wy"] @ hs[-1] + p["by"][0]
        return yhat, (X, hs, acts, extra)

    def backward(self, cache, dyhat: np.ndarray):
        """Gradients of sum(dyhat * yhat) w.r.t. params and inputs."""
        p, H, Wh = self.params, self.hidden, self.params["Wh"]
        X, hs, acts, extra = cache
        S = acts.shape[1] - H
        deriv = acts * (1.0 - acts)  # each gate's local derivative, all steps
        deriv[:, S:] = 1.0 - acts[:, S:] ** 2
        dpre = np.empty_like(acts)  # gate pre-activation gradients, all steps
        dh = np.outer(p["Wy"], dyhat)

        if self.cell == "gru":
            for t in range(self.n_steps - 1, -1, -1):
                a, d, h = acts[t], dpre[t], hs[t]
                np.multiply(dh, a[:H], out=d[S:])
                d[S:] *= deriv[t, S:]
                drh = Wh[:, S:] @ d[S:]
                np.multiply(drh, h, out=d[H:S])
                np.subtract(a[S:], h, out=d[:H])
                d[:H] *= dh
                d[:S] *= deriv[t, :S]
                dh = dh * (1.0 - a[:H]) + drh * a[H:S] + Wh[:, :S] @ d[:S]
            # z and r see h through Wh, the candidate sees r * h
            dWh = np.concatenate([_sum_steps_rows(hs[:-1], dpre[:, :S]),
                                  _sum_steps_rows(extra, dpre[:, S:])], axis=1)
        else:
            tanh_c = np.tanh(extra[1:])
            dh_dc = acts[:, 2 * H : S] * (1.0 - tanh_c**2)
            dc = np.zeros_like(dh)
            for t in range(self.n_steps - 1, -1, -1):
                a, d = acts[t], dpre[t]
                dc += dh * dh_dc[t]
                np.multiply(dc, a[S:], out=d[:H])
                np.multiply(dc, extra[t], out=d[H : 2 * H])
                np.multiply(dh, tanh_c[t], out=d[2 * H : S])
                np.multiply(dc, a[:H], out=d[S:])
                d *= deriv[t]
                dc *= a[H : 2 * H]
                dh = Wh @ d
            dWh = _sum_steps_rows(hs[:-1], dpre)

        grads = {"Wx": _sum_steps_rows(X.T[:, None], dpre)[0], "Wh": dWh, "b": dpre.sum(axis=(0, 2)),
                 "Wy": hs[-1] @ dyhat, "by": np.array([dyhat.sum()])}
        return grads, (p["Wx"] @ dpre).T

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray):
        """Mean squared error and its parameter gradients (standardized units)."""
        yhat, cache = self.forward(X)
        err = yhat - y
        loss = float(err @ err) / len(y)
        dyhat = 2.0 * err / len(y)
        grads, _ = self.backward(cache, dyhat)
        return loss, grads

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean squared error from forward passes alone, in row blocks."""
        err = np.concatenate([self.forward(Xb)[0] for Xb in _blocks(X)]) - y
        return float(err @ err) / len(y)

    def input_grads(self, X: np.ndarray) -> np.ndarray:
        """d(yhat)/d(X) per row, standardized units; (B, n_steps)."""
        return np.concatenate(
            [self.backward(self.forward(Xb)[1], np.ones(len(Xb)))[1] for Xb in _blocks(X)]
        )


@dataclass
class RnnModel:
    family: str  # "gru" | "lstm"
    columns: list[str]
    importances: np.ndarray
    net: RecurrentNet
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float
    loss_trace: list[float]

    def predict(self, X: np.ndarray) -> np.ndarray:
        Xs = (np.asarray(X, dtype=np.float64) - self.x_mean) / self.x_std
        yhat, _ = self.net.forward(Xs)
        return yhat * self.y_std + self.y_mean


def train_rnn(
    ds: LaggedDataset,
    cell: str,
    hidden: int = 16,
    epochs: int = 20,
    batch: int = 32,
    seed: int = 0,
    learning_rate: float = 1e-2,
) -> RnnModel:
    """Train on the chronological split; features standardized by train stats.

    Divergence (epoch loss above 1e3 x the initial loss) aborts with the loss
    trace attached. Shuffling and initialization both derive from `seed`.
    """
    if ds.split < MIN_RNN_TRAIN_ROWS:
        raise DataError(f"need >= {MIN_RNN_TRAIN_ROWS} training rows, got {ds.split}")
    net = RecurrentNet(cell, ds.n_features, hidden, seed)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])

    x_mean = ds.X_train.mean(axis=0)
    x_std = ds.X_train.std(axis=0)
    x_std[x_std == 0.0] = 1.0
    y_mean = float(ds.y_train.mean())
    y_std = float(ds.y_train.std()) or 1.0
    Xs = (ds.X_train - x_mean) / x_std
    ys = (ds.y_train - y_mean) / y_std

    n = len(ys)
    trace: list[float] = []
    initial = None
    for _epoch in range(epochs):
        loss = net.loss(Xs, ys)
        trace.append(loss)
        if initial is None:
            initial = loss if loss > 0 else 1.0
        if loss > 1e3 * initial:
            raise TrainingDivergence(
                f"{cell} training diverged at epoch {_epoch} (loss {loss:.3e})", trace
            )
        perm = shuffle_rng.permutation(n)
        for lo in range(0, n, batch):
            rows = perm[lo : lo + batch]
            _, grads = net.loss_and_grads(Xs[rows], ys[rows])
            for k, g in grads.items():
                net.params[k] -= learning_rate * g
    trace.append(net.loss(Xs, ys))

    dX = net.input_grads((ds.X_test - x_mean) / x_std)
    importances = np.mean(np.abs(dX), axis=0) * y_std / x_std
    return RnnModel(
        family=cell,
        columns=list(ds.columns),
        importances=importances,
        net=net,
        x_mean=x_mean,
        x_std=x_std,
        y_mean=y_mean,
        y_std=y_std,
        loss_trace=trace,
    )
