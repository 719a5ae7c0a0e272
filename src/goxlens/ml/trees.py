"""Tree-family regressors: CART, random forest, and two boosting modes.

All trees share one vectorized splitter (cumulative sums over each feature's
sorted rows) and a depth cap of 3 by default. Each fit sorts every feature
once, as XGBoost's pre-sorted column block does (Chen & Guestrin, KDD 2016):
a node receives, per feature, its own rows in stable ascending order of that
feature, and a split partitions those orders between its children without
sorting again. Features are read from a column-major copy of the training
matrix, also made once per fit. Split quality is squared-error reduction;
the second-order boosting mode swaps in a gradient/hessian gain with an L2
leaf penalty.
Importances are split gains accumulated per feature: averaged over trees for
the forest, summed over rounds for boosting.

Determinism: features are scanned in index order, candidate thresholds in
ascending order, ties keep the first winner, and all randomness flows from
spawned per-tree generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import DataError
from .dataset import LaggedDataset

_REL_GAIN_FLOOR = 1e-12
MIN_TRAIN_ROWS = 50


@dataclass
class _Node:
    value: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _predict_node(node: _Node, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    if node.is_leaf:
        out[idx] = node.value
        return
    mask = X[idx, node.feature] <= node.threshold
    _predict_node(node.left, X, idx[mask], out)
    _predict_node(node.right, X, idx[~mask], out)


def _predict_tree(root: _Node, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    _predict_node(root, X, np.arange(len(X)), out)
    return out


def _column_block(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A fit's feature columns, XT = X.T in contiguous rows, and each one's row order.

    Row j of the order lists all rows in stable order of X[:, j]. A node's
    rows are ascending, so the stable order restricted to them is what a stable
    sort of that node alone would give, ties and all. Splitters gather feature
    j of a node's rows from XT[j], a contiguous row, not a strided column of X.
    """
    XT = np.ascontiguousarray(X.T)
    return XT, np.argsort(XT, axis=1, kind="stable")


class _SseSplitter:
    """Weighted squared-error splitter; leaf value is the weighted mean."""

    def __init__(self, XT: np.ndarray, y: np.ndarray, w: np.ndarray):
        self.XT, self.y, self.w = XT, y, w

    def leaf_value(self, idx: np.ndarray) -> float:
        wv = self.w[idx]
        return float((wv @ self.y[idx]) / wv.sum())

    def best_split(self, idx: np.ndarray, ranked: np.ndarray, features: np.ndarray):
        yv = self.y[idx]
        if yv.min() == yv.max():  # pure node: forces exact single-leaf on constant targets
            return None
        wv = self.w[idx]
        W = wv.sum()
        WY = wv @ yv
        WY2 = wv @ (yv * yv)
        sse_parent = WY2 - WY * WY / W
        floor = _REL_GAIN_FLOOR * max(sse_parent, 1e-300)

        best = None
        for j in features:
            rows = ranked[j]
            xs = self.XT[j][rows]
            if xs[0] == xs[-1]:
                continue
            ys = self.y[rows]
            ws = self.w[rows]
            cw = np.cumsum(ws)[:-1]
            cwy = np.cumsum(ws * ys)[:-1]
            cwy2 = np.cumsum(ws * ys * ys)[:-1]
            wr = W - cw
            sse_l = cwy2 - cwy * cwy / cw
            sse_r = (WY2 - cwy2) - (WY - cwy) ** 2 / wr
            gains = sse_parent - sse_l - sse_r
            gains[xs[1:] == xs[:-1]] = -np.inf
            s = int(np.argmax(gains))
            gain = float(gains[s])
            if gain > floor and (best is None or gain > best[2]):
                best = (int(j), float((xs[s] + xs[s + 1]) / 2.0), gain)
        return best


class _GradSplitter:
    """Second-order splitter on (gradient, unit hessian) with L2 leaf penalty."""

    def __init__(self, XT: np.ndarray, g: np.ndarray, reg_lambda: float):
        self.XT, self.g, self.lam = XT, g, reg_lambda

    def leaf_value(self, idx: np.ndarray) -> float:
        return float(-self.g[idx].sum() / (len(idx) + self.lam))

    def best_split(self, idx: np.ndarray, ranked: np.ndarray, features: np.ndarray):
        gv = self.g[idx]
        G = gv.sum()
        H = float(len(idx))
        parent = G * G / (H + self.lam)
        floor = _REL_GAIN_FLOOR * max(float(gv @ gv), 1.0)
        ch = np.arange(1, len(idx), dtype=np.float64)

        best = None
        for j in features:
            rows = ranked[j]
            xs = self.XT[j][rows]
            if xs[0] == xs[-1]:
                continue
            cg = np.cumsum(self.g[rows])[:-1]
            gains = 0.5 * (
                cg * cg / (ch + self.lam)
                + (G - cg) ** 2 / (H - ch + self.lam)
                - parent
            )
            gains[xs[1:] == xs[:-1]] = -np.inf
            s = int(np.argmax(gains))
            gain = float(gains[s])
            if gain > floor and (best is None or gain > best[2]):
                best = (int(j), float((xs[s] + xs[s + 1]) / 2.0), gain)
        return best


def _grow(
    splitter,
    idx: np.ndarray,
    ranked: np.ndarray,
    depth: int,
    max_depth: int,
    importances: np.ndarray,
    rng: Optional[np.random.Generator],
    n_subset: int,
) -> _Node:
    """Grow the subtree on rows `idx` (ascending); `ranked` is their per-feature order."""
    node = _Node(value=splitter.leaf_value(idx))
    if depth >= max_depth or len(idx) < 2:
        return node
    n_features = len(splitter.XT)
    if rng is not None and n_subset < n_features:
        features = np.sort(rng.choice(n_features, size=n_subset, replace=False))
    else:
        features = np.arange(n_features)
    found = splitter.best_split(idx, ranked, features)
    if found is None:
        return node
    j, threshold, gain = found
    importances[j] += gain
    node.feature, node.threshold = j, threshold
    mask = splitter.XT[j][idx] <= threshold
    left, right = idx[mask], idx[~mask]
    go = np.zeros(splitter.XT.shape[1], dtype=bool)
    go[left] = True
    went = go[ranked]  # each row of `ranked` keeps its order within each side
    f = len(ranked)
    node.left = _grow(
        splitter, left, ranked[went].reshape(f, len(left)),
        depth + 1, max_depth, importances, rng, n_subset,
    )
    node.right = _grow(
        splitter, right, ranked[~went].reshape(f, len(right)),
        depth + 1, max_depth, importances, rng, n_subset,
    )
    return node


@dataclass
class TreeModel:
    family: str
    columns: list[str]
    importances: np.ndarray
    root: _Node

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _predict_tree(self.root, np.asarray(X, dtype=np.float64))


@dataclass
class ForestModel:
    family: str
    columns: list[str]
    importances: np.ndarray
    roots: list[_Node] = field(repr=False)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.mean([_predict_tree(r, X) for r in self.roots], axis=0)


@dataclass
class BoostModel:
    family: str
    columns: list[str]
    importances: np.ndarray
    roots: list[_Node] = field(repr=False)
    weights: np.ndarray = field(default=None, repr=False)  # per-round scale
    base: float = 0.0
    aggregate: str = "sum"  # "sum" or "weighted_median"

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if not self.roots:
            return np.full(len(X), self.base)
        preds = np.array([_predict_tree(r, X) for r in self.roots])
        if self.aggregate == "sum":
            return self.base + self.weights @ preds
        # Weighted median across rounds, per sample.
        order = np.argsort(preds, axis=0, kind="mergesort")
        w_sorted = np.take_along_axis(
            np.broadcast_to(self.weights[:, None], preds.shape), order, axis=0
        )
        cum = np.cumsum(w_sorted, axis=0)
        pick = np.argmax(cum >= 0.5 * cum[-1], axis=0)
        sorted_preds = np.take_along_axis(preds, order, axis=0)
        return sorted_preds[pick, np.arange(preds.shape[1])]


def _check_train_rows(ds: LaggedDataset) -> None:
    if ds.split < MIN_TRAIN_ROWS:
        raise DataError(f"need >= {MIN_TRAIN_ROWS} training rows, got {ds.split}")


def train_tree(ds: LaggedDataset, max_depth: int = 3) -> TreeModel:
    """Single CART regression tree on the training split."""
    _check_train_rows(ds)
    X, y = ds.X_train, ds.y_train
    importances = np.zeros(ds.n_features)
    XT, ranked = _column_block(X)
    splitter = _SseSplitter(XT, y, np.ones(len(y)))
    idx = np.arange(len(y))
    root = _grow(splitter, idx, ranked, 0, max_depth, importances, None, ds.n_features)
    return TreeModel("cart", list(ds.columns), importances, root)


def train_forest(
    ds: LaggedDataset,
    n_trees: int = 100,
    max_depth: int = 3,
    seed: int = 0,
) -> ForestModel:
    """Bootstrap forest with per-split feature subsets of size max(1, f//3)."""
    _check_train_rows(ds)
    X, y = ds.X_train, ds.y_train
    n = len(y)
    f = ds.n_features
    n_subset = max(1, f // 3)
    XT, order = _column_block(X)
    roots, imps = [], []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n, size=n)
        imps.append(np.zeros(f))
        splitter = _SseSplitter(XT, y, np.bincount(rows, minlength=n).astype(np.float64))
        # Weighted fit on bootstrap counts; rows with zero weight must not
        # enter the splitter, so index the positive-count subset.
        member = splitter.w > 0
        idx = np.flatnonzero(member)
        ranked = order[member[order]].reshape(f, len(idx))
        roots.append(_grow(splitter, idx, ranked, 0, max_depth, imps[-1], rng, n_subset))
    return ForestModel("forest", list(ds.columns), np.mean(imps, axis=0), roots)


def train_boost(
    ds: LaggedDataset,
    mode: str,
    n_rounds: int = 100,
    max_depth: int = 3,
    seed: int = 0,
    learning_rate: float = 0.1,
    reg_lambda: float = 1.0,
) -> BoostModel:
    """Boosted depth-capped trees.

    mode="gradient_second_order": squared loss, leaf weights -G/(H + lambda),
    shrinkage `learning_rate`. mode="adaboost_regression": relative linear
    loss reweighting with log(1/beta) model weights and weighted-median
    prediction; rounds stop once the weighted mean relative loss reaches 0.5.
    """
    _check_train_rows(ds)
    if mode == "gradient_second_order":
        return _train_gradient(ds, n_rounds, max_depth, learning_rate, reg_lambda)
    if mode == "adaboost_regression":
        return _train_adaboost(ds, n_rounds, max_depth, seed)
    raise DataError(f"unknown boost mode {mode!r}")


def _train_gradient(
    ds: LaggedDataset, n_rounds: int, max_depth: int, lr: float, lam: float
) -> BoostModel:
    X, y = ds.X_train, ds.y_train
    base = float(y.mean())
    importances = np.zeros(ds.n_features)
    roots: list[_Node] = []
    F = np.full(len(y), base)
    if y.min() != y.max():
        idx = np.arange(len(y))
        XT, ranked = _column_block(X)
        for _ in range(n_rounds):
            splitter = _GradSplitter(XT, F - y, lam)
            root = _grow(splitter, idx, ranked, 0, max_depth, importances, None, ds.n_features)
            roots.append(root)
            F += lr * _predict_tree(root, X)
    weights = np.full(len(roots), lr)
    return BoostModel(
        "gradient_boost", list(ds.columns), importances, roots, weights, base, "sum"
    )


def _train_adaboost(ds: LaggedDataset, n_rounds: int, max_depth: int, seed: int) -> BoostModel:
    X, y = ds.X_train, ds.y_train
    n = len(y)
    w = np.full(n, 1.0 / n)
    importances = np.zeros(ds.n_features)
    roots: list[_Node] = []
    alphas: list[float] = []
    idx = np.arange(n)
    if y.min() == y.max():
        return BoostModel(
            "adaboost",
            list(ds.columns),
            importances,
            [_Node(value=float(y[0]))],
            np.array([1.0]),
            0.0,
            "weighted_median",
        )

    XT, ranked = _column_block(X)
    for _ in range(n_rounds):
        splitter = _SseSplitter(XT, y, w)
        imp = np.zeros(ds.n_features)
        root = _grow(splitter, idx, ranked, 0, max_depth, imp, None, ds.n_features)
        pred = _predict_tree(root, X)
        err = np.abs(pred - y)
        max_err = err.max()
        if max_err <= 0.0:
            # perfect fit; keep it with full confidence and stop
            roots.append(root)
            alphas.append(1.0)
            importances += imp
            break
        loss = err / max_err  # linear relative loss
        lbar = float(w @ loss)
        if lbar >= 0.5:
            if not roots:
                roots.append(root)
                alphas.append(1.0)
                importances += imp
            break
        beta = lbar / (1.0 - lbar)
        roots.append(root)
        alphas.append(float(np.log(1.0 / beta)))
        importances += imp
        w = w * beta ** (1.0 - loss)
        w /= w.sum()

    weights = np.array(alphas) if alphas else np.array([1.0])
    if not roots:  # constant target: single pure leaf
        splitter = _SseSplitter(XT, y, np.full(n, 1.0 / n))
        roots = [_Node(value=splitter.leaf_value(idx))]
    return BoostModel(
        "adaboost", list(ds.columns), importances, roots, weights, 0.0, "weighted_median"
    )
