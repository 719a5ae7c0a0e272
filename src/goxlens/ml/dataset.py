"""Lagged feature matrices with a placebo column.

Features are strictly lagged values of every series except the target, named
"<series>_t-<lag>", ordered series-major then by ascending lag. A seeded
U(0,1) placebo column is appended last; any real feature that ranks below it
in a trained model is treated as uninformative. The train/test split is
chronological at 70%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import DataError

DEFAULT_LAGS = (1, 2, 3, 4, 24)
PLACEBO = "placebo"


@dataclass
class LaggedDataset:
    X: np.ndarray  # (n, f)
    y: np.ndarray  # (n,)
    columns: list[str]  # feature names; placebo last
    target: str
    lags: tuple[int, ...]
    split: int  # first test row index

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def X_train(self) -> np.ndarray:
        return self.X[: self.split]

    @property
    def y_train(self) -> np.ndarray:
        return self.y[: self.split]

    @property
    def X_test(self) -> np.ndarray:
        return self.X[self.split :]

    @property
    def y_test(self) -> np.ndarray:
        return self.y[self.split :]


def build_lagged(
    series: Mapping[str, np.ndarray],
    lags: Sequence[int] = DEFAULT_LAGS,
    seed: int = 0,
    target: str = "wash",
) -> LaggedDataset:
    """Assemble the lagged design from a map of aligned series.

    Rows with any undefined lag are dropped from the head, so row r of the
    output is time index max(lags) + r. The placebo column is drawn from
    the seed alone and is bit-reproducible.
    """
    if target not in series:
        raise DataError(f"unknown target series {target!r}; have {sorted(series)}")
    lag_list = sorted(set(int(l) for l in lags))
    if not lag_list or lag_list[0] < 1:
        raise DataError(f"lags must be >= 1, got {sorted(lags)}")
    arrays = {name: np.asarray(v, dtype=np.float64).ravel() for name, v in series.items()}
    lengths = {len(v) for v in arrays.values()}
    if len(lengths) != 1:
        raise DataError(f"series lengths differ: {sorted(lengths)}")
    n_total = lengths.pop()
    max_lag = lag_list[-1]
    if max_lag >= n_total / 2:
        raise DataError(f"max lag {max_lag} too large for {n_total} observations")

    feature_names = [name for name in arrays if name != target]
    rows = np.arange(max_lag, n_total)
    cols: list[np.ndarray] = []
    columns: list[str] = []
    for name in feature_names:
        for lag in lag_list:
            cols.append(arrays[name][rows - lag])
            columns.append(f"{name}_t-{lag}")
    rng = np.random.default_rng(seed)
    cols.append(rng.uniform(0.0, 1.0, size=len(rows)))
    columns.append(PLACEBO)

    X = np.column_stack(cols)
    y = arrays[target][rows]
    split = int(0.7 * len(rows))
    return LaggedDataset(
        X=X,
        y=y,
        columns=columns,
        target=target,
        lags=tuple(lag_list),
        split=split,
    )
