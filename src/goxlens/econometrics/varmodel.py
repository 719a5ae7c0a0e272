"""Vector autoregression: estimation, AIC order selection, Granger causality.

y_t = c + A_1 y_{t-1} + ... + A_p y_{t-p} + u_t, estimated equation by
equation with a shared regressor block (one least-squares solve for all
equations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import DataError
from .cointegration import _check_collinear
from .ols import lstsq


@dataclass
class VarModel:
    intercept: np.ndarray  # (k,)
    coefs: np.ndarray  # (p, k, k); coefs[i] multiplies y_{t-1-i}
    sigma_u: np.ndarray  # (k, k), denominator T_eff - k*p - 1
    lag: int
    names: list[str]
    nobs: int  # effective rows (T - p)
    resid: np.ndarray  # (nobs, k); row t is u_{t+p}
    mean_abs: np.ndarray  # (k,) sample mean of |y_j| over the regression rows

    @property
    def k(self) -> int:
        return len(self.intercept)


def _lag_design(data: np.ndarray, p: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Y rows from `start`, X = [1, y_{t-1}, ..., y_{t-p}]."""
    T = data.shape[0]
    rows = np.arange(start, T)
    blocks = [np.ones((len(rows), 1))]
    for i in range(1, p + 1):
        blocks.append(data[rows - i])
    return data[rows], np.hstack(blocks)


def max_order(T: int, k: int) -> int:
    """Largest order leaving k residual degrees of freedom: T - p - k*p - 1 >= k."""
    return (T - 1 - k) // (k + 1)


def var_fit(data, p: int, names: Optional[Sequence[str]] = None) -> VarModel:
    """Least-squares VAR(p), for 1 <= p <= max_order(T, k).

    Series that are constant or linearly dependent would make the lag design
    and Sigma_u singular; they raise SingularityError naming them.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataError("VAR data must be 2-d (T, k)")
    T, k = data.shape
    if p < 1:
        raise DataError(f"lag order must be >= 1, got {p}")
    if p > max_order(T, k):
        raise DataError(f"insufficient observations: T={T} rows of {k} series "
                        f"support an order of at most {max_order(T, k)}, got {p}")
    if names is None:
        names = [f"y{i}" for i in range(k)]
    elif len(names) != k:
        raise DataError(f"{len(names)} names for {k} variables")
    _check_collinear(data, names)
    t_eff = T - p

    Y, X = _lag_design(data, p, p)
    B = lstsq(X, Y)[0]
    resid = Y - X @ B
    sigma_u = (resid.T @ resid) / (t_eff - k * p - 1)

    coefs = np.empty((p, k, k))
    for i in range(p):
        coefs[i] = B[1 + i * k : 1 + (i + 1) * k].T
    return VarModel(
        intercept=B[0].copy(),
        coefs=coefs,
        sigma_u=sigma_u,
        lag=p,
        names=list(names),
        nobs=t_eff,
        resid=resid,
        mean_abs=np.mean(np.abs(Y), axis=0),
    )


def companion(coefs: np.ndarray) -> np.ndarray:
    """Companion matrix of A_1..A_p: (k*p, k*p)."""
    p, k, _ = coefs.shape
    top = np.hstack([coefs[i] for i in range(p)])
    if p == 1:
        return top
    lower = np.eye(k * (p - 1), k * p)
    return np.vstack([top, lower])


def spectral_radius(coefs: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(companion(coefs)))))


def select_lag_aic(data, p_max: int) -> int:
    """Order minimizing ln det(Sigma_ml(p)) + 2*p*k^2/T on a common sample.

    Candidates 1..p_max all use rows from p_max so their likelihoods are
    comparable; ties go to the smaller order.
    """
    data = np.asarray(data, dtype=np.float64)
    T, k = data.shape
    if p_max < 1:
        raise DataError(f"p_max must be >= 1, got {p_max}")
    t_common = T - p_max
    if t_common <= k * p_max + 1:
        raise DataError(f"insufficient observations for p_max={p_max} with T={T}")

    best_p, best_aic = 1, np.inf
    for p in range(1, p_max + 1):
        Y, X = _lag_design(data, p, p_max)
        B = lstsq(X, Y)[0]
        resid = Y - X @ B
        sigma_ml = (resid.T @ resid) / t_common
        sign, logdet = np.linalg.slogdet(sigma_ml)
        if sign <= 0:
            continue
        aic = logdet + 2.0 * p * k * k / t_common
        if aic < best_aic:
            best_p, best_aic = p, aic
    return best_p


def _resolve_column(ref, names: Sequence[str]) -> int:
    if isinstance(ref, str):
        try:
            return list(names).index(ref)
        except ValueError:
            raise DataError(f"unknown series {ref!r}; have {list(names)}") from None
    return int(ref)


@dataclass
class GrangerResult:
    cause: str
    effect: str
    lag: int
    fstat: float
    pvalue: float
    passed: bool  # p < 0.05


def granger(data, cause, effect, lag: int, names: Optional[Sequence[str]] = None) -> GrangerResult:
    """F-test of the cause's lags in the effect's autoregression.

    `cause` and `effect` are column indices, or names when `names` is given.
    F = [(RSS_r - RSS_u)/lag] / [RSS_u/(T - 2*lag - 1)] where the restricted
    model has only the effect's own lags. A perfectly fit unrestricted model
    (RSS_u ~ 0) is degenerate.
    """
    from scipy.special import fdtrc

    data = np.asarray(data, dtype=np.float64)
    T, k = data.shape
    if names is None:
        names = [f"y{i}" for i in range(k)]
    else:
        names = list(names)
    cause = _resolve_column(cause, names)
    effect = _resolve_column(effect, names)
    if lag < 1:
        raise DataError(f"lag must be >= 1, got {lag}")
    if cause == effect:
        raise DataError("cause and effect must differ")
    df2 = T - lag - 2 * lag - 1  # effective rows (T - lag) minus 2*lag + 1 params
    if df2 < 1:
        raise DataError(f"insufficient observations: T={T} for lag={lag}")

    rows = np.arange(lag, T)
    y = data[rows, effect]
    own = np.column_stack([data[rows - j, effect] for j in range(1, lag + 1)])
    other = np.column_stack([data[rows - j, cause] for j in range(1, lag + 1)])
    ones = np.ones((len(rows), 1))

    def rss(X: np.ndarray) -> float:
        beta = lstsq(X, y)[0]
        e = y - X @ beta
        return float(e @ e)

    rss_r = rss(np.hstack([ones, own]))
    rss_u = rss(np.hstack([ones, own, other]))
    scale = float(y @ y) if float(y @ y) > 0 else 1.0
    if rss_u <= 1e-14 * scale:
        raise DataError("degenerate Granger regression: unrestricted RSS is zero")

    fstat = max(rss_r - rss_u, 0.0) / lag / (rss_u / df2)
    pvalue = float(fdtrc(lag, df2, fstat))
    return GrangerResult(
        cause=names[cause],
        effect=names[effect],
        lag=lag,
        fstat=float(fstat),
        pvalue=pvalue,
        passed=pvalue < 0.05,
    )
