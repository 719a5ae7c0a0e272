"""Augmented Dickey-Fuller unit-root test, constant-only case.

Critical values are the classical finite-sample tabulation for the
constant/no-trend regression (asymptotic row -3.43 / -2.86 / -2.57),
interpolated linearly in 1/T between tabulated sample sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import DataError, DegenerateSeriesError
from .ols import equilibrate, nonzero_pivots, ols

# Rows: T = 25, 50, 100, 250, 500, asymptotic. Columns follow _CRIT_LEVELS.
_CRIT_T = np.array([25.0, 50.0, 100.0, 250.0, 500.0, np.inf])
_CRIT_LEVELS = (1, 5, 10)
_CRIT_TABLE = np.array(
    [
        [-3.75, -3.00, -2.63],
        [-3.58, -2.93, -2.60],
        [-3.51, -2.89, -2.58],
        [-3.46, -2.88, -2.57],
        [-3.44, -2.87, -2.57],
        [-3.43, -2.86, -2.57],
    ]
)


def critical_values(nobs: int) -> dict[int, float]:
    """Interpolate the critical-value table in 1/T; clamped below T=25."""
    x = 1.0 / nobs
    xs = 1.0 / _CRIT_T[::-1]  # ascending: 0 .. 0.04
    out = {}
    for j, level in enumerate(_CRIT_LEVELS):
        ys = _CRIT_TABLE[::-1, j]
        out[level] = float(np.interp(x, xs, ys))
    return out


def default_max_lag(n: int) -> int:
    """Schwert's rule of thumb: 12 * (n/100)^0.25, floored."""
    return int(12.0 * (n / 100.0) ** 0.25)


@dataclass
class AdfResult:
    statistic: float
    lag: int
    critical: dict[int, float]  # keys 1, 5, 10 (percent)
    reject_at_5pct: bool
    nobs: int


def _adf_tstat(
    y: np.ndarray, max_lag: int, lag_rule: str, constant: bool
) -> tuple[float, int, int]:
    """t-ratio on the lagged level; returns (stat, lag used, regression nobs).

    With lag_rule="aic" the lag is chosen on a common sample (rows aligned at
    max_lag), then the winner is re-estimated on its own maximal sample. A
    rank-deficient max-lag design or refit raises DegenerateSeriesError.
    """
    n = len(y)
    dy = np.diff(y)

    def design(lag: int, start: int):
        # Rows are t = start .. n-2 in diff indexing: dy[t] on y[t], dy[t-1..t-lag].
        rows = np.arange(start, n - 1)
        cols = [y[rows]]
        for j in range(1, lag + 1):
            cols.append(dy[rows - j])
        return dy[rows], np.column_stack(cols)

    if lag_rule == "fixed":
        chosen = max_lag
    elif lag_rule == "aic":
        chosen = _aic_lag_qr(*design(max_lag, max_lag), constant)
    else:
        raise DataError(f"unknown lag_rule {lag_rule!r}")

    dep, X = design(chosen, chosen)
    fit = ols(dep, X, intercept=constant)
    if fit.rank_deficient:
        raise DegenerateSeriesError(f"ADF design at lag {chosen} has rank {fit.rank} "
                                    f"of {len(fit.params)}")
    # The lagged level is the first X column; intercept (if any) precedes it.
    pos = 1 if constant else 0
    return float(fit.tvalues[pos]), chosen, len(dep)


def _aic_lag_qr(dep: np.ndarray, X: np.ndarray, constant: bool) -> int:
    """AIC lag from one QR of the max-lag design, its columns scaled to unit norm.

    Lag l's regressors are the leading 1 + l (+ constant) columns, so one
    factorisation gives every lag's RSS: the full fit's RSS plus the squares
    of the dropped coordinates of Q'dep (Golub & Van Loan, section 5.3); the
    scaling leaves each RSS unchanged. A design too short for `ols` is a
    DataError, and one whose |R_jj| fail `ols`'s rank rule (`nonzero_pivots`)
    is a DegenerateSeriesError.
    """
    first = 2 if constant else 1  # columns of the lag-0 model
    if constant:
        X = np.column_stack([np.ones(len(dep)), X])
    nobs, p = X.shape
    if nobs <= p + 1:
        raise DataError(f"need more than {p + 1} observations, got {nobs}")
    X, _ = equilibrate(X, dep)
    q, r = np.linalg.qr(X)
    if not nonzero_pivots(np.abs(np.diagonal(r)), X.shape).all():
        raise DegenerateSeriesError(f"ADF design at max lag {p - first} is rank deficient")
    qty = q.T @ dep
    resid = dep - q @ qty
    # tail[j] = sum of qty[i]^2 for i >= j; ||dep||^2 minus the kept squares
    # would cancel when R^2 is near 1
    tail = np.cumsum(qty[::-1] ** 2)[::-1]
    rss = float(resid @ resid) + np.append(tail[first:], 0.0)
    # log(RSS/nobs) + 2k/nobs, RSS floored at the smallest normal float;
    # argmin keeps the first minimum: ties go to the smaller lag
    k = np.arange(first, p + 1)
    aic = np.log(np.maximum(rss, np.finfo(float).tiny) / nobs) + 2.0 * k / nobs
    return int(np.argmin(aic))


def adf(series, max_lag: Optional[int] = None, lag_rule: str = "aic") -> AdfResult:
    """ADF test with a constant; statistic is the t-ratio on the lagged level.

    max_lag defaults to Schwert's rule. A constant series is degenerate; a
    series shorter than 25 + max_lag is insufficient.
    """
    y = np.asarray(series, dtype=np.float64).ravel()
    n = len(y)
    if n == 0 or np.ptp(y) == 0.0:
        raise DegenerateSeriesError(f"constant series (n={n})")
    if max_lag is None:
        max_lag = default_max_lag(n)
        # keep the search feasible on short series
        max_lag = min(max_lag, max(0, (n - 25)))
    if n < 25 + max_lag:
        raise DataError(f"need >= {25 + max_lag} observations for max_lag={max_lag}, got {n}")

    stat, lag, nobs = _adf_tstat(y, max_lag, lag_rule, constant=True)
    crit = critical_values(nobs)
    return AdfResult(
        statistic=stat,
        lag=lag,
        critical=crit,
        reject_at_5pct=stat < crit[5],
        nobs=nobs,
    )
