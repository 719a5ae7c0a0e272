"""Cointegration: Johansen rank test and two-step Engle-Granger.

Critical values are baked in as data: the constant-case 95% trace and
max-eigenvalue tables (indexed by the number of non-cointegrating dimensions,
1..6) and the MacKinnon (1994) response-surface coefficients for residual
p-values in the constant case, N = 1..6 underlying series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import DataError, SingularityError
from .ols import lstsq, ols
from .unitroot import _adf_tstat, default_max_lag

# 95% critical values, constant term, by remaining dimension k - r = 1..6.
TRACE_CV_95 = np.array([3.8415, 15.4943, 29.7961, 47.8545, 69.8189, 95.7542])
MAXEIG_CV_95 = np.array([3.8415, 14.2639, 21.1314, 27.5858, 33.8777, 40.0763])


@dataclass
class JohansenResult:
    eigenvalues: np.ndarray  # descending, in [0, 1)
    trace_stats: np.ndarray  # trace_stats[r] tests "at most r" relations
    max_eigen_stats: np.ndarray
    trace_crit_95: np.ndarray
    max_eigen_crit_95: np.ndarray
    rank: int  # first r whose trace test fails to reject; k if all reject
    nobs: int


def johansen(data, p: int, names: Optional[Sequence[str]] = None) -> JohansenResult:
    """Johansen trace test for a VAR(p) in levels with a constant.

    Reduced-rank regression: residuals R0 (dy_t on a constant and p-1 lagged
    differences) and R1 (y_{t-1} on the same) feed the generalized symmetric
    eigenproblem S10 S00^-1 S01 v = lambda S11 v. Statistics are recomputed
    from the eigenvalues, so the trace identity holds exactly. The eigenvalues
    are invariant under per-series scaling, so levels are standardized
    internally; the conditioning checks then flag collinearity, not unit
    mismatches.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataError("Johansen data must be 2-d (T, k)")
    T, k = data.shape
    if k > 6:
        raise DataError(f"critical values tabulated up to 6 variables, got {k}")
    if T <= 10 * k:
        raise DataError(f"need T > 10*k = {10 * k} observations, got {T}")
    if p < 1:
        raise DataError(f"lag order must be >= 1, got {p}")
    if names is None:
        names = [f"y{i}" for i in range(k)]

    _check_collinear(data, names)
    data = data / data.std(axis=0)

    dy = np.diff(data, axis=0)  # dy[i] = y[i+1] - y[i]
    # Rows t = p..T-1 in level indexing; dy index t-1.
    rows = np.arange(p, T)
    t_eff = len(rows)
    dep0 = dy[rows - 1]
    dep1 = data[rows - 1]
    Z = [np.ones((t_eff, 1))]
    for j in range(1, p):
        Z.append(dy[rows - 1 - j])
    Z = np.hstack(Z)

    def residualize(Y: np.ndarray) -> np.ndarray:
        return Y - Z @ lstsq(Z, Y)[0]

    R0 = residualize(dep0)
    R1 = residualize(dep1)
    S00 = R0.T @ R0 / t_eff
    S11 = R1.T @ R1 / t_eff
    S01 = R0.T @ R1 / t_eff

    for name_mat, S in (("S00", S00), ("S11", S11)):
        if np.linalg.cond(S) > 1e13:
            raise SingularityError(
                f"{name_mat} numerically singular; collinear or constant levels",
                columns=names,
            )

    import scipy.linalg  # imported here, so studies that run no Johansen never load it

    M = S01.T @ np.linalg.solve(S00, S01)
    eigvals = scipy.linalg.eigh(M, S11, eigvals_only=True)
    lam = np.clip(eigvals[::-1], 0.0, 1.0 - 1e-15)[:k]

    log1m = np.log(1.0 - lam)
    trace = np.array([-t_eff * log1m[r:].sum() for r in range(k)])
    max_eigen = -t_eff * log1m
    trace_cv = TRACE_CV_95[k - 1 :: -1].copy()  # index r -> table row k-r
    maxeig_cv = MAXEIG_CV_95[k - 1 :: -1].copy()

    rank = k
    for r in range(k):
        if trace[r] < trace_cv[r]:
            rank = r
            break
    return JohansenResult(
        eigenvalues=lam,
        trace_stats=trace,
        max_eigen_stats=max_eigen,
        trace_crit_95=trace_cv,
        max_eigen_crit_95=maxeig_cv,
        rank=rank,
        nobs=t_eff,
    )


def _check_collinear(data: np.ndarray, names: Sequence[str]) -> None:
    """Refuse constant or linearly dependent columns, naming the series.

    A column whose std is at most 1e-12 of its mean absolute level is constant
    up to round-off. On the standardized columns, a singular value below 1e-10
    of the largest marks a dependency; its right singular vector names the
    series in it.
    """
    bad = [names[i] for i in np.flatnonzero(~np.isfinite(data).all(axis=0))]
    if bad:
        raise DataError(f"series {bad} has non-finite values")
    stds = data.std(axis=0)
    flat = [names[i] for i in np.flatnonzero(stds <= 1e-12 * np.abs(data).mean(axis=0))]
    if flat:
        raise SingularityError(f"constant series: {flat}", columns=flat)
    _u, s, vt = np.linalg.svd((data - data.mean(axis=0)) / stds, full_matrices=False)
    null = np.abs(vt[s <= 1e-10 * s[0]])
    if len(null):
        cols = [names[i] for i in np.flatnonzero((null > 1e-3).any(axis=0))]
        raise SingularityError(f"linearly dependent series: {cols}", columns=cols)


# MacKinnon (1994) response-surface coefficients, constant case, N = 1..6.
# p = Phi(c0 + c1*tau + c2*tau^2 [+ c3*tau^3]); the cubic rows apply above
# TAU_STAR, the quadratic rows below. Outside [TAU_MIN, TAU_MAX] the p-value
# saturates at 0 or 1.
EG_TAU_STAR = np.array([-1.61, -2.62, -3.13, -3.47, -3.78, -3.93])
EG_TAU_MIN = np.array([-18.83, -18.86, -23.48, -28.07, -25.96, -23.27])
EG_TAU_MAX = np.array([2.74, 0.92, 0.55, 0.61, 0.79, 1.00])
EG_SMALL_P = np.array(
    [
        [2.1659, 1.4412, 3.8269e-2],
        [2.9200, 1.5012, 3.9796e-2],
        [3.4699, 1.4856, 3.1640e-2],
        [3.9673, 1.4777, 2.6315e-2],
        [4.5509, 1.5338, 2.9545e-2],
        [5.1399, 1.6036, 3.4445e-2],
    ]
)
EG_LARGE_P = np.array(
    [
        [1.7339, 9.3202e-1, -1.2745e-1, -1.0368e-2],
        [2.1945, 6.4695e-1, -2.9198e-1, -4.2377e-2],
        [2.5893, 4.5168e-1, -3.6529e-1, -5.0074e-2],
        [3.0387, 4.5452e-1, -3.3666e-1, -4.1921e-2],
        [3.5049, 5.2098e-1, -2.9158e-1, -3.3468e-2],
        [3.9489, 5.8933e-1, -2.5359e-1, -2.7210e-2],
    ]
)


def mackinnon_pvalue(stat: float, n_series: int = 2) -> float:
    """Residual-test p-value from the constant-case response surface."""
    from scipy.special import ndtr

    if not 1 <= n_series <= 6:
        raise DataError(f"n_series must be in 1..6, got {n_series}")
    i = n_series - 1
    if stat > EG_TAU_MAX[i]:
        return 1.0
    if stat < EG_TAU_MIN[i]:
        return 0.0
    coef = EG_SMALL_P[i] if stat <= EG_TAU_STAR[i] else EG_LARGE_P[i]
    z = sum(c * stat**j for j, c in enumerate(coef))
    return float(ndtr(z))


@dataclass
class EgResult:
    pvalue: float
    statistic: float  # residual ADF t-ratio (no constant)
    lag: int


def engle_granger(y, x) -> EgResult:
    """Two-step test: OLS of y on x (with intercept), then residual ADF.

    The residual regression has no constant (step 1 absorbed it); the lag is
    chosen by AIC up to Schwert's bound. Numerically zero residuals (y an
    exact affine function of x) short-circuit to the strongest rejection.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64).ravel()
    if len(y) != len(x):
        raise DataError(f"length mismatch: {len(y)} vs {len(x)}")
    if len(y) < 50:
        raise DataError(f"need >= 50 observations, got {len(y)}")
    if np.ptp(x) == 0.0:
        raise DataError("constant x series")
    if np.ptp(y) == 0.0:
        raise DataError("constant y series")

    step1 = ols(y, x, intercept=True)
    resid = step1.resid
    scale = float(y @ y) if float(y @ y) > 0 else 1.0
    if float(resid @ resid) <= 1e-20 * scale:
        return EgResult(pvalue=0.0, statistic=-np.inf, lag=0)

    max_lag = min(default_max_lag(len(resid)), len(resid) - 25)
    stat, lag, _ = _adf_tstat(resid, max_lag, "aic", constant=False)
    return EgResult(pvalue=mackinnon_pvalue(stat, n_series=2), statistic=stat, lag=lag)
