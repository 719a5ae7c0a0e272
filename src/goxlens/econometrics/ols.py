"""Ordinary least squares via SVD least squares (minimum-norm on rank loss)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError

# scipy.linalg.lstsq's default cutoff: singular values below eps * s_max are zero
_RCOND = np.finfo(np.float64).eps


def lstsq(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm least-squares solution of X B = Y (LAPACK gelsd) and the rank of X.

    The same driver and cutoff as `scipy.linalg.lstsq(X, Y, lapack_driver="gelsd")`,
    through numpy, so a fit does not import scipy. Y may be 1-d or 2-d.
    """
    for name, a in (("design", X), ("response", Y)):
        if not np.isfinite(a).all():
            raise DataError(f"least-squares {name} of shape {a.shape} has non-finite values")
    B, _, rank, _ = np.linalg.lstsq(X, Y, rcond=_RCOND)
    return B, int(rank)


@dataclass
class OlsFit:
    params: np.ndarray  # intercept first when fitted with one
    bse: np.ndarray
    tvalues: np.ndarray
    rsquared_adj: float
    resid: np.ndarray
    nobs: int
    df_resid: int
    rank: int
    rank_deficient: bool

    @property
    def rss(self) -> float:
        return float(self.resid @ self.resid)

    @property
    def pvalues(self) -> np.ndarray:
        """Two-sided t-test p-values with df_resid degrees of freedom."""
        # imported here, so fits that report no p-value never load scipy
        from scipy.special import stdtr

        return 2.0 * stdtr(self.df_resid, -np.abs(self.tvalues))


def ols(y, X, intercept: bool = True) -> OlsFit:
    """Fit y on X (optionally with a prepended intercept column).

    Rank-deficient designs are flagged and solved in the minimum-norm sense;
    standard errors then come from the pseudo-inverse, so collinear columns
    get finite (shared) uncertainty rather than a crash. p-values are
    two-sided from the t distribution with n - rank dof.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != y.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows, y has {y.shape[0]}")
    if intercept:
        X = np.column_stack([np.ones(len(y)), X])
    n, k = X.shape
    if n <= k + 1:
        raise DataError(f"need more than {k + 1} observations, got {n}")

    params, rank = lstsq(X, y)
    resid = y - X @ params
    rss = float(resid @ resid)
    df_resid = n - rank
    s2 = rss / df_resid
    xtx_inv = np.linalg.pinv(X.T @ X)
    bse = np.sqrt(np.clip(np.diag(xtx_inv), 0.0, None) * s2)
    with np.errstate(divide="ignore", invalid="ignore"):
        tvalues = np.where(bse > 0.0, params / np.where(bse > 0.0, bse, 1.0), np.inf * np.sign(params))

    if intercept:
        tss = float(np.sum((y - y.mean()) ** 2))
    else:
        tss = float(y @ y)
    if tss > 0.0:
        r2 = 1.0 - rss / tss
        rsq_adj = 1.0 - (1.0 - r2) * (n - 1) / df_resid
    else:
        rsq_adj = np.nan

    return OlsFit(
        params=params,
        bse=bse,
        tvalues=tvalues,
        rsquared_adj=float(rsq_adj),
        resid=resid,
        nobs=n,
        df_resid=df_resid,
        rank=rank,
        rank_deficient=rank < k,
    )
