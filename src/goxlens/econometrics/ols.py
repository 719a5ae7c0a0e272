"""Ordinary least squares from one SVD of the design with unit-norm columns.

Unit-norm columns make fits and t-ratios independent of the data's scale
(Golub & Van Loan, *Matrix Computations*, section 5.3; Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 20). `lstsq` serves VAR, Granger and Johansen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError

_EPS = np.finfo(np.float64).eps
# scipy.linalg.lstsq's default cutoff: singular values below eps * s_max are zero
_RCOND = _EPS


def _check_finite(X: np.ndarray, Y: np.ndarray) -> None:
    for name, a in (("design", X), ("response", Y)):
        if not np.isfinite(a).all():
            raise DataError(f"least-squares {name} of shape {a.shape} has non-finite values")


def lstsq(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm least-squares solution of X B = Y (LAPACK gelsd) and the rank of X.

    The same driver and cutoff as `scipy.linalg.lstsq(X, Y, lapack_driver="gelsd")`,
    through numpy, so a fit does not import scipy. Y may be 1-d or 2-d.
    """
    _check_finite(X, Y)
    B, _, rank, _ = np.linalg.lstsq(X, Y, rcond=_RCOND)
    return B, int(rank)


def equilibrate(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X scaled to unit-norm columns, and the norms d; an all-zero column keeps
    d = 1, so it shows as rank loss. A non-finite X or y is a DataError."""
    _check_finite(X, y)
    d = np.linalg.norm(X, axis=0)
    d[d == 0.0] = 1.0
    return X / d, d


def nonzero_pivots(pivots: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The rank rule of `ols` and the ADF lag search: a singular value (or |R_jj|)
    of an equilibrated n x k design is nonzero above max(n, k)·eps of the largest."""
    return pivots > pivots.max() * max(shape) * _EPS


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

    One SVD of X with unit-norm columns gives the coefficients, the rank and
    the standard errors: bse_j = sqrt(s2 · Σ_i (V_ji / s_i)²) / d_j over the
    kept singular values s_i, with d_j the norm of column j. A rank-deficient
    design is flagged and solved in the minimum-norm sense. p-values are
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

    Xs, d = equilibrate(X, y)
    u, s, vt = np.linalg.svd(Xs, full_matrices=False)
    keep = nonzero_pivots(s, Xs.shape)
    rank = int(keep.sum())
    u, w = u[:, keep], vt[keep].T / s[keep]  # w = V S^-1 over the kept values
    uty = u.T @ y
    coef = w @ uty  # coefficients of the unit-norm columns
    resid = y - u @ uty
    rss = float(resid @ resid)
    df_resid = n - rank
    se = np.sqrt(rss / df_resid * np.einsum("ij,ij->i", w, w))
    with np.errstate(divide="ignore", invalid="ignore"):
        tvalues = np.where(se > 0.0, coef / np.where(se > 0.0, se, 1.0), np.inf * np.sign(coef))

    tss = float(np.sum((y - y.mean()) ** 2)) if intercept else float(y @ y)
    r2 = 1.0 - rss / tss if tss > 0.0 else np.nan
    rsq_adj = 1.0 - (1.0 - r2) * (n - 1) / df_resid

    return OlsFit(
        params=coef / d,
        bse=se / d,
        tvalues=tvalues,
        rsquared_adj=float(rsq_adj),
        resid=resid,
        nobs=n,
        df_resid=df_resid,
        rank=rank,
        rank_deficient=rank < k,
    )
