import re

import numpy as np
import pytest
import scipy.linalg
from scipy import stats

from goxlens.econometrics import ols
from goxlens.econometrics.ols import lstsq
from goxlens.errors import DataError


def test_noiseless_line_recovered_exactly():
    x = np.linspace(0.0, 5.0, 50)
    y = 2.0 * x + 3.0
    fit = ols(y, x[:, None])
    assert fit.params == pytest.approx([3.0, 2.0], abs=1e-10)
    assert fit.rsquared_adj == pytest.approx(1.0, abs=1e-10)
    assert fit.rss == pytest.approx(0.0, abs=1e-16)
    assert fit.nobs == 50 and not fit.rank_deficient


def test_noisy_slope_close_to_truth():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(10_000)
    y = x + rng.standard_normal(10_000)
    fit = ols(y, x[:, None])
    assert 0.97 <= fit.params[1] <= 1.03


def test_inference_matches_textbook_formulas():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 2))
    y = 1.0 + X @ np.array([0.5, -0.25]) + rng.standard_normal(40)
    fit = ols(y, X)

    # independent recomputation from the normal equations
    Xd = np.column_stack([np.ones(40), X])
    beta = np.linalg.solve(Xd.T @ Xd, Xd.T @ y)
    resid = y - Xd @ beta
    df = 40 - 3
    s2 = resid @ resid / df
    se = np.sqrt(np.diag(s2 * np.linalg.inv(Xd.T @ Xd)))
    tvals = beta / se
    pvals = 2 * stats.t.sf(np.abs(tvals), df)

    assert fit.params == pytest.approx(beta, rel=1e-10)
    assert fit.bse == pytest.approx(se, rel=1e-8)
    assert fit.tvalues == pytest.approx(tvals, rel=1e-8)
    assert fit.pvalues == pytest.approx(pvals, rel=1e-6)
    assert fit.df_resid == df
    ybar = y.mean()
    r2 = 1 - (resid @ resid) / ((y - ybar) @ (y - ybar))
    adj = 1 - (1 - r2) * (40 - 1) / df
    assert fit.rsquared_adj == pytest.approx(adj, rel=1e-10)


def test_no_intercept_mode():
    x = np.linspace(1.0, 4.0, 30)
    fit = ols(2.0 * x, x[:, None], intercept=False)
    assert fit.params == pytest.approx([2.0], abs=1e-10)
    assert len(fit.params) == 1


def test_duplicate_column_is_rank_deficient_but_predicts():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(60)
    X = np.column_stack([x, x])
    y = 3.0 * x
    fit = ols(y, X)
    assert fit.rank_deficient
    assert fit.rank < 3
    # fitted values are still exact even though coefficients are not unique
    assert fit.rss == pytest.approx(0.0, abs=1e-18)


def test_regressor_rescaling_invariance():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((80, 2))
    y = X @ np.array([1.0, -2.0]) + rng.standard_normal(80)
    a = ols(y, X)
    Xs = X.copy()
    Xs[:, 1] *= 10.0
    b = ols(y, Xs)
    assert b.params[2] == pytest.approx(a.params[2] / 10.0, rel=1e-9)
    assert b.params[1] == pytest.approx(a.params[1], rel=1e-9)
    assert b.rsquared_adj == pytest.approx(a.rsquared_adj, rel=1e-12)
    assert b.resid == pytest.approx(a.resid, abs=1e-9)
    assert b.tvalues == pytest.approx(a.tvalues, rel=1e-12)
    assert b.bse[2] == pytest.approx(a.bse[2] / 10.0, rel=1e-12)
    assert b.bse[:2] == pytest.approx(a.bse[:2], rel=1e-12)


def test_too_few_rows_rejected():
    with pytest.raises(DataError):
        ols(np.ones(3), np.ones((3, 3)))


def _designs(seed):
    """(X, Y) pairs: full-rank and rank-deficient designs, badly scaled columns,
    1-d and 2-d right-hand sides."""
    rng = np.random.default_rng(seed)
    for case in range(60):
        n = int(rng.integers(4, 120))
        k = int(rng.integers(1, min(n, 12) + 1))
        X = rng.standard_normal((n, k))
        if case % 3 == 1 and k >= 3:
            X[:, -1] = 2.0 * X[:, 0] - X[:, 1]  # exact collinearity
        if case % 3 == 2 and k >= 2:
            X[:, 1] = X[:, 0]  # duplicated column
        if case % 4 == 0:
            X *= 10.0 ** rng.integers(-6, 7, size=k)
        m = int(rng.integers(1, 6))
        Y = rng.standard_normal(n) if case % 2 else rng.standard_normal((n, m))
        yield X, Y


@pytest.mark.parametrize("seed", range(5))
def test_lstsq_matches_scipy_gelsd_bit_for_bit(seed):
    # the fits solved with scipy's gelsd before; outputs stay byte-identical
    # only if numpy's gelsd with scipy's cutoff gives the same bits
    ranks = set()
    for X, Y in _designs(seed):
        B, rank = lstsq(X, Y)
        B_ref, _, rank_ref, _ = scipy.linalg.lstsq(X, Y, lapack_driver="gelsd")
        assert np.array_equal(B, B_ref)
        assert B.shape == B_ref.shape
        assert rank == rank_ref
        ranks.add(rank < X.shape[1])
    assert ranks == {False, True}  # both full-rank and rank-deficient designs ran


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["design", "response"])
def test_lstsq_names_a_non_finite_input(bad, where):
    X = np.random.default_rng(0).standard_normal((20, 3))
    Y = np.ones((20, 2))
    (X if where == "design" else Y)[4, 1] = bad
    shape = (20, 3) if where == "design" else (20, 2)
    name = rf"least-squares {where} of shape {re.escape(str(shape))}"
    with pytest.raises(DataError, match=name):
        lstsq(X, Y)
    with pytest.raises(DataError, match="non-finite"):
        ols(Y[:, 1], X)
