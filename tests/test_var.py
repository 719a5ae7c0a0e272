import numpy as np
import pytest
from scipy import stats

from goxlens.econometrics import companion, granger, select_lag_aic, spectral_radius, var_fit
from goxlens.econometrics.varmodel import max_order
from goxlens.errors import DataError, SingularityError
from goxlens.synth import gen_var_process

A1 = np.array([[0.5, 0.1], [0.0, 0.3]])


def _sim(A_list, T, seed, c=None, sigma=None):
    k = A_list[0].shape[0]
    return gen_var_process(
        np.zeros(k) if c is None else c,
        A_list,
        np.eye(k) if sigma is None else sigma,
        T,
        seed=seed,
    )


# --- estimation --------------------------------------------------------------


def test_var1_coefficients_recovered():
    data = _sim([A1], 5000, seed=3)
    m = var_fit(data, 1)
    assert np.max(np.abs(m.coefs[0] - A1)) < 0.05
    assert np.max(np.abs(m.intercept)) < 0.05
    assert m.lag == 1 and m.k == 2 and m.nobs == 4999


def test_noise_has_no_structure():
    hits = 0
    for seed in range(100):
        data = np.random.default_rng(seed).standard_normal((5000, 2))
        m = var_fit(data, 1)
        hits += np.max(np.abs(m.coefs[0])) < 0.05
    assert hits >= 90


def test_fit_on_deterministic_path_has_zero_residuals():
    # noise off: the series follows the recursion exactly, from zero towards
    # its fixed point
    c, off = np.array([1.0, 2.0]), np.zeros((2, 2))
    data = gen_var_process(c, [A1], off, 400, seed=0, burn_in=0)
    m = var_fit(data, 1)
    assert np.max(np.abs(m.resid)) < 1e-8
    assert m.coefs[0] == pytest.approx(A1, abs=1e-10)
    # after a burn-in the path sits at the fixed point: constant up to
    # round-off, and named as constant
    with pytest.raises(SingularityError, match=r"constant series: \['y0', 'y1'\]") as err:
        var_fit(_sim([A1], 400, seed=0, c=c, sigma=off), 1)
    assert err.value.columns == ["y0", "y1"]


def test_reconstruction_identity():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((60, 3))
    m = var_fit(data, 2)
    for t in range(2, 60):
        pred = m.intercept + m.coefs[0] @ data[t - 1] + m.coefs[1] @ data[t - 2]
        assert data[t] == pytest.approx(pred + m.resid[t - 2], abs=1e-10)


def test_sigma_u_denominator():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((200, 2))
    m = var_fit(data, 1)
    t_eff, k, p = 199, 2, 1
    manual = m.resid.T @ m.resid / (t_eff - k * p - 1)
    assert m.sigma_u == pytest.approx(manual, rel=1e-12)


def test_var_input_validation():
    with pytest.raises(DataError):
        var_fit(np.ones(10), 1)
    with pytest.raises(DataError):
        var_fit(np.ones((10, 2)), 0)
    with pytest.raises(DataError):
        var_fit(np.random.default_rng(0).standard_normal((5, 2)), 2)
    with pytest.raises(DataError, match="series \\['b'\\] has non-finite values"):
        var_fit(np.column_stack([np.arange(20.0), [np.nan] * 20]), 1, names=["a", "b"])


def test_order_bound_leaves_k_residual_degrees_of_freedom():
    # T - p - k*p - 1 >= k: 25 rows of 4 series support order 4, 24 rows order 3
    assert max_order(25, 4) == 4 and max_order(24, 4) == 3
    data = np.random.default_rng(1).standard_normal((25, 4))
    assert var_fit(data, 4).nobs == 21
    with pytest.raises(DataError, match="at most 3, got 4"):
        var_fit(data[:24], 4)
    m = var_fit(data[:24], 3)
    assert np.linalg.matrix_rank(m.sigma_u) == 4


def test_linear_dependency_is_named():
    rng = np.random.default_rng(2)
    w, nw, liq, vol = rng.standard_normal((4, 300))
    data = np.column_stack([w, nw, w + nw, liq, vol])
    names = ["wash", "nonwash", "total", "liq", "vol"]
    with pytest.raises(SingularityError, match="linearly dependent") as e:
        var_fit(data, 2, names=names)
    assert e.value.columns == ["wash", "nonwash", "total"]


def test_constant_series_is_named():
    data = np.random.default_rng(3).standard_normal((200, 3))
    data[:, 2] = 7.0
    with pytest.raises(SingularityError, match="constant series") as e:
        var_fit(data, 1, names=["wash", "nonwash", "liq"])
    assert e.value.columns == ["liq"]


# --- companion form ----------------------------------------------------------


def test_companion_matrix_layout():
    A2 = np.array([[0.2, 0.0], [0.1, 0.1]])
    C = companion(np.stack([A1, A2]))
    assert C.shape == (4, 4)
    assert np.array_equal(C[:2, :2], A1)
    assert np.array_equal(C[:2, 2:], A2)
    assert np.array_equal(C[2:, :2], np.eye(2))
    assert np.array_equal(C[2:, 2:], np.zeros((2, 2)))


def test_spectral_radius_diagonal():
    A = np.diag([0.5, 0.9])
    assert spectral_radius(A[None, :, :]) == pytest.approx(0.9, abs=1e-12)


# --- lag selection -----------------------------------------------------------


def test_aic_finds_strong_second_order():
    A2 = np.array([[0.0, 0.0], [0.0, 0.0]])
    B2 = np.array([[0.6, 0.0], [0.2, 0.5]])
    data = _sim([A2, B2], 600, seed=8)
    assert select_lag_aic(data, 6) == 2


def test_aic_on_noise_prefers_short_lags():
    picks = [
        select_lag_aic(np.random.default_rng(s).standard_normal((400, 2)), 6)
        for s in range(20)
    ]
    assert min(picks) == 1
    assert sum(p == 1 for p in picks) >= 15


def test_aic_single_candidate():
    data = np.random.default_rng(0).standard_normal((100, 2))
    assert select_lag_aic(data, 1) == 1


# --- Granger -----------------------------------------------------------------


def _leadlag(T, seed, b=0.8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(T)
    y = np.empty(T)
    y[0] = rng.standard_normal()
    y[1:] = b * x[:-1] + rng.standard_normal(T - 1)
    return np.column_stack([x, y])


def test_constructed_leadlag_detected():
    data = _leadlag(500, seed=0)
    res = granger(data, cause=0, effect=1, lag=1)
    assert res.pvalue < 0.01
    assert res.passed
    assert res.fstat > 0


def test_reverse_direction_not_detected():
    data = _leadlag(500, seed=0)
    res = granger(data, cause=1, effect=0, lag=1)
    assert res.pvalue > 0.01


def test_names_and_indices_agree():
    data = _leadlag(300, seed=5)
    by_idx = granger(data, 0, 1, lag=2)
    by_name = granger(data, "x", "y", lag=2, names=["x", "y"])
    assert by_idx.fstat == by_name.fstat
    assert by_name.cause == "x" and by_name.effect == "y"
    with pytest.raises(DataError):
        granger(data, "nope", "y", lag=1, names=["x", "y"])


def test_zero_cause_gives_zero_f():
    rng = np.random.default_rng(1)
    data = np.column_stack([np.zeros(200), rng.standard_normal(200)])
    res = granger(data, 0, 1, lag=2)
    assert res.fstat == 0.0
    assert not res.passed
    assert res.pvalue == pytest.approx(1.0)


def test_f_statistic_matches_manual_computation():
    data = _leadlag(250, seed=7)
    L = 2
    res = granger(data, 0, 1, lag=L)
    x, y = data[:, 0], data[:, 1]
    rows = np.arange(L, 250)
    Xr = np.column_stack([np.ones(len(rows))] + [y[rows - l] for l in range(1, L + 1)])
    Xu = np.column_stack([Xr] + [x[rows - l] for l in range(1, L + 1)])
    rss = lambda X: float(np.sum((y[rows] - X @ np.linalg.lstsq(X, y[rows], rcond=None)[0]) ** 2))
    df2 = len(rows) - 2 * L - 1
    f = (rss(Xr) - rss(Xu)) / L / (rss(Xu) / df2)
    assert res.fstat == pytest.approx(f, rel=1e-9)
    assert res.pvalue == pytest.approx(stats.f.sf(f, L, df2), rel=1e-9)


def test_null_f_distribution_calibrated():
    # 95th percentile of the empirical F within 10% of the theoretical one
    L, T = 2, 120
    fstats = []
    for seed in range(1000):
        rng = np.random.default_rng(20_000 + seed)
        data = rng.standard_normal((T, 2))
        fstats.append(granger(data, 0, 1, lag=L).fstat)
    emp = float(np.quantile(fstats, 0.95))
    df2 = (T - L) - 2 * L - 1  # effective rows minus both lag blocks and the constant
    theory = float(stats.f.ppf(0.95, L, df2))
    assert abs(emp - theory) / theory < 0.10


def test_granger_needs_enough_rows():
    with pytest.raises(DataError):
        granger(np.random.default_rng(0).standard_normal((8, 2)), 0, 1, lag=3)
