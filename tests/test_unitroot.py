import numpy as np
import pytest

from goxlens.econometrics import adf, critical_values, default_max_lag, ols, unitroot
from goxlens.econometrics.unitroot import _adf_tstat
from goxlens.errors import DataError, DegenerateSeriesError
from goxlens.features import STUDY_SERIES, WeeklyBucket, filter_stationary_weeks

from conftest import MONDAY


def test_critical_values_asymptotic_row():
    cv = critical_values(10**9)
    assert cv[1] == pytest.approx(-3.43, abs=0.01)
    assert cv[5] == pytest.approx(-2.86, abs=0.01)
    assert cv[10] == pytest.approx(-2.57, abs=0.01)


def test_critical_values_tighten_with_sample_size():
    small, big = critical_values(25), critical_values(500)
    for level in (1, 5, 10):
        assert small[level] < big[level] < 0


def test_default_max_lag_rule():
    assert default_max_lag(100) == 12
    assert default_max_lag(1000) == int(12 * (10.0) ** 0.25)


def test_white_noise_rejects():
    rng = np.random.default_rng(0)
    res = adf(rng.standard_normal(1000))
    assert res.reject_at_5pct
    assert res.statistic < res.critical[5]


def test_random_walk_not_rejected():
    rng = np.random.default_rng(0)
    res = adf(np.cumsum(rng.standard_normal(1000)))
    assert not res.reject_at_5pct


def test_stationary_ar1_rejects():
    rng = np.random.default_rng(1)
    e = rng.standard_normal(800)
    y = np.empty(800)
    y[0] = e[0]
    for t in range(1, 800):
        y[t] = 0.5 * y[t - 1] + e[t]
    assert adf(y).reject_at_5pct


def test_zero_lag_statistic_matches_direct_regression():
    rng = np.random.default_rng(9)
    y = rng.standard_normal(200)
    res = adf(y, max_lag=0)
    assert res.lag == 0
    # independent recomputation: t-ratio on y_{t-1} in dy_t = a + r*y_{t-1} + e
    fit = ols(np.diff(y), y[:-1, None])
    assert res.statistic == pytest.approx(fit.tvalues[1], rel=1e-10)
    assert res.nobs == 199


def test_lag_choice_is_deterministic_and_bounded():
    rng = np.random.default_rng(2)
    y = np.cumsum(rng.standard_normal(400))
    a = adf(y, max_lag=8)
    b = adf(y, max_lag=8)
    assert a.lag == b.lag <= 8
    assert a.statistic == b.statistic


def test_constant_series_is_degenerate():
    with pytest.raises(DegenerateSeriesError):
        adf(np.full(100, 3.0))


def test_short_series_rejected():
    with pytest.raises(DataError):
        adf(np.arange(5.0))


# --- the AIC lag search ------------------------------------------------------
#
# `_adf_tstat` picks the lag from one QR of the max-lag design. The reference
# below is the per-lag search: one `ols` fit per lag on the common sample,
# then the chosen lag refitted with `ols` on its own maximal sample. Both
# scale the design columns to unit norm, so on a series near 1e9, where the
# level column is 1e9 times the lagged differences, no RSS loses its digits.

TINY = np.finfo(float).tiny


def _design(y, lag, start):
    dy = np.diff(y)
    rows = np.arange(start, len(y) - 1)
    return dy[rows], np.column_stack([y[rows]] + [dy[rows - j] for j in range(1, lag + 1)])


def _reference(y, max_lag, constant):
    best = (np.inf, 0)
    for lag in range(max_lag + 1):
        dep, X = _design(y, lag, max_lag)
        fit = ols(dep, X, intercept=constant)
        k = X.shape[1] + (1 if constant else 0)
        aic = np.log(max(fit.rss, TINY) / len(dep)) + 2.0 * k / len(dep)
        if aic < best[0]:
            best = (aic, lag)
    lag = best[1]
    dep, X = _design(y, lag, lag)
    fit = ols(dep, X, intercept=constant)
    return float(fit.tvalues[1 if constant else 0]), lag, len(dep)


def _path(kind, n, rng):
    e = rng.standard_normal(n)
    if kind == "walk":
        return np.cumsum(e)
    if kind == "offset":
        return 1e9 + np.cumsum(e)
    phi = {"ar1": 0.5, "near_unit": 0.99}[kind]
    y = np.empty(n)
    y[0] = e[0]
    for t in range(1, n):
        y[t] = phi * y[t - 1] + e[t]
    return y


@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.parametrize("kind", ["walk", "ar1", "near_unit", "offset"])
def test_qr_lag_search_matches_per_lag_ols(kind, constant):
    rng = np.random.default_rng([7, len(kind), int(constant)])
    lengths = [40, 41, 336, 5760, *rng.integers(42, 1500, size=8).tolist()]
    for n in lengths:
        y = _path(kind, n, rng)
        max_lag = min(default_max_lag(n), n - 25)
        got = _adf_tstat(y, max_lag, "aic", constant)
        assert got == _reference(y, max_lag, constant), (kind, n)


def _count_ols(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return ols(*args, **kwargs)

    monkeypatch.setattr(unitroot, "ols", counted)
    return calls


def test_qr_lag_search_fits_ols_once(monkeypatch):
    calls = _count_ols(monkeypatch)
    y = np.cumsum(np.random.default_rng(4).standard_normal(500))
    res = adf(y)
    assert len(calls) == 1  # the refit of the chosen lag
    assert res.lag <= default_max_lag(500)


def test_rank_deficient_design_is_degenerate():
    # differences repeat with period 2: the constant equals dy[t-1] + dy[t-2]
    # up to scale, and dy[t-1] equals dy[t-3], so the max-lag design loses rank
    y = np.cumsum(np.tile([1.0, -0.5], 100))
    max_lag = default_max_lag(len(y))
    with pytest.raises(DegenerateSeriesError, match=f"max lag {max_lag} is rank deficient"):
        _adf_tstat(y, max_lag, "aic", True)
    # with a fixed lag the refit is the only fit, and `ols` flags its rank
    with pytest.raises(DegenerateSeriesError, match=f"lag {max_lag} has rank"):
        _adf_tstat(y, max_lag, "fixed", True)


def test_one_nonzero_value_in_a_short_week_is_degenerate():
    # over the max-lag sample of 48 points, the level and the first lagged
    # differences of a series nonzero only at t=3 are all zero
    y = np.zeros(48)
    y[3] = 0.37
    with pytest.raises(DegenerateSeriesError):
        adf(y)
    rng = np.random.default_rng(0)
    series = {name: rng.standard_normal(48) for name in STUDY_SERIES}
    series["wash"] = y
    week = WeeklyBucket(MONDAY, {k: float(v.sum()) for k, v in series.items()}, series, 48)
    retained, dropped = filter_stationary_weeks([week])
    assert retained == []
    assert dropped == [(MONDAY, "wash", "degenerate")]
