import numpy as np
import pytest

from goxlens.econometrics import adf, engle_granger, johansen, mackinnon_pvalue, ols
from goxlens.errors import DataError, SingularityError
from goxlens.synth import gen_cointegrated_pair


def _pair(seed, T=400, noise_scale=1.0):
    cp = gen_cointegrated_pair(T, noise_scale, seed)
    return np.column_stack([cp.x, cp.y])


def _walks(seed, T=400, k=2):
    return np.cumsum(np.random.default_rng(seed).standard_normal((T, k)), axis=0)


# --- Johansen ----------------------------------------------------------------


def test_trace_identity_and_shapes():
    res = johansen(_walks(0, k=3), p=2)
    T = res.nobs
    lam = res.eigenvalues
    assert lam.shape == (3,)
    assert np.all(np.diff(lam) <= 1e-12)  # descending
    assert np.all((lam >= 0) & (lam < 1))
    for r in range(3):
        recomputed = -T * np.sum(np.log(1.0 - lam[r:]))
        assert abs(res.trace_stats[r] - recomputed) < 1e-10
        max_eig = -T * np.log(1.0 - lam[r])
        assert abs(res.max_eigen_stats[r] - max_eig) < 1e-10


def test_trace_stats_strictly_decreasing():
    res = johansen(_walks(1, k=3), p=2)
    assert np.all(np.diff(res.trace_stats) < 0)


def test_cointegrated_pair_has_rank():
    res = johansen(_pair(0), p=2, names=["x", "y"])
    assert res.rank >= 1


def test_independent_walks_have_rank_zero():
    res = johansen(_walks(4), p=2)
    assert res.rank == 0


def test_johansen_scale_invariance():
    # mixed units must not masquerade as collinearity
    data = _walks(5, k=3) + 50.0
    a = johansen(data, p=2)
    b = johansen(data * np.array([1e8, 1.0, 1e-6]), p=2)
    assert a.eigenvalues == pytest.approx(b.eigenvalues, rel=1e-6, abs=1e-10)
    assert a.rank == b.rank


def test_exact_linear_combination_is_singular():
    w = _walks(7, k=2)
    data = np.column_stack([w, w[:, 0] + w[:, 1]])
    with pytest.raises(SingularityError) as e:
        johansen(data, p=2, names=["a", "b", "absum"])
    assert "absum" in str(e.value) or "a" in str(e.value)


def test_johansen_critical_value_orientation():
    res = johansen(_walks(9, k=2), p=2)
    # testing "at most 0" needs a larger critical value than "at most 1"
    assert res.trace_crit_95[0] > res.trace_crit_95[1] > 0
    assert res.max_eigen_crit_95[0] > res.max_eigen_crit_95[1] > 0


def test_johansen_input_validation():
    with pytest.raises(DataError):
        johansen(_walks(0)[:10], p=2)
    with pytest.raises(DataError):
        johansen(np.ones((100, 1)), p=2)


# --- Engle-Granger -----------------------------------------------------------


def test_mackinnon_pvalue_anchors():
    assert mackinnon_pvalue(-3.34) == pytest.approx(0.0494, abs=2e-3)
    assert mackinnon_pvalue(-50.0) == 0.0
    assert mackinnon_pvalue(10.0) == 1.0


def test_mackinnon_pvalue_monotone():
    stats_grid = np.linspace(-6.0, 1.0, 40)
    pvals = [mackinnon_pvalue(s) for s in stats_grid]
    assert all(a <= b + 1e-12 for a, b in zip(pvals, pvals[1:]))
    assert all(0.0 <= p <= 1.0 for p in pvals)


def test_cointegrated_pair_rejects():
    cp = gen_cointegrated_pair(400, 1.0, seed=0)
    res = engle_granger(cp.y, cp.x)
    assert res.pvalue < 0.10


def test_independent_walks_do_not_reject():
    w = _walks(23, T=400)
    res = engle_granger(w[:, 0], w[:, 1])
    assert res.pvalue > 0.10


def test_exact_relation_hits_the_floor():
    x = np.cumsum(np.random.default_rng(2).standard_normal(300))
    res = engle_granger(2.0 * x + 1.0, x)
    assert res.pvalue == 0.0
    assert res.lag == 0


def test_eg_length_mismatch():
    with pytest.raises(DataError):
        engle_granger(np.ones(50), np.ones(49))


def test_eg_rejects_a_constant_series():
    walk = np.cumsum(np.random.default_rng(3).standard_normal(100))
    with pytest.raises(DataError, match="constant y series"):
        engle_granger(np.full(100, 3.0), walk)
    with pytest.raises(DataError, match="constant x series"):
        engle_granger(walk, np.full(100, 3.0))


# --- generator properties used by the tests above ----------------------------


def test_cointegrated_pair_structure():
    cp = gen_cointegrated_pair(5000, 1.0, seed=4)
    assert 0.5 <= cp.beta <= 2.0
    # step-1 OLS recovers beta
    fit = ols(cp.y, cp.x[:, None])
    assert abs(fit.params[1] - cp.beta) < 0.05
    # x is a unit root; the residual combination is stationary
    assert not adf(cp.x).reject_at_5pct
    assert adf(cp.y - cp.beta * cp.x).reject_at_5pct


def test_noise_free_pair_is_exact_multiple():
    cp = gen_cointegrated_pair(300, 0.0, seed=6)
    assert cp.y == pytest.approx(cp.beta * cp.x, abs=1e-12)


def test_differenced_pair_is_stationary():
    cp = gen_cointegrated_pair(800, 1.0, seed=8)
    assert adf(np.diff(cp.x)).reject_at_5pct
    assert adf(np.diff(cp.y)).reject_at_5pct
