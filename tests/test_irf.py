import numpy as np
import pytest

from goxlens.econometrics import irf, var_fit
from goxlens.econometrics.varmodel import VarModel
from goxlens.errors import DataError, SingularityError


def model_from(c, A_list, sigma, names=None, mean_abs=None):
    """A VarModel with chosen population quantities (no fitting involved)."""
    k = len(c)
    return VarModel(
        intercept=np.asarray(c, dtype=np.float64),
        coefs=np.stack([np.asarray(a, dtype=np.float64) for a in A_list]),
        sigma_u=np.asarray(sigma, dtype=np.float64),
        lag=len(A_list),
        names=names or [f"y{i}" for i in range(k)],
        nobs=100,
        resid=np.zeros((100, k)),
        mean_abs=np.ones(k) if mean_abs is None else np.asarray(mean_abs, dtype=np.float64),
    )


def sim_oracle(model, horizon, shock_col):
    """Shocked-minus-baseline propagation of one orthogonalized shock."""
    k, p = model.k, model.lag
    L = np.linalg.cholesky(model.sigma_u)
    base = np.zeros((p + horizon + 1, k))
    shocked = base.copy()
    # both paths share zero history; the shock lands at time index p
    shocked[p] += L[:, shock_col]
    for t in range(p + 1, p + horizon + 1):
        for path in (base, shocked):
            acc = model.intercept.copy()
            for i in range(1, p + 1):
                acc += model.coefs[i - 1] @ path[t - i]
            path[t] = path[t] + acc
    # intercept cancels in the difference; keep it anyway for fidelity
    return (shocked - base)[p + 1 :]


A_STABLE = np.array([[0.5, 0.1], [-0.2, 0.3]])


def test_no_dynamics_no_propagation():
    m = model_from([0.0, 0.0], [np.zeros((2, 2))], np.eye(2))
    out = irf(m, 5)
    assert np.array_equal(out.responses, np.zeros((5, 2, 2)))


def test_matches_simulation_oracle():
    m = model_from([0.1, -0.2], [A_STABLE], np.array([[1.0, 0.3], [0.3, 0.5]]))
    out = irf(m, 10)
    for col in range(2):
        diff = sim_oracle(m, 10, col)
        assert np.max(np.abs(out.responses[:, :, col] - diff)) < 1e-8


def test_identity_covariance_first_step():
    m = model_from([0.0, 0.0], [A_STABLE], np.eye(2))
    out = irf(m, 3)
    # with unit shocks, the h=1 response is just A1
    assert out.responses[0] == pytest.approx(A_STABLE, abs=1e-12)
    assert out.stable and out.spectral_radius < 1
    assert out.ridge == 0.0


def test_response_accessors():
    m = model_from([0.0, 0.0], [A_STABLE], np.eye(2), names=["wash", "liq"])
    out = irf(m, 4)
    r = out.response("wash", "liq")
    assert r.shape == (4,)
    assert np.array_equal(r, out.responses[:, 0, 1])
    p = out.percent_response("wash", "liq")
    assert np.array_equal(p, 100.0 * r)  # mean_abs is 1 here


def test_percent_convention_and_zero_mean_sentinel():
    m = model_from(
        [0.0, 0.0], [A_STABLE], np.eye(2), names=["a", "b"], mean_abs=[4.0, 0.0]
    )
    out = irf(m, 3)
    assert out.percent[:, 0, :] == pytest.approx(100.0 * out.responses[:, 0, :] / 4.0)
    sentinel = out.percent[:, 1, :]
    assert np.all(~np.isfinite(sentinel) | (out.responses[:, 1, :] == 0.0))


def test_ordering_permutation_matters_only_with_correlation():
    sigma = np.array([[1.0, 0.6], [0.6, 2.0]])
    m = model_from([0.0, 0.0], [A_STABLE], sigma)
    a = irf(m, 5)
    b = irf(m, 5, ordering=[1, 0])
    assert not np.allclose(a.responses, b.responses)

    m_diag = model_from([0.0, 0.0], [A_STABLE], np.diag([1.0, 2.0]))
    c = irf(m_diag, 5)
    d = irf(m_diag, 5, ordering=[1, 0])
    assert c.responses == pytest.approx(d.responses, abs=1e-12)


def test_singular_covariance_is_refused():
    # PSD but rank one: no Cholesky factor, and no ridge to make one
    v = np.array([1.0, 2.0])
    m = model_from([0.0, 0.0], [A_STABLE], np.outer(v, v), names=["wash", "total"])
    for ordering in (None, [1, 0]):
        with pytest.raises(SingularityError, match="not positive definite") as e:
            irf(m, 3, ordering=ordering)
        assert e.value.columns == ["wash", "total"]


def test_indefinite_covariance_rejected():
    m = model_from([0.0, 0.0], [A_STABLE], np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(DataError):
        irf(m, 3)


def test_unstable_model_is_flagged_not_rejected():
    m = model_from([0.0, 0.0], [np.diag([1.05, 0.2])], np.eye(2))
    out = irf(m, 3)
    assert not out.stable
    assert out.spectral_radius > 1


def test_bad_arguments():
    m = model_from([0.0, 0.0], [A_STABLE], np.eye(2))
    with pytest.raises(DataError):
        irf(m, 0)
    with pytest.raises(DataError):
        irf(m, 3, ordering=[0, 0])


def test_fitted_model_reinjection_reproduces_sample():
    rng = np.random.default_rng(15)
    data = rng.standard_normal((80, 2)).cumsum(axis=0) * 0.1 + rng.standard_normal((80, 2))
    m = var_fit(data, 2)
    rebuilt = data.copy()
    for t in range(2, 80):
        rebuilt[t] = (
            m.intercept
            + m.coefs[0] @ rebuilt[t - 1]
            + m.coefs[1] @ rebuilt[t - 2]
            + m.resid[t - 2]
        )
    assert rebuilt == pytest.approx(data, abs=1e-8)
