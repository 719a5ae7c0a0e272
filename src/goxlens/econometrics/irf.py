"""Orthogonalized impulse responses with a percent-of-level view.

Responses use the moving-average recursion Phi[0] = I, Phi[h] = sum A_i
Phi[h-i]; the orthogonalized response at horizon h is Psi[h] = Phi[h] @ P
with P the lower-triangular Cholesky factor of Sigma_u under a caller-chosen
variable ordering. A Sigma_u that is not positive definite has no such
factor and raises SingularityError; it is never regularized. The percent
view rescales each response row by the variable's mean absolute level; a
zero mean level yields IEEE inf/-inf/nan sentinels rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import DataError, SingularityError
from .varmodel import VarModel, spectral_radius


@dataclass
class IrfMatrix:
    """responses[h-1, j, i]: response of variable j at horizon h to a
    one-standard-deviation orthogonalized shock in variable i."""

    responses: np.ndarray  # (H, k, k)
    percent: np.ndarray  # (H, k, k); may contain inf/nan sentinels
    horizons: int
    ordering: tuple[int, ...]
    names: list[str]
    spectral_radius: float
    stable: bool
    ridge: float  # always 0.0: Sigma_u is never regularized (read by clibench's tracer)

    def response(self, effect: str, shock: str) -> np.ndarray:
        return self.responses[:, self.names.index(effect), self.names.index(shock)]

    def percent_response(self, effect: str, shock: str) -> np.ndarray:
        return self.percent[:, self.names.index(effect), self.names.index(shock)]


def irf(
    model: VarModel, horizon: int, ordering: Optional[Sequence[int]] = None
) -> IrfMatrix:
    """Orthogonalized IRFs for horizons 1..horizon.

    `ordering` is the recursive identification order (indices into the
    model's variables); default is the order the variables were fitted in.
    An unstable model is flagged, not rejected; a Sigma_u that is not
    positive definite raises SingularityError naming the model's series.
    """
    if horizon < 1:
        raise DataError(f"horizon must be >= 1, got {horizon}")
    k, p = model.k, model.lag
    order = np.arange(k) if ordering is None else np.asarray(tuple(ordering), dtype=np.int64)
    if sorted(order.tolist()) != list(range(k)):
        raise DataError(f"ordering must be a permutation of 0..{k - 1}")

    try:
        L = np.linalg.cholesky(model.sigma_u[np.ix_(order, order)])
    except np.linalg.LinAlgError:
        msg = f"residual covariance of {list(model.names)} is not positive definite"
        raise SingularityError(msg, columns=model.names) from None
    inv = np.argsort(order)
    P = L[np.ix_(inv, inv)]

    phi = np.empty((horizon + 1, k, k))
    phi[0] = np.eye(k)
    for h in range(1, horizon + 1):
        acc = np.zeros((k, k))
        for i in range(1, min(h, p) + 1):
            acc += model.coefs[i - 1] @ phi[h - i]
        phi[h] = acc
    responses = phi[1:] @ P

    denom = model.mean_abs  # (k,) per response variable j
    with np.errstate(divide="ignore", invalid="ignore"):
        percent = 100.0 * responses / denom[None, :, None]

    sr = spectral_radius(model.coefs)
    return IrfMatrix(
        responses=responses,
        percent=percent,
        horizons=horizon,
        ordering=tuple(int(i) for i in order),
        names=list(model.names),
        spectral_radius=sr,
        stable=sr < 1.0,
        ridge=0.0,
    )
