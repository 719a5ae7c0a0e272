"""Seeded generators with ground-truth sidecars.

Everything here is a pure function of its arguments: the counter-based
Philox generator makes output independent of scheduling, so a spec plus a
seed is a complete description of the artifact. Labels (planted wash trades,
VAR coefficients, the cointegrating slope) are emitted alongside the data
rather than re-derived from it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DataError
from .ingest import BTC_UNIT, DAY, MONEY_UNIT, parse_date, write_canonical_csv

__all__ = [
    "CointegratedPair",
    "SynthSpec",
    "gen_cointegrated_pair",
    "gen_exchange_log",
    "gen_var_process",
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class SynthSpec:
    """Exchange-log generator configuration; JSON round-trippable.

    `wash_windows` entries are (start_date, end_date, rate) with an exclusive
    end; inside a window the self-trade rate overrides `wash_rate` (the last
    matching window wins), which is how surges are planted.

    The optional sections drive extra artifacts: `var_truth` ({"c", "coefs",
    "sigma_u", "T"}) a simulated process with known coefficients,
    `cointegration` ({"T", "noise_scale"}) a pair with a known slope, and
    `trend_weeks` ((date, score) pairs) a weekly attention series.
    """

    seed: int = 0
    start: str = "2013-01-01"
    n_days: int = 14
    n_traders: int = 50
    trades_per_interval: float = 20.0  # Poisson mean per 30-minute interval
    wash_rate: float = 0.03
    wash_windows: Tuple[Tuple[str, str, float], ...] = ()
    duplicate_rate: float = 0.0
    price: float = 100.0
    var_truth: Optional[dict] = None
    cointegration: Optional[dict] = None
    trend_weeks: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.n_days < 1 or self.n_traders < 2:
            raise DataError("need n_days >= 1 and n_traders >= 2")
        if not 0.0 <= self.wash_rate <= 1.0 or not 0.0 <= self.duplicate_rate <= 1.0:
            raise DataError("rates must lie in [0, 1]")
        if self.trades_per_interval < 0 or self.price <= 0:
            raise DataError("need trades_per_interval >= 0 and price > 0")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "start": self.start,
            "n_days": self.n_days,
            "n_traders": self.n_traders,
            "trades_per_interval": self.trades_per_interval,
            "wash_rate": self.wash_rate,
            "wash_windows": [list(w) for w in self.wash_windows],
            "duplicate_rate": self.duplicate_rate,
            "price": self.price,
            "var_truth": self.var_truth,
            "cointegration": self.cointegration,
            "trend_weeks": [list(w) for w in self.trend_weeks],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        known = {f for f in cls.__dataclass_fields__}
        extra = sorted(set(d) - known)
        if extra:
            raise DataError(f"unknown synth spec fields: {extra}")
        kwargs = dict(d)
        if "wash_windows" in kwargs:
            kwargs["wash_windows"] = tuple(
                (str(a), str(b), float(r)) for a, b, r in kwargs["wash_windows"]
            )
        if "trend_weeks" in kwargs:
            kwargs["trend_weeks"] = tuple(
                (str(a), float(s)) for a, s in kwargs["trend_weeks"]
            )
        return cls(**kwargs)


def gen_exchange_log(spec: SynthSpec) -> Tuple[str, dict]:
    """Generate a canonical trade CSV plus its ground-truth sidecar.

    Arrivals are Poisson per 30-minute interval. A wash trade is an organic
    trade whose buyer and seller are the same account; its combined key goes
    into the sidecar. Organic combined keys are unique by construction
    (amounts are resampled on collision), so injected duplicates (fresh trade
    id, identical key) are exactly the rows deduplication removes.
    """
    rng = _rng(spec.seed)
    start_ts = parse_date(spec.start)
    windows = [
        (parse_date(a), parse_date(b), float(r)) for a, b, r in spec.wash_windows
    ]

    def rate_at(ts: int) -> float:
        rate = spec.wash_rate
        for a, b, r in windows:
            if a <= ts < b:
                rate = r
        return rate

    seen_keys = set()
    # (buyer, seller, bitcoins_e8, money_e5, ts) per organic trade; users are
    # trader numbers, named u{number}
    trades: List[Tuple[int, int, int, int, int]] = []
    wash_flags: List[bool] = []
    for interval in range(spec.n_days * (DAY // 1800)):
        t0 = start_ts + interval * 1800
        for _ in range(int(rng.poisson(spec.trades_per_interval))):
            ts = t0 + int(rng.integers(0, 1800))
            buyer = int(rng.integers(spec.n_traders))
            wash = bool(rng.random() < rate_at(ts))
            if wash:
                seller = buyer
            else:
                seller = int(rng.integers(spec.n_traders - 1))
                if seller >= buyer:
                    seller += 1
            while True:
                btc_e8 = int(rng.integers(1_000_000, 10 * BTC_UNIT))
                price = spec.price * (1.0 + 0.01 * rng.standard_normal())
                money_e5 = max(1, round(btc_e8 / BTC_UNIT * price * MONEY_UNIT))
                key = (buyer, seller, btc_e8, money_e5, ts)
                if key not in seen_keys:
                    break
            seen_keys.add(key)
            trades.append(key)
            wash_flags.append(wash)

    pre_injection = len(trades)
    duplicate_of = np.flatnonzero(rng.random(pre_injection) < spec.duplicate_rate)
    # organic trades as t0, t1, ..., then the duplicates as d{serial}, serials running on
    trade_ids = [f"t{i}" for i in range(pre_injection)]
    trade_ids += [f"d{pre_injection + j}" for j in range(len(duplicate_of))]
    emitted = np.concatenate([np.arange(pre_injection), duplicate_of])
    names = np.array([f"u{k}" for k in range(spec.n_traders)], dtype=object)
    buyer, seller, btc_e8, money_e5, ts = np.array(trades, np.int64).reshape(-1, 5)[emitted].T

    buf = io.StringIO()
    write_canonical_csv(buf, trade_ids, names[buyer], names[seller], ts, btc_e8, money_e5)
    wash_ids = [tid for tid, w in zip(trade_ids, wash_flags) if w]
    sidecar = {
        "spec": spec.to_dict(),
        "pre_injection_count": pre_injection,
        "n_duplicates": len(duplicate_of),
        "wash_count": len(wash_ids),
        "wash_trade_ids": wash_ids,
        "wash_keys": [[f"u{b}", f"u{s}", *k] for (b, s, *k), w in zip(trades, wash_flags) if w],
    }
    return buf.getvalue(), sidecar


def gen_var_process(
    c: np.ndarray,
    coefs: Sequence[np.ndarray],
    sigma_u: np.ndarray,
    T: int,
    seed: int,
    burn_in: int = 500,
) -> np.ndarray:
    """Simulate y_t = c + sum_i A_i y_{t-i} + u_t, u_t ~ N(0, sigma_u).

    Shocks come from the lower-triangular factor of sigma_u; the first
    `burn_in` observations are discarded so the output starts near the
    stationary distribution. Unstable coefficient sets are refused.
    """
    c = np.asarray(c, dtype=np.float64).ravel()
    k = len(c)
    A = [np.asarray(a, dtype=np.float64) for a in coefs]
    for a in A:
        if a.shape != (k, k):
            raise DataError(f"coefficient shape {a.shape} does not match k={k}")
    sigma_u = np.asarray(sigma_u, dtype=np.float64)
    if sigma_u.shape != (k, k):
        raise DataError(f"sigma_u shape {sigma_u.shape} does not match k={k}")
    if T < 1:
        raise DataError(f"need T >= 1, got {T}")

    from .econometrics import spectral_radius

    radius = spectral_radius(np.stack(A)) if A else 0.0
    if radius >= 1.0:
        raise DataError(f"unstable VAR: spectral radius {radius:.6f} >= 1")
    if not sigma_u.any():
        L = np.zeros((k, k))  # noise off: deterministic recursion
    else:
        try:
            L = np.linalg.cholesky(sigma_u)
        except np.linalg.LinAlgError:
            raise DataError("sigma_u is not positive definite") from None

    p = len(A)
    total = burn_in + T
    shocks = _rng(seed).standard_normal((total, k)) @ L.T
    y = np.zeros((total + p, k))
    for t in range(total):
        row = c + shocks[t]
        for i, a in enumerate(A, start=1):
            row = row + a @ y[p + t - i]
        y[p + t] = row
    return y[p + burn_in :]


class CointegratedPair(NamedTuple):
    x: np.ndarray
    y: np.ndarray
    beta: float


def gen_cointegrated_pair(T: int, noise_scale: float, seed: int) -> CointegratedPair:
    """A random walk x and y = beta * x + AR(1) noise; beta is reported.

    The noise is stationary (phi = 0.5), so x and y share the single
    stochastic trend and (1, -beta) is the cointegrating vector. With
    noise_scale 0 the pair is exactly proportional.
    """
    if T < 100:
        raise DataError(f"need T >= 100, got {T}")
    if noise_scale < 0:
        raise DataError(f"noise scale must be >= 0, got {noise_scale}")
    rng = _rng(seed)
    beta = float(rng.uniform(0.5, 2.0))
    x = np.cumsum(rng.standard_normal(T))
    e = noise_scale * rng.standard_normal(T)
    u = np.empty(T)
    acc = 0.0
    for t in range(T):
        acc = 0.5 * acc + e[t]
        u[t] = acc
    return CointegratedPair(x, beta * x + u, beta)
