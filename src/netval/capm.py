"""Closed-form debt pricing under a CAPM/GBM endowment model.

Bank assets are geometric Brownian motions tied to a market factor.
Replacing each asset with either its comonotonic version (z = sigma) or
its market-conditional expectation (z = beta * sigma_M) maps the
lognormal factor through the power maps ``s_i q0 hat_eta_i(z_i, q)``.
Debt prices and market caps are the ``expected_values`` of that model,
discounted by ``e^{-rT}``; under full recovery they bracket the true
price from below and above.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .comonotonic import (
    FactorModel,
    LogNormal,
    PowerMap,
    SolvencyThresholds,
    expected_values,
    solvency_thresholds,
)
from .network import DomainError, FinancialNetwork, build_network

SIGMA_CONSISTENCY_TOL = 1e-12


class PricingError(DomainError):
    """Raised for inconsistent CAPM parameters or refused bound requests."""


@dataclass(frozen=True)
class CapmParams:
    """Market model parameters; ``sigma`` is derived when not supplied.

    ``mu_M`` is the physical market drift and is consumed only by the
    Monte Carlo oracle; every price in this module is risk-neutral.
    """

    r: float
    T: float
    sigma_M: float
    beta: np.ndarray
    gamma: np.ndarray
    s: np.ndarray
    sigma: np.ndarray
    q0: float
    mu_M: object

    def __init__(self, r, T, sigma_M, beta, gamma, s, sigma=None, q0=1.0, mu_M=None):
        beta = np.ascontiguousarray(np.asarray(beta, dtype=float))
        gamma = np.ascontiguousarray(np.asarray(gamma, dtype=float))
        s = np.ascontiguousarray(np.asarray(s, dtype=float))
        if not (beta.shape == gamma.shape == s.shape) or beta.ndim != 1:
            raise PricingError("beta, gamma, s must be 1-d arrays of equal length")
        if not np.isfinite(r) or not np.isfinite(T) or T <= 0.0:
            raise PricingError("need finite r and maturity T > 0")
        if not np.isfinite(sigma_M) or sigma_M <= 0.0:
            raise PricingError("market volatility sigma_M must be positive")
        if np.any(beta < 0.0) or np.any(gamma < 0.0) or np.any(s < 0.0):
            raise PricingError("beta, gamma, s must be nonnegative")
        if not (np.isfinite(q0) and q0 > 0.0):
            raise PricingError("initial price q0 must be positive")
        derived = np.sqrt((beta * sigma_M) ** 2 + gamma**2)
        if sigma is None:
            sigma = derived
        else:
            sigma = np.ascontiguousarray(np.asarray(sigma, dtype=float))
            if sigma.shape != beta.shape:
                raise PricingError("sigma length must match beta")
            if np.any(np.abs(sigma - derived) > SIGMA_CONSISTENCY_TOL):
                raise PricingError(
                    "sigma inconsistent with sqrt(beta^2 sigma_M^2 + gamma^2)"
                )
        for arr in (beta, gamma, s, sigma):
            arr.flags.writeable = False
        object.__setattr__(self, "r", float(r))
        object.__setattr__(self, "T", float(T))
        object.__setattr__(self, "sigma_M", float(sigma_M))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "q0", float(q0))
        object.__setattr__(self, "mu_M", None if mu_M is None else float(mu_M))

    @property
    def n(self) -> int:
        return self.beta.size

    def factor_dist(self) -> LogNormal:
        """Risk-neutral law of the normalized market factor q_T / q_0."""
        return LogNormal(
            (self.r - 0.5 * self.sigma_M**2) * self.T, self.sigma_M**2 * self.T
        )

    def z_vector(self, which: str) -> np.ndarray:
        if which == "lower":
            return self.sigma
        if which == "upper":
            return self.beta * self.sigma_M
        raise PricingError(f"which must be 'lower' or 'upper', got {which!r}")


def hat_eta(z, qT: float, params: CapmParams) -> np.ndarray:
    """Growth factor exp((1 - z/sigma_M)(r + z sigma_M/2) T) * qT^(z/sigma_M)."""
    if qT <= 0.0:
        raise PricingError("qT must be positive")
    z = np.asarray(z, dtype=float)
    return _eta_prefactor(z, params) * qT ** (z / params.sigma_M)


def _eta_prefactor(z, params: CapmParams) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    r, T, sM = params.r, params.T, params.sigma_M
    return np.exp((1.0 - z / sM) * (r + 0.5 * z * sM) * T)


def _eta_maps(z, params: CapmParams):
    """Per-bank endowment maps f_i(q) = s_i q0 * hat_eta_i(z, q)."""
    coef = params.s * params.q0 * _eta_prefactor(z, params)
    expo = np.asarray(z, dtype=float) / params.sigma_M
    return [PowerMap(float(c), float(e)) for c, e in zip(coef, expo)]


def _capm_model(net: FinancialNetwork, params: CapmParams, which: str) -> FactorModel:
    """The eta-map factor model of the chosen bound on ``net``."""
    if params.n != net.n:
        raise PricingError(f"params cover {params.n} banks, network has {net.n}")
    return FactorModel(_eta_maps(params.z_vector(which), params), params.factor_dist())


def capm_thresholds(net: FinancialNetwork, params: CapmParams, which: str) -> SolvencyThresholds:
    """Normalized-factor solvency thresholds for the chosen bound."""
    return solvency_thresholds(net, _capm_model(net, params, which))


def _require_full_recovery(net: FinancialNetwork, force: bool):
    if not net.full_recovery and not force:
        raise PricingError(
            "price bounds hold only under full recovery (alpha_x = alpha_L = 1); "
            "pass force=True to evaluate the closed form anyway "
            "(no bound guarantee)"
        )


def price_and_cap(
    net: FinancialNetwork, params: CapmParams, which: str, force: bool = False
):
    """Per-unit debt price bound and market cap per bank, from one sweep.

    The price is discounted and normalized by face value, in
    ``[0, e^{-rT}]``; multiply by ``p_bar`` for currency prices.  The cap
    is the discounted expected equity in currency units.  ``which='lower'``
    is the comonotonic bound (z = sigma), ``which='upper'`` the
    conditional one (z = beta sigma_M).
    """
    _require_full_recovery(net, force)
    ev = expected_values(net, _capm_model(net, params, which))
    disc = math.exp(-params.r * params.T)
    return disc * ev.Ep / net.p_bar, disc * ev.EE


def debt_price_bound(
    net: FinancialNetwork, params: CapmParams, which: str, force: bool = False
) -> np.ndarray:
    """Discounted per-unit debt price bound; the price of ``price_and_cap``."""
    return price_and_cap(net, params, which, force)[0]


def market_cap(
    net: FinancialNetwork, params: CapmParams, which: str, force: bool = False
) -> np.ndarray:
    """Discounted expected equity per bank; the cap of ``price_and_cap``."""
    return price_and_cap(net, params, which, force)[1]


def effective_rate(price: float, p_bar_i: float, T: float) -> float:
    """Continuously compounded yield from a discounted currency price."""
    if price < 0.0:
        raise PricingError("price must be nonnegative")
    if price == 0.0:
        warnings.warn("zero debt price; effective rate is infinite", RuntimeWarning)
        return np.inf
    return (math.log(p_bar_i) - math.log(price)) / T


@dataclass(frozen=True)
class MertonBaseline:
    """Single-firm structural prices ignoring default contagion."""

    price: np.ndarray
    rate: np.ndarray
    market_cap: np.ndarray


def merton_baseline(net: FinancialNetwork, params: CapmParams, mode: str) -> MertonBaseline:
    """Price each bank standalone, with interbank claims paid in full.

    ``riskfree_interbank`` books the interbank claims as cash at
    maturity; ``risky_interbank`` folds their value into the bank's own
    risky position.  Either way counterparty default is assumed away, so
    comparing with the network price isolates the contagion premium.
    """
    if mode not in ("riskfree_interbank", "risky_interbank"):
        raise PricingError(f"unknown baseline mode {mode!r}")
    if params.n != net.n:
        raise PricingError(f"params cover {params.n} banks, network has {net.n}")
    r, T, sM = params.r, params.T, params.sigma_M
    disc = math.exp(-r * T)
    dist = params.factor_dist()
    ib = net.interbank_assets()
    pre = _eta_prefactor(params.sigma, params)

    price = np.empty(net.n)
    cap = np.empty(net.n)
    for i in range(net.n):
        pb = float(net.p_bar[i])
        one = build_network([[0.0, pb]], net.alpha_x, net.alpha_L)
        expo = float(params.sigma[i] / sM)
        if mode == "riskfree_interbank":
            fmap = PowerMap(float(params.s[i] * params.q0 * pre[i]), expo, float(ib[i]))
        else:
            fmap = PowerMap(float((params.s[i] * params.q0 + ib[i]) * pre[i]), expo)
        ev = expected_values(one, FactorModel([fmap], dist))
        price[i] = disc * float(ev.Ep[0]) / pb
        cap[i] = disc * float(ev.EE[0])

    rate = np.array(
        [effective_rate(price[i] * net.p_bar[i], net.p_bar[i], T) for i in range(net.n)]
    )
    return MertonBaseline(price=price, rate=rate, market_cap=cap)
