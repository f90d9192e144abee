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


def _eta_maps(z, params: CapmParams, extra=0.0, shift=0.0):
    """Per-bank endowment maps f_i(q) = (s_i q0 + extra_i) hat_eta_i(z_i, q) + shift_i.

    hat_eta(z, q) = exp((1 - z/sigma_M)(r + z sigma_M/2) T) q^(z/sigma_M) is the
    growth factor of an asset of volatility z; ``extra`` adds risky own
    assets and ``shift`` riskless cash at maturity.
    """
    z = np.asarray(z, dtype=float)
    r, T, sM = params.r, params.T, params.sigma_M
    coef = (params.s * params.q0 + extra) * np.exp((1.0 - z / sM) * (r + 0.5 * z * sM) * T)
    shift = np.broadcast_to(shift, coef.shape)
    return [PowerMap(float(c), float(e), float(b)) for c, e, b in zip(coef, z / sM, shift)]


def _capm_model(net: FinancialNetwork, params: CapmParams, z, extra=0.0, shift=0.0):
    """The eta-map factor model on ``net`` for asset volatilities ``z``."""
    if params.n != net.n:
        raise PricingError(f"params cover {params.n} banks, network has {net.n}")
    return FactorModel(_eta_maps(z, params, extra, shift), params.factor_dist())


def _discounted(net: FinancialNetwork, params: CapmParams, model: FactorModel):
    """Per-unit debt price and currency market cap per bank, discounted by e^{-rT}."""
    ev = expected_values(net, model)
    disc = math.exp(-params.r * params.T)
    return disc * ev.Ep / net.p_bar, disc * ev.EE


def capm_thresholds(net: FinancialNetwork, params: CapmParams, which: str) -> SolvencyThresholds:
    """Normalized-factor solvency thresholds for the chosen bound."""
    return solvency_thresholds(net, _capm_model(net, params, params.z_vector(which)))


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
    return _discounted(net, params, _capm_model(net, params, params.z_vector(which)))


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


def effective_rate(price, p_bar, T: float):
    """Continuously compounded yield ``(log p_bar - log price) / T`` from
    discounted currency prices, elementwise; ``inf`` where a price is zero."""
    price = np.asarray(price, dtype=float)
    if np.any(price < 0.0):
        raise PricingError("price must be nonnegative")
    if np.any(price == 0.0):
        warnings.warn("zero debt price; effective rate is infinite", RuntimeWarning)
    with np.errstate(divide="ignore"):
        rate = (np.log(p_bar) - np.log(price)) / T
    return rate[()]


def merton_baseline(net: FinancialNetwork, params: CapmParams, mode: str):
    """Per-unit debt price and market cap of each bank standing alone.

    The standalone network keeps ``net``'s banks and recovery rates but
    owes every ``p_bar`` to society, so no bank's default reaches another.
    ``riskfree_interbank`` books the interbank claims as cash at maturity;
    ``risky_interbank`` folds their value into the bank's own risky
    position.  Either way counterparty default is assumed away, so
    comparing with ``price_and_cap`` isolates the contagion premium.
    """
    if mode not in ("riskfree_interbank", "risky_interbank"):
        raise PricingError(f"unknown baseline mode {mode!r}")
    ib = net.interbank_assets()
    extra, shift = (0.0, ib) if mode == "riskfree_interbank" else (ib, 0.0)
    model = _capm_model(net, params, params.sigma, extra, shift)
    L = np.zeros((net.n, net.n + 1))
    L[:, net.n] = net.p_bar
    return _discounted(build_network(L, net.alpha_x, net.alpha_L), params, model)
