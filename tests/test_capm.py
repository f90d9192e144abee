import math

import numpy as np
import pytest

from helpers import make_two_bank
from netval import (
    CapmParams,
    FactorModel,
    PricingError,
    build_network,
    capm_thresholds,
    conditional_upper,
    debt_price_bound,
    effective_rate,
    hat_eta,
    market_cap,
    mc_expectations,
    merton_baseline,
    simulate,
    solvency_thresholds,
)
from netval.capm import _eta_maps
from netval.comonotonic import norm_cdf


def bench_params(**kw):
    base = dict(
        r=0.0, T=1.0, sigma_M=1.0, beta=[1.0, 1.0], gamma=[0.0, 0.0], s=[3.0, 4.0]
    )
    base.update(kw)
    return CapmParams(**base)


def beta_params(beta, **kw):
    gamma = math.sqrt(max(1.0 - beta**2, 0.0))
    return bench_params(beta=[beta, beta], gamma=[gamma, gamma], **kw)


def black_scholes_put(S0, K, r, T, sigma):
    if K <= 0.0:
        return 0.0
    v = sigma * math.sqrt(T)
    d1 = (math.log(S0 / K) + (r + 0.5 * sigma**2) * T) / v
    d2 = d1 - v
    return K * math.exp(-r * T) * norm_cdf(-d2) - S0 * norm_cdf(-d1)


# ---------------------------------------------------------------------------
# parameters and eta


def test_params_derive_sigma():
    p = CapmParams(r=0.0, T=1.0, sigma_M=0.8, beta=[0.5], gamma=[0.3], s=[1.0])
    assert abs(p.sigma[0] - math.hypot(0.5 * 0.8, 0.3)) < 1e-15


def test_params_reject_inconsistent_sigma():
    with pytest.raises(PricingError):
        CapmParams(
            r=0.0, T=1.0, sigma_M=0.8, beta=[0.5], gamma=[0.3], s=[1.0], sigma=[0.9]
        )


def test_params_reject_bad_domains():
    with pytest.raises(PricingError):
        CapmParams(r=0.0, T=0.0, sigma_M=1.0, beta=[1.0], gamma=[0.0], s=[1.0])
    with pytest.raises(PricingError):
        CapmParams(r=0.0, T=1.0, sigma_M=0.0, beta=[1.0], gamma=[0.0], s=[1.0])
    with pytest.raises(PricingError):
        CapmParams(r=0.0, T=1.0, sigma_M=1.0, beta=[-0.2], gamma=[0.0], s=[1.0])


def test_correlation_bounded_by_construction():
    p = CapmParams(r=0.0, T=1.0, sigma_M=0.8, beta=[0.5, 1.2], gamma=[0.4, 0.0], s=[1.0, 1.0])
    rho = p.beta * p.sigma_M / p.sigma
    assert np.all(rho <= 1.0 + 1e-12)


def test_hat_eta_examples():
    p = bench_params()
    assert abs(hat_eta(np.array([1.0, 1.0]), 0.37, p)[0] - 0.37) < 1e-15
    p2 = CapmParams(r=0.05, T=2.0, sigma_M=1.0, beta=[0.0], gamma=[0.0], s=[1.0])
    assert abs(hat_eta(np.array([0.0]), 5.0, p2)[0] - math.exp(0.1)) < 1e-12
    p3 = CapmParams(r=0.0, T=1.0, sigma_M=1.0, beta=[0.5], gamma=[0.0], s=[1.0])
    assert abs(hat_eta(np.array([0.5]), 1.0, p3)[0] - math.exp(0.125)) < 1e-12


def test_hat_eta_rejects_nonpositive_qT():
    with pytest.raises(PricingError):
        hat_eta(np.array([1.0]), 0.0, bench_params())


# ---------------------------------------------------------------------------
# price bounds


def test_price_bracket_and_order(two_bank):
    for params in (beta_params(0.3, r=0.04, T=2.0), beta_params(0.7), bench_params()):
        disc = math.exp(-params.r * params.T)
        lo = debt_price_bound(two_bank, params, "lower")
        hi = debt_price_bound(two_bank, params, "upper")
        for v in (lo, hi):
            assert np.all(v >= -1e-15) and np.all(v <= disc + 1e-15)
        assert np.all(lo <= hi + 1e-12)


def test_homogeneous_lower_equals_upper(two_bank):
    params = bench_params()
    lo = debt_price_bound(two_bank, params, "lower")
    hi = debt_price_bound(two_bank, params, "upper")
    assert np.allclose(lo, hi, atol=1e-9)


def test_never_defaulting_debt_is_riskless(two_bank):
    params = CapmParams(
        r=0.03, T=1.0, sigma_M=1.0, beta=[0.0, 0.0], gamma=[0.0, 0.0], s=[100.0, 100.0]
    )
    disc = math.exp(-0.03)
    price = debt_price_bound(two_bank, params, "lower")
    assert np.allclose(price, disc, atol=1e-12)
    rate = [effective_rate(float(price[i] * two_bank.p_bar[i]), float(two_bank.p_bar[i]), 1.0) for i in range(2)]
    assert np.allclose(rate, 0.03, atol=1e-12)
    cap = market_cap(two_bank, params, "lower")
    target = disc * (100.0 * math.exp(0.03) + two_bank.interbank_assets() - two_bank.p_bar)
    assert np.allclose(cap, target, atol=1e-9)


def test_bound_refused_under_costs():
    net = make_two_bank(0.5)
    with pytest.raises(PricingError, match="full recovery"):
        debt_price_bound(net, bench_params(), "lower")
    forced = debt_price_bound(net, bench_params(), "lower", force=True)
    assert np.all(forced >= 0.0)


def test_shortcut_matches_general(two_bank):
    # a common z takes the power-transform shortcut; compare with the
    # general sweep over the same per-bank power maps
    params = beta_params(0.5, r=0.03, T=2.0, sigma_M=0.8)
    z = params.z_vector("upper")
    a = capm_thresholds(two_bank, params, "upper")
    b = solvency_thresholds(two_bank, FactorModel(_eta_maps(z, params), params.factor_dist()))
    assert np.allclose(a.q_star, b.q_star, rtol=1e-9)
    assert np.array_equal(a.order, b.order)


def test_thresholds_sorted_both_sides(two_bank):
    params = beta_params(0.4)
    for which in ("lower", "upper"):
        th = capm_thresholds(two_bank, params, which)
        qs = th.sorted_with_sentinels()
        assert np.all(np.diff(qs) <= 0.0)


def test_conditional_upper_cross_module(two_bank):
    params = beta_params(0.5)
    z = params.z_vector("upper")
    pre = np.exp((1.0 - z / params.sigma_M) * (params.r + 0.5 * z * params.sigma_M) * params.T)
    from netval import FactorModel, PowerMap

    cond = FactorModel(
        [PowerMap(float(s * p), float(zi / params.sigma_M)) for s, p, zi in zip(params.s, pre, z)],
        params.factor_dist(),
    )
    via_bounds = conditional_upper(two_bank, cond)
    price = debt_price_bound(two_bank, params, "upper")
    # r = 0 so discounted currency price equals expected payments
    assert np.allclose(price * two_bank.p_bar, via_bounds.Ep, atol=1e-9)
    cap = market_cap(two_bank, params, "upper")
    assert np.allclose(cap, via_bounds.EE, atol=1e-9)


def test_comonotonic_price_matches_mc(two_bank):
    params = bench_params()
    price = debt_price_bound(two_bank, params, "lower")
    batch = simulate({"kind": "capm", "params": params}, 1_000_000, 99)
    est = mc_expectations(two_bank, batch)
    assert np.all(np.abs(price * two_bank.p_bar - est.Ep) <= 3.0 * est.se_Ep)
    cap = market_cap(two_bank, params, "lower")
    assert np.all(np.abs(cap - est.EE) <= 3.0 * est.se_EE)


def test_mc_price_inside_bounds(two_bank):
    params = beta_params(0.5)
    lo = debt_price_bound(two_bank, params, "lower") * two_bank.p_bar
    hi = debt_price_bound(two_bank, params, "upper") * two_bank.p_bar
    batch = simulate({"kind": "capm", "params": params}, 400_000, 7)
    est = mc_expectations(two_bank, batch)
    assert np.all(est.Ep >= lo - 3.0 * est.se_Ep)
    assert np.all(est.Ep <= hi + 3.0 * est.se_Ep)


# ---------------------------------------------------------------------------
# effective rate


def test_rate_riskless_debt():
    assert abs(effective_rate(10.0 * math.exp(-0.05 * 2.0), 10.0, 2.0) - 0.05) < 1e-14


def test_rate_example():
    assert abs(effective_rate(9.0, 10.0, 1.0) - math.log(10.0 / 9.0)) < 1e-14


def test_rate_zero_price_warns():
    with pytest.warns(RuntimeWarning):
        assert effective_rate(0.0, 10.0, 1.0) == np.inf


def test_rate_rejects_negative_price():
    with pytest.raises(PricingError):
        effective_rate(-1.0, 10.0, 1.0)


# ---------------------------------------------------------------------------
# single-firm baselines


def test_merton_modes_coincide_without_interbank():
    net = build_network([[0.0, 0.0, 10.0], [0.0, 0.0, 6.0]], 1.0, 1.0)
    params = beta_params(0.6, r=0.02)
    full = debt_price_bound(net, params, "lower")
    for mode in ("riskfree_interbank", "risky_interbank"):
        base = merton_baseline(net, params, mode)
        assert np.allclose(base.price, full, atol=1e-12)


def test_merton_black_scholes_cross_oracle(two_bank):
    params = CapmParams(
        r=0.03, T=2.0, sigma_M=0.8, beta=[0.5, 0.75], gamma=[0.4, 0.3], s=[3.0, 4.0]
    )
    ib = two_bank.interbank_assets()
    disc = math.exp(-params.r * params.T)

    mode_a = merton_baseline(two_bank, params, "riskfree_interbank")
    for i in range(2):
        K = float(two_bank.p_bar[i] - ib[i])
        put = black_scholes_put(float(params.s[i]), K, params.r, params.T, float(params.sigma[i]))
        target = disc * float(two_bank.p_bar[i]) - put
        assert abs(mode_a.price[i] * two_bank.p_bar[i] - target) < 1e-10

    mode_b = merton_baseline(two_bank, params, "risky_interbank")
    for i in range(2):
        S0 = float(params.s[i] + ib[i])
        put = black_scholes_put(S0, float(two_bank.p_bar[i]), params.r, params.T, float(params.sigma[i]))
        target = disc * float(two_bank.p_bar[i]) - put
        assert abs(mode_b.price[i] * two_bank.p_bar[i] - target) < 1e-10


def test_merton_riskless_branch(two_bank):
    # bank 2's interbank claim (7) exceeds its face value (6): riskless debt
    params = bench_params(r=0.04)
    base = merton_baseline(two_bank, params, "riskfree_interbank")
    assert abs(base.price[1] - math.exp(-0.04)) < 1e-12
    assert abs(base.rate[1] - 0.04) < 1e-12


def test_unknown_baseline_mode(two_bank):
    with pytest.raises(PricingError, match="unknown baseline mode"):
        merton_baseline(two_bank, bench_params(), "no_interbank")


# ---------------------------------------------------------------------------
# comparative statics in the recovery rate


def test_recovery_monotonicity():
    params = bench_params()
    rates, caps = [], []
    for a in (0.4, 0.6, 0.8, 1.0):
        net = make_two_bank(a)
        price = debt_price_bound(net, params, "lower", force=True)
        rates.append(
            [effective_rate(float(price[i] * net.p_bar[i]), float(net.p_bar[i]), 1.0) for i in range(2)]
        )
        caps.append(market_cap(net, params, "lower", force=True))
    rates, caps = np.array(rates), np.array(caps)
    assert np.all(np.diff(rates, axis=0) <= 1e-12)
    assert np.all(np.diff(caps, axis=0) >= -1e-12)
