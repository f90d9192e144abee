import math

import numpy as np
import pytest

from helpers import make_cycle, random_corr, random_net
from netval import (
    AffineMap,
    BoundsError,
    CapmParams,
    ExpectedValues,
    FactorModel,
    LogNormal,
    MarginalSet,
    ModelError,
    PointMass,
    PowerMap,
    TabulatedQuantile,
    comonotonic_lower,
    conditional_upper,
    debt_price_bound,
    exact_expectations,
    expected_values,
    greatest_clearing,
    jensen_upper,
    mc_expectations,
    simulate,
)

APP_B_MARGINALS = MarginalSet(
    [PointMass([0.0, 1.0], [0.5, 0.5]), PointMass([0.0, 2.0], [0.5, 0.5])]
)


def test_every_expected_outcome_is_one_record(two_bank):
    # the bounds, the exact oracle and the closed forms all return ExpectedValues;
    # only a threshold sweep attaches thresholds
    lognormal = MarginalSet([LogNormal(0.3, 0.5), LogNormal(0.5, 0.8)])
    model = FactorModel([AffineMap(0.0, 3.0), PowerMap(4.0, 0.7)], LogNormal(-0.5, 1.0))
    swept = {
        "lower-lognormal": comonotonic_lower(two_bank, lognormal),
        "lower-tabulated": comonotonic_lower(two_bank, MarginalSet(
            [TabulatedQuantile([0.1, 0.9], [1.0, 5.0]), TabulatedQuantile([0.2, 0.8], [2.0, 6.0])])),
        "conditional": conditional_upper(two_bank, model),
        "expected_values": expected_values(two_bank, model),
    }
    finite = {
        "lower-finite": comonotonic_lower(two_bank, APP_B_MARGINALS),
        "jensen": jensen_upper(two_bank, lognormal.means()),
        "exact": exact_expectations(two_bank, [[1.0, 2.0], [3.0, 5.0]], [0.4, 0.6]),
    }
    for name, res in {**swept, **finite}.items():
        assert type(res) is ExpectedValues, name
        assert (res.thresholds is None) == (name in finite), name
        assert math.isclose(res.E_soc, two_bank.pi_soc @ res.Ep, rel_tol=1e-14), name


def test_jensen_is_the_point_mass_at_the_mean(two_bank):
    mean_x = [2.5, 3.5]
    res = jensen_upper(two_bank, mean_x)
    chk = greatest_clearing(two_bank, mean_x)
    for got, want in ((res.EV, chk.V), (res.Ep, chk.p), (res.EE, chk.E), (res.pd, chk.z)):
        assert np.array_equal(got, want)
    assert res.E_soc == chk.societal_payment


def test_cycle_comonotonic_lower(cycle_full):
    res = comonotonic_lower(cycle_full, APP_B_MARGINALS)
    assert np.allclose(res.Ep, [1.0, 1.5], atol=1e-12)


def test_cycle_jensen(cycle_full):
    res = jensen_upper(cycle_full, APP_B_MARGINALS.means())
    assert np.allclose(res.Ep, [1.0, 1.5], atol=1e-12)


def test_point_mass_marginals_equal_clearing(two_bank):
    marg = MarginalSet([PointMass([3.0], [1.0]), PointMass([4.0], [1.0])])
    res = comonotonic_lower(two_bank, marg)
    chk = greatest_clearing(two_bank, [3.0, 4.0])
    assert np.allclose(res.Ep, chk.p, atol=1e-12)
    assert np.allclose(res.EV, chk.V, atol=1e-12)


def test_rich_mean_jensen_pays_in_full(two_bank):
    res = jensen_upper(two_bank, two_bank.p_bar + 5.0)
    assert np.allclose(res.Ep, two_bank.p_bar, atol=1e-12)


def test_lower_at_most_jensen(two_bank):
    marg = MarginalSet([LogNormal(0.3, 0.5), LogNormal(0.5, 0.8)])
    lo = comonotonic_lower(two_bank, marg)
    hi = jensen_upper(two_bank, marg.means())
    assert np.all(lo.Ep <= hi.Ep + 1e-10)
    assert np.all(lo.EV <= hi.EV + 1e-10)


def test_jensen_refuses_an_overflowing_lognormal_mean(two_bank):
    # E[q] = exp(709 + 2) is past the float range: a model error, not OverflowError
    marg = MarginalSet([LogNormal(709.0, 4.0), LogNormal(0.0, 1.0)])
    with pytest.raises(ModelError, match=r"E\[q\] overflows under lognormal\(mu=709.0"):
        jensen_upper(two_bank, marg.means())
    assert LogNormal(700.0, 4.0).mean() == math.exp(700.0 + 0.5 * 4.0)


def test_bankruptcy_costs_rejected():
    net = make_cycle(0.5)
    with pytest.raises(BoundsError, match="two-scenario counterexample"):
        comonotonic_lower(net, APP_B_MARGINALS)
    with pytest.raises(BoundsError):
        jensen_upper(net, [0.5, 1.0])
    with pytest.raises(BoundsError):
        conditional_upper(
            net, FactorModel([AffineMap(0.0, 1.0)] * 2, LogNormal(0.0, 1.0))
        )


def test_conditional_constant_reduces_to_jensen(two_bank):
    mean_x = np.array([3.0, 4.0])
    cond = FactorModel(
        [AffineMap(3.0, 0.0), AffineMap(4.0, 0.0)], LogNormal(-0.5, 1.0)
    )
    a = conditional_upper(two_bank, cond)
    b = jensen_upper(two_bank, mean_x)
    assert np.allclose(a.Ep, b.Ep, atol=1e-12)
    assert np.allclose(a.EV, b.EV, atol=1e-12)


def test_conditional_between_lower_and_jensen(two_bank):
    # CAPM with beta = 0.5: E[X | market] keeps the marginals' means
    beta, sM = 0.5, 1.0
    gamma = math.sqrt(1.0 - beta**2)
    params = CapmParams(
        r=0.0, T=1.0, sigma_M=sM, beta=[beta] * 2, gamma=[gamma] * 2, s=[3.0, 4.0]
    )
    dist = params.factor_dist()
    marg = MarginalSet(
        [LogNormal(math.log(3.0) - 0.5, 1.0), LogNormal(math.log(4.0) - 0.5, 1.0)]
    )
    pre = math.exp((1.0 - beta / sM) * (0.0 + 0.5 * beta * sM) * 1.0)
    cond = FactorModel(
        [PowerMap(3.0 * pre, beta / sM), PowerMap(4.0 * pre, beta / sM)], dist
    )
    lo = comonotonic_lower(two_bank, marg)
    mid = conditional_upper(two_bank, cond)
    hi = jensen_upper(two_bank, marg.means())
    assert np.all(lo.Ep <= mid.Ep + 1e-10)
    assert np.all(mid.Ep <= hi.Ep + 1e-10)


def test_gap_shrinks_as_beta_rises(two_bank):
    marg = MarginalSet(
        [LogNormal(math.log(3.0) - 0.5, 1.0), LogNormal(math.log(4.0) - 0.5, 1.0)]
    )
    lo = comonotonic_lower(two_bank, marg)
    gaps = []
    for beta in (0.25, 0.9, 0.999):
        gamma = math.sqrt(1.0 - beta**2)
        params = CapmParams(
            r=0.0, T=1.0, sigma_M=1.0, beta=[beta] * 2, gamma=[gamma] * 2, s=[3.0, 4.0]
        )
        hi = debt_price_bound(two_bank, params, "upper") * two_bank.p_bar
        gaps.append(float(np.max(np.abs(hi - lo.Ep))))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


def test_sandwich_with_mc_middle(two_bank):
    mus = [math.log(3.0) - 0.25, math.log(4.0) - 0.25]
    sig = [math.sqrt(0.5), math.sqrt(0.5)]
    marg = MarginalSet([LogNormal(mus[0], 0.5), LogNormal(mus[1], 0.5)])
    spec = {
        "kind": "gaussian-copula-lognormal",
        "mu": mus,
        "sigma": sig,
        "corr": [[1.0, 0.2], [0.2, 1.0]],
    }
    est = mc_expectations(two_bank, simulate(spec, 200_000, 31))
    lo = comonotonic_lower(two_bank, marg)
    hi = jensen_upper(two_bank, marg.means())
    assert np.all(lo.Ep - 3.0 * est.se_Ep <= est.Ep)
    assert np.all(est.Ep <= hi.Ep + 3.0 * est.se_Ep + 1e-9)


def test_sector_equity_dominance(two_bank):
    mus = [math.log(3.0) - 0.25, math.log(4.0) - 0.25]
    marg = MarginalSet([LogNormal(mus[0], 0.5), LogNormal(mus[1], 0.5)])
    spec = {
        "kind": "gaussian-copula-lognormal",
        "mu": mus,
        "sigma": [math.sqrt(0.5)] * 2,
        "corr": [[1.0, -0.3], [-0.3, 1.0]],
    }
    est = mc_expectations(two_bank, simulate(spec, 200_000, 13))
    lo = comonotonic_lower(two_bank, marg)
    sector_mc = float(est.EE.sum())
    sector_se = float(np.sqrt((est.se_EE**2).sum()))
    assert sector_mc <= float(lo.EE.sum()) + 3.0 * sector_se


def test_lower_bound_vs_independent_mc():
    rng = np.random.default_rng(3)
    net = random_net(rng, n=3, alpha=1.0)
    mus = rng.uniform(-0.5, 0.5, 3)
    sig2 = rng.uniform(0.2, 0.8, 3)
    marg = MarginalSet([LogNormal(float(m), float(v)) for m, v in zip(mus, sig2)])
    spec = {
        "kind": "gaussian-copula-lognormal",
        "mu": mus.tolist(),
        "sigma": np.sqrt(sig2).tolist(),
        "corr": np.eye(3).tolist(),
    }
    est = mc_expectations(net, simulate(spec, 150_000, 8))
    lo = comonotonic_lower(net, marg)
    assert np.all(lo.Ep <= est.Ep + 3.0 * est.se_Ep)


def test_payment_bound_fails_under_costs(cycle_half):
    # exact two-scenario law vs the comonotonic coupling: the inequality flips
    exact = exact_expectations(
        cycle_half, np.array([[0.0, 2.0], [1.0, 0.0]]), np.array([0.5, 0.5])
    )
    commono = exact_expectations(
        cycle_half, np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([0.5, 0.5])
    )
    assert np.allclose(commono.Ep, [1.0, 1.5], atol=1e-12)
    assert np.all(exact.Ep < commono.Ep)


def test_equity_non_comparability(cycle_full):
    eps = 0.1
    X_atoms = np.array([[1.0 + eps, 2.0], [2.0, 1.0 + eps]])
    Z_atoms = np.array([[1.0 + eps, 1.0 + eps], [2.0, 2.0]])
    half = np.array([0.5, 0.5])
    ex = exact_expectations(cycle_full, X_atoms, half)
    ez = exact_expectations(cycle_full, Z_atoms, half)
    assert np.allclose(ex.EE, [(1.0 + 2.0 * eps) / 3.0, 0.0], atol=1e-12)
    assert np.allclose(ez.EE, [0.5, 0.0], atol=1e-12)
    assert abs(ex.E_soc - (8.0 + eps) / 3.0) < 1e-12
    assert abs(ez.E_soc - (2.5 + eps)) < 1e-12
    assert ex.EE[0] < ez.EE[0]
    assert ex.E_soc > ez.E_soc


def test_tabulated_quantile_marginal():
    u = np.linspace(0.01, 0.99, 99)
    x = 2.0 * u  # uniform on [0, 2]
    tq = TabulatedQuantile(u, x)
    assert abs(tq.mean() - 1.0) < 1e-2
    assert abs(float(tq.quantile(0.5)) - 1.0) < 1e-12


def test_generic_dispatch_matches_closed_form(two_bank):
    class Wrapped:
        def __init__(self, inner):
            self._inner = inner

        def quantile(self, u):
            return self._inner.quantile(u)

        def mean(self):
            return self._inner.mean()

    inner = [LogNormal(math.log(3.0) - 0.5, 1.0), LogNormal(math.log(4.0) - 0.5, 1.0)]
    fast = comonotonic_lower(two_bank, MarginalSet(inner))
    slow = comonotonic_lower(two_bank, MarginalSet([Wrapped(m) for m in inner]))
    assert np.allclose(fast.Ep, slow.Ep, atol=1e-9)
    assert np.allclose(fast.EV, slow.EV, atol=1e-9)
    assert np.allclose(fast.EE, slow.EE, atol=1e-9)
