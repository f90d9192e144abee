import math
import warnings

import numpy as np
import pytest

from helpers import make_two_bank, random_net
from netval import (
    CapmParams,
    FactorModel,
    LogNormal,
    MarginalSet,
    PowerMap,
    PricingError,
    build_network,
    capm_thresholds,
    comonotonic_lower,
    conditional_upper,
    debt_price_bound,
    effective_rate,
    expected_values,
    market_cap,
    mc_expectations,
    merton_baseline,
    simulate,
    solvency_thresholds,
)
from netval import comonotonic
from netval.capm import _eta_maps, price_and_cap


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
    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    return K * math.exp(-r * T) * phi(-d2) - S0 * phi(-d1)


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


def _eta_at(z, qT, params):
    # hat_eta(z, qT) is the eta map of a bank with s q0 = 1
    return [f(qT) for f in _eta_maps(z, params)]


def test_hat_eta_examples():
    p = bench_params(s=[1.0, 1.0])
    assert abs(_eta_at([1.0, 1.0], 0.37, p)[0] - 0.37) < 1e-15
    p2 = CapmParams(r=0.05, T=2.0, sigma_M=1.0, beta=[0.0], gamma=[0.0], s=[1.0])
    assert abs(_eta_at([0.0], 5.0, p2)[0] - math.exp(0.1)) < 1e-12
    p3 = CapmParams(r=0.0, T=1.0, sigma_M=1.0, beta=[0.5], gamma=[0.0], s=[1.0])
    assert abs(_eta_at([0.5], 1.0, p3)[0] - math.exp(0.125)) < 1e-12


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
    rate = effective_rate(price * two_bank.p_bar, two_bank.p_bar, 1.0)
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


def _no_bisection(*args, **kwargs):
    raise AssertionError("exponents in {0, c} must take the closed form")


def _assert_power_affine_path_matches_bisection(net, model, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(comonotonic, "_next_default", _no_bisection)
        fast = solvency_thresholds(net, model)
    # wrapping each map hides its parameters, so this sweep takes the
    # scalar search (_next_default)
    wrapped = FactorModel([lambda q, f=f: f(q) for f in model.f], model.dist)
    slow = solvency_thresholds(net, wrapped)
    assert np.array_equal(fast.order, slow.order)
    # the bisection stops at 1e-10 * max(q, 1), an absolute width below 1
    assert np.allclose(fast.q_star, slow.q_star, rtol=1e-9, atol=1e-9)


def test_power_affine_path_matches_bisection(two_bank, monkeypatch):
    # maps affine in u = q**c take closed-form roots in u; bisecting the
    # same maps in q must find the same thresholds
    params = beta_params(0.5, r=0.03, T=2.0, sigma_M=0.8)
    for which in ("lower", "upper"):
        z = params.z_vector(which)
        assert np.all(z == z[0]) and z[0] != params.sigma_M
        model = FactorModel(_eta_maps(z, params), params.factor_dist())
        _assert_power_affine_path_matches_bisection(two_bank, model, monkeypatch)

    rng = np.random.default_rng(5)
    dist = LogNormal(0.1, 0.36)
    for c in (0.35, 2.5):
        for _ in range(4):
            net = random_net(rng)
            shift = rng.uniform(0.0, 1.0, net.n)
            coef = rng.uniform(0.5, 3.0, net.n)
            expo = np.where(np.arange(net.n) % 2 == 0, c, 0.0)
            for e in (np.full(net.n, c), expo):  # shifted, then mixed with constants
                model = FactorModel([PowerMap(*a) for a in zip(coef, e, shift)], dist)
                _assert_power_affine_path_matches_bisection(net, model, monkeypatch)

    # comonotonic_lower with equal lognormal sigmas is a {0, c} model too
    marg = MarginalSet([LogNormal(0.3, 0.64), LogNormal(0.9, 0.64)])
    maps = [PowerMap(math.exp(m.mu), m.sigma) for m in marg.marginals]
    model = FactorModel(maps, LogNormal(0.0, 1.0))
    _assert_power_affine_path_matches_bisection(two_bank, model, monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(comonotonic, "_next_default", _no_bisection)
        lo = comonotonic_lower(two_bank, marg)
    # with the map parameters hidden the sweep takes the scalar search, while the
    # interval moments keep the power maps' closed form
    bisected = FactorModel(model.f, model.dist)
    object.__setattr__(bisected, "_params", None)
    search, calls = comonotonic._next_default, []
    with monkeypatch.context() as m:
        m.setattr(comonotonic, "_next_default", lambda *a: calls.append(a) or search(*a))
        ref = expected_values(two_bank, bisected)
    assert len(calls) == two_bank.n
    assert np.allclose(lo.Ep, ref.Ep, rtol=0.0, atol=1e-8 * two_bank.p_bar.max())
    assert np.allclose(lo.EE, ref.EE, rtol=0.0, atol=1e-8 * two_bank.p_bar.max())


def test_thresholds_sorted_both_sides(two_bank):
    params = beta_params(0.4)
    for which in ("lower", "upper"):
        th = capm_thresholds(two_bank, params, which)
        assert np.all(np.diff(th.q_star[th.order]) <= 0.0)


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
    # sigma_i / sigma_M ~ 60 in the second case: power maps of exponent ~60,
    # valid though they overflow at q = 1e6
    for params in (beta_params(0.5), bench_params(sigma_M=0.01, gamma=[0.6, 0.6])):
        lo = debt_price_bound(two_bank, params, "lower") * two_bank.p_bar
        hi = debt_price_bound(two_bank, params, "upper") * two_bank.p_bar
        batch = simulate({"kind": "capm", "params": params}, 400_000, 7)
        est = mc_expectations(two_bank, batch)
        assert np.all(est.Ep >= lo - 3.0 * est.se_Ep)
        assert np.all(est.Ep <= hi + 3.0 * est.se_Ep)


# values captured before prices went through expected_values, at r = 0.03,
# T = 2, sigma_M = 0.8, gamma = 0.4, alpha = 1 and 0.5 (forced):
# (net, beta, alpha, which) -> (order, q_star, price, cap)
FIVE_BANK = [
    [0.0, 2.0, 1.0, 0.0, 0.0, 4.0],
    [1.0, 0.0, 2.0, 1.0, 0.0, 3.0],
    [0.0, 1.0, 0.0, 2.0, 1.0, 5.0],
    [2.0, 0.0, 1.0, 0.0, 1.0, 2.0],
    [1.0, 1.0, 0.0, 1.0, 0.0, 3.0],
]
PINNED_NETS = {
    "two": ([[0.0, 7.0, 3.0], [3.0, 0.0, 3.0]], [6.0, 4.0]),
    "five": (FIVE_BANK, [5.0, 4.0, 6.0, 3.0, 4.0]),
}
PARENT_VALUES = {
    ('two', 'common', 1.0, 'lower'): (
        [0, 1],
        [1.04123090119858, 0.3300596265994046],
        [0.6613541988279573, 0.8260462436914802],
        [1.8645967427948669, 3.673201929646821],
    ),
    ('two', 'common', 1.0, 'upper'): (
        [0, 1],
        [0.9616716562103159, 0.21554275244665697],
        [0.7273024304519196, 0.8883952973746829],
        [1.3921615876048534, 3.7607452289153396],
    ),
    ('two', 'common', 0.5, 'lower'): (
        [0, 1],
        [1.04123090119858, 0.6541381440422102],
        [0.4260789192009852, 0.5462839213820962],
        [1.8645967427948669, 2.943452837574278],
    ),
    ('two', 'common', 0.5, 'upper'): (
        [0, 1],
        [0.9616716562103159, 0.5250988976450108],
        [0.47245586710622073, 0.6208680926491743],
        [1.3921615876048534, 2.809855190207468],
    ),
    ('two', 'per-bank', 1.0, 'lower'): (
        [0, 1],
        [0.9556610347643429, 0.3791652581470689],
        [0.7089284262369091, 0.8121730067073183],
        [1.347234757752864, 4.089460943414456],
    ),
    ('two', 'per-bank', 1.0, 'upper'): (
        [0, 1],
        [0.9285190322120916, 0.22231472559844548],
        [0.8116396812516762, 0.9002597412802517],
        [0.5843824113239929, 4.279919321080224],
    ),
    ('two', 'per-bank', 0.5, 'lower'): (
        [0, 1],
        [0.9556610347643429, 0.8315735614251905],
        [0.45317027933474563, 0.4711229841811389],
        [1.347234757752864, 3.571614618033581],
    ),
    ('two', 'per-bank', 0.5, 'upper'): (
        [0, 1],
        [0.9285190322120916, 0.7400638547028804],
        [0.5038644174094424, 0.5261064298672503],
        [0.5843824113239929, 3.488779191796801],
    ),
    ('five', 'common', 1.0, 'lower'): (
        [4, 2, 1, 3, 0],
        [
            0.5365239746391849, 0.6346352900854494, 0.6767827345272684, 0.605481951934194,
            0.854732992149441,
        ],
        [
            0.7417551977213768, 0.7183577312658465, 0.7068235586445774, 0.7199864122410865,
            0.6636221765246102,
        ],
        [
            2.629666348222993, 1.825452011751016, 2.5370450446929596, 1.475708551633092,
            1.4450769117380025,
        ],
    ),
    ('five', 'common', 1.0, 'upper'): (
        [4, 2, 1, 3, 0],
        [
            0.4056856198770792, 0.5048121716151939, 0.5488833916916239, 0.47483749900116085,
            0.7437874280201796,
        ],
        [
            0.8175985927413129, 0.7948549250632397, 0.7833223239584073, 0.7966275833191985,
            0.7379584637631793,
        ],
        [
            2.4028784062756254, 1.5924934977615341, 2.154035110561325, 1.3196925368280426,
            1.1521991246985297,
        ],
    ),
    ('five', 'common', 0.5, 'lower'): (
        [4, 1, 3, 2, 0],
        [
            0.7305611535600401, 0.7305611535600401, 0.7305611535600401, 0.7305611535600401,
            0.854732992149441,
        ],
        [
            0.5049662316085475, 0.4898071710200014, 0.49361999116803296, 0.48381499078735674,
            0.46116599188481683,
        ],
        [
            2.5324315901640353, 1.7907737401940935, 2.5332644653881, 1.4324524171104618,
            1.4450769117380025,
        ],
    ),
    ('five', 'common', 0.5, 'upper'): (
        [4, 1, 3, 2, 0],
        [
            0.6063261699383423, 0.6063261699383423, 0.6063261699383423, 0.6063261699383423,
            0.7437874280201796,
        ],
        [
            0.572254083017002, 0.5563254175163315, 0.5603318093634689, 0.5500290224337994,
            0.5186226617676567,
        ],
        [
            2.2745947858742595, 1.5460526158971883, 2.1490060027476385, 1.2619598493430748,
            1.1521991246985297,
        ],
    ),
    ('five', 'per-bank', 1.0, 'lower'): (
        [4, 3, 2, 1, 0],
        [
            0.5195551498798575, 0.6499326756022888, 0.7365682125446283, 0.7738393261581912,
            1.1544898857068446,
        ],
        [
            0.763398814999971, 0.7234200205969568, 0.6852705805593364, 0.658911981751066,
            0.5436853145495436,
        ],
        [
            2.2411375936488347, 1.6918133809301252, 2.7017156129109234, 1.6841746057587779,
            2.0820706750131412,
        ],
    ),
    ('five', 'per-bank', 1.0, 'upper'): (
        [4, 3, 2, 1, 0],
        [
            0.3507072511885371, 0.5183215715571086, 0.6260082236081121, 0.6808587225756391,
            1.0719233363361802,
        ],
        [
            0.8627916287328078, 0.8104957569672095, 0.7604043378527803, 0.7256357789479183,
            0.5928541699851769,
        ],
        [
            1.8150800837185672, 1.405371466533106, 2.3657798809401216, 1.570343928970438,
            1.928915096889639,
        ],
    ),
    ('five', 'per-bank', 0.5, 'lower'): (
        [4, 3, 2, 1, 0],
        [
            0.8221232906082233, 0.8221232906082233, 0.8221232906082233, 0.8855314272589658,
            1.1544898857068446,
        ],
        [
            0.5058168387459828, 0.4738523842758479, 0.461386752235737, 0.4206649378775074,
            0.3563293210192963,
        ],
        [
            2.0101611311125023, 1.6155016633912302, 2.680763238154053, 1.6412336424853806,
            2.0820706750131412,
        ],
    ),
    ('five', 'per-bank', 0.5, 'upper'): (
        [4, 3, 2, 1, 0],
        [
            0.7149519419963172, 0.7149519419963172, 0.7149519419963172, 0.7928018621101779,
            1.0719233363361802,
        ],
        [
            0.5797016796299073, 0.5350822000347637, 0.5161353565656047, 0.4648370966351835,
            0.3875834996118806,
        ],
        [
            1.468815152354657, 1.3042701892069595, 2.3372223250547512, 1.519920572382313,
            1.928915096889639,
        ],
    ),
}


@pytest.mark.parametrize("key", sorted(PARENT_VALUES), ids=lambda k: "-".join(map(str, k)))
def test_capm_values_match_parent(key):
    name, kind, alpha, which = key
    L, s = PINNED_NETS[name]
    n = len(s)
    beta = [0.6] * n if kind == "common" else np.linspace(0.3, 1.1, n)
    params = CapmParams(r=0.03, T=2.0, sigma_M=0.8, beta=beta, gamma=[0.4] * n, s=s)
    net = build_network(L, alpha, alpha)
    order, q_star, price, cap = PARENT_VALUES[key]
    th = capm_thresholds(net, params, which)
    assert th.order.tolist() == order
    assert np.allclose(th.q_star, q_star, rtol=1e-14, atol=0.0)
    got_price, got_cap = price_and_cap(net, params, which, force=True)
    assert np.allclose(got_price, price, rtol=0.0, atol=1e-14)
    assert np.allclose(got_cap, cap, rtol=0.0, atol=1e-14 * net.p_bar.max())


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


def test_rate_elementwise_matches_scalar_formula():
    rng = np.random.default_rng(11)
    p_bar = rng.uniform(0.1, 1e3, 400)
    price = p_bar * rng.uniform(1e-6, 1.0, 400)
    T = 1.7
    got = effective_rate(price, p_bar, T)
    want = np.array([(math.log(b) - math.log(c)) / T for c, b in zip(price, p_bar)])
    # numpy's log may round a last bit differently from math.log
    scale = np.maximum(np.abs(np.log(p_bar)), np.abs(np.log(price))) / T
    assert got.shape == price.shape
    assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * scale)
    assert effective_rate(price[3], p_bar[3], T) == got[3]

    price[[5, 9]] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = effective_rate(price, p_bar, T)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert np.all(np.isinf(got[[5, 9]])) and np.all(np.isfinite(np.delete(got, [5, 9])))

    price[7] = -1e-300
    with pytest.raises(PricingError, match="nonnegative"):
        effective_rate(price, p_bar, T)


# ---------------------------------------------------------------------------
# single-firm baselines


def test_merton_modes_coincide_without_interbank():
    net = build_network([[0.0, 0.0, 10.0], [0.0, 0.0, 6.0]], 1.0, 1.0)
    params = beta_params(0.6, r=0.02)
    full = debt_price_bound(net, params, "lower")
    for mode in ("riskfree_interbank", "risky_interbank"):
        price, _ = merton_baseline(net, params, mode)
        assert np.allclose(price, full, atol=1e-12)


def _per_bank_baseline(net, params, mode):
    # each bank alone on a one-bank network, with its own eta map
    ib = net.interbank_assets()
    disc = math.exp(-params.r * params.T)
    pre = np.exp((1.0 - params.sigma / params.sigma_M)
                 * (params.r + 0.5 * params.sigma * params.sigma_M) * params.T)
    price, cap = np.empty(net.n), np.empty(net.n)
    for i in range(net.n):
        pb = float(net.p_bar[i])
        one = build_network([[0.0, pb]], net.alpha_x, net.alpha_L)
        expo = float(params.sigma[i] / params.sigma_M)
        if mode == "riskfree_interbank":
            fmap = PowerMap(float(params.s[i] * params.q0 * pre[i]), expo, float(ib[i]))
        else:
            fmap = PowerMap(float((params.s[i] * params.q0 + ib[i]) * pre[i]), expo)
        ev = expected_values(one, FactorModel([fmap], params.factor_dist()))
        price[i] = disc * float(ev.Ep[0]) / pb
        cap[i] = disc * float(ev.EE[0])
    return price, cap


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.0])
def test_merton_baseline_matches_per_bank_loop(alpha):
    # one sweep over the standalone network prices every bank as if alone;
    # with per-bank exponents and costs the sweep's threshold search ends
    # at another point of its BISECT_REL_TOL bracket
    rng = np.random.default_rng(int(alpha * 10) + 3)
    for k in range(12):
        net = random_net(rng, n=int(rng.integers(2, 10)), alpha=alpha)
        beta = np.full(net.n, 0.7) if k % 2 else rng.uniform(0.3, 1.2, net.n)
        params = CapmParams(
            r=0.03, T=1.5, sigma_M=0.8, beta=beta, gamma=np.full(net.n, 0.3),
            s=rng.uniform(0.2, 3.0, net.n),
        )
        exact = alpha == 1.0 or k % 2
        tol = 1e-14 if exact else 10 * comonotonic.BISECT_REL_TOL
        for mode in ("riskfree_interbank", "risky_interbank"):
            price, cap = merton_baseline(net, params, mode)
            ref_price, ref_cap = _per_bank_baseline(net, params, mode)
            assert np.all(np.abs(price - ref_price) <= tol), (k, mode)
            assert np.all(np.abs(cap - ref_cap) <= tol * net.p_bar.max()), (k, mode)


def test_merton_black_scholes_cross_oracle(two_bank):
    params = CapmParams(
        r=0.03, T=2.0, sigma_M=0.8, beta=[0.5, 0.75], gamma=[0.4, 0.3], s=[3.0, 4.0]
    )
    ib = two_bank.interbank_assets()
    disc = math.exp(-params.r * params.T)

    price_a, _ = merton_baseline(two_bank, params, "riskfree_interbank")
    for i in range(2):
        K = float(two_bank.p_bar[i] - ib[i])
        put = black_scholes_put(float(params.s[i]), K, params.r, params.T, float(params.sigma[i]))
        target = disc * float(two_bank.p_bar[i]) - put
        assert abs(price_a[i] * two_bank.p_bar[i] - target) < 1e-10

    price_b, _ = merton_baseline(two_bank, params, "risky_interbank")
    for i in range(2):
        S0 = float(params.s[i] + ib[i])
        put = black_scholes_put(S0, float(two_bank.p_bar[i]), params.r, params.T, float(params.sigma[i]))
        target = disc * float(two_bank.p_bar[i]) - put
        assert abs(price_b[i] * two_bank.p_bar[i] - target) < 1e-10


def test_merton_riskless_branch(two_bank):
    # bank 2's interbank claim (7) exceeds its face value (6): riskless debt
    params = bench_params(r=0.04)
    price, _ = merton_baseline(two_bank, params, "riskfree_interbank")
    rate = effective_rate(price * two_bank.p_bar, two_bank.p_bar, params.T)
    assert abs(price[1] - math.exp(-0.04)) < 1e-12
    assert abs(rate[1] - 0.04) < 1e-12


def test_unknown_baseline_mode(two_bank):
    with pytest.raises(PricingError, match="unknown baseline mode"):
        merton_baseline(two_bank, bench_params(), "no_interbank")


def test_params_for_another_bank_count(two_bank):
    params = CapmParams(r=0.0, T=1.0, sigma_M=1.0, beta=[1.0] * 3, gamma=[0.0] * 3, s=[1.0] * 3)
    with pytest.raises(PricingError, match="params cover 3 banks, network has 2"):
        merton_baseline(two_bank, params, "risky_interbank")
    with pytest.raises(PricingError, match="params cover 3 banks, network has 2"):
        price_and_cap(two_bank, params, "lower")


# ---------------------------------------------------------------------------
# comparative statics in the recovery rate


def test_recovery_monotonicity():
    params = bench_params()
    rates, caps = [], []
    for a in (0.4, 0.6, 0.8, 1.0):
        net = make_two_bank(a)
        price = debt_price_bound(net, params, "lower", force=True)
        rates.append(effective_rate(price * net.p_bar, net.p_bar, 1.0))
        caps.append(market_cap(net, params, "lower", force=True))
    rates, caps = np.array(rates), np.array(caps)
    assert np.all(np.diff(rates, axis=0) <= 1e-12)
    assert np.all(np.diff(caps, axis=0) >= -1e-12)
