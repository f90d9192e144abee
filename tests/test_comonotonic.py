import hashlib
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_map,
    make_two_bank,
    random_net,
    search_path_models,
    upper_picard_clearing,
)
from netval import (
    AffineMap,
    Empirical,
    FactorModel,
    LogNormal,
    ModelError,
    PointMass,
    PowerMap,
    TabulatedMap,
    Uniform01,
    build_network,
    calibrated_network,
    exact_expectations,
    expected_values,
    greatest_clearing,
    make_synthetic_sheets,
    mc_expectations,
    partial_expectation,
    simulate,
    solvency_thresholds,
    thresholds_by_clearing_bisection,
)
from netval.capm import CapmParams, _eta_maps, price_and_cap
from netval.clearing import ZERO_TOL
from netval import comonotonic
from netval.comonotonic import _gl_rule, _lognormal_tails, _pivot, norm_ppf


# ---------------------------------------------------------------------------
# partial_expectation


def test_pe_full_mass_unit_mean():
    dist = LogNormal(-0.5, 1.0)
    prob, pe = partial_expectation(dist, AffineMap(0.0, 1.0), 0.0, np.inf)
    assert abs(prob - 1.0) < 1e-12
    assert abs(pe - 1.0) < 1e-12


def test_quadrature_rule_is_gauss_legendre_15():
    # built on the first quadrature, with the bits of the rule built at import before
    nodes, weights = _gl_rule()
    want = np.polynomial.legendre.leggauss(15)
    assert np.array_equal(nodes, want[0]) and np.array_equal(weights, want[1])


def test_pe_empty_interval():
    f = AffineMap(0.0, 1.0)
    for dist in (LogNormal(-0.5, 1.0), Uniform01(), PointMass([1.0], [1.0])):
        prob, pe = partial_expectation(dist, f, 0.7, 0.7)
        assert prob == 0.0 and pe == 0.0


def test_pe_truncated_lognormal_closed_form():
    # cutoff sqrt(e) puts the probability at Phi(-1) and the partial mean at 1/2
    dist = LogNormal(-0.5, 1.0)
    prob, pe = partial_expectation(dist, AffineMap(0.0, 1.0), math.sqrt(math.e), np.inf)
    assert abs(prob - 0.5 * math.erfc(1.0 / math.sqrt(2.0))) < 1e-13
    assert abs(prob - 0.15866) < 1e-5
    assert abs(pe - 0.5) < 1e-12


def test_prob_below_matches_scipy_erfc():
    # the survival function S = Phi((mu - log t) / sigma) that _interval_moments
    # evaluates and prob_below = Phi((log t - mu) / sigma), each through math.erfc
    # of its own argument, so neither is 1 minus the other
    from scipy.special import erfc

    dist = LogNormal(0.3, 0.64)
    t = np.exp(dist.mu + dist.sigma * np.linspace(-38.0, 38.0, 200_001))
    u = (np.array([math.log(v) for v in t.tolist()]) - dist.mu) / dist.sigma
    tail = np.array([_lognormal_tails((dist.mu,), dist.sigma, v)[0] for v in t.tolist()])
    got = dist.prob_below(t)
    assert got.shape == t.shape
    assert all(dist.prob_below(v)[0] == g for v, g in zip(t[::5000], got[::5000]))
    for val, ref in ((tail, 0.5 * erfc(u / math.sqrt(2.0))), (got, 0.5 * erfc(-u / math.sqrt(2.0)))):
        # below the smallest normal float (|u| > 37.5) only absolute agreement
        # is meaningful; scipy already rounds Phi(-38) ~ 2.9e-316 to zero
        normal = ref >= np.finfo(float).tiny
        assert np.all(np.abs(val - ref)[normal] <= 1e-13 * ref[normal])
        assert np.all(np.abs(val - ref)[~normal] <= np.finfo(float).tiny)


def test_prob_below_keeps_small_probabilities():
    # 1 - S cancels: it kept ten digits of P(q < e^-5) and gave 0 from e^-8.3 down
    dist = LogNormal(0.0, 1.0)
    got = dist.prob_below([math.exp(-5.0), math.exp(-8.3)])
    want = 0.5 * math.erfc(5.0 / math.sqrt(2.0))
    assert abs(got[0] - want) <= 1e-15 * want
    assert got[1] > 0.0 and abs(got[1] - 0.5 * math.erfc(8.3 / math.sqrt(2.0))) <= 1e-14 * got[1]


def _ulps(a, b):
    # distance in representable doubles between same-signed finite values
    assert np.array_equal(np.signbit(a), np.signbit(b))
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_norm_ppf_matches_scipy_ndtri():
    from scipy.special import ndtri

    gen = np.random.Generator(np.random.Philox(key=np.array([2024, 7], dtype=np.uint64)))
    tiny = 10.0 ** -np.linspace(1.0, 300.0, 30_001)
    u = np.concatenate([gen.random(1_000_000), tiny, 1.0 - tiny[tiny > 1e-16]])
    got, ref = norm_ppf(u), ndtri(u)
    assert got.shape == u.shape
    # numpy's vectorised log and the C library's differ in a few last bits
    assert np.mean(got == ref) >= 0.9999
    assert _ulps(got, ref).max() <= 8
    assert np.array_equal(norm_ppf(u[:1_000_000].reshape(-1, 5)), got[:1_000_000].reshape(-1, 5))


def test_norm_ppf_edge_values():
    from scipy.special import ndtri

    u = np.array([0.0, -0.0, 1.0, 5e-324, 1e-300, 0.5, np.nextafter(1.0, 0.0),
                  -1e-300, np.nextafter(1.0, 2.0), -np.inf, np.inf, np.nan])
    got = norm_ppf(u)
    assert got[0] == got[1] == -np.inf and got[2] == np.inf and got[5] == 0.0
    assert np.all(np.isnan(got[7:]))
    assert np.array_equal(got, ndtri(u), equal_nan=True)
    assert isinstance(norm_ppf(0.975), float) and norm_ppf(0.975) == ndtri(0.975)


def test_pe_rejects_reversed_interval():
    with pytest.raises(ModelError):
        partial_expectation(LogNormal(0.0, 1.0), AffineMap(0.0, 1.0), 2.0, 1.0)


def test_pe_point_mass_exact():
    dist = PointMass([0.5, 1.0, 2.0], [0.2, 0.5, 0.3])
    f = AffineMap(1.0, 2.0)
    prob, pe = partial_expectation(dist, f, 0.5, 2.0)  # [0.5, 2.0) keeps two atoms
    assert abs(prob - 0.7) < 1e-15
    assert abs(pe - (0.2 * 2.0 + 0.5 * 3.0)) < 1e-15


@given(
    law=st.sampled_from(["lognormal", "uniform"]),
    mu=st.floats(-1.0, 1.0),
    sig2=st.floats(0.1, 2.0),
    coef=st.floats(0.1, 3.0),
    expo=st.floats(0.0, 2.0),
    a=st.floats(0.1, 2.0),
    width=st.floats(0.1, 3.0),
)
@settings(max_examples=80)
def test_pe_closed_form_matches_quadrature(law, mu, sig2, coef, expo, a, width):
    # a wrapped power map is not a PowerMap, so it takes the quadrature;
    # uniform intervals are halved, to start inside [0, 1] and often end past 1
    dist = LogNormal(mu, sig2)
    if law == "uniform":
        dist, a, width = Uniform01(), 0.5 * a, 0.5 * width
    fast = partial_expectation(dist, PowerMap(coef, expo), a, a + width)

    class Wrapped:
        def __init__(self, f):
            self._f = f

        def __call__(self, q):
            return self._f(q)

    slow = partial_expectation(dist, Wrapped(PowerMap(coef, expo)), a, a + width)
    assert abs(fast[0] - slow[0]) < 1e-9
    assert abs(fast[1] - slow[1]) < 1e-9


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (1.0, np.inf), (0.3, 0.95)])
def test_pe_tabulated_lognormal_matches_quad(a, b):
    # scipy's quad in q, split at the knots; on [1, inf) a rule whose nodes
    # spread over q's whole window up to exp(mu + 40 sigma) misses the mass
    from scipy.integrate import quad

    dist = LogNormal(-0.5, 1.0)
    f = TabulatedMap([0.0, 1.0, 5.0], [0.0, 3.0, 15.0])

    def density(q):  # lognormal with mu = -0.5, sigma = 1
        if q <= 0.0:
            return 0.0
        return math.exp(-0.5 * (math.log(q) + 0.5) ** 2) / (q * math.sqrt(2.0 * math.pi))

    edges = [a, *(k for k in f.q_knots if a < k < b), b]
    ref = sum(
        quad(lambda q: float(f(q)) * density(q), u, v, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for u, v in zip(edges, edges[1:])
    )
    assert abs(partial_expectation(dist, f, a, b)[1] - ref) <= 1e-10 * ref


def test_uniform_affine_closed_form():
    prob, pe = partial_expectation(Uniform01(), AffineMap(1.0, 2.0), 0.25, 0.75)
    assert abs(prob - 0.5) < 1e-14
    assert abs(pe - 0.5 * (1.0 + 2.0 * 0.5)) < 1e-12


def test_uniform_power_closed_form():
    # E[0.2 + 0.8 U**0.37] = 0.2 + 0.8 / 1.37 = 0.78394160583941605...
    prob, pe = partial_expectation(Uniform01(), PowerMap(0.8, 0.37, 0.2), 0.0, np.inf)
    assert prob == 1.0
    assert abs(pe - (0.2 + 0.8 / 1.37)) <= 4 * math.ulp(0.2 + 0.8 / 1.37)


def test_unknown_factor_law_is_a_model_error():
    class D:
        pass

    with pytest.raises(ModelError, match="unknown factor law D"):
        FactorModel([PowerMap(1.0, 1.0)], D())
    with pytest.raises(ModelError, match="unknown factor law D"):
        partial_expectation(D(), PowerMap(1.0, 1.0), 0.0, 1.0)


def test_empirical_is_point_mass():
    emp = Empirical([1.0, 1.0, 2.0, 4.0])
    assert abs(emp.mean() - 2.0) < 1e-15
    assert abs(emp.prob_below(2.0) - 0.5) < 1e-15


# ---------------------------------------------------------------------------
# maps and model validation


def test_tabulated_map_interpolates_knots():
    f = TabulatedMap([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    assert np.allclose(f(np.array([0.0, 1.0, 2.0])), [0.0, 1.0, 4.0])
    assert f(3.0) == 4.0  # flat extrapolation keeps monotonicity


def _pchip_cases():
    rng = np.random.default_rng(80)
    yield np.array([0.5, 2.0]), np.array([1.0, 4.0])  # two knots: a straight line
    yield np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0, 1.0])
    for _ in range(300):
        k = int(rng.integers(3, 12))
        q = np.cumsum(rng.uniform(0.01, 3.0, k)) - 1.0
        steps = rng.exponential(1.0, k - 1) * (rng.random(k - 1) < 0.7)  # flat pieces
        yield q, rng.uniform(0.0, 2.0) + np.concatenate([[0.0], np.cumsum(steps)])


def test_tabulated_map_matches_scipy_pchip():
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(81)
    for q, x in _pchip_cases():
        ref = PchipInterpolator(q, x)
        f = TabulatedMap(q, x)
        v = np.concatenate([q[:-1], rng.uniform(q[0], q[-1], 100)])
        assert np.allclose(f(v), ref(v), rtol=1e-14, atol=0.0)
        whole = float(ref.integrate(q[0], q[-1]))
        assert abs(f.integral() - whole) <= 1e-14 * abs(whole)
        # constant beyond the ends, exactly the end values
        assert f(q[0] - 1.0) == x[0] and f(q[-1]) == x[-1] and f(q[-1] + 1.0) == x[-1]


def test_tabulated_map_rejects_decreasing():
    with pytest.raises(ModelError):
        TabulatedMap([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])


def test_factor_model_rejects_decreasing_map():
    with pytest.raises(ModelError):
        FactorModel([AffineMap(1.0, -0.5)], LogNormal(0.0, 1.0))


def test_factor_model_checks_power_maps_by_their_parameters():
    # an exponent of 60 overflows at the top of the check grid (q = 1e6), yet the
    # map is valid: its constructor has already checked it
    model = FactorModel([PowerMap(1.0, 60.0), AffineMap(0.5, 1.0)], LogNormal(0.0, 0.01))
    assert model.endowments(1e6)[0] == np.inf
    assert np.all(np.isfinite(expected_values(make_two_bank(), model).EV))
    # every other column is still probed on the grid, named by its own index
    for bad, fault in ((lambda q: -np.asarray(q), "nonnegative on q >= 0"),
                       (lambda q: 1.0 / (1.0 + np.asarray(q)), "nondecreasing"),
                       (lambda q: np.where(np.asarray(q) > 1e3, np.inf, 1.0), "non-finite values")):
        with pytest.raises(ModelError, match=f"^map 1: map (must be |produced ){fault}"):
            FactorModel([PowerMap(1.0, 60.0), bad], LogNormal(0.0, 1.0))


def test_power_map_rejects_negative_exponent():
    with pytest.raises(ModelError):
        FactorModel([PowerMap(1.0, -1.0)], LogNormal(0.0, 1.0))


# ---------------------------------------------------------------------------
# solvency thresholds


def bench_model():
    return FactorModel(
        [AffineMap(0.0, 3.0), AffineMap(0.0, 4.0)], LogNormal(-0.5, 1.0)
    )


def test_two_bank_thresholds(two_bank):
    th = solvency_thresholds(two_bank, bench_model())
    assert abs(th.q_star[0] - 7.0 / 3.0) < 1e-12
    assert abs(th.q_star[1] - 39.0 / 61.0) < 1e-12
    assert list(th.order) == [0, 1]


def test_constant_rich_endowment_thresholds(two_bank):
    model = FactorModel(
        [AffineMap(20.0, 0.0), AffineMap(20.0, 0.0)], LogNormal(0.0, 1.0)
    )
    th = solvency_thresholds(two_bank, model)
    assert np.allclose(th.q_star, 0.0)


def test_zero_endowment_thresholds(two_bank):
    model = FactorModel(
        [AffineMap(0.0, 0.0), AffineMap(0.0, 0.0)], LogNormal(0.0, 1.0)
    )
    th = solvency_thresholds(two_bank, model)
    assert np.all(np.isinf(th.q_star))


def test_bisection_matches_affine_closed_form(two_bank):
    affine = solvency_thresholds(two_bank, bench_model())
    tab = FactorModel(
        [
            TabulatedMap([0.0, 1.0, 5.0], [0.0, 3.0, 15.0]),
            TabulatedMap([0.0, 1.0, 5.0], [0.0, 4.0, 20.0]),
        ],
        LogNormal(-0.5, 1.0),
    )
    bisected = solvency_thresholds(two_bank, tab)
    assert np.allclose(bisected.q_star, affine.q_star, rtol=1e-9)


def test_uniform_factor_certain_default():
    # endowments never reach solvency on [0, 1), so default is certain; the
    # affine path reports the algebraic threshold, the bisection path clamps
    # to the support, and both yield identical expectations
    net = make_two_bank()
    model = FactorModel([AffineMap(0.0, 3.0), AffineMap(0.0, 4.0)], Uniform01())
    th = solvency_thresholds(net, model)
    assert th.q_star[0] >= 1.0  # bank 1 never solvent on the support
    assert abs(th.q_star[1] - 39.0 / 61.0) < 1e-12
    ev = expected_values(net, model)
    assert abs(ev.pd[0] - 1.0) < 1e-12
    assert abs(ev.pd[1] - 39.0 / 61.0) < 1e-12

    tab = FactorModel(
        [
            TabulatedMap([0.0, 0.5, 1.0], [0.0, 1.5, 3.0]),
            TabulatedMap([0.0, 0.5, 1.0], [0.0, 2.0, 4.0]),
        ],
        Uniform01(),
    )
    th_tab = solvency_thresholds(net, tab)
    assert abs(th_tab.q_star[0] - 1.0) < 1e-12
    ev_tab = expected_values(net, tab)
    assert np.allclose(ev_tab.pd, ev.pd, atol=1e-9)
    assert np.allclose(ev_tab.Ep, ev.Ep, atol=1e-9)


# ---------------------------------------------------------------------------
# the threshold sweep at scale


def sweep_case(n, kind):
    """n-bank net with affine maps: calibrated synthetic sheets, or a random
    net with full recovery, partial recovery, or cross-holdings (row sums
    of Gamma in [0.1, 0.5]) with partial recovery; "two-bank" is the
    two-bank net with the affine maps of ``bench_model``."""
    if kind == "two-bank":
        return make_two_bank(), bench_model()
    if kind == "calibrated":
        net, calib = calibrated_network(make_synthetic_sheets(n, seed=7), seed=7)
        maps = [AffineMap(0.0, float(s)) for s in calib.s]
        return net, FactorModel(maps, LogNormal(0.0, 0.04))
    rng = np.random.default_rng([n, 1])
    inter = rng.uniform(0.0, 2.0, (n, n))
    inter[rng.random((n, n)) < 0.35] = 0.0
    np.fill_diagonal(inter, 0.0)
    L = np.column_stack([inter, rng.uniform(0.5, 2.0, n)])
    Gamma = None
    alpha_x = alpha_L = 1.0
    if kind == "partial":
        alpha_x, alpha_L = 0.6, 0.8
    elif kind == "gamma":
        alpha_x, alpha_L = 0.9, 0.7
        G = rng.uniform(0.0, 1.0, (n, n))
        G[rng.random((n, n)) < 0.7] = 0.0
        np.fill_diagonal(G, 0.0)
        rs = G.sum(axis=1)
        Gamma = G * (rng.uniform(0.1, 0.5, n) / np.where(rs > 0.0, rs, 1.0))[:, None]
    net = build_network(L, alpha_x, alpha_L, Gamma)
    shifts = rng.uniform(0.0, 0.3, n) * net.p_bar
    slopes = rng.uniform(0.4, 1.6, n) * net.p_bar
    model = FactorModel(
        [AffineMap(float(a), float(b)) for a, b in zip(shifts, slopes)],
        LogNormal(-0.1, 0.3),
    )
    return net, model


# sha256 of the int64 default order from the sweep that solved
# delta_matrix / delta_vector afresh on every step
SWEEP_ORDERS = {
    (2, "two-bank"): "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    (30, "full"): "d26aa808253190f5839b41c98073871cc751b58caacce5df72ebf09e8ac42729",
    (30, "partial"): "b1486f6d29fee69d611a15a5eb8155d5e5f3b548d4fcaaaaa19d28c539bdbc06",
    (30, "gamma"): "a98d818b101f2c8b495ba957276e18fb897289fede51667a8606fab1cdf65dc2",
    (87, "full"): "fe2b048f749eed558f4bd4350ed2ea3a1560eef7f2be07005c240d264f71e699",
    (87, "partial"): "57bce93374c66350aa84d751a99206e39f5f5d5b18effa3a24188d4389e69366",
    (87, "gamma"): "cfdc2846b83751de1d865ee4789fb2b19cd1295623e9bd69145459df3fcb6dd1",
    # the longest ladder, with the most bordering steps for round-off to build up
    (200, "calibrated"): "e5672c8f19329a5d35d11c1e3b0acecd98d3b93d7ec9a2c7e59fd351e0a037fc",
}


def _rung_reference(net, model, order):
    """Thresholds, default order, ``EV`` and ``EE`` from dense solves of every
    rung on the prefixes of ``order``: ``helpers.dense_map`` for
    ``(Delta_k, delta_k)``, the affine roots for the candidates, and lognormal
    moments of ``shift + slope q`` in closed form."""
    from scipy.special import ndtr

    shift = np.array([f.shift for f in model.f])
    slope = np.array([f.slope for f in model.f])
    mu, sigma = model.dist.mu, model.dist.sigma

    def tails(t):  # P(q >= t) and E[q; q >= t]
        y = (mu - math.log(t)) / sigma if t > 0.0 else math.inf
        return ndtr(y), math.exp(mu + 0.5 * sigma * sigma) * ndtr(y + sigma)

    n = net.n
    z = np.zeros(n, dtype=bool)
    q_star, picks = np.empty(n), []
    EV, EE = np.zeros(n), np.zeros(n)
    q_prev = math.inf
    for k in range(n + 1):
        D, d = dense_map(net, z)
        q_k = 0.0
        if k < n:
            rest = np.flatnonzero(~z)
            a, b, target = (D @ shift)[rest], (D @ slope)[rest], d[rest]
            with np.errstate(divide="ignore", invalid="ignore"):
                sups = np.where(a >= target, 0.0, np.where(b <= 0.0, np.inf, (target - a) / b))
            picks.append(int(rest[np.argmax(sups)]))
            q_k = min(q_prev, float(sups.max()))
        if q_k < q_prev:
            (p_lo, m_lo), (p_hi, m_hi) = tails(q_k), tails(q_prev)
            prob = p_lo - p_hi
            EV += D @ (shift * prob + slope * (m_lo - m_hi)) - d * prob
        if k == n:
            break
        EE[order[k]] = EV[order[k]]
        q_star[order[k]] = q_k
        z[order[k]] = True
        q_prev = q_k
    return q_star, picks, EV, EE


@pytest.mark.parametrize("n, kind", sorted(SWEEP_ORDERS))
def test_rank_two_sweep_matches_fresh_solves(n, kind):
    # each default changes one row and one column of M(z), a rank-two change
    # that the sweep absorbs by bordering the coupled block
    net, model = sweep_case(n, kind)
    ev = expected_values(net, model)
    th = ev.thresholds
    order = hashlib.sha256(th.order.astype("<i8").tobytes()).hexdigest()
    assert order == SWEEP_ORDERS[(n, kind)], list(th.order)
    q_star, picks, EV, EE = _rung_reference(net, model, th.order)
    assert picks == th.order.tolist()
    finite = np.isfinite(q_star)
    assert np.array_equal(finite, np.isfinite(th.q_star))
    assert np.all(np.abs(th.q_star - q_star)[finite] <= 1e-12 * q_star[finite])
    atol = 1e-12 * net.p_bar.max()
    assert np.max(np.abs(ev.EV - EV)) <= atol
    assert np.max(np.abs(ev.EE - EE)) <= atol


@pytest.mark.parametrize("s", [0.0, -1e-3, math.nan, math.inf])
def test_sweep_pivot_must_be_finite_and_positive(s):
    # a pivot of the bordered block that is not finite and positive means a
    # broken invariant; the sweep raises rather than return an inf
    with pytest.raises(RuntimeError, match="internal invariant violation"):
        _pivot(s)


def test_expected_values_memory_stays_bounded():
    # the sweep adds each interval's term as it goes and keeps only the
    # current rung, a few n x n arrays (0.3 MiB each at n = 200); keeping all
    # n + 1 rungs would peak at about 63 MiB
    net, model = sweep_case(200, "calibrated")
    tracemalloc.start()
    try:
        expected_values(net, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _gamma_net(rng, n, alpha_x, alpha_L):
    """``random_net`` plus cross-holdings: row sums of Gamma in [0.1, 0.5]."""
    L = random_net(rng, n).L
    G = rng.uniform(0.0, 1.0, (n, n))
    G[rng.random((n, n)) < 0.5] = 0.0
    np.fill_diagonal(G, 0.0)
    G[0, 1] = 0.5  # at least one nonzero row
    rs = G.sum(axis=1)
    G *= (rng.uniform(0.1, 0.5, n) / np.where(rs > 0.0, rs, 1.0))[:, None]
    return build_network(L, alpha_x, alpha_L, G)


def _bisect_solvency(solvent):
    """The lowest factor value at which ``solvent`` holds, to 1e-13 relative:
    0 if it holds at 0, inf if it fails at every doubling up to 2**200."""
    if solvent(0.0):
        return 0.0
    hi = 1.0
    while not solvent(hi):
        hi *= 2.0
        if hi > 2.0**200:
            return np.inf
    lo = 0.0
    while hi - lo > 1e-13 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if solvent(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("alpha_x, alpha_L", [(1.0, 1.0), (0.5, 0.5), (0.7, 0.3)])
def test_thresholds_match_upper_picard_under_cross_holdings(alpha_x, alpha_L):
    # the sweep never runs the clearing kernel; the oracle iterates psi_star
    # down from an upper bound of every fixed point, so it finds the greatest
    # clearing wealths also under Gamma != 0
    rng = np.random.default_rng([41, int(10 * alpha_x), int(10 * alpha_L)])
    finite = 0
    for _ in range(4):
        n = int(rng.integers(2, 6))
        net = _gamma_net(rng, n, alpha_x, alpha_L)
        assert net.Gamma.any()
        # some banks rich at q = 0 (threshold 0), some with flat maps (often inf)
        u = rng.random(n)
        shifts = np.where(u < 0.15, 1.5, rng.uniform(0.0, 0.1, n)) * net.p_bar
        slopes = np.where(u > 0.85, 0.0, rng.uniform(0.4, 1.6, n)) * net.p_bar
        model = FactorModel(
            [AffineMap(float(a), float(b)) for a, b in zip(shifts, slopes)], LogNormal(-0.1, 0.3)
        )
        q_star = solvency_thresholds(net, model).q_star
        for i in range(n):
            def solvent(q, i=i):
                return upper_picard_clearing(net, model.endowments(np.float64(q)))[i] >= -ZERO_TOL

            ref = _bisect_solvency(solvent)
            if ref == 0.0 or np.isinf(ref):
                assert q_star[i] == ref, (i, q_star[i], ref)
            else:
                assert abs(q_star[i] - ref) <= 1e-9 * ref, (i, q_star[i], ref)
            finite += 0.0 < ref < np.inf
    assert finite


# ---------------------------------------------------------------------------
# scalar search of the non-affine sweep

# sha256 of order, q_star, EV and EE per case, from the per-bank regula-falsi
# search; the order digests are those of bisecting every still-solvent bank
# at its own factor value
BISECTION_PINS = {
    "n=10": (
        "a2c96cb52798917939b74d3b8d11763c2238e40435212f0e7d1a9117a167171e",
        "428c27b727aacf8c3ad7aa028d5a503ac2b7a3b989cd645eb096071a34a35e63",
        "c674500f752194d295bd5a456e726879bde9ec8cc9131dcaa3adac942d1ee5a6",
        "5d1e7a8334251cc351370f83820fd9790a3296c017a06cdae4f4b07d12dd9ee2",
    ),
    "capm-87-lower": (
        "71f66770328c03afa49c4d8121c1a877da46720ef4274f67d710b9b9ef2e5cfa",
        "9e8c37c8344b45887efb285cbde3bde6bdea7fe79e41982abbfeec9ede0952d1",
        "9e482583afd1fbd7ab6e36aa3387ee50c9ec75616ae2078cdcc06618299cbefc",
        "217ad082106b41e024d30cbc32b7e3c9105a80d2ca6eb8f05685345295e1ee2c",
    ),
    "capm-87-upper": (
        "f88645582cabd120329a26770bc8a1a6844c0c0ad03a9633a4beb36635eff79d",
        "ce9c9ab40031cccb5c0923fa74d3863e16d3ee2f62987459351531a309ca003e",
        "a7671945fc2c79907c8ce73292ab6d012f0a5bcb350d606e1034f9f09945233f",
        "7ffe8676d76f163f24cabc0fb0cd4fbb7d3f52fbb3ce88d3253f9611cdca5415",
    ),
    "gamma-power": (
        "b321371ffcdc61030e50c0b451f932ce448ad4231545415cd90376ed95f3aa5d",
        "f5d8c0d76b51fa372113ad2f82e9a01365b4287d3c285af05ec83d7c662916cb",
        "b8d8e637753fea667e1e68580e5207a404b483838c8222700fdd4cd6ddb2b405",
        "71e258526383c23df5b4fbc737c987385120cff9212090a2e4a0182f730b2ff3",
    ),
    "tied-tabulated": (
        "e0d14f2a841e22d47e5f6253c99e90fd22c368c80e7d6033768256374dab8806",
        "05aa209fbae199c4be42bfd98de5dcd0d73af6f8e45deababf9a543799a38479",
        "a6c2b228fd9f7285854fe8e58f4f55d64425f8b23bf6347d6aef354d329101a7",
        "64dd7b5be1b6ac11409637401ec840fafafa5190af27bd9988d14ed3c927c34e",
    ),
}


def _bisection_case(name):
    """Models whose maps are not affine in one ``u = q**c``, so the sweep
    searches: calibrated banks with per-bank CAPM power maps (as the
    closed-form benchmark's part (b)), a cross-holdings net with partial
    recovery and per-bank power exponents, and two groups of identical
    banks under tabulated maps, whose exact ties go to the lowest index."""
    if name == "n=10" or name.startswith("capm-87-"):
        n, seed = (10, 7) if name == "n=10" else (87, 1)
        net, calib = calibrated_network(make_synthetic_sheets(n, seed=seed), seed=seed)
        rng = np.random.default_rng(11 if n == 10 else 87)
        params = CapmParams(
            r=0.02, T=1.0, sigma_M=0.2, beta=rng.uniform(0.5, 1.2, n),
            gamma=rng.uniform(0.1, 0.4, n), s=calib.s,
        )
        z = params.sigma if n == 10 else params.z_vector(name.rsplit("-", 1)[1])
        return net, FactorModel(_eta_maps(z, params), params.factor_dist())
    if name == "gamma-power":
        rng = np.random.default_rng(23)
        n = 8
        L = random_net(rng, n).L
        G = rng.uniform(0.0, 1.0, (n, n))
        G[rng.random((n, n)) < 0.5] = 0.0
        np.fill_diagonal(G, 0.0)
        G *= (rng.uniform(0.1, 0.5, n) / G.sum(axis=1))[:, None]
        net = build_network(L, 0.9, 0.8, G)
        coef = rng.uniform(0.2, 1.0, n) * net.p_bar
        expo = rng.uniform(0.2, 2.5, n)
        shift = rng.uniform(0.0, 0.2, n) * net.p_bar
        return net, FactorModel([PowerMap(*a) for a in zip(coef, expo, shift)], LogNormal(0.1, 0.5))
    L = np.full((6, 7), 0.2)
    np.fill_diagonal(L, 0.0)
    L[:, 6] = 1.0
    low = TabulatedMap([0.0, 0.5, 1.0, 2.0], [0.2, 0.9, 1.3, 2.4])
    high = TabulatedMap([0.0, 0.8, 1.6, 3.0], [0.1, 0.8, 1.8, 2.7])
    return build_network(L, 1.0, 0.9), FactorModel([low, high] * 3, LogNormal(0.0, 0.4))


@pytest.mark.parametrize("name", sorted(BISECTION_PINS))
def test_bisection_thresholds_pinned(name):
    # one scalar search per sweep step: the order of bisecting every
    # still-solvent bank at its own factor value, q_star within the bracket
    # tolerance of it (checked against the parent when these were pinned)
    net, model = _bisection_case(name)
    ev = expected_values(net, model)
    th = ev.thresholds
    if name == "n=10":
        assert list(th.order) == [2, 5, 8, 1, 0, 9, 6, 7, 3, 4]
    if name == "tied-tabulated":
        assert list(th.order) == [1, 3, 5, 0, 2, 4]
        assert np.all(th.q_star[::2] == th.q_star[0]) and np.all(th.q_star[1::2] == th.q_star[1])
    arrays = (th.order.astype("<i8"), th.q_star, ev.EV, ev.EE)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
    assert digests == BISECTION_PINS[name]


def _scalar_prob_below(dist, x: float) -> float:
    # P(q < x) one threshold at a time, written out per law; the lognormal
    # through math.erfc, whose bits scipy's erfc misses on about a third of arguments
    if isinstance(dist, LogNormal):
        log_x = -math.inf if x <= 0.0 else math.log(x)
        return 0.5 * math.erfc(((dist.mu - log_x) / dist.sigma) / math.sqrt(2.0))
    if isinstance(dist, PointMass):
        return float(dist.probs[dist.atoms < x].sum())
    return float(np.clip(x, 0.0, 1.0))


def test_pd_matches_prob_below():
    # expected_values takes pd from one prob_below call on all thresholds; it
    # must give the bits of the per-threshold values, also at 0,
    # denormal-small, huge and inf thresholds
    rng = np.random.default_rng(13)
    t = np.concatenate(([0.0, 1e-300, 1.0, 1e300, np.inf], rng.lognormal(0.0, 3.0, 49)))
    laws = {
        "lognormal": lambda: LogNormal(rng.normal(0.0, 2.0), rng.uniform(0.01, 4.0)),
        "pointmass": lambda: PointMass(rng.lognormal(0.0, 1.0, 12), rng.dirichlet(np.ones(12))),
        "empirical": lambda: Empirical(rng.lognormal(0.0, 1.0, 40)),
        "uniform": Uniform01,
    }
    for make in laws.values():
        for _ in range(5):
            dist = make()
            assert dist.prob_below(t).tolist() == [_scalar_prob_below(dist, x) for x in t]
    for name, make in laws.items():
        for _ in range(5):
            net = random_net(rng)
            coef, expo = rng.uniform(0.5, 3.0, net.n), rng.uniform(0.2, 1.5, net.n)
            dist = make()
            ev = expected_values(net, FactorModel(map(PowerMap, coef, expo), dist))
            want = [_scalar_prob_below(dist, q) for q in ev.thresholds.q_star]
            assert ev.pd.tolist() == want, name


def test_factor_model_endowments():
    # all-power models evaluate as one broadcast np.power; it has the bits of
    # the maps' own __call__ (q**1 == q, q**0 == 1, q = 0, overflow to inf)
    # except at exponents 0.5 and 2, where the single-map np.power takes its
    # sqrt and square fast paths and may differ by one spacing
    maps = [
        AffineMap(0.3, 2.5), AffineMap(0.0, 0.0), PowerMap(1.7, 0.0, 0.2),
        PowerMap(0.9, 1.0), PowerMap(2.0, 0.37, 1.1), PowerMap(3.0, 50.0),
        PowerMap(1.0, 0.5), PowerMap(1.0, 2.0),
    ]
    slow = np.isin([f.exponent for f in maps], [0.5, 2.0])
    model = FactorModel(maps, LogNormal(0.0, 1.0))
    mixed = FactorModel(maps + [TabulatedMap([0.0, 1.0], [0.5, 2.0])], LogNormal(0.0, 1.0))
    q1 = np.concatenate(([0.0, 1e-300, 0.5, 1.0, 7.25, 1e20], np.geomspace(1e-6, 1e6, 42)))
    for q in (np.float64(7.25), 0.5, q1, q1.reshape(6, 8)):
        calls = np.stack([np.broadcast_to(f(q), np.shape(q)) for f in mixed.f], axis=-1)
        assert np.array_equal(mixed.endowments(q), calls)
        got, want = model.endowments(q), calls[..., :-1]
        assert got.shape == np.shape(q) + (len(maps),)
        assert np.array_equal(got[..., ~slow], want[..., ~slow])
        assert np.all(np.abs(got[..., slow] - want[..., slow]) <= np.spacing(want[..., slow]))
    assert np.isinf(model.endowments(q1)[5, 5])  # q = 1e20, exponent 50


class _RecordingMap(TabulatedMap):
    seen = []
    shapes = []

    def __call__(self, q):
        self.seen.append(float(np.max(q)))
        self.shapes.append(np.shape(q))
        return super().__call__(q)


def test_bisection_respects_uniform_cap():
    # bank 0 never becomes solvent on [0, 1]: its threshold is the cap, and
    # no map is evaluated at or past 1 while bracketing
    net = make_two_bank()
    model = FactorModel(
        [
            _RecordingMap([0.0, 0.5, 1.0], [0.0, 1.5, 3.0]),
            _RecordingMap([0.0, 0.5, 1.0], [0.0, 2.0, 4.0]),
        ],
        Uniform01(),
    )
    _RecordingMap.seen.clear()
    th = solvency_thresholds(net, model)
    assert th.q_star[0] == 1.0
    assert 0.0 < th.q_star[1] < 1.0
    assert max(_RecordingMap.seen) < 1.0


def test_bisection_probes_one_factor_value(two_bank):
    # each probe of the scalar search evaluates every map at one 0-d factor
    # value, not at one factor value per still-solvent bank
    knots = [0.0, 0.5, 1.0, 2.0]
    for dist in (LogNormal(0.0, 1.0), Uniform01()):
        model = FactorModel(
            [_RecordingMap(knots, [0.0, 1.5, 3.0, 9.0]), _RecordingMap(knots, [0.0, 2.0, 4.0, 9.0])],
            dist,
        )
        _RecordingMap.shapes.clear()
        th = solvency_thresholds(two_bank, model)
        assert np.all((th.q_star > 0.0) & np.isfinite(th.q_star))
        assert len(_RecordingMap.shapes) > 2 * 10  # both maps, over 10 probes each
        assert set(_RecordingMap.shapes) == {()}


def test_bisection_rejects_map_decreasing_past_grid(two_bank):
    # nondecreasing on the model's check grid (up to 1e6), but it drops to
    # zero at 2e6, which the doubling bracket reaches
    def dropping(q):
        q = np.asarray(q, dtype=float)
        return np.where(q < 2e6, 1e-9 * q, 0.0)

    model = FactorModel([dropping, dropping], LogNormal(0.0, 1.0))
    with pytest.raises(ModelError, match="decreased during bracketing"):
        solvency_thresholds(two_bank, model)


def test_bisection_saturating_map_never_solvent(two_bank):
    # the maps saturate at 1, below every target, so no bracket is found
    model = FactorModel(
        [TabulatedMap([0.0, 1.0], [0.0, 1.0]), TabulatedMap([0.0, 1.0], [0.0, 1.0])],
        LogNormal(0.0, 1.0),
    )
    th = solvency_thresholds(two_bank, model)
    assert np.all(np.isinf(th.q_star))


def test_bisection_unbracketed_rising_map_raises(two_bank):
    # the maps still rise after 200 doublings of the factor, where they are
    # still below every target: no bracket, and no evidence of "never solvent"
    model = FactorModel([PowerMap(0.1, 1e-3), PowerMap(0.1, 2e-3)], LogNormal(0.0, 1.0))
    with pytest.raises(ModelError, match="no solvency bracket after 200 doublings"):
        solvency_thresholds(two_bank, model)


def test_search_bisects_when_one_end_keeps_moving():
    # steep power maps: after a default at q ~ 2e6, F at the bracket's top is
    # ~1e72 against ~1 at its bottom, so regula falsi creeps up from 0 and
    # Illinois halvings alone would need ~240 probes; forced midpoints keep
    # the search inside its iteration cap
    L = [[0.0, 0.86, 0.0, 1.0], [1.27, 0.0, 0.58, 0.96], [1.44, 1.05, 0.0, 1.46]]
    net = build_network(L, 0.3, 0.3)
    maps = [PowerMap(1.76, 11.8, 0.37), PowerMap(2.56, 11.15, 0.01), PowerMap(1.11, 0.074, 0.1)]
    model = FactorModel(maps, LogNormal(-0.2, 0.22))
    th = solvency_thresholds(net, model)
    ref = thresholds_by_clearing_bisection(net, model)
    assert th.q_star[2] > 1e6
    assert np.allclose(th.q_star, ref, rtol=1e-9, atol=0.0), (th.q_star, ref)


def _evaluations_per_step(net, model, monkeypatch):
    # g evaluations of each _next_default call, one call per sweep step
    search, counts = comonotonic._next_default, []

    def counted(g, *args):
        calls = [0]

        def g_counted(q):
            calls[0] += 1
            return g(q)

        out = search(g_counted, *args)
        counts.append(calls[0])
        return out

    with monkeypatch.context() as m:
        m.setattr(comonotonic, "_next_default", counted)
        solvency_thresholds(net, model)
    return counts


@pytest.mark.parametrize("name", ["capm-87-lower", "capm-87-upper"])
def test_search_evaluations_per_step(name, monkeypatch):
    # the regula-falsi search needs a median of at most 10 evaluations of g
    # per step, bracket included (bisection from 0 took 36); the count is
    # deterministic
    net, model = _bisection_case(name)
    counts = _evaluations_per_step(net, model, monkeypatch)
    assert len(counts) == net.n
    assert statistics.median(counts) <= 10, counts


# sha256 of the concatenated orders of search_path_models(), taken when each
# step bisected [0, hi] down to BISECT_REL_TOL
SEARCH_ORDERS_DIGEST = "d97169bfb3fef633ffd41ebc856d728186ef71968af1485b9724ac38f15ce1fe"


def test_search_orders_unchanged():
    # the search moves thresholds within its tolerance but must not reorder
    # any default on 316 models: near-ties, mirrored pairs, exact ties in
    # rings, cross-holdings, partial recovery, tabulated maps, uniform caps
    h = hashlib.sha256()
    for net, model in search_path_models():
        h.update(solvency_thresholds(net, model).order.astype("<i8").tobytes())
    assert h.hexdigest() == SEARCH_ORDERS_DIGEST


# ---------------------------------------------------------------------------
# expected values


def test_expected_values_identity_and_ranges(two_bank):
    ev = expected_values(two_bank, bench_model())
    assert np.allclose(ev.EV, ev.EE + ev.Ep - two_bank.p_bar, atol=1e-10)
    assert np.all((ev.pd >= 0.0) & (ev.pd <= 1.0))
    assert np.all((ev.Ep >= 0.0) & (ev.Ep <= two_bank.p_bar + 1e-12))
    assert np.all(ev.EE >= 0.0)


def test_point_mass_factor_equals_clearing(two_bank):
    model = FactorModel(
        [AffineMap(0.0, 3.0), AffineMap(0.0, 4.0)], PointMass([1.0], [1.0])
    )
    ev = expected_values(two_bank, model)
    res = greatest_clearing(two_bank, [3.0, 4.0])
    assert np.allclose(ev.EV, res.V, atol=1e-12)
    assert np.allclose(ev.Ep, res.p, atol=1e-12)
    assert np.allclose(ev.EE, res.E, atol=1e-12)
    assert np.allclose(ev.pd, res.z.astype(float), atol=1e-12)


def test_finite_factor_matches_exact_enumeration(two_bank):
    atoms = np.array([0.3, 0.9, 2.0, 3.0])
    probs = np.array([0.2, 0.4, 0.3, 0.1])
    model = FactorModel(
        [AffineMap(0.0, 3.0), AffineMap(0.0, 4.0)], PointMass(atoms, probs)
    )
    ev = expected_values(two_bank, model)
    X = np.column_stack([3.0 * atoms, 4.0 * atoms])
    exact = exact_expectations(two_bank, X, probs)
    assert np.allclose(ev.pd, exact.pd, atol=1e-12)
    assert np.allclose(ev.EV, exact.EV, atol=1e-12)
    assert np.allclose(ev.Ep, exact.Ep, atol=1e-12)
    assert np.allclose(ev.EE, exact.EE, atol=1e-12)


def test_expected_values_vs_monte_carlo(two_bank):
    # tabulated maps take the quadrature on every factor interval, the
    # unbounded top one included
    tabulated = FactorModel(
        [
            TabulatedMap([0.0, 1.0, 5.0], [0.0, 3.0, 15.0]),
            TabulatedMap([0.0, 0.5, 2.0, 6.0], [0.0, 2.0, 8.0, 24.0]),
        ],
        LogNormal(-0.5, 1.0),
    )
    for model in (bench_model(), tabulated):
        ev = expected_values(two_bank, model)
        batch = simulate({"kind": "comonotonic-factor", "model": model}, 200_000, 42)
        mc = mc_expectations(two_bank, batch)
        for field in ("pd", "EV", "Ep", "EE"):
            a = getattr(ev, field)
            m = getattr(mc, field)
            se = getattr(mc, "se_" + field)
            assert np.all(np.abs(a - m) <= 4.0 * se + 1e-12), field


def test_tied_thresholds_swap_invariance():
    # banks 0 and 1 are mirror images, so their thresholds tie and the sweep
    # defaults one of them first; relabeling the banks flips which one, and
    # the expectations must not depend on it
    L = np.array([[0.0, 1.0, 0.5, 1.0], [1.0, 0.0, 0.5, 1.0], [0.7, 0.7, 0.0, 2.0]])
    maps = [AffineMap(0.0, 2.0), AffineMap(0.0, 2.0), AffineMap(0.5, 3.0)]
    perm = np.array([1, 2, 0])  # new bank j is old bank perm[j]
    L2 = np.column_stack([L[np.ix_(perm, perm)], L[perm, 3]])
    dist = LogNormal(-0.5, 1.0)
    for alpha in (1.0, 0.6):
        ev = expected_values(build_network(L, alpha, alpha), FactorModel(maps, dist))
        q_star = ev.thresholds.q_star
        assert abs(q_star[0] - q_star[1]) < 1e-12 and q_star[2] > q_star[0]
        model2 = FactorModel([maps[i] for i in perm], dist)
        ev2 = expected_values(build_network(L2, alpha, alpha), model2)
        order, order2 = list(ev.thresholds.order), list(perm[ev2.thresholds.order])
        assert order[0] == order2[0] == 2 and order[1:] == order2[:0:-1]
        inv = np.argsort(perm)
        for field in ("pd", "EV", "Ep", "EE"):
            assert np.allclose(getattr(ev2, field)[inv], getattr(ev, field), atol=1e-10)


def test_sorting_invariance():
    rng = np.random.default_rng(17)
    net = random_net(rng, n=4, alpha=1.0)
    slopes = rng.uniform(0.5, 3.0, 4)
    dist = LogNormal(-0.3, 0.8)
    model = FactorModel([AffineMap(0.0, s) for s in slopes], dist)
    ev = expected_values(net, model)

    perm = np.array([2, 0, 3, 1])
    L2 = np.empty_like(net.L)
    L2[:, :4] = net.L[np.ix_(perm, perm)]
    L2[:, 4] = net.L[perm, 4]
    net2 = build_network(L2, 1.0, 1.0)
    model2 = FactorModel([AffineMap(0.0, s) for s in slopes[perm]], dist)
    ev2 = expected_values(net2, model2)
    for field in ("pd", "EV", "Ep", "EE"):
        assert np.allclose(getattr(ev, field)[perm], getattr(ev2, field), atol=1e-10)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_identity_random_models(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, alpha=1.0 if seed % 2 else 0.5)
    slopes = rng.uniform(0.2, 3.0, net.n)
    shifts = rng.uniform(0.0, 1.0, net.n)
    model = FactorModel(
        [AffineMap(float(a), float(b)) for a, b in zip(shifts, slopes)],
        LogNormal(float(rng.uniform(-1, 0.5)), float(rng.uniform(0.2, 1.5))),
    )
    ev = expected_values(net, model)
    assert np.allclose(ev.EV, ev.EE + ev.Ep - net.p_bar, atol=1e-10)
    assert np.all((ev.pd >= -1e-15) & (ev.pd <= 1.0 + 1e-15))
    assert np.all(ev.Ep <= net.p_bar + 1e-10)
    assert np.all(ev.EE >= -1e-12)


# ---------------------------------------------------------------------------
# agreement with the parent implementation

PINNED_L4 = [
    [0.0, 0.6, 0.0, 0.9, 1.2], [0.4, 0.0, 0.7, 0.0, 0.8],
    [0.0, 0.5, 0.0, 0.3, 1.5], [0.8, 0.0, 0.2, 0.0, 0.6],
]
PINNED_L2 = [[0.0, 7.0, 3.0], [3.0, 0.0, 3.0]]


def _pinned_tabulated():
    return TabulatedMap([0.0, 0.5, 1.5, 4.0], [0.3, 0.9, 1.6, 2.4])


def _pinned_models():
    power = [PowerMap(1.4, 0.5, 0.1), PowerMap(0.9, 1.0), PowerMap(0.6, 2.0)]
    affine = [AffineMap(0.1, 1.1), AffineMap(0.0, 1.6), AffineMap(0.3, 0.7), AffineMap(0.05, 1.3)]
    mixed = [_pinned_tabulated(), power[0], AffineMap(0.2, 0.9), power[2]]
    dist = LogNormal(-0.2, 0.6)
    return {
        "lognormal-mixed": FactorModel(mixed, dist),
        "lognormal-power": FactorModel(power + [PowerMap(0.8, 0.37, 0.3)], dist),
        "pointmass-affine": FactorModel(
            affine, PointMass([0.2, 0.7, 1.1, 1.9], [0.1, 0.3, 0.4, 0.2])
        ),
        "uniform-affine": FactorModel(affine, Uniform01()),
    }


# repr floats captured before the comonotonic layer moved to one evaluation
# path per quantity: ("ev", model, alpha) -> order, pd, EV, Ep, EE, q_star;
# ("pe", law, map) -> (prob, pe) on [0.3, 0.95), [0, inf), [0.8, inf);
# ("capm", net, alpha, side) -> price, cap with per-bank beta.  The lognormal
# tabulated-map entries come from the quadrature in log q, which keeps the
# unbounded top interval; the "ev" and "capm" entries were taken again when the
# sweep moved to the bordered coupled block, which moves their last bits, and
# the lognormal "ev" pd rows again when prob_below stopped computing 1 - S
PARENT_VALUES = {
    ('ev', 'lognormal-mixed', 1.0): [
        [2, 0, 3, 1],
        [0.7264921588893428, 0.3157211694528427, 0.7355201524737645, 0.5689900586854619],
        [-0.4611820941813657, 0.42487555945603306, -0.2958587166387059, 0.6787984337633821],
        [2.1390443354904063, 1.7766421635372924, 1.7668530859784304, 1.2394806484252479],
        [0.09977357032822845, 0.5482333959187408, 0.2372881973828636, 1.0393177853381343],
        [1.3053766214511948, 0.5646369800334259, 1.3333333333, 0.9367185860362557],
    ],
    ('ev', 'lognormal-mixed', 0.7): [
        [2, 0, 3, 1],
        [0.7264921588893428, 0.4838972431588045, 0.7355201524737645, 0.670375804641906],
        [-1.0583016771155607, -0.011212646688457395, -0.7590810565912983, 0.2725283357390992],
        [1.541924752556211, 1.4535489705481734, 1.3036307460258378, 0.8699552201879742],
        [0.09977357032822845, 0.4352383827633693, 0.2372881973828636, 1.002573115551125],
        [1.3053766214511948, 0.7935219917407387, 1.3333333333, 1.1520687758610073],
    ],
    ('ev', 'lognormal-power', 1.0): [
        [2, 1, 0, 3],
        [0.6105202859914544, 0.6320701034152418, 0.7896268902662993, 0.16656818421521496],
        [-0.1448289187644838, -0.09171931802331793, -0.23385713436909888, 0.4342388236396908],
        [2.3598883924377443, 1.4515493568821163, 1.330353179545418, 1.5682957322097575],
        [0.19528268879777197, 0.3567313250945658, 0.7357896860854829, 0.4659430914299334],
        [1.0175626205888513, 1.0632213181832486, 1.5275252316901329, 0.38686986840611004],
    ],
    ('ev', 'lognormal-power', 0.7): [
        [2, 1, 0, 3],
        [0.6721949204383015, 0.6721949204383015, 0.7896268902662993, 0.426929879149025],
        [-0.7392085937392938, -0.4947851993322621, -0.6108271296696343, 0.024074833333322554],
        [1.7689500203299768, 1.065687554030819, 0.9533831842448826, 1.299612771645094],
        [0.19184138593072952, 0.3395272466369189, 0.7357896860854829, 0.32446206168822855],
        [1.1565671536613333, 1.1565671536613333, 1.5275252316901329, 0.7098670727960331],
    ],
    ('ev', 'pointmass-affine', 1.0): [
        [2, 0, 1, 3],
        [0.8, 0.1, 0.8, 0.1],
        [-0.31718804432082415, 0.6770951638615359, -0.4220589120423143, 0.8022194894527566],
        [2.244811955679176, 1.77646231361999, 1.8319410879576854, 1.507639779307829],
        [0.13799999999999996, 0.800632850241546, 0.04600000000000004, 0.8945797101449275],
        [1.2727272727272725, 0.6762642148560367, 1.5714285714285714, 0.5635076737541816],
    ],
    ('ev', 'pointmass-affine', 0.7): [
        [2, 0, 1, 3],
        [0.8, 0.4, 0.8, 0.4],
        [-0.9409837970498331, 0.2733290496958869, -0.921684077712597, 0.3830476982305553],
        [1.6210162029501671, 1.5052382284398482, 1.3323159222874028, 1.3008332054769323],
        [0.13799999999999996, 0.6680908212560388, 0.04600000000000004, 0.6822144927536231],
        [1.2727272727272725, 0.8069570586873183, 1.5714285714285714, 0.7376618904684826],
    ],
    ('ev', 'uniform-affine', 1.0): [
        [2, 0, 1, 3],
        [1.0, 0.6762642148560367, 1.0, 0.5635076737541816],
        [-1.1752380813527936, -0.48216685479457844, -1.0166130488944287, -0.22434772914730597],
        [1.5247619186472066, 1.3132054929052712, 1.283386951105571, 1.19659520870272],
        [0.0, 0.10462765230015053, 0.0, 0.17905706214997405],
        [1.2727272727272725, 0.6762642148560367, 1.5714285714285714, 0.5635076737541816],
    ],
    ('ev', 'uniform-affine', 0.7): [
        [2, 0, 1, 3],
        [1.0, 0.8069570586873183, 1.0, 0.7376618904684826],
        [-1.8170737727461297, -0.9663781221036227, -1.5393725149686173, -0.6884213448085645],
        [0.8829262272538705, 0.8986363419381878, 0.7606274850313826, 0.8442731669769342],
        [0.0, 0.034985535958189595, 0.0, 0.06730548821450136],
        [1.2727272727272725, 0.8069570586873183, 1.5714285714285714, 0.7376618904684826],
    ],
    ('pe', 'lognormal', 'affine'): [
        [0.4534311837466316, 0.5268228050755024],
        [1.0, 1.8367221934983418],
        [0.4657617780757588, 1.3221748768501331],
    ],
    ('pe', 'lognormal', 'power'): [
        [0.4534311837466316, 0.3849085205350955],
        [1.0, 0.956249786981705],
        [0.4657617780757588, 0.5444638002557978],
    ],
    ('pe', 'lognormal', 'tabulated'): [
        [0.4534311837466316, 0.4387181973407652],
        [1.0, 1.204247622468148],
        [0.4657617780757588, 0.7684736548194424],
    ],
    ('pe', 'pointmass', 'affine'): [
        [0.4, 0.6280000000000001],
        [1.0, 2.337],
        [0.8999999999999999, 2.2710000000000004],
    ],
    ('pe', 'pointmass', 'power'): [
        [0.4, 0.38776533862248147],
        [1.0, 1.0841774475527408],
        [0.8999999999999999, 1.0200741476635233],
    ],
    ('pe', 'pointmass', 'tabulated'): [
        [0.4, 0.49321061381621156],
        [1.0, 1.4999555950063654],
        [0.8999999999999999, 1.4433676431991365],
    ],
    ('pe', 'uniform', 'affine'): [
        [0.6499999999999999, 0.788125],
        [1.0, 1.05],
        [0.19999999999999996, 0.31399999999999995],
    ],
    # the closed form: each value within 2 ulp of a 40-digit quadrature
    ('pe', 'uniform', 'power'): [
        [0.6499999999999999, 0.562107128459957],
        [1.0, 0.7839416058394162],
        [0.19999999999999996, 0.1938086663426336],
    ],
    ('pe', 'uniform', 'tabulated'): [
        [0.6499999999999999, 0.6511103350804729],
        [1.0, 0.8652241856974248],
        [0.19999999999999996, 0.24646137781896818],
    ],
    ('capm', 'two', 1.0, 'lower'): [
        [0.4919673329069584, 0.6935048159735864],
        [0.16084111885117514, 3.282742434507192],
    ],
    ('capm', 'two', 1.0, 'upper'): [
        [0.5327511595522941, 0.7775560820549118],
        [0.00515665064179238, 3.0639216245365906],
    ],
    ('capm', 'two', 0.6, 'lower'): [
        [0.27423469006003354, 0.443523620056487],
        [0.16084111885117514, 2.6617132680265567],
    ],
    ('capm', 'two', 0.6, 'upper'): [
        [0.27006711449361165, 0.48869844793303546],
        [0.00515665064179238, 2.2795160086953135],
    ],
    ('capm', 'four', 1.0, 'lower'): [
        [0.8851748347845814, 0.9042227930349721, 0.7851791710055377, 0.8729172771329027],
        [1.6700508850019415, 3.2056711796070707, 1.501627317238325, 3.135543459195141],
    ],
    ('capm', 'four', 1.0, 'upper'): [
        [0.936250788902078, 0.9358776896521971, 0.8340960683516331, 0.9159259042399915],
        [1.5792146692172608, 3.20063089717789, 1.4198786063957811, 3.1273730837333744],
    ],
    ('capm', 'four', 0.6, 'lower'): [
        [0.7892754844191724, 0.8263168856604594, 0.6445781373385587, 0.7676879552995741],
        [1.6675503064922554, 3.133654139252334, 1.501627317238325, 3.1118796403057005],
    ],
    ('capm', 'four', 0.6, 'upper'): [
        [0.8960384967030692, 0.9006870699116801, 0.7091447477231383, 0.8361758423906338],
        [1.5413191939868802, 3.137872872819369, 1.4198786063957811, 3.104191797749044],
    ],
}


@pytest.mark.parametrize("key", list(PARENT_VALUES), ids=lambda k: "-".join(map(str, k)))
def test_comonotonic_values_match_parent(key):
    want = PARENT_VALUES[key]
    if key[0] == "ev":
        _, name, alpha = key
        ev = expected_values(build_network(PINNED_L4, alpha, alpha), _pinned_models()[name])
        got = [ev.thresholds.order.tolist()] + [
            getattr(ev, k).tolist() for k in ("pd", "EV", "Ep", "EE")
        ] + [ev.thresholds.q_star.tolist()]
    elif key[0] == "pe":
        laws = {
            "lognormal": LogNormal(-0.3, 0.8),
            "pointmass": PointMass([0.2, 0.9, 1.7, 3.0], [0.1, 0.4, 0.3, 0.2]),
            "uniform": Uniform01(),
        }
        maps = {
            "affine": AffineMap(0.4, 1.3),
            "power": PowerMap(0.8, 0.37, 0.2),
            "tabulated": _pinned_tabulated(),
        }
        law, f = laws[key[1]], maps[key[2]]
        got = [
            list(map(float, partial_expectation(law, f, a, b)))
            for a, b in ((0.3, 0.95), (0.0, np.inf), (0.8, np.inf))
        ]
    else:
        _, name, alpha, which = key
        L = PINNED_L2 if name == "two" else PINNED_L4
        n = len(L)
        params = CapmParams(
            r=0.03, T=2.0, sigma_M=0.8, beta=np.linspace(0.3, 1.1, n), gamma=[0.4] * n,
            s=[3.0, 4.0, 2.5, 3.5][:n],
        )
        price, cap = price_and_cap(build_network(L, alpha, alpha), params, which, force=True)
        got = [price.tolist(), cap.tolist()]
    assert got == want
