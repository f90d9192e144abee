import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_two_bank, random_net
from netval import (
    AffineMap,
    Empirical,
    FactorModel,
    LogNormal,
    ModelError,
    PointMass,
    PowerMap,
    SolvencyThresholds,
    TabulatedMap,
    Uniform01,
    build_network,
    delta_matrix,
    delta_vector,
    exact_expectations,
    expected_values,
    greatest_clearing,
    mc_expectations,
    partial_expectation,
    simulate,
    solvency_thresholds,
)
from netval.comonotonic import norm_cdf


# ---------------------------------------------------------------------------
# partial_expectation


def test_pe_full_mass_unit_mean():
    dist = LogNormal(-0.5, 1.0)
    prob, pe = partial_expectation(dist, AffineMap(0.0, 1.0), 0.0, np.inf)
    assert abs(prob - 1.0) < 1e-12
    assert abs(pe - 1.0) < 1e-12


def test_pe_empty_interval():
    f = AffineMap(0.0, 1.0)
    for dist in (LogNormal(-0.5, 1.0), Uniform01(), PointMass([1.0], [1.0])):
        prob, pe = partial_expectation(dist, f, 0.7, 0.7)
        assert prob == 0.0 and pe == 0.0


def test_pe_truncated_lognormal_closed_form():
    # cutoff sqrt(e) puts the probability at Phi(-1) and the partial mean at 1/2
    dist = LogNormal(-0.5, 1.0)
    prob, pe = partial_expectation(dist, AffineMap(0.0, 1.0), math.sqrt(math.e), np.inf)
    assert abs(prob - norm_cdf(-1.0)) < 1e-13
    assert abs(prob - 0.15866) < 1e-5
    assert abs(pe - 0.5) < 1e-12


def test_norm_cdf_matches_scipy_erfc():
    from scipy.special import erfc

    x = np.linspace(-38.0, 38.0, 200_001)
    ref = 0.5 * erfc(-x / math.sqrt(2.0))
    got = norm_cdf(x)
    assert got.shape == x.shape
    assert all(norm_cdf(v) == g for v, g in zip(x[::5000], got[::5000]))
    # below the smallest normal float (x < -37.5) only absolute agreement
    # is meaningful; scipy already rounds Phi(-38) ~ 2.9e-316 to zero
    normal = ref >= np.finfo(float).tiny
    assert np.all(np.abs(got - ref)[normal] <= 1e-13 * ref[normal])
    assert np.all(np.abs(got - ref)[~normal] <= np.finfo(float).tiny)


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
    mu=st.floats(-1.0, 1.0),
    sig2=st.floats(0.1, 2.0),
    coef=st.floats(0.1, 3.0),
    expo=st.floats(0.0, 2.0),
    a=st.floats(0.1, 2.0),
    width=st.floats(0.1, 3.0),
)
@settings(max_examples=40)
def test_pe_closed_form_matches_quadrature(mu, sig2, coef, expo, a, width):
    dist = LogNormal(mu, sig2)
    fast = partial_expectation(dist, PowerMap(coef, expo), a, a + width)

    class Wrapped:
        def __init__(self, f):
            self._f = f

        def __call__(self, q):
            return self._f(q)

    slow = partial_expectation(dist, Wrapped(PowerMap(coef, expo)), a, a + width)
    assert abs(fast[0] - slow[0]) < 1e-9
    assert abs(fast[1] - slow[1]) < 1e-9


def test_uniform_affine_closed_form():
    prob, pe = partial_expectation(Uniform01(), AffineMap(1.0, 2.0), 0.25, 0.75)
    assert abs(prob - 0.5) < 1e-14
    assert abs(pe - 0.5 * (1.0 + 2.0 * 0.5)) < 1e-12


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


def test_tabulated_map_rejects_decreasing():
    with pytest.raises(ModelError):
        TabulatedMap([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])


def test_factor_model_rejects_decreasing_map():
    with pytest.raises(ModelError):
        FactorModel([AffineMap(1.0, -0.5)], LogNormal(0.0, 1.0))


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


def test_ladder_matches_delta_at_each_step(two_bank):
    th = solvency_thresholds(two_bank, bench_model())
    z = np.zeros(2)
    for k in range(3):
        D, d = th.ladder[k]
        assert np.allclose(D, delta_matrix(two_bank, z), atol=1e-12)
        assert np.allclose(d, delta_vector(two_bank, z), atol=1e-12)
        if k < 2:
            z[th.order[k]] = 1.0


def test_sentinels_and_positions(two_bank):
    th = solvency_thresholds(two_bank, bench_model())
    qs = th.sorted_with_sentinels()
    assert qs[0] == np.inf and qs[-1] == 0.0
    assert np.all(np.diff(qs) <= 0.0)
    assert list(th.position()) == [1, 2]


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
    ev = expected_values(net, model, thresholds=th)
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
    ev_tab = expected_values(net, tab, thresholds=th_tab)
    assert np.allclose(ev_tab.pd, ev.pd, atol=1e-9)
    assert np.allclose(ev_tab.Ep, ev.Ep, atol=1e-9)


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
    model = bench_model()
    ev = expected_values(two_bank, model)
    batch = simulate({"kind": "comonotonic-factor", "model": model}, 200_000, 42)
    mc = mc_expectations(two_bank, batch)
    for field in ("pd", "EV", "Ep", "EE"):
        a = getattr(ev, field)
        m = getattr(mc, field)
        se = getattr(mc, "se_" + field)
        assert np.all(np.abs(a - m) <= 4.0 * se + 1e-12), field


def test_tied_thresholds_swap_invariance():
    net = build_network([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], 1.0, 1.0)
    model = FactorModel(
        [AffineMap(0.0, 2.0), AffineMap(0.0, 2.0)], LogNormal(-0.5, 1.0)
    )
    th = solvency_thresholds(net, model)
    assert abs(th.q_star[0] - th.q_star[1]) < 1e-12
    order2 = np.array([th.order[1], th.order[0]])
    ladder2 = []
    z = np.zeros(2)
    for k in range(3):
        ladder2.append((delta_matrix(net, z), delta_vector(net, z)))
        if k < 2:
            z[order2[k]] = 1.0
    swapped = SolvencyThresholds(q_star=th.q_star, order=order2, ladder=tuple(ladder2))
    a = expected_values(net, model, thresholds=th)
    b = expected_values(net, model, thresholds=swapped)
    assert np.allclose(a.EV, b.EV, atol=1e-10)
    assert np.allclose(a.Ep, b.Ep, atol=1e-10)
    assert np.allclose(a.EE, b.EE, atol=1e-10)


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
