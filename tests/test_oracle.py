import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_cycle, random_corr, random_net
from netval import (
    AffineMap,
    CapmParams,
    FactorModel,
    LogNormal,
    ModelError,
    OracleError,
    PowerMap,
    TabulatedMap,
    build_network,
    classify,
    classify_batch,
    enumerate_regions,
    exact_expectations,
    greatest_clearing,
    greatest_clearing_batch,
    mc_expectations,
    simulate,
    solvency_thresholds,
    thresholds_by_clearing_bisection,
)
from netval.oracle import ScenarioBatch

CAPM_SPEC = {
    "kind": "capm",
    "params": CapmParams(
        r=0.02, T=1.0, sigma_M=0.8, beta=[0.5, 0.75], gamma=[0.4, 0.3], s=[3.0, 4.0]
    ),
}

COPULA_SPEC = {
    "kind": "gaussian-copula-lognormal",
    "mu": [0.0, -0.3, 0.2],
    "sigma": [0.5, 0.8, 0.6],
    "corr": [[1.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.0]],
}

FINITE_SPEC = {
    "kind": "finite-support",
    "atoms": [[0.0, 2.0], [1.0, 0.0]],
    "probs": [0.5, 0.5],
}


def factor_spec():
    model = FactorModel(
        [AffineMap(0.0, 3.0), AffineMap(0.0, 4.0)], LogNormal(-0.5, 1.0)
    )
    return {"kind": "comonotonic-factor", "model": model}


# ---------------------------------------------------------------------------
# default regions


def test_four_regions_two_banks(cycle_full):
    regions = enumerate_regions(cycle_full)
    assert len(regions) == 4
    assert sorted(r.z for r in regions) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_grid_scan_agreement(alpha):
    net = make_cycle(alpha)
    regions = enumerate_regions(net)
    g = np.linspace(0.015, 3.0, 100)
    X = np.array([[a, b] for a in g for b in g])
    from_regions = classify_batch(net, X, regions=regions)
    _, _, _, from_clearing = greatest_clearing_batch(net, X)
    assert np.array_equal(from_regions, from_clearing)


def test_three_random_points_per_region(cycle_full):
    regions = enumerate_regions(cycle_full)
    rng = np.random.default_rng(23)
    seen = {r.z: 0 for r in regions}
    while min(seen.values()) < 3:
        x = rng.uniform(0.0, 4.0, 2)
        z = tuple(int(v) for v in classify(cycle_full, x))
        assert tuple(int(v) for v in greatest_clearing(cycle_full, x).z) == z
        seen[z] += 1


def test_region_disjointness_under_costs(cycle_half):
    regions = enumerate_regions(cycle_half)
    by_z = {r.z: r for r in regions}

    rng = np.random.default_rng(7)
    X = rng.uniform(0.0, 3.0, (2000, 2))

    def member(r):
        inside = r.raw_contains_batch(X)
        for zb in r.excluded:
            inside &= ~member(by_z[zb])
        return inside

    hits = sum(member(r).astype(int) for r in regions)
    assert np.all(hits == 1)


def test_non_convex_region_witness(cycle_half):
    p1 = np.array([0.5, 2.6])
    p2 = np.array([1.56, 1.56])
    mid = (p1 + p2) / 2.0
    assert tuple(classify(cycle_half, p1)) == (1, 1)
    assert tuple(classify(cycle_half, p2)) == (1, 1)
    assert tuple(classify(cycle_half, mid)) == (0, 0)


def test_enumeration_guard():
    n = 13
    L = np.zeros((n, n + 1))
    L[:, n] = 1.0
    net = build_network(L, 1.0, 1.0)
    with pytest.raises(OracleError, match="curse of dimensionality"):
        enumerate_regions(net)


# ---------------------------------------------------------------------------
# simulation


@pytest.mark.parametrize(
    "spec_fn",
    [factor_spec, lambda: CAPM_SPEC, lambda: COPULA_SPEC, lambda: FINITE_SPEC],
)
def test_seed_repeatability(spec_fn):
    spec = spec_fn()
    a = simulate(spec, 500, 42)
    b = simulate(spec, 500, 42)
    c = simulate(spec, 500, 43)
    assert np.array_equal(a.X, b.X)
    assert not np.array_equal(a.X, c.X)


@pytest.mark.parametrize(
    "spec_fn",
    [factor_spec, lambda: CAPM_SPEC, lambda: COPULA_SPEC, lambda: FINITE_SPEC],
)
def test_chunked_equals_unchunked(spec_fn):
    spec = spec_fn()
    full = simulate(spec, 1000, 42).X
    parts = [simulate(spec, 250, 42, path_offset=250 * k).X for k in range(4)]
    assert np.array_equal(np.vstack(parts), full)


def test_uniform_factor_draws_are_the_maps_at_u():
    # a uniform factor is its own quantile: each row is the maps at that path's uniform
    from netval import Uniform01
    from netval.oracle import _KIND_TAGS, _substream_uniforms

    model = FactorModel(
        [AffineMap(0.5, 2.0), PowerMap(3.0, 0.4), TabulatedMap([0.0, 0.3, 1.0], [0.0, 2.0, 2.5])],
        Uniform01(),
    )
    X = simulate({"kind": "comonotonic-factor", "model": model}, 200, 9, path_offset=7).X
    u = _substream_uniforms(9, _KIND_TAGS["comonotonic-factor"], 200, 1, 7)[:, 0]
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.array_equal(X, model.endowments(u))


CAPM_P_SPEC = {
    "kind": "capm",
    "measure": "P",
    "params": CapmParams(
        r=0.02, T=1.0, sigma_M=0.8, beta=[0.5, 0.75], gamma=[0.4, 0.3], s=[3.0, 4.0],
        mu_M=0.07,
    ),
}

# eight banks: numpy's and scipy's Cholesky factors of this matrix differ
# in the last bit (as they do for some matrices from n = 5 on), so the hash
# also pins the factorization
COPULA8_SPEC = {
    "kind": "gaussian-copula-lognormal",
    "mu": [0.0, 0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 0.0],
    "sigma": [0.5] * 8,
    "corr": [
        [1.0, -0.22, 0.08, -0.39, 0.64, 0.54, -0.14, 0.13],
        [-0.22, 1.0, 0.16, 0.31, -0.17, -0.47, -0.2, -0.11],
        [0.08, 0.16, 1.0, -0.18, 0.06, 0.1, -0.09, -0.71],
        [-0.39, 0.31, -0.18, 1.0, -0.32, -0.63, 0.61, 0.04],
        [0.64, -0.17, 0.06, -0.32, 1.0, 0.71, -0.06, 0.14],
        [0.54, -0.47, 0.1, -0.63, 0.71, 1.0, -0.18, 0.02],
        [-0.14, -0.2, -0.09, 0.61, -0.06, -0.18, 1.0, -0.13],
        [0.13, -0.11, -0.71, 0.04, 0.14, 0.02, -0.13, 1.0],
    ],
}


@pytest.mark.parametrize(
    "spec, first_row, digest",
    [
        (
            CAPM_SPEC,
            [1.9922751896135802, 0.7813455694536062],
            "2679d794f3c24b301c1fde2a8b6138cac0bbdbcd93dca15e9a6223b8743bce17",
        ),
        (
            CAPM_P_SPEC,
            [2.042709876156477, 0.8112023440734644],
            "c49db38391e49d9ae06dc08d306300d7eb166b4edff6984f5adf855cbc3282a8",
        ),
        (
            COPULA8_SPEC,
            [3.145499103123026, 0.8718533944887854, 1.2517254669587257,
             0.6370306100698169, 2.022242656495699, 2.962596152130064,
             0.40694580295504446, 1.303566817923456],
            "4711a5e5408312b8e60a626c64ffd912a077d3c846a52cf3948a3aacc3a282a7",
        ),
    ],
    ids=["capm-Q", "capm-P", "copula-8"],
)
def test_draws_pinned(spec, first_row, digest):
    X = simulate(spec, 1000, 2024, path_offset=5).X
    assert X[0].tolist() == first_row
    assert hashlib.sha256(X.tobytes()).hexdigest() == digest


def test_capm_discounted_mean_is_martingale():
    spec = CAPM_SPEC
    params = spec["params"]
    batch = simulate(spec, 400_000, 2024)
    disc = np.exp(-params.r * params.T)
    mean = disc * batch.X.mean(axis=0)
    se = disc * batch.X.std(axis=0, ddof=1) / np.sqrt(batch.X.shape[0])
    target = params.s * params.q0
    assert np.all(np.abs(mean - target) <= 3.0 * se)


def test_capm_physical_measure_needs_mu_M():
    spec = dict(CAPM_SPEC)
    spec["measure"] = "P"
    with pytest.raises(OracleError, match="mu_M"):
        simulate(spec, 10, 0)


def test_unknown_kind_rejected():
    with pytest.raises(OracleError, match="unknown scenario kind"):
        simulate({"kind": "bootstrap"}, 10, 0)


def test_empty_batch_rejected():
    with pytest.raises(OracleError):
        simulate(factor_spec(), 0, 0)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_finite_support_rejects_bad_atoms(bad):
    spec = {"kind": "finite-support", "atoms": [[bad, 2.0], [3.0, 4.0]], "probs": [0.5, 0.5]}
    with pytest.raises(OracleError, match="nonnegative and finite"):
        simulate(spec, 10, 0)


def _copula_with(key, row, col, value):
    spec = {k: np.array(v, dtype=float) for k, v in COPULA_SPEC.items() if k != "kind"}
    if key == "corr":
        spec[key][row, col] = value
    else:
        spec[key][row] = value
    return {"kind": COPULA_SPEC["kind"], **spec}


@pytest.mark.parametrize(
    "key, row, col, value, match",
    [
        ("mu", 1, None, np.nan, "must be finite"),
        ("mu", 0, None, -np.inf, "must be finite"),
        ("sigma", 2, None, np.inf, "must be finite"),
        ("sigma", 0, None, np.nan, "must be finite"),
        ("corr", 1, 2, np.nan, "must be finite"),
        ("corr", 0, 0, np.inf, "must be finite"),
        # one triangle alone would be factored without a word
        ("corr", 0, 2, 0.1 + 1e-9, "not symmetric"),
        ("corr", 2, 1, 0.2, "not symmetric"),
    ],
    ids=["mu-nan", "mu-neg-inf", "sigma-inf", "sigma-nan", "corr-nan", "corr-inf",
         "corr-upper-off", "corr-lower-off"],
)
def test_copula_rejects_bad_inputs(key, row, col, value, match):
    with pytest.raises(OracleError, match=match):
        simulate(_copula_with(key, row, col, value), 10, 0)


def test_copula_accepts_rounding_asymmetry():
    # relative 1e-12 is the tolerance: a last-bit asymmetry passes, and
    # the factor reads the lower triangle
    spec = _copula_with("corr", 0, 1, np.nextafter(0.3, 1.0))
    assert np.array_equal(simulate(spec, 50, 7).X, simulate(COPULA_SPEC, 50, 7).X)


def test_copula_rejects_indefinite_corr():
    spec = _copula_with("corr", 0, 1, 1.5)
    spec["corr"][1, 0] = 1.5
    with pytest.raises(OracleError, match="not positive definite"):
        simulate(spec, 10, 0)


# ---------------------------------------------------------------------------
# expectation estimators


def test_point_mass_batch_equals_clearing(two_bank):
    spec = {"kind": "finite-support", "atoms": [[3.0, 4.0]], "probs": [1.0]}
    batch = simulate(spec, 100, 0)
    est = mc_expectations(two_bank, batch)
    res = greatest_clearing(two_bank, [3.0, 4.0])
    assert np.allclose(est.Ep, res.p, atol=1e-12)
    assert np.allclose(est.EV, res.V, atol=1e-12)
    assert np.allclose(est.se_Ep, 0.0, atol=1e-12)


def test_exact_two_point_law_formula(cycle_half):
    ax = aL = 0.5
    den = 6.0 - aL**2
    expected = np.array([ax * (2.0 * aL + 3.0) / den, 3.0 * ax * (aL + 4.0) / (2.0 * den)])
    exact = exact_expectations(
        cycle_half, np.array([[0.0, 2.0], [1.0, 0.0]]), np.array([0.5, 0.5])
    )
    assert np.allclose(exact.Ep, expected, atol=1e-12)


def test_exact_expectations_rejects_negative_atom(two_bank):
    with pytest.raises(ValueError, match="nonnegative and finite"):
        exact_expectations(two_bank, np.array([[-1.0, 2.0], [3.0, 4.0]]), np.array([0.5, 0.5]))


def test_se_scaling_rate(two_bank):
    spec = factor_spec()
    small = mc_expectations(two_bank, simulate(spec, 10_000, 5))
    large = mc_expectations(two_bank, simulate(spec, 1_000_000, 5))
    ratio = small.se_Ep / large.se_Ep
    assert np.all(ratio >= 8.0) and np.all(ratio <= 12.5)


def _fsum_mean_se(col):
    # exactly rounded sums: the mean and the standard error of a column,
    # which is 0 for a single path
    m = col.size
    mean = math.fsum(col) / m
    if m == 1:
        return mean, 0.0
    return mean, math.sqrt(math.fsum((col - mean) ** 2) / (m - 1)) / math.sqrt(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4_999, 30_011])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_mc_statistics_match_fsum(m, alpha):
    rng = np.random.default_rng(m)
    net = random_net(rng, n=5, alpha=alpha)
    X = rng.uniform(0.0, 3.0, (m, net.n))
    est = mc_expectations(net, ScenarioBatch(X=X, spec={}, seed=0))
    V, p, E, Z = greatest_clearing_batch(net, X)
    assert np.array_equal(est.pd, Z.sum(axis=0) / m)
    for mean, se, A in [
        (est.pd, est.se_pd, Z),
        (est.EV, est.se_EV, V),
        (est.Ep, est.se_Ep, p),
        (est.EE, est.se_EE, E),
        ([est.E_soc], [est.se_soc], (p @ net.pi_soc)[:, None]),
    ]:
        for i in range(A.shape[1]):
            col = A[:, i].astype(float)
            want, want_se = _fsum_mean_se(col)
            # relative to the mean absolute value, which is |mean| unless
            # the column changes sign
            assert abs(mean[i] - want) <= 2e-15 * math.fsum(np.abs(col)) / m
            assert abs(se[i] - want_se) <= 1e-12 * want_se


def test_bisection_oracle_matches_closed_form(two_bank):
    # at shift 20 bank 2 is solvent at q = 0: threshold 0, as in the sweep
    for shift in (0.0, 20.0):
        model = FactorModel(
            [AffineMap(0.0, 3.0), AffineMap(shift, 4.0)], LogNormal(-0.5, 1.0)
        )
        analytic = solvency_thresholds(two_bank, model)
        oracle = thresholds_by_clearing_bisection(two_bank, model)
        assert np.allclose(analytic.q_star, oracle, rtol=1e-9)
        assert (oracle[1] == 0.0) == (shift > 0.0) and oracle[0] > 0.0


def test_bisection_oracle_never_solvent_or_unbracketed(two_bank):
    # maps saturating below every target leave the wealth flat after 200
    # doublings: never solvent; maps still rising there have no bracket
    flat = TabulatedMap([0.0, 1.0], [0.0, 1.0])
    saturating = FactorModel([flat, flat], LogNormal(0.0, 1.0))
    assert np.all(np.isinf(thresholds_by_clearing_bisection(two_bank, saturating)))
    rising = FactorModel([PowerMap(0.1, 1e-3), PowerMap(0.1, 2e-3)], LogNormal(0.0, 1.0))
    with pytest.raises(ModelError, match="no solvency bracket after 200 doublings"):
        thresholds_by_clearing_bisection(two_bank, rising)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_region_classification_random_nets(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, n=3, alpha=0.5 if seed % 2 else 1.0)
    regions = enumerate_regions(net)
    X = rng.uniform(0.0, 4.0, (300, 3))
    from_regions = classify_batch(net, X, regions=regions)
    _, _, _, from_clearing = greatest_clearing_batch(net, X)
    assert np.array_equal(from_regions, from_clearing)
