"""End-to-end acceptance checks, one test per criterion.

Each test carries its own wall-clock budget and the tolerances it must
meet, so a verbose run gives one pass/fail line per criterion.
"""

import csv
import importlib.resources
import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from netval import (
    AffineMap,
    CalibrationError,
    CapmParams,
    FactorModel,
    LogNormal,
    MarginalSet,
    build_network,
    calibrated_network,
    classify_batch,
    comonotonic_lower,
    debt_price_bound,
    effective_rate,
    enumerate_regions,
    exact_expectations,
    expected_values,
    greatest_clearing,
    greatest_clearing_batch,
    jensen_upper,
    market_cap,
    mc_expectations,
    merton_baseline,
    ratio_via_assets,
    ratio_via_liabilities,
    read_balance_sheets_csv,
    read_network_csv,
    simulate,
    solvency_thresholds,
    thresholds_by_clearing_bisection,
    write_network_csv,
)

from helpers import make_cycle, make_two_bank, random_corr, random_net

FIXTURE = importlib.resources.files("netval") / "data" / "synthetic_sheets_87.csv"


def elapsed_under(t0, budget):
    dt = time.monotonic() - t0
    assert dt < budget, f"runtime {dt:.2f}s exceeds {budget}s budget"


def bench_params(**kw):
    base = dict(
        r=0.0, T=1.0, sigma_M=1.0, beta=[1.0, 1.0], gamma=[0.0, 0.0], s=[3.0, 4.0]
    )
    base.update(kw)
    return CapmParams(**base)


def rates_for(net, params, which="lower", force=False):
    price = debt_price_bound(net, params, which, force=force)
    return effective_rate(price * net.p_bar, net.p_bar, params.T)


def test_criterion_1_payment_fixtures():
    t0 = time.monotonic()
    X_atoms = np.array([[0.0, 2.0], [1.0, 0.0]])
    Z_atoms = np.array([[0.0, 0.0], [1.0, 2.0]])
    half = np.array([0.5, 0.5])
    expectations = {}
    for a in (1.0, 0.5):
        net = make_cycle(a)
        ax = al = a
        denom = 6.0 - al**2
        # the societal node never pays, so only bank components are checked
        cases = {
            (0.0, 2.0): (4.0 * ax * al / denom, 12.0 * ax / denom),
            (1.0, 0.0): (6.0 * ax / denom, 3.0 * ax * al / denom),
            (1.0, 2.0): (2.0, 3.0),
            (0.0, 0.0): (0.0, 0.0),
        }
        for x, want in cases.items():
            res = greatest_clearing(net, np.array(x))
            assert np.allclose(res.p, want, atol=1e-12), (a, x)
        ex = exact_expectations(net, X_atoms, half)
        ez = exact_expectations(net, Z_atoms, half)
        want_x = (ax * (2.0 * al + 3.0) / denom, 3.0 * ax * (al + 4.0) / (2.0 * denom))
        assert np.allclose(ex.Ep, want_x, atol=1e-12)
        assert np.allclose(ez.Ep, [1.0, 1.5], atol=1e-12)
        expectations[a] = (ex.Ep, ez.Ep)
    # recovery costs flip the comonotonic coupling from floor to ceiling
    ex_half, ez_half = expectations[0.5]
    assert np.all(ez_half > ex_half + 1e-12)
    # without costs the payment map is linear on the default region that
    # holds both atoms, so Jensen's inequality binds with equality
    ex_full, _ = expectations[1.0]
    at_mean = greatest_clearing(make_cycle(1.0), X_atoms.mean(axis=0))
    assert np.allclose(at_mean.p, ex_full, atol=1e-12)
    elapsed_under(t0, 1.0)


def test_criterion_2_equity_non_comparability():
    eps = 0.1
    net = make_cycle(1.0)
    X_atoms = np.array([[1.0 + eps, 2.0], [2.0, 1.0 + eps]])
    Z_atoms = np.array([[1.0 + eps, 1.0 + eps], [2.0, 2.0]])
    half = np.array([0.5, 0.5])
    ex = exact_expectations(net, X_atoms, half)
    ez = exact_expectations(net, Z_atoms, half)
    assert np.allclose(ex.EE, [(1.0 + 2.0 * eps) / 3.0, 0.0], atol=1e-12)
    assert np.allclose(ez.EE, [0.5, 0.0], atol=1e-12)
    assert abs(ex.E_soc - (8.0 + eps) / 3.0) < 1e-12
    assert abs(ez.E_soc - (2.5 + eps)) < 1e-12
    # neither coupling dominates in equity: bank 1 and society disagree
    assert ex.EE[0] < ez.EE[0]
    assert ex.E_soc > ez.E_soc


def test_criterion_3_sandwich_property():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260819)
    fails = 0
    comps = 0
    for k in range(200):
        net = random_net(rng, alpha=1.0)
        n = net.n
        mu = rng.uniform(-0.5, 0.5, n)
        s2 = rng.uniform(0.25, 1.5, n)
        spec = {
            "kind": "gaussian-copula-lognormal",
            "mu": mu,
            "sigma": np.sqrt(s2),
            "corr": random_corr(rng, n),
        }
        mc = mc_expectations(net, simulate(spec, 100_000, seed=3000 + k))
        marg = MarginalSet([LogNormal(float(m), float(v)) for m, v in zip(mu, s2)])
        lo = comonotonic_lower(net, marg)
        hi = jensen_upper(net, marg.means())
        bad = (mc.Ep < lo.Ep - 3.0 * mc.se_Ep - 1e-9) | (
            mc.Ep > hi.Ep + 3.0 * mc.se_Ep + 1e-9
        )
        fails += int(bad.sum())
        comps += n
    assert fails <= 0.01 * comps, f"{fails} of {comps} components escaped the sandwich"
    elapsed_under(t0, 120.0)


def test_criterion_4_ladder_vs_oracle():
    t0 = time.monotonic()
    net = make_two_bank()
    model = FactorModel([AffineMap(0.0, 3.0), AffineMap(0.0, 4.0)], LogNormal(-0.5, 1.0))
    ev = expected_values(net, model)
    mc = mc_expectations(
        net, simulate({"kind": "comonotonic-factor", "model": model}, 1_000_000, seed=42)
    )
    for name, got, est, se in (
        ("pd", ev.pd, mc.pd, mc.se_pd),
        ("Ep", ev.Ep, mc.Ep, mc.se_Ep),
        ("EE", ev.EE, mc.EE, mc.se_EE),
        ("EV", ev.EV, mc.EV, mc.se_EV),
    ):
        assert np.all(np.abs(got - est) <= 3.0 * se + 1e-12), name
    th = solvency_thresholds(net, model)
    assert np.allclose(th.q_star, [7.0 / 3.0, 39.0 / 61.0], atol=1e-9)
    oracle = thresholds_by_clearing_bisection(net, model)
    assert np.allclose(oracle, [7.0 / 3.0, 39.0 / 61.0], atol=1e-9)
    elapsed_under(t0, 30.0)


def test_criterion_5_beta_sweep():
    t0 = time.monotonic()
    net = make_two_bank()
    betas = [0.0, 0.25, 0.5, 0.75, 1.0]
    lows, jens, q1, q2 = [], [], [], []
    for b in betas:
        g = float(np.sqrt(1.0 - b * b))
        params = bench_params(beta=[b, b], gamma=[g, g])
        lows.append(debt_price_bound(net, params, "lower"))
        mean_x = params.s * params.q0 * np.exp(params.r * params.T)
        jens.append(jensen_upper(net, mean_x).Ep / net.p_bar)
        from netval import capm_thresholds

        th = capm_thresholds(net, params, "upper")
        q1.append(float(th.q_star[0]))
        q2.append(float(th.q_star[1]))
    assert np.max(np.ptp(np.array(lows), axis=0)) <= 1e-12
    assert np.max(np.ptp(np.array(jens), axis=0)) <= 1e-12
    upper_full = debt_price_bound(net, bench_params(), "upper")
    assert np.max(np.abs(upper_full - lows[0])) <= 1e-9
    assert all(a > b for a, b in zip(q1, q1[1:])), q1
    assert all(a < b for a, b in zip(q2, q2[1:])), q2
    elapsed_under(t0, 5.0)


def test_criterion_6_rate_comparative_statics():
    t0 = time.monotonic()
    net = make_two_bank()
    for T in np.arange(0.25, 5.0 + 1e-9, 0.25):
        params = bench_params(T=float(T))
        full = rates_for(net, params)
        price, _ = merton_baseline(net, params, "riskfree_interbank")
        base = effective_rate(price * net.p_bar, net.p_bar, params.T)
        assert np.all(full >= base - 1e-12), f"T={T}"

    d1_grid = np.round(np.arange(0.2, 3.0 + 1e-9, 0.2), 10)
    d2_grid = [0.2, 0.4, 0.6, 0.8]
    for d2 in d2_grid:
        rates = []
        for d1 in d1_grid:
            s = ratio_via_assets(net, [float(d1), float(d2)])
            rates.append(float(rates_for(net, bench_params(s=list(s)))[1]))
        assert np.all(np.diff(rates) >= -1e-10), f"assets route not monotone at d2={d2}"

    non_monotone = False
    for d2 in d2_grid:
        rates = []
        for d1 in d1_grid:
            try:
                net2 = ratio_via_liabilities(net, [float(d1), float(d2)], [3.0, 4.0])
            except CalibrationError:
                continue
            rates.append(float(rates_for(net2, bench_params())[1]))
        diffs = np.diff(rates)
        if np.any(diffs < -1e-10) and np.any(diffs > 1e-10):
            non_monotone = True
    assert non_monotone, "liabilities route stayed monotone on the whole grid"
    elapsed_under(t0, 60.0)


def test_criterion_7_scale_and_alpha_sweep(tmp_path):
    sheets = read_balance_sheets_csv(str(FIXTURE))
    net, calib = calibrated_network(sheets, seed=3)
    model = FactorModel(
        [AffineMap(0.0, float(si)) for si in calib.s], LogNormal(-0.5, 1.0)
    )
    params = dict(
        r=0.0,
        T=1.0,
        sigma_M=1.0,
        beta=[1.0] * net.n,
        gamma=[0.0] * net.n,
        s=[float(x) for x in calib.s],
    )

    t0 = time.monotonic()
    ev = expected_values(net, model)
    price = debt_price_bound(net, CapmParams(**params), "lower")
    elapsed_under(t0, 1.0)
    assert np.all((ev.pd >= 0.0) & (ev.pd <= 1.0))
    assert np.all((price > 0.0) & (price <= 1.0))

    net_csv = str(tmp_path / "net87.csv")
    write_network_csv(net_csv, net)
    params_json = tmp_path / "params.json"
    params_json.write_text(json.dumps(params))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "netval.cli",
            "statics",
            net_csv,
            str(params_json),
            "--sweep",
            "alpha",
            "--grid",
            "0.25,0.5,0.75,1.0",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    med_rate = [
        float(r["value"])
        for r in rows
        if r["bank"] == "median" and r["metric"] == "rate_lower"
    ]
    med_cap = [
        float(r["value"])
        for r in rows
        if r["bank"] == "median" and r["metric"] == "cap_lower"
    ]
    assert len(med_rate) == len(med_cap) == 4
    assert all(a >= b - 1e-12 for a, b in zip(med_rate, med_rate[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(med_cap, med_cap[1:]))


def test_criterion_8_invariant_battery():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)

    for _ in range(60):
        alpha = float(rng.choice([1.0, 0.5]))
        net = random_net(rng, alpha=alpha)
        x = rng.uniform(0.0, 3.0, net.n)
        y = x + rng.uniform(0.0, 1.0, net.n)
        rx, ry = greatest_clearing(net, x), greatest_clearing(net, y)
        assert rx.iterations <= net.n + 1 and ry.iterations <= net.n + 1
        assert np.all(rx.p <= ry.p + 1e-10), "payment monotonicity"
        assert np.all(rx.V <= ry.V + 1e-10), "wealth monotonicity"
        if alpha == 1.0:
            assert abs(rx.E.sum() + rx.societal_payment - x.sum()) < 1e-10
            w = rng.uniform(0.0, 3.0, net.n)
            rw = greatest_clearing(net, w)
            mid = greatest_clearing(net, 0.5 * (x + w))
            assert np.all(mid.p >= 0.5 * (rx.p + rw.p) - 1e-10), "concavity"
            lo = greatest_clearing(net, np.minimum(x, w))
            hi = greatest_clearing(net, np.maximum(x, w))
            assert np.all(lo.p + hi.p <= rx.p + rw.p + 1e-10), "submodularity"

    for alpha in (1.0, 0.5):
        total = 0
        while total < 100_000:
            net = random_net(rng, n=int(rng.integers(2, 5)), alpha=alpha)
            X = rng.uniform(0.0, 3.0, (10_000, net.n))
            _, _, _, Z = greatest_clearing_batch(net, X)
            Zr = classify_batch(net, X, regions=enumerate_regions(net))
            assert np.array_equal(Z, Zr), "region classification disagrees"
            total += X.shape[0]

    # default regions need not be convex once recovery is partial
    net = make_cycle(0.5)
    za = greatest_clearing(net, np.array([0.5, 2.6])).z
    zb = greatest_clearing(net, np.array([1.56, 1.56])).z
    zm = greatest_clearing(net, np.array([1.03, 2.08])).z
    assert np.array_equal(za, [1, 1]) and np.array_equal(zb, [1, 1])
    assert np.array_equal(zm, [0, 0])
    elapsed_under(t0, 300.0)
