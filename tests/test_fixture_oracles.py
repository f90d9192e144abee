"""The closed forms against independent Monte Carlo on the 87-bank fixture.

Per-bank beta and gamma make the CAPM eta-maps power maps with per-bank
exponents, so every threshold comes from the sweep's scalar search.  The
Monte Carlo shares the clearing kernel with the closed forms but not the
threshold sweep or the interval moments.  Each case carries a wall-clock
budget with at least twice its measured time as headroom.
"""

import importlib.resources
import math
import time

import numpy as np
import pytest

from netval import (
    CapmParams,
    FactorModel,
    calibrated_network,
    debt_price_bound,
    expected_values,
    mc_expectations,
    read_balance_sheets_csv,
    simulate,
)
from netval.capm import _eta_maps

FIXTURE = importlib.resources.files("netval") / "data" / "synthetic_sheets_87.csv"
PATHS = 20_000


def _fixture_params(alpha, seed):
    net, calib = calibrated_network(read_balance_sheets_csv(str(FIXTURE)), alpha, alpha, seed=seed)
    rng = np.random.default_rng(seed)
    params = CapmParams(
        r=0.02, T=1.0, sigma_M=0.2, beta=rng.uniform(0.6, 1.2, net.n),
        gamma=rng.uniform(0.1, 0.4, net.n), s=calib.s,
    )
    return net, params


@pytest.mark.parametrize("which", ["lower", "upper"])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_expected_values_match_comonotonic_factor_mc(alpha, which):
    # the same factor model both ways: pd, EV, Ep and EE of every bank
    # within 4 SE of 2e4 comonotonic-factor paths (the largest gap was
    # 0.9 SE over these four cases)
    t0 = time.monotonic()
    net, params = _fixture_params(alpha, 2610)
    model = FactorModel(_eta_maps(params.z_vector(which), params), params.factor_dist())
    ev = expected_values(net, model)
    mc = mc_expectations(net, simulate({"kind": "comonotonic-factor", "model": model}, PATHS, 4242))
    for key in ("pd", "EV", "Ep", "EE"):
        se = getattr(mc, "se_" + key)
        assert np.all(se > 0.0), key
        gap = np.abs(getattr(ev, key) - getattr(mc, key))
        assert np.all(gap <= 4.0 * se), (key, float(np.max(gap / se)))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds the 5 s budget"


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_sandwich_on_fixture(seed):
    # the paper's sandwich under full recovery: comonotonic lower price <=
    # debt price under Q <= conditional upper price, for every bank within
    # 3 SE of 2e4 CAPM paths
    t0 = time.monotonic()
    net, params = _fixture_params(1.0, 2611)
    disc = math.exp(-params.r * params.T)
    lo = debt_price_bound(net, params, "lower") * net.p_bar
    hi = debt_price_bound(net, params, "upper") * net.p_bar
    assert np.all(lo <= hi)
    mc = mc_expectations(net, simulate({"kind": "capm", "params": params}, PATHS, seed))
    price, se = disc * mc.Ep, disc * mc.se_Ep
    assert np.all(lo <= price + 3.0 * se), float(np.max((lo - price) / se))
    assert np.all(price <= hi + 3.0 * se), float(np.max((price - hi) / se))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds the 10 s budget"
