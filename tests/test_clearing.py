import hashlib
import importlib.resources
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    appb_p02,
    appb_p10,
    dense_map,
    dense_system,
    make_cycle,
    random_net,
    upper_picard_clearing,
)
from netval import (
    AffineMap,
    CapmParams,
    FactorModel,
    LogNormal,
    build_network,
    calibrated_network,
    delta_matrix,
    delta_vector,
    greatest_clearing,
    greatest_clearing_batch,
    psi_star,
    read_balance_sheets_csv,
    simulate,
    solvency_thresholds,
)
from netval import clearing
from netval.calibration import BalanceSheet
from netval.clearing import ZERO_TOL
from netval.oracle import classify_batch

ALPHAS = [1.0, 0.5]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_cycle_payment_vectors(alpha):
    net = make_cycle(alpha)
    assert np.allclose(greatest_clearing(net, [0.0, 2.0]).p, appb_p02(alpha, alpha), atol=1e-12)
    assert np.allclose(greatest_clearing(net, [1.0, 0.0]).p, appb_p10(alpha, alpha), atol=1e-12)
    assert np.allclose(greatest_clearing(net, [1.0, 2.0]).p, [2.0, 3.0], atol=1e-12)
    assert np.allclose(greatest_clearing(net, [0.0, 0.0]).p, [0.0, 0.0], atol=1e-12)


def test_two_bank_clearing(two_bank):
    res = greatest_clearing(two_bank, [3.0, 4.0])
    assert np.allclose(res.V, [-4.0, 2.2], atol=1e-12)
    assert np.allclose(res.p, [6.0, 6.0], atol=1e-12)
    assert np.allclose(res.E, [0.0, 2.2], atol=1e-12)
    assert list(res.z) == [1, 0]
    assert res.iterations <= two_bank.n + 1


@pytest.mark.parametrize("alpha", ALPHAS)
def test_zero_endowment_wipes_out(alpha):
    net = make_cycle(alpha)
    res = greatest_clearing(net, [0.0, 0.0])
    assert np.allclose(res.V, -net.p_bar, atol=1e-12)
    assert np.allclose(res.p, 0.0, atol=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_rich_endowment_all_solvent(alpha):
    net = make_cycle(alpha)
    x = net.p_bar + 1.0
    res = greatest_clearing(net, x)
    assert not res.z.any()
    assert np.allclose(res.p, net.p_bar)
    assert np.allclose(res.V, x + net.interbank_assets() - net.p_bar, atol=1e-12)


def test_clearing_result_consistency(two_bank):
    res = greatest_clearing(two_bank, [3.0, 4.0])
    assert np.allclose(res.p, two_bank.p_bar + np.minimum(res.V, 0.0))
    assert np.allclose(res.E, np.maximum(res.V, 0.0))
    assert np.isclose(res.societal_payment, float(res.p @ two_bank.pi_soc))


def test_psi_star_fixed_point(cycle_half, two_bank):
    for net, x in ((cycle_half, [0.7, 1.3]), (two_bank, [3.0, 4.0])):
        res = greatest_clearing(net, x)
        assert np.allclose(psi_star(net, x, res.V), res.V, atol=1e-10)


def test_psi_star_counts_cross_holdings():
    net = build_network(
        [[0.0, 7.0, 3.0], [3.0, 0.0, 3.0]], 1.0, 1.0, Gamma=[[0.0, 0.2], [0.3, 0.0]]
    )
    x = np.array([3.0, 4.0])
    V = greatest_clearing(net, x).V
    # without the Gamma^T E term the residual is (-0.835, 0)
    assert np.max(np.abs(psi_star(net, x, V) - V)) < 1e-14


@given(
    seed=st.integers(0, 2**32 - 1),
    alpha_x=st.sampled_from([1.0, 0.7, 0.3]),
    alpha_L=st.sampled_from([1.0, 0.5, 0.0]),
)
@settings(max_examples=40)
def test_psi_star_fixed_point_cross_holdings_partial_recovery(seed, alpha_x, alpha_L):
    rng = np.random.default_rng(seed)
    L = random_net(rng).L
    n = L.shape[0]
    Gamma = rng.uniform(0.0, 0.9 / n, (n, n))
    np.fill_diagonal(Gamma, 0.0)
    net = build_network(L, alpha_x, alpha_L, Gamma=Gamma)
    x = rng.uniform(0.0, 3.0, n)
    V = greatest_clearing(net, x).V
    assert np.max(np.abs(psi_star(net, x, V) - V)) < 1e-12


def test_psi_star_uses_the_clearing_solvency_band():
    # V0 lands a round-off below zero, inside the band clearing calls solvent
    net = build_network([[0.0, 7.0, 3.0], [3.0, 0.0, 3.0]], 0.5, 0.5)
    x = np.array([6.999999999999799, 20.0])
    res = greatest_clearing(net, x)
    assert -ZERO_TOL <= res.V[0] < 0.0 and res.z[0] == 0
    # treating V0 < 0 as default gives a residual of the whole haircut, -5
    assert np.max(np.abs(psi_star(net, x, res.V) - res.V)) < 1e-12


def test_psi_star_monotone_in_V(cycle_half):
    rng = np.random.default_rng(3)
    x = np.array([0.5, 1.5])
    for _ in range(50):
        V = rng.uniform(-3.0, 3.0, 2)
        W = V + rng.uniform(0.0, 2.0, 2)
        assert np.all(
            psi_star(cycle_half, x, W) >= psi_star(cycle_half, x, V) - 1e-12
        )


@pytest.mark.parametrize("alpha", ALPHAS)
def test_delta_endpoints(alpha):
    net = make_cycle(alpha)
    n = net.n
    assert np.allclose(delta_matrix(net, np.zeros(n)), np.eye(n))
    assert np.allclose(
        delta_vector(net, np.zeros(n)), net.p_bar - net.Pi.T @ net.p_bar
    )
    assert np.allclose(delta_vector(net, np.ones(n)), net.p_bar)
    expected = net.alpha_x * np.linalg.inv(np.eye(n) - net.alpha_L * net.Pi.T)
    assert np.allclose(delta_matrix(net, np.ones(n)), expected)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_linear_representation(alpha):
    net = make_cycle(alpha)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(0.0, 3.0, 2)
        res = greatest_clearing(net, x)
        z = res.z.astype(float)
        V = delta_matrix(net, z) @ x - delta_vector(net, z)
        assert np.allclose(V, res.V, atol=1e-10)


@pytest.mark.parametrize("n", [3, 8, 30])
@pytest.mark.parametrize("alpha_x, alpha_L", [(1.0, 1.0), (0.7, 0.3), (0.3, 0.0)])
@pytest.mark.parametrize("gamma", [False, True], ids=["no-gamma", "gamma"])
def test_deltas_match_dense_system(n, alpha_x, alpha_L, gamma):
    rng = np.random.default_rng([n, int(10 * alpha_x), int(10 * alpha_L), gamma])
    L = random_net(rng, n=n).L
    Gamma = None
    if gamma:
        Gamma = rng.uniform(0.0, 0.9 / n, (n, n))
        Gamma[rng.random((n, n)) < 0.5] = 0.0
        np.fill_diagonal(Gamma, 0.0)
    net = build_network(L, alpha_x, alpha_L, Gamma=Gamma)
    for p in (0.0, 0.2, 0.5, 0.9):
        z = rng.random(n) < p
        D_ref, d_ref = dense_map(net, z)
        D, d = delta_matrix(net, z), delta_vector(net, z)
        assert np.max(np.abs(D - D_ref)) <= 1e-12 * np.max(np.abs(D_ref))
        assert np.max(np.abs(d - d_ref)) <= 1e-12 * np.max(np.abs(d_ref))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_batch_matches_scalar(alpha):
    rng = np.random.default_rng(5)
    net = random_net(rng, n=4, alpha=alpha)
    X = rng.uniform(0.0, 4.0, (60, 4))
    V, p, E, Z = greatest_clearing_batch(net, X)
    for k in range(X.shape[0]):
        res = greatest_clearing(net, X[k])
        assert np.allclose(V[k], res.V, atol=1e-10)
        assert np.allclose(p[k], res.p, atol=1e-10)
        assert np.allclose(E[k], res.E, atol=1e-10)
        assert np.array_equal(Z[k], res.z)


@given(
    seed=st.integers(0, 2**32 - 1),
    alpha_x=st.sampled_from([1.0, 0.7, 0.3]),
    alpha_L=st.sampled_from([1.0, 0.5, 0.0]),
)
@settings(max_examples=40)
def test_single_is_a_batch_of_one(seed, alpha_x, alpha_L):
    rng = np.random.default_rng(seed)
    L = random_net(rng).L
    n = L.shape[0]
    Gamma = rng.uniform(0.0, 0.9 / n, (n, n))
    np.fill_diagonal(Gamma, 0.0)
    net = build_network(L, alpha_x, alpha_L, Gamma=Gamma)
    X = rng.uniform(0.0, 3.0, (20, n))
    V, p, E, Z = greatest_clearing_batch(net, X)
    for k in range(X.shape[0]):
        res = greatest_clearing(net, X[k])
        one = greatest_clearing_batch(net, X[k : k + 1])
        for single, row in zip((res.V, res.p, res.E), one):
            assert np.array_equal(single, row[0])
        assert res.societal_payment == float(net.pi_soc @ one[1][0])
        assert 1 <= res.iterations <= n + 1
        # alone, a row is the only column of a stacked solve; in a batch it may
        # share a larger stacked chunk or a product with A^{-1}, which sum in
        # another order, so rows agree to round-off, not bits
        for single, rows in zip((res.V, res.p, res.E), (V, p, E)):
            assert np.allclose(single, rows[k], rtol=0.0, atol=1e-12)
        assert np.array_equal(res.z, (res.V < -ZERO_TOL).astype(int))
        assert np.all(res.z <= Z[k])


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
def test_batch_rejects_bad_endowments(two_bank, bad):
    X = np.array([[3.0, 4.0], [bad, 4.0]])
    with pytest.raises(ValueError, match="nonnegative and finite"):
        greatest_clearing_batch(two_bank, X)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        greatest_clearing(two_bank, X[1])


def test_empty_batch(two_bank):
    out = greatest_clearing_batch(two_bank, np.zeros((0, 2)))
    assert [a.shape for a in out] == [(0, 2)] * 4


@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from(ALPHAS))
def test_monotonicity_in_endowments(seed, alpha):
    rng = np.random.default_rng(seed)
    net = random_net(rng, alpha=alpha)
    x = rng.uniform(0.0, 3.0, net.n)
    y = x + rng.uniform(0.0, 2.0, net.n)
    lo, hi = greatest_clearing(net, x), greatest_clearing(net, y)
    assert np.all(hi.V >= lo.V - 1e-10)
    assert np.all(hi.p >= lo.p - 1e-10)
    assert np.all(hi.E >= lo.E - 1e-10)


@given(seed=st.integers(0, 2**32 - 1))
def test_concavity_full_recovery(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, alpha=1.0)
    x = rng.uniform(0.0, 3.0, net.n)
    y = rng.uniform(0.0, 3.0, net.n)
    mid = greatest_clearing(net, (x + y) / 2.0)
    px = greatest_clearing(net, x).p
    py = greatest_clearing(net, y).p
    assert np.all(mid.p >= (px + py) / 2.0 - 1e-10)


@given(seed=st.integers(0, 2**32 - 1))
def test_submodularity_full_recovery(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, alpha=1.0)
    x = rng.uniform(0.0, 3.0, net.n)
    y = rng.uniform(0.0, 3.0, net.n)
    p = lambda v: greatest_clearing(net, v).p
    lhs = p(x) + p(y)
    rhs = p(np.minimum(x, y)) + p(np.maximum(x, y))
    assert np.all(lhs >= rhs - 1e-10)


@given(seed=st.integers(0, 2**32 - 1))
def test_conservation_full_recovery(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, alpha=1.0)
    x = rng.uniform(0.0, 3.0, net.n)
    res = greatest_clearing(net, x)
    assert abs(res.E.sum() + res.societal_payment - x.sum()) < 1e-10


@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from(ALPHAS))
@settings(max_examples=40)
def test_iteration_budget(seed, alpha):
    rng = np.random.default_rng(seed)
    net = random_net(rng, alpha=alpha)
    x = rng.uniform(0.0, 2.0, net.n)
    res = greatest_clearing(net, x)
    assert res.iterations <= net.n + 1
    flagged = res.V < -1e-12
    assert np.array_equal(res.z.astype(bool), flagged)


def test_cross_ownership_consistency():
    net = build_network(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 2.0]], 1.0, 1.0, Gamma=[[0.0, 0.2], [0.3, 0.0]]
    )
    rng = np.random.default_rng(9)
    for _ in range(60):
        x = rng.uniform(0.0, 3.0, 2)
        res = greatest_clearing(net, x)
        z = res.z.astype(float)
        V = delta_matrix(net, z) @ x - delta_vector(net, z)
        assert np.allclose(V, res.V, atol=1e-10)
        assert np.all(res.V[res.z == 1] < 1e-12)
        assert np.all(res.V[res.z == 0] >= -1e-12)


def test_cross_ownership_shares_equity():
    plain = build_network([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0]], 1.0, 1.0)
    cross = build_network(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 2.0]], 1.0, 1.0, Gamma=[[0.0, 0.4], [0.0, 0.0]]
    )
    x = np.array([3.0, 0.4])
    a = greatest_clearing(plain, x)
    b = greatest_clearing(cross, x)
    # bank 2 holds 40% of solvent bank 1's equity, so its wealth rises
    assert a.z[0] == 0 and b.V[1] > a.V[1]


# ---------------------------------------------------------------------------
# an oracle that shares no code with the kernel


def picard_clearing(net, x):
    """Greatest clearing wealths by iterating ``psi_star`` to its fixed point.

    The iteration starts from the no-default wealths, an upper bound of every
    fixed point when ``Gamma = 0``, and decreases monotonically to the
    greatest one.  It never builds or solves the linear system of a default
    set.
    """
    V = x + net.Pi.T @ net.p_bar - net.p_bar
    tol = 1e-13 * float(net.p_bar.max())
    for _ in range(100_000):
        W = psi_star(net, x, V)
        if np.max(np.abs(W - V)) <= tol:
            return W
        V = W
    raise AssertionError("Picard iteration did not converge")


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 5, 8, 63, 64, 65, 70]),
    alpha_x=st.sampled_from([1.0, 0.7, 0.3]),
    alpha_L=st.sampled_from([1.0, 0.6, 0.2]),
)
# n = 87 is the calibrated fixture: balance sheets at realistic magnitude
# (p_bar up to 9.1e5) with bankruptcy costs alpha = 0.5
@example(seed=0, n=87, alpha_x=0.5, alpha_L=0.5)
def test_batch_matches_picard_oracle(seed, n, alpha_x, alpha_L):
    # Gamma = 0 only: with cross-holdings the kernel can keep a bank in its
    # default set after its wealth comes back nonnegative
    if n == 87:
        net, X = _fixture_87()
        X = X[:16]
    else:
        rng = np.random.default_rng(seed)
        L = random_net(rng, n=n).L
        net = build_network(L, alpha_x, alpha_L)
        X = rng.uniform(0.0, 1.5 * net.p_bar, (16, n))
        # rows that cannot default below the last four banks share their low
        # key bits, so for n > 64 their patterns differ only in the second word
        lo = max(n - 4, 0)
        X[:12, :lo] = 2.0 * net.p_bar[:lo]
        X[:12, lo:] *= 0.3
    V, _, _, Z = greatest_clearing_batch(net, X)
    scale = float(net.p_bar.max())
    for k in range(X.shape[0]):
        W = picard_clearing(net, X[k])
        assert np.array_equal(Z[k], (W < -ZERO_TOL).astype(int))
        assert np.max(np.abs(V[k] - W)) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# pinned kernel outputs: sha256 of (V, p, E, Z) on fixed draws


def _copula_3():
    # 20k rows, 3 rounds: groups of thousands of rows and one single-row group
    net = random_net(np.random.default_rng(24), n=3, alpha=0.5)
    spec = {
        "kind": "gaussian-copula-lognormal",
        "mu": [0.0, -0.3, 0.2],
        "sigma": [0.5, 0.8, 0.6],
        "corr": [[1.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.0]],
    }
    return net, simulate(spec, 20_000, 17).X


def _fixture_87(paths=500):
    # two-word keys and one row per pattern in every round
    fixture = importlib.resources.files("netval") / "data" / "synthetic_sheets_87.csv"
    net, calib = calibrated_network(read_balance_sheets_csv(str(fixture)), 0.5, 0.5, seed=3)
    rng = np.random.default_rng(5)
    params = CapmParams(
        r=0.02,
        T=1.0,
        sigma_M=0.2,
        beta=rng.uniform(0.6, 1.2, net.n),
        gamma=rng.uniform(0.1, 0.4, net.n),
        s=calib.s,
    )
    return net, simulate({"kind": "capm", "params": params}, paths, 11).X


def _wide(n, seed):
    # 64 banks fill one key word exactly; bank 65 spills into a second word.
    # In half the rows banks 1-62 cannot default, so patterns differ only
    # in the banks next to the word boundary.
    rng = np.random.default_rng(seed)
    net = random_net(rng, n=n, alpha=0.5)
    X = rng.uniform(0.0, 1.5 * net.p_bar, (300, n))
    X[:150, :62] = 2.0 * net.p_bar[:62]
    return net, X


@pytest.mark.parametrize(
    "make, digest",
    [
        (_copula_3, "3496ad5b37a81dbc1de16b7772cf410a17487fded27a52e3cfdd7c0495884b52"),
        (_fixture_87, "ee4b1f25d97e6b6c88f0aaaf925fd703a04871eaae0f5e06c0fe677969fbed87"),
        (lambda: _wide(64, 10), "810e9688c13bdb2ce91e271e7d9a70e7dfcc669cca15ddf6904b62d1faed89af"),
        (lambda: _wide(65, 6), "9c8a665dd0d052196957e4a817a20ce575f189bd031eda7ff7a3d810fb445e2c"),
    ],
    ids=["copula-3", "fixture-87", "net-64", "net-65"],
)
def test_batch_outputs_pinned(make, digest):
    net, X = make()
    h = hashlib.sha256()
    for a in greatest_clearing_batch(net, X):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest


def _repeated(make, counts):
    # the first len(counts) rows of a batch, row i repeated counts[i] times:
    # equal rows share every round's pattern group
    net, X = make()
    return net, np.repeat(X[: len(counts)], counts, axis=0)


def _small_partial():
    # alpha_x != alpha_L, both below 1
    rng = np.random.default_rng(12)
    L = random_net(rng, n=4).L
    return build_network(L, 0.3, 0.6), rng.uniform(0.0, 0.8, (3, 4)) * L.sum(axis=1)


def _small_gamma():
    # banks 0 and 2 have shareholders among the banks, so every default-set
    # system couples them; partial recovery
    rng = np.random.default_rng(12)
    L = random_net(rng, n=6).L
    Gamma = np.zeros((6, 6))
    Gamma[0, 1], Gamma[0, 3], Gamma[2, 5] = 0.2, 0.1, 0.3
    return build_network(L, 0.7, 0.5, Gamma), rng.uniform(0.0, 0.8, (3, 6)) * L.sum(axis=1)


@pytest.mark.parametrize(
    "make, sizes",
    [
        (_fixture_87, None),
        (lambda: _repeated(_fixture_87, [1, 5, 100]), [1, 5, 100]),
        (lambda: _repeated(_small_partial, [1, 3, 9]), [1, 3, 9]),
        (lambda: _repeated(_small_gamma, [1, 2, 40]), [1, 2, 40]),
    ],
    ids=["fixture-87", "fixture-87-repeated", "net-4-repeated", "net-6-gamma-repeated"],
)
def test_batch_matches_own_affine_map(make, sizes):
    # groups of more than |T| rows (T the coupled banks of the pattern) take a
    # product with the inverse of the coupled block, every other row the
    # stacked solves; every row must sit on the affine map of its own final
    # default pattern, solved here on the dense system
    net, X = make()
    V, _, _, Z = greatest_clearing_batch(net, X)
    patterns, counts = np.unique(Z, axis=0, return_counts=True)
    if sizes is None:
        assert counts.max() == 1
    else:
        assert sorted(counts) == sizes
    maps = {z.tobytes(): dense_map(net, z) for z in patterns}
    tol = 1e-12 * float(net.p_bar.max())
    for x, v, z in zip(X, V, Z):
        D, d = maps[z.tobytes()]
        assert np.max(np.abs(v - (D @ x - d))) <= tol


def test_batch_memory_stays_bounded():
    # one row per default pattern; the kernel keeps nothing between groups,
    # while an 87 x 87 map kept per pattern would peak at about 72 MiB
    net, X = _fixture_87()
    tracemalloc.start()
    try:
        greatest_clearing_batch(net, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _record_solves(monkeypatch):
    systems = []
    solve = clearing._solve

    def recorded(A, B):
        systems.append((A.copy(), B.shape))
        return solve(A, B)

    monkeypatch.setattr(clearing, "_solve", recorded)
    return systems


def test_kernel_solves_only_coupled_block(monkeypatch):
    systems = _record_solves(monkeypatch)

    # Gamma = 0 and no bank defaults: M(0) = I, so nothing is solved
    net, X = _fixture_87()
    greatest_clearing_batch(net, 2.0 * np.tile(net.p_bar, (5, 1)))
    assert systems == []

    # each row alone is a lone column: one stacked call of a single block per
    # round after the first, of the size of the round's default set, which
    # only grows and stays below n
    for x in X[:12]:
        systems.clear()
        res = greatest_clearing(net, x)
        sizes = [A.shape[1] for A, _ in systems]
        assert len(sizes) == res.iterations - 1
        assert sizes == sorted(set(sizes)) and sizes[-1] < net.n
        assert sizes[-1] == greatest_clearing_batch(net, x[None, :])[3].sum()
        for size, (A, shape) in zip(sizes, systems):
            assert A.shape == (1, size, size) and shape == (1, size, 1)

    # under cross-holdings the held banks 0 and 2 are coupled in every round:
    # the first round is one product with A^{-1} over every column, so it
    # solves A against the 2 x 2 identity, later rounds stack the lone row,
    # and the last system is the dense one restricted to the held banks and
    # the defaults
    net, X = _small_gamma()
    stacked = 0
    for x in (2.0 * net.p_bar, *X):
        systems.clear()
        Z = greatest_clearing_batch(net, x[None, :])[3][0].astype(bool)
        T = np.flatnonzero(Z | np.isin(np.arange(net.n), [0, 2]))
        assert systems[0][0].shape == (2, 2) and systems[0][1] == (2, 2)
        stacked += len(systems) - 1
        for A, shape in systems[1:]:
            assert A.shape == (1, shape[1], shape[1]) and shape[2] == 1
        assert np.allclose(
            systems[-1][0].reshape(T.size, T.size),
            dense_system(net, Z)[np.ix_(T, T)],
            rtol=0.0,
            atol=1e-15,
        )
    assert stacked > 0


def _lone_and_grouped():
    # rows 100-499 are each alone in their pattern and take the stacked solves;
    # rows 0-99, n + 1 times each, share every pattern with more rows than its
    # coupled block has and take the product with A^{-1}
    net, X = _fixture_87()
    return net, np.concatenate([X[100:], np.repeat(X[:100], net.n + 1, axis=0)])


def test_lone_and_grouped_columns_match_picard_oracle(monkeypatch):
    systems = _record_solves(monkeypatch)
    net, X = _lone_and_grouped()
    V, _, _, Z = greatest_clearing_batch(net, X)
    # Gamma = 0, so the first round solves nothing: the 2-D solves are groups
    assert {A.ndim for A, _ in systems} == {2, 3}
    rows, inverse = np.unique(X, axis=0, return_inverse=True)
    W = np.array([upper_picard_clearing(net, x) for x in rows])[inverse]
    assert np.array_equal(Z, (W < -ZERO_TOL).astype(int))
    assert np.max(np.abs(V - W)) <= 1e-9 * float(net.p_bar.max())


def _gamma_net(rng, n):
    # partial recovery, and about half of the cross-holdings zero
    Gamma = rng.uniform(0.0, 0.9 / n, (n, n))
    Gamma[rng.random((n, n)) < 0.5] = 0.0
    np.fill_diagonal(Gamma, 0.0)
    return build_network(random_net(rng, n=n).L, 0.7, 0.5, Gamma=Gamma)


def test_lone_column_matches_its_group_under_cross_holdings(monkeypatch):
    # the same row 1, 2 and n + 1 times: after the first round its pattern
    # takes the product with A^{-1} exactly when it has more rows than its
    # coupled block (k > |T|), else the stacked solves, and n + 1 rows are
    # more than any block has
    systems = _record_solves(monkeypatch)
    rng = np.random.default_rng(21)
    grouped = 0
    for _ in range(10):
        net = _gamma_net(rng, int(rng.integers(3, 7)))
        tol = 1e-12 * float(net.p_bar.max())
        for x in rng.uniform(0.0, 1.2, (20, net.n)) * net.p_bar:
            runs = []
            for k in (1, 2, net.n + 1):
                systems.clear()
                runs.append(greatest_clearing_batch(net, np.tile(x, (k, 1))))
                assert all((A.ndim == 2) == (k > A.shape[-1]) for A, _ in systems[1:])
                grouped += sum(A.ndim == 2 for A, _ in systems[1:])
            alone = runs[0]
            for V, _, _, Z in runs[1:]:
                assert np.all(Z == alone[3][0])
                assert np.max(np.abs(V - alone[0][0])) <= tol
    assert grouped > 0


def test_column_order_invariance():
    # permuting a batch's rows permutes V, p, E and Z bit for bit: columns on
    # the stacked path are chunked in pattern-key order, and the columns of a
    # group of more than |T| share one product with A^{-1}
    rng = np.random.default_rng(8)
    cases = [_fixture_87(3000)]
    for k in range(30):
        n = int(rng.integers(2, 7))
        net = _gamma_net(rng, n) if k % 2 else random_net(rng, n=n, alpha=0.5)
        cases.append((net, rng.uniform(0.0, 1.5, (4000, n)) * net.p_bar))
    for net, X in cases:
        perm = rng.permutation(X.shape[0])
        for a, b in zip(greatest_clearing_batch(net, X), greatest_clearing_batch(net, X[perm])):
            assert np.array_equal(a[perm], b)


@pytest.mark.parametrize("paths", [10_000, 40_000])
def test_batch_memory_bounded_at_scale(monkeypatch, paths):
    # beyond X's banks-major copy and the four outputs the kernel holds its
    # boolean default sets (n m bytes each) and one stacked chunk of at most
    # 2**20 doubles in g t n: uncapped, 40k paths bring 513 lone columns with
    # 77-bank blocks into one call, 23 MiB for the blocks alone
    net, X = _fixture_87(paths)
    chunks = []
    solve = clearing._solve

    def recorded(A, B):
        chunks.append(A.shape[0] * A.shape[1] * net.n if A.ndim == 3 else 0)
        return solve(A, B)

    monkeypatch.setattr(clearing, "_solve", recorded)
    tracemalloc.start()
    try:
        greatest_clearing_batch(net, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < max(chunks) <= 2**20
    # measured: 1.7 MiB at 10k paths and 6.6 MiB at 40k
    assert peak - 5 * X.nbytes < 16 * 2**20


def _sheets_8(seed):
    # eight banks with total assets, so liabilities, between about 1e5 and 1e6
    rng = np.random.default_rng(seed)
    A = 10.0 ** rng.uniform(5.05, 6.0, 8)
    C = A * rng.uniform(0.03, 0.10, 8)
    IB = A * rng.uniform(0.05, 0.25, 8)
    return [BalanceSheet(f"B{i}", float(A[i]), float(C[i]), float(IB[i])) for i in range(8)]


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_single_batch_and_regions_agree_at_scale(alpha):
    net, calib = calibrated_network(_sheets_8(0), alpha, alpha, seed=0)
    assert 1e5 < net.p_bar.min() and net.p_bar.max() < 1e6
    # rows within 10% of each bank's comonotonic threshold, so that about
    # half the banks default; uniform rows on [0, 1.2] s default almost all
    maps = [AffineMap(0.0, float(s)) for s in calib.s]
    th = solvency_thresholds(net, FactorModel(maps, LogNormal(0.0, 0.2)))
    rng = np.random.default_rng(1)
    X = calib.s * th.q_star * rng.uniform(0.9, 1.1, (200, 8))
    V, _, _, Z = greatest_clearing_batch(net, X)
    assert 2.0 < Z.sum(axis=1).mean() < 6.5
    assert np.array_equal(classify_batch(net, X), Z)
    scale = float(net.p_bar.max())
    for x, v, z in zip(X, V, Z):
        res = greatest_clearing(net, x)
        assert np.array_equal(res.z, z)
        assert np.max(np.abs(res.V - v)) <= 1e-12 * scale


@pytest.mark.parametrize("alpha_x, alpha_L", [(1.0, 1.0), (0.5, 0.5), (0.7, 0.3)])
def test_small_nets_agree_at_scale(alpha_x, alpha_L):
    # 12,000 rows on 2-6 banks with liabilities near 1e6; each row sits
    # within 10% of one bank's comonotonic threshold, so default sets are mixed
    rng = np.random.default_rng(7)
    mixed = 0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        net = build_network(random_net(rng, n=n).L * 1e6, alpha_x, alpha_L)
        s = net.p_bar * rng.uniform(0.5, 1.5, n)
        q = solvency_thresholds(
            net, FactorModel([AffineMap(0.0, float(v)) for v in s], LogNormal(0.0, 0.2))
        ).q_star
        q = q[np.isfinite(q) & (q > 0.0)]
        X = s * rng.choice(q, 200)[:, None] * rng.uniform(0.9, 1.1, (200, n))
        V, _, _, Z = greatest_clearing_batch(net, X)
        assert np.array_equal(classify_batch(net, X), Z)
        scale = float(net.p_bar.max())
        for x, v, z in zip(X, V, Z):
            res = greatest_clearing(net, x)
            assert np.array_equal(res.z, z)
            assert np.max(np.abs(res.V - v)) <= 1e-12 * scale
        mixed += int(np.sum((Z.sum(axis=1) > 0) & (Z.sum(axis=1) < n)))
    assert mixed >= 1000
