import hashlib
import importlib.resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import appb_p02, appb_p10, make_cycle, random_net
from netval import (
    CapmParams,
    build_network,
    calibrated_network,
    delta_matrix,
    delta_vector,
    greatest_clearing,
    greatest_clearing_batch,
    psi_star,
    read_balance_sheets_csv,
    simulate,
)
from netval.clearing import ZERO_TOL

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
        # a longer batch goes through BLAS gemm, a single row through gemv;
        # they sum in another order, so rows agree to round-off, not bits
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
def test_batch_matches_picard_oracle(seed, n, alpha_x, alpha_L):
    # Gamma = 0 only: with cross-holdings the kernel can keep a bank in its
    # default set after its wealth comes back nonnegative
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


def _fixture_87():
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
    return net, simulate({"kind": "capm", "params": params}, 500, 11).X


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
        (_copula_3, "736dcbe7e1d5d42c11e0c4f743e6cada89fc1af73372dfa96d395f1d63ed8dcc"),
        (_fixture_87, "d5066667c05162694679a645330776a36672f0f6b8827616e0c205b9729fc311"),
        (lambda: _wide(64, 10), "b52c52bbe44f33f3748a6fee2860b8cf0826577196d6cebbbf85837f06d36163"),
        (lambda: _wide(65, 6), "5ba234b5dec438ff063e51c309eddc6426e17b41d08e9c380b7eb9ef8dc36c21"),
    ],
    ids=["copula-3", "fixture-87", "net-64", "net-65"],
)
def test_batch_outputs_pinned(make, digest):
    net, X = make()
    h = hashlib.sha256()
    for a in greatest_clearing_batch(net, X):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest
