"""Shared generators for property tests."""

import itertools
from fractions import Fraction

import numpy as np

from netval import (
    FactorModel,
    LogNormal,
    PowerMap,
    TabulatedMap,
    Uniform01,
    build_network,
    calibrated_network,
    make_synthetic_sheets,
    psi_star,
)
from netval.capm import CapmParams, _eta_maps


def make_cycle(alpha_x, alpha_L=None):
    if alpha_L is None:
        alpha_L = alpha_x
    return build_network([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0]], alpha_x, alpha_L)


def make_two_bank(alpha_x=1.0, alpha_L=None):
    if alpha_L is None:
        alpha_L = alpha_x
    return build_network([[0.0, 7.0, 3.0], [3.0, 0.0, 3.0]], alpha_x, alpha_L)


def random_net(rng, n=None, alpha=1.0):
    """Random valid network: sparse interbank block, positive societal column."""
    if n is None:
        n = int(rng.integers(2, 6))
    inter = rng.uniform(0.0, 2.0, (n, n))
    inter[rng.random((n, n)) < 0.35] = 0.0
    np.fill_diagonal(inter, 0.0)
    L = np.column_stack([inter, rng.uniform(0.5, 2.0, n)])
    return build_network(L, alpha, alpha)


def dense_system(net, z):
    """``M(z) = I - diag(b) [Pi^T diag(z) + Gamma^T diag(1 - z)]``, built densely.

    ``b = 1 - (1 - alpha_L) z`` scales a defaulting bank's interbank assets.
    A reference for the library's default-set system that shares no code
    with it.
    """
    zf = np.asarray(z, dtype=float)
    b = 1.0 - (1.0 - net.alpha_L) * zf
    inner = net.Pi.T * zf[None, :] + net.Gamma.T * (1.0 - zf)[None, :]
    return np.eye(net.n) - b[:, None] * inner


def dense_map(net, z):
    """``(Delta(z), delta(z))`` of ``V = Delta x - delta``, solved on ``dense_system``."""
    zf = np.asarray(z, dtype=float)
    M = dense_system(net, z)
    a_x = 1.0 - (1.0 - net.alpha_x) * zf
    c = net.p_bar - (1.0 - (1.0 - net.alpha_L) * zf) * (net.Pi.T @ net.p_bar)
    return np.linalg.solve(M, np.diag(a_x)), np.linalg.solve(M, c)


def upper_picard_clearing(net, x):
    """Greatest clearing wealths by iterating ``psi_star`` down from an upper bound.

    ``U = (I - Gamma^T)^{-1} max(x + Pi^T p_bar - p_bar, 0)`` bounds every
    fixed point from above, also under cross-holdings (row sums of ``Gamma``
    below 1), and ``psi_star(U) <= U``; ``psi_star`` is monotone, so the
    iterates decrease to the greatest fixed point.  It never builds or solves
    the linear system of a default set.
    """
    x = np.asarray(x, dtype=float)
    w = np.maximum(x + net.Pi.T @ net.p_bar - net.p_bar, 0.0)
    V = np.linalg.solve(np.eye(net.n) - net.Gamma.T, w)
    for _ in range(100_000):
        W = psi_star(net, x, V)
        if np.max(np.abs(W - V)) <= 1e-14 * max(float(net.p_bar.max()), float(np.max(np.abs(V)))):
            return W
        V = W
    raise AssertionError("Picard iteration did not converge")


def _solve_exact(A, b):
    """``A^{-1} b`` by Gauss-Jordan elimination over ``Fraction``s."""
    n = len(b)
    M = [row + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


def exact_clearing(net, x):
    """Greatest clearing wealths in exact rational arithmetic, ``(V, z)``.

    Every float of ``net`` and ``x`` is read as the ``Fraction`` it stands
    for.  For each of the ``2^n`` default sets ``z`` it solves
    ``M(z) V = a_x(z) x - c(z)`` by elimination (the system ``dense_system``
    writes in floats) and keeps the consistent solutions, those with
    ``V_i < 0`` exactly where ``z_i = 1``.  The clearing vectors form a
    complete lattice (Tarski), so their componentwise maximum is one of
    them: the greatest.  Shares no code with the library; ``n <= 6``.
    """
    n = net.n
    assert n <= 6
    F = Fraction
    Pi = [[F(v) for v in row] for row in net.Pi.tolist()]
    G = [[F(v) for v in row] for row in net.Gamma.tolist()]
    p_bar = [F(v) for v in net.p_bar.tolist()]
    x = [F(v) for v in np.asarray(x, dtype=float).tolist()]
    ax, aL = F(net.alpha_x), F(net.alpha_L)
    inflow = [sum(Pi[j][i] * p_bar[j] for j in range(n)) for i in range(n)]
    found = []
    for z in itertools.product((0, 1), repeat=n):
        b = [aL if zi else 1 for zi in z]
        # K[i][j] = b_i (Pi[j][i] z_j + Gamma[j][i] (1 - z_j))
        M = [[(i == j) - b[i] * (Pi[j][i] if z[j] else G[j][i]) for j in range(n)]
             for i in range(n)]
        R = [(ax if z[i] else 1) * x[i] - (p_bar[i] - b[i] * inflow[i]) for i in range(n)]
        V = _solve_exact(M, R)
        if all((v < 0) == bool(zi) for v, zi in zip(V, z)):
            found.append((V, z))
    top = [max(V[i] for V, _ in found) for i in range(n)]
    greatest = [(V, z) for V, z in found if V == top]
    assert len(greatest) == 1, "the clearing vectors have no greatest element"
    return greatest[0]


def random_corr(rng, n):
    """Random positive definite correlation matrix."""
    A = rng.normal(size=(n, n))
    C = A @ A.T + 0.1 * n * np.eye(n)
    d = 1.0 / np.sqrt(np.diag(C))
    return d[:, None] * C * d[None, :]


def appb_p02(ax, aL):
    """Payments at x = (0, 2) on the cycle network."""
    den = 6.0 - aL**2
    return np.array([4.0 * ax * aL, 12.0 * ax]) / den


def appb_p10(ax, aL):
    """Payments at x = (1, 0) on the cycle network."""
    den = 6.0 - aL**2
    return np.array([6.0 * ax, 3.0 * ax * aL]) / den


def _tabulated(rng, top, k):
    q = np.concatenate(([0.0], np.sort(rng.uniform(0.0, top, k - 1))))
    return TabulatedMap(q, np.cumsum(rng.uniform(0.0, 1.0, k)))


def search_path_models():
    """316 fixed ``(net, model)`` pairs whose threshold sweeps take the scalar
    search: maps not affine in one ``u = q**c``.

    - 240 random 2-10-bank nets with per-bank power maps under lognormal
      laws; three in four with partial recovery, every other one with
      cross-holdings, every third with banks 0 and 1 a mirrored pair
      (equal rows, columns and maps);
    - 48 nets with tabulated maps, half under a uniform, half under a
      lognormal law;
    - 20 rings of identical banks under one tabulated map;
    - per-bank CAPM lower and upper models on calibrated synthetic sheets
      of 20, 40, 60 and 87 banks, per-bank beta and gamma.
    """
    rng = np.random.default_rng(20261020)
    out = []
    for k in range(240):
        n = int(rng.integers(2, 11))
        L = random_net(rng, n).L.copy()
        coef = rng.uniform(0.2, 1.0, n)
        expo = rng.uniform(0.2, 2.5, n)
        shift = rng.uniform(0.0, 0.2, n)
        if k % 3 == 0:
            # bank 1 mirrors bank 0
            L[1, 2:], L[2:, 1] = L[0, 2:], L[2:, 0]
            L[0, 1] = L[1, 0]
            coef[1], expo[1], shift[1] = coef[0], expo[0], shift[0]
        G = None
        if k % 2 == 0:
            G = rng.uniform(0.0, 1.0, (n, n))
            G[rng.random((n, n)) < 0.5] = 0.0
            np.fill_diagonal(G, 0.0)
            rows = G.sum(axis=1)
            G[rows > 0.0] *= (rng.uniform(0.1, 0.5, n)[rows > 0.0] / rows[rows > 0.0])[:, None]
        alpha = (1.0, 1.0) if k % 4 == 0 else tuple(rng.uniform(0.3, 0.95, 2))
        net = build_network(L, *alpha, G)
        maps = [PowerMap(*a) for a in zip(coef * net.p_bar, expo, shift * net.p_bar)]
        dist = LogNormal(rng.uniform(-0.5, 0.5), rng.uniform(0.1, 1.0))
        out.append((net, FactorModel(maps, dist)))
    for k in range(48):
        n = int(rng.integers(2, 9))
        net = random_net(rng, n, alpha=1.0 if k % 3 == 0 else 0.8)
        uniform = k % 2 == 0
        maps = [_tabulated(rng, 1.0 if uniform else 4.0, 5) for _ in range(n)]
        dist = Uniform01() if uniform else LogNormal(0.0, 0.5)
        out.append((net, FactorModel(maps, dist)))
    for k in range(20):
        n = 3 + k % 6
        L = np.zeros((n, n + 1))
        L[np.arange(n), (np.arange(n) + 1) % n] = 1.0 + 0.1 * k
        L[:, n] = 1.0
        net = build_network(L, 1.0 if k % 2 else 0.7, 1.0 if k % 2 else 0.6)
        f = _tabulated(rng, 3.0, 6)
        out.append((net, FactorModel([f] * n, LogNormal(0.0, 0.5))))
    for n in (20, 40, 60, 87):
        net, calib = calibrated_network(make_synthetic_sheets(n, seed=n), seed=n)
        params = CapmParams(
            r=0.02, T=1.0, sigma_M=0.2, beta=rng.uniform(0.5, 1.2, n),
            gamma=rng.uniform(0.1, 0.4, n), s=calib.s,
        )
        for which in ("lower", "upper"):
            out.append((net, FactorModel(_eta_maps(params.z_vector(which), params),
                                         params.factor_dist())))
    return out
