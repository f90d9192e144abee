"""Shared generators for property tests."""

import numpy as np

from netval import build_network, psi_star


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
