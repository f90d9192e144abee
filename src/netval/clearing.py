"""Greatest clearing wealths for deterministic endowments.

The clearing map scales a defaulting bank's external assets by ``alpha_x``
and its interbank inflows by ``alpha_L``.  For a fixed default indicator
``z`` the wealths are affine in the endowments, ``V = Delta(z) x - delta(z)``,
which the fictitious default algorithm exploits: guess the default set,
solve the linear system, repeat until the set stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import FinancialNetwork

# Wealths within this band of zero are classified as solvent, preventing
# round-off oscillation of the default indicator.
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class ClearingResult:
    """Clearing outcome for one endowment vector.

    ``V`` are wealths, ``p = p_bar - max(-V, 0)`` the payments,
    ``E = max(V, 0)`` the equities, ``z`` the default indicator
    (1 where ``V < -ZERO_TOL``), ``iterations`` the number of default-set
    guesses evaluated, and ``societal_payment`` the total flow to
    the societal node.
    """

    V: np.ndarray
    p: np.ndarray
    E: np.ndarray
    z: np.ndarray
    iterations: int
    societal_payment: float


def psi_star(net: FinancialNetwork, x, V) -> np.ndarray:
    """One application of the clearing map to a wealth vector.

    Solvent banks (``V_i >= -ZERO_TOL``, the band ``greatest_clearing``
    uses) keep full assets; defaulting banks keep ``alpha_x`` of external
    and ``alpha_L`` of interbank assets.  Interbank assets are the payments
    ``p_bar - max(-V, 0)`` received plus the held shares
    ``Gamma^T max(V, 0)`` of other banks' equity, as in ``_system_matrix``.
    """
    x = np.asarray(x, dtype=float)
    V = np.asarray(V, dtype=float)
    pay = net.p_bar - np.maximum(-V, 0.0)
    default = V < -ZERO_TOL
    ax = np.where(default, net.alpha_x, 1.0)
    aL = np.where(default, net.alpha_L, 1.0)
    return ax * x + aL * (net.Pi.T @ pay + net.Gamma.T @ np.maximum(V, 0.0)) - net.p_bar


def _system_matrix(net: FinancialNetwork, z: np.ndarray) -> np.ndarray:
    # M = I - (I - (1-aL) diag(z)) [Pi^T diag(z) + Gamma^T (I - diag(z))]
    zf = z.astype(float)
    b = 1.0 - (1.0 - net.alpha_L) * zf
    inner = net.Pi.T * zf[None, :] + net.Gamma.T * (1.0 - zf)[None, :]
    return np.eye(net.n) - b[:, None] * inner


def _solve(net: FinancialNetwork, z: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # one solve per right-hand side: solving both at once changes the last
    # bits of the intercept
    try:
        return np.linalg.solve(_system_matrix(net, z), rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(
            "internal invariant violation: clearing system is singular"
        ) from exc


def delta_matrix(net: FinancialNetwork, z) -> np.ndarray:
    """Sensitivity of clearing wealths to endowments for default set ``z``."""
    z = np.asarray(z)
    return _solve(net, z, np.eye(net.n) * (1.0 - (1.0 - net.alpha_x) * z.astype(float)))


def delta_vector(net: FinancialNetwork, z) -> np.ndarray:
    """Intercept of the affine wealth map for default set ``z``."""
    z = np.asarray(z)
    b = 1.0 - (1.0 - net.alpha_L) * z.astype(float)
    return _solve(net, z, net.p_bar - b * (net.Pi.T @ net.p_bar))


def _clear(net: FinancialNetwork, X: np.ndarray):
    """Fictitious default over endowment rows; ``(V, p, E, Z, rounds)``.

    Every row starts from the no-default wealths and adds each bank with
    ``V < -ZERO_TOL`` to its default set until no set changes.  Sets only
    grow, so there are at most ``n + 1`` rounds; ``rounds`` counts the
    affine solves the slowest row went through.  Rows are grouped by their
    current default pattern each round so the linear system is factored
    once per distinct pattern, not once per row.
    """
    if np.any(X < 0.0) or not np.all(np.isfinite(X)):
        raise ValueError("endowments must be nonnegative and finite")
    m = X.shape[0]

    cache = {}

    def affine(zkey):
        if zkey not in cache:
            z = np.frombuffer(zkey, dtype=bool).copy()
            cache[zkey] = (delta_matrix(net, z), delta_vector(net, z))
        return cache[zkey]

    Z = np.zeros((m, net.n), dtype=bool)
    D0, d0 = affine(np.zeros(net.n, dtype=bool).tobytes())
    V = X @ D0.T - d0
    rounds = 1

    for _ in range(net.n + 1):
        Z_new = Z | (V < -ZERO_TOL)
        changed = np.any(Z_new != Z, axis=1)
        if not changed.any():
            break
        Z = Z_new
        rounds += 1
        idx = np.flatnonzero(changed)
        patterns, inverse = np.unique(Z[idx], axis=0, return_inverse=True)
        for k in range(patterns.shape[0]):
            rows = idx[inverse == k]
            D, d = affine(patterns[k].tobytes())
            V[rows] = X[rows] @ D.T - d

    p = np.clip(net.p_bar[None, :] - np.maximum(-V, 0.0), 0.0, net.p_bar[None, :])
    E = np.maximum(V, 0.0)
    return V, p, E, Z.astype(int), rounds


def greatest_clearing(net: FinancialNetwork, x) -> ClearingResult:
    """Greatest clearing wealths via the fictitious default algorithm.

    Starts from the no-default wealths, marks every bank with negative
    wealth as defaulting, re-solves the affine system, and stops once the
    default set is stable.  The set only grows, so at most ``n + 1``
    default-set guesses are evaluated.  This is the batch kernel on one row.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n,):
        raise ValueError(f"endowments must have shape ({net.n},), got {x.shape}")
    V, p, E, _, rounds = _clear(net, x[None, :])
    # z is read off the final wealths: under cross-holdings the kernel's
    # default set can keep a bank whose wealth came back nonnegative
    return ClearingResult(
        V=V[0],
        p=p[0],
        E=E[0],
        z=(V[0] < -ZERO_TOL).astype(int),
        iterations=rounds,
        societal_payment=float(net.pi_soc @ p[0]),
    )


def greatest_clearing_batch(net: FinancialNetwork, X):
    """Vectorized greatest clearing over many endowment rows.

    Parameters
    ----------
    X : ndarray, shape (m, n)
        One endowment vector per row; entries must be nonnegative and finite.

    Returns
    -------
    (V, p, E, Z) : ndarrays of shape (m, n)
        ``Z`` is the integer default indicator per row.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.n:
        raise ValueError(f"endowment batch must have shape (m, {net.n})")
    return _clear(net, X)[:4]
