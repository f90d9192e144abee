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


def _solve(net: FinancialNetwork, z: np.ndarray, *rhs: np.ndarray) -> list:
    # one solve per right-hand side on one M: a joint solve moves the intercept's last bits
    M = _system_matrix(net, z)
    try:
        return [np.linalg.solve(M, r) for r in rhs]
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(
            "internal invariant violation: clearing system is singular"
        ) from exc


def _external_share(net: FinancialNetwork, z: np.ndarray) -> np.ndarray:
    # a_x(z): each bank keeps all, or alpha_x, of its external assets
    return 1.0 - (1.0 - net.alpha_x) * z.astype(float)


def _intercept_rhs(net: FinancialNetwork, z: np.ndarray) -> np.ndarray:
    # c(z) in V = M(z)^{-1} (a_x(z) * x - c(z))
    b = 1.0 - (1.0 - net.alpha_L) * z.astype(float)
    return net.p_bar - b * (net.Pi.T @ net.p_bar)


def _default_update(net: FinancialNetwork, Minv: np.ndarray, z: np.ndarray, j: int):
    """``M(z')^{-1}`` from ``Minv = M(z)^{-1}``, where ``z'`` adds bank ``j``.

    Bank ``j``'s column of ``Pi^T diag(z) + Gamma^T diag(1 - z)`` switches
    from ``Gamma^T`` to ``Pi^T``, and its row of ``M`` is scaled by
    ``alpha_L``, so ``M(z') = M(z) + U V^T`` with two columns each (one
    under ``alpha_L = 1``); the Woodbury identity then costs O(n^2).
    """
    zf = z.astype(float)
    zf[j] = 1.0
    b = 1.0 - (1.0 - net.alpha_L) * zf
    b[j] = 1.0
    U = np.zeros((net.n, 2))
    U[:, 0] = -b * (net.Pi[j] - net.Gamma[j])
    U[j, 1] = 1.0 - net.alpha_L
    row_j = net.Pi[:, j] * zf + net.Gamma[:, j] * (1.0 - zf)
    A = Minv @ U
    VtMinv = np.vstack((Minv[j], row_j @ Minv))
    C = np.eye(2) + np.array([A[j], row_j @ A])
    return Minv - A @ np.linalg.solve(C, VtMinv)


def delta_matrix(net: FinancialNetwork, z) -> np.ndarray:
    """Sensitivity of clearing wealths to endowments for default set ``z``."""
    z = np.asarray(z)
    return _solve(net, z, np.eye(net.n) * _external_share(net, z))[0]


def delta_vector(net: FinancialNetwork, z) -> np.ndarray:
    """Intercept of the affine wealth map for default set ``z``."""
    z = np.asarray(z)
    return _solve(net, z, _intercept_rhs(net, z))[0]


def _clear(net: FinancialNetwork, X: np.ndarray):
    """Fictitious default over endowment rows; ``(V, p, E, Z, rounds)``.

    Every row starts from the no-default wealths and adds each bank with
    ``V < -ZERO_TOL`` to its default set until no set changes.  Sets only
    grow, so there are at most ``n + 1`` rounds; ``rounds`` counts the
    affine solves the slowest row went through.  Each round the changed
    rows are keyed by default pattern, packed little-endian into
    ``ceil(n/64)`` uint64 words; one stable ``lexsort`` brings equal keys
    together with rows in ascending order, and groups are cut where the
    sorted key changes.  A group of at most ``n`` rows whose pattern has
    no cached map is solved directly: one factorization with the group's
    rows as right-hand sides, nothing kept.  A larger group forms the
    affine map ``(Delta(z), delta(z))``, caches it for later rounds and
    applies it by one matrix product, so the cache holds only maps of
    groups with more than ``n`` rows.
    """
    if np.any(X < 0.0) or not np.all(np.isfinite(X)):
        raise ValueError("endowments must be nonnegative and finite")
    m = X.shape[0]

    cache = {}

    def wealths(z, Xg):
        zkey = z.tobytes()
        if zkey not in cache:
            a_x, c = _external_share(net, z), _intercept_rhs(net, z)
            if Xg.shape[0] <= net.n:
                return _solve(net, z, (Xg * a_x - c).T)[0].T
            cache[zkey] = _solve(net, z, np.eye(net.n) * a_x, c)
        D, d = cache[zkey]
        return Xg @ D.T - d

    Z = np.zeros((m, net.n), dtype=bool)
    V = wealths(np.zeros(net.n, dtype=bool), X)
    rounds = 1

    for _ in range(net.n + 1):
        Z_new = Z | (V < -ZERO_TOL)
        changed = np.any(Z_new != Z, axis=1)
        if not changed.any():
            break
        Z = Z_new
        rounds += 1
        idx = np.flatnonzero(changed)
        keys = np.zeros((idx.size, 8 * -(-net.n // 64)), dtype=np.uint8)
        keys[:, : -(-net.n // 8)] = np.packbits(Z[idx], axis=1, bitorder="little")
        keys = keys.view(np.uint64)
        order = np.lexsort(keys.T)
        cuts = np.flatnonzero(np.any(np.diff(keys[order], axis=0), axis=1)) + 1
        for rows in np.split(idx[order], cuts):
            V[rows] = wealths(Z[rows[0]], X[rows])

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
