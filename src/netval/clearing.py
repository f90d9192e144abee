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

from .network import DomainError, FinancialNetwork

# Wealths within this band of zero are classified as solvent, preventing
# round-off oscillation of the default indicator.
ZERO_TOL = 1e-12
# Doubles in g |T| n for one stacked chunk of g |T|-bank blocks: 8 MiB at any batch size.
STACK_DOUBLES = 2**20


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
    ``Gamma^T max(V, 0)`` of other banks' equity, as in ``_block_inverse``.
    Its haircuts are written out here, not taken from ``_haircuts``, so it
    stays a reference independent of the affine solves.
    """
    x = np.asarray(x, dtype=float)
    V = np.asarray(V, dtype=float)
    pay = net.p_bar - np.maximum(-V, 0.0)
    default = V < -ZERO_TOL
    ax = np.where(default, net.alpha_x, 1.0)
    aL = np.where(default, net.alpha_L, 1.0)
    return ax * x + aL * (net.Pi.T @ pay + net.Gamma.T @ np.maximum(V, 0.0)) - net.p_bar


# For a fixed default indicator z the wealths solve M(z) V = a_x(z) x - c(z).  The four
# functions below are the only code that writes these out; every solve path calls them.


def _haircuts(net: FinancialNetwork, z):
    """``(a_x, b)``: the shares ``1 - (1 - alpha) z`` of its external and of its
    interbank assets that a bank keeps, 1 when solvent, for ``z`` of any shape."""
    return 1.0 - (1.0 - net.alpha_x) * z, 1.0 - (1.0 - net.alpha_L) * z


def _rhs(net: FinancialNetwork, Z: np.ndarray, X, Pi_p: np.ndarray) -> np.ndarray:
    """``R = a_x(z) X - c(z)`` per column, ``c(z) = p_bar - b(z) Pi^T p_bar``, for
    ``(n, m)`` default sets ``Z`` (or one ``(n, 1)`` set) and endowments ``X``;
    ``Pi_p = Pi^T p_bar``."""
    a_x, b = _haircuts(net, Z)
    R = X * a_x
    R -= net.p_bar[:, None] - b * Pi_p[:, None]
    return R


def _block_inverse(net: FinancialNetwork, z: np.ndarray, held: np.ndarray):
    """``(T, KT, A^{-1})``: ``M(z) = I - K`` with ``K = diag(b) [Pi^T diag(z) + Gamma^T
    diag(1 - z)]``, and ``K`` is zero outside the columns ``T`` of the defaulting and the
    ``held`` (nonzero ``Gamma`` row) banks.  With ``KT = K[:, T]^T`` and ``A = I - K[T, T]``,
    ``M(z) V = R`` is ``A V_T = R_T`` and ``V = R + K[:, T] V_T``.  An empty block
    solves nothing."""
    T = np.flatnonzero(z | held)
    b = _haircuts(net, z)[1]
    KT = net.Pi[T] * b
    KT[~z[T]] = net.Gamma[T[~z[T]]] * b
    if not T.size:
        return T, KT, np.empty((0, 0))
    eye = np.eye(T.size)
    return T, KT, _solve(eye - KT[:, T].T, eye)


def _apply_inverse(net: FinancialNetwork, z: np.ndarray, R: np.ndarray, held: np.ndarray):
    """``M(z)^{-1} R = R + K[:, T] A^{-1} R_T``, written into ``R``."""
    T, KT, Ainv = _block_inverse(net, z, held)
    if T.size:
        R += KT.T @ (Ainv @ R[T])
    return R


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError("internal invariant violation: clearing system is singular") from exc


def delta_matrix(net: FinancialNetwork, z) -> np.ndarray:
    """Sensitivity ``Delta(z) = M(z)^{-1} diag(a_x(z))`` of clearing wealths to endowments."""
    z = np.asarray(z, dtype=bool)
    return _apply_inverse(net, z, np.eye(net.n), net.Gamma.any(axis=1)) * _haircuts(net, z)[0]


def delta_vector(net: FinancialNetwork, z) -> np.ndarray:
    """Intercept ``delta(z) = M(z)^{-1} c(z)`` of the affine wealth map: ``-V`` at ``x = 0``."""
    z = np.asarray(z, dtype=bool)
    R = _rhs(net, z[:, None], 0.0, net.Pi.T @ net.p_bar)
    return -_apply_inverse(net, z, R, net.Gamma.any(axis=1))[:, 0]


def _clear(net: FinancialNetwork, X: np.ndarray):
    """Fictitious default over endowment columns; ``(V, p, E, Z, rounds)``, each ``(n, m)``.

    The kernel is banks-major, one column per path, so each round's default test, pattern
    packing and the final clip run along the long, contiguous path axis.  Every column starts
    from the empty default set and adds each bank with ``V < -ZERO_TOL`` to it until no set
    changes; sets only grow, so ``rounds``, the affine solves of the slowest column, is at
    most ``n + 1``.  After the first round the changed columns are keyed by default pattern,
    packed little-endian into ``ceil(n/64)`` uint64 words, and grouped by one stable
    ``lexsort``.  Each column solves only the coupled block of its pattern for
    ``R = a_x X - c`` (``_rhs``), on one of two paths.  The first round's one pattern over
    every column, and a pattern shared by more columns than its block has rows
    (``k > |T|``), take one product with ``A^{-1}`` (``_apply_inverse``).  Every other
    changed column, alone or in a small group, is bucketed by ``|T|``, one stacked LAPACK
    call per chunk in sorted-key order, so a column's bits do not depend on its place in
    the batch.  Nothing is kept between rounds.
    """
    if np.any(X < 0.0) or not np.all(np.isfinite(X)):
        raise DomainError("endowments must be nonnegative and finite")
    n, m = X.shape
    held = net.Gamma.any(axis=1)
    Pi_p = net.Pi.T @ net.p_bar

    def stacked(c, t):
        # columns with t coupled banks: A = I - b_T S[T, T]^T and V = R + b (Y S)^T,
        # S = Pi on defaulting and Gamma on held solvent rows, Y = V_T scattered to (g, n)
        Zc = Z[:, c]
        R = _rhs(net, Zc, X[:, c], Pi_p)
        T = np.nonzero((Zc | held[:, None]).T)[1].reshape(c.size, t)
        rows = np.arange(c.size)[:, None]
        zT = Zc.T[rows, T]
        A = net.Pi[T[:, None, :], T[:, :, None]]
        if held.any():
            A = np.where(zT[:, None, :], A, net.Gamma[T[:, None, :], T[:, :, None]])
        A *= -_haircuts(net, zT)[1][:, :, None]
        A.reshape(c.size, -1)[:, :: t + 1] += 1.0
        y = _solve(A, R.T[rows, T, None])[..., 0]
        Y = np.zeros((c.size, n))
        Y[rows, T] = np.where(zT, y, 0.0)
        W = Y @ net.Pi
        if held.any():
            Y[rows, T] = np.where(zT, 0.0, y)
            W += Y @ net.Gamma
        R += _haircuts(net, Zc)[1] * W.T
        return R

    # the first round has one pattern, the empty default set, for every column
    z = np.zeros(n, dtype=bool)
    Z = np.zeros((n, m), dtype=bool)
    V = _apply_inverse(net, z, _rhs(net, z[:, None], X, Pi_p), held)
    for rounds in range(1, n + 2):
        new = (V < -ZERO_TOL) & ~Z
        idx = np.flatnonzero(np.logical_or.reduce(new, axis=0))
        if not idx.size:
            break
        Z |= new
        keys = np.zeros((idx.size, 8 * -(-n // 64)), dtype=np.uint8)
        keys[:, : -(-n // 8)] = np.packbits(Z[:, idx], axis=0, bitorder="little").T
        keys = keys.view(np.uint64)
        order = np.lexsort(keys.T)
        cols, cuts = idx[order], np.any(np.diff(keys[order], axis=0), axis=1)
        bounds = np.flatnonzero(np.concatenate(([True], cuts, [True])))
        first, size = bounds[:-1], bounds[1:] - bounds[:-1]
        t = (Z[:, cols[first]] | held[:, None]).sum(axis=0)
        for a, k in zip(first[size > t].tolist(), size[size > t].tolist()):
            # the columns of one pattern: one product with A^{-1}
            z = Z[:, cols[a]]
            V[:, cols[a : a + k]] = _apply_inverse(
                net, z, _rhs(net, z[:, None], X[:, cols[a : a + k]], Pi_p), held
            )
        few = np.repeat(size <= t, size)
        rest, t = cols[few], np.repeat(t, size)[few]
        for u in np.flatnonzero(np.bincount(t)).tolist():
            at = rest[t == u]
            step = max(1, STACK_DOUBLES // (u * n))
            for k in range(0, at.size, step):
                V[:, at[k : k + step]] = stacked(at[k : k + step], u)

    p = np.clip(net.p_bar[:, None] - np.maximum(-V, 0.0), 0.0, net.p_bar[:, None])
    E = np.maximum(V, 0.0)
    return V, p, E, Z.astype(int), rounds


def greatest_clearing(net: FinancialNetwork, x) -> ClearingResult:
    """Greatest clearing wealths via the fictitious default algorithm.

    Starts from the no-default wealths, marks every bank with negative
    wealth as defaulting, re-solves the affine system, and stops once the
    default set is stable.  The set only grows, so at most ``n + 1``
    default-set guesses are evaluated.  This is the batch kernel on one column.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n,):
        raise DomainError(f"endowments must have shape ({net.n},), got {x.shape}")
    V, p, E, _, rounds = _clear(net, x[:, None])
    # z is read off the final wealths: under cross-holdings the kernel's
    # default set can keep a bank whose wealth came back nonnegative
    return ClearingResult(
        V=V[:, 0],
        p=p[:, 0],
        E=E[:, 0],
        z=(V[:, 0] < -ZERO_TOL).astype(int),
        iterations=rounds,
        societal_payment=float(net.pi_soc @ p[:, 0]),
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
        ``Z`` is the integer default indicator per row.  All four are
        transposed views of the banks-major kernel's ``(n, m)`` arrays.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.n:
        raise DomainError(f"endowment batch must have shape (m, {net.n})")
    return tuple(a.T for a in _clear(net, np.ascontiguousarray(X.T))[:4])
