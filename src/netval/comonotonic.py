"""Single-factor comonotonic endowments: solvency thresholds and expectations.

Endowments are ``X = f(q)`` for a nonnegative scalar factor ``q`` and
componentwise nondecreasing maps ``f_i``.  Every default configuration then
occupies an interval of the factor line, so expectations of wealths,
payments, and equities reduce to at most ``n + 1`` interval terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clearing import _default_update, _external_share, _intercept_rhs, _solve, _system_matrix
from .network import FinancialNetwork

BISECT_REL_TOL = 1e-10
BISECT_MAX_ITER = 200


class ModelError(ValueError):
    """Raised for factor models that violate monotonicity or shape checks."""


class QuadratureError(RuntimeError):
    """Raised when adaptive integration fails to converge."""


_erfc = np.frompyfunc(math.erfc, 1, 1)


def norm_cdf(x):
    """Standard normal CDF via ``math.erfc``.

    A float gives a float; anything else is taken as an array and
    evaluated elementwise, in a C loop over ``math.erfc``.  Wherever
    the result is a normal float it is within 4e-16 relative of a 200-bit
    erfc of the same argument.  ``0.5 * scipy.special.erfc(-x / sqrt(2))``
    differs from it by less than 4.5e-15 relative for |x| <= 10 and by up
    to 5.7e-14 in the far lower tail (x near -36), where scipy is the
    less accurate of the two.
    """
    if isinstance(x, float):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)


# ---------------------------------------------------------------------------
# Endowment maps


class AffineMap:
    """f(q) = shift + slope * q with shift, slope >= 0."""

    def __init__(self, shift: float, slope: float):
        if not (np.isfinite(shift) and np.isfinite(slope)):
            raise ModelError("affine map parameters must be finite")
        if shift < 0.0 or slope < 0.0:
            raise ModelError("affine map needs shift >= 0 and slope >= 0")
        self.shift = float(shift)
        self.slope = float(slope)

    def __call__(self, q):
        return self.shift + self.slope * np.asarray(q, dtype=float)


class PowerMap:
    """f(q) = shift + coef * q**exponent with nonnegative parameters.

    ``exponent = 0`` gives the constant map ``shift + coef`` (with the
    convention ``0**0 = 1``), ``exponent = 1`` an affine map.
    """

    def __init__(self, coef: float, exponent: float, shift: float = 0.0):
        if coef < 0.0 or exponent < 0.0 or shift < 0.0:
            raise ModelError("power map needs coef, exponent, shift >= 0")
        if not (np.isfinite(coef) and np.isfinite(exponent) and np.isfinite(shift)):
            raise ModelError("power map parameters must be finite")
        self.coef = float(coef)
        self.exponent = float(exponent)
        self.shift = float(shift)

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        if self.exponent == 0.0:
            return self.shift + self.coef * np.ones_like(q)
        with np.errstate(over="ignore"):
            return self.shift + self.coef * np.power(q, self.exponent)


class TabulatedMap:
    """Monotone interpolant through (q, x) knots, constant beyond the ends.

    Uses a shape-preserving cubic, so the interpolant is nondecreasing
    whenever the knot values are.
    """

    def __init__(self, q_knots, x_knots):
        q = np.asarray(q_knots, dtype=float)
        x = np.asarray(x_knots, dtype=float)
        if q.ndim != 1 or q.shape != x.shape or q.size < 2:
            raise ModelError("tabulated map needs matching 1-d knot arrays")
        if np.any(np.diff(q) <= 0.0):
            raise ModelError("tabulated map knots must be strictly increasing")
        if np.any(np.diff(x) < 0.0) or np.any(x < 0.0):
            raise ModelError("tabulated map values must be nonnegative and nondecreasing")
        self.q_knots = q
        self.x_knots = x
        from scipy.interpolate import PchipInterpolator

        self._interp = PchipInterpolator(q, x, extrapolate=False)

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        out = self._interp(np.clip(q, self.q_knots[0], self.q_knots[-1]))
        return np.where(
            q <= self.q_knots[0],
            self.x_knots[0],
            np.where(q >= self.q_knots[-1], self.x_knots[-1], out),
        )


def _check_monotone(f, label: str, grid: np.ndarray):
    vals = np.asarray(f(grid), dtype=float)
    if vals.shape != grid.shape:
        raise ModelError(f"{label}: map must evaluate elementwise on arrays")
    if np.any(~np.isfinite(vals)):
        raise ModelError(f"{label}: map produced non-finite values")
    if np.any(vals < 0.0):
        raise ModelError(f"{label}: map must be nonnegative on q >= 0")
    if np.any(np.diff(vals) < -1e-12 * np.maximum(1.0, np.abs(vals[:-1]))):
        raise ModelError(f"{label}: map must be nondecreasing")


# ---------------------------------------------------------------------------
# Factor distributions


class LogNormal:
    """log q ~ Normal(mu, sigma2)."""

    kind = "lognormal"

    def __init__(self, mu: float, sigma2: float):
        if not (np.isfinite(mu) and np.isfinite(sigma2)) or sigma2 <= 0.0:
            raise ModelError("lognormal needs finite mu and sigma2 > 0")
        self.mu = float(mu)
        self.sigma2 = float(sigma2)
        self.sigma = math.sqrt(sigma2)

    def tails(self, c, t) -> np.ndarray:
        """``norm_cdf((mu + c sigma2 - log t) / sigma)`` at each ``t`` (rows)
        and exponent ``c`` (columns): ``P(q >= t)`` under the law tilted by
        ``q**c``, so ``c = 0`` gives the survival function."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        c = np.atleast_1d(np.asarray(c, dtype=float))
        out = np.where(t[:, None] <= 0.0, 1.0, 0.0) * np.ones(c.size)
        inner = (t > 0.0) & (t < np.inf)
        logs = np.array([math.log(x) for x in t[inner]])[:, None]
        out[inner] = norm_cdf((self.mu + c * self.sigma * self.sigma - logs) / self.sigma)
        return out

    def survival(self, t: float) -> float:
        """P(q >= t)."""
        return float(self.tails(0.0, t)[0, 0])

    def prob_below(self, t: float) -> float:
        """P(q < t); the distribution has no atoms so this is the CDF."""
        return 1.0 - self.survival(t)

    def prob_interval(self, a: float, b: float) -> float:
        return self.survival(a) - self.survival(b)

    def partial_power(self, c: float, a: float, b: float) -> float:
        """E[q**c 1{a <= q < b}] in closed form."""
        if a == b:
            return 0.0
        upper = self.tails(c, [a, b])[:, 0]
        return self.moment(c) * float(upper[0] - upper[1])

    def moment(self, c: float) -> float:
        """E[q**c]."""
        return math.exp(c * self.mu + 0.5 * c * c * self.sigma * self.sigma)

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma2)

    def quantile(self, u):
        from scipy.special import ndtri

        return np.exp(self.mu + self.sigma * ndtri(u))

    def pdf(self, q):
        q = np.asarray(q, dtype=float)
        out = np.zeros_like(q)
        pos = q > 0.0
        lq = np.log(q[pos])
        out[pos] = np.exp(-0.5 * ((lq - self.mu) / self.sigma) ** 2) / (
            q[pos] * self.sigma * math.sqrt(2.0 * math.pi)
        )
        return out


class PointMass:
    """Finite mixture of point masses on the nonnegative half-line."""

    kind = "pointmass"

    def __init__(self, atoms, probs):
        atoms = np.asarray(atoms, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if atoms.ndim != 1 or atoms.shape != probs.shape or atoms.size == 0:
            raise ModelError("point-mass mixture needs matching 1-d arrays")
        if np.any(atoms < 0.0) or np.any(~np.isfinite(atoms)):
            raise ModelError("atoms must be finite and nonnegative")
        if np.any(probs < 0.0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ModelError("probabilities must be nonnegative and sum to 1")
        order = np.argsort(atoms, kind="stable")
        self.atoms = atoms[order]
        self.probs = probs[order]

    def prob_below(self, t: float) -> float:
        return float(self.probs[self.atoms < t].sum())

    def survival(self, t: float) -> float:
        return float(self.probs[self.atoms >= t].sum())

    def prob_interval(self, a: float, b: float) -> float:
        sel = (self.atoms >= a) & (self.atoms < b)
        return float(self.probs[sel].sum())

    def partial_map(self, f, a: float, b: float) -> float:
        sel = (self.atoms >= a) & (self.atoms < b)
        if not sel.any():
            return 0.0
        return float(self.probs[sel] @ np.asarray(f(self.atoms[sel]), dtype=float))

    def mean(self) -> float:
        return float(self.probs @ self.atoms)

    def quantile(self, u):
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(cum, np.asarray(u, dtype=float), side="left")
        return self.atoms[np.clip(idx, 0, self.atoms.size - 1)]


class Empirical(PointMass):
    """Equally weighted sample treated as an exact discrete law."""

    kind = "empirical"

    def __init__(self, sample):
        sample = np.asarray(sample, dtype=float)
        if sample.ndim != 1 or sample.size == 0:
            raise ModelError("empirical sample must be a nonempty 1-d array")
        super().__init__(sample, np.full(sample.size, 1.0 / sample.size))


class Uniform01:
    """Uniform factor on [0, 1], used for quantile-coupled endowments."""

    kind = "uniform"

    def prob_below(self, t: float) -> float:
        return float(np.clip(t, 0.0, 1.0))

    def survival(self, t: float) -> float:
        return 1.0 - self.prob_below(t)

    def prob_interval(self, a: float, b: float) -> float:
        return self.prob_below(b) - self.prob_below(a)

    def mean(self) -> float:
        return 0.5

    def quantile(self, u):
        return np.asarray(u, dtype=float)

    def pdf(self, q):
        q = np.asarray(q, dtype=float)
        return ((q >= 0.0) & (q <= 1.0)).astype(float)


# ---------------------------------------------------------------------------
# Partial expectations

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gauss_legendre(func, lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(_GL_WEIGHTS @ func(mid + half * _GL_NODES))


def adaptive_gauss_legendre(func, lo, hi, tol=1e-12, max_depth=48):
    """Adaptive 15-point Gauss-Legendre integration on a finite interval."""
    whole = _gauss_legendre(func, lo, hi)
    stack = [(lo, hi, whole, 0)]
    total = 0.0
    while stack:
        a, b, est, depth = stack.pop()
        mid = 0.5 * (a + b)
        left = _gauss_legendre(func, a, mid)
        right = _gauss_legendre(func, mid, b)
        if abs(left + right - est) <= tol * max(1.0, abs(left + right)):
            total += left + right
            continue
        if depth >= max_depth:
            raise QuadratureError(
                "integral did not converge; the integrand may be non-integrable"
            )
        stack.append((a, mid, left, depth + 1))
        stack.append((mid, b, right, depth + 1))
    return total


def _quadrature_pe(dist, f, a: float, b: float) -> float:
    # integrate f(q) * density over [a, b) against a finite support window
    if isinstance(dist, Uniform01):
        lo, hi = max(a, 0.0), min(b, 1.0)
    elif isinstance(dist, LogNormal):
        cutoff = math.exp(dist.mu + 40.0 * dist.sigma)
        lo, hi = max(a, 0.0), min(b, cutoff)
    else:
        raise ModelError(f"no quadrature rule for distribution kind {dist.kind!r}")
    if hi <= lo:
        return 0.0
    return adaptive_gauss_legendre(
        lambda q: np.asarray(f(q), dtype=float) * dist.pdf(q), lo, hi
    )


def partial_expectation(dist, f, a: float, b: float):
    """Interval probability and partial expectation of ``f`` over ``[a, b)``.

    Returns
    -------
    (prob, pe) : tuple of float
        ``P(q in [a, b))`` and ``E[f(q) 1{q in [a, b)}]``.

    Closed forms cover discrete laws and lognormal factors paired with
    affine or power maps; anything else integrates adaptively.
    """
    if a > b:
        raise ModelError(f"interval endpoints out of order: a={a} > b={b}")
    if a == b:
        return 0.0, 0.0
    prob = dist.prob_interval(a, b)

    if isinstance(dist, PointMass):
        return prob, dist.partial_map(f, a, b)
    if isinstance(dist, LogNormal):
        if isinstance(f, AffineMap):
            return prob, f.shift * prob + f.slope * dist.partial_power(1.0, a, b)
        if isinstance(f, PowerMap):
            return prob, f.shift * prob + f.coef * dist.partial_power(f.exponent, a, b)
    if isinstance(dist, Uniform01) and isinstance(f, AffineMap):
        lo, hi = max(a, 0.0), min(b, 1.0)
        if hi <= lo:
            return prob, 0.0
        return prob, f.shift * (hi - lo) + 0.5 * f.slope * (hi * hi - lo * lo)
    return prob, _quadrature_pe(dist, f, a, b)


# ---------------------------------------------------------------------------
# Factor model


_MONOTONE_GRID = np.concatenate(([0.0], np.geomspace(1e-9, 1e6, 151)))


@dataclass(frozen=True)
class FactorModel:
    """Per-bank nondecreasing endowment maps plus the factor law."""

    f: tuple
    dist: object

    def __init__(self, f, dist):
        f = tuple(f)
        grid = _MONOTONE_GRID
        if isinstance(dist, Uniform01):
            # stop short of u = 1: quantile maps of unbounded laws diverge there
            grid = np.linspace(0.0, 1.0 - 1e-9, 201)
        for i, fi in enumerate(f):
            if not callable(fi):
                raise ModelError(f"map {i} is not callable")
            _check_monotone(fi, f"map {i}", grid)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "dist", dist)

    @property
    def n(self) -> int:
        return len(self.f)

    def endowments(self, q):
        """Evaluate all maps at scalar or vector ``q``; banks on the last axis."""
        q = np.asarray(q, dtype=float)
        return np.stack([np.broadcast_to(fi(q), q.shape) for fi in self.f], axis=-1)


# ---------------------------------------------------------------------------
# Solvency thresholds


@dataclass(frozen=True)
class SolvencyThresholds:
    """Threshold factor values above which each bank is solvent.

    ``q_star[i]`` is the lowest factor value making bank ``i`` solvent
    (``inf`` if it never is, ``0`` if it always is).  ``order`` lists bank
    indices by nonincreasing threshold; ``ladder[k]`` holds the affine
    wealth representation ``(Delta_k, delta_k)`` when exactly the first
    ``k`` banks of ``order`` default.
    """

    q_star: np.ndarray
    order: np.ndarray
    ladder: tuple

    def sorted_with_sentinels(self) -> np.ndarray:
        """Thresholds in ladder order, bracketed by ``inf`` and ``0``."""
        return np.concatenate(([np.inf], self.q_star[self.order], [0.0]))

    def position(self) -> np.ndarray:
        """1-based ladder position of each bank."""
        pos = np.empty(self.order.size, dtype=int)
        pos[self.order] = np.arange(1, self.order.size + 1)
        return pos


def _map_params(model: FactorModel):
    """``(shift, coef, exponent)`` arrays when every map is a ``PowerMap``
    or an ``AffineMap`` (coef = slope, exponent 1), else None."""
    rows = []
    for fi in model.f:
        if isinstance(fi, AffineMap):
            rows.append((fi.shift, fi.slope, 1.0))
        elif isinstance(fi, PowerMap):
            rows.append((fi.shift, fi.coef, fi.exponent))
        else:
            return None
    return tuple(np.array(col) for col in zip(*rows))


def _endowments_at(model: FactorModel, params, q: np.ndarray) -> np.ndarray:
    """All maps at each factor value of the 1-d ``q``; banks on the last axis.

    With ``params`` from ``_map_params`` this is one array expression in
    place of ``n`` Python calls per probe, with the bits of the maps' own
    ``__call__`` (``q**1 == q`` and ``q**0 == 1`` exactly).  The benchmark
    tracer counts map ``__call__``s, so it does not see these evaluations.
    """
    if params is None:
        return model.endowments(q)
    shift, coef, expo = params
    with np.errstate(over="ignore"):
        return shift + coef * np.power(q[:, None], expo)


def _sup_insolvent_bisect(g, target: np.ndarray, hint: float, cap) -> np.ndarray:
    """sup{q in [0, cap] : g_i(q) < target_i} for every bank ``i`` at once.

    ``g(q, sel)`` evaluates the nondecreasing continuous ``g_i`` of the
    banks ``sel`` at their own factor values ``q``.  Each bank follows the
    scalar bracket-and-bisect steps: brackets double from ``hint`` in
    lockstep, and each bank bisects until its own bracket is below
    ``BISECT_REL_TOL``.  ``cap`` bounds the factor's support (quantile maps
    of a uniform factor cannot be evaluated past 1); an uncapped search
    that never brackets gives inf.
    """
    r = target.size
    sup = np.zeros(r)
    top = np.inf if cap is None else cap
    probe = g if cap is None else (lambda q, sel: g(np.minimum(q, cap - 1e-13), sel))
    todo = np.flatnonzero(g(np.zeros(r), np.arange(r)) < target)
    h = min(hint if np.isfinite(hint) and hint > 0.0 else 1.0, top)
    hi = np.full(r, h)
    g_todo = probe(hi[todo], todo)
    keep = g_todo < target[todo]
    bisect, todo, g_todo = todo[~keep], todo[keep], g_todo[keep]
    expansions = 0
    while todo.size:
        if h >= top:
            sup[todo] = top
            break
        h = min(h * 2.0, top)
        g_new = probe(np.full(todo.size, h), todo)
        if np.any(g_new < g_todo - 1e-12 * np.maximum(1.0, np.abs(g_todo))):
            raise ModelError("endowment map decreased during bracketing")
        expansions += 1
        if expansions > 200:
            sup[todo] = np.inf
            break
        hi[todo] = h
        keep = g_new < target[todo]
        bisect = np.concatenate((bisect, todo[~keep]))
        todo, g_todo = todo[keep], g_new[keep]
    lo = np.zeros(r)
    act = bisect
    for _ in range(BISECT_MAX_ITER):
        act = act[hi[act] - lo[act] > BISECT_REL_TOL * np.maximum(hi[act], 1.0)]
        if not act.size:
            break
        mid = 0.5 * (lo[act] + hi[act])
        below = probe(mid, act) < target[act]
        lo[act[below]] = mid[below]
        hi[act[~below]] = mid[~below]
    sup[bisect] = 0.5 * (lo[bisect] + hi[bisect])
    return sup


# Largest residual of the updated inverse, on c(z) relative to max(p_bar)
# and on the ones vector, that the sweep accepts before inverting M(z) afresh.
DRIFT_TOL = 1e-12


def _drift(
    net: FinancialNetwork, z: np.ndarray, Minv: np.ndarray, d: np.ndarray, c: np.ndarray
) -> float:
    """``max(||M(z) d - c||_inf / max(p_bar), ||M(z) Minv 1 - 1||_inf)``."""
    M = _system_matrix(net, z)
    return max(
        float(np.max(np.abs(M @ d - c))) / float(net.p_bar.max()),
        float(np.max(np.abs(M @ Minv.sum(axis=1) - 1.0))),
    )


def solvency_thresholds(net: FinancialNetwork, model: FactorModel) -> SolvencyThresholds:
    """Iteratively peel off the most fragile bank to locate all thresholds.

    At each step the candidate threshold of a still-solvent bank ``i`` is
    the supremum of factor values keeping it insolvent given the current
    default set; the bank with the largest candidate (the lowest index
    among ties) defaults next.  The running minimum with the previous
    threshold handles defaults triggered jointly by a predecessor's
    failure.  Affine maps give the candidates in closed form; otherwise
    all still-solvent banks are bisected together.

    The sweep carries ``M(z)^{-1}`` instead of factoring ``M(z)`` anew: a
    default changes one row and one column of ``M``, a rank-two update
    (Woodbury), so a step costs O(n^2).  Each rung is
    ``Delta_k = M^{-1} diag(a_x(z))`` and ``delta_k = M^{-1} c(z)``.  A
    drift guard checks the inverse on two directions every step,
    ``||M(z) delta_k - c(z)||_inf / max(p_bar)`` and
    ``||M(z) M^{-1} 1 - 1||_inf``, and inverts ``M(z)`` afresh when either
    passes ``DRIFT_TOL``.
    """
    if model.n != net.n:
        raise ModelError(f"model has {model.n} maps but network has {net.n} banks")
    n = net.n
    params = _map_params(model)
    affine = None
    if params is not None and np.all((params[2] == 0.0) | (params[2] == 1.0)):
        shift, coef, expo = params
        affine = (shift + np.where(expo == 0.0, coef, 0.0), np.where(expo == 1.0, coef, 0.0))
    cap = 1.0 if isinstance(model.dist, Uniform01) else None

    z = np.zeros(n, dtype=bool)
    q_star = np.empty(n)
    order = np.empty(n, dtype=int)
    ladder = []
    Minv = _solve(net, z, np.eye(n))[0]
    remaining = np.arange(n)
    q_prev = np.inf

    for k in range(n + 1):
        c = _intercept_rhs(net, z)
        d = Minv @ c
        if _drift(net, z, Minv, d, c) > DRIFT_TOL:
            Minv = _solve(net, z, np.eye(n))[0]
            d = Minv @ c
        D = Minv * _external_share(net, z)
        ladder.append((D, d))
        if k == n:
            break
        target = d[remaining]
        if affine is not None:
            a, b = (D @ affine[0])[remaining], (D @ affine[1])[remaining]
            with np.errstate(divide="ignore", invalid="ignore"):
                sups = np.where(a >= target, 0.0, np.where(b <= 0.0, np.inf, (target - a) / b))
        else:
            rows = D[remaining]

            def g(q, sel, rows=rows):
                X = _endowments_at(model, params, q)
                return (rows[sel][:, None, :] @ X[:, :, None])[:, 0, 0]

            sups = _sup_insolvent_bisect(g, target, q_prev, cap)
        at = int(np.argmax(sups))
        pick = int(remaining[at])
        q_k = min(q_prev, float(sups[at]))
        q_star[pick] = q_k
        order[k] = pick
        remaining = np.delete(remaining, at)
        Minv = _default_update(net, Minv, z, pick)
        z[pick] = True
        q_prev = q_k

    return SolvencyThresholds(q_star=q_star, order=order, ladder=tuple(ladder))


# ---------------------------------------------------------------------------
# Expected values


def _interval_moments(model: FactorModel, qs: np.ndarray):
    """``P(I_k)`` and ``E[f_i(q) 1{q in I_k}]`` over ``I_k = [qs[k+1], qs[k])``.

    A lognormal factor with affine or power maps takes the closed form of
    ``partial_expectation`` as array expressions, one tail per distinct
    exponent; anything else calls ``partial_expectation`` per interval and
    map.  Empty intervals are left to the caller.
    """
    params = _map_params(model)
    dist = model.dist
    if isinstance(dist, LogNormal) and params is not None:
        shift, coef, expo = params
        expos, col = np.unique(expo, return_inverse=True)
        surv = dist.tails(0.0, qs)[:, 0]
        tails = dist.tails(expos, qs)
        prob = surv[1:] - surv[:-1]
        power = np.array([dist.moment(c) for c in expos]) * (tails[1:] - tails[:-1])
        return prob, shift * prob[:, None] + coef * power[:, col]
    a, b = qs[1:], qs[:-1]
    pe = np.zeros((a.size, model.n))
    prob = np.zeros(a.size)
    for k in np.flatnonzero(a < b):
        prob[k] = dist.prob_interval(a[k], b[k])
        pe[k] = [partial_expectation(dist, fi, a[k], b[k])[1] for fi in model.f]
    return prob, pe


@dataclass(frozen=True)
class ExpectedValues:
    """Per-bank default probability and expected wealth, payment, equity."""

    pd: np.ndarray
    EV: np.ndarray
    Ep: np.ndarray
    EE: np.ndarray
    thresholds: SolvencyThresholds


def expected_values(
    net: FinancialNetwork, model: FactorModel, thresholds: SolvencyThresholds = None
) -> ExpectedValues:
    """Closed-form expectations under a comonotonic factor model.

    Between consecutive sorted thresholds the default set is constant, so
    each expectation is a sum over factor intervals of
    ``Delta_k E[f(q); interval] - delta_k P(interval)``; payments pick up
    only the intervals below a bank's own threshold and equity only those
    above.
    """
    th = thresholds if thresholds is not None else solvency_thresholds(net, model)
    n = net.n
    qs = th.sorted_with_sentinels()
    prob, pe = _interval_moments(model, qs)

    terms = np.zeros((n + 1, n))
    for k in np.flatnonzero(qs[1:] < qs[:-1]):
        D, d = th.ladder[k]
        terms[k] = D @ pe[k] - d * prob[k]

    pos = th.position()
    cumulative = np.vstack([np.zeros(n), np.cumsum(terms, axis=0)])
    total = cumulative[-1]

    # bank b is solvent exactly on intervals k < pos(b): its equity collects
    # those terms, its payment shortfall the rest
    EV = total.copy()
    EE = cumulative[pos, np.arange(n)]
    Ep = net.p_bar + (total - EE)

    pd = np.array([model.dist.prob_below(q) for q in th.q_star])
    return ExpectedValues(pd=pd, EV=EV, Ep=Ep, EE=EE, thresholds=th)
