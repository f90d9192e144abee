"""Single-factor comonotonic endowments: solvency thresholds and expectations.

Endowments are ``X = f(q)`` for a nonnegative scalar factor ``q`` and
componentwise nondecreasing maps ``f_i``.  Every default configuration then
occupies an interval of the factor line, so expectations of wealths,
payments, and equities reduce to at most ``n + 1`` interval terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .clearing import _block_inverse, _haircuts
from .network import DomainError, FinancialNetwork

BISECT_REL_TOL = 1e-10
BISECT_MAX_ITER = 200
BRACKET_MAX_DOUBLINGS = 200


class ModelError(DomainError):
    """Raised for factor models that violate monotonicity or shape checks."""


class QuadratureError(DomainError, RuntimeError):
    """Raised when adaptive integration fails to converge."""


# Cephes ndtri (Moshier 1989), the routine behind scipy.special.ndtri: its
# coefficients, branch points and operation order, so the results agree bit
# for bit wherever numpy's log and the C library's log agree
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2): the central branch covers (exp(-2), 1 - exp(-2)]
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
# tails with 2 <= sqrt(-2 log y) < 8
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# tails with sqrt(-2 log y) >= 8, i.e. y <= exp(-32)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
# entries per block: one block's temporaries stay in cache, and the
# allocator hands the same memory back block after block
_PPF_BLOCK = 1 << 15


def _ndtri_ratio(z, p, q):
    """``z * polevl(z, p) / p1evl(z, q)`` in Cephes' order: Horner's rule,
    with ``q``'s leading coefficient 1 left out."""
    num = z * p[0]
    for c in p[1:]:
        num += c
        num *= z
    den = z + q[0]
    for c in q[1:]:
        den *= z
        den += c
    num /= den
    return num


def _ndtri_block(u, out):
    c = np.subtract(u, 0.5, out=out)  # the central branch everywhere, then the tails over it
    r = _ndtri_ratio(c * c, _NDTRI_P0, _NDTRI_Q0)
    r *= c
    c += r
    c *= _S2PI
    tail = np.flatnonzero((u <= _EXP_M2) | (u > 1.0 - _EXP_M2))
    if tail.size:
        ut = u[tail]
        y = np.minimum(ut, 1.0 - ut)  # Cephes' y: 1 - u in the upper tail
        x = np.sqrt(-2.0 * np.log(y))
        x1 = _ndtri_ratio(1.0 / x, _NDTRI_P1, _NDTRI_Q1)
        far = np.flatnonzero(x >= 8.0)
        if far.size:
            x1[far] = _ndtri_ratio(1.0 / x[far], _NDTRI_P2, _NDTRI_Q2)
        xt = np.log(x)
        xt /= x
        np.subtract(x, xt, out=xt)
        xt -= x1
        xt[y == 0.0] = np.inf  # u = 0 or 1, where the formula gives nan
        ut -= 0.5  # its sign is the quantile's
        out[tail] = np.copysign(xt, ut, out=xt)


def norm_ppf(u):
    """Standard normal quantile of an array, elementwise: a numpy port of
    Cephes ``ndtri``, with ``-inf`` at 0, ``inf`` at 1 and nan outside [0, 1].

    On 2M Philox uniforms (tails down to 1e-300 included) 99.99% of the
    results equal ``scipy.special.ndtri``'s bit for bit and the rest lie
    within 4 ulp; every difference comes from numpy's vectorised ``log``.
    """
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    x = np.empty(flat.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(0, flat.size, _PPF_BLOCK):
            _ndtri_block(flat[k:k + _PPF_BLOCK], x[k:k + _PPF_BLOCK])
    x = x.reshape(u.shape)
    return x if x.ndim else x[()]


# ---------------------------------------------------------------------------
# Endowment maps


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
        with np.errstate(over="ignore"):
            return self.shift + self.coef * np.power(q, self.exponent)


class AffineMap(PowerMap):
    """f(q) = shift + slope * q with shift, slope >= 0: the power map of
    exponent 1 (``q**1 == q`` exactly)."""

    def __init__(self, shift: float, slope: float):
        if not (np.isfinite(shift) and np.isfinite(slope)):
            raise ModelError("affine map parameters must be finite")
        if shift < 0.0 or slope < 0.0:
            raise ModelError("affine map needs shift >= 0 and slope >= 0")
        super().__init__(slope, 1.0, shift)

    @property
    def slope(self) -> float:
        return self.coef


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    # Moler's one-sided three-point slope; on nondecreasing knots scipy's
    # shape-preserving corrections of it reduce to clipping it at 0
    return max(((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1), 0.0)


class TabulatedMap:
    """Monotone interpolant through (q, x) knots, constant beyond the ends.

    A monotone piecewise cubic Hermite interpolant (Fritsch & Carlson 1980)
    with the slopes of scipy's ``PchipInterpolator``: Fritsch and Butland's
    weighted harmonic mean inside, Moler's one-sided rule at the ends.  It
    is nondecreasing whenever the knot values are.  Coefficients, values
    and the integral follow scipy's arithmetic step for step.
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
        h = np.diff(q)
        m = np.diff(x) / h
        d = np.empty_like(x)
        if q.size == 2:
            d[:] = m[0]
        else:
            w1 = 2.0 * h[1:] + h[:-1]
            w2 = h[1:] + 2.0 * h[:-1]
            with np.errstate(divide="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            # 0 next to a flat piece; as m >= 0, the slopes never change sign
            d[1:-1] = np.where((m[:-1] == 0.0) | (m[1:] == 0.0), 0.0, 1.0 / whmean)
            d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        # power-basis coefficients of s = q - q_k on piece k, highest first
        self._coef = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], x[:-1]])

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        knots = self.q_knots
        qc = np.clip(q, knots[0], knots[-1])
        k = np.clip(np.searchsorted(knots, qc, side="right") - 1, 0, knots.size - 2)
        s = qc - knots[k]
        c3, c2, c1, c0 = self._coef[:, k]
        s2 = s * s
        out = c0 + c1 * s + c2 * s2 + c3 * (s2 * s)
        x = self.x_knots
        return np.where(q <= knots[0], x[0], np.where(q >= knots[-1], x[-1], out))

    def integral(self) -> float:
        """Integral of the interpolant between the first and the last knot,
        exact on each cubic piece and summed piece by piece."""
        h = np.diff(self.q_knots)
        c3, c2, c1, c0 = self._coef
        h2 = h * h
        h3 = h2 * h
        pieces = c0 * h + c1 * h2 * 0.5 + c2 * h3 * (1.0 / 3.0) + c3 * (h3 * h) * 0.25
        return float(np.cumsum(pieces)[-1])


# ---------------------------------------------------------------------------
# Factor distributions


_ROOT2 = math.sqrt(2.0)


def _lognormal_tails(tops, sigma: float, t: float, below: bool = False) -> list:
    """``Phi((top - log t) / sigma)`` for each ``top = mu + c sigma^2``, in scalar floats
    with ``Phi(x) = erfc(-x / sqrt 2) / 2``: ``P(q >= t)`` under the lognormal law tilted
    by ``q**c``, so ``c = 0`` gives the survival function.  ``log 0 = -inf`` gives the
    tail 1 at ``t <= 0``, and ``log inf = inf`` the tail 0.  ``below`` gives
    ``P(q < t) = Phi((log t - top) / sigma)`` instead, through erfc as well, so a
    small probability keeps its digits (``1 - P(q >= t)`` cancels)."""
    log_t = -math.inf if t <= 0.0 else math.log(t)
    sign = 1.0 if below else -1.0
    return [0.5 * math.erfc(sign * ((x - log_t) / sigma) / _ROOT2) for x in tops]


class LogNormal:
    """log q ~ Normal(mu, sigma2)."""

    def __init__(self, mu: float, sigma2: float):
        if not (np.isfinite(mu) and np.isfinite(sigma2)) or sigma2 <= 0.0:
            raise ModelError("lognormal needs finite mu and sigma2 > 0")
        self.mu = float(mu)
        self.sigma2 = float(sigma2)
        self.sigma = math.sqrt(sigma2)

    def prob_below(self, t) -> np.ndarray:
        """P(q < t) at each ``t``; the law has no atoms, so this is the CDF."""
        t = np.ravel(np.asarray(t, dtype=float)).tolist()
        return np.array([_lognormal_tails((self.mu,), self.sigma, x, True)[0] for x in t])

    def moment(self, c: float) -> float:
        """E[q**c]; ``ModelError`` where it exceeds the float range."""
        return self._exp(c * self.mu + 0.5 * c * c * self.sigma * self.sigma,
                         f"E[q**c] at exponent c = {c!r}")

    def mean(self) -> float:
        return self._exp(self.mu + 0.5 * self.sigma2, "E[q]")

    def _exp(self, log_value: float, what: str) -> float:
        try:
            return math.exp(log_value)
        except OverflowError:
            raise ModelError(f"{what} overflows under "
                             f"lognormal(mu={self.mu!r}, sigma2={self.sigma2!r})") from None

    def quantile(self, u):
        return np.exp(self.mu + self.sigma * norm_ppf(u))


class PointMass:
    """Finite mixture of point masses on the nonnegative half-line."""

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

    def prob_below(self, t) -> np.ndarray:
        """P(q < t) at each ``t``."""
        return np.array([self.probs[self.atoms < x].sum() for x in np.ravel(t).tolist()])

    def mean(self) -> float:
        return float(self.probs @ self.atoms)

    def quantile(self, u):
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(cum, np.asarray(u, dtype=float), side="left")
        return self.atoms[np.clip(idx, 0, self.atoms.size - 1)]


class Empirical(PointMass):
    """Equally weighted sample treated as an exact discrete law."""

    def __init__(self, sample):
        sample = np.asarray(sample, dtype=float)
        if sample.ndim != 1 or sample.size == 0:
            raise ModelError("empirical sample must be a nonempty 1-d array")
        super().__init__(sample, np.full(sample.size, 1.0 / sample.size))


class Uniform01:
    """Uniform factor on [0, 1], used for quantile-coupled endowments."""

    def prob_below(self, t) -> np.ndarray:
        """P(q < t) at each ``t``."""
        return np.clip(np.ravel(np.asarray(t, dtype=float)), 0.0, 1.0)

    def mean(self) -> float:
        return 0.5

    def quantile(self, u):
        return np.asarray(u, dtype=float)


# ---------------------------------------------------------------------------
# Partial expectations

QUAD_TOL = 1e-12  # largest relative gap between a split's halves and the whole
QUAD_MAX_DEPTH = 48  # deepest split before the integral counts as divergent


@functools.cache
def _gl_rule():
    # the 15-point rule, built on the first quadrature: numpy.polynomial
    # costs every command that never integrates a few ms of import
    return np.polynomial.legendre.leggauss(15)


def _gauss_legendre(func, lo: float, hi: float) -> float:
    nodes, weights = _gl_rule()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(weights @ func(mid + half * nodes))


def adaptive_gauss_legendre(func, lo, hi):
    """Adaptive 15-point Gauss-Legendre integration on a finite interval."""
    whole = _gauss_legendre(func, lo, hi)
    stack = [(lo, hi, whole, 0)]
    total = 0.0
    while stack:
        a, b, est, depth = stack.pop()
        mid = 0.5 * (a + b)
        left = _gauss_legendre(func, a, mid)
        right = _gauss_legendre(func, mid, b)
        if abs(left + right - est) <= QUAD_TOL * max(1.0, abs(left + right)):
            total += left + right
            continue
        if depth >= QUAD_MAX_DEPTH:
            raise QuadratureError(
                "integral did not converge; the integrand may be non-integrable"
            )
        stack.append((a, mid, left, depth + 1))
        stack.append((mid, b, right, depth + 1))
    return total


def _quadrature_pe(dist, f, a: float, b: float) -> float:
    # integrate f(q) * density over [a, b) against a finite support window
    if isinstance(dist, Uniform01):
        # the density is 1 on [0, 1], where every node lies
        edges = [max(a, 0.0), min(b, 1.0)]

        def func(q):
            return np.asarray(f(q), dtype=float)

    else:
        # lognormal: in y = (log q - mu) / sigma against the normal density on |y| <= 40,
        # split at the map's knots: in q, [1, inf) is a window 1e17 wide
        # whose first Gauss-Legendre nodes all miss the mass
        y = [-math.inf if v <= 0.0 else (math.log(v) - dist.mu) / dist.sigma
             for v in (a, b, *getattr(f, "q_knots", ()))]
        lo, hi = max(y[0], -40.0), min(y[1], 40.0)
        edges = [lo, *(t for t in y[2:] if lo < t < hi), hi]

        def func(t):
            q = np.exp(dist.mu + dist.sigma * t)
            return np.asarray(f(q), dtype=float) * np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    pieces = zip(edges, edges[1:])
    return sum((adaptive_gauss_legendre(func, u, v) for u, v in pieces if u < v), 0.0)


def partial_expectation(dist, f, a: float, b: float):
    """``(P(q in [a, b)), E[f(q) 1{q in [a, b)}])`` as floats.

    The one-map case of ``_interval_moments``: an atom sum under a discrete
    law, the closed form for a power map under a lognormal or uniform law,
    adaptive quadrature for any other map.
    """
    if a > b:
        raise ModelError(f"interval endpoints out of order: a={a} > b={b}")
    if a == b:
        return 0.0, 0.0
    prob, pe = _interval_moments((f,), dist)(a, b)
    return float(prob), float(pe[0])


# ---------------------------------------------------------------------------
# Factor model


def _map_params(f):
    """``(shift, coef, exponent)`` arrays when every map of ``f`` is a
    ``PowerMap`` (``AffineMap`` included), else None."""
    if not all(isinstance(fi, PowerMap) for fi in f):
        return None
    return tuple(np.array([getattr(fi, k) for fi in f]) for k in ("shift", "coef", "exponent"))


def _evaluate(f, q: np.ndarray, banks):
    """Maps ``f[i]`` for ``i`` in ``banks`` at ``q``, stacked on a last axis."""
    cols = [f[i](q) for i in banks]
    for i, v in zip(banks, cols):
        if np.shape(v) != q.shape:
            raise ModelError(f"map {i}: map must evaluate elementwise on arrays")
    return np.stack(cols, axis=-1)


_MONOTONE_GRID = np.concatenate(([0.0], np.geomspace(1e-9, 1e6, 151)))
_MAP_FAULTS = ("produced non-finite values", "must be nonnegative on q >= 0",
               "must be nondecreasing")


@dataclass(frozen=True)
class FactorModel:
    """Per-bank nondecreasing endowment maps plus the factor law."""

    f: tuple
    dist: object

    def __init__(self, f, dist):
        f = tuple(f)
        if not isinstance(dist, (LogNormal, PointMass, Uniform01)):
            raise ModelError(f"unknown factor law {type(dist).__name__}")
        for i, fi in enumerate(f):
            if not callable(fi):
                raise ModelError(f"map {i} is not callable")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "_params", _map_params(f))
        # a power map's constructor has checked what the grid would; probing it
        # would refuse a valid map whose large exponent overflows at the grid's end
        probe = [i for i, fi in enumerate(f) if not isinstance(fi, PowerMap)]
        if not probe:
            return
        grid = _MONOTONE_GRID
        if isinstance(dist, Uniform01):
            # stop short of u = 1: quantile maps of unbounded laws diverge there
            grid = np.linspace(0.0, 1.0 - 1e-9, 201)
        vals = _evaluate(f, grid, probe)
        with np.errstate(invalid="ignore"):
            drop = np.diff(vals, axis=0) < -1e-12 * np.maximum(1.0, np.abs(vals[:-1]))
            bad = np.array([~np.isfinite(vals).all(0), (vals < 0.0).any(0), drop.any(0)])
        if bad.any():
            k = int(np.flatnonzero(bad.any(axis=0))[0])
            raise ModelError(f"map {probe[k]}: map {_MAP_FAULTS[int(np.argmax(bad[:, k]))]}")

    @property
    def n(self) -> int:
        return len(self.f)

    def endowments(self, q):
        """Evaluate all maps at ``q`` of any shape; banks on the last axis.

        When every map is a ``PowerMap`` this is one array expression in
        place of ``n`` map calls.  At exponents 0.5 and 2 numpy's
        single-map ``np.power`` takes its ``sqrt`` and square fast paths,
        which may differ from this broadcast ``pow`` in the last bit.
        """
        q = np.asarray(q, dtype=float)
        if self._params is None:
            return _evaluate(self.f, q, range(self.n))
        shift, coef, expo = self._params
        with np.errstate(over="ignore"):
            return shift + coef * np.power(q[..., None], expo)


# ---------------------------------------------------------------------------
# Solvency thresholds


@dataclass(frozen=True)
class SolvencyThresholds:
    """Threshold factor values above which each bank is solvent.

    ``q_star[i]`` is the lowest factor value making bank ``i`` solvent
    (``inf`` if it never is, ``0`` if it always is).  ``order`` lists bank
    indices by nonincreasing threshold, the order in which the sweep adds
    them to the default set.
    """

    q_star: np.ndarray
    order: np.ndarray


def _next_default(g, target: np.ndarray, hint: float, cap) -> tuple[float, int]:
    """The largest ``sup{q in [0, cap] : g_i(q) < target_i}`` and its bank ``i``.

    ``g(q)`` evaluates the nondecreasing continuous ``g_i`` of every bank
    at one factor value.  One scalar search finds where the most fragile
    bank turns solvent.  The bracket starts as ``[0, hint]``; ``hi``
    doubles until every bank is solvent there, and each probe that leaves
    a bank insolvent becomes ``lo``.  Regula falsi on ``F = g - target``
    then shrinks the bracket below ``BISECT_REL_TOL``: the next probe is
    the largest secant root of the banks insolvent at ``lo``, each through
    its own ``F`` at both ends (the root of ``min_i F_i`` would stall at its
    kinks), at least half a tolerance inside the bracket.  When one end
    moves twice in a row the other end's ``F`` is halved (Illinois, Dowell
    & Jarratt 1971); after three moves in a row, or when the estimate
    leaves ``[lo, hi]``, the probe is the midpoint, so the bracket halves
    at least once in four probes however stiff ``F`` is.  The bank is the
    lowest index still insolvent at ``lo``.

    Only banks insolvent at 0 count (the others' supremum is 0).  ``cap``
    bounds the factor's support (quantile maps of a uniform factor cannot
    be evaluated past 1).  A bank still insolvent after
    ``BRACKET_MAX_DOUBLINGS`` doublings is never solvent (inf) if the last
    doubling left its ``g`` where it was; if ``g`` still rose, the search
    raises ``ModelError``.
    """
    top = np.inf if cap is None else cap
    probe = g if cap is None else (lambda q: g(min(q, cap - 1e-13)))
    g_lo = g(0.0)
    low = np.flatnonzero(g_lo < target)
    if not low.size:
        return 0.0, 0
    target = np.where(g_lo < target, target, -np.inf)
    lo, hi = 0.0, min(hint if np.isfinite(hint) and hint > 0.0 else 1.0, top)
    g_hi = probe(hi)
    todo = np.flatnonzero(g_hi < target)
    doublings = 0
    while todo.size:
        if hi >= top:
            return top, int(todo[0])
        if doublings == BRACKET_MAX_DOUBLINGS:
            if np.all(g_hi[todo] <= g_lo[todo]):
                return np.inf, int(todo[0])
            raise ModelError(f"no solvency bracket after {doublings} doublings of the factor")
        lo, g_lo, low = hi, g_hi, todo
        hi = min(hi * 2.0, top)
        g_hi = probe(hi)
        if np.any(g_hi[todo] < g_lo[todo] - 1e-12 * np.maximum(1.0, np.abs(g_lo[todo]))):
            raise ModelError("endowment map decreased during bracketing")
        doublings += 1
        todo = todo[g_hi[todo] < target[todo]]
    f_lo, f_hi = g_lo - target, g_hi - target
    side = streak = 0  # the end the last probes replaced (-1 lo, 1 hi), how many in a row
    for _ in range(BISECT_MAX_ITER):
        tol = BISECT_REL_TOL * max(hi, 1.0)
        if hi - lo <= tol:
            break
        q = 0.5 * (lo + hi)
        if streak < 3:
            fl = f_lo[low]
            secant = lo + (hi - lo) * float(np.max(fl / (fl - f_hi[low])))
            if lo <= secant <= hi:
                q = secant
        # half a tolerance inside, so a probe next to the root closes the bracket
        q = min(max(q, lo + 0.5 * tol), hi - 0.5 * tol)
        f = probe(q) - target
        below = np.flatnonzero(f < 0.0)
        moved = -1 if below.size else 1
        streak = streak + 1 if moved == side else 1
        side = moved
        if below.size:
            lo, f_lo, low = q, f, below
            if streak > 1:
                f_hi *= 0.5
        else:
            hi, f_hi = q, f
            if streak > 1:
                f_lo *= 0.5
    return 0.5 * (lo + hi), int(low[0])


def _pivot(s: float) -> float:
    # the coupled block is strictly column diagonally dominant, so every pivot is positive
    if not (math.isfinite(s) and s > 0.0):
        raise RuntimeError("internal invariant violation: default-set pivot is not positive")
    return s


def _sweep(net: FinancialNetwork, model: FactorModel, moments=None):
    """Iteratively peel off the most fragile bank to locate all thresholds.

    At each step the candidate threshold of a still-solvent bank ``i`` is
    the supremum of factor values keeping it insolvent given the current
    default set; the bank with the largest candidate (the lowest index
    among ties) defaults next.  The running minimum with the previous
    threshold handles defaults triggered jointly by a predecessor's
    failure.  Maps affine in ``u = q**c`` (affine or power maps with
    exponents in ``{0, c}``) give the candidates as closed-form roots in
    ``u``, mapped back by ``u**(1/c)``; otherwise one scalar search
    (``_next_default``, warm-started at the previous threshold) finds the
    largest candidate and its bank.

    The sweep carries only ``A^{-1}``, the inverse of the coupled block
    ``A = I - K[T, T]`` of ``M(z)`` (``clearing._block_inverse``), and applies
    ``M(z)^{-1} R = R + K[:, T] A^{-1} R_T`` as the clearing kernel does.  A default
    adds one bank to the block by bordering, a Schur complement in O(n |T|); a held
    bank, whose ``Gamma`` column is already in the block, is first dropped from it.
    Every column of ``K`` sums to below 1 (``pi_soc > 0``, ``Gamma`` row sums below
    1), so ``A`` is strictly column diagonally dominant for every ``z`` and the
    bordering is elimination without pivoting on it: every pivot is positive.
    ``Pi^T p_bar`` is computed once; a default changes only its own entry of
    ``a_x(z)``, ``c(z)`` and the right-hand sides, and each rank-one update
    of ``A^{-1}`` goes through one preallocated ``n x n`` buffer.
    Each rung is ``Delta_k = M^{-1} diag(a_x(z))`` and ``delta_k = M^{-1} c(z)``.

    On ``I_k = [q_{k+1}, q_k)`` (``q_0 = inf``, ``q_{n+1} = 0``) exactly the first
    ``k`` banks of ``order`` default and wealths are ``Delta_k f(q) - delta_k``.
    Given ``moments`` (``_interval_moments``), the sweep adds the interval's term
    ``Delta_k E[f(q); I_k] - delta_k P(I_k)`` to ``EV`` once ``q_{k+1}`` is known;
    ``order[k]`` is solvent exactly on the intervals summed so far, so its ``EE``
    is its ``EV`` then.  Only the current block is kept: O(n^2) memory.  Returns
    ``(SolvencyThresholds, EV, EE)``; without ``moments`` both are zero.
    """
    if model.n != net.n:
        raise ModelError(f"model has {model.n} maps but network has {net.n} banks")
    n = net.n
    affine = None
    if model._params is not None:
        shift, coef, expo = model._params
        powers = expo[expo > 0.0]
        power = float(powers[0]) if powers.size else 1.0
        if np.all(powers == power):
            # exponents in {0, c}: the maps are affine in u = q**c
            affine = (shift + np.where(expo == 0.0, coef, 0.0), np.where(expo == power, coef, 0.0))
    cap = 1.0 if isinstance(model.dist, Uniform01) else None

    z = np.zeros(n, dtype=bool)
    q_star = np.empty(n)
    order = np.empty(n, dtype=int)
    EV, EE = np.zeros(n), np.zeros(n)
    # the block in buffers of n slots, filled to m: banks T[:m], KT[:m] = K[:, T]^T
    # and B[:m, :m] = A^{-1}; it starts as the held banks (empty when Gamma = 0)
    held = net.Gamma.any(axis=1)
    T0, KT0, B0 = _block_inverse(net, z, held)
    m = T0.size
    T, KT, B = np.empty(n, dtype=int), np.empty((n, n)), np.empty((n, n))
    T[:m], KT[:m], B[:m, :m] = T0, KT0, B0
    W = np.empty((n, n))  # each rank-one update of B, so B changes in place
    # a_x(z), b(z) (clearing._haircuts) and the right-hand sides R0 at z = 0, changed
    # bank by bank as z grows: c(z) = p_bar - b(z) Pi^T p_bar (clearing._rhs) and, on
    # the affine branch, a_x(z) times the maps' two coefficients in u
    a_x, b_L = _haircuts(net, z)
    ax_d, bL_d = _haircuts(net, True)
    Pi_p = net.Pi.T @ net.p_bar
    R0 = (net.p_bar - Pi_p)[:, None]
    if affine is not None:
        R0 = np.column_stack((R0, affine[0], affine[1]))
    remaining = np.arange(n)
    q_prev = np.inf

    def apply_inverse(r):
        # M(z)^{-1} r through the current block
        return r + KTm.T @ (Bm @ r[Tm])

    for k in range(n + 1):
        Tm, KTm, Bm = T[:m], KT[:m], B[:m, :m]
        R = apply_inverse(R0)
        d = R[:, 0]
        q_k = 0.0
        if k < n:
            target = d[remaining]
            if affine is not None:
                a, b = R[remaining, 1], R[remaining, 2]
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    sups = np.where(a >= target, 0.0, np.where(b <= 0.0, np.inf, (target - a) / b))
                    if power != 1.0:
                        sups = sups ** (1.0 / power)
                at = int(np.argmax(sups))
                sup = float(sups[at])
            else:
                def g(q):
                    return apply_inverse(a_x * model.endowments(q))[remaining]

                sup, at = _next_default(g, target, q_prev, cap)
            pick = int(remaining[at])
            q_k = min(q_prev, sup)
        if moments is not None and q_k < q_prev:
            prob, pe = moments(q_k, q_prev)
            EV += apply_inverse(a_x * pe) - d * prob
        if k == n:
            break
        EE[pick] = EV[pick]
        q_star[pick] = q_k
        order[k] = pick
        remaining = remaining[remaining != pick]
        if held[pick]:
            # a held bank: swap it into the last slot and drop its row and column
            t, m = int(np.flatnonzero(Tm == pick)[0]), m - 1
            T[[t, m]], KT[[t, m]] = T[[m, t]], KT[[m, t]]
            B[[t, m], : m + 1] = B[[m, t], : m + 1]
            B[: m + 1, [t, m]] = B[: m + 1, [m, t]]
            np.multiply(B[:m, m, None], B[m, :m] / _pivot(B[m, m]), out=W[:m, :m])
            B[:m, :m] -= W[:m, :m]
        # border the defaulter: its row of K scales by b, its column turns to Pi^T
        z[pick] = True
        a_x[pick], b_L[pick] = ax_d, bL_d
        R0[pick, 0] = net.p_bar[pick] - bL_d * Pi_p[pick]
        if affine is not None:
            R0[pick, 1:] = ax_d * affine[0][pick], ax_d * affine[1][pick]
        KT[:m, pick] *= bL_d
        KT[m] = net.Pi[pick] * b_L
        Bm, kt = B[:m, :m], KT[m, T[:m]]
        u = Bm @ kt
        v = KT[:m, pick] @ Bm
        s = _pivot(1.0 - v @ kt)
        u /= s
        np.multiply(u[:, None], v, out=W[:m, :m])
        Bm += W[:m, :m]
        B[:m, m], B[m, :m], B[m, m] = u, v / s, 1.0 / s
        T[m] = pick
        m += 1
        q_prev = q_k

    return SolvencyThresholds(q_star=q_star, order=order), EV, EE


def solvency_thresholds(net: FinancialNetwork, model: FactorModel) -> SolvencyThresholds:
    """Solvency thresholds of every bank by the threshold sweep (``_sweep``)."""
    return _sweep(net, model)[0]


# ---------------------------------------------------------------------------
# Expected values


def _interval_moments(f, dist):
    """``moments(a, b)``: ``P(I)`` and ``E[f_i(q) 1{q in I}]`` per map on
    ``I = [a, b)``, ``a < b``; the only code that turns a factor law into these.

    A discrete law sums each map over its atoms in ``I``.  Under a lognormal or
    uniform law a ``PowerMap`` column is ``shift P(I) + coef E[q**c; I]``, one
    ``E[q**c; I]`` per distinct exponent: ``E[q**c] P_c(I)`` from the tilted tails at
    both endpoints (``P_c`` the lognormal tilted by ``q**c``), or
    ``(hi * hi**c - lo * lo**c) / (c + 1)`` with ``[lo, hi] = I`` clipped to ``[0, 1]``.
    Other columns integrate (``_quadrature_pe``).
    """
    if isinstance(dist, PointMass):
        def discrete(a: float, b: float):
            sel = (dist.atoms >= a) & (dist.atoms < b)
            if not sel.any():
                return 0.0, np.zeros(len(f))
            w, x = dist.probs[sel], dist.atoms[sel]
            return float(w.sum()), np.array([w @ np.asarray(fi(x), dtype=float) for fi in f])

        return discrete
    power = [i for i, fi in enumerate(f) if isinstance(fi, PowerMap)]
    rest = [i for i, fi in enumerate(f) if not isinstance(fi, PowerMap)]
    shift, coef, expo = _map_params([f[i] for i in power])
    # np.unique imports numpy.ma on first use (numpy 2.4), 5 ms of a CLI call
    expos = sorted(set(expo.tolist()))
    col = np.searchsorted(expos, expo)
    if isinstance(dist, LogNormal):
        scale = np.array([dist.moment(c) for c in expos])
        sigma = dist.sigma
        tops = [dist.mu + c * sigma * sigma for c in (0.0, *expos)]

        def tilted(a: float, b: float):
            pa, *ta = _lognormal_tails(tops, sigma, a)
            pb, *tb = _lognormal_tails(tops, sigma, b)
            return pa - pb, scale * (np.array(ta) - np.array(tb))
    elif isinstance(dist, Uniform01):
        c = np.array(expos)

        def tilted(a: float, b: float):
            lo, hi = min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0)
            # hi * hi**c, not hi**(c + 1), which can miss hi * hi by one spacing at c = 1
            return hi - lo, (hi * hi**c - lo * lo**c) / (c + 1.0)
    else:
        raise ModelError(f"unknown factor law {type(dist).__name__}")

    def moments(a: float, b: float):
        prob, m = tilted(a, b)
        pe = np.empty(len(f))
        pe[power] = shift * prob + coef * m[col]
        for i in rest:
            pe[i] = _quadrature_pe(dist, f[i], a, b)
        return prob, pe

    return moments


@dataclass(frozen=True)
class ExpectedValues:
    """Per-bank default probability and expected wealth, payment, equity, and
    society's expected take ``E_soc``; ``thresholds`` only from the threshold sweep."""

    pd: np.ndarray
    EV: np.ndarray
    Ep: np.ndarray
    EE: np.ndarray
    E_soc: float
    thresholds: SolvencyThresholds | None = None


def expected_values(net: FinancialNetwork, model: FactorModel) -> ExpectedValues:
    """Closed-form expectations under a comonotonic factor model.

    Between consecutive sorted thresholds the default set is constant, so
    each expectation is a sum over factor intervals of
    ``Delta_k E[f(q); interval] - delta_k P(interval)``, which the threshold
    sweep adds up as it goes; payments pick up only the intervals below a
    bank's own threshold and equity only those above.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        th, EV, EE = _sweep(net, model, _interval_moments(model.f, model.dist))
        Ep = net.p_bar + (EV - EE)
    if not np.isfinite(Ep).all():
        # a map's values, though finite, can overflow once scaled by a moment
        raise ModelError("expected wealths overflow the float range")
    return ExpectedValues(pd=model.dist.prob_below(th.q_star), EV=EV, Ep=Ep, EE=EE,
                          E_soc=float(net.pi_soc @ Ep), thresholds=th)
