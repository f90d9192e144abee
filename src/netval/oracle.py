"""Validators: default-region enumeration, Monte Carlo and bisection.

They avoid the comonotonic closed forms (threshold ladder, expectations) but
share the clearing kernel: regions are built from ``delta_matrix`` and
``delta_vector``, and the rest calls ``greatest_clearing`` or its batch form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .clearing import (
    ZERO_TOL,
    delta_matrix,
    delta_vector,
    greatest_clearing,
    greatest_clearing_batch,
)
from .network import FinancialNetwork

REGION_MAX_BANKS = 12

_KIND_TAGS = {
    "comonotonic-factor": 1,
    "capm": 2,
    "gaussian-copula-lognormal": 3,
    "finite-support": 4,
}

_U_FLOOR = 1e-300


class OracleError(ValueError):
    """Raised for invalid simulation specs or oversized region requests."""


# ---------------------------------------------------------------------------
# Default regions


@dataclass(frozen=True)
class DefaultRegion:
    """Endowment region generating default pattern ``z``.

    ``halfspaces`` holds (row, bound, strict) triples meaning
    ``row @ x > bound`` when strict else ``row @ x >= bound``.  Under
    bankruptcy costs the raw halfspace set is not the region itself:
    the regions of every strictly smaller default pattern listed in
    ``excluded`` must be subtracted.
    """

    z: tuple
    halfspaces: tuple
    excluded: tuple = field(default=())

    def raw_contains_batch(self, X: np.ndarray) -> np.ndarray:
        ok = np.ones(X.shape[0], dtype=bool)
        for row, bound, strict in self.halfspaces:
            v = X @ row
            ok &= (v > bound) if strict else (v >= bound)
        return ok


def enumerate_regions(net: FinancialNetwork) -> list:
    """All 2^n candidate default regions, fewest defaults first."""
    n = net.n
    if n > REGION_MAX_BANKS:
        raise OracleError(
            f"region enumeration over {n} banks needs 2^{n} patterns; "
            f"refusing above {REGION_MAX_BANKS} (curse of dimensionality)"
        )
    costs = min(net.alpha_x, net.alpha_L) < 1.0
    regions = []
    seen = []
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            z = np.zeros(n, dtype=bool)
            z[list(combo)] = True
            D = delta_matrix(net, z)
            d = delta_vector(net, z)
            sign = 1.0 - 2.0 * z
            halfspaces = tuple(
                (sign[i] * D[i], float(sign[i] * d[i]), bool(costs and z[i]))
                for i in range(n)
            )
            zt = tuple(int(v) for v in z)
            excluded = tuple(
                zb for zb in seen if all(a <= b for a, b in zip(zb, zt))
            ) if costs else ()
            regions.append(DefaultRegion(z=zt, halfspaces=halfspaces, excluded=excluded))
            seen.append(zt)
    return regions


def classify_batch(net: FinancialNetwork, X, regions=None) -> np.ndarray:
    """Default pattern of each row of ``X`` from the region geometry; (m, n) 0/1."""
    X = np.asarray(X, dtype=float)
    if regions is None:
        regions = enumerate_regions(net)
    m = X.shape[0]
    member = {}
    assigned = np.full(m, -1, dtype=np.int64)
    for idx, reg in enumerate(regions):
        inside = reg.raw_contains_batch(X)
        for zb in reg.excluded:
            inside &= ~member[zb]
        member[reg.z] = inside
        fresh = inside & (assigned < 0)
        assigned[fresh] = idx
    if np.any(assigned < 0):
        raise RuntimeError("internal invariant violation: point escaped every region")
    patterns = np.array([reg.z for reg in regions], dtype=int)
    return patterns[assigned]


def classify(net: FinancialNetwork, x, regions=None) -> np.ndarray:
    """Default pattern of ``x`` found purely from the region geometry."""
    return classify_batch(net, np.asarray(x, dtype=float)[None, :], regions)[0]


# ---------------------------------------------------------------------------
# Scenario generation


@dataclass(frozen=True)
class ScenarioBatch:
    """Endowment draws (paths in rows) plus the spec that generated them."""

    X: np.ndarray
    spec: dict
    seed: int


def _substream_uniforms(seed: int, tag: int, n_paths: int, dims: int, path_offset: int):
    """Counter-based uniforms; path ``k`` always owns the same counter range.

    Philox advances in blocks of four 64-bit words, so each path's word
    budget is padded to a block multiple; that makes any contiguous chunk
    of paths reproducible independently of how the run is split.
    """
    padded = dims + (-dims) % 4
    bg = np.random.Philox(key=np.array([seed, tag], dtype=np.uint64))
    if path_offset:
        bg.advance(path_offset * (padded // 4))
    u = np.random.Generator(bg).random((n_paths, padded))[:, :dims]
    return np.clip(u, _U_FLOOR, None)


def _normals(seed, tag, n_paths, dims, path_offset):
    from scipy.special import ndtri

    return ndtri(_substream_uniforms(seed, tag, n_paths, dims, path_offset))


def simulate(spec: dict, n_paths: int, seed: int, path_offset: int = 0) -> ScenarioBatch:
    """Draw endowment scenarios; deterministic in (spec, seed, path index).

    Chunked generation reproduces a single large draw: the batch starting
    at ``path_offset`` contains exactly the rows a full run would place
    there.
    """
    if n_paths <= 0:
        raise OracleError("n_paths must be positive")
    kind = spec.get("kind")
    if kind not in _KIND_TAGS:
        raise OracleError(f"unknown scenario kind {kind!r}")
    tag = _KIND_TAGS[kind]

    if kind == "comonotonic-factor":
        model = spec["model"]
        u = _substream_uniforms(seed, tag, n_paths, 1, path_offset)[:, 0]
        q = np.asarray(model.dist.quantile(u), dtype=float)
        X = model.endowments(q)
    elif kind == "capm":
        params = spec["params"]
        measure = spec.get("measure", "Q")
        if measure not in ("Q", "P"):
            raise OracleError("capm measure must be 'Q' or 'P'")
        n = params.beta.size
        Z = _normals(seed, tag, n_paths, n + 1, path_offset)
        if measure == "P":
            if params.mu_M is None:
                raise OracleError("physical-measure draws need mu_M")
            drift = params.r + params.beta * (params.mu_M - params.r)
        else:
            drift = np.full(n, params.r)
        T, sM = params.T, params.sigma_M
        log_q = (
            (drift - 0.5 * params.sigma**2) * T
            + params.beta * sM * math.sqrt(T) * Z[:, :1]
            + params.gamma * math.sqrt(T) * Z[:, 1:]
        )
        X = params.s * params.q0 * np.exp(log_q)
    elif kind == "gaussian-copula-lognormal":
        mu = np.asarray(spec["mu"], dtype=float)
        sigma = np.asarray(spec["sigma"], dtype=float)
        corr = np.asarray(spec["corr"], dtype=float)
        n = mu.size
        if sigma.shape != (n,) or corr.shape != (n, n):
            raise OracleError("mu, sigma, corr shapes are inconsistent")
        if np.any(sigma <= 0.0):
            raise OracleError("sigma entries must be positive")
        # scipy's factor, not numpy's: for some matrices from n = 8 on they
        # differ in the last bit, which would change the draws
        from scipy.linalg import cholesky

        try:
            chol = cholesky(corr, lower=True)
        except np.linalg.LinAlgError as exc:
            raise OracleError("correlation matrix is not positive definite") from exc
        Z = _normals(seed, tag, n_paths, n, path_offset)
        X = np.exp(mu + sigma * (Z @ chol.T))
    else:
        atoms = np.asarray(spec["atoms"], dtype=float)
        probs = np.asarray(spec["probs"], dtype=float)
        if atoms.ndim != 2 or probs.shape != (atoms.shape[0],):
            raise OracleError("finite-support spec needs (k, n) atoms and k probs")
        if np.any(probs < 0.0) or abs(probs.sum() - 1.0) > 1e-12:
            raise OracleError("probabilities must be nonnegative and sum to 1")
        if np.any(atoms < 0.0) or not np.all(np.isfinite(atoms)):
            raise OracleError("finite-support atoms must be nonnegative and finite")
        u = _substream_uniforms(seed, tag, n_paths, 1, path_offset)[:, 0]
        idx = np.searchsorted(np.cumsum(probs), u, side="right")
        X = atoms[np.clip(idx, 0, atoms.shape[0] - 1)]

    return ScenarioBatch(X=np.ascontiguousarray(X), spec=spec, seed=seed)


# ---------------------------------------------------------------------------
# Expectation estimators


@dataclass(frozen=True)
class MCExpectations:
    """Sample means with standard errors for the clearing functionals."""

    pd: np.ndarray
    EV: np.ndarray
    Ep: np.ndarray
    EE: np.ndarray
    E_soc: float
    se_pd: np.ndarray
    se_EV: np.ndarray
    se_Ep: np.ndarray
    se_EE: np.ndarray
    se_soc: float
    n_paths: int


@dataclass(frozen=True)
class ExactExpectations:
    """Exact expectations over a finite scenario law."""

    pd: np.ndarray
    EV: np.ndarray
    Ep: np.ndarray
    EE: np.ndarray
    E_soc: float


def _mean_se(A: np.ndarray):
    m = A.shape[0]
    mean = A.mean(axis=0)
    if m > 1:
        se = A.std(axis=0, ddof=1) / math.sqrt(m)
    else:
        se = np.zeros_like(mean)
    return mean, se


def mc_expectations(net: FinancialNetwork, batch: ScenarioBatch) -> MCExpectations:
    """Average the clearing map over a scenario batch, path by path."""
    X = batch.X
    if X.size == 0:
        raise OracleError("empty scenario batch")
    V, p, E, Z = greatest_clearing_batch(net, X)
    soc = p @ net.pi_soc
    pd, se_pd = _mean_se(Z.astype(float))
    EV, se_EV = _mean_se(V)
    Ep, se_Ep = _mean_se(p)
    EE, se_EE = _mean_se(E)
    ms, ss = _mean_se(soc[:, None])
    return MCExpectations(
        pd=pd, EV=EV, Ep=Ep, EE=EE, E_soc=float(ms[0]),
        se_pd=se_pd, se_EV=se_EV, se_Ep=se_Ep, se_EE=se_EE, se_soc=float(ss[0]),
        n_paths=X.shape[0],
    )


def exact_expectations(net: FinancialNetwork, atoms, probs) -> ExactExpectations:
    """Probability-weighted clearing over an explicit finite law."""
    atoms = np.asarray(atoms, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if atoms.ndim != 2 or probs.shape != (atoms.shape[0],):
        raise OracleError("need (k, n) atoms and k probabilities")
    if np.any(probs < 0.0) or abs(probs.sum() - 1.0) > 1e-12:
        raise OracleError("probabilities must be nonnegative and sum to 1")
    V, p, E, Z = greatest_clearing_batch(net, atoms)
    return ExactExpectations(
        pd=probs @ Z,
        EV=probs @ V,
        Ep=probs @ p,
        EE=probs @ E,
        E_soc=float(probs @ (p @ net.pi_soc)),
    )


# ---------------------------------------------------------------------------
# Threshold oracle


def thresholds_by_clearing_bisection(
    net: FinancialNetwork, model, rel_tol: float = 1e-12, max_iter: int = 300
) -> np.ndarray:
    """Per-bank solvency thresholds found by bisecting full clearing calls.

    Uses only the fixed-point clearing solver, never the affine ladder,
    so it is an independent check of the threshold construction.
    """

    def solvent(i: int, q: float) -> bool:
        res = greatest_clearing(net, model.endowments(np.float64(q)))
        return res.V[i] >= -ZERO_TOL

    out = np.empty(net.n)
    for i in range(net.n):
        if solvent(i, 0.0):
            out[i] = 0.0
            continue
        hi = 1.0
        expansions = 0
        while not solvent(i, hi):
            hi *= 2.0
            expansions += 1
            if expansions > 200:
                out[i] = np.inf
                break
        else:
            lo = 0.0
            for _ in range(max_iter):
                if hi - lo <= rel_tol * max(hi, 1.0):
                    break
                mid = 0.5 * (lo + hi)
                if solvent(i, mid):
                    hi = mid
                else:
                    lo = mid
            out[i] = hi
    return out
