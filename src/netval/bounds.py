"""Bounds on expected clearing payments under full recovery.

For any joint endowment law with known marginals, expected payments are
bounded below by the comonotonic coupling of those marginals and above
by payments at the mean endowment (Jensen); conditioning on a common
factor gives an intermediate upper bound.  All three collapse to closed
forms or single clearing calls.  None of this survives bankruptcy
costs: a two-scenario counterexample shows the comonotonic value can
exceed the true expectation when recovery rates are below one, so every
entry point here insists on full recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comonotonic import (
    ExpectedValues,
    FactorModel,
    LogNormal,
    PointMass,
    PowerMap,
    TabulatedMap,
    Uniform01,
    expected_values,
)
from .network import FinancialNetwork
from .oracle import exact_expectations


class BoundsError(ValueError):
    """Raised when a bound is requested outside its validity domain."""


class TabulatedQuantile:
    """Marginal specified by quantile knots on (0, 1), monotone interpolated."""

    def __init__(self, u_knots, x_knots):
        u = np.asarray(u_knots, dtype=float)
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise BoundsError("quantile knots must lie strictly inside (0, 1)")
        self._map = TabulatedMap(u, x_knots)

    def quantile(self, u):
        return self._map(u)

    def mean(self) -> float:
        m = self._map
        u, x = m.q_knots, m.x_knots
        return float(x[0] * u[0] + m.integral() + x[-1] * (1.0 - u[-1]))


@dataclass(frozen=True)
class MarginalSet:
    """Per-bank marginal laws, each answering quantile queries."""

    marginals: tuple

    def __init__(self, marginals):
        marginals = tuple(marginals)
        for i, m in enumerate(marginals):
            if not hasattr(m, "quantile"):
                raise BoundsError(f"marginal {i} has no quantile method")
        object.__setattr__(self, "marginals", marginals)

    @property
    def n(self) -> int:
        return len(self.marginals)

    def means(self) -> np.ndarray:
        return np.array([m.mean() for m in self.marginals])


def _require_full_recovery(net: FinancialNetwork):
    if not net.full_recovery:
        raise BoundsError(
            "payment bounds hold only under full recovery "
            "(alpha_x = alpha_L = 1); with bankruptcy costs a two-scenario "
            "counterexample makes the comonotonic value exceed the true "
            "expected payments, so no bound direction survives"
        )


def _finite_comonotonic_support(marginals):
    """Scenario atoms and weights of the quantile coupling of finite laws."""
    edges = [np.array([0.0])]
    for m in marginals:
        edges.append(np.cumsum(m.probs))
    # sorted set, not np.unique: np.unique imports numpy.ma on first use
    grid = np.array(sorted(set(np.concatenate(edges).tolist())))
    grid = grid[(grid >= 0.0) & (grid <= 1.0)]
    if grid[-1] < 1.0:
        grid = np.append(grid, 1.0)
    weights = np.diff(grid)
    keep = weights > 0.0
    weights = weights[keep]
    mids = (0.5 * (grid[:-1] + grid[1:]))[keep]
    Z = np.column_stack([m.quantile(mids) for m in marginals])
    return Z, weights


def comonotonic_lower(net: FinancialNetwork, marg: MarginalSet) -> ExpectedValues:
    """Expected clearing values under the comonotonic coupling Z = F^{-1}(U).

    Finite marginals are enumerated exactly over the breakpoints of U;
    all-lognormal marginals reduce to a lognormal single-factor threshold
    sweep; anything else runs the uniform-factor sweep with quadrature.
    """
    _require_full_recovery(net)
    if marg.n != net.n:
        raise BoundsError(f"{marg.n} marginals for a {net.n}-bank network")
    ms = marg.marginals

    if all(isinstance(m, PointMass) for m in ms):
        return exact_expectations(net, *_finite_comonotonic_support(ms))

    if all(isinstance(m, LogNormal) for m in ms):
        # F_i^{-1}(U) = e^{mu_i} q^{sigma_i} for the factor q = e^{Phi^{-1}(U)}
        model = FactorModel(
            [PowerMap(np.exp(m.mu), m.sigma) for m in ms], LogNormal(0.0, 1.0)
        )
    else:
        model = FactorModel(
            [(lambda u, m=m: m.quantile(u)) for m in ms], Uniform01()
        )
    return expected_values(net, model)


def jensen_upper(net: FinancialNetwork, mean_x) -> ExpectedValues:
    """Clearing values at the mean endowment, an upper bound by concavity: the
    exact expectation under the point mass on the mean."""
    _require_full_recovery(net)
    return exact_expectations(net, np.reshape(mean_x, (1, -1)), [1.0])


def conditional_upper(net: FinancialNetwork, cond: FactorModel) -> ExpectedValues:
    """Expected clearing values of the factor-conditional means E[X | q].

    The caller supplies cond with f_i(q) = E[X_i | q]; monotonicity is
    enforced by the FactorModel itself.
    """
    _require_full_recovery(net)
    return expected_values(net, cond)
