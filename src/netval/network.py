"""Financial network data model: liabilities, relative weights, recovery rates.

Also the two kinds of failure every module raises, and the network CSV format.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """Raised for well-formed input outside the model's domain (CLI exit 5)."""


class SchemaError(ValueError):
    """Raised when a CSV or JSON input does not match its documented layout (CLI exit 4)."""


class NetworkError(DomainError):
    """Raised when a liabilities structure violates the model assumptions."""


def finite_floats(cells, where: str, count=None) -> list:
    """Text ``cells`` as floats by the JSON number rule: a cell that is not a number,
    or is ``nan`` or infinite, or other than ``count`` cells, is a ``SchemaError``
    naming ``where``."""
    try:
        values = [float(c) for c in cells]
    except ValueError:
        values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise SchemaError(f"{where}: expected finite numbers, got {','.join(cells)!r}")
    if count is not None and len(values) != count:
        raise SchemaError(f"{where}: expected {count} numbers, got {len(values)}")
    return values


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FinancialNetwork:
    """Static interbank network of n banks plus an implicit societal sink node.

    Attributes
    ----------
    n : int
        Number of banks.  The societal node is column ``n`` of ``L`` and is
        not represented as a row (it has no liabilities).
    L : ndarray, shape (n, n+1)
        Nominal liabilities in currency units; ``L[i, j]`` is what bank ``i``
        owes bank ``j``, and column ``n`` holds obligations to society.
    p_bar : ndarray, shape (n,)
        Total liabilities, the row sums of ``L``.
    Pi : ndarray, shape (n, n)
        Relative interbank liabilities ``L[i, j] / p_bar[i]``.
    pi_soc : ndarray, shape (n,)
        Relative liability to the societal node, ``1 - Pi.sum(axis=1)``.
    alpha_x : float
        Recovery rate on external assets of a defaulting bank, in [0, 1].
    alpha_L : float
        Recovery rate on interbank assets of a defaulting bank, in [0, 1].
    Gamma : ndarray, shape (n, n)
        Cross-ownership fractions (bank j owns ``Gamma[i, j]`` of bank i's
        equity).  All zeros when cross-ownership is absent.

    Instances are immutable; the arrays are read-only views.
    """

    n: int
    L: np.ndarray
    p_bar: np.ndarray
    Pi: np.ndarray
    pi_soc: np.ndarray
    alpha_x: float
    alpha_L: float
    Gamma: np.ndarray = field(repr=False, default=None)

    @property
    def full_recovery(self) -> bool:
        return self.alpha_x == 1.0 and self.alpha_L == 1.0

    @property
    def has_cross_ownership(self) -> bool:
        return bool(np.any(self.Gamma != 0.0))

    def interbank_assets(self) -> np.ndarray:
        """Nominal interbank assets per bank, ``sum_j L[j, i]``."""
        return self.L[:, : self.n].sum(axis=0)


def build_network(L, alpha_x: float, alpha_L: float, Gamma=None) -> FinancialNetwork:
    """Validate a liabilities matrix and derive the relative-liability fields.

    Parameters
    ----------
    L : array_like, shape (n, n+1)
        Nonnegative nominal liabilities; the last column is owed to society.
    alpha_x, alpha_L : float
        Recovery rates in [0, 1] applied to a defaulting bank's external and
        interbank assets respectively.
    Gamma : array_like, shape (n, n), optional
        Cross-ownership matrix with row sums strictly below 1.

    Raises
    ------
    NetworkError
        On any structural violation; the message names the offending bank.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] < 1 or L.shape[1] != L.shape[0] + 1:
        raise NetworkError(
            f"liabilities matrix must have shape (n, n+1), got {L.shape}"
        )
    n = L.shape[0]
    if not np.all(np.isfinite(L)):
        i = int(np.argwhere(~np.isfinite(L).all(axis=1)).ravel()[0])
        raise NetworkError(f"bank {i}: non-finite liability entry")
    if np.any(L < 0.0):
        i, j = map(int, np.argwhere(L < 0.0)[0])
        raise NetworkError(f"bank {i}: negative liability to node {j}")
    diag = np.diagonal(L[:, :n])
    if np.any(diag != 0.0):
        i = int(np.argwhere(diag != 0.0).ravel()[0])
        raise NetworkError(f"bank {i}: self-obligation L[{i},{i}] must be zero")

    p_bar = L.sum(axis=1)
    if np.any(p_bar <= 0.0):
        i = int(np.argwhere(p_bar <= 0.0).ravel()[0])
        raise NetworkError(f"bank {i}: total liabilities must be positive")
    if np.any(L[:, n] <= 0.0):
        i = int(np.argwhere(L[:, n] <= 0.0).ravel()[0])
        raise NetworkError(f"bank {i}: missing obligation to the societal node")

    for name, a in (("alpha_x", alpha_x), ("alpha_L", alpha_L)):
        if not (np.isfinite(a) and 0.0 <= a <= 1.0):
            raise NetworkError(f"{name} must lie in [0, 1], got {a}")

    if Gamma is None:
        Gamma = np.zeros((n, n))
    else:
        Gamma = np.asarray(Gamma, dtype=float)
        if Gamma.shape != (n, n):
            raise NetworkError(
                f"cross-ownership matrix must have shape {(n, n)}, got {Gamma.shape}"
            )
        if not np.all(np.isfinite(Gamma)) or np.any(Gamma < 0.0):
            raise NetworkError("cross-ownership entries must be finite and nonnegative")
        rows = Gamma.sum(axis=1)
        if np.any(rows >= 1.0):
            i = int(np.argwhere(rows >= 1.0).ravel()[0])
            raise NetworkError(f"bank {i}: cross-ownership row sum must be below 1")

    Pi = L[:, :n] / p_bar[:, None]
    pi_soc = L[:, n] / p_bar
    return FinancialNetwork(
        n=n,
        L=_readonly(L),
        p_bar=_readonly(p_bar),
        Pi=_readonly(Pi),
        pi_soc=_readonly(pi_soc),
        alpha_x=float(alpha_x),
        alpha_L=float(alpha_L),
        Gamma=_readonly(Gamma),
    )


def network_from_relative(
    Pi, p_bar, alpha_x: float, alpha_L: float, Gamma=None
) -> FinancialNetwork:
    """Rebuild a network from relative liabilities and totals.

    The societal share of each row is ``1 - Pi.sum(axis=1)``; round-tripping
    ``build_network`` output reproduces ``L`` up to floating-point error.
    """
    Pi = np.asarray(Pi, dtype=float)
    p_bar = np.asarray(p_bar, dtype=float)
    if Pi.ndim != 2 or Pi.shape[0] != Pi.shape[1] or Pi.shape[0] != p_bar.shape[0]:
        raise NetworkError("relative liabilities must be square and match p_bar")
    soc = 1.0 - Pi.sum(axis=1)
    L = np.empty((Pi.shape[0], Pi.shape[0] + 1))
    L[:, : Pi.shape[0]] = Pi * p_bar[:, None]
    L[:, Pi.shape[0]] = soc * p_bar
    return build_network(L, alpha_x, alpha_L, Gamma)


# ---------------------------------------------------------------------------
# Network CSV: header ``n,alpha_x,alpha_L``, a values row, n liability rows and
# an optional ``gamma`` block of n cross-ownership rows


def network_csv_text(net: FinancialNetwork) -> str:
    """The network CSV as a string (used for byte-stable CLI output)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "alpha_x", "alpha_L"])
    w.writerow([str(net.n), repr(float(net.alpha_x)), repr(float(net.alpha_L))])
    for row in net.L.tolist():
        w.writerow(map(repr, row))
    if net.has_cross_ownership:
        w.writerow(["gamma"])
        for row in net.Gamma.tolist():
            w.writerow(map(repr, row))
    return buf.getvalue()


def write_network_csv(path: str, net: FinancialNetwork) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(network_csv_text(net))


def read_network_csv(path: str) -> FinancialNetwork:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["n", "alpha_x", "alpha_L"]:
        raise SchemaError("network CSV must start with header n,alpha_x,alpha_L")
    try:
        n = int(rows[1][0]) if len(rows) > 1 and len(rows[1]) >= 3 else 0
    except ValueError:
        n = 0
    if n < 1:
        raise SchemaError("line 2: network CSV values row must be n,alpha_x,alpha_L with n >= 1")
    alpha_x, alpha_L = finite_floats(rows[1][1:3], "line 2")
    if len(rows) < 2 + n:
        raise SchemaError(f"network CSV needs {n} liability rows")
    L = [finite_floats(rows[k], f"line {k + 1}", n + 1) for k in range(2, 2 + n)]
    Gamma = None
    rest = [k for k in range(2 + n, len(rows)) if rows[k]]
    if rest:
        if rows[rest[0]] != ["gamma"]:
            raise SchemaError(f"line {rest[0] + 1}: only a gamma block may follow the liabilities")
        if len(rest) != 1 + n:
            raise SchemaError(f"gamma block needs {n} rows")
        Gamma = [finite_floats(rows[k], f"line {k + 1}", n) for k in rest[1:]]
    return build_network(L, alpha_x, alpha_L, Gamma)
