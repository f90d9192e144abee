"""Balance-sheet calibration, matrix filling, ratio constructions, balance-sheet CSV.

Calibrates a stylized network from per-bank aggregates (total assets,
capital, interbank liabilities), reconstructs a liabilities matrix with
prescribed margins by iterative proportional fitting, and rebuilds
networks to hit target debt-to-firm-value ratios.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .network import (
    DomainError,
    FinancialNetwork,
    SchemaError,
    build_network,
    finite_floats,
    network_from_relative,
)

RAS_TOL = 1e-10
RAS_MAX_ITER = 10000


class CalibrationError(DomainError):
    """Raised for infeasible balance sheets, margins, or target ratios."""


@dataclass(frozen=True)
class BalanceSheet:
    """Per-bank aggregates in currency units."""

    bank_id: str
    total_assets: float
    capital: float
    interbank_liabilities: float


@dataclass(frozen=True)
class CalibrationResult:
    """Stylized balance-sheet decomposition.

    ``s`` is the outside investment (share count at unit initial price),
    ``L_ext`` the external liability, ``p_bar`` total liabilities, and
    ``interbank`` the common row and column margin of the interbank
    matrix (interbank assets are assumed to equal interbank liabilities
    bank by bank).
    """

    bank_ids: tuple
    s: np.ndarray
    L_ext: np.ndarray
    p_bar: np.ndarray
    interbank: np.ndarray


def calibrate(sheets) -> CalibrationResult:
    """Decompose balance sheets into investments and external liabilities.

    Uses s_i = A_i - IB_i, L_ext_i = A_i - IB_i - C_i, p_bar_i = A_i - C_i,
    so the net-worth identity C_i = A_i - p_bar_i holds exactly.
    """
    sheets = list(sheets)
    if not sheets:
        raise CalibrationError("no balance sheets supplied")
    ids, s, lext, pbar, ib = [], [], [], [], []
    for sh in sheets:
        A, C, IB = sh.total_assets, sh.capital, sh.interbank_liabilities
        if min(A, C, IB) < 0.0 or not all(map(math.isfinite, (A, C, IB))):
            raise CalibrationError(f"bank {sh.bank_id}: negative or non-finite entry")
        if IB > A:
            raise CalibrationError(
                f"bank {sh.bank_id}: interbank liabilities exceed total assets"
            )
        if C > A - IB:
            raise CalibrationError(
                f"bank {sh.bank_id}: capital exceeds non-interbank assets, "
                "external liability would be negative"
            )
        ids.append(sh.bank_id)
        s.append(A - IB)
        lext.append(A - IB - C)
        pbar.append(A - C)
        ib.append(IB)
    return CalibrationResult(
        bank_ids=tuple(ids),
        s=np.array(s),
        L_ext=np.array(lext),
        p_bar=np.array(pbar),
        interbank=np.array(ib),
    )


def _max_flow_cut(r, c, adm):
    """Rows and columns the source reaches in the residual graph of a max flow.

    The network is source -> row i (capacity r_i) -> column j (unbounded,
    where ``adm[i, j]``) -> sink (capacity c_j).  Shortest augmenting
    paths (Edmonds-Karp) are found by a breadth-first search vectorized
    over each level; every column the search reaches with spare sink
    capacity ends a path, and all of them are augmented in turn.  Each
    augmentation zeroes its bottleneck residual exactly (``x - x == 0``),
    so the Edmonds-Karp bound on the number of augmentations holds in
    floating point and the loop terminates.
    """
    n = r.size
    F = np.zeros((n, n))
    src = r.copy()  # residual capacity source -> row
    snk = c.copy()  # residual capacity column -> sink
    while True:
        row_from = np.full(n, -2)  # -1: from the source; j >= 0: back along F[i, j]
        col_from = np.full(n, -1)  # the row whose forward edge reached the column
        seen_col = np.zeros(n, dtype=bool)
        frontier = np.flatnonzero(src > 0.0)
        row_from[frontier] = -1
        ends = frontier[:0]
        while frontier.size:
            reach = adm[frontier] & ~seen_col
            cols = np.flatnonzero(reach.any(axis=0))
            if not cols.size:
                break
            col_from[cols] = frontier[reach[:, cols].argmax(axis=0)]
            seen_col[cols] = True
            ends = cols[snk[cols] > 0.0]
            if ends.size:
                break
            back = (F[:, cols] > 0.0) & (row_from == -2)[:, None]
            frontier = np.flatnonzero(back.any(axis=1))
            row_from[frontier] = cols[back[frontier].argmax(axis=1)]
        if not ends.size:
            return row_from != -2, seen_col
        for j in ends.tolist():
            path = []  # (row, column reached forward, column left backward or -1)
            i = int(col_from[j])
            while True:
                k = int(row_from[i])
                path.append((i, j, k))
                if k < 0:
                    break
                j, i = k, int(col_from[k])
            delta = min(snk[path[0][1]], src[path[-1][0]])
            for i, _, k in path[:-1]:
                delta = min(delta, F[i, k])
            if delta <= 0.0:
                continue
            snk[path[0][1]] -= delta
            src[path[-1][0]] -= delta
            for i, j, k in path:
                F[i, j] += delta
                if k >= 0:
                    F[i, k] -= delta


def _hall_gap(r, c, adm):
    """Largest margin shortfall of the mask, with a description of its cut.

    After a maximum flow, the columns ``J`` the source cannot reach and
    their admissible rows ``N(J)`` give the column gap
    ``c[J].sum() - r[N(J)].sum()``; the rows ``I`` it reaches and their
    admissible columns give the row gap ``r[I].sum() - c[N(I)].sum()``.
    Both come from the same minimum cut and differ by
    ``r.sum() - c.sum()``, so the side with the larger total has the
    largest Hall gap.  The sums are taken from the margins, not from the
    flow values.
    """
    rows, cols = _max_flow_cut(r, c, adm)
    if r.sum() > c.sum():
        I = np.flatnonzero(rows)
        pay, take = float(r[I].sum()), float(c[adm[I].any(axis=0)].sum())
        return pay - take, (
            f"rows {I.tolist()} must place {pay!r} but their admissible columns "
            f"take {take!r}, a shortfall of {pay - take!r}"
        )
    J = np.flatnonzero(~cols)
    need, supply = float(c[J].sum()), float(r[adm[:, J].any(axis=1)].sum())
    return need - supply, (
        f"columns {J.tolist()} need {need!r} but their admissible rows "
        f"supply {supply!r}, a shortfall of {need - supply!r}"
    )


def fill_matrix(row_sums, col_sums, sparsity_mask, seed: int) -> np.ndarray:
    """Nonnegative matrix with given margins via iterative proportional fitting.

    Zeros stay outside the mask and on the diagonal; the seeded start
    makes the output deterministic.  Margins are matched to RAS_TOL
    relative (tighter than the 1e-8 the callers rely on).  A mask that
    cannot hold the margins is detected by a max-flow check once the
    fitting has run ``n`` iterations without converging, and raises
    CalibrationError naming the columns (or rows) that fall short.
    """
    r = np.asarray(row_sums, dtype=float)
    c = np.asarray(col_sums, dtype=float)
    mask = np.asarray(sparsity_mask, dtype=bool)
    n = r.size
    if c.shape != (n,) or mask.shape != (n, n):
        raise CalibrationError("margin and mask shapes are inconsistent")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(c))):
        raise CalibrationError("margins must be finite")
    if np.any(r < 0.0) or np.any(c < 0.0):
        raise CalibrationError("margins must be nonnegative")
    scale = max(1.0, float(r.max(initial=0.0)), float(c.max(initial=0.0)))
    # after a column step the row errors sum to c.sum() - r.sum(), so a fit
    # within RAS_TOL * scale per margin needs totals within n times that
    bound = n * RAS_TOL * scale
    if abs(r.sum() - c.sum()) > bound:
        raise CalibrationError(
            "row and column margins must have equal totals: rows sum to "
            f"{float(r.sum())!r}, columns to {float(c.sum())!r}, more than {bound!r} apart"
        )
    if np.any(np.diag(mask)):
        raise CalibrationError("sparsity mask must exclude the diagonal")

    rng = np.random.default_rng(seed)
    M = np.where(mask, rng.uniform(0.5, 1.5, (n, n)), 0.0)
    M[(r == 0.0), :] = 0.0
    M[:, (c == 0.0)] = 0.0

    for it in range(RAS_MAX_ITER):
        rs = M.sum(axis=1)
        bad_row = (rs == 0.0) & (r > 0.0)
        if np.any(bad_row):
            raise CalibrationError(
                "infeasible margins: a positive row sum has no admissible cells"
            )
        with np.errstate(invalid="ignore", divide="ignore"):
            M *= np.where(rs > 0.0, r / np.where(rs > 0.0, rs, 1.0), 0.0)[:, None]
        cs = M.sum(axis=0)
        bad_col = (cs == 0.0) & (c > 0.0)
        if np.any(bad_col):
            raise CalibrationError(
                "infeasible margins: a positive column sum has no admissible cells"
            )
        M *= np.where(cs > 0.0, c / np.where(cs > 0.0, cs, 1.0), 0.0)[None, :]
        err = max(
            np.abs(M.sum(axis=1) - r).max(initial=0.0),
            np.abs(M.sum(axis=0) - c).max(initial=0.0),
        )
        if err <= RAS_TOL * scale:
            return M
        if it + 1 == min(n, RAS_MAX_ITER):
            # Certificate.  Every iterate M lives on the effective mask
            # adm (the mask without zero-margin rows and columns).  Let
            # err be its largest margin error.  For a column set J, every
            # cell of M in a column of J lies in a row of N(J), the rows
            # admissible for J, so
            #   c[J] - r[N(J)] = sum_J (c_j - cs_j) + (sum_J cs_j - sum_N(J) rs_i)
            #                    + sum_N(J) (rs_i - r_i)
            #                 <= |J| err + 0 + |N(J)| err <= 2n err,
            # and likewise r[I] - c[N(I)] <= 2n err for a row set I.  A
            # gap above 2n RAS_TOL scale therefore rules out convergence
            # on every iteration, and raising now is what the remaining
            # iterations would end in.  Rounding in the computed sums
            # moves either side by about n eps / RAS_TOL = 2e-6 n
            # relative, which the factor 2 covers for any n whose n x n
            # matrix fits in memory.  Otherwise the fit goes on untouched.
            adm = mask & (r > 0.0)[:, None] & (c > 0.0)[None, :]
            gap, why = _hall_gap(r, c, adm)
            if gap > 2.0 * 2 * n * RAS_TOL * scale:
                raise CalibrationError(f"infeasible margins: {why}")
            if gap <= RAS_TOL * scale:
                # the max flow leaves every margin within the tolerance
                why = "the margins fit the mask only with some admissible cells forced to zero"
    raise CalibrationError(
        f"matrix filling did not converge in {RAS_MAX_ITER} iterations: {why}"
    )


def random_sparsity_mask(n: int, seed: int, density: float = 0.5) -> np.ndarray:
    """Seeded off-diagonal mask guaranteeing every bank a counterparty."""
    if n == 1:
        return np.zeros((1, 1), dtype=bool)
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    others = lambda k: [j for j in range(n) if j != k]
    for i in range(n):
        if not mask[i].any():
            mask[i, rng.choice(others(i))] = True
    for j in range(n):
        if not mask[:, j].any():
            mask[rng.choice(others(j)), j] = True
    return mask


def calibrated_network(
    sheets,
    alpha_x: float = 1.0,
    alpha_L: float = 1.0,
    seed: int = 0,
    density: float = 0.5,
):
    """Full pipeline: balance sheets -> interbank matrix -> FinancialNetwork.

    Returns (network, calibration).  Interbank row and column margins
    both equal the reported interbank liabilities.
    """
    if not 0.0 <= density <= 1.0:
        raise CalibrationError(f"mask density must lie in [0, 1], got {density}")
    calib = calibrate(sheets)
    n = calib.p_bar.size
    # a sparse random mask can be infeasible for the margins; retry with
    # progressively denser masks before giving up
    inter = None
    for attempt in range(6):
        dens = density + (1.0 - density) * attempt / 5.0
        mask = random_sparsity_mask(n, seed + attempt, dens)
        try:
            inter = fill_matrix(calib.interbank, calib.interbank, mask, seed)
            break
        except CalibrationError:
            if attempt == 5:
                raise
    # exact row margins so p_bar = A - C to float precision; columns stay
    # within the iterative-fitting tolerance
    rs = inter.sum(axis=1)
    inter *= np.where(rs > 0.0, calib.interbank / np.where(rs > 0.0, rs, 1.0), 0.0)[:, None]
    L = np.column_stack([inter, calib.L_ext])
    return build_network(L, alpha_x, alpha_L), calib


def make_synthetic_sheets(n: int = 87, seed: int = 20160901) -> list:
    """Synthetic balance sheets spanning the size range of large EU banks."""
    rng = np.random.default_rng(seed)
    A = 10.0 ** rng.uniform(2.0, 6.0, n)
    C = A * rng.uniform(0.03, 0.10, n)
    IB = A * rng.uniform(0.05, 0.25, n)
    return [
        BalanceSheet(
            bank_id=f"B{i+1:03d}",
            total_assets=float(A[i]),
            capital=float(C[i]),
            interbank_liabilities=float(IB[i]),
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Debt-firm-value ratio constructions


def current_ratio(net: FinancialNetwork, s, q0: float = 1.0) -> np.ndarray:
    """d = p_bar / (s q0 + interbank assets)."""
    s = np.asarray(s, dtype=float)
    value = s * q0 + net.Pi.T @ net.p_bar
    if np.any(value <= 0.0):
        raise CalibrationError("firm value must be positive to define a ratio")
    return net.p_bar / value


def ratio_via_liabilities(
    net: FinancialNetwork, d, s, q0: float = 1.0
) -> FinancialNetwork:
    """Rescale total liabilities so ratios hit ``d``, holding s and Pi fixed.

    Solves (I - diag(d) Pi^T) p_bar = diag(d) s q0.  Feasibility
    requires the spectral radius of diag(d) Pi^T below one and a strictly
    positive solution.
    """
    d = np.asarray(d, dtype=float)
    s = np.asarray(s, dtype=float)
    if d.shape != (net.n,) or np.any(d <= 0.0):
        raise CalibrationError("ratios must be positive, one per bank")
    A = np.diag(d) @ net.Pi.T
    if np.max(np.abs(np.linalg.eigvals(A))) >= 1.0 - 1e-12:
        raise CalibrationError(
            "infeasible ratios: diag(d) Pi^T has spectral radius >= 1"
        )
    rhs = d * (s * q0)
    p_new = np.linalg.solve(np.eye(net.n) - A, rhs)
    if np.any(p_new <= 0.0):
        raise CalibrationError("infeasible ratios: implied total liabilities not positive")
    return network_from_relative(net.Pi, p_new, net.alpha_x, net.alpha_L, net.Gamma)


def ratio_via_assets(net: FinancialNetwork, d, q0: float = 1.0) -> np.ndarray:
    """Back out investments hitting ratios ``d`` with liabilities fixed."""
    d = np.asarray(d, dtype=float)
    if d.shape != (net.n,) or np.any(d <= 0.0):
        raise CalibrationError("ratios must be positive, one per bank")
    s = (net.p_bar / d - net.Pi.T @ net.p_bar) / q0
    bad = np.nonzero(s < 0.0)[0]
    if bad.size:
        raise CalibrationError(
            f"bank {bad[0] + 1}: ratio {d[bad[0]]} requires negative investment"
        )
    return s


# ---------------------------------------------------------------------------
# Balance-sheet CSV


def write_balance_sheets_csv(path: str, sheets) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bank_id", "total_assets", "capital", "interbank_liabilities"])
        for sh in sheets:
            values = (sh.total_assets, sh.capital, sh.interbank_liabilities)
            w.writerow([sh.bank_id, *(repr(float(v)) for v in values)])


def read_balance_sheets_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["bank_id", "total_assets", "capital", "interbank_liabilities"]:
        raise SchemaError(
            "balance-sheet CSV must start with header "
            "bank_id,total_assets,capital,interbank_liabilities"
        )
    return [
        BalanceSheet(row[0], *finite_floats(row[1:], f"line {ln}", 3))
        for ln, row in enumerate(rows[1:], start=2)
        if row
    ]
