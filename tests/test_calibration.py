import hashlib
import importlib.resources
import itertools
import re

import numpy as np
import pytest

from netval import calibration
from netval import (
    BalanceSheet,
    CalibrationError,
    SchemaError,
    build_network,
    calibrate,
    calibrated_network,
    current_ratio,
    fill_matrix,
    make_synthetic_sheets,
    network_csv_text,
    random_sparsity_mask,
    ratio_via_assets,
    ratio_via_liabilities,
    read_balance_sheets_csv,
    read_network_csv,
    write_balance_sheets_csv,
    write_network_csv,
)

FIXTURE = importlib.resources.files("netval") / "data" / "synthetic_sheets_87.csv"


def sheets_ab():
    return [
        BalanceSheet("A", 10.0, 2.0, 4.0),
        BalanceSheet("B", 10.0, 3.0, 4.0),
    ]


def _shortfall(msg):
    return float(re.search(r"a shortfall of (\S+)$", msg).group(1))


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_example():
    res = calibrate(sheets_ab())
    assert np.allclose(res.s, [6.0, 6.0])
    assert np.allclose(res.L_ext, [4.0, 3.0])
    assert np.allclose(res.p_bar, [8.0, 7.0])
    assert np.allclose(res.interbank, [4.0, 4.0])
    # net-worth identity holds exactly
    assert np.all(res.p_bar == np.array([10.0, 10.0]) - np.array([2.0, 3.0]))


def test_calibrate_no_interbank():
    res = calibrate([BalanceSheet("A", 10.0, 2.0, 0.0), BalanceSheet("B", 8.0, 1.0, 0.0)])
    assert np.allclose(res.s, [10.0, 8.0])
    assert np.allclose(res.L_ext, [8.0, 7.0])
    assert np.allclose(res.interbank, 0.0)


def test_calibrate_capital_exceeds_external_assets():
    with pytest.raises(CalibrationError, match="B"):
        calibrate([BalanceSheet("A", 10.0, 2.0, 4.0), BalanceSheet("B", 10.0, 7.0, 4.0)])


def test_calibrate_interbank_exceeds_assets():
    with pytest.raises(CalibrationError, match="A"):
        calibrate([BalanceSheet("A", 3.0, 1.0, 4.0)])


# ---------------------------------------------------------------------------
# matrix filling


def test_fill_matrix_two_bank_unique():
    mask = np.array([[False, True], [True, False]])
    M = fill_matrix([4.0, 4.0], [4.0, 4.0], mask, seed=0)
    assert np.allclose(M, [[0.0, 4.0], [4.0, 0.0]], atol=1e-9)


def test_fill_matrix_dense_margins():
    rng = np.random.default_rng(6)
    rows = rng.uniform(1.0, 5.0, 5)
    cols = rng.uniform(1.0, 5.0, 5)
    cols *= rows.sum() / cols.sum()
    mask = ~np.eye(5, dtype=bool)
    M = fill_matrix(rows, cols, mask, seed=1)
    assert np.all(np.diagonal(M) == 0.0)
    assert np.allclose(M.sum(axis=1), rows, rtol=1e-8)
    assert np.allclose(M.sum(axis=0), cols, rtol=1e-8)
    assert np.all(M[~mask] == 0.0)
    assert np.array_equal(M, fill_matrix(rows, cols, mask, seed=1))
    assert not np.array_equal(M, fill_matrix(rows, cols, mask, seed=2))


def test_fill_matrix_unequal_totals():
    mask = ~np.eye(2, dtype=bool)
    with pytest.raises(CalibrationError, match="equal totals"):
        fill_matrix([1.0, 2.0], [1.0, 1.0], mask, seed=0)


def test_fill_matrix_totals_gap_beyond_fit():
    # a fit within RAS_TOL per margin absorbs a totals gap of at most
    # n * RAS_TOL * scale; this one is 1e-8, rejected before any flow check
    cols = np.array([4.0, 3.0, 2.0, 1.0]) * (1.0 + 1e-9)
    with pytest.raises(CalibrationError) as exc:
        fill_matrix([1.0, 2.0, 3.0, 4.0], cols, ~np.eye(4, dtype=bool), seed=0)
    msg = str(exc.value)
    assert msg.startswith(
        "row and column margins must have equal totals: rows sum to 10.0, "
        "columns to 10.00000001, more than "
    )
    assert "admissible" not in msg
    # two banks: 3e-10 apart is past 2 * RAS_TOL, and no fit absorbs it
    with pytest.raises(CalibrationError, match=r"more than 2\.0000000006\d*e-10 apart"):
        fill_matrix([1.0, 1.0], [1.0, 1.0 + 3e-10], ~np.eye(2, dtype=bool), seed=0)


def test_fill_matrix_diagonal_in_mask():
    with pytest.raises(CalibrationError, match="diagonal"):
        fill_matrix([1.0, 1.0], [1.0, 1.0], np.ones((2, 2), dtype=bool), seed=0)


def test_fill_matrix_infeasible_mask():
    # bank 0 must place 4.1 into a single cell whose column can absorb 3.5
    rows = np.array([4.1, 3.0, 2.0])
    cols = np.array([3.5, 3.5, 2.1])
    mask = np.array(
        [[False, True, False], [True, False, True], [True, True, False]]
    )
    # the max-flow cut puts columns 0 and 2 against rows 1 and 2
    with pytest.raises(CalibrationError) as exc:
        fill_matrix(rows, cols, mask, seed=0)
    msg = str(exc.value)
    assert msg.startswith("infeasible margins: columns [0, 2] need 5.6 ")
    assert "their admissible rows supply 5.0" in msg
    assert _shortfall(msg) == pytest.approx(0.6, rel=1e-12)


def test_fill_matrix_feasible_only_with_forced_zeros():
    # the only fill routes banks 1 and 2 through bank 0, so cells (1, 2)
    # and (2, 1) must be zero: the flow check passes, the fitting crawls
    with pytest.raises(CalibrationError) as exc:
        fill_matrix([2.0, 1.0, 1.0], [2.0, 1.0, 1.0], ~np.eye(3, dtype=bool), seed=0)
    msg = str(exc.value)
    assert "did not converge" in msg
    assert "fit the mask only with some admissible cells forced to zero" in msg
    assert "infeasible" not in msg


def test_fill_matrix_shortfall_within_check_bound():
    # equal totals, but column 0 needs 3e-10 more than its only row holds:
    # too little for the flow check to rule out convergence, too much for
    # the fit to reach
    with pytest.raises(CalibrationError) as exc:
        fill_matrix([1.0 + 3e-10, 1.0], [1.0 + 3e-10, 1.0], ~np.eye(2, dtype=bool), seed=0)
    msg = str(exc.value)
    assert msg.startswith(
        "matrix filling did not converge in 10000 iterations: columns [0] "
        "need 1.0000000003 but their admissible rows supply 1.0"
    )
    assert _shortfall(msg) == pytest.approx(3e-10, rel=1e-6)


def test_fill_matrix_rows_fall_short():
    # with the larger total on the rows (by 1e-10, inside the totals
    # check), the gap is reported for rows
    mask = ~np.eye(2, dtype=bool)
    with pytest.raises(CalibrationError) as exc:
        fill_matrix([1.0, 1.0 + 5e-9], [1.0, 1.0 + 4.9e-9], mask, seed=0)
    msg = str(exc.value)
    assert msg.startswith(
        "infeasible margins: rows [1] must place 1.000000005 but their "
        "admissible columns take 1.0"
    )
    assert _shortfall(msg) == pytest.approx(5e-9, rel=1e-6)
    with pytest.raises(CalibrationError) as exc:
        fill_matrix([1.0, 1.0 + 3e-10], [1.0, 1.0 + 2e-10], mask, seed=0)
    msg = str(exc.value)
    assert msg.startswith("matrix filling did not converge in 10000 iterations: rows [1]")
    assert _shortfall(msg) == pytest.approx(3e-10, rel=1e-6)


def test_fill_matrix_rejects_non_finite_margins():
    mask = ~np.eye(2, dtype=bool)
    with pytest.raises(CalibrationError, match="finite"):
        fill_matrix([np.nan, 1.0], [1.0, 1.0], mask, seed=0)
    with pytest.raises(CalibrationError, match="finite"):
        fill_matrix([1.0, 1.0], [np.inf, 1.0], mask, seed=0)


def _brute_hall_gaps(r, c, adm):
    """Largest column gap c[J] - r[N(J)] and row gap r[I] - c[N(I)] over all subsets."""
    n = r.size
    col_gap = row_gap = 0.0
    for k in range(1, n + 1):
        for S in map(list, itertools.combinations(range(n), k)):
            col_gap = max(col_gap, c[S].sum() - r[adm[:, S].any(axis=1)].sum())
            row_gap = max(row_gap, r[S].sum() - c[adm[S].any(axis=0)].sum())
    return col_gap, row_gap


def test_certificate_against_brute_force_hall_gap():
    rng = np.random.default_rng(20240611)
    rejected = accepted = 0
    for trial in range(300):
        n = int(rng.integers(2, 8))
        mask = rng.random((n, n)) < rng.uniform(0.2, 0.9)
        np.fill_diagonal(mask, False)
        if trial % 2 == 0:
            # margins of a matrix positive on the whole mask always fit
            A = np.where(mask, rng.uniform(0.1, 2.0, (n, n)), 0.0)
            r, c = A.sum(axis=1), A.sum(axis=0)
        else:
            r = rng.exponential(1.0, n) * (rng.random(n) < 0.9)
            c = rng.exponential(1.0, n) * (rng.random(n) < 0.9)
            if c.sum() == 0.0 or r.sum() == 0.0:
                continue
            c *= r.sum() / c.sum()
        scale = max(1.0, r.max(), c.max())
        bound = 2 * n * calibration.RAS_TOL * scale
        adm = mask & (r > 0.0)[:, None] & (c > 0.0)[None, :]
        try:
            M = fill_matrix(r, c, mask, seed=trial)
        except CalibrationError as exc:
            msg = str(exc)
            assert trial % 2 == 1, msg
            gap = max(_brute_hall_gaps(r, c, adm))
            if "forced to zero" in msg:
                assert gap <= 1.01 * calibration.RAS_TOL * scale
            elif "shortfall" in msg:
                # the flow finds the largest gap, not just some gap
                assert _shortfall(msg) == pytest.approx(gap, rel=1e-9, abs=1e-12 * scale)
                if msg.startswith("infeasible margins:"):
                    rejected += 1
                    assert gap > bound
        else:
            accepted += 1
            assert np.all(M[~adm] == 0.0)
            assert np.allclose(M.sum(axis=1), r, rtol=0.0, atol=1e-9 * scale)
    assert rejected >= 30 and accepted >= 150


def test_certificate_pass_keeps_fit(monkeypatch):
    # a feasible fill slower than n iterations goes through the flow
    # check once and returns the same bits as before the check existed
    gaps = []

    def spy(*args):
        out = hall_gap(*args)
        gaps.append(out[0])
        return out

    hall_gap = calibration._hall_gap
    monkeypatch.setattr(calibration, "_hall_gap", spy)
    rng = np.random.default_rng(5)
    n = int(rng.integers(3, 8))
    mask = rng.random((n, n)) < 0.6
    np.fill_diagonal(mask, False)
    A = np.where(mask, rng.uniform(0.1, 2.0, (n, n)) ** 3, 0.0)
    M = fill_matrix(A.sum(axis=1), A.sum(axis=0), mask, seed=0)
    assert gaps == [0.0]
    assert _sha(M) == "a6424f287eb5235a14a58c6290628a5b242f33c4232b5167481d51795aba3358"


def test_certificate_skipped_when_fill_converges(monkeypatch):
    # the flow check runs only after n iterations without convergence
    def fail(*args):
        raise AssertionError("certificate ran on a converging fill")

    monkeypatch.setattr(calibration, "_hall_gap", fail)
    calibrated_network(read_balance_sheets_csv(str(FIXTURE)), seed=3)
    calibrated_network(make_synthetic_sheets(100, seed=7), seed=7)


def test_random_sparsity_mask_valid():
    for seed in range(5):
        mask = random_sparsity_mask(8, seed=seed, density=0.4)
        assert not np.any(np.diagonal(mask))
        assert np.all(mask.sum(axis=0) > 0)
        assert np.all(mask.sum(axis=1) > 0)


# ---------------------------------------------------------------------------
# synthetic fixture


def test_fixture_regenerates_bytes():
    sheets = make_synthetic_sheets(87, seed=20160901)
    text = FIXTURE.read_text()
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["bank_id", "total_assets", "capital", "interbank_liabilities"])
    for s in sheets:
        w.writerow(
            [s.bank_id, repr(s.total_assets), repr(s.capital), repr(s.interbank_liabilities)]
        )
    assert buf.getvalue() == text


def test_calibrated_network_retries_infeasible_mask():
    # seed 5 at density 0.5 draws a mask the margins cannot fill; the
    # pipeline must fall back to denser masks instead of failing
    sheets = [
        BalanceSheet("A", 10.0, 2.0, 4.0),
        BalanceSheet("B", 10.0, 3.0, 4.0),
        BalanceSheet("C", 12.0, 4.0, 5.0),
    ]
    net, calib = calibrated_network(sheets, seed=5)
    assert np.allclose(net.p_bar, [8.0, 7.0, 8.0])
    inter = net.L[:, :3]
    assert np.allclose(inter.sum(axis=1), [4.0, 4.0, 5.0], rtol=1e-12)


def test_calibrated_network_truly_infeasible():
    # with two banks each one's whole interbank flow lands on the other,
    # so unequal totals cannot balance under any mask
    sheets = [
        BalanceSheet("A", 10.0, 2.0, 4.0),
        BalanceSheet("B", 10.0, 3.0, 5.0),
    ]
    with pytest.raises(CalibrationError) as exc:
        calibrated_network(sheets, seed=0)
    msg = str(exc.value)
    assert msg.startswith(
        "infeasible margins: columns [1] need 5.0 but their admissible rows supply 4.0"
    )
    assert _shortfall(msg) == 1.0


def test_calibration_outputs_pinned():
    # digests of outputs from before the max-flow check: the check may
    # only shorten failing fits, never change a returned matrix
    fixture = read_balance_sheets_csv(str(FIXTURE))
    three = [
        BalanceSheet("A", 10.0, 2.0, 4.0),
        BalanceSheet("B", 10.0, 3.0, 4.0),
        BalanceSheet("C", 12.0, 4.0, 5.0),
    ]
    nets = {
        "closed-form-a": calibrated_network(make_synthetic_sheets(100, seed=7), seed=7),
        "closed-form-b": calibrated_network(make_synthetic_sheets(10, seed=7), seed=7),
        "fixture-alpha-1": calibrated_network(fixture, seed=3),
        "fixture-alpha-0.5": calibrated_network(fixture, 0.5, 0.5, seed=3),
        "retry-3-banks": calibrated_network(three, seed=5),
    }
    got = {k: _sha(net.L) for k, (net, _) in nets.items()}
    rng = np.random.default_rng(6)
    rows = rng.uniform(1.0, 5.0, 5)
    cols = rng.uniform(1.0, 5.0, 5)
    cols *= rows.sum() / cols.sum()
    got["fill-dense-5"] = _sha(fill_matrix(rows, cols, ~np.eye(5, dtype=bool), seed=1))
    ib = np.array([s.interbank_liabilities for s in fixture])
    got["fill-fixture"] = _sha(fill_matrix(ib, ib, random_sparsity_mask(87, 3, 0.5), 3))
    ib = np.array([s.interbank_liabilities for s in make_synthetic_sheets(10, seed=7)])
    got["fill-b-denser"] = _sha(fill_matrix(ib, ib, random_sparsity_mask(10, 8, 0.6), 7))
    fixture_L = "1256fbd6b90fc68802f8480b5ccad94ade17a22e261d9f3611ef65cdb43efcec"
    assert got == {
        "closed-form-a": "5cd895878e2571cc6b383558937e96162599e8396f712f2fd3333e4bfcb453f2",
        "closed-form-b": "65d3f9ec22be3189540b99a7246a2642e16b5dddc0f34f5d851760f16aeaedc7",
        "fixture-alpha-1": fixture_L,
        "fixture-alpha-0.5": fixture_L,
        "retry-3-banks": "9d17eae306a3e6f69d28b00095b9e2137523992c2170217a73b7b29067b095f8",
        "fill-dense-5": "79f47ebeecd47623194ae5f003f27016ce94e8ad6d8641ec31448e96c185d42c",
        "fill-fixture": "5a9907d9327da973c938e992aed6ca7efe35bae489c79f40ab594696c8805166",
        "fill-b-denser": "1734c48dc279852d9062f04310142f4994509f08801c52cba7ae3203f94f9fe1",
    }


def test_calibrated_network_from_fixture(tmp_path):
    sheets = read_balance_sheets_csv(str(FIXTURE))
    assert len(sheets) == 87
    net, calib = calibrated_network(sheets, seed=3)
    assert net.n == 87
    A = np.array([s.total_assets for s in sheets])
    C = np.array([s.capital for s in sheets])
    assert np.allclose(net.p_bar, A - C, rtol=1e-12)
    ib = np.array([s.interbank_liabilities for s in sheets])
    assert np.allclose(net.interbank_assets(), ib, rtol=1e-8)


# ---------------------------------------------------------------------------
# debt-firm ratios


def test_current_ratio_two_bank(two_bank):
    d = current_ratio(two_bank, [3.0, 4.0])
    assert np.allclose(d, [5.0 / 3.0, 6.0 / 11.0], atol=1e-12)


def test_ratio_assets_round_trip(two_bank):
    d = current_ratio(two_bank, [3.0, 4.0])
    s = ratio_via_assets(two_bank, d)
    assert np.allclose(s, [3.0, 4.0], atol=1e-10)


def test_ratio_liabilities_round_trip(two_bank):
    d = current_ratio(two_bank, [3.0, 4.0])
    net2 = ratio_via_liabilities(two_bank, d, [3.0, 4.0])
    assert np.allclose(net2.p_bar, two_bank.p_bar, atol=1e-10)
    assert np.allclose(net2.Pi, two_bank.Pi, atol=1e-12)


def test_ratio_liabilities_accepts_own_ratio(two_bank):
    # the workable feasibility condition is a spectral-radius bound, which
    # admits the example's own d even though d1*d2 > pi12*pi21
    d = current_ratio(two_bank, [3.0, 4.0])
    assert d[0] * d[1] > float(two_bank.Pi[0, 1] * two_bank.Pi[1, 0])
    net2 = ratio_via_liabilities(two_bank, d, [3.0, 4.0])
    assert np.all(net2.p_bar > 0.0)


def test_ratio_liabilities_infeasible(two_bank):
    with pytest.raises(CalibrationError):
        ratio_via_liabilities(two_bank, [4.0, 2.0], [3.0, 4.0])


def test_ratio_assets_infeasible(two_bank):
    with pytest.raises(CalibrationError, match="bank"):
        ratio_via_assets(two_bank, [3.5, 0.5])


# ---------------------------------------------------------------------------
# CSV IO


def test_balance_sheet_round_trip(tmp_path):
    path = str(tmp_path / "sheets.csv")
    write_balance_sheets_csv(path, sheets_ab())
    back = read_balance_sheets_csv(path)
    assert back == sheets_ab()


def test_network_round_trip(tmp_path, two_bank):
    path = str(tmp_path / "net.csv")
    write_network_csv(path, two_bank)
    back = read_network_csv(path)
    assert np.array_equal(back.L, two_bank.L)
    assert back.alpha_x == two_bank.alpha_x and back.alpha_L == two_bank.alpha_L


def test_network_round_trip_with_gamma(tmp_path):
    net = build_network(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 2.0]], 1.0, 1.0, Gamma=[[0.0, 0.2], [0.3, 0.0]]
    )
    path = str(tmp_path / "net.csv")
    write_network_csv(path, net)
    back = read_network_csv(path)
    assert np.array_equal(back.Gamma, net.Gamma)


def test_network_csv_emit_parse_fixed_point(two_bank):
    text = network_csv_text(two_bank)
    assert text.endswith("\n") and "\r" not in text


def test_balance_sheet_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("bank_id,assets\nA,1\n")
    with pytest.raises(SchemaError):
        read_balance_sheets_csv(str(path))


def test_network_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,alpha_x\n2,1.0\n")
    with pytest.raises(SchemaError):
        read_network_csv(str(path))
