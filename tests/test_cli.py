import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from netval import build_network, cli, read_network_csv, write_network_csv

from helpers import make_cycle, make_two_bank

CLI = [sys.executable, "-m", "netval.cli"]


def run_cli(*args, env=None, check=False):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=full_env
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, text
    return rows


@pytest.fixture
def cycle_csv(tmp_path):
    path = str(tmp_path / "cycle.csv")
    write_network_csv(path, make_cycle(1.0))
    return path


@pytest.fixture
def two_bank_csv(tmp_path):
    path = str(tmp_path / "two_bank.csv")
    write_network_csv(path, make_two_bank())
    return path


@pytest.fixture
def bench_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "maps": [
                    {"type": "affine", "shift": 0.0, "slope": 3.0},
                    {"type": "affine", "shift": 0.0, "slope": 4.0},
                ],
                "dist": {"kind": "lognormal", "mu": -0.5, "sigma2": 1.0},
            }
        )
    )
    return str(path)


@pytest.fixture
def beta1_params(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(
        json.dumps(
            {
                "r": 0.0,
                "T": 1.0,
                "sigma_M": 1.0,
                "beta": [1.0, 1.0],
                "gamma": [0.0, 0.0],
                "s": [3.0, 4.0],
            }
        )
    )
    return str(path)


# ---------------------------------------------------------------------------
# happy paths


def test_clear_example(cycle_csv):
    proc = run_cli("clear", cycle_csv, "--x", "0,2", check=True)
    rows = parse_csv(proc.stdout)
    banks = [r for r in rows if r["bank"] != "society"]
    assert np.allclose([float(r["p"]) for r in banks], [0.8, 2.4], atol=1e-12)
    assert [r["z"] for r in banks] == ["1", "1"]
    soc = [r for r in rows if r["bank"] == "society"]
    assert len(soc) == 1


PRINT_SCIPY_MODULES = (
    "import sys\n"
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
)


def test_import_loads_no_scipy():
    code = "import netval, netval.cli\n" + PRINT_SCIPY_MODULES
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_clear_loads_no_scipy(two_bank_csv):
    code = (
        "from netval.cli import main\n"
        f"argv = ['clear', {two_bank_csv!r}, '--x', '3,4', '--output', {os.devnull!r}]\n"
        "assert main(argv) == 0\n" + PRINT_SCIPY_MODULES
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_q_star(two_bank_csv, bench_model):
    proc = run_cli("q-star", two_bank_csv, bench_model, check=True)
    rows = parse_csv(proc.stdout)
    got = [float(r["q_star"]) for r in rows]
    assert np.allclose(got, [7.0 / 3.0, 39.0 / 61.0], atol=1e-12)


def test_expect_identity(two_bank_csv, bench_model):
    proc = run_cli("expect", two_bank_csv, bench_model, "--format", "json", check=True)
    doc = json.loads(proc.stdout)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "expect"
    net = read_network_csv(two_bank_csv)
    for i, row in enumerate(doc["rows"]):
        assert abs(row["EV"] - (row["EE"] + row["Ep"] - net.p_bar[i])) < 1e-10


def test_price_beta1_bounds_coincide(two_bank_csv, beta1_params):
    proc = run_cli("price", two_bank_csv, beta1_params, "--which", "both", check=True)
    rows = parse_csv(proc.stdout)
    lower = {r["bank"]: r for r in rows if r["which"] == "lower"}
    upper = {r["bank"]: r for r in rows if r["which"] == "upper"}
    assert set(lower) == set(upper) == {"1", "2"}
    for b in lower:
        assert abs(float(lower[b]["price"]) - float(upper[b]["price"])) < 1e-9
        assert lower[b]["guarantee"] == "bound"


def test_price_baseline_rows(two_bank_csv, beta1_params):
    proc = run_cli(
        "price", two_bank_csv, beta1_params, "--baseline", "riskfree", check=True
    )
    rows = parse_csv(proc.stdout)
    base = [r for r in rows if r["which"] == "baseline_riskfree"]
    assert len(base) == 2
    assert all(r["guarantee"] == "baseline" for r in base)
    # bank 2 holds more interbank than it owes, so its baseline debt is riskless
    b2 = [r for r in base if r["bank"] == "2"][0]
    assert abs(float(b2["price"]) - 1.0) < 1e-12
    assert abs(float(b2["rate"])) < 1e-12


def test_statics_beta_long_format(two_bank_csv, beta1_params):
    proc = run_cli(
        "statics",
        two_bank_csv,
        beta1_params,
        "--sweep",
        "beta",
        "--grid",
        "0,0.5,1",
        check=True,
    )
    rows = parse_csv(proc.stdout)
    assert set(r["param"] for r in rows) == {"0.0", "0.5", "1.0"}
    assert {"price_lower", "price_upper", "rate_lower", "cap_upper"} <= set(
        r["metric"] for r in rows
    )
    banks = set(r["bank"] for r in rows)
    assert banks == {"1", "2", "median"}
    # lower bound does not depend on beta
    vals = sorted(
        float(r["value"])
        for r in rows
        if r["metric"] == "price_lower" and r["bank"] == "1"
    )
    assert vals[-1] - vals[0] < 1e-12


def test_calibrate_network_round_trip(tmp_path, monkeypatch):
    sheets = tmp_path / "sheets.csv"
    sheets.write_text(
        "bank_id,total_assets,capital,interbank_liabilities\n"
        "A,10,2,4\nB,10,3,4\n"
    )
    net_out = tmp_path / "net.csv"
    proc = run_cli(
        "calibrate", str(sheets), "--network-out", str(net_out), check=True
    )
    rows = parse_csv(proc.stdout)
    assert [float(r["p_bar"]) for r in rows] == [8.0, 7.0]
    net = read_network_csv(str(net_out))
    assert net.n == 2
    assert np.allclose(net.p_bar, [8.0, 7.0])
    # emit -> parse -> emit is a fixed point
    again = tmp_path / "net2.csv"
    write_network_csv(str(again), net)
    assert net_out.read_text() == again.read_text()


def test_simulate_and_mc(tmp_path, two_bank_csv, bench_model):
    scenario = tmp_path / "scen.json"
    scenario.write_text(
        json.dumps(
            {"kind": "comonotonic-factor", "model": json.loads(open(bench_model).read())}
        )
    )
    proc = run_cli("simulate", str(scenario), "--paths", "5", "--seed", "7", check=True)
    rows = parse_csv(proc.stdout)
    assert len(rows) == 5
    for r in rows:
        assert abs(float(r["x2"]) / float(r["x1"]) - 4.0 / 3.0) < 1e-12
    proc = run_cli(
        "mc", two_bank_csv, str(scenario), "--paths", "2000", "--seed", "7", check=True
    )
    rows = parse_csv(proc.stdout)
    banks = [r for r in rows if r["bank"] != "society"]
    assert len(banks) == 2
    for r in banks:
        assert float(r["se_Ep"]) > 0.0
    soc = [r for r in rows if r["bank"] == "society"][0]
    assert float(soc["Ep"]) > 0.0


# ---------------------------------------------------------------------------
# determinism and seeding


def test_byte_identical_runs(two_bank_csv, bench_model):
    a = run_cli("expect", two_bank_csv, bench_model, check=True)
    b = run_cli("expect", two_bank_csv, bench_model, check=True)
    assert a.stdout == b.stdout


def test_netval_seed_env(tmp_path):
    scenario = tmp_path / "scen.json"
    scenario.write_text(
        json.dumps(
            {
                "kind": "gaussian-copula-lognormal",
                "mu": [0.0, 0.0],
                "sigma": [1.0, 1.0],
                "corr": [[1.0, 0.2], [0.2, 1.0]],
            }
        )
    )
    via_flag = run_cli("simulate", str(scenario), "--paths", "3", "--seed", "11", check=True)
    via_env = run_cli(
        "simulate", str(scenario), "--paths", "3", env={"NETVAL_SEED": "11"}, check=True
    )
    assert via_flag.stdout == via_env.stdout


def test_output_file(tmp_path, two_bank_csv, bench_model):
    out = tmp_path / "out.csv"
    proc = run_cli("expect", two_bank_csv, bench_model, "-o", str(out), check=True)
    assert proc.stdout == ""
    assert out.read_text().startswith("bank,")


# ---------------------------------------------------------------------------
# exit codes and error channel


def test_exit_usage():
    proc = run_cli("clear")
    assert proc.returncode == 2


def test_exit_file_not_found(bench_model):
    proc = run_cli("expect", "/nonexistent/net.csv", bench_model)
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "file-not-found"
    assert err["schema_version"] == "1"


def test_exit_schema_error(tmp_path, two_bank_csv):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"maps": [], "dist": {}, "bogus": 1}))
    proc = run_cli("expect", two_bank_csv, str(bad))
    assert proc.returncode == 4
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "schema"


def test_exit_domain_error(tmp_path, beta1_params):
    # partial recovery refuses CAPM bounds without --force
    path = str(tmp_path / "half.csv")
    write_network_csv(path, make_two_bank(0.5))
    proc = run_cli("price", path, beta1_params)
    assert proc.returncode == 5
    err = json.loads(proc.stderr)
    assert "error" in err and err["error"]["message"]
    forced = run_cli("price", path, beta1_params, "--force", check=True)
    rows = parse_csv(forced.stdout)
    assert all(r["guarantee"] == "no bound guarantee" for r in rows)


@pytest.mark.parametrize("x", ["nan,2", "-1,2", "inf,2", "1,2,3", "1"])
def test_clear_rejects_bad_endowments(two_bank_csv, capsys, x):
    assert cli.main(["clear", two_bank_csv, f"--x={x}"]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "schema"
    assert "--x" in err["error"]["message"]


def test_mc_rejects_negative_atoms(tmp_path, two_bank_csv, capsys):
    scenario = tmp_path / "scen.json"
    scenario.write_text(
        json.dumps(
            {"kind": "finite-support", "atoms": [[-1.0, 2.0], [3.0, 4.0]], "probs": [0.5, 0.5]}
        )
    )
    assert cli.main(["mc", two_bank_csv, str(scenario), "--paths", "100"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "domain"
    assert "atoms" in err["error"]["message"]


AFFINE = {"type": "affine", "shift": 0.0, "slope": 3.0}
LOGNORMAL = {"kind": "lognormal", "mu": -0.5, "sigma2": 1.0}


def _model(*maps, dist=LOGNORMAL):
    return {"maps": list(maps), "dist": dist}


# (command, input object, exact stderr message) for exit 4; the command's
# other operands are the two-bank network, or --paths for simulate
SCHEMA_ERRORS = [
    pytest.param(
        "expect", _model(AFFINE, AFFINE, dist={"kind": "gamma"}),
        "dist: unknown kind 'gamma'", id="dist-unknown-kind",
    ),
    pytest.param(
        "expect", _model(AFFINE, AFFINE, dist={"kind": "lognormal", "mu": 0.0}),
        "dist.lognormal: missing key(s) sigma2", id="dist-missing-key",
    ),
    pytest.param(
        "expect", _model(AFFINE, AFFINE, dist={"mu": 0.0}),
        "dist: expected an object with a 'kind' key", id="dist-no-kind",
    ),
    pytest.param(
        "expect", _model(AFFINE, {"type": "cubic"}),
        "map: unknown type 'cubic'", id="map-unknown-type",
    ),
    pytest.param(
        "expect", _model(AFFINE, {"type": ["affine"]}),
        "map: unknown type ['affine']", id="map-type-not-a-string",
    ),
    pytest.param(
        "expect", _model(AFFINE, {"type": "affine", "shift": 0.0}),
        "map.affine: missing key(s) slope", id="map-missing-key",
    ),
    pytest.param(
        "expect", _model(AFFINE, {"type": "power", "coef": 1.0, "exponent": 1.0, "bogus": 1}),
        "map.power: unknown key(s) bogus", id="map-unknown-key",
    ),
    pytest.param(
        "bounds", {"marginals": [{"kind": "pointmass", "atoms": [1.0], "probs": [1.0]}]},
        "marginal: unknown kind 'pointmass'", id="marginal-unknown-kind",
    ),
    pytest.param(
        "bounds", {"marginals": [{"kind": "finite", "atoms": [1.0]}]},
        "marginal.finite: missing key(s) probs", id="marginal-missing-key",
    ),
    pytest.param(
        "bounds", {"marginals": [{"kind": "lognormal", "mu": 1.0, "sigma": 1.0}]},
        "marginal.lognormal: missing key(s) sigma2", id="marginal-lognormal-missing-key",
    ),
    pytest.param(
        "simulate", {"kind": "capm"},
        "scenario.capm: missing key(s) params", id="scenario-missing-key",
    ),
    pytest.param(
        "simulate", {"kind": "finite-support", "atoms": [[1.0]], "probs": [1.0], "extra": 1},
        "scenario.finite-support: unknown key(s) extra", id="scenario-unknown-key",
    ),
    pytest.param(
        "simulate", {"kind": "bogus"},
        "scenario: unknown kind 'bogus'", id="scenario-unknown-kind",
    ),
    pytest.param(
        "simulate", {"model": {}},
        "scenario: expected an object with a 'kind' key", id="scenario-no-kind",
    ),
    # malformed nested objects: these used to exit 1 as internal errors
    pytest.param(
        "simulate", {"kind": "comonotonic-factor", "model": 5},
        "factor model: expected a JSON object", id="model-not-an-object",
    ),
    pytest.param(
        "simulate", {"kind": "capm", "params": "x"},
        "capm params: expected a JSON object", id="capm-params-not-an-object",
    ),
    pytest.param(
        "expect", _model(AFFINE, {"type": "affine", "shift": 0, "slope": [1]}),
        "map.affine: slope must be a number, got [1]", id="map-slope-not-a-number",
    ),
    pytest.param(
        "simulate",
        {
            "kind": "capm",
            "params": {"r": None, "T": 1.0, "sigma_M": 0.2, "beta": [1.0], "gamma": [0.0], "s": [1.0]},
        },
        "capm params: r must be a number, got None", id="capm-rate-not-a-number",
    ),
    # list-valued fields: these used to exit 1 as internal errors
    pytest.param(
        "price",
        {"r": 0.02, "T": 1.0, "sigma_M": 0.2, "beta": ["a", 1], "gamma": [0.1] * 2, "s": [1] * 2},
        "capm params: beta must be a list of numbers, got ['a', 1]",
        id="capm-beta-not-numbers",
    ),
    pytest.param(
        "expect",
        _model(AFFINE, AFFINE, dist={"kind": "pointmass", "atoms": "x", "probs": [1.0]}),
        "dist.pointmass: atoms must be a list of numbers, got 'x'",
        id="pointmass-atoms-not-numbers",
    ),
    pytest.param(
        "simulate",
        {"kind": "gaussian-copula-lognormal", "mu": [1, "a"], "sigma": [1, 1], "corr": [[1]] * 2},
        "scenario.gaussian-copula-lognormal: mu must be a list of numbers, got [1, 'a']",
        id="copula-mu-not-numbers",
    ),
    # a JSON null or NaN in a list: these used to exit 1 or 5
    pytest.param(
        "mc",
        {"kind": "gaussian-copula-lognormal", "mu": [0, None], "sigma": [1, 1], "corr": [[1, 0], [0, 1]]},
        "scenario.gaussian-copula-lognormal: mu must be a list of finite numbers, got [0, None]",
        id="copula-mu-null",
    ),
    pytest.param(
        "expect",
        _model(AFFINE, AFFINE, dist={"kind": "pointmass", "atoms": [1, None], "probs": [0.5, 0.5]}),
        "dist.pointmass: atoms must be a list of finite numbers, got [1, None]",
        id="pointmass-atoms-null",
    ),
    pytest.param(
        "price",
        {"r": 0.02, "T": 1.0, "sigma_M": 0.2, "beta": [float("nan"), 1], "gamma": [0.1] * 2, "s": [1] * 2},
        "capm params: beta must be a list of finite numbers, got [nan, 1]",
        id="capm-beta-nan",
    ),
]


@pytest.mark.parametrize("command, obj, message", SCHEMA_ERRORS)
def test_schema_error_messages(tmp_path, two_bank_csv, capsys, command, obj, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    if command == "simulate":
        argv = [command, str(path), "--paths", "3"]
    elif command == "mc":
        argv = [command, two_bank_csv, str(path), "--paths", "3"]
    else:
        argv = [command, two_bank_csv, str(path)]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {"type": "schema", "message": message}


def test_json_schema_envelope(two_bank_csv, bench_model):
    proc = run_cli("q-star", two_bank_csv, bench_model, "--format", "json", check=True)
    doc = json.loads(proc.stdout)
    assert list(doc) == sorted(doc)
    assert doc["command"] == "q-star"
    assert isinstance(doc["rows"], list) and len(doc["rows"]) == 2


# ---------------------------------------------------------------------------
# golden output bytes


GOLDEN_PARAMS = {
    "r": 0.02,
    "T": 1.0,
    "sigma_M": 0.2,
    "beta": [0.8, 1.2],
    "gamma": [0.1, 0.15],
    "s": [7.5, 4.0],
}

GOLDEN_LOGNORMAL_MODEL = {
    "maps": [
        {"type": "affine", "shift": 0.0, "slope": 3.0},
        {"type": "affine", "shift": 0.0, "slope": 4.0},
    ],
    "dist": {"kind": "lognormal", "mu": -0.5, "sigma2": 1.0},
}

GOLDEN_INPUTS = {
    "params.json": GOLDEN_PARAMS,
    "bounds_lognormal.json": {
        "marginals": [
            {"kind": "lognormal", "mu": 1.0, "sigma2": 0.25},
            {"kind": "lognormal", "mu": 1.2, "sigma2": 0.16},
        ],
        "conditional_model": GOLDEN_LOGNORMAL_MODEL,
    },
    "bounds_finite.json": {
        "marginals": [
            {"kind": "finite", "atoms": [1.0, 3.0, 6.0], "probs": [0.2, 0.5, 0.3]},
            {"kind": "finite", "atoms": [2.0, 5.0], "probs": [0.4, 0.6]},
        ],
    },
    "bounds_tabulated.json": {
        "marginals": [
            {"kind": "tabulated-quantile", "u": [0.1, 0.5, 0.9], "x": [1.0, 3.0, 6.0]},
            {"kind": "tabulated-quantile", "u": [0.2, 0.6, 0.8], "x": [2.0, 4.0, 7.0]},
        ],
    },
    "model.json": GOLDEN_LOGNORMAL_MODEL,
    "model_power.json": {
        "maps": [
            {"type": "power", "coef": 2.5, "exponent": 0.8, "shift": 0.5},
            {"type": "power", "coef": 4.0, "exponent": 1.3},
        ],
        "dist": {"kind": "lognormal", "mu": -0.5, "sigma2": 1.0},
    },
    "scen_factor.json": {"kind": "comonotonic-factor", "model": GOLDEN_LOGNORMAL_MODEL},
    "scen_capm.json": {
        "kind": "capm",
        "params": {**GOLDEN_PARAMS, "mu_M": 0.06},
        "measure": "P",
    },
    "scen_copula.json": {
        "kind": "gaussian-copula-lognormal",
        "mu": [1.0, 1.2],
        "sigma": [0.5, 0.4],
        "corr": [[1.0, 0.3], [0.3, 1.0]],
    },
    "scen_finite.json": {
        "kind": "finite-support",
        "atoms": [[1.0, 2.0], [5.0, 6.0], [9.0, 1.0]],
        "probs": [0.3, 0.5, 0.2],
    },
}

GOLDEN_SHEETS = (
    "bank_id,total_assets,capital,interbank_liabilities\n"
    "A,120,9,20\nB,80,5,15\nC,300,24,40\nD,45,3,9\nE,150,12,30\nF,60,4,6\n"
)

# sha256 of stdout: any change in the arithmetic behind these commands,
# down to the last bit of one value, shows; {dir} holds the inputs
GOLDEN_CALLS = [
    pytest.param(
        "bounds {dir}/net.csv {dir}/bounds_lognormal.json",
        "d18478c01485c5b38cee4edcc40a0095bc3e8ff243c2bd6f32b43d8d3d767488",
        id="bounds-lognormal-conditional",
    ),
    pytest.param(
        "bounds {dir}/net.csv {dir}/bounds_finite.json",
        "7141f5223fe610e35d5fd13e0430fd67a901b0558b3f83d369870dd961c0dfc5",
        id="bounds-finite",
    ),
    pytest.param(
        "bounds {dir}/net.csv {dir}/bounds_tabulated.json",
        "73ccbe3a9e88c56ba4e9c4e39bfb0e278b0b5b6e3cdda4aab25fd7c8519aea17",
        id="bounds-tabulated-quantile",
    ),
    pytest.param(
        "statics {dir}/net.csv {dir}/params.json --sweep T --grid 0.5,1,2",
        "2c2dade989165da24873ebb0b17621584f3dc51f9a370d5c727ba87839d2a713",
        id="statics-T",
    ),
    pytest.param(
        "statics {dir}/net.csv {dir}/params.json --sweep alpha --grid 0.5,1",
        "6b9ea02d351ecd141e820918a6412b542352bb72ffcf7749335e38426573652b",
        id="statics-alpha",
    ),
    pytest.param(
        "statics {dir}/net.csv {dir}/params.json --sweep ratio --route liabilities"
        " --grid 0.8,1.2,1.6",
        "f071a43bb804c2a021e4cfcc9750e3cc8f86b759fe33ed79a7a53cf777b1c47c",
        id="statics-ratio-liabilities",
    ),
    pytest.param(
        "price {dir}/net.csv {dir}/params.json --which both --baseline risky",
        "a99289385d5e7d554e3ea8ee2b1b0adbd91c645c5f073ea99b4ca97d30745f1b",
        id="price-both-risky",
    ),
    pytest.param(
        "price {dir}/partial.csv {dir}/params.json --which lower --force",
        "f8927f9ce94d1f4cd77208ff1d72c57d26a98e6dd9280454a1d5f476fd274a91",
        id="price-lower-force-partial",
    ),
    pytest.param(
        "clear {dir}/net.csv --x 2.5,3",
        "418fc991de732ae0223b67dfd9f74e1c56473b325b5f2f3b248615e655f6bde9",
        id="clear",
    ),
    pytest.param(
        "clear {dir}/partial.csv --x 1,4 --format json",
        "f73c0754bba7b1fee1191ce7e2eee43940930e155cb365389679af6912e4ec38",
        id="clear-partial-json",
    ),
    pytest.param(
        "q-star {dir}/net.csv {dir}/model.json --format json",
        "37c48af73277e25f89085f4fe74fbc62e4da623ad87ea5bfcc63d99e0b95f7bf",
        id="q-star-json",
    ),
    pytest.param(
        "expect {dir}/net.csv {dir}/model_power.json",
        "2937ac3c37040ae81c9d7d75139b09e55800fcc366873aec24424376b0414be6",
        id="expect-power",
    ),
    pytest.param(
        "calibrate {dir}/sheets.csv --seed 3",
        "e033567bb1b6fd82883e109cf4f38d1e58d698e11404f276a56c3393f4cc9b9f",
        id="calibrate-6-banks",
    ),
    pytest.param(
        "simulate {dir}/scen_factor.json --paths 5 --offset 3 --seed 2",
        "da5a72ec1fd3266dd8ac666a27fc624e96e4ac30ed277aa15ce3de2edde7f01f",
        id="simulate-factor-offset",
    ),
    pytest.param(
        "mc {dir}/net.csv {dir}/scen_capm.json --paths 400 --seed 5",
        "917afc5fbb717546d5af65ec8abf2e70e95c411a672bd53d2196d4cf24d68dfc",
        id="mc-capm-P",
    ),
    pytest.param(
        "mc {dir}/net.csv {dir}/scen_copula.json --paths 400 --seed 5",
        "36bfce89e5fddcadb71b0151fb9d881f5437993c441af8f4ae5a32e00d739731",
        id="mc-copula",
    ),
    pytest.param(
        "mc {dir}/partial.csv {dir}/scen_finite.json --paths 400 --seed 5",
        "97ad5c2533f02acb7cd8182a2cc3416a4293d5e13c57119d90ba831e57bc0683",
        id="mc-finite-support",
    ),
]


@pytest.fixture
def golden_dir(tmp_path):
    for name, obj in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(obj))
    (tmp_path / "sheets.csv").write_text(GOLDEN_SHEETS)
    write_network_csv(str(tmp_path / "net.csv"), make_two_bank())
    partial = build_network([[0.0, 7.0, 3.0], [3.0, 0.0, 3.0]], 0.5, 0.7)
    write_network_csv(str(tmp_path / "partial.csv"), partial)
    return tmp_path


@pytest.mark.parametrize("command, digest", GOLDEN_CALLS)
def test_golden_stdout(golden_dir, capsys, command, digest):
    argv = command.format(dir=golden_dir).split()
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
