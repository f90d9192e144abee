"""Command line front end.

Subcommands map one-to-one onto the library: ``clear`` runs the
fictitious-default algorithm, ``q-star`` and ``expect`` evaluate the
comonotonic closed forms, ``bounds`` the ordering bounds, ``price`` and
``statics`` the CAPM price bounds, ``calibrate`` builds a network from balance
sheets, and ``simulate``/``mc`` drive the Monte Carlo oracle.

Output is deterministic: floats are written with ``repr`` (shortest
round trip), CSV uses LF line endings, JSON is emitted with sorted keys.
Failures exit with a machine-readable JSON object on stderr and a
distinct code per error class: 2 usage, 3 missing file, 4 malformed
input, 5 domain or infeasibility, 1 anything else.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .bounds import (
    BoundsError,
    MarginalSet,
    TabulatedQuantile,
    comonotonic_lower,
    conditional_upper,
    jensen_upper,
)
from .calibration import (
    CalibrationError,
    SchemaError,
    calibrated_network,
    current_ratio,
    network_csv_text,
    ratio_via_assets,
    ratio_via_liabilities,
    read_balance_sheets_csv,
    read_network_csv,
)
from .capm import (
    CapmParams,
    PricingError,
    effective_rate,
    merton_baseline,
    price_and_cap,
)
from .clearing import greatest_clearing
from .comonotonic import (
    AffineMap,
    Empirical,
    FactorModel,
    LogNormal,
    ModelError,
    PointMass,
    PowerMap,
    QuadratureError,
    TabulatedMap,
    Uniform01,
    expected_values,
    solvency_thresholds,
)
from .network import NetworkError, build_network
from .oracle import OracleError, mc_expectations, simulate

SCHEMA_VERSION = "1"

_DOMAIN_ERRORS = (
    NetworkError,
    ModelError,
    QuadratureError,
    BoundsError,
    PricingError,
    CalibrationError,
    OracleError,
)


# ---------------------------------------------------------------------------
# Output formatting


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _jsonable(v):
    if v is None or isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    x = float(v)
    if math.isfinite(x):
        return x
    return repr(x)


def _emit(args, command: str, columns, rows) -> None:
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "rows": [{c: _jsonable(r[c]) for c in columns} for r in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_cell(r[c]) for c in columns) for r in rows]
        text = "\n".join(lines) + "\n"
    _write_text(args.output, text)


def _write_text(output, text: str) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Input parsing


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return obj


def _require_keys(obj: dict, what: str, required, optional=()):
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{what}: missing key(s) {', '.join(missing)}")
    allowed = set(required) | set(optional) | {"schema_version"}
    unknown = [k for k in obj if k not in allowed]
    if unknown:
        raise SchemaError(f"{what}: unknown key(s) {', '.join(sorted(unknown))}")


def _dist_from_json(obj) -> object:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("dist: expected an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "lognormal":
        _require_keys(obj, "dist.lognormal", ("kind", "mu", "sigma2"))
        return LogNormal(float(obj["mu"]), float(obj["sigma2"]))
    if kind == "pointmass":
        _require_keys(obj, "dist.pointmass", ("kind", "atoms", "probs"))
        return PointMass(obj["atoms"], obj["probs"])
    if kind == "empirical":
        _require_keys(obj, "dist.empirical", ("kind", "sample"))
        return Empirical(obj["sample"])
    if kind == "uniform":
        _require_keys(obj, "dist.uniform", ("kind",))
        return Uniform01()
    raise SchemaError(f"dist: unknown kind {kind!r}")


def _map_from_json(obj) -> object:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError("map: expected an object with a 'type' key")
    mtype = obj["type"]
    if mtype == "affine":
        _require_keys(obj, "map.affine", ("type", "shift", "slope"))
        return AffineMap(float(obj["shift"]), float(obj["slope"]))
    if mtype == "power":
        _require_keys(obj, "map.power", ("type", "coef", "exponent"), ("shift",))
        return PowerMap(
            float(obj["coef"]), float(obj["exponent"]), float(obj.get("shift", 0.0))
        )
    if mtype == "tabulated":
        _require_keys(obj, "map.tabulated", ("type", "q", "x"))
        return TabulatedMap(obj["q"], obj["x"])
    raise SchemaError(f"map: unknown type {mtype!r}")


def _factor_model_from_json(obj: dict) -> FactorModel:
    _require_keys(obj, "factor model", ("maps", "dist"))
    if not isinstance(obj["maps"], list) or not obj["maps"]:
        raise SchemaError("factor model: 'maps' must be a nonempty list")
    return FactorModel([_map_from_json(m) for m in obj["maps"]], _dist_from_json(obj["dist"]))


def _capm_from_json(obj: dict) -> CapmParams:
    _require_keys(
        obj,
        "capm params",
        ("r", "T", "sigma_M", "beta", "gamma", "s"),
        ("sigma", "q0", "mu_M"),
    )
    return CapmParams(
        r=float(obj["r"]),
        T=float(obj["T"]),
        sigma_M=float(obj["sigma_M"]),
        beta=obj["beta"],
        gamma=obj["gamma"],
        s=obj["s"],
        sigma=obj.get("sigma"),
        q0=float(obj.get("q0", 1.0)),
        mu_M=None if obj.get("mu_M") is None else float(obj["mu_M"]),
    )


def _marginal_from_json(obj) -> object:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("marginal: expected an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "lognormal":
        _require_keys(obj, "marginal.lognormal", ("kind", "mu", "sigma2"))
        return LogNormal(float(obj["mu"]), float(obj["sigma2"]))
    if kind == "finite":
        _require_keys(obj, "marginal.finite", ("kind", "atoms", "probs"))
        return PointMass(obj["atoms"], obj["probs"])
    if kind == "tabulated-quantile":
        _require_keys(obj, "marginal.tabulated-quantile", ("kind", "u", "x"))
        return TabulatedQuantile(obj["u"], obj["x"])
    raise SchemaError(f"marginal: unknown kind {kind!r}")


def _scenario_from_json(obj: dict) -> dict:
    if "kind" not in obj:
        raise SchemaError("scenario: missing 'kind'")
    kind = obj["kind"]
    if kind == "comonotonic-factor":
        _require_keys(obj, "scenario", ("kind", "model"))
        return {"kind": kind, "model": _factor_model_from_json(obj["model"])}
    if kind == "capm":
        _require_keys(obj, "scenario", ("kind", "params"), ("measure",))
        return {
            "kind": kind,
            "params": _capm_from_json(obj["params"]),
            "measure": obj.get("measure", "Q"),
        }
    if kind == "gaussian-copula-lognormal":
        _require_keys(obj, "scenario", ("kind", "mu", "sigma", "corr"))
        return {"kind": kind, "mu": obj["mu"], "sigma": obj["sigma"], "corr": obj["corr"]}
    if kind == "finite-support":
        _require_keys(obj, "scenario", ("kind", "atoms", "probs"))
        return {"kind": kind, "atoms": obj["atoms"], "probs": obj["probs"]}
    raise SchemaError(f"scenario: unknown kind {kind!r}")


def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise SchemaError(f"{what}: expected comma-separated numbers") from exc
    if not vals:
        raise SchemaError(f"{what}: empty list")
    return np.asarray(vals)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_clear(args) -> None:
    net = read_network_csv(args.network)
    x = _parse_floats(args.x, "--x")
    if x.shape != (net.n,) or np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise SchemaError(f"--x: expected {net.n} nonnegative finite endowments, got {args.x!r}")
    res = greatest_clearing(net, x)
    cols = ("bank", "V", "p", "E", "z")
    rows = [
        {"bank": str(i + 1), "V": res.V[i], "p": res.p[i], "E": res.E[i], "z": int(res.z[i])}
        for i in range(net.n)
    ]
    rows.append(
        {
            "bank": "society",
            "V": res.societal_payment,
            "p": 0.0,
            "E": res.societal_payment,
            "z": 0,
        }
    )
    _emit(args, "clear", cols, rows)


def _cmd_qstar(args) -> None:
    net = read_network_csv(args.network)
    model = _factor_model_from_json(_load_json(args.model))
    th = solvency_thresholds(net, model)
    rows = [{"bank": str(i + 1), "q_star": th.q_star[i]} for i in range(net.n)]
    _emit(args, "q-star", ("bank", "q_star"), rows)


def _cmd_expect(args) -> None:
    net = read_network_csv(args.network)
    model = _factor_model_from_json(_load_json(args.model))
    ev = expected_values(net, model)
    cols = ("bank", "pd", "EV", "Ep", "EE")
    rows = [
        {"bank": str(i + 1), "pd": ev.pd[i], "EV": ev.EV[i], "Ep": ev.Ep[i], "EE": ev.EE[i]}
        for i in range(net.n)
    ]
    _emit(args, "expect", cols, rows)


def _cmd_bounds(args) -> None:
    net = read_network_csv(args.network)
    obj = _load_json(args.marginals)
    _require_keys(obj, "marginals file", ("marginals",), ("conditional_model",))
    if not isinstance(obj["marginals"], list) or not obj["marginals"]:
        raise SchemaError("marginals file: 'marginals' must be a nonempty list")
    marg = MarginalSet([_marginal_from_json(m) for m in obj["marginals"]])
    lower = comonotonic_lower(net, marg)
    jensen = jensen_upper(net, marg.means())
    cond = None
    if obj.get("conditional_model") is not None:
        cond = conditional_upper(net, _factor_model_from_json(obj["conditional_model"]))
    cols = ("bank", "lower", "conditional_upper", "jensen_upper")
    rows = [
        {
            "bank": str(i + 1),
            "lower": lower.Ep[i],
            "conditional_upper": None if cond is None else cond.Ep[i],
            "jensen_upper": jensen.Ep[i],
        }
        for i in range(net.n)
    ]
    _emit(args, "bounds", cols, rows)


def _price_side(net, params, which, force):
    """Price, effective rate and market cap per bank for one bound."""
    price, cap = price_and_cap(net, params, which, force=force)
    pay = zip(price * net.p_bar, net.p_bar)
    rate = np.array([effective_rate(float(c), float(pb), params.T) for c, pb in pay])
    return price, rate, cap


def _bank_rows(which, price, rate, cap, guarantee):
    return [
        {
            "bank": str(i + 1),
            "which": which,
            "price": price[i],
            "rate": rate[i],
            "market_cap": cap[i],
            "guarantee": guarantee,
        }
        for i in range(price.size)
    ]


def _cmd_price(args) -> None:
    net = read_network_csv(args.network)
    params = _capm_from_json(_load_json(args.params))
    guarantee = "bound" if net.full_recovery else "no bound guarantee"
    sides = ("lower", "upper") if args.which == "both" else (args.which,)
    rows = []
    for which in sides:
        rows += _bank_rows(which, *_price_side(net, params, which, args.force), guarantee)
    if args.baseline != "none":
        base = merton_baseline(net, params, args.baseline + "_interbank")
        rows += _bank_rows(
            f"baseline_{args.baseline}", base.price, base.rate, base.market_cap, "baseline"
        )
    cols = ("bank", "which", "price", "rate", "market_cap", "guarantee")
    _emit(args, "price", cols, rows)


def _cmd_statics(args) -> None:
    net = read_network_csv(args.network)
    params = _capm_from_json(_load_json(args.params))
    grid = _parse_floats(args.grid, "--grid")
    rows = []
    for g in grid:
        g = float(g)
        if args.sweep == "beta":
            idio2 = params.sigma**2 - (g * params.sigma_M) ** 2
            if np.any(idio2 < -1e-12):
                raise PricingError(
                    f"beta={g!r} exceeds sigma_i / sigma_M for some bank; "
                    "total volatility cannot be held fixed"
                )
            gamma = np.sqrt(np.maximum(idio2, 0.0))
            p2, n2 = replace(params, sigma=None, beta=np.full(net.n, g), gamma=gamma), net
        elif args.sweep == "T":
            if g <= 0.0:
                raise PricingError("T grid values must be positive")
            p2, n2 = replace(params, sigma=None, T=g), net
        elif args.sweep == "alpha":
            if not 0.0 <= g <= 1.0:
                raise PricingError("alpha grid values must lie in [0, 1]")
            gam = net.Gamma if net.has_cross_ownership else None
            p2, n2 = params, build_network(net.L, g, g, gam)
        else:
            d = current_ratio(net, params.s, q0=params.q0)
            d[args.bank - 1] = g
            if args.route == "assets":
                s2 = ratio_via_assets(net, d, q0=params.q0)
                p2, n2 = replace(params, sigma=None, s=s2), net
            else:
                n2 = ratio_via_liabilities(net, d, params.s, q0=params.q0)
                p2 = params
        force = args.force or not n2.full_recovery
        sides = {which: _price_side(n2, p2, which, force) for which in ("lower", "upper")}
        for k, name in enumerate(("price", "rate", "cap")):
            for which, vals in sides.items():
                metric, col = f"{name}_{which}", vals[k]
                for i in range(net.n):
                    rows.append(
                        {"param": g, "bank": str(i + 1), "metric": metric, "value": col[i]}
                    )
                median = float(np.median(col))
                rows.append({"param": g, "bank": "median", "metric": metric, "value": median})
    _emit(args, "statics", ("param", "bank", "metric", "value"), rows)


def _cmd_calibrate(args) -> None:
    sheets = read_balance_sheets_csv(args.sheets)
    net, calib = calibrated_network(
        sheets,
        alpha_x=args.alpha_x,
        alpha_L=args.alpha_L,
        seed=args.seed,
        density=args.density,
    )
    if args.network_out is not None:
        _write_text(args.network_out, network_csv_text(net))
    cols = ("bank", "s", "L_ext", "p_bar", "interbank")
    rows = [
        {
            "bank": calib.bank_ids[i],
            "s": calib.s[i],
            "L_ext": calib.L_ext[i],
            "p_bar": calib.p_bar[i],
            "interbank": calib.interbank[i],
        }
        for i in range(len(calib.bank_ids))
    ]
    _emit(args, "calibrate", cols, rows)


def _cmd_simulate(args) -> None:
    spec = _scenario_from_json(_load_json(args.scenario))
    batch = simulate(spec, args.paths, args.seed, path_offset=args.offset)
    n = batch.X.shape[1]
    cols = ("path",) + tuple(f"x{i + 1}" for i in range(n))
    rows = []
    for k in range(batch.X.shape[0]):
        row = {"path": str(args.offset + k)}
        for i in range(n):
            row[f"x{i + 1}"] = batch.X[k, i]
        rows.append(row)
    _emit(args, "simulate", cols, rows)


def _cmd_mc(args) -> None:
    net = read_network_csv(args.network)
    spec = _scenario_from_json(_load_json(args.scenario))
    batch = simulate(spec, args.paths, args.seed, path_offset=args.offset)
    est = mc_expectations(net, batch)
    cols = ("bank", "pd", "EV", "Ep", "EE", "se_pd", "se_EV", "se_Ep", "se_EE")
    rows = [
        {
            "bank": str(i + 1),
            "pd": est.pd[i],
            "EV": est.EV[i],
            "Ep": est.Ep[i],
            "EE": est.EE[i],
            "se_pd": est.se_pd[i],
            "se_EV": est.se_EV[i],
            "se_Ep": est.se_Ep[i],
            "se_EE": est.se_EE[i],
        }
        for i in range(net.n)
    ]
    rows.append(
        {
            "bank": "society",
            "pd": None,
            "EV": None,
            "Ep": est.E_soc,
            "EE": None,
            "se_pd": None,
            "se_EV": None,
            "se_Ep": est.se_soc,
            "se_EE": None,
        }
    )
    _emit(args, "mc", cols, rows)


# ---------------------------------------------------------------------------
# Argument parsing


def _default_seed() -> int:
    raw = os.environ.get("NETVAL_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise SchemaError(f"NETVAL_SEED must be an integer, got {raw!r}") from exc


def _add_common(sub) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", "-o", default=None, help="write to file instead of stdout")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default NETVAL_SEED or 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netval",
        description="Clearing, solvency thresholds, and debt pricing in liability networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clear", help="greatest clearing wealths for one endowment vector")
    p.add_argument("network", help="network CSV")
    p.add_argument("--x", required=True, help="comma-separated endowments")
    _add_common(p)
    p.set_defaults(func=_cmd_clear)

    p = sub.add_parser("q-star", help="comonotonic solvency thresholds")
    p.add_argument("network")
    p.add_argument("model", help="factor model JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_qstar)

    p = sub.add_parser("expect", help="closed-form expected wealths, payments, equities")
    p.add_argument("network")
    p.add_argument("model", help="factor model JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("bounds", help="comonotonic lower and Jensen/conditional upper bounds")
    p.add_argument("network")
    p.add_argument("marginals", help="marginals JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("price", help="CAPM debt price bounds and market caps")
    p.add_argument("network")
    p.add_argument("params", help="CAPM parameter JSON")
    p.add_argument("--which", choices=("lower", "upper", "both"), default="both")
    p.add_argument(
        "--baseline", choices=("riskfree", "risky", "none"), default="none",
        help="append single-firm baseline rows",
    )
    p.add_argument("--force", action="store_true", help="evaluate despite partial recovery")
    _add_common(p)
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("statics", help="comparative statics sweeps (long CSV)")
    p.add_argument("network")
    p.add_argument("params", help="CAPM parameter JSON")
    p.add_argument("--sweep", choices=("beta", "T", "alpha", "ratio"), required=True)
    p.add_argument("--grid", required=True, help="comma-separated grid values")
    p.add_argument("--route", choices=("assets", "liabilities"), default="assets")
    p.add_argument("--bank", type=int, default=1, help="1-based bank whose ratio is swept")
    p.add_argument("--force", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_statics)

    p = sub.add_parser("calibrate", help="balance sheets to network")
    p.add_argument("sheets", help="balance sheet CSV")
    p.add_argument("--alpha-x", type=float, default=1.0, dest="alpha_x")
    p.add_argument("--alpha-L", type=float, default=1.0, dest="alpha_L")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--network-out", default=None, help="also write the network CSV here")
    _add_common(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("simulate", help="draw endowment scenarios")
    p.add_argument("scenario", help="scenario JSON")
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--offset", type=int, default=0, help="index of the first path")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mc", help="Monte Carlo expectations with standard errors")
    p.add_argument("network")
    p.add_argument("scenario", help="scenario JSON")
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--offset", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_mc)

    return parser


def _fail(code: int, kind: str, exc: Exception) -> int:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "error": {"type": kind, "message": str(exc)},
    }
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        args.func(args)
    except FileNotFoundError as exc:
        return _fail(3, "file-not-found", exc)
    except SchemaError as exc:
        return _fail(4, "schema", exc)
    except _DOMAIN_ERRORS as exc:
        return _fail(5, "domain", exc)
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(1, "internal", exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
