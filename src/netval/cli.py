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


def _bank_rows(n: int, **columns) -> list:
    """One row per bank: ``bank`` (1-based unless given), then ``columns``.

    A column is a per-bank sequence, or a scalar repeated on every row.
    """
    columns = {"bank": [str(i + 1) for i in range(n)], **columns}
    columns = {k: [v] * n if np.ndim(v) == 0 else v for k, v in columns.items()}
    return [{k: v[i] for k, v in columns.items()} for i in range(n)]


def _emit(args, rows) -> None:
    """Write ``rows`` as ``args.format``; columns follow the first row's keys."""
    columns = list(rows[0])
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
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


def _require_keys(obj, what: str, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{what}: missing key(s) {', '.join(missing)}")
    allowed = set(required) | set(optional) | {"schema_version"}
    unknown = [k for k in obj if k not in allowed]
    if unknown:
        raise SchemaError(f"{what}: unknown key(s) {', '.join(sorted(unknown))}")


def _num(obj: dict, key: str, what: str, default=None) -> float:
    value = obj.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: {key} must be a number, got {value!r}") from exc


def _nums(obj: dict, key: str, what: str) -> np.ndarray:
    try:
        return np.asarray(obj[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: {key} must be a list of numbers, got {obj[key]!r}") from exc


def _tagged(obj, what: str, tag: str, table: dict):
    """Parse a JSON object whose ``tag`` key selects an entry of ``table``.

    Each entry maps a kind to ``(builder, required keys, optional keys)``;
    the builder gets the object and its ``what.kind`` name for messages.
    """
    if not isinstance(obj, dict) or tag not in obj:
        raise SchemaError(f"{what}: expected an object with a {tag!r} key")
    kind = obj[tag]
    if not isinstance(kind, str) or kind not in table:
        raise SchemaError(f"{what}: unknown {tag} {kind!r}")
    build, required, optional = table[kind]
    where = f"{what}.{kind}"
    _require_keys(obj, where, (tag,) + required, optional)
    return build(obj, where)


_DISTS = {
    "lognormal": (
        lambda o, w: LogNormal(_num(o, "mu", w), _num(o, "sigma2", w)),
        ("mu", "sigma2"),
        (),
    ),
    "pointmass": (
        lambda o, w: PointMass(_nums(o, "atoms", w), _nums(o, "probs", w)), ("atoms", "probs"), ()
    ),
    "empirical": (lambda o, w: Empirical(_nums(o, "sample", w)), ("sample",), ()),
    "uniform": (lambda o, w: Uniform01(), (), ()),
}

_MAPS = {
    "affine": (
        lambda o, w: AffineMap(_num(o, "shift", w), _num(o, "slope", w)),
        ("shift", "slope"),
        (),
    ),
    "power": (
        lambda o, w: PowerMap(
            _num(o, "coef", w), _num(o, "exponent", w), _num(o, "shift", w, 0.0)
        ),
        ("coef", "exponent"),
        ("shift",),
    ),
    "tabulated": (lambda o, w: TabulatedMap(_nums(o, "q", w), _nums(o, "x", w)), ("q", "x"), ()),
}

# marginals share the distribution parsers under their own kind names
_MARGINALS = {
    "lognormal": _DISTS["lognormal"],
    "finite": _DISTS["pointmass"],
    "tabulated-quantile": (
        lambda o, w: TabulatedQuantile(_nums(o, "u", w), _nums(o, "x", w)), ("u", "x"), ()
    ),
}


def _factor_model_from_json(obj) -> FactorModel:
    _require_keys(obj, "factor model", ("maps", "dist"))
    if not isinstance(obj["maps"], list) or not obj["maps"]:
        raise SchemaError("factor model: 'maps' must be a nonempty list")
    return FactorModel(
        [_tagged(m, "map", "type", _MAPS) for m in obj["maps"]],
        _tagged(obj["dist"], "dist", "kind", _DISTS),
    )


def _capm_from_json(obj) -> CapmParams:
    what = "capm params"
    _require_keys(obj, what, ("r", "T", "sigma_M", "beta", "gamma", "s"), ("sigma", "q0", "mu_M"))
    return CapmParams(
        r=_num(obj, "r", what),
        T=_num(obj, "T", what),
        sigma_M=_num(obj, "sigma_M", what),
        beta=_nums(obj, "beta", what),
        gamma=_nums(obj, "gamma", what),
        s=_nums(obj, "s", what),
        sigma=None if obj.get("sigma") is None else _nums(obj, "sigma", what),
        q0=_num(obj, "q0", what, 1.0),
        mu_M=None if obj.get("mu_M") is None else _num(obj, "mu_M", what),
    )


def _lists(*keys):
    return lambda o, w: dict(o, **{k: _nums(o, k, w) for k in keys})


# a scenario is the JSON object itself, with its model, params or lists parsed
_SCENARIOS = {
    "comonotonic-factor": (
        lambda o, w: dict(o, model=_factor_model_from_json(o["model"])),
        ("model",),
        (),
    ),
    "capm": (
        lambda o, w: dict(o, params=_capm_from_json(o["params"])),
        ("params",),
        ("measure",),
    ),
    "gaussian-copula-lognormal": (_lists("mu", "sigma", "corr"), ("mu", "sigma", "corr"), ()),
    "finite-support": (_lists("atoms", "probs"), ("atoms", "probs"), ()),
}


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
    rows = _bank_rows(net.n, V=res.V, p=res.p, E=res.E, z=res.z)
    soc = res.societal_payment
    rows.append({"bank": "society", "V": soc, "p": 0.0, "E": soc, "z": 0})
    _emit(args, rows)


def _cmd_qstar(args) -> None:
    net = read_network_csv(args.network)
    model = _factor_model_from_json(_load_json(args.model))
    th = solvency_thresholds(net, model)
    _emit(args, _bank_rows(net.n, q_star=th.q_star))


def _cmd_expect(args) -> None:
    net = read_network_csv(args.network)
    model = _factor_model_from_json(_load_json(args.model))
    ev = expected_values(net, model)
    _emit(args, _bank_rows(net.n, pd=ev.pd, EV=ev.EV, Ep=ev.Ep, EE=ev.EE))


def _cmd_bounds(args) -> None:
    net = read_network_csv(args.network)
    obj = _load_json(args.marginals)
    _require_keys(obj, "marginals file", ("marginals",), ("conditional_model",))
    if not isinstance(obj["marginals"], list) or not obj["marginals"]:
        raise SchemaError("marginals file: 'marginals' must be a nonempty list")
    marg = MarginalSet([_tagged(m, "marginal", "kind", _MARGINALS) for m in obj["marginals"]])
    lower = comonotonic_lower(net, marg)
    jensen = jensen_upper(net, marg.means())
    cond = None
    if obj.get("conditional_model") is not None:
        cond = conditional_upper(net, _factor_model_from_json(obj["conditional_model"])).Ep
    _emit(args, _bank_rows(net.n, lower=lower.Ep, conditional_upper=cond, jensen_upper=jensen.Ep))


def _price_side(net, params, which, force):
    """Price, effective rate and market cap per bank for one bound."""
    price, cap = price_and_cap(net, params, which, force=force)
    pay = zip(price * net.p_bar, net.p_bar)
    rate = np.array([effective_rate(float(c), float(pb), params.T) for c, pb in pay])
    return price, rate, cap


def _cmd_price(args) -> None:
    net = read_network_csv(args.network)
    params = _capm_from_json(_load_json(args.params))
    guarantee = "bound" if net.full_recovery else "no bound guarantee"
    sides = ("lower", "upper") if args.which == "both" else (args.which,)
    parts = [(which, *_price_side(net, params, which, args.force), guarantee) for which in sides]
    if args.baseline != "none":
        b = merton_baseline(net, params, args.baseline + "_interbank")
        parts.append((f"baseline_{args.baseline}", b.price, b.rate, b.market_cap, "baseline"))
    rows = []
    for which, price, rate, cap, g in parts:
        rows += _bank_rows(net.n, which=which, price=price, rate=rate, market_cap=cap, guarantee=g)
    _emit(args, rows)


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
    _emit(args, rows)


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
    columns = {k: getattr(calib, k) for k in ("s", "L_ext", "p_bar", "interbank")}
    _emit(args, _bank_rows(len(calib.bank_ids), bank=calib.bank_ids, **columns))


def _cmd_simulate(args) -> None:
    spec = _tagged(_load_json(args.scenario), "scenario", "kind", _SCENARIOS)
    batch = simulate(spec, args.paths, args.seed, path_offset=args.offset)
    rows = [
        {"path": str(args.offset + k), **{f"x{i + 1}": v for i, v in enumerate(x)}}
        for k, x in enumerate(batch.X)
    ]
    _emit(args, rows)


def _cmd_mc(args) -> None:
    net = read_network_csv(args.network)
    spec = _tagged(_load_json(args.scenario), "scenario", "kind", _SCENARIOS)
    batch = simulate(spec, args.paths, args.seed, path_offset=args.offset)
    est = mc_expectations(net, batch)
    names = ("pd", "EV", "Ep", "EE", "se_pd", "se_EV", "se_Ep", "se_EE")
    rows = _bank_rows(net.n, **{k: getattr(est, k) for k in names})
    rows.append(dict.fromkeys(rows[0]) | {"bank": "society", "Ep": est.E_soc, "se_Ep": est.se_soc})
    _emit(args, rows)


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
