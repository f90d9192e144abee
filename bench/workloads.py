"""The four benchmark workloads: inputs drawn from a seed, timed passes, gates.

Each workload builds its inputs in ``__init__`` (the set-up), then runs
passes; a pass is a list of operations, each timed on its own and checked
by the workload's correctness gate outside its timing.  Everything a
workload draws comes from ``numpy.random.SeedSequence([seed, tag, ...])``,
so the same seed gives the same inputs.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time

import numpy as np
from tracer import merge

# Operations call library functions as attributes of the package, so a
# traced run sees them through the tracer's wrappers.  Gates use these
# aliases, bound before any tracer is installed, so their checks stay
# out of the per-module numbers.
import netval as nv
from netval import greatest_clearing as _greatest_clearing
from netval import psi_star as _psi_star
from netval import (
    AffineMap,
    CapmParams,
    FactorModel,
    LogNormal,
    MarginalSet,
    PowerMap,
    make_synthetic_sheets,
    read_balance_sheets_csv,
    write_balance_sheets_csv,
    write_network_csv,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
FIXTURE_87 = importlib.resources.files("netval") / "data" / "synthetic_sheets_87.csv"
# Market scalars are fixed, so a seed's cost does not swing with one draw;
# seeds draw the per-bank loadings, which average over many banks.
RATE = 0.02
SIGMA_M = 0.2


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _int_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


class Op:
    """One timed operation: its label, duration and the failures found."""

    __slots__ = ("label", "seconds", "errors")

    def __init__(self, label, seconds, errors):
        self.label = label
        self.seconds = seconds
        self.errors = errors


def timed(label, fn, gate):
    """Run ``fn`` under the clock, then ``gate(result)`` outside it."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a raised exception is a failed operation
        return Op(label, time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - t0
    try:
        errors = list(gate(out))
    except Exception as exc:
        errors = [f"gate raised {type(exc).__name__}: {exc}"]
    return Op(label, seconds, errors)


class InProcess:
    """A workload whose operations call the library in this process."""

    def start_trace(self, tracer):
        tracer.install()

    def stop_trace(self, tracer):
        """Uninstall and return the snapshot, spans included."""
        tracer.uninstall()
        return dict(tracer.snapshot(), spans=tracer.spans)

    def finish(self):
        """Run-level failures, found once every pass is done."""
        return []

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


# ---------------------------------------------------------------------------
# closed-form


def _lognormal_maps(s, z, params):
    # x_i = s_i q0 hat_eta_i(z_i, q), the CAPM comonotonic endowment maps
    r, T, sM = params.r, params.T, params.sigma_M
    pre = np.exp((1.0 - z / sM) * (r + 0.5 * z * sM) * T)
    return [PowerMap(float(c), float(e)) for c, e in zip(s * params.q0 * pre, z / sM)]


class ClosedForm(InProcess):
    """Calibrate, value and price two fixed balance-sheet sets in closed form.

    Part (a) has one common beta, so every threshold sweep takes the
    affine shortcut and the ladder of n+1 dense solves dominates.  Part
    (b) has per-bank beta and gamma, so thresholds are bisected over
    power maps in Python, and its calibration fails one fit on a sparse
    mask before a denser one succeeds.  The sheets and masks are fixed
    (seed 7); the run's seed draws the betas and gammas.
    """

    name = "closed-form"
    TAG = 1
    SHEETS_SEED = 7

    def __init__(self, seed, tiny, workdir):
        n_a, n_b = (12, 6) if tiny else (100, 10)
        rng = _rng(seed, self.TAG)
        self.parts = {
            "a": dict(
                sheets=make_synthetic_sheets(n_a, seed=self.SHEETS_SEED),
                beta=np.full(n_a, rng.uniform(0.7, 0.9)),
                gamma=np.full(n_a, rng.uniform(0.15, 0.25)),
                spot=_int_seed(rng),
            ),
            "b": dict(
                sheets=make_synthetic_sheets(n_b, seed=self.SHEETS_SEED),
                beta=rng.uniform(0.5, 1.2, n_b),
                gamma=rng.uniform(0.1, 0.4, n_b),
                spot=_int_seed(rng),
            ),
        }

    def run_pass(self, k):
        return [
            timed(f"part-{part}", lambda part=part: self._value(part, self.parts[part]), self._gate)
            for part in ("a", "b")
        ]

    @staticmethod
    def _value(part, p):
        net, calib = nv.calibrated_network(p["sheets"], seed=ClosedForm.SHEETS_SEED)
        params = CapmParams(
            r=RATE, T=1.0, sigma_M=SIGMA_M, beta=p["beta"], gamma=p["gamma"], s=calib.s
        )
        if part == "a":
            # x_i = s_i q with a lognormal factor: every map affine
            sig2 = params.sigma_M**2
            model = FactorModel(
                [AffineMap(0.0, float(si)) for si in calib.s],
                LogNormal(params.r - 0.5 * sig2, sig2),
            )
        else:
            model = FactorModel(
                _lognormal_maps(calib.s, params.sigma, params), params.factor_dist()
            )
        ev = nv.expected_values(net, model)
        prices = {w: nv.debt_price_bound(net, params, w) for w in ("lower", "upper")}
        caps = {w: nv.market_cap(net, params, w) for w in ("lower", "upper")}
        return dict(net=net, params=params, model=model, ev=ev, prices=prices, caps=caps,
                    spot=p["spot"])

    @staticmethod
    def _gate(out):
        net, params, model, ev = out["net"], out["params"], out["model"], out["ev"]
        if not np.all((ev.pd >= 0.0) & (ev.pd <= 1.0)):
            yield "pd outside [0, 1]"
        disc = math.exp(-params.r * params.T)
        for w, price in out["prices"].items():
            if not np.all((price > 0.0) & (price <= disc * (1.0 + 1e-12))):
                yield f"{w} price outside (0, exp(-rT)]"
        if not np.all(out["prices"]["lower"] <= out["prices"]["upper"] + 1e-12):
            yield "lower price above upper price"
        scale = float(net.p_bar.max())
        if np.max(np.abs(ev.EV - (ev.EE - (net.p_bar - ev.Ep)))) > 1e-12 * scale:
            yield "EV != EE - (p_bar - Ep)"
        # thresholds against full clearing just below and above q*_i
        q = ev.thresholds.q_star
        cand = np.flatnonzero(np.isfinite(q) & (q > 0.0))
        rng = np.random.default_rng(out["spot"])
        for i in rng.choice(cand, size=min(3, cand.size), replace=False):
            below = _greatest_clearing(net, model.endowments(q[i] * (1.0 - 1e-6)))
            above = _greatest_clearing(net, model.endowments(q[i] * (1.0 + 1e-6)))
            if below.z[i] != 1 or above.z[i] != 0:
                yield f"bank {i}: q* = {q[i]!r} disagrees with clearing"


# ---------------------------------------------------------------------------
# mc-small-n


def _random_net(rng, n):
    # as the acceptance tests draw them: sparse interbank block, positive
    # societal column, full recovery
    inter = rng.uniform(0.0, 2.0, (n, n))
    inter[rng.random((n, n)) < 0.35] = 0.0
    np.fill_diagonal(inter, 0.0)
    L = np.column_stack([inter, rng.uniform(0.5, 2.0, n)])
    return nv.build_network(L, 1.0, 1.0)


def _random_corr(rng, n):
    A = rng.normal(size=(n, n))
    C = A @ A.T + 0.1 * n * np.eye(n)
    d = 1.0 / np.sqrt(np.diag(C))
    return d[:, None] * C * d[None, :]


class McSmallN(InProcess):
    """Monte Carlo on small random networks, checked against the sandwich.

    Each network gets Gaussian-copula lognormal paths; the MC payment
    means must lie between the comonotonic lower and the Jensen upper
    bound within three standard errors for all but 1% of components.
    Sizes are stratified, five networks of each n in 2..5, so the set
    costs about the same whatever the seed.
    """

    name = "mc-small-n"
    TAG = 2

    def __init__(self, seed, tiny, workdir):
        self.paths, per_size = (2_000, 1) if tiny else (25_000, 5)
        rng = _rng(seed, self.TAG)
        sizes = rng.permutation(np.repeat([2, 3, 4, 5], per_size))
        self.cases = [self._network(rng, int(n)) for n in sizes]
        self.escapes = 0
        self.components = 0

    @staticmethod
    def _network(rng, n):
        net = _random_net(rng, n)
        mu = rng.uniform(-0.5, 0.5, n)
        s2 = rng.uniform(0.25, 1.5, n)
        spec = {
            "kind": "gaussian-copula-lognormal",
            "mu": mu,
            "sigma": np.sqrt(s2),
            "corr": _random_corr(rng, n),
        }
        marg = MarginalSet([LogNormal(float(m), float(v)) for m, v in zip(mu, s2)])
        return net, spec, marg, _int_seed(rng)

    def run_pass(self, k):
        return [
            timed(f"net{j:02d}", lambda case=case: self._value(*case), self._gate)
            for j, case in enumerate(self.cases)
        ]

    def _value(self, net, spec, marg, seed):
        mc = nv.mc_expectations(net, nv.simulate(spec, self.paths, seed))
        return mc, nv.comonotonic_lower(net, marg), nv.jensen_upper(net, marg.means())

    def _gate(self, out):
        mc, lo, hi = out
        if np.any(lo.Ep > hi.Ep + 1e-12):
            yield "comonotonic lower bound above Jensen upper bound"
        bad = (mc.Ep < lo.Ep - 3.0 * mc.se_Ep - 1e-9) | (mc.Ep > hi.Ep + 3.0 * mc.se_Ep + 1e-9)
        self.escapes += int(bad.sum())
        self.components += bad.size

    def finish(self):
        if self.escapes > 0.01 * self.components:
            return [f"{self.escapes} of {self.components} components escaped the sandwich"]
        return []


# ---------------------------------------------------------------------------
# mc-n87


class McN87(InProcess):
    """Monte Carlo on the 87-bank fixture under bankruptcy costs.

    Each operation draws the next block of CAPM paths (measure Q) from
    its Philox substream and clears it; nearly every path has its own
    default pattern, so each pattern costs one 87 x 87 factorization.
    """

    name = "mc-n87"
    TAG = 3

    def __init__(self, seed, tiny, workdir):
        self.paths = 200 if tiny else 500
        rng = _rng(seed, self.TAG)
        sheets = read_balance_sheets_csv(str(FIXTURE_87))
        self.net, calib = nv.calibrated_network(sheets, 0.5, 0.5, seed=_int_seed(rng))
        n = self.net.n
        params = CapmParams(
            r=RATE,
            T=1.0,
            sigma_M=SIGMA_M,
            beta=rng.uniform(0.6, 1.2, n),
            gamma=rng.uniform(0.1, 0.4, n),
            s=calib.s,
        )
        self.spec = {"kind": "capm", "params": params, "measure": "Q"}
        self.seed = _int_seed(rng)
        self.rng = rng

    def run_pass(self, k):
        def value():
            batch = nv.simulate(self.spec, self.paths, self.seed, path_offset=k * self.paths)
            return batch, nv.mc_expectations(self.net, batch)

        return [timed("batch", value, self._gate)]

    def _gate(self, out):
        batch, mc = out
        if not np.all((mc.pd >= 0.0) & (mc.pd <= 1.0)):
            yield "pd outside [0, 1]"
        # valid only because the fixture network has no cross-holdings
        scale = float(self.net.p_bar.max())
        for row in self.rng.choice(batch.X.shape[0], size=4, replace=False):
            x = batch.X[row]
            V = _greatest_clearing(self.net, x).V
            resid = float(np.max(np.abs(_psi_star(self.net, x, V) - V)))
            if resid > 1e-12 * scale:
                yield f"path {row}: psi_star residual {resid!r}"


# ---------------------------------------------------------------------------
# cli-fixture87


class CliFixture87:
    """Fresh-interpreter ``python -m netval.cli`` calls, one after another.

    Start-up dominates: interpreter, ``import netval``, parsing and output
    formatting.  Every command repeats once per pass and must print the
    same bytes each time.
    """

    name = "cli-fixture87"
    TAG = 4
    COMMANDS = ("calibrate", "expect", "price", "clear", "mc")

    def __init__(self, seed, tiny, workdir):
        rng = _rng(seed, self.TAG)
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        f = lambda name: os.path.join(workdir, name)
        sheets = read_balance_sheets_csv(str(FIXTURE_87))
        write_balance_sheets_csv(f("sheets87.csv"), sheets)
        calib_seed = _int_seed(rng)
        net, calib = nv.calibrated_network(sheets, seed=calib_seed)
        write_network_csv(f("net87.csv"), net)
        sig2 = SIGMA_M**2
        _write_json(f("model.json"), {
            "maps": [{"type": "affine", "shift": 0.0, "slope": float(si)} for si in calib.s],
            "dist": {"kind": "lognormal", "mu": -0.5 * sig2, "sigma2": sig2},
        })
        n = net.n
        beta, gamma = float(rng.uniform(0.7, 0.9)), float(rng.uniform(0.15, 0.25))
        _write_json(f("capm.json"), {
            "r": RATE, "T": 1.0, "sigma_M": SIGMA_M,
            "beta": [beta] * n, "gamma": [gamma] * n, "s": [float(v) for v in calib.s],
        })
        # the README's two-bank network
        write_network_csv(f("net2.csv"), nv.build_network([[0.0, 7.0, 3.0], [3.0, 0.0, 3.0]], 1.0, 1.0))
        x = rng.uniform(0.0, 8.0, 2)
        _write_json(f("scenario.json"), {
            "kind": "gaussian-copula-lognormal",
            "mu": [float(v) for v in rng.uniform(0.5, 1.5, 2)],
            "sigma": [float(v) for v in rng.uniform(0.2, 0.6, 2)],
            "corr": [[1.0, 0.3], [0.3, 1.0]],
        })
        mc_seed = str(_int_seed(rng))
        self.argv = {
            "calibrate": ["calibrate", f("sheets87.csv"), "--network-out", f("out87.csv"),
                          "--seed", str(calib_seed)],
            "expect": ["expect", f("net87.csv"), f("model.json")],
            "price": ["price", f("net87.csv"), f("capm.json"), "--which", "both"],
            "clear": ["clear", f("net2.csv"), "--x", ",".join(repr(float(v)) for v in x)],
            "mc": ["mc", f("net2.csv"), f("scenario.json"),
                   "--paths", "200" if tiny else "20000", "--seed", mc_seed],
        }
        self.first_stdout = {}
        self.trace_files = None

    def run_pass(self, k):
        return [self._call(cmd, k) for cmd in self.COMMANDS]

    def _call(self, cmd, k):
        if self.trace_files is None:
            argv = [sys.executable, "-m", "netval.cli"]
        else:
            out = os.path.join(self.dir, f"trace-{k}-{cmd}.json")
            self.trace_files.append(out)
            argv = [sys.executable, os.path.join(BENCH_DIR, "trace_cli.py"), out]
        t0 = time.perf_counter()
        proc = subprocess.run(argv + self.argv[cmd], capture_output=True, timeout=120)
        seconds = time.perf_counter() - t0
        errors = []
        if proc.returncode != 0:
            errors.append(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')}")
        elif self.first_stdout.setdefault(cmd, proc.stdout) != proc.stdout:
            errors.append("stdout differs from the first call")
        return Op(cmd, seconds, errors)

    def start_trace(self, tracer):
        self.trace_files = []

    def stop_trace(self, tracer):
        """Merge the snapshots the traced calls wrote; spans stay per call."""
        agg, spans = {}, []
        for path in self.trace_files:
            with open(path) as fh:
                doc = json.load(fh)
            merge(agg, doc)
            spans.append({"call": os.path.basename(path), "spans": doc["spans"]})
        self.trace_files = None
        return dict(agg, spans=spans)

    def finish(self):
        return []

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


WORKLOADS = {w.name: w for w in (ClosedForm, McSmallN, McN87, CliFixture87)}
