"""One workload in one fresh interpreter: set up, measure, check, report.

Started by ``run.py`` with BLAS pinned to one thread.  Prints one JSON
object as its last stdout line.  With ``--setup-only`` it builds the
inputs and exits, so the caller can time set-up from process start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import Tracer
from workloads import WORKLOADS


def tail(samples):
    """(value, percentile, count): the highest whole percentile with at
    least ten samples above it, by nearest rank.  Below 20 samples no
    percentile above the median qualifies, and the maximum is reported."""
    xs = sorted(samples)
    n = len(xs)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return xs[rank - 1], pct, n
    return xs[-1], 100, n


def run_passes(wl, seconds, first_pass=0):
    """Passes until ``seconds`` of wall time have gone, and at least two,
    so a repeat can be compared with the first."""
    passes, ops = [], []
    t_end = time.perf_counter() + seconds
    k = first_pass
    while k < first_pass + 2 or time.perf_counter() < t_end:
        recs = wl.run_pass(k)
        ops += recs
        passes.append(sum(op.seconds for op in recs))
        k += 1
    return passes, ops, k


def startup_ms(code, reps):
    """Median wall time of ``python -c code`` in a fresh interpreter."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def layer_metrics(agg, passes, overhead_s, cli_ms, interp_ms, import_ms):
    """Per-module numbers, per pass of the traced phase."""
    T, S = agg.get("totals", {}), agg.get("self", {})
    C, P = agg.get("counts", {}), agg.get("peaks", {})

    def per(v):
        return v / passes

    def ratio(a, b):
        return a / b if b else 0.0

    rows, patterns = C.get("clearing.batch_rows", 0), C.get("clearing.final_patterns", 0)
    delta = ("clearing.delta_matrix", "clearing.delta_vector")
    mc_s = T.get("oracle.simulate", 0.0) + T.get("oracle.mc_expectations", 0.0)
    m = {
        "clearing.batch_self_s": per(S.get("clearing.greatest_clearing_batch", 0.0)),
        "clearing.batch_rows": per(rows),
        "clearing.final_patterns": per(patterns),
        "clearing.rows_per_pattern": ratio(rows, patterns),
        "clearing.delta_calls": per(sum(C.get(d + ".calls", 0) for d in delta)),
        "clearing.delta_s": per(sum(T.get(d, 0.0) for d in delta)),
        "clearing.single_s": per(T.get("clearing.greatest_clearing", 0.0)),
        "clearing.single_iterations": per(C.get("clearing.single_iterations", 0)),
        "comonotonic.thresholds_self_s": per(S.get("comonotonic.solvency_thresholds", 0.0)),
        "comonotonic.thresholds_calls": per(C.get("comonotonic.solvency_thresholds.calls", 0)),
        "comonotonic.expected_values_self_s": per(S.get("comonotonic.expected_values", 0.0)),
        "comonotonic.ladder_mib": P.get("comonotonic.ladder_bytes", 0) / 2**20,
        "comonotonic.map_evals": per(C.get("comonotonic.map_evals", 0)),
        "comonotonic.partial_expectation_calls": per(
            C.get("comonotonic.partial_expectation_calls", 0)
        ),
        "comonotonic.affine_map_share": ratio(
            C.get("comonotonic.affine_maps", 0), C.get("comonotonic.maps", 0)
        ),
        "capm.debt_price_bound_s": per(T.get("capm.debt_price_bound", 0.0)),
        "capm.market_cap_s": per(T.get("capm.market_cap", 0.0)),
        "capm.capm_thresholds_calls": per(C.get("capm.capm_thresholds.calls", 0)),
        "calibration.calibrated_network_s": per(T.get("calibration.calibrated_network", 0.0)),
        "calibration.fill_matrix_calls": per(C.get("calibration.fill_matrix.calls", 0)),
        "calibration.fill_matrix_failures": ratio(
            C.get("calibration.fill_matrix.errors", 0), C.get("calibration.fill_matrix.calls", 0)
        ),
        "network.build_network_s": per(T.get("network.build_network", 0.0)),
        "network.build_network_calls": per(C.get("network.build_network.calls", 0)),
        "bounds.comonotonic_lower_s": per(T.get("bounds.comonotonic_lower", 0.0)),
        "bounds.jensen_upper_s": per(T.get("bounds.jensen_upper", 0.0)),
        "oracle.simulate_s": per(T.get("oracle.simulate", 0.0)),
        "oracle.mc_expectations_self_s": per(S.get("oracle.mc_expectations", 0.0)),
        "oracle.paths_per_s": ratio(C.get("oracle.paths", 0), mc_s),
        "cli.interpreter_ms": interp_ms,
        "cli.import_ms": import_ms,
        "trace.overhead_s": overhead_s,
    }
    for cmd in WORKLOADS["cli-fixture87"].COMMANDS:
        m[f"cli.{cmd}_ms"] = cli_ms.get(cmd, 0.0)
    return m


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    llc = None
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = []
        for idx in os.listdir(cache):
            if idx.startswith("index"):
                with open(os.path.join(cache, idx, "level")) as fh:
                    level = int(fh.read())
                with open(os.path.join(cache, idx, "size")) as fh:
                    levels.append((level, fh.read().strip()))
        llc = max(levels)[1] if levels else None
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "last_level_cache": llc,
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    if args.setup_only:
        wl.close()
        print(json.dumps({"ready": True}))
        return 0

    try:
        result = {"environment": environment(args.seed)}
        if args.trace == 0:
            passes, ops, _ = run_passes(wl, args.seconds)
            result["metrics"] = {
                # mean pass time: on a shared host the CPU speed swings within
                # a run, and the mean weighs fast and slow stretches by their
                # length where a median would pick one of them
                "wall_s": statistics.fmean(passes),
                "peak_rss_mib": wl.peak_rss_mib(),
            }
            t_val, t_pct, t_n = tail([op.seconds for op in ops])
            result["latency"] = {
                "op_p50_ms": 1e3 * statistics.median(op.seconds for op in ops),
                "op_tail_ms": 1e3 * t_val,
                "tail_percentile": t_pct,
                "samples": t_n,
            }
        else:
            # untraced then traced halves; their difference is the overhead
            plain, ops, k = run_passes(wl, args.seconds / 2.0)
            cli_ms = {}
            if args.workload == "cli-fixture87":
                # each command's own time, from the untraced half
                for op in ops:
                    cli_ms.setdefault(op.label, []).append(op.seconds)
                cli_ms = {c: 1e3 * statistics.median(v) for c, v in cli_ms.items()}
            tracer = Tracer()
            wl.start_trace(tracer)
            try:
                traced, traced_ops, _ = run_passes(wl, args.seconds / 2.0, first_pass=k)
            finally:
                agg = wl.stop_trace(tracer)
            ops += traced_ops
            reps = 1 if args.tiny else 3
            interp = startup_ms("pass", reps)
            imp = startup_ms("import netval", reps) - interp
            result["metrics"] = layer_metrics(
                agg,
                len(traced),
                statistics.fmean(traced) - statistics.fmean(plain),
                cli_ms,
                interp,
                imp,
            )
            if args.spans_out:
                with open(args.spans_out, "w") as fh:
                    json.dump({"spans": agg["spans"]}, fh, separators=(",", ":"))
        # a run-level rule that fails counts as one more failed check
        run_errors = wl.finish()
        result["attempted"] = len(ops) + len(run_errors)
        result["failed"] = sum(1 for op in ops if op.errors) + len(run_errors)
        result["ops"] = [[op.label, op.seconds] for op in ops]
        result["errors"] = ([e for op in ops for e in op.errors] + run_errors)[:20]
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
