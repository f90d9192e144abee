"""netval benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the root of a source checkout; the library is imported from
``src/``.  Each run starts the workload in fresh interpreters with BLAS
pinned to one thread: three set-up-only processes time the set-up (the
median is ``setup_s``), then one process sets up again and measures for
``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics,
with ``--trace 1`` the per-module ones from a run whose first half is
untraced and second half traced.  A human-readable report comes first;
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results, the
environment and (traced) the spans go to ``.bench_out/``.

``--self-check`` runs every workload and every correctness gate at a
tiny size, traced and untraced, in well under a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("closed-form", "mc-small-n", "mc-n87", "cli-fixture87")
SETUP_REPS = 3
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def unit_of(name: str) -> str:
    """Unit of a per-module metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith(("_share", "_failures", "rows_per_pattern")):
        return "ratio"
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run_worker(args, extra, timeout):
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", os.path.join(OUT_DIR, f"work-{os.getpid()}"),
    ] + extra
    t0 = time.perf_counter()
    # own session, so a timeout also ends the CLI processes the worker started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=worker_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1]), elapsed


def measure(args) -> dict:
    """One benchmark run; returns the final result object."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tiny = ["--tiny"] if args.tiny else []
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    reps = 1 if args.tiny else SETUP_REPS
    setups = [run_worker(args, ["--setup-only"] + tiny, 120)[1] for _ in range(reps)]
    spans = ["--spans-out", stem + "-spans.json"] if args.trace else []
    res, _ = run_worker(args, tiny + spans, 150)

    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["metrics"].items()}
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    final = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    env = dict(res["environment"], git_sha=git_sha())
    with open(stem + ".json", "w") as fh:
        json.dump(
            dict(final, workload=args.workload, seconds=args.seconds, environment=env,
                 setup_runs_s=setups, latency=res.get("latency"), errors=res["errors"],
                 ops=res["ops"]),
            fh, indent=1, sort_keys=True,
        )

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if res.get("latency"):
        lat = res["latency"]
        print(f"  operation latency: p50 {lat['op_p50_ms']:.6g} ms, p{lat['tail_percentile']} "
              f"{lat['op_tail_ms']:.6g} ms, {lat['samples']} operations")
    print(f"  fail_ratio {res['failed']}/{res['attempted']}")
    for err in res["errors"]:
        print(f"  failure: {err}")
    return final


def self_check() -> int:
    """Tiny run of every workload, traced and untraced; checks the output."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert e2e == list(END_TO_END), "BENCHMARK.json end_to_end differs from run.py"
    for m in spec["end_to_end"]:
        assert m["unit"] == END_TO_END[m["name"]], m
    for m in spec["per_layer"]:
        assert m["unit"] == unit_of(m["name"]), m
    for w in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w, seed=1, seconds=0.01, trace=trace, tiny=True)
            out = measure(args)
            want = layers if trace else e2e
            assert sorted(out["metrics"]) == sorted(want), (w, trace, sorted(out["metrics"]))
            assert out["correct"] and out["failed"] == 0, (w, trace, out)
            assert out["attempted"] >= 1
    print("self-check ok")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "netval", "__init__.py")):
        print("error: run from the root of a netval source checkout (no src/netval)",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    args.tiny = False
    final = measure(args)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
