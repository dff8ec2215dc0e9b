"""Run one cnpcert benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gallery-o64 --seed 20210 --seconds 45 --trace 0

Runs from the root of a source checkout and imports cnpcert from its ``src``
directory; it exits non-zero, printing no result, when those sources are
missing. Ops run back to back in one process (a closed loop with one client),
each after one timing of a fixed calibration computation, until ``--seconds``
have passed. Every op's outcome is checked against its reference verdicts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (per op, from spans) with ``--trace 1``.
The line before it is the full report: environment, failures, the raw
times behind the calibrated metrics, the op tail and the throughput.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = 1          # one core, used the same way on any machine the benchmark runs on
SETUP_REPEATS = 4         # fresh processes timed for setup_s before and again after
                          # the measured loop, so the median spans two moments
TAIL_MIN_BEYOND = 10
TAIL_MAX_PERCENTILE = 95.0   # p99 follows the host's stray 1% stalls, not the program
CAL_LOOP = 20_000         # calibration: pure-Python loop iterations ...
CAL_N = 160               # ... and the order of a dense symmetric eigensolve


def pin_blas_threads() -> int:
    """Fix the BLAS thread count; must run before numpy is first imported."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_cnpcert():
    """Import cnpcert from this checkout's sources, never from elsewhere."""
    if not (SRC / "cnpcert" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cnpcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cnpcert

    if not Path(cnpcert.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: cnpcert was imported from {cnpcert.__file__}")
    return cnpcert


def load_workload(name: str):
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name]


def setup_samples(workload: str, seed: int) -> list:
    """Seconds to import cnpcert and build the inputs, each in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def tail(latencies: list):
    """Latency at the highest percentile (at most p95, at least the median)
    with TAIL_MIN_BEYOND or more ops beyond it; returns (value, percentile, beyond)."""
    lat = sorted(latencies)
    n = len(lat)
    idx = min(n - 1 - TAIL_MIN_BEYOND, math.ceil(TAIL_MAX_PERCENTILE / 100 * n) - 1)
    idx = max(idx, (n - 1) // 2)
    return lat[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def best_latencies(latencies: list, per_pass: int) -> list:
    """Each op's fastest latency over the run's passes, in op order."""
    return [min(latencies[i::per_pass]) for i in range(per_pass)]


def relative_costs(latencies: list, cal: list, per_pass: int, paired: bool) -> list:
    """Each op's cost in units of the calibration computation, in op order.

    The host this benchmark was tuned on drifts between a fast state and one
    up to ~1.8x slower, for seconds to minutes at a time, and CPU time slows
    with wall time (sibling-core contention, not lost time slices), so raw
    seconds of the same code spread by 15-45% between runs. Two estimates
    cancel most of that:

    - unpaired (short ops, thousands of repetitions): each op's fastest time
      over the run divided by the calibration's fastest. Both minima come
      from the run's fastest moments.
    - paired (long ops, a handful of repetitions, whose minimum need not
      reach a fast moment): the median over the run of each op's time
      divided by the calibration timed just before it.
    """
    if paired:
        return [statistics.median(t / c for t, c in zip(latencies[i::per_pass],
                                                          cal[i::per_pass]))
                for i in range(per_pass)]
    cal_best = min(cal)
    return [t / cal_best for t in best_latencies(latencies, per_pass)]


def make_calibration():
    """Return a function timing one fixed computation, in seconds.

    The computation (~2.5 ms) is a pure-Python loop and a dense real symmetric
    eigensolve: interpreter and BLAS work, the two kinds cnpcert's ops are
    made of. It depends on nothing in cnpcert, so only the host's speed moves
    it; it runs before every op, so it sees the same host states the ops see.
    """
    import numpy

    a = numpy.random.default_rng(0).standard_normal((CAL_N, CAL_N))
    a = a + a.T

    def calibrate() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        numpy.linalg.eigvalsh(a)
        return time.perf_counter() - t0

    return calibrate


def environment(threads: int) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": threads,
    }


def run_ops(ops: list, seconds: float, calibrate, rec=None):
    """Run whole passes over the ops until ``seconds`` pass, at least one, so
    every run has the same mix of ops, timing the calibration before each op;
    returns op latencies, calibration times, failures and wall time."""
    latencies, cal, failures = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i == 0 or i % len(ops) or time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        i += 1
        cal.append(calibrate())
        root = rec.open("op") if rec else None
        t0 = time.perf_counter()
        try:
            out = op.run()
            reason = None
        except Exception as exc:   # a raising op is a failed op, and the loop goes on
            out, reason = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if rec:
            rec.close(root)
        if reason is None:
            reason = op.check(out)
        if reason is not None:
            failures.append((op.name, reason))
    return latencies, cal, failures, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20210)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    threads = pin_blas_threads()
    t0 = time.perf_counter()
    import_cnpcert()
    workload = load_workload(args.workload)
    ops = workload.build(args.seed)
    if args.setup_probe:
        print(repr(time.perf_counter() - t0))
        return 0

    import workloads

    setup = [] if args.trace else setup_samples(args.workload, args.seed)
    calibrate = make_calibration()
    calibrate()
    ops[0].run()  # warm-up: lazy imports and first-touch allocations
    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    latencies, cal, failures, wall = run_ops(ops, args.seconds, calibrate, rec)
    n = len(latencies)
    unknown = [f for f in failures if (args.workload, f[0]) not in workloads.KNOWN_DEFECTS]
    correct = not unknown
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(threads),
        "ops": n,
        "ops_per_s": n / wall,   # over the whole run, calibrations and host stalls included
        "failed_frac": len(failures) / n,
        "failures": sorted({f"{name}: {why}" for name, why in failures}),
        "unexpected_failures": len(unknown),
    }
    if rec is None:
        setup += setup_samples(args.workload, args.seed)
        tail_s, pct, beyond = tail(latencies)
        best = best_latencies(latencies, len(ops))
        rel = relative_costs(latencies, cal, len(ops), workload.paired)
        metrics = {
            "pass_rel": {"value": math.fsum(rel), "unit": "x"},
            "op_p50_rel": {"value": statistics.median(rel), "unit": "x"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
        report["passes"] = n // len(ops)
        report["pass_s"] = math.fsum(best)
        report["op_p50_s"] = statistics.median(latencies)
        report["cal_s"] = min(cal)
        report["op_tail"] = {"latency_s": tail_s, "percentile": pct,
                             "ops_beyond": beyond, "ops": n}
    else:
        fired = rec.fired() - {"op"}
        missing, unexpected = workload.spans - fired, fired - workload.spans
        correct = correct and not missing and not unexpected
        report["spans"] = {"missing": sorted(missing), "unexpected": sorted(unexpected)}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}.json"
        rec.write(path)
        report["spans"]["file"] = str(path.relative_to(ROOT))
        units = {k: ("s" if k.endswith("_s") else "count") for k in spans.PER_LAYER_METRICS}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in rec.per_op(n).items()}
    report["metrics"] = {k: m["value"] for k, m in metrics.items()}
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": n, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
