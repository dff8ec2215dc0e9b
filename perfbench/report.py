"""Print every benchmark metric by name, with its unit, for every workload.

    python3 perfbench/report.py [--seed 20210] [--seconds 45] [--workload NAME ...]

For each workload this runs ``run.py`` twice, untraced for the end-to-end
metrics and traced for the per-layer ones, checks that both runs were
correct, and prints one line per metric, plus failed_frac, the raw times
(pass_s, op_p50_s, cal_s, ops_per_s, op_tail_s), the environment and the
tracing overhead (untraced over traced ops per second). It exits non-zero
when any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gallery-o64", "gallery-o256", "cnp-sweep-n1160")


def run(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                           check=True).stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=20210)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)

    all_correct = True
    for workload in args.workload or WORKLOADS:
        plain_report, plain = run(workload, args.seed, args.seconds, 0)
        traced_report, traced = run(workload, args.seed, args.seconds, 1)
        all_correct &= plain["correct"] and traced["correct"]
        tail = plain_report["op_tail"]
        print(f"== {workload}  seed {args.seed}  correct {plain['correct']}/"
              f"{traced['correct']}  env {json.dumps(plain_report['env'])}")
        for name, m in plain["metrics"].items():
            print(f"{workload:16s} {name:24s} {m['value']:14.6g} {m['unit']}")
        print(f"{workload:16s} {'failed_frac':24s} {plain['failed']:>8d}/{plain['attempted']:<5d}"
              f" ops  {plain_report['failures']}")
        for name, unit in (("pass_s", "s"), ("op_p50_s", "s"), ("cal_s", "s"),
                           ("ops_per_s", "1/s")):
            print(f"{workload:16s} {name:24s} {plain_report[name]:14.6g} {unit}")
        print(f"{workload:16s} {'op_tail_s':24s} {tail['latency_s']:14.6g} s  (p{tail['percentile']:.4g},"
              f" {tail['ops_beyond']} of {tail['ops']} ops beyond)")
        overhead = plain_report["ops_per_s"] / traced_report["ops_per_s"]
        print(f"{workload:16s} {'trace_overhead':24s} {overhead:14.4g} untraced/traced ops_per_s")
        for name, m in traced["metrics"].items():
            print(f"{workload:16s} {name:24s} {m['value']:14.6g} {m['unit']}")
        if traced_report["spans"]["missing"] or traced_report["spans"]["unexpected"]:
            print(f"{workload:16s} spans {traced_report['spans']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
