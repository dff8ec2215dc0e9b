"""Regenerate the golden reports that tests/test_golden.py compares against.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden/regenerate.py

(with one BLAS thread, so that the files' digits move only when the program
does)

writes, next to this script:
- gallery-o{32,64,128,256}.json: the exit code and JSON report of
  ``cnpcert gallery --order N``, minus its ``wall_time_s``;
- sweep-seed{20210,31,101}.json: the JSON reports of the three n = 1160
  base-point sweeps of the benchmark's cnp-sweep-n1160 workload at that seed.

Regenerate them only in a change that alters a report on purpose: the diff of
these files then shows what it altered.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

from cnpcert import cli
from cnpcert.cnp import cnp_basepoint_sweep
from cnpcert.descriptors import kernel_from_json
from cnpcert.sampling import SampleSet, ball_points

HERE = pathlib.Path(__file__).resolve().parent
GALLERY_ORDERS = (32, 64, 128, 256)
SWEEP_SEEDS = (20210, 31, 101)
SWEEP_N = 1160            # 24 x 48 radial grid + 8 seeded random points on the disk
SWEEP_GRID = (24, 48)
DISK_BASES = (0j, 0.3 + 0j, -0.2 + 0.4j)
BALL_BASES = ((0j, 0j), (0.3 + 0j, 0j), (-0.2 + 0.1j, 0.4j))
SWEEP_KERNELS = {   # name -> (kernel descriptor, domain of the samples)
    "dbr-affine-a05-b2":
        ({"kind": "dbr", "b": {"family": "affine", "A": [0.5, 0.0], "B": [2.0, 0.0]}}, "disk"),
    "dbr-blaschke-0-05":
        ({"kind": "dbr", "b": {"family": "blaschke", "zeros": [[0.0, 0.0], [0.5, 0.0]]}}, "disk"),
    "drury-arveson-2": ({"kind": "drury_arveson", "dim": 2}, "ball"),
}


def gallery_report(order: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["gallery", "--order", str(order)])
    report = json.loads(out.getvalue())
    del report["wall_time_s"]
    return {"exit_code": code, "report": report}


def sweep_reports(seed: int) -> dict:
    reports = {}
    for name, (spec, domain) in SWEEP_KERNELS.items():
        if domain == "disk":
            pts, bases = SampleSet.default(seed=seed, grid=SWEEP_GRID), DISK_BASES
        else:
            pts, bases = ball_points(SWEEP_N, 2, seed=seed), BALL_BASES
        sweep = cnp_basepoint_sweep(kernel_from_json(spec), bases, pts)
        reports[name] = [r.to_json_dict() for r in sweep]
    return reports


GOLDEN = {   # file name -> the function and argument that produce its content
    **{f"gallery-o{order}.json": (gallery_report, order) for order in GALLERY_ORDERS},
    **{f"sweep-seed{seed}.json": (sweep_reports, seed) for seed in SWEEP_SEEDS},
}


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    for name, (produce, arg) in GOLDEN.items():
        (HERE / name).write_text(dumps(produce(arg)))
