"""The benchmark's workloads: their inputs, ops and reference outcomes.

An op is the unit of work that is timed and checked. Inputs depend only on
the seed. cnpcert must already be importable when this module is imported.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from cnpcert import cnp, descriptors, gallery, sampling

SWEEP_N = 1160            # 24 x 48 radial grid + 8 seeded random points
SWEEP_GRID = (24, 48)
DISK_BASES = (0j, 0.3 + 0j, -0.2 + 0.4j)
BALL_BASES = ((0j, 0j), (0.3 + 0j, 0j), (-0.2 + 0.1j, 0.4j))
# (op name, kernel descriptor, point set, verdict at every base)
SWEEP_CASES = (
    ("dbr-affine-a05-b2",
     {"kind": "dbr", "b": {"family": "affine", "A": [0.5, 0.0], "B": [2.0, 0.0]}},
     "disk", "PSD"),
    ("dbr-blaschke-0-05",
     {"kind": "dbr", "b": {"family": "blaschke", "zeros": [[0.0, 0.0], [0.5, 0.0]]}},
     "disk", "NOT_PSD"),
    ("drury-arveson-2", {"kind": "drury_arveson", "dim": 2}, "ball", "PSD"),
)

# Ops known to mismatch at the commit the benchmark was defined on (ROADMAP
# item 1: Newton reversion of moebius_am1_bm2 at order 256). They still run
# and still count as failed ops; only ops failing outside this set make a run
# incorrect.
KNOWN_DEFECTS = {("gallery-o256", "moebius_am1_bm2")}

_SAMPLING_SPANS = {
    "sampling.SampleSet.__post_init__",
    "sampling.SampleSet.default",
    "sampling.SampleSet.radial_grid",
    "sampling.SampleSet.random_disk",
    "sampling.SampleSet.extended",
}
_CERTIFY_SPANS = {
    "linalg.smallest_eigenvalue", "linalg.gram", "kernels.evaluate", "cnp.cnp_certify",
}
GALLERY_SPANS = frozenset(_SAMPLING_SPANS | _CERTIFY_SPANS | {
    "kernels.unit_ball_probe",
    "series.revert", "series.compose", "series.mul",
    "dbr.cnp_criterion", "dbr.injectivity_probe", "dbr.reversion_residual",
    "dbr.schwarz_pick_margin", "dbr.extension_margin",
    "descriptors.symbol_from_json", "descriptors.witness_from_json",
    "gallery.run_entry",
})
SWEEP_SPANS = frozenset(
    _SAMPLING_SPANS | _CERTIFY_SPANS | {"sampling.ball_points", "cnp.cnp_basepoint_sweep"}
)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]   # None when the outcome is correct


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list]      # seed -> ops, in the order they cycle
    spans: frozenset                  # exactly the spans a traced run must see
    paired: bool = False              # few, long ops: time each against the calibration
                                      # just before it (see run.relative_costs)


def _check_entry(result: dict):
    if result["observed"] != result["expected"]:
        return f"observed {result['observed']} != expected {result['expected']}"
    return None


def _gallery_ops(order: int, seed: int) -> list:
    entries = sorted(gallery.load_suite(gallery.default_suite_dict()), key=lambda e: e.name)
    ops = []
    for entry in entries:
        entry = dataclasses.replace(entry, samples_cfg={**entry.samples_cfg, "seed": seed})
        # resolve gallery.run_entry at call time, so a traced run sees its wrapper
        ops.append(Op(entry.name, lambda e=entry: gallery.run_entry(e, order), _check_entry))
    return ops


def _sweep_check(expected: str):
    def check(reports):
        verdicts = [r.verdict.status.value for r in reports]
        if verdicts != [expected] * len(reports) or len(reports) != len(DISK_BASES):
            return f"verdicts {verdicts}, expected {expected} at each of {len(DISK_BASES)} bases"
        if any(note.startswith("SWEEP_ANOMALY") for r in reports for note in r.notes):
            return "SWEEP_ANOMALY note present"
        return None
    return check


def _sweep_ops(seed: int) -> list:
    ops = []
    for name, spec, domain, expected in SWEEP_CASES:
        kernel = descriptors.kernel_from_json(spec)
        if domain == "disk":
            def run(kernel=kernel):
                pts = sampling.SampleSet.default(seed=seed, grid=SWEEP_GRID)
                return cnp.cnp_basepoint_sweep(kernel, DISK_BASES, pts)
        else:
            def run(kernel=kernel):
                pts = sampling.ball_points(SWEEP_N, 2, seed=seed)
                return cnp.cnp_basepoint_sweep(kernel, BALL_BASES, pts)
        ops.append(Op(name, run, _sweep_check(expected)))
    return ops


WORKLOADS = {
    "gallery-o64": Workload(lambda seed: _gallery_ops(64, seed), GALLERY_SPANS),
    "gallery-o256": Workload(lambda seed: _gallery_ops(256, seed), GALLERY_SPANS),
    "cnp-sweep-n1160": Workload(_sweep_ops, SWEEP_SPANS, paired=True),
}
