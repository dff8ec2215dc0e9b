"""Gallery of symbol examples with expected verdicts, plus the suite runner.

A suite is a JSON document listing entries: a symbol spec, an optional
witness, sampling parameters, and the expected certification and criterion
verdicts. The runner certifies each entry both ways (normalized-defect
positivity of the kernel, and the constructive criterion on the symbol) and
compares against the expectations. Reports are deterministic for fixed
inputs and seeds, except for the wall-time field.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from importlib import resources

from . import __version__
from .cnp import cnp_certify
from .dbr import cnp_criterion, dbr_kernel
from .descriptors import symbol_from_json, witness_from_json
from .errors import SuiteFormat
from .families import complex_list_from_json, integer_from_json, real_from_json
from .sampling import DEFAULT_GRID, DEFAULT_RANDOM, DEFAULT_RMAX, DEFAULT_SEED, SampleSet
from .series import DEFAULT_ORDER

_EXPECTED_CNP = {"PSD", "NOT_PSD", "INCONCLUSIVE"}
_EXPECTED_CRITERION = {"PASS_NECESSARY", "PASS_WITH_EXTENSION", "FAIL"}


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    b_spec: dict
    witness_spec: object
    samples_cfg: dict
    expected_cnp: str
    expected_criterion: str


def _entry_problems(obj, index: int) -> list:
    if not isinstance(obj, dict):
        return [f"<entry {index}>: entry is not an object"]
    name = obj.get("name")
    label = name if isinstance(name, str) else f"<entry {index}>"
    problems = [f"{label}: missing field '{fld}'" for fld in ("name", "b", "expected") if fld not in obj]
    if "name" in obj and not isinstance(name, str):
        problems.append(f"{label}: 'name' must be a string, got {name!r}")
    expected = obj.get("expected")
    if isinstance(expected, dict):
        for key, allowed in (("cnp", _EXPECTED_CNP), ("criterion", _EXPECTED_CRITERION)):
            if not isinstance(expected.get(key), str) or expected[key] not in allowed:
                problems.append(f"{label}: expected.{key} must be one of {sorted(allowed)}")
    elif "expected" in obj:
        problems.append(f"{label}: 'expected' must be an object")
    try:
        sample_set_from_config(obj.get("samples", {}))
    except ValueError as exc:
        problems.append(f"{label}: malformed 'samples': {exc}")
    return problems


def load_suite(doc: dict) -> list:
    """Validate a suite document and return its entries.

    Every malformed entry is reported at once in a single SuiteFormat error.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise SuiteFormat("a suite document is an object with an 'entries' array")
    problems = []
    entries = []
    names = set()
    for i, obj in enumerate(doc["entries"]):
        probs = _entry_problems(obj, i)
        if probs:
            problems.extend(probs)
            continue
        if obj["name"] in names:
            problems.append(f"{obj['name']}: duplicate entry name")
            continue
        names.add(obj["name"])
        entries.append(
            GalleryEntry(
                name=obj["name"],
                b_spec=obj["b"],
                witness_spec=obj.get("witness"),
                samples_cfg=obj.get("samples", {}),
                expected_cnp=obj["expected"]["cnp"],
                expected_criterion=obj["expected"]["criterion"],
            )
        )
    if problems:
        raise SuiteFormat("; ".join(problems))
    return entries


def default_suite_dict() -> dict:
    text = resources.files("cnpcert").joinpath("data/gallery.json").read_text()
    return json.loads(text)


def sample_set_from_config(cfg) -> SampleSet:
    """The sample set of an entry's ``samples`` block: SampleSet.default plus
    its extra points; ValueError when a field is malformed or out of range."""
    if not isinstance(cfg, dict):
        raise ValueError(f"expected an object, got {cfg!r}")
    grid, rmax = cfg.get("grid", DEFAULT_GRID), cfg.get("rmax", DEFAULT_RMAX)
    if not isinstance(grid, (list, tuple)) or len(grid) != 2:
        raise ValueError(f"grid must be an array of two integers, got {grid!r}")
    kwargs = {
        "seed": integer_from_json(cfg.get("seed", DEFAULT_SEED)),
        "grid": tuple(integer_from_json(g) for g in grid),
        "r_max": real_from_json(rmax),
        "n_random": integer_from_json(cfg.get("random", DEFAULT_RANDOM)),
    }
    if kwargs["n_random"] < 0:
        raise ValueError(f"random must be >= 0, got {kwargs['n_random']}")
    extra, pts = complex_list_from_json(cfg.get("extra", [])), SampleSet.default(**kwargs)
    return pts.extended(extra) if extra else pts


def run_entry(entry: GalleryEntry, order: int = DEFAULT_ORDER, tol: float | None = None) -> dict:
    b = symbol_from_json(entry.b_spec, order)
    witness = witness_from_json(entry.witness_spec, b)
    pts = sample_set_from_config(entry.samples_cfg)
    criterion = cnp_criterion(b, witness, pts)
    cert = cnp_certify(dbr_kernel(b), 0j, pts, tol)
    observed = {
        "cnp": cert.verdict.status.value,
        "criterion": criterion.overall.value,
    }
    expected = {"cnp": entry.expected_cnp, "criterion": entry.expected_criterion}
    return {
        "name": entry.name,
        "expected": expected,
        "observed": observed,
        "match": observed == expected,
        "cnp_report": cert.to_json_dict(),
        "criterion_report": criterion.to_json_dict(),
    }


def _inputs_digest(suite_doc: dict, order: int, tol) -> str:
    canon = json.dumps(
        {"suite": suite_doc, "order": order, "tol": tol}, sort_keys=True
    ).encode()
    return hashlib.sha256(canon).hexdigest()


def run_suite(
    suite_doc: dict, order: int = DEFAULT_ORDER, tol: float | None = None, command: str = ""
) -> dict:
    """Run every entry (ordered by name) and consolidate a run report."""
    entries = sorted(load_suite(suite_doc), key=lambda e: e.name)
    t0 = time.perf_counter()
    results = [run_entry(e, order, tol) for e in entries]
    wall = time.perf_counter() - t0
    mismatches = [r["name"] for r in results if not r["match"]]
    return {
        "tool": "cnpcert",
        "version": __version__,
        "command": command,
        "inputs_digest": _inputs_digest(suite_doc, order, tol),
        "entries": results,
        "all_match": not mismatches,
        "mismatches": mismatches,
        "wall_time_s": wall,
    }
