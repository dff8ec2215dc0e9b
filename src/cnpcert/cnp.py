"""Sampled certification of the complete Nevanlinna-Pick property.

The certificate is asymmetric by nature: a NOT_PSD defect Gram on a concrete
finite sample is a rigorous disproof, while PSD on samples is supporting
evidence only, since the property quantifies over every finite set. Reports
say so explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import VanishingKernel
from .kernels import Kernel, NormalizedDefect
from .linalg import PsdVerdict, Verdict, gram, psd_verdict

EVIDENCE_NOTE = (
    "PSD over the sampled points is supporting evidence only; "
    "NOT_PSD exhibits a concrete violating finite set."
)
SWEEP_ANOMALY_NOTE = (
    "SWEEP_ANOMALY: verdicts disagree across base points, which indicates "
    "insufficient sampling, not a property of the kernel."
)
_BASE_EXCLUSION = 1e-8


@dataclass(frozen=True)
class CertReport:
    """Outcome of one defect-positivity certification run."""

    verdict: PsdVerdict
    base: object
    samples: tuple
    vanish_flag: bool
    notes: tuple

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    def to_json_dict(self):
        if isinstance(self.base, tuple):
            base = [[c.real, c.imag] for c in self.base]
        else:
            b = complex(self.base)
            base = [b.real, b.imag]
        def _num(x):
            x = float(x)
            return None if math.isnan(x) else x

        return {
            "verdict": self.verdict.status.value,
            "min_eig": _num(self.verdict.min_eig),
            "tol": _num(self.verdict.tol),
            "base": base,
            "n_samples": self.n_samples,
            "vanish_flag": self.vanish_flag,
            "notes": list(self.notes),
        }


def _exclude_base(points, base, point_ndim: int):
    pts = list(points)
    if not pts:
        return pts, False
    offset = np.asarray(pts, dtype=complex) - np.asarray(base, dtype=complex)
    dist = np.abs(offset) if point_ndim == 0 else np.max(np.abs(offset), axis=1)
    kept = [p for p, keep in zip(pts, (dist > _BASE_EXCLUSION).tolist()) if keep]
    return kept, len(kept) < len(pts)


def cnp_certify(kernel: Kernel, base, pts, tol: float | None = None) -> CertReport:
    """Certify positivity of the base-normalized defect on a sample set.

    The base point is dropped from the samples if present (its defect row and
    column vanish identically and add nothing). A vanishing kernel value while
    assembling the defect yields an INCONCLUSIVE report with ``vanish_flag``
    set instead of an exception, so sweeps stay total.
    """
    points = getattr(pts, "points", pts)
    kept, dropped = _exclude_base(points, base, kernel.point_ndim)
    notes = []
    if dropped:
        notes.append("dropped sample point(s) coinciding with the base")
    try:
        defect = NormalizedDefect(kernel, base)
        matrix = gram(defect, kept)
    except VanishingKernel as exc:
        notes.append(f"{exc.code}: {exc}")
        notes.append(EVIDENCE_NOTE)
        used_tol = float(tol) if tol is not None else float("nan")
        verdict = PsdVerdict(Verdict.INCONCLUSIVE, float("nan"), used_tol)
        return CertReport(verdict, base, tuple(kept), True, tuple(notes))
    verdict = psd_verdict(matrix, tol)
    if matrix.asym_warning:
        notes.append(
            f"assembly warning: Hermitian asymmetry {matrix.asymmetry:.3e} "
            f"exceeds tolerance at scale {matrix.scale:.3e}"
        )
    notes.append(EVIDENCE_NOTE)
    return CertReport(verdict, base, tuple(kept), False, tuple(notes))


def cnp_basepoint_sweep(kernel: Kernel, bases, pts, tol: float | None = None):
    """One certification per base point; disagreement is flagged, because the
    property holds at every base or at none, so a split can only mean the
    samples were too thin."""
    reports = [cnp_certify(kernel, base, pts, tol) for base in bases]
    statuses = {
        r.verdict.status for r in reports if r.verdict.status is not Verdict.INCONCLUSIVE
    }
    if Verdict.PSD in statuses and Verdict.NOT_PSD in statuses:
        reports = [
            replace(r, notes=r.notes + (SWEEP_ANOMALY_NOTE,)) for r in reports
        ]
    return reports
