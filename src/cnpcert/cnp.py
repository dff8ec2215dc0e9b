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
from .kernels import Kernel, NormalizedDefect, row_blocks
from .linalg import (
    HermitianMatrix, PsdVerdict, Verdict, empty_matrix, gram, hermitian_in_place, psd_verdict,
)

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
        b = np.asarray(self.base, dtype=complex)
        def _num(x):
            x = float(x)
            return None if math.isnan(x) else x

        return {
            "verdict": self.verdict.status.value,
            "min_eig": _num(self.verdict.min_eig),
            "tol": _num(self.verdict.tol),
            "base": np.stack([b.real, b.imag], axis=-1).tolist(),
            "n_samples": self.n_samples,
            "vanish_flag": self.vanish_flag,
            "notes": list(self.notes),
        }


def _exclude_base(points, base, kernel: Kernel):
    """The samples away from the base, and the mask of which were kept.
    Both go through ``kernel.points`` first, so points of the wrong shape
    raise DomainMismatch instead of failing to broadcast."""
    pts = list(points)
    (at,), arr = kernel.points([base]), kernel.points(pts)
    if not pts:
        return pts, np.zeros(0, dtype=bool)
    keep = np.abs(arr - at).reshape(len(pts), -1).max(axis=1) > _BASE_EXCLUSION
    return [p for p, k in zip(pts, keep.tolist()) if k], keep


def _asym_note(what: str, m: HermitianMatrix) -> str:
    return (
        f"assembly warning: {what} asymmetry {m.asymmetry:.3e} "
        f"exceeds tolerance at scale {m.scale:.3e}"
    )


def cnp_certify(
    kernel: Kernel, base, pts, tol: float | None = None, *,
    kernel_gram: HermitianMatrix | None = None, work: np.ndarray | None = None,
) -> CertReport:
    """Certify positivity of the base-normalized defect on a sample set.

    The base point is dropped from the samples if present (its defect row and
    column vanish identically and add nothing). A vanishing kernel value while
    assembling the defect yields an INCONCLUSIVE report with ``vanish_flag``
    set instead of an exception, so sweeps stay total.

    The defect's Gram is a rank-one rescale of the kernel's Gram K(z, w) on
    the kept samples, the only n x n kernel evaluation. ``kernel_gram`` is
    that Gram on all of ``pts``, when the caller has it already (a base-point
    sweep builds it once for every base); without it, it is computed here.
    The defect is assembled in ``work``, a writable C-contiguous complex
    array of at least len(pts)**2 entries, when given (a sweep passes one
    to every base), else in a new array.
    """
    kept, keep = _exclude_base(pts, base, kernel)
    if kernel_gram is not None and kernel_gram.n != keep.size:
        raise ValueError(f"kernel_gram is {kernel_gram.n}x{kernel_gram.n} for {keep.size} samples")
    dropped = not keep.all()
    notes = []
    if dropped:
        notes.append("dropped sample point(s) coinciding with the base")
    try:
        defect = NormalizedDefect(kernel, base)
        if kernel_gram is None:
            kernel_gram, keep = gram(kernel, kept), np.ones(len(kept), dtype=bool)
        matrix = _defect_gram(defect, kernel_gram, keep, kept, work)
    except VanishingKernel as exc:
        notes.append(f"{exc.code}: {exc}")
        notes.append(EVIDENCE_NOTE)
        used_tol = float(tol) if tol is not None else float("nan")
        verdict = PsdVerdict(Verdict.INCONCLUSIVE, float("nan"), used_tol)
        return CertReport(verdict, base, tuple(kept), True, tuple(notes))
    verdict = psd_verdict(matrix, tol)
    if kernel_gram.asym_warning:
        notes.append(_asym_note("kernel Gram", kernel_gram))
    if matrix.asym_warning:
        notes.append(_asym_note("Hermitian", matrix))
    notes.append(EVIDENCE_NOTE)
    return CertReport(verdict, base, tuple(kept), False, tuple(notes))


def _defect_gram(
    defect: NormalizedDefect, kernel_gram: HermitianMatrix, keep: np.ndarray, kept: list, work
) -> HermitianMatrix:
    """The defect's symmetrized Gram on the ``kept`` samples, the ``keep``
    rows and columns of the kernel's Gram, assembled and symmetrized in
    ``work`` (or a new array)."""
    if not kept:
        raise ValueError("at least one sample point away from the base is required")
    points, m = np.asarray(kept, dtype=complex), len(kept)
    raw = empty_matrix(m) if work is None else work.reshape(-1)[: m * m].reshape(m, m)
    if keep.all():
        kzw = kernel_gram.entries
    else:   # the principal submatrix, copied into raw by row blocks
        kzw, idx = raw, np.flatnonzero(keep)
        for rows in row_blocks(idx.size, raw[:1].nbytes):
            raw[rows] = kernel_gram.entries[np.ix_(idx[rows], idx)]
    defect.rescale(kzw, points, out=raw)
    return hermitian_in_place(raw, f"{defect.describe()} on {len(kept)} samples")


def cnp_basepoint_sweep(kernel: Kernel, bases, pts, tol: float | None = None):
    """One certification per base point; disagreement is flagged, because the
    property holds at every base or at none, so a split can only mean the
    samples were too thin.

    The kernel's Gram on the samples does not depend on the base, so it is
    built once and every base's defect is assembled from it, in one array.
    """
    bases = list(bases)
    if not bases:
        return []
    try:
        kernel_gram = gram(kernel, pts)
    except VanishingKernel:   # a defect kernel vanishing on pts: each base reports it
        kernel_gram = None
    work = empty_matrix(len(pts))
    reports = [
        cnp_certify(kernel, base, pts, tol, kernel_gram=kernel_gram, work=work) for base in bases
    ]
    statuses = {
        r.verdict.status for r in reports if r.verdict.status is not Verdict.INCONCLUSIVE
    }
    if Verdict.PSD in statuses and Verdict.NOT_PSD in statuses:
        reports = [
            replace(r, notes=r.notes + (SWEEP_ANOMALY_NOTE,)) for r in reports
        ]
    return reports
