"""Sampled certification of the complete Nevanlinna-Pick property.

The certificate is asymmetric by nature: a NOT_PSD defect Gram on a concrete
finite sample is a rigorous disproof, while PSD on samples is supporting
evidence only, since the property quantifies over every finite set. Reports
say so explicitly.

From RITZ_MIN_N samples on, the defect is not formed: with R = 1/K entrywise
and u = K(z, base) / sqrt(K(base, base)) it is exactly J - diag(u) R diag(conj u)
(J all ones). R, base-free and numerically low-rank, is formed in K's array and
factored once, R ~ q m q^H to Frobenius residual r, so by Weyl's inequality
each base's smallest eigenvalue is within max|u|^2 r of that of T C T^H, where
[1, diag(u) q, 0] = U T (thin QR) and C = diag(1, -m, 0).

The factorization stops early, before its residual is known, once m shows a
second positive eigenvalue of R beyond rounding: the property then fails on
the samples at every base (Agler-McCarthy). A base without a Weyl bound, or
whose bound exceeds RITZ_RESIDUAL * max(1, scale), gets a Rayleigh-Ritz
certificate instead: min_eig is the Rayleigh quotient x^H D x / x^H x of a
concrete vector x, an upper bound on the defect's smallest eigenvalue, and
the base is NOT_PSD when the quotient plus its rounding bound is below
-10 tol. A base that neither settles has its defect assembled, a rank-one
rescale of K, which gram rebuilds; so has each base below RITZ_MIN_N. K and R
are built once per sample set, by the first base that gets past its own
checks, so a lone certificate and each base of a sweep run the same lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import VanishingKernel
from .kernels import DEFECT_EPS, Kernel, NormalizedDefect, defect_quotient, guard_defect, row_blocks
from .linalg import (
    RITZ_MIN_N, RITZ_RESIDUAL, HermitianMatrix, PsdVerdict, Verdict, checked_tol, default_tol,
    empty_matrix, gram, hermitian_in_place, psd_verdict, range_steps,
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
_EPS = float(np.finfo(float).eps)
# A kernel Gram whose Cauchy-Schwarz excess e (linalg.HermitianMatrix.cs_excess)
# passes this cannot support NOT_PSD. Kernel values off by a relative delta
# move e by up to 4 delta, and the defect 1 - K(z, b) K(b, w) / (K(b, b) K(z, w))
# by up to 4 delta (1 + scale): so from e = 1e-8, 10 x the default relative
# tol 1e-9, one inconsistent pair can carry min_eig past -10 tol on its own
# (each false NOT_PSD measured had |min_eig| within 1.2 e; the smallest e was
# 4.8e-8). Rounding stays far below: e reached 3.2e-12 at most, on the
# degree-one Blaschke kernel with zero 0.99, where 1 - |b|^2 cancels to ~1e-3.
CS_BAND = 1e-8


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


def _exclude_base(pts: list, base, kernel: Kernel):
    """The samples away from the base, and the mask of which were kept.
    Both go through ``kernel.points`` first, so points of the wrong shape
    raise DomainMismatch instead of failing to broadcast."""
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


def cnp_certify(kernel: Kernel, base, pts, tol: float | None = None, *, _shared=None) -> CertReport:
    """Certify positivity of the base-normalized defect on a sample set.

    The base point is dropped from the samples if present (its defect row and
    column vanish identically and add nothing). A vanishing kernel value while
    assembling the defect yields an INCONCLUSIVE report with ``vanish_flag``
    set instead of an exception, so sweeps stay total. A kernel Gram that
    breaks Cauchy-Schwarz by more than CS_BAND gets a note, and a NOT_PSD
    from it becomes INCONCLUSIVE.

    Once the base has passed its own checks, K and, from RITZ_MIN_N samples
    on, R = 1/K in K's array are built on all of ``pts``; a base-point sweep
    shares them across its bases (``_shared``), so a lone certificate is the
    sweep's report for one base. With 1/K no n x n defect is formed (see the module docstring).
    """
    if tol is not None:   # before any Gram is built, on every path
        tol = checked_tol(tol)
    pts = list(pts)
    kept, keep = _exclude_base(pts, base, kernel)
    notes = []
    if not keep.all():
        notes.append("dropped sample point(s) coinciding with the base")
    shared = _shared or _Shared()
    matrix = None
    try:
        defect = NormalizedDefect(kernel, base)
        if shared.k is None and shared.r is None:   # the first base to get here builds them
            shared.k = shared.gram(kernel, pts)
            shared.note = _asym_note("kernel Gram", shared.k) if shared.k.asym_warning else None
            shared.cs_note = _cs_note(shared.k)
            shared.r = factor_reciprocal(shared.k)
            if shared.r is not None:   # R has K's array; at resid inf it serves no base
                shared.k, shared.r = None, shared.r if shared.r.resid != math.inf else None
        verdict = None if shared.r is None else _factored_verdict(defect, shared.r, keep, kept, tol)
        if verdict is None:   # K is rebuilt, at most once
            shared.k = shared.k or shared.gram(kernel, pts)
            matrix = _defect_gram(defect, shared.k, keep, kept)
            verdict = psd_verdict(matrix, tol)
    except VanishingKernel as exc:
        notes += [f"{exc.code}: {exc}", EVIDENCE_NOTE]
        verdict = PsdVerdict(Verdict.INCONCLUSIVE, math.nan, math.nan if tol is None else tol)
        return CertReport(verdict, base, tuple(kept), True, tuple(notes))
    notes += [note for note in (shared.note, shared.cs_note) if note]
    if shared.cs_note and verdict.status is Verdict.NOT_PSD:
        verdict = replace(verdict, status=Verdict.INCONCLUSIVE)
    if matrix is not None and matrix.asym_warning:
        notes.append(_asym_note("Hermitian", matrix))
    notes.append(EVIDENCE_NOTE)
    return CertReport(verdict, base, tuple(kept), False, tuple(notes))


def _cs_note(kernel_gram: HermitianMatrix) -> str | None:
    """The note on a kernel Gram whose Cauchy-Schwarz excess passes CS_BAND, or None."""
    e, i, j = kernel_gram.cs_excess
    if not e > CS_BAND:
        return None
    return (
        f"KERNEL_INCONSISTENT: |K(z_i, z_j)|^2 exceeds K(z_i, z_i) K(z_j, z_j) by {e:.3e} "
        f"relative at samples i = {i}, j = {j}, so the kernel values are inaccurate (a "
        "positive kernel obeys Cauchy-Schwarz) and cannot support NOT_PSD; raise --order"
    )


class _Shared:
    """One sample set's K, or R = 1/K in K's array, K's asymmetry and
    Cauchy-Schwarz notes (or None), and the VanishingKernel that building K
    raised (or None)."""

    k = r = note = cs_note = failure = None

    def gram(self, kernel: Kernel, pts: list) -> HermitianMatrix:
        if self.failure is None:   # else K is not evaluated again for a later base
            try:
                return gram(kernel, pts)
            except VanishingKernel as exc:
                self.failure = exc
        raise self.failure


def _defect_gram(
    defect: NormalizedDefect, kernel_gram: HermitianMatrix, keep: np.ndarray, kept: list
) -> HermitianMatrix:
    """The defect's symmetrized Gram on the ``kept`` samples from the ``keep``
    rows and columns of the kernel's Gram: only the vectors K(z, base) and
    K(base, w) are evaluated, and the n x n work is a rank-one elementwise
    rescale of K, formed a row block at a time in a new array."""
    if not kept:
        raise ValueError("at least one sample point away from the base is required")
    points, m = np.asarray(kept, dtype=complex), len(kept)
    raw = empty_matrix(m)
    if keep.all():
        kzw = kernel_gram.entries
    else:   # the principal submatrix, copied into raw by row blocks
        kzw, idx = raw, np.flatnonzero(keep)
        for rows in row_blocks(m, raw[:1].nbytes):
            raw[rows] = kernel_gram.entries[np.ix_(idx[rows], idx)]
    kzb = defect.base_column(points)
    kbw = np.broadcast_to(np.asarray(defect.inner.evaluate(defect.base, points), complex), (m,))[None]
    guard_defect(kzb, kbw, kzw)
    for rows in row_blocks(m, raw[:1].nbytes):
        defect_quotient(kzb[rows], kbw, defect.kbb, kzw[rows], raw[rows])
    return hermitian_in_place(raw, f"{defect.describe()} on {m} samples")


class Reciprocal(NamedTuple):
    """R = 1/K in its Gram's array, max|R| = rmax, and ||R - q m q^H||_F =
    resid, or resid None where m shows R's second positive eigenvalue."""

    entries: np.ndarray
    q: np.ndarray
    m: np.ndarray
    resid: float | None
    rmax: float


def factor_reciprocal(kernel_gram: HermitianMatrix) -> Reciprocal | None:
    """R of ``kernel_gram``, formed in the Gram's array by one in-place divide
    once a row-block scan of all of K passed the guard: R owns the array, and
    only the Gram's n, scale and asymmetry still describe K. The range finder
    aims at resid <= RITZ_RESIDUAL / max K(z, z), enough for every base of a
    positive kernel (|u|^2 <= K(z, z)); a stalled finder is kept up to
    RITZ_RESIDUAL * max(1, 1 / min|K|), as each base checks its own Weyl
    bound, and resid is inf above that. None, K untouched, below RITZ_MIN_N
    samples or with K not finite or below DEFECT_EPS.

    The finder stops before a block's residual pass, resid None, once the
    second eigenvalue of that block's m passes n^2 eps max|R|. By interlacing
    it is at most R's own, which rounding leaves below that band on a complete
    Pick kernel: n eps bounds the relative rounding of R's entries and of
    each length-n sum in m, and n max|R| bounds ||R||_2. Then every base's
    defect has a negative eigenvalue (Agler-McCarthy), which each base
    certifies by a Rayleigh quotient (see _rayleigh_quotient)."""
    k, n = kernel_gram.entries, kernel_gram.n
    if n < RITZ_MIN_N or not kernel_gram.finite:
        return None
    kmin = min(float(np.min(np.abs(k[rows]))) for rows in row_blocks(n, k[:1].nbytes))
    if kmin < DEFECT_EPS:
        return None
    target = RITZ_RESIDUAL / float(np.max(np.abs(np.diagonal(k))))
    k.setflags(write=True)
    np.divide(1.0, k, out=k)   # in place: no temporary
    k.setflags(write=False)
    rmax = 1.0 / kmin
    for q, m, resid in range_steps(k, target):
        if resid is None and np.linalg.eigvalsh(m)[-2] > n * n * _EPS * rmax:
            break
    if resid is not None and not resid <= RITZ_RESIDUAL * max(1.0, rmax):
        resid = math.inf
    return Reciprocal(k, q, m, resid, rmax)


def _factored_verdict(
    defect: NormalizedDefect, rec: Reciprocal, keep: np.ndarray, kept: list, tol: float | None
) -> PsdVerdict | None:
    """The verdict on the defect on ``kept`` (the ``keep`` rows of ``rec``),
    with scale the max modulus of J - diag(u) R diag(conj u) on all samples:
    u is 0 at a dropped one, whose row and column read 1, so max(1, scale) is
    the defect's own. From T C T^H (see the module docstring) when the Weyl
    bound max|u|^2 resid is within RITZ_RESIDUAL * max(1, scale), else
    NOT_PSD from _rayleigh_quotient, else None."""
    u = np.zeros(keep.size, dtype=complex)   # zero off the kept samples
    u[keep] = defect.base_column(np.asarray(kept, dtype=complex))[:, 0] / math.sqrt(defect.kbb)
    mods, uc = [], u.conj()   # |J - diag(u) R diag(conj u)| on the upper triangle
    for rows in row_blocks(keep.size, rec.entries[:1].nbytes):
        i = rows.start
        mods.append(np.max(np.abs(np.subtract(1.0, u[rows, None] * rec.entries[rows, i:] * uc[i:]))))
    scale, m = float(np.max(mods)), len(kept)
    if rec.resid is not None and np.max(np.abs(u)) ** 2 * rec.resid <= RITZ_RESIDUAL * max(1.0, scale):
        v = np.hstack([np.ones((m, 1)), u[keep, None] * rec.q[keep], np.zeros((m, 1))])
        t = np.linalg.qr(v, mode="r")
        g = np.outer(t[:, 0], t[:, 0].conj()) - t[:, 1:-1] @ rec.m @ t[:, 1:-1].conj().T
        return psd_verdict(HermitianMatrix(
            0.5 * (g + g.conj().T), scale, f"{defect.describe()} on {m} samples", 0.0), tol)
    if not math.isfinite(scale):
        return None
    tol = default_tol(scale) if tol is None else tol
    min_eig, bound = _rayleigh_quotient(rec, u, keep)
    return PsdVerdict(Verdict.NOT_PSD, min_eig, tol) if min_eig + bound < -10.0 * tol else None


def _rayleigh_quotient(rec: Reciprocal, u: np.ndarray, keep: np.ndarray):
    """(x^H D x / x^H x, its rounding bound) for D = J - diag(u) R diag(conj u)
    on the ``keep`` samples and x the Ritz vector of D's smallest Ritz value on
    the span of V = diag(1 / conj u) q, zero off them. There V^H D V is
    s s^H - m, s = V^H 1, since diag(conj u) V = q: only m is needed, less the
    rows and columns of dropped samples. The quotient, an upper bound on D's
    smallest eigenvalue, is evaluated directly, by one product with R's own
    array."""
    m, drop = rec.m, ~keep
    if drop.any():   # m of q with its rows at the dropped samples zeroed
        qd, rq = rec.q[drop], rec.entries[drop] @ rec.q
        m = m - qd.conj().T @ rq - rq.conj().T @ qd + qd.conj().T @ rec.entries[np.ix_(drop, drop)] @ qd
    v = np.zeros_like(rec.q)
    v[keep] = rec.q[keep] / u[keep, None].conj()
    s = v.sum(axis=0).conj()
    ti = np.linalg.inv(np.linalg.qr(v, mode="r"))   # the orthonormal basis V T^-1
    h = ti.conj().T @ (np.outer(s, s.conj()) - m) @ ti
    x = v @ (ti @ np.linalg.eigh(0.5 * (h + h.conj().T))[1][:, 0])
    y = u.conj() * x
    xx = float(np.vdot(x, x).real)
    quotient = float(abs(x.sum()) ** 2 - np.vdot(y, rec.entries @ y).real) / xx
    # Higham's gamma for the length-n sums in |sum x|^2, y^H R y and x^H x, R's rounding
    gamma = 3 * (x.size + 1) * _EPS
    return quotient, gamma * (np.sum(np.abs(x)) ** 2 + rec.rmax * np.sum(np.abs(y)) ** 2) / xx


def cnp_basepoint_sweep(kernel: Kernel, bases, pts, tol: float | None = None):
    """One certification per base point; disagreement is flagged, because the
    property holds at every base or at none, so a split can only mean the
    samples were too thin.

    K and R = 1/K do not depend on the base, so the bases share them (see cnp_certify).
    """
    shared = _Shared()
    reports = [cnp_certify(kernel, base, pts, tol, _shared=shared) for base in bases]
    if {Verdict.PSD, Verdict.NOT_PSD} <= {r.verdict.status for r in reports}:
        reports = [replace(r, notes=r.notes + (SWEEP_ANOMALY_NOTE,)) for r in reports]
    return reports
