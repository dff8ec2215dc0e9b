"""Sampled certification of the complete Nevanlinna-Pick property.

The certificate is asymmetric by nature: a NOT_PSD defect Gram on a concrete
finite sample is a rigorous disproof, while PSD on samples is supporting
evidence only, since the property quantifies over every finite set. Reports
say so explicitly.

With R = 1/K entrywise and u = K(z, base) / sqrt(K(base, base)), the defect
is exactly J - diag(u) R diag(conj u) (J all ones). R is base-free, formed
in K's array as K is symmetrized, once per sample set. From RITZ_MIN_N samples
on, where R is numerically low-rank, the defect is not formed: R is factored once,
R ~ q m q^H to Frobenius residual r, so by Weyl's inequality each base's smallest
eigenvalue is within max|u|^2 r of that of T C T^H, C = diag(1, -m, 0), where
V = [1, diag(u) q, 0] = U T (QR, of which only T is formed).

A base's scale, max|D_ij|, enters only as max(1, scale), in the default tol
and the Weyl threshold. A base whose bound w is at most RITZ_RESIDUAL takes
its verdict at scale 1 and proves it in O(n): D + (w - min(lambda, 0)) I is
PSD for the verdict's eigenvalue lambda, so by Cauchy-Schwarz no |D_ij|
exceeds 1 once every |u_k|^2 R_kk clears that shift plus a rounding
allowance (_unit_scale). Any other base scans only the rows of D that can
hold max|D_ij|: from the Gram pass's bound on what the scan reads of each row
of R, each row of D gets an O(n) bound B_i, and rows whose B_i is below the
exact max of a few rows are skipped, so the scale is the full O(n^2) scan's
bit for bit (_defect_scale).

The factorization stops early, before its residual is known, once m shows a
second positive eigenvalue of R beyond rounding (range_steps' 16-column Krylov
step shows it where its probe does): the property then fails on the samples
at every base (Agler-McCarthy). A base without a Weyl bound, or
whose bound exceeds RITZ_RESIDUAL * max(1, scale), gets a Rayleigh-Ritz
certificate from the same T C T^H instead: min_eig is the Rayleigh quotient
x^H D x / x^H x of x = V C T^H y = lambda U y, y its lowest eigenvector and
lambda < 0 its eigenvalue, an upper bound on D's smallest eigenvalue: the base is
NOT_PSD when the quotient plus rounding bound is below -10 max(tol, default_tol).
A base that neither settles has its defect assembled from R and u, as has each
base below RITZ_MIN_N samples, where R is formed but not factored. Since R is Hermitian
bit for bit, the defect is formed on its upper triangle alone and mirrored:
it is Hermitian bit for bit too, with no symmetrizing pass and no asymmetry
to measure (_defect_gram). K is evaluated, and R
formed from it, once per sample set, by the first base that gets past its own
checks, so a lone certificate and each base of a sweep run the same lines.
The range finder's products and residual passes and each base's Rayleigh product share
their row blocks with the Gram's helper thread, bit for bit the serial pass (see
linalg); a base's scale scan and assembled defect run on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import VanishingKernel
from .kernels import DEFECT_EPS, Kernel, NormalizedDefect, _guard_min_modulus, row_blocks
from .linalg import (
    RITZ_MIN_N, RITZ_RESIDUAL, HermitianMatrix, PsdVerdict, Verdict, _product, checked_tol,
    default_tol, empty_matrix, gram, psd_verdict, range_steps,
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
_SCALE_PROBE = 8   # rows of the largest bounds, scanned first for a lower bound on the scale
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
    n_samples: int   # how many samples lie away from the base
    vanish_flag: bool
    notes: tuple

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


def _exclude_base(pts, base, kernel: Kernel) -> np.ndarray:
    """The mask of the samples away from the base. Both go through
    ``kernel.points`` first, so points of the wrong shape raise
    DomainMismatch instead of failing to broadcast."""
    (at,), arr = kernel.points([base]), kernel.points(pts)
    dist = np.abs(arr - at)
    return (dist.max(axis=1) if kernel.dim else dist) > _BASE_EXCLUSION


def cnp_certify(kernel: Kernel, base, pts, tol: float | None = None, *, _shared=None) -> CertReport:
    """Certify positivity of the base-normalized defect on a sample set.

    The base point is dropped from the samples if present (its defect row and
    column vanish identically and add nothing); a ValueError is raised, before
    any Gram is built, when no sample is left. A vanishing kernel value while
    assembling the defect yields an INCONCLUSIVE report with ``vanish_flag``
    set instead of an exception, so sweeps stay total. A kernel Gram that
    breaks Cauchy-Schwarz by more than CS_BAND gets a note, and a NOT_PSD
    from it becomes INCONCLUSIVE.

    Once the base has passed its own checks, K, its array R = 1/K as it is
    symmetrized, then u (its guard on K(z, base) first; 0 at a dropped
    sample) are built on all of ``pts``, and only then is a vanishing K(z, w)
    raised; a base-point sweep shares K and R across its bases (``_shared``),
    so a lone certificate is the sweep's report for one base. A vanishing-kernel
    or NON_FINITE note indexes the given samples. Every verdict comes from R
    and u (see the module docstring), except on a K that is not finite:
    that is INCONCLUSIVE, with no eigensolve.
    """
    if tol is not None:   # before any Gram is built, on every path
        tol = checked_tol(tol)
    (at,), pts = kernel.points([base]), kernel.points(pts)   # DomainMismatch: the base first
    keep = _exclude_base(pts, at, kernel)
    notes = []
    if not keep.all():
        notes.append("dropped sample point(s) coinciding with the base")
    shared = _shared or _Shared()
    try:
        defect = NormalizedDefect(kernel, base)
        if not keep.any():
            raise ValueError("at least one sample point away from the base is required")
        k = shared.kernel_gram(kernel, pts)
        u = np.where(keep, defect.base_column(pts)[:, 0], 0.0) / math.sqrt(defect.kbb)
        if not k.finite:
            verdict = psd_verdict(k, tol)
        else:
            rec = shared.reciprocal()
            verdict = _factored_verdict(rec, u, keep, tol) or psd_verdict(
                _defect_gram(u, rec.entries, keep), tol)
    except VanishingKernel as exc:
        notes += [f"{exc.code}: {exc}", EVIDENCE_NOTE]
        verdict = PsdVerdict(Verdict.INCONCLUSIVE, math.nan, math.nan if tol is None else tol)
        return CertReport(verdict, base, int(keep.sum()), True, tuple(notes))
    notes += [note for note in (shared.note, shared.cs_note) if note]
    if shared.cs_note and verdict.status is Verdict.NOT_PSD:
        verdict = replace(verdict, status=Verdict.INCONCLUSIVE)
    notes.append(EVIDENCE_NOTE)
    return CertReport(verdict, base, int(keep.sum()), False, tuple(notes))


def _cs_note(kernel_gram: HermitianMatrix) -> str | None:
    """The note on a kernel Gram whose Cauchy-Schwarz excess passes CS_BAND, or None."""
    e, i, j = kernel_gram.cs_excess
    if not e > CS_BAND:
        return None
    return (
        f"KERNEL_INCONSISTENT: |K(z_i, z_j)|^2 exceeds K(z_i, z_i) K(z_j, z_j) by {e:.3e} "
        f"relative at samples i = {i}, j = {j}, so the kernel values are inaccurate (a "
        "positive kernel obeys Cauchy-Schwarz) and cannot support NOT_PSD; give a series "
        "symbol more coefficients"
    )


class _Shared:
    """One sample set's kernel Gram K (its array R's, see factor_reciprocal),
    K's asymmetry or NON_FINITE note and its Cauchy-Schwarz note (or None),
    R, and the VanishingKernel that building K or R raised (or None):
    neither is built again for a later base."""

    k = rec = note = cs_note = failure = None

    def _once(self, build):
        if self.failure is None:
            try:
                return build()
            except VanishingKernel as exc:
                self.failure = exc
        raise self.failure

    def kernel_gram(self, kernel: Kernel, pts: np.ndarray) -> HermitianMatrix:
        if self.k is None:
            self.k = k = self._once(lambda: gram(kernel, pts, True))
            self.note = (f"assembly warning: kernel Gram asymmetry {k.asymmetry:.3e} exceeds "
                         f"tolerance at scale {k.scale:.3e}") if k.asym_warning else None
            if not k.finite:   # no asymmetry warning then, at a scale that is not finite
                i, j = divmod(int(np.argmin(np.isfinite(k.entries))), k.n)
                self.note = f"NON_FINITE: K(z, w) is not finite at position [{i}, {j}]"
            self.cs_note = _cs_note(k) if k.finite else None   # an overflow breaks no Cauchy-Schwarz
        return self.k

    def reciprocal(self) -> Reciprocal:
        if self.rec is None:
            self.rec = self._once(lambda: factor_reciprocal(self.k))
        return self.rec


def _defect_gram(u: np.ndarray, r: np.ndarray, keep: np.ndarray) -> HermitianMatrix:
    """J - diag(u) R diag(conj u) on the ``keep`` rows and columns of R's
    array ``r``, in a new array, Hermitian bit for bit with no symmetrizing
    pass: each row block is formed from its diagonal on, its diagonal square
    made Hermitian (the conjugate of its upper triangle below, its diagonal
    real), its max modulus taken, and its conjugate written below it. R's
    rows are read by slice where no sample is dropped."""
    idx = np.flatnonzero(keep)
    n, uk = idx.size, u[idx]
    d, ukc, scale = empty_matrix(n), uk.conj(), []
    for rows in row_blocks(n, d[:1].nbytes):
        i, j = rows.start, min(rows.stop, n)
        block, square = d[i:j, i:], d[i:j, i:j]
        np.multiply(uk[i:j, None], r[i:j, i:] if n == keep.size else r[np.ix_(idx[i:j], idx[i:])], out=block)
        block *= ukc[i:]
        np.subtract(1.0, block, out=block)
        np.copyto(square, square.T.conj(), where=np.tri(j - i, k=-1, dtype=bool))
        np.fill_diagonal(square.imag, 0.0)
        scale.append(np.max(np.abs(block)))
        np.conjugate(block[:, j - i:].T, out=d[j:, i:j])
    d.setflags(write=False)
    return HermitianMatrix(d, float(np.max(scale)), 0.0)


class Reciprocal(NamedTuple):
    """R = 1/K in its Gram's array, max|R| = rmax, and ||R - q m q^H||_F =
    resid, or resid None where m shows R's second positive eigenvalue; q, m
    and resid are all None where R is not factored. row_max bounds each row of
    R (the Gram's r_row_max), or is None."""

    entries: np.ndarray
    q: np.ndarray
    m: np.ndarray
    resid: float | None
    rmax: float
    row_max: np.ndarray | None = None


def factor_reciprocal(kernel_gram: HermitianMatrix) -> Reciprocal:
    """R of ``kernel_gram``, a finite Gram with R formed in its array as K
    was symmetrized (gram(..., True)), unless some |K(z, w)| is below
    DEFECT_EPS: VanishingKernel then names the K(z, w) positions, from the
    whole K that the Gram kept. Only the Gram's n, scale, asymmetry and
    min_modulus still describe K, and its r_norm = ||R||_F is the range
    finder's first residual. From RITZ_MIN_N samples on, the range finder, on
    RITZ_PROBE columns for Szego's R and DA(d)'s (rank 2 and d + 1; range_steps),
    aims at resid <= RITZ_RESIDUAL / max K(z, z) = RITZ_RESIDUAL min R(z, z),
    enough for every base of a positive kernel (|u|^2 <= K(z, z)); a stalled
    finder is kept up to RITZ_RESIDUAL * max(1, 1 / min|K|), as each base
    checks its own Weyl bound: below RITZ_MIN_N samples, or above it, R is not factored.

    The finder stops before a step's residual pass, resid None, once the
    second eigenvalue of that step's m, first the Krylov step that range_steps
    takes when its probe shows one, passes n^2 eps max|R|. By interlacing
    it is at most R's own, which rounding leaves below that band on a complete
    Pick kernel: n eps bounds the relative rounding of R's entries and of
    each length-n sum in m, and n max|R| bounds ||R||_2. Then every base's
    defect has a negative eigenvalue (Agler-McCarthy), which each base
    certifies by a Rayleigh quotient (see _rayleigh_quotient)."""
    r, n, kmin = kernel_gram.entries, kernel_gram.n, kernel_gram.min_modulus
    if kmin < DEFECT_EPS:   # then the array holds K
        _guard_min_modulus(r, DEFECT_EPS, VanishingKernel, "K(z, w)")
    if not kernel_gram.r_rows:
        raise ValueError("R = 1/K is not formed in this Gram")
    rec = Reciprocal(r, None, None, None, 1.0 / kmin, kernel_gram.r_row_max)
    if n < RITZ_MIN_N:
        return rec
    target = RITZ_RESIDUAL * float(np.min(np.abs(np.diagonal(r))))
    for q, m, resid in range_steps(r, target, kernel_gram.r_norm):
        if resid is None and np.linalg.eigvalsh(m)[-2] > n * n * _EPS * rec.rmax:
            break
    if resid is None or resid <= RITZ_RESIDUAL * max(1.0, rec.rmax):
        return rec._replace(q=q, m=m, resid=resid)
    return rec


def _factored_verdict(rec: Reciprocal, u: np.ndarray, keep: np.ndarray,
                      tol: float | None) -> PsdVerdict | None:
    """The verdict on the defect on the ``keep`` samples, with scale the max
    modulus of J - diag(u) R diag(conj u) on all samples: u is 0 at a dropped
    one, whose row and column read 1, so max(1, scale) is the defect's own.
    From T C T^H (see the module docstring) when the Weyl bound w = max|u|^2
    resid is within RITZ_RESIDUAL * max(1, scale), else NOT_PSD from the Rayleigh
    quotient of U y, y the lowest eigenvector of that same T C T^H, else None;
    None at once where R is not factored. V = U T is on the kept rows alone,
    so a dropped sample needs no correction, and no base forms U.
    A base with w <= RITZ_RESIDUAL takes scale 1, scanning (_defect_scale)
    only if its verdict cannot prove it (_unit_scale)."""
    if rec.q is None:
        return None
    m = int(keep.sum())
    w = math.nan if rec.resid is None else float(np.max(np.abs(u))) ** 2 * rec.resid   # NaN: no bound
    scale = 1.0 if w <= RITZ_RESIDUAL else _defect_scale(rec, u)
    weyl = w <= RITZ_RESIDUAL * max(1.0, scale)
    if not (weyl or math.isfinite(scale)):
        return None
    v = np.hstack([np.ones((m, 1)), u[keep, None] * rec.q[keep], np.zeros((m, 1))])
    t = np.linalg.qr(v, mode="r")
    g = np.outer(t[:, 0], t[:, 0].conj()) - t[:, 1:-1] @ rec.m @ t[:, 1:-1].conj().T
    g = HermitianMatrix(0.5 * (g + g.conj().T), scale, 0.0)
    if weyl:
        verdict = psd_verdict(g, tol)   # a NaN min_eig proves nothing: min(nan, 0) is nan
        if w > RITZ_RESIDUAL or _unit_scale(rec, u, keep, w - min(verdict.min_eig, 0.0)):
            return verdict
        return psd_verdict(replace(g, scale=_defect_scale(rec, u)), tol)
    tol = default_tol(scale) if tol is None else tol
    lam, y = np.linalg.eigh(g.entries)
    s = t.conj().T @ y[:, 0]   # V C T^H y = U T C T^H y = U g y = lam[0] U y
    x = np.zeros(keep.size, dtype=complex)
    x[keep] = v[:, 0] * s[0] - v[:, 1:-1] @ (rec.m @ s[1:-1])
    min_eig, bound = _rayleigh_quotient(rec, u, x) if lam[0] < 0.0 else (math.nan, 0.0)   # x = 0 at lam[0] = 0
    disproof = min_eig + bound < -10.0 * max(tol, default_tol(scale))
    return PsdVerdict(Verdict.NOT_PSD, min_eig, tol) if disproof else None


def _unit_scale(rec: Reciprocal, u: np.ndarray, keep: np.ndarray, delta: float) -> bool:
    """Whether D + delta I >= 0 on the kept samples proves that no |D_ij| the
    scan computes exceeds 1: by Cauchy-Schwarz |D_ij| <= max_k D_kk + delta =
    1 - f + delta, f = min_k |u_k|^2 R_kk (R_kk is real), and D_ii >= -delta,
    so f >= delta + a and delta + a <= 1 suffice. The allowance a = n (k + 2)^2
    eps (n_kept + max|u|^2 ||m||_F), from that bound on ||V C V^H||_2, covers
    the QR of V, the eigensolve of T C T^H, the residual pass and the scan's
    own arithmetic. O(n k)."""
    n, k, kept = keep.size, rec.q.shape[1], int(keep.sum())
    allowance = n * (k + 2) ** 2 * _EPS * (kept + float(np.max(np.abs(u))) ** 2 * np.linalg.norm(rec.m))
    f = np.min(np.abs(u[keep]) ** 2 * rec.entries.diagonal()[keep].real)
    return delta + allowance <= min(1.0, f)


def _defect_scale(rec: Reciprocal, u: np.ndarray) -> float:
    """max|J - diag(u) R diag(conj u)| over all samples, as one row-block pass
    over the upper triangle of R's array computes it, NaN if any entry is. With
    row bounds B (_row_bounds), only rows that can hold the max are scanned: the
    rows of the _SCALE_PROBE largest B give a lower bound L on it, and a row
    whose B_i is below L computes no entry that reaches L. The rows scanned
    give each entry as the full pass does, so the max is its own bit for bit.
    Without bounds, or with one not finite, every row is scanned: O(n^2)."""
    blocks = row_blocks(u.size, rec.entries[:1].nbytes)
    bound = _row_bounds(rec, u)
    if bound is None:
        return _scan_rows(rec, u, [(rows, rows.start) for rows in blocks])
    step, top, probe = blocks[0].stop, [], bound.copy()
    for _ in range(min(_SCALE_PROBE, u.size)):   # not np.argsort: paging its code in adds 0.3 MiB of RSS
        top.append(int(np.argmax(probe)))
        probe[top[-1]] = -math.inf
    low = _scan_rows(rec, u, [(slice(a, a + 1), a - a % step) for a in top])
    take, edge = bound >= low, np.zeros(u.size, dtype=bool)   # runs of rows taken, cut at block edges
    edge[::step] = True
    starts = np.flatnonzero(take & (edge | ~np.r_[False, take[:-1]]))
    stops = np.flatnonzero(take & (np.r_[edge[1:], True] | ~np.r_[take[1:], False])) + 1
    return _scan_rows(rec, u, [(slice(a, b), a - a % step) for a, b in zip(starts, stops)])


def _row_bounds(rec: Reciprocal, u: np.ndarray) -> np.ndarray | None:
    """B_i = (1 + |u_i| max|u| rho_i)(1 + 32 eps), rho_i >= |R_ij| over the
    part of row i the scan reads (the Gram's r_row_max), or None without rho or
    with any B_i not finite. B_i bounds every |1 - u_i R_ij conj(u_j)| the scan
    computes in row i: the allowance covers the rounding of both complex
    products, the difference and the modulus there, and of |u|, its max and
    B's own products."""
    if rec.row_max is None:
        return None
    mods = np.abs(u)
    with np.errstate(over="ignore", invalid="ignore"):   # not finite: no bound
        bound = (1.0 + mods * np.max(mods) * rec.row_max) * (1.0 + 32 * _EPS)
    return bound if math.isfinite(np.max(bound)) else None


def _scan_rows(rec: Reciprocal, u: np.ndarray, runs) -> float:
    """max|1 - u_i R_ij conj(u_j)| over the rows of each (rows, i) of ``runs``,
    at columns i on, where i starts the row block of ``rows``, NaN if any is:
    the max of the runs' maxima, on the calling thread."""
    uc, top = u.conj(), []
    for rows, i in runs:
        d = u[rows, None] * rec.entries[rows, i:]
        d *= uc[i:]
        top.append(np.max(np.abs(np.subtract(1.0, d, out=d))))
    return float(np.max(top))


def _rayleigh_quotient(rec: Reciprocal, u: np.ndarray, x: np.ndarray):
    """(x^H D x / x^H x, its rounding bound) for D = J - diag(u) R diag(conj u):
    an upper bound on D's smallest eigenvalue, evaluated directly, by one
    product with R's own array, in row blocks (linalg._product)."""
    y = u.conj() * x
    xx = float(np.vdot(x, x).real)
    quotient = float(abs(x.sum()) ** 2 - np.vdot(y, _product(rec.entries, y)).real) / xx
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
