"""Gram and Pick matrices, Hermitian-symmetrized, and PSD certification.

Raw kernel matrices are Hermitian-symmetrized unconditionally before any
eigenvalue computation; the measured asymmetry is kept on the matrix so
reports can distinguish kernel bugs from rounding. (cnp's defect, formed
from the Hermitian R, is Hermitian by construction and skips this pass, at
asymmetry 0.) Certification is a
three-valued verdict quantized around a tolerance, so "positive
semi-definite" stays honest under floating point.

The smallest eigenvalue is one dense eigvalsh. The randomized range finder
factors the base-free, numerically low-rank R = 1/K of a sample set, formed
as K is symmetrized, through which cnp certifies large defects without forming them.

Every n x n array comes from empty_matrix; a large one after the first is a
memory mapping, new or the spare a released one left. Work over one that would
otherwise make a full-size temporary runs in row blocks (see kernels.row_blocks):
evaluating a kernel Gram at n = 1160 in one piece, for one, raised the peak RSS
of a base-point sweep by 25-33 MiB, more than one n x n complex array. Given 2 row
blocks or more and 2 CPUs, a Gram's evaluation and each pass of hermitian_in_place
share their blocks with one helper thread, kept for the process (_each_block). Block
i:j reads K's lower triangle only in raw[i:, i:j] and writes only raw[i:j, i:] and
raw[j:, i:j], so every result is bit for bit the serial one; the helper's scratch, one
more block's (2.5 MiB at n = 1160), is made on the calling thread.
"""

from __future__ import annotations

import contextvars
import math
import mmap
import os
import threading
import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CnpcertError, DomainViolation, LengthMismatch, NoConvergence
from .kernels import DEFECT_EPS, Kernel, row_blocks

HERM_TOL = 1e-10   # relative asymmetry above this flags an assembly warning
MAPPED_MIN_BYTES = 1 << 22   # n x n arrays from this size on are memory-mapped (see empty_matrix)
_mapped = False              # ... once numpy has served one, where glibc is the allocator
_spare = {}                  # {0: the last such mapping released}, kept for a request of its size
_claim = threading.Lock()    # held by the caller sharing its row blocks with the helper thread
_helper = []                 # its semaphores [go, done], once started, and the task go hands it
_EPS = float(np.finfo(float).eps)

# Randomized range finder (see range_steps)
RITZ_BLOCK = 32          # Gaussian test vectors added per step
RITZ_PROBE = 8           # of the first block's, multiplied alone first (see range_steps)
RITZ_SEED = 20110        # fixed, so repeated solves are bitwise identical
RITZ_RESIDUAL = 1e-10    # accepted Weyl residual, relative to max(1, scale)
RITZ_MIN_SHRINK = 10.0   # a step must cut the residual by this factor
RITZ_MAX_FRAC = 8        # basis size stays <= n / RITZ_MAX_FRAC
RITZ_MIN_N = RITZ_BLOCK * RITZ_MAX_FRAC   # 256: from here a block fits and cnp factors 1/K


class Verdict(Enum):
    PSD = "PSD"
    NOT_PSD = "NOT_PSD"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class PsdVerdict:
    """Quantized positivity verdict.

    PSD means min_eig >= -tol, NOT_PSD means min_eig < -10 max(tol,
    default_tol(scale)), and the band in between is INCONCLUSIVE: a tol below
    the default tightens only PSD, so rounding never reads as a disproof.
    """

    status: Verdict
    min_eig: float
    tol: float

    def to_json_dict(self):
        return {
            "status": self.status.value,
            "min_eig": None if math.isnan(self.min_eig) else float(self.min_eig),
            "tol": float(self.tol),
        }


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Dense complex Hermitian matrix with its scale, asymmetry and
    Cauchy-Schwarz excess."""

    entries: np.ndarray
    scale: float          # max abs entry after symmetrization
    asymmetry: float      # max |raw - raw^H| before symmetrization
    # (e, i, j): e = |m_ij|^2 / |m_ii m_jj| - 1, largest at i < j; e > 0 breaks
    # Cauchy-Schwarz, so m is not PSD ((-1, 0, 0) below two rows, -inf not taken)
    cs_excess: tuple = (-math.inf, 0, 0)
    min_modulus: float = math.nan   # min abs entry, from scale's pass (NaN: not taken)
    r_rows: int = 0            # entries are R = 1/K but on [r_rows:, r_rows:] (hermitian_in_place)
    r_norm: float = math.nan   # ||R||_F, once r_rows = n
    # once r_rows = n, per row i a bound rho_i >= |R_ij|, as rounded, for j from the
    # first column of row i's row block on: all of row i that a row-block pass over
    # the upper triangle reads (from the least |K_ij| there); else None
    r_row_max: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def finite(self) -> bool:
        """True when every entry is finite (scale is their max modulus)."""
        return math.isfinite(self.scale)

    @property
    def asym_warning(self) -> bool:
        # entries are rounded relative to max(1, scale): a matrix that vanishes
        # identically, as a difference of O(1) terms, keeps their rounding
        return self.asymmetry > HERM_TOL * max(self.scale, 1.0)


def empty_matrix(n: int) -> np.ndarray:
    """An uninitialized n x n complex array, the one place the kernel, symmetrized
    and defect Grams are allocated. The first of MAPPED_MIN_BYTES or more is numpy's:
    glibc maps it and, once it is freed, raises its mmap and trim thresholds past
    it, so row-block temporaries stay in a heap it no longer trims. Each later one
    is a mapping of its own; in that heap, a small block left above one would split
    its space for the next, and the peak RSS of a sweep would gain an n x n array.
    Once the flat array under every view of a mapping is gone, the mapping is the
    one spare, its pages faulted in, for the next request of its size; a request
    of another size unmaps it first. So at most one n x n array is idle."""
    global _mapped
    if not (_mapped and 16 * n * n >= MAPPED_MIN_BYTES):
        _mapped = _mapped or (16 * n * n >= MAPPED_MIN_BYTES and hasattr(mmap, "MADV_HUGEPAGE"))
        return np.empty((n, n), dtype=complex)
    buf = _spare.pop(0, None)
    if buf is None or len(buf) != 16 * n * n:
        if buf is not None:
            buf.close()
        buf = mmap.mmap(-1, 16 * n * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        buf.madvise(mmap.MADV_HUGEPAGE)   # as numpy advises its own large arrays
    flat = np.frombuffer(buf, dtype=complex)
    weakref.finalize(flat, _spare.__setitem__, 0, buf)   # an older spare is dropped: unmapped
    return flat.reshape(n, n)


def _each_block(count: int, work, scratch=lambda: None) -> None:
    """work(b, s) for b in range(count), each taker's s = scratch() made here (see the module docstring)."""
    taken, errors = iter(range(count)), {}
    def take(s):
        while not errors and (b := next(taken, count)) < count:
            try:
                work(b, s)
            except BaseException as exc:   # raised, the first block's, once both threads are done
                errors[b] = exc
    if count > 1 and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) > 1 \
            and _claim.acquire(blocking=False):   # no affinity, as on macOS: serial
        if not _helper:   # started once; a forked child has no such thread, so starts its own
            def serve(go, done):   # the task, and so the matrix and scratch, is dropped before done
                while go.acquire():
                    _helper.pop()()
                    done.release()
            _helper[:] = [threading.Semaphore(0), threading.Semaphore(0)]
            threading.Thread(target=serve, args=_helper[:2], daemon=True).start()
            os.register_at_fork(after_in_child=_helper.clear)
        ctx, s = contextvars.copy_context(), scratch()   # the context holds numpy's errstate
        _helper.append(lambda: ctx.run(take, s))
        _helper[0].release()
        try:
            take(scratch())
        finally:
            _helper[1].acquire()
            _claim.release()
    else:
        take(scratch())
    if errors:
        raise errors.pop(min(errors))


def hermitian_from_raw(raw) -> HermitianMatrix:
    """0.5 (raw + raw^H), with its max modulus as scale and max |raw - raw^H|
    as asymmetry: hermitian_in_place on a copy of raw."""
    raw = np.asarray(raw, dtype=complex)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1] or raw.shape[0] < 1:
        raise ValueError("expected a square matrix of dimension >= 1")
    herm = empty_matrix(raw.shape[0])
    herm[...] = raw
    return hermitian_in_place(herm)


def hermitian_in_place(raw: np.ndarray, reciprocal: bool = False) -> HermitianMatrix:
    """hermitian_from_raw over ``raw``, a writable square complex array,
    which becomes the read-only entries. Entry (i, j) is
    (conj(raw[j, i]) + raw[i, j]) * 0.5, formed a row block at a time: the
    sum on the upper triangle, written to the lower as its conjugate (the
    same sum bit for bit, NaN signs included), then both halved. Both maxima,
    and the least modulus, are taken over the upper triangle, exact since the
    moduli are symmetric, with np.max and np.min, so a NaN entry anywhere
    makes all three NaN. The scale's moduli, times 1 / sqrt|m_ii m_jj| off the diagonal (which
    symmetrizing leaves at raw's real parts), give cs_excess.

    With ``reciprocal``, the halved upper blocks, their maxima taken, become R = 1/K
    in place up to the first with an entry not finite or below DEFECT_EPS in modulus:
    from its first row, r_rows, on, K is kept. Then each is mirrored, as R or K, so K's
    lower triangle is never written, and adds its rows of R to ||R||_F^2 in block order.
    The moduli of each block also give each row's least |K| from the block's
    first column on; once R is formed in every row, their reciprocals, with an
    allowance for R's rounding, are r_row_max, a bound on what such a pass
    over R reads of each row.
    """
    n = raw.shape[0]
    blocks = row_blocks(n, raw[:1].nbytes)   # each works in scratch the size of the first, the largest
    asym, scale, least, excess, norm2 = ([0.0] * len(blocks) for _ in range(5))
    low = np.empty(n) if reciprocal else None   # each row's least |K| from its block's first column on
    def measure(b, scratch):
        i, j = blocks[b].start, blocks[b].stop
        upper = raw[i:j, i:]
        rows, diff, mods = (buf[:upper.size].reshape(upper.shape) for buf in scratch)
        np.conjugate(raw[i:, i:j].T, out=rows)   # raw^H on the same entries
        asym[b] = np.max(np.abs(np.subtract(upper, rows, out=diff), out=mods))
        np.add(rows, upper, out=upper)
        if not reciprocal:
            np.conjugate(upper[:, j - i:].T, out=raw[j:, i:j])   # the mirrored sum, bit for bit
            raw[j:, i:j] *= 0.5
        upper *= 0.5
        np.abs(upper, out=mods)
        scale[b] = np.max(mods)
        least[b] = np.min(mods if low is None else mods.min(axis=1, out=low[i:j]))
        mods *= root[i:j, None]
        mods *= root[i:]
        mods.ravel()[::mods.shape[1] + 1] = 0.0   # the diagonal
        at = divmod(int(np.argmax(mods)), mods.shape[1])
        excess[b] = (float(np.square(mods[at]) - 1.0), i + min(at), i + max(at))   # inf, not OverflowError
    def invert(b, _):   # R on the rows before r_rows, then the mirror of R or K
        i, j = blocks[b].start, blocks[b].stop
        np.divide(1.0, raw[i:j, i:], out=raw[i:j, i:], where=b < r_blocks)   # False: K is kept
        np.conjugate(raw[i:j, j:].T, out=raw[j:, i:j])
    def square(b, _):   # rows i:j are all R once every earlier block's mirror is written
        norm2[b] = np.vdot(raw[blocks[b]], raw[blocks[b]]).real
    size = raw[blocks[0]].size
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):   # non-finite: scale says so
        root = 1.0 / np.sqrt(np.abs(raw.diagonal().real))
        _each_block(len(blocks), measure, lambda: [np.empty(size, t) for t in (complex, complex, float)])
        r_blocks = next((b for b, (s, m) in enumerate(zip(scale, least))
                         if not (m >= DEFECT_EPS and s < math.inf)), len(blocks)) if reciprocal else 0
        _each_block(len(blocks) if reciprocal else 0, invert)
        _each_block(r_blocks, square)
    r_rows = min(r_blocks * blocks[0].stop, n)
    raw.setflags(write=False)
    # |fl(1/K)| <= (1 + 8 eps) / |K| for the complex reciprocal, and |K| >= (1 - 2 eps) times
    # its rounded modulus; 2^-1060 covers a reciprocal rounded below the normal range
    row_max = (1.0 + 16 * _EPS) / low + 2.0 ** -1060 if r_rows == n else None
    return HermitianMatrix(raw, float(np.max(scale)), float(np.max(asym)), max(excess), float(np.min(least)),
                           r_rows, math.sqrt(np.add.accumulate([0.0] + norm2[:r_blocks])[-1]), row_max)


def _kernel_matrix(kernel: Kernel, points: np.ndarray) -> np.ndarray:
    n = points.shape[0]
    kernel.require_inside(points, DomainViolation, "sample(s) outside the kernel domain")
    Z, W = points[:, None], points[None]
    raw, at, blocks = empty_matrix(n), kernel.against(W), row_blocks(n, 16 * n)
    try:
        _each_block(len(blocks), lambda b, _: at(Z[blocks[b]], out=raw[blocks[b]]))
    except CnpcertError:   # raised again on the whole matrix, so positions index it
        kernel.evaluate(Z, W)
        raise
    return raw


def gram(kernel: Kernel, pts, reciprocal: bool = False) -> HermitianMatrix:
    """Gram matrix K(p_i, p_j), symmetrized, or R = 1/K with ``reciprocal``
    (see hermitian_in_place); guard errors from the kernel evaluation
    propagate with the offending broadcast positions attached."""
    points = kernel.points(pts)
    if points.shape[0] < 1:
        raise ValueError("at least one sample point is required")
    return hermitian_in_place(_kernel_matrix(kernel, points), reciprocal)


def _ritz_residual(a: np.ndarray, q: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the Hermitian a - q b q^H, formed a row block at a
    time from the diagonal on, in one block buffer, each off-diagonal entry
    counted twice."""
    qb, qh = q @ b, q.conj().T
    blocks = row_blocks(a.shape[0], a[:1].nbytes)
    total, buf = 0.0, np.empty(a[blocks[0]].size, dtype=complex)
    for rows in blocks:
        i = rows.start
        t = buf[:a[rows, i:].size].reshape(a[rows, i:].shape)
        np.subtract(a[rows, i:], np.matmul(qb[rows], qh[:, i:], out=t), out=t)
        diag = t[:, :rows.stop - i]
        total += 2.0 * np.vdot(t, t).real - np.vdot(diag, diag).real
    return math.sqrt(total)


def _probe_second_eigenvalue(omega: np.ndarray, y: np.ndarray) -> float:
    """The second largest eigenvalue of C = Q^H a Q, omega = Q T (QR), from
    y = a @ omega alone: a Q = y T^-1, so C = T^-H (omega^H y) T^-1."""
    t_inv = np.linalg.inv(np.linalg.qr(omega, mode="r"))
    c = t_inv.conj().T @ (omega.conj().T @ y) @ t_inv
    return float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[-2])


def range_steps(a: np.ndarray, target: float, resid: float):
    """The steps of a randomized range finder on Hermitian ``a`` (Halko,
    Martinsson & Tropp 2011), given ``resid`` = ||a||_F, the residual of the
    empty basis, from the caller's own pass over a: q grows by blocks of
    a @ omega for Gaussian omega, each block added through a joint QR of
    [q, a @ omega] so q stays orthonormal to rounding, and b = q^H a q. Each
    block yields (q, b, None) once it has joined q and b, before its residual
    pass; the last step is (q, b, r), r = ||a - q b q^H||_F, once r <= target,
    a step cuts r by less than RITZ_MIN_SHRINK (NaN from overflow included)
    or q would pass n / RITZ_MAX_FRAC columns (q is empty when ||a|| is not
    finite). A caller may stop at any step. The first block's first RITZ_PROBE
    columns go first: if their product's R factor ends in two diagonal entries
    <= target, its Q is a step, the last if its residual meets the target. Else,
    if a compressed onto their span (no further product) has a second eigenvalue
    above n^2 eps ||a||_F, one power step (HMT section 4.5) makes a step, with no
    residual pass, of the Krylov basis [q1, orth(a q1 - q1 m11)], q1 the probe's
    Q. The rest of the block then completes the probe, bit for bit the single product.
    """
    n = a.shape[0]
    rng = np.random.default_rng(RITZ_SEED)
    q = aq = np.empty((n, 0), dtype=complex)
    b = np.empty((0, 0), dtype=complex)
    while target < resid < math.inf and q.shape[1] + RITZ_BLOCK <= n // RITZ_MAX_FRAC:
        k = q.shape[1]
        omega = rng.standard_normal((n, RITZ_BLOCK)) + 1j * rng.standard_normal((n, RITZ_BLOCK))
        new = a @ omega[:, :0 if k else RITZ_PROBE]   # the probe's columns, none after the first block
        low = not k and np.all(np.abs(np.linalg.qr(new, mode="r").diagonal()[-2:]) <= target)
        if low or not k and _probe_second_eigenvalue(omega[:, :RITZ_PROBE], new) > n * n * _EPS * resid:
            probe = np.linalg.qr(new)[0]   # low: a's rank is at most RITZ_PROBE - 2
            ap = a @ probe
            if not low:   # the Krylov block orth(a q1 - q1 m11), from a joint QR
                krylov = np.linalg.qr(np.hstack([probe, ap]))[0][:, RITZ_PROBE:]
                probe, ap = np.hstack([probe, krylov]), np.hstack([ap, a @ krylov])
            pb = probe.conj().T @ ap
            pb = 0.5 * (pb + pb.conj().T)
            yield probe, pb, None
            if low and (r := _ritz_residual(a, probe, pb)) <= target:
                yield probe, pb, r
                return
        new = np.linalg.qr(np.hstack([q, new, a @ omega[:, new.shape[1]:]]))[0][:, k:]
        q = np.hstack([q, new])
        aq = np.hstack([aq, a @ new])
        b = q.conj().T @ aq
        b = 0.5 * (b + b.conj().T)
        yield q, b, None
        prev, resid = resid, _ritz_residual(a, q, b)
        if not resid <= prev / RITZ_MIN_SHRINK:
            break
    yield q, b, resid


def smallest_eigenvalue(m: HermitianMatrix) -> float:
    """Smallest eigenvalue of the symmetrized matrix, by dense eigvalsh."""
    try:
        vals = np.linalg.eigvalsh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed on {m.n}x{m.n} matrix: {exc}") from exc
    return float(vals[0])


def default_tol(scale: float) -> float:
    """The verdict tolerance when none is given: 1e-9 max(1, scale), or 1e-9
    when the scale is not finite and so means nothing."""
    return 1e-9 * (max(1.0, scale) if math.isfinite(scale) else 1.0)


def checked_tol(tol: float) -> float:
    """``tol`` as a float, or a ValueError unless it is positive and finite."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    return float(tol)


def psd_verdict(m: HermitianMatrix, tol: float | None = None) -> PsdVerdict:
    """Three-valued positivity verdict with bands (-tol, -10 max(tol, default)).

    A matrix with a non-finite entry is INCONCLUSIVE with min_eig NaN and no
    eigensolve; its default tolerance ignores the meaningless scale.
    """
    tol = checked_tol(default_tol(m.scale) if tol is None else tol)
    if not m.finite:
        return PsdVerdict(Verdict.INCONCLUSIVE, float("nan"), tol)
    try:
        me = smallest_eigenvalue(m)
    except NoConvergence:
        return PsdVerdict(Verdict.INCONCLUSIVE, float("nan"), tol)
    if me >= -tol:
        status = Verdict.PSD
    elif me < -10.0 * max(tol, default_tol(m.scale)):
        status = Verdict.NOT_PSD
    else:
        status = Verdict.INCONCLUSIVE
    return PsdVerdict(status, me, tol)


def pick_matrix(kernel: Kernel, nodes, targets) -> HermitianMatrix:
    """Entries (1 - t_i conj(t_j)) K(x_i, x_j) for interpolation data.

    Positivity of this matrix (in the usual v* M v sense) is the necessary
    solvability condition for a unit-ball multiplier hitting the targets.
    The target factor must pair holomorphically with the kernel's first
    argument; the transposed pairing would certify the conjugate-target
    problem instead, which differs once data leaves the real line.
    """
    points = kernel.points(nodes)
    lam = np.asarray(list(targets), dtype=complex)
    if lam.ndim != 1 or lam.size != points.shape[0]:
        raise LengthMismatch(
            f"{points.shape[0]} nodes but {lam.size} target values"
        )
    if not np.all(np.isfinite(lam)):
        raise ValueError("interpolation targets must be finite")
    raw = _kernel_matrix(kernel, points)
    for rows in row_blocks(lam.size, raw[:1].nbytes):   # scaled in place, the one n x n array
        np.multiply(1.0 - lam[rows, None] * np.conj(lam)[None, :], raw[rows], out=raw[rows])
    return hermitian_in_place(raw)
