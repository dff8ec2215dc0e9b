"""Gram and Pick matrices, Hermitian-symmetrized, and PSD certification.

Raw kernel matrices are Hermitian-symmetrized unconditionally before any
eigenvalue computation; the measured asymmetry is kept on the matrix so
reports can distinguish kernel bugs from rounding. Certification is a
three-valued verdict quantized around a tolerance, so "positive
semi-definite" stays honest under floating point.

The smallest eigenvalue is one dense eigvalsh. The randomized range finder
factors the base-free, numerically low-rank R = 1/K of a sample set, formed
as K is symmetrized, through which cnp certifies large defects without forming them.

Every n x n array is a plain numpy array from empty_matrix. Work over one
that would otherwise make a full-size temporary runs in row blocks (see
kernels.row_blocks): evaluating a kernel Gram at n = 1160 in one piece, for
one, raised the peak RSS of a base-point sweep by 25-33 MiB, more than one
n x n complex array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CnpcertError, DomainViolation, LengthMismatch, NoConvergence
from .kernels import DEFECT_EPS, Kernel, row_blocks

HERM_TOL = 1e-10   # relative asymmetry above this flags an assembly warning
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

    PSD means min_eig >= -tol, NOT_PSD means min_eig < -10 tol, and the band
    in between is INCONCLUSIVE.
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
    """An uninitialized n x n complex array: np.empty, the one place the
    kernel, symmetrized and defect Grams are allocated."""
    return np.empty((n, n), dtype=complex)


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

    With ``reciprocal``, each halved upper block, its maxima taken, becomes
    R = 1/K in place, adds its share of ||R||_F^2 and is mirrored as R, so K's
    lower triangle is never written, until a block has an entry not finite or
    below DEFECT_EPS in modulus: from its first row, r_rows, on, K is kept.
    The moduli of each block also give each row's least |K| from the block's
    first column on; once R is formed in every row, their reciprocals, with an
    allowance for R's rounding, are r_row_max, a bound on what such a pass
    over R reads of each row.
    """
    n = raw.shape[0]
    asym, scale, least, excess = [], [], [], []
    r_rows, norm2 = (n if reciprocal else 0), 0.0
    low = np.empty(n) if reciprocal else None   # each row's least |K| from its block's first column on
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):   # non-finite: scale says so
        root = 1.0 / np.sqrt(np.abs(raw.diagonal().real))
        for blk in row_blocks(n, raw[:1].nbytes):
            i, j = blk.start, blk.stop
            upper = raw[i:j, i:]
            rows = np.conjugate(raw[i:, i:j].T)   # raw^H on the same entries
            asym.append(np.max(np.abs(upper - rows)))
            np.add(rows, upper, out=upper)
            lower = raw[j:, i:j]
            if not reciprocal:
                np.conjugate(upper[:, j - i:].T, out=lower)   # the mirrored sum, bit for bit
                lower *= 0.5
            upper *= 0.5
            mods = np.abs(upper)
            scale.append(np.max(mods))
            least.append(np.min(mods if low is None else mods.min(axis=1, out=low[i:j])))
            if i < r_rows and least[-1] >= DEFECT_EPS and scale[-1] < math.inf:
                np.divide(1.0, upper, out=upper)   # rows i:j are all R: left of the block, R's mirror
                norm2 += np.vdot(raw[blk], raw[blk]).real
            else:
                r_rows = min(r_rows, i)
            if reciprocal:   # the mirror of R, or of K from r_rows on
                np.conjugate(upper[:, j - i:].T, out=lower)
            mods *= root[i:j, None]
            mods *= root[i:]
            mods.ravel()[::mods.shape[1] + 1] = 0.0   # the diagonal
            at = divmod(int(np.argmax(mods)), mods.shape[1])
            excess.append((float(np.square(mods[at]) - 1.0), i + min(at), i + max(at)))   # inf, not OverflowError
    raw.setflags(write=False)
    # |fl(1/K)| <= (1 + 8 eps) / |K| for the complex reciprocal, and |K| >= (1 - 2 eps) times
    # its rounded modulus; 2^-1060 covers a reciprocal rounded below the normal range
    row_max = (1.0 + 16 * _EPS) / low + 2.0 ** -1060 if r_rows == n else None
    return HermitianMatrix(raw, float(np.max(scale)), float(np.max(asym)), max(excess),
                           float(np.min(least)), r_rows, math.sqrt(norm2), row_max)


def _kernel_matrix(kernel: Kernel, points: np.ndarray) -> np.ndarray:
    n = points.shape[0]
    kernel.require_inside(points, DomainViolation, "sample(s) outside the kernel domain")
    Z, W = points[:, None], points[None]
    raw, against = empty_matrix(n), kernel.against(W)
    for rows in row_blocks(n, raw[:1].nbytes):
        try:
            raw[rows] = against(Z[rows])
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
    <= target, its Q is a step, the last if its residual meets the target; the
    rest of the block otherwise completes it, bit for bit the single product.
    """
    n = a.shape[0]
    rng = np.random.default_rng(RITZ_SEED)
    q = aq = np.empty((n, 0), dtype=complex)
    b = np.empty((0, 0), dtype=complex)
    while target < resid < math.inf and q.shape[1] + RITZ_BLOCK <= n // RITZ_MAX_FRAC:
        k = q.shape[1]
        omega = rng.standard_normal((n, RITZ_BLOCK)) + 1j * rng.standard_normal((n, RITZ_BLOCK))
        new = a @ omega[:, :0 if k else RITZ_PROBE]   # the probe's columns, none after the first block
        if not k and np.all(np.abs(np.linalg.qr(new, mode="r").diagonal()[-2:]) <= target):
            probe = np.linalg.qr(new)[0]   # a's rank is at most RITZ_PROBE - 2
            pb = probe.conj().T @ (a @ probe)
            pb = 0.5 * (pb + pb.conj().T)
            yield probe, pb, None
            if (r := _ritz_residual(a, probe, pb)) <= target:
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
    """Three-valued positivity verdict with bands (-tol, -10 tol).

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
    elif me < -10.0 * tol:
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
    pick = (1.0 - lam[:, None] * np.conj(lam)[None, :]) * raw
    return hermitian_from_raw(pick)
