"""Evaluable positive-kernel expressions on the unit disk and unit ball.

Leaf kernels (Szego, Drury-Arveson, weighted Hardy, de Branges-Rovnyak,
nonnegative constants) and combinators (pointwise sum, pull-back under an
analytic map, diagonal congruence, base-point normalized defect) form
immutable expression trees. ``evaluate`` broadcasts over numpy arrays so
Gram assembly vectorizes; guards raise instead of returning junk whenever an
evaluation lands within rounding distance of a singularity.

Conventions: one-variable kernels take complex scalars in the open unit
disk; Drury-Arveson points are length-d complex vectors (last array axis) in
the open unit ball. K(z, w) is holomorphic in z and anti-holomorphic in w.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DomainMismatch,
    DomainViolation,
    NearSingular,
    NotSchurClass,
    RangeViolation,
    VanishingKernel,
)
from .sampling import PROBE_POINTS
from .series import PowerSeries, Rational

DOM_EPS = 1e-12      # denominators below this modulus count as singular
DEFECT_EPS = 1e-12   # kernel values below this modulus count as vanishing
SCHUR_SLACK = 1e-9   # sampled sup |b| may exceed 1 by at most this much
_EPS = float(np.finfo(float).eps)


ROW_BLOCK_BYTES = 1 << 20   # large matrices are built in row blocks of this size


def row_blocks(n_rows: int, row_bytes: int):
    """Slices of range(n_rows), in order, of at most ROW_BLOCK_BYTES (one row at least)."""
    step = max(1, ROW_BLOCK_BYTES // max(1, row_bytes))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def _guard_min_modulus(values, eps, exc_cls, what):
    bad = np.abs(np.asarray(values)) < eps
    if np.any(bad):
        where = np.argwhere(np.atleast_1d(bad))[:4].tolist()
        raise exc_cls(f"{what} below {eps:g} in modulus at positions {where}")


def _one_minus_inner(w, what: str, dim: int = 0):
    """den(z, out=None) -> 1 - <z, w> for disk points (dim 0) or points of the ball of
    C^dim (last axis, a coordinate at a time), into ``out`` when given; conj(w) and
    max||w|| are taken once, here. NearSingular names the positions where |den| < DOM_EPS;
    that n^2 pass is skipped when |<z, w>| <= max||z|| max||w|| (Cauchy-Schwarz) clears it,
    8 (dim + 2) eps covering the rounding of den, of the bound and of the moduli."""
    cw = np.conj(np.asarray(w, complex))
    norms = (lambda p: np.sqrt(np.sum(np.abs(p) ** 2, axis=-1))) if dim else np.abs
    wmax, slack = float(np.max(norms(cw), initial=0.0)), DOM_EPS + 8 * (dim + 2) * _EPS
    def den(z, out=None):
        zz = np.asarray(z, complex)
        if not dim:   # a numpy scalar for scalar z and w
            d = np.subtract(1.0, np.multiply(cw, zz, out=out), out=out)
        else:
            d = np.asarray(np.multiply(zz[..., 0], cw[..., 0], out=out))
            for k in range(1, max(zz.shape[-1], cw.shape[-1])):
                d += zz[..., k] * cw[..., k]
            np.subtract(1.0, d, out=d)
        if not 1.0 - float(np.max(norms(zz), initial=0.0)) * wmax >= slack:
            _guard_min_modulus(d, DOM_EPS, NearSingular, what)
        return d
    return den


@lru_cache(maxsize=1)   # cnp_criterion, then the DeBrangesRovnyak kernel, probe one (immutable) symbol
def unit_ball_probe(b: Rational) -> float:
    """Sampled sup of |b| over the PROBE_POINTS polar grid of the disk.

    A cheap necessary check for membership in the closed unit ball of bounded
    analytic functions; returns inf when an evaluation overflows.
    """
    vals = np.abs(b(PROBE_POINTS))
    if not np.all(np.isfinite(vals)):
        return float("inf")
    return float(vals.max())


class Kernel:
    """Base class for kernel expression nodes. ``dim`` is the domain: 0 the
    disk, d the ball of C^d, None any domain (read as the disk)."""

    dim = 0

    def evaluate(self, z, w):
        raise NotImplementedError

    def against(self, w):
        """at(z, out=None) -> evaluate(z, w) for a fixed ``w``, entry for entry the same,
        into ``out`` (returned) when given. A kernel computes here, once, what depends on
        ``w`` alone; Szego, Drury-Arveson and dBR write ``out`` itself, the rest a copy."""
        def at(z, out=None):
            if out is None:
                return self.evaluate(z, w)
            out[...] = self.evaluate(z, w)
            return out
        return at

    def contains(self, pts) -> np.ndarray:
        """Boolean mask of points inside the open domain. Ball points are
        the last array axis; any length other than the ball's dimension
        raises ``DomainMismatch``."""
        arr = np.asarray(pts, dtype=complex)
        if not self.dim:
            return np.abs(arr) < 1.0
        if arr.size and arr.shape[-1:] != (self.dim,):
            raise DomainMismatch(f"points of shape {arr.shape} are not in the ball of C^{self.dim}")
        return np.sum(np.abs(arr) ** 2, axis=-1) < 1.0

    def points(self, pts) -> np.ndarray:
        """``pts`` as a complex array of shape (n,) on the disk or (n, d) on
        the ball of C^d; any other shape raises ``DomainMismatch``."""
        arr = np.asarray(pts if isinstance(pts, np.ndarray) else list(pts), dtype=complex)
        shape = (self.dim,) if self.dim else ()
        if arr.shape[0] == 0:
            arr = arr.reshape((0,) + shape)
        if arr.shape[1:] != shape:
            where = "disk" if not shape else f"ball of C^{shape[0]}"
            raise DomainMismatch(f"points of shape {arr.shape} are not points of the {where}")
        return arr

    def require_inside(self, pts, exc_cls, what: str):
        """Raise ``exc_cls`` naming the first positions of ``pts`` outside
        the open domain."""
        outside = ~np.atleast_1d(self.contains(pts))
        if np.any(outside):
            raise exc_cls(f"{what} at positions {np.argwhere(outside)[:4].tolist()}")


@dataclass(frozen=True)
class Szego(Kernel):
    """K(z, w) = 1 / (1 - conj(w) z) on the unit disk."""

    def evaluate(self, z, w):
        return self.against(w)(z)

    def against(self, w):
        den = _one_minus_inner(w, "Szego denominator")
        return lambda z, out=None: np.divide(1.0, den(z, out), out=out)


@dataclass(frozen=True)
class DruryArveson(Kernel):
    """K(z, w) = 1 / (1 - <z, w>) on the unit ball of C^dim."""

    dim: int = field()   # required: the inherited Kernel.dim is not a default

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("Drury-Arveson dimension must be >= 1")
        object.__setattr__(self, "dim", int(self.dim))

    def evaluate(self, z, w):
        return self.against(w)(z)

    def against(self, w):
        den = _one_minus_inner(w, "Drury-Arveson denominator", self.dim)
        return lambda z, out=None: np.divide(1.0, d := den(z, out), out=d)   # 0-d for scalars


@dataclass(frozen=True, eq=False)
class WeightedHardy(Kernel):
    """K(z, w) = sum_n (z conj(w))^n / weights[n], truncated at len(weights),
    evaluated as the power series with coefficients 1 / weights.

    Weights must be strictly positive, with finite reciprocals.
    """

    weights: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must form a non-empty 1-D sequence")
        with np.errstate(divide="ignore", over="ignore"):
            recip = 1.0 / arr
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or not np.all(np.isfinite(recip)):
            raise ValueError("weights must be finite and strictly positive, with finite reciprocals")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)
        object.__setattr__(self, "_series", PowerSeries(recip))

    def evaluate(self, z, w):
        return self._series(np.asarray(z, complex) * np.conj(np.asarray(w, complex)))


@dataclass(frozen=True)
class DeBrangesRovnyak(Kernel):
    """K(z, w) = (1 - conj(b(w)) b(z)) / (1 - conj(w) z) for a symbol b.

    Construction runs the sampled unit-ball probe on the symbol and refuses
    symbols whose sampled sup modulus exceeds 1 beyond rounding slack.
    """

    symbol: Rational

    def __post_init__(self):
        sup = unit_ball_probe(self.symbol)
        if sup > 1.0 + SCHUR_SLACK:
            raise NotSchurClass(
                f"sampled sup |b| = {sup:.6g} exceeds 1; the symbol is outside "
                "the closed unit ball of bounded analytic functions"
            )

    def evaluate(self, z, w):
        return self.against(w)(z)

    def against(self, w):
        ww = np.asarray(w, complex)
        den, bw = _one_minus_inner(ww, "de Branges-Rovnyak denominator"), np.conj(self.symbol(ww))
        def at(z, out=None):   # in place: a block makes one array besides its result
            d = np.asarray(den(z, out))
            num = np.asarray(bw * self.symbol(np.asarray(z, complex)))
            return np.divide(np.subtract(1.0, num, out=num), d, out=d)
        return at


@dataclass(frozen=True)
class Constant(Kernel):
    """K(z, w) = value, a nonnegative real; domain-agnostic."""

    value: float
    dim = None

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(self.value, numbers.Real):
            raise ValueError(f"a constant kernel's value must be a number, got {self.value!r}")
        v = float(self.value) if abs(self.value) <= float(np.finfo(float).max) else np.inf   # no OverflowError
        if not np.isfinite(v) or v < 0.0:
            raise ValueError("constant kernels must have a finite nonnegative value")
        object.__setattr__(self, "value", v)

    def evaluate(self, z, w):
        return complex(self.value)


@dataclass(frozen=True)
class Sum(Kernel):
    """Pointwise sum of two kernels on a common domain."""

    left: Kernel
    right: Kernel

    def __post_init__(self):
        dims = {self.left.dim, self.right.dim} - {None}
        if len(dims) > 1:
            raise DomainMismatch(f"kernel domains differ: dim {self.left.dim} vs {self.right.dim}")
        object.__setattr__(self, "dim", dims.pop() if dims else 0)

    def evaluate(self, z, w):
        return self.left.evaluate(z, w) + self.right.evaluate(z, w)


@dataclass(frozen=True)
class Pullback(Kernel):
    """(z, w) -> K(map(z), map(w)) for an analytic self-map of the disk."""

    inner: Kernel
    map: Rational

    def __post_init__(self):
        if self.inner.dim:
            raise DomainMismatch("pull-backs are defined for disk kernels only")

    def evaluate(self, z, w):
        mz = np.asarray(self.map(z), complex)
        mw = np.asarray(self.map(w), complex)
        for name, arr in (("z", mz), ("w", mw)):
            self.inner.require_inside(
                arr, RangeViolation, f"pull-back map leaves the kernel domain on argument {name}")
        return self.inner.evaluate(mz, mw)


@dataclass(frozen=True)
class Congruence(Kernel):
    """(z, w) -> factor(z) conj(factor(w)) K(z, w); preserves positivity."""

    inner: Kernel
    factor: Rational

    def __post_init__(self):
        if self.inner.dim:
            raise DomainMismatch("congruences are defined for disk kernels only")

    def evaluate(self, z, w):
        fz = np.asarray(self.factor(z), complex)
        fw = np.asarray(self.factor(w), complex)
        return fz * np.conj(fw) * self.inner.evaluate(z, w)


@dataclass(frozen=True, eq=False)
class NormalizedDefect(Kernel):
    """D(z, w) = 1 - K(z, base) K(base, w) / (K(base, base) K(z, w)).

    Positivity of this defect over every finite sample is the normalized
    criterion the certifier tests. Construction requires K(base, base) to be
    real and bounded away from zero, and keeps it as ``kbb``; evaluation
    raises ``VanishingKernel`` whenever any of the kernel values entering the
    quotient is numerically zero, since the criterion is meaningless for
    vanishing kernels.
    """

    inner: Kernel
    base: object

    def __post_init__(self):
        (base,) = self.inner.points([self.base])
        self.inner.require_inside(
            base, DomainViolation, "defect base point lies outside the kernel domain")
        object.__setattr__(self, "base", base)
        kbb = complex(np.asarray(self.inner.evaluate(base, base), complex))
        if abs(kbb.imag) > 1e-10 * max(1.0, abs(kbb)) or kbb.real <= DEFECT_EPS:
            raise VanishingKernel(
                f"K(base, base) = {kbb:.6g} is not real and positive"
            )
        object.__setattr__(self, "kbb", kbb.real)
        object.__setattr__(self, "dim", self.inner.dim)

    def evaluate(self, z, w):
        kzb = np.asarray(self.inner.evaluate(z, self.base), complex)
        kbw = np.asarray(self.inner.evaluate(self.base, w), complex)
        kzw = np.asarray(self.inner.evaluate(z, w), complex)
        for values, what in ((kzb, "K(z, base)"), (kbw, "K(base, w)"), (kzw, "K(z, w)")):
            _guard_min_modulus(values, DEFECT_EPS, VanishingKernel, what)
        return 1.0 - kzb * kbw / (self.kbb * kzw)

    def base_column(self, points: np.ndarray) -> np.ndarray:
        """K(z, base) on ``points`` as an (n, 1) column, guarded first as in ``evaluate``."""
        kzb = np.asarray(self.inner.evaluate(points, self.base), complex)
        kzb = np.broadcast_to(kzb, (points.shape[0],))[:, None]
        _guard_min_modulus(kzb, DEFECT_EPS, VanishingKernel, "K(z, base)")
        return kzb

