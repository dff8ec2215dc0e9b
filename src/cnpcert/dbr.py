"""de Branges-Rovnyak specifics: the constructive criterion checker.

For a nonconstant symbol b in the closed unit ball of bounded analytic
functions, the kernel (1 - conj(b(w)) b(z)) / (1 - conj(w) z) has the
complete Pick property exactly when b admits a holomorphic left inverse h
(h(b(z)) = z on the disk) such that (z - b(0)) / h(z) extends to the whole
disk with modulus at most |1 - conj(b(0)) z|.

Numerically that splits into a necessary part that is checkable from b alone
(injectivity probe, left-inverse round trip, the modulus inequality sampled
on b's range) and a sufficient part that needs the caller to supply
the extension of (z - b(0)) / h as a concrete map, the witness. The report
keeps the two apart: PASS_NECESSARY never claims more than consistency,
PASS_WITH_EXTENSION means the witness checked out at sampled resolution.
A symbol or witness is a ``series.Rational``; a symbol's ``revert()`` is the
left inverse, a Moebius map's adjugate or else the Newton reversion of its
coefficient view, and every degree-1 symbol's witness is closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NearZeroSample, NonFiniteCoefficients, NonInvertible, WitnessInconsistent
from .kernels import Congruence, Constant, DeBrangesRovnyak, Pullback, Szego
from .linalg import PsdVerdict, gram, hermitian_from_raw, psd_verdict
from .sampling import PROBE_POINTS, SampleSet, close_pairs
from .series import PowerSeries, Rational

COLL_EPS = 1e-7        # collision threshold for the injectivity probe
SEP_MIN = 1e-4         # minimum argument separation for a genuine collision
MARGIN_TOL = 1e-9      # slack allowed on modulus-inequality margins
REV_RESID_TOL = 1e-6   # round-trip residual above this counts as failed reversion
CONSISTENCY_TOL = 1e-8
_ORIGIN_EPS = 1e-6


class InjectivityStatus(Enum):
    INJ_EVIDENCE = "INJ_EVIDENCE"
    NOT_INJ = "NOT_INJ"
    INCONCLUSIVE = "INCONCLUSIVE"


class CriterionVerdict(Enum):
    PASS_NECESSARY = "PASS_NECESSARY"
    PASS_WITH_EXTENSION = "PASS_WITH_EXTENSION"
    FAIL = "FAIL"


@dataclass(frozen=True)
class CriterionReport:
    b0: complex
    injectivity: InjectivityStatus
    reversion_ok: bool
    reversion_residual: float
    schwarz_pick_margin: float
    extension_supplied: bool
    extension_margin: float | None
    overall: CriterionVerdict
    notes: tuple

    def to_json_dict(self):
        resid = float(self.reversion_residual)
        return {
            "b0": [self.b0.real, self.b0.imag],
            "injectivity": self.injectivity.value,
            "reversion_ok": self.reversion_ok,
            "reversion_residual": resid if np.isfinite(resid) else None,
            "schwarz_pick_margin": float(self.schwarz_pick_margin),
            "extension_supplied": self.extension_supplied,
            "extension_margin": (
                None if self.extension_margin is None else float(self.extension_margin)
            ),
            "overall": self.overall.value,
            "notes": list(self.notes),
        }


def _require_symbol(b: Rational):
    if b.degree == 0:
        raise ValueError("the symbol must be nonconstant")


def dbr_kernel(b: Rational) -> DeBrangesRovnyak:
    """Kernel node for a nonconstant symbol; the construction runs the
    sampled unit-ball probe and rejects symbols outside it."""
    _require_symbol(b)
    return DeBrangesRovnyak(b)


def injectivity_probe(b: Rational, pts) -> InjectivityStatus:
    """Look for pairs mapped to (numerically) the same value.

    NOT_INJ needs a genuine collision: values closer than COLL_EPS times
    the largest |b(z)| over the samples (so b and c b agree for any c != 0)
    while the arguments are separated by more than SEP_MIN. The candidate
    pairs come from a sort-and-sweep over the values (``close_pairs``). Any
    failed evaluation, or fewer than two points, is INCONCLUSIVE.
    """
    arr = np.asarray(list(pts), dtype=complex)
    if arr.size < 2:
        return InjectivityStatus.INCONCLUSIVE
    vals = np.asarray(b(arr), dtype=complex)
    if not np.all(np.isfinite(vals)):
        return InjectivityStatus.INCONCLUSIVE
    # floored at the least normal float, so values that are all 0 collide
    i, j = close_pairs(vals, max(COLL_EPS * np.abs(vals).max(), np.finfo(float).tiny))
    collided = np.abs(arr[i] - arr[j]) > SEP_MIN
    return InjectivityStatus.NOT_INJ if collided.any() else InjectivityStatus.INJ_EVIDENCE


def closed_form_witness(b: Rational) -> Rational | None:
    """The closed-form witness (z - b(0)) / h of a degree-1 map
    (a z + b) / (c z + d), a Rational like every map: (a - c z) / d, the
    denominator of its adjugate h over d. None for a map of any other degree."""
    (_, a), (d, c) = np.append(b.num, 0)[:2], np.append(b.den, 0)[:2]
    return Rational(np.array([a, -c]) / d, [1.0]) if b.degree == 1 else None


def reversion_residual(h: Rational | PowerSeries, b: Rational) -> float:
    """Max |h(b(z)) - z| over the PROBE_POINTS polar grid for an exact (Rational)
    h, a rounding-level number; for a Newton reversion h, the max
    per-coefficient deviation of h composed with ``b.series()`` from the
    identity."""
    if isinstance(h, Rational):
        return float(np.max(np.abs(h(b(PROBE_POINTS)) - PROBE_POINTS)))
    comp = h.compose(b.series())
    return float(np.max(np.abs(comp.coeffs - PowerSeries.identity(comp.order).coeffs)))


def schwarz_pick_margin(b: Rational, pts) -> float:
    """min over samples of |z| |1 - conj(b(0)) b(z)| - |b(z) - b(0)|.

    A nonnegative margin is the sampled form of the modulus inequality
    restricted to b's range; it is necessary but never sufficient. Samples
    within _ORIGIN_EPS of the origin are dropped: there the margin is 0 - 0,
    a separate, removable case. ValueError when no sample is left.
    """
    arr = np.asarray(list(pts), dtype=complex)
    arr = arr[np.abs(arr) >= _ORIGIN_EPS]
    if arr.size == 0:
        raise ValueError("the margin check needs a sample away from the origin")
    b0 = complex(b(0))
    vals = np.asarray(b(arr), dtype=complex)
    margins = np.abs(arr) * np.abs(1.0 - np.conj(b0) * vals) - np.abs(vals - b0)
    return float(margins.min())


def extension_margin(b: Rational, q: Rational, pts) -> float:
    """Check a witness q against b and measure its disk-wide margin.

    First the consistency probe: q(b(z)) z must reproduce b(z) - b(0) on the
    samples, which pins q down on b's range (WitnessInconsistent otherwise).
    Then the margin min over a dense disk grid of |1 - conj(b(0)) z| - |q(z)|;
    nonnegative means the witness satisfies the modulus inequality everywhere
    it was sampled.
    """
    arr = np.asarray(list(pts), dtype=complex)
    b0 = complex(b(0))
    vals = np.asarray(b(arr), dtype=complex)
    resid = np.max(np.abs(np.asarray(q(vals), complex) * arr - (vals - b0)))
    if not np.isfinite(resid) or resid > CONSISTENCY_TOL:
        raise WitnessInconsistent(
            f"witness disagrees with (z - b(0))/h on the sampled range "
            f"(residual {resid:.3e}, tolerance {CONSISTENCY_TOL:g})"
        )
    zs = np.concatenate(([0.0 + 0.0j], PROBE_POINTS))
    margins = np.abs(1.0 - np.conj(b0) * zs) - np.abs(np.asarray(q(zs), complex))
    return float(margins.min())


def decomposition_check(b: Rational, pts, tol: float | None = None) -> PsdVerdict:
    """Positivity of the rearranged kernel identity.

    With F = 1 - conj(b(0)) b, build K1 = F-congruence of the pulled-back
    Szego kernel, K2 = its identity-factor congruence, K0 = 1 - |b(0)|^2, and
    certify K2 + K0 - K1 on the samples. Pointwise this equals the normalized
    defect scaled by the positive constant K0, so the verdict must agree with
    the defect certification up to the INCONCLUSIVE band. Kept, with no CLI
    caller, as the second route the tests hold cnp_certify's verdicts to.
    """
    _require_symbol(b)
    b0 = complex(b(0))
    k1 = Congruence(Pullback(Szego(), b), lambda z: 1.0 - np.conj(b0) * b(z))
    k2 = Congruence(k1, Rational([0.0, 1.0], [1.0]))
    k0 = Constant(1.0 - abs(b0) ** 2)
    points = list(pts)
    m1 = gram(k1, points)
    m2 = gram(k2, points)
    m0 = gram(k0, points)
    return psd_verdict(hermitian_from_raw(m2.entries + m0.entries - m1.entries), tol)


def decomposition_identity_residual(b: Rational, f: PowerSeries, pts) -> float:
    """Residual of the exact algebraic identity behind the decomposition.

    For every test series f and sample z, with v = b(z) and c = f(b(0)) (1 -
    |b(0)|^2), the companion function g(v) = (f(v) - c / (1 - conj(b(0)) v))/z
    satisfies (1 - conj(b(0)) v) f(v) = z (1 - conj(b(0)) v) g(v) + c
    identically, so the returned max residual must be rounding-level no
    matter what b is. Requires an invertible linear coefficient (the identity
    is about the left inverse's argument) and samples away from the origin.
    Kept, with no CLI caller, as the tests' reference check of that identity.
    """
    _require_symbol(b)
    b.revert()   # precondition: the inverse exists
    arr = np.asarray(list(pts), dtype=complex)
    if np.any(np.abs(arr) < _ORIGIN_EPS):
        raise NearZeroSample(
            "samples within 1e-6 of the origin make the identity division degenerate"
        )
    b0 = complex(b(0))
    vals = np.asarray(b(arr), dtype=complex)
    fb = np.asarray(f(vals), dtype=complex)
    c = complex(f(b0)) * (1.0 - abs(b0) ** 2)
    one_m = 1.0 - np.conj(b0) * vals
    g = (fb - c / one_m) / arr
    resid = np.abs(one_m * fb - arr * one_m * g - c)
    return float(resid.max())


def cnp_criterion(
    b: Rational,
    witness: Rational | None = None,
    pts: SampleSet | None = None,
) -> CriterionReport:
    """Run the full criterion and produce a tri-state report.

    FAIL exactly when the injectivity probe collides, the reversion fails, or
    the sampled modulus-inequality margin is negative beyond tolerance.
    Otherwise PASS_WITH_EXTENSION when a consistent witness has nonnegative
    margin, else PASS_NECESSARY. Symbols outside the sampled unit ball raise
    NotSchurClass; an inconsistent witness raises WitnessInconsistent.
    """
    dbr_kernel(b)   # the nonconstant and Schur-class checks
    pts = SampleSet.default() if pts is None else pts
    notes = []
    inj = injectivity_probe(b, pts)
    if inj is InjectivityStatus.NOT_INJ:
        notes.append("injectivity probe found a collision; no left inverse can exist")
    meaningless = "the truncated inverse is numerically meaningless"
    try:
        resid = reversion_residual(b.revert(), b)
        note = f"reversion round-trip residual {resid:.3e} exceeds {REV_RESID_TOL:g}; {meaningless}"
    except NonInvertible:
        resid, note = float("inf"), "linear coefficient at 0 is numerically zero; reversion undefined"
    except NonFiniteCoefficients as exc:   # the series reversion, or its round trip, overflowed
        resid, note = float("inf"), f"reversion overflowed ({exc}); {meaningless}"
    rev_ok = bool(resid <= REV_RESID_TOL)
    if not rev_ok:
        notes.append(note)
    margin = schwarz_pick_margin(b, pts)
    ext_margin = None if witness is None else extension_margin(b, witness, pts)
    if inj is InjectivityStatus.NOT_INJ or not rev_ok or margin < -MARGIN_TOL:
        overall = CriterionVerdict.FAIL
    elif witness is not None and ext_margin >= -MARGIN_TOL:
        overall = CriterionVerdict.PASS_WITH_EXTENSION
    else:
        overall = CriterionVerdict.PASS_NECESSARY
        if witness is not None:
            notes.append(
                f"witness margin {ext_margin:.3e} is negative: the supplied "
                "extension violates the modulus inequality, so it proves nothing"
            )
        else:
            notes.append("necessary checks passed; no extension witness supplied")
    return CriterionReport(
        b0=complex(b(0)),
        injectivity=inj,
        reversion_ok=rev_ok,
        reversion_residual=resid,
        schwarz_pick_margin=margin,
        extension_supplied=witness is not None,
        extension_margin=ext_margin,
        overall=overall,
        notes=tuple(notes),
    )
