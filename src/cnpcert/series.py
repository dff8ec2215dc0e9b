"""Truncated complex power series about an arbitrary center.

A series is a dense coefficient vector: ``coeffs[n]`` multiplies
``(z - center)**n`` for n from 0 up to the truncation order (inclusive).
Coefficients are numpy complex128, every operation is pure and returns a new
series, and nothing here tracks radii of convergence; callers are expected to
evaluate well inside the region where their coefficients decay.

Truncation rules are fixed: multiplication, the one arithmetic operation,
requires equal centers and truncates to the shorter operand; composition
truncates to the shorter of the two orders; reversion and division keep the
input order (division loses the cancelled leading order). Reversion is
Newton iteration on the shifted coefficient vector t: from g correct through
order m', one composition gives g - (t(g) - w) g', correct through 2m' as
g' = 1/t'(g) through m' - 1. The step orders ceil(n / 2^k) end at the order
n (100: 2, 4, 7, 13, 25, 50, 100). Overflow there is NonFiniteCoefficients,
a ValueError, not a RuntimeWarning.
Every map a symbol, pull-back or congruence names is a ``Rational``
num(z) / den(z), evaluated exactly; its ``series()`` is the truncated
coefficient view that Newton reverts, and a degree-1 map inverts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CenterMismatch, CompositionCenter, DivisionOrder, NonFiniteCoefficients, NonInvertible

DEFAULT_ORDER = 64   # truncation order of a coefficient view when none is given
REV_EPS = 1e-10   # linear coefficients at or below this are not invertible
DIV_EPS = 1e-12   # modulus threshold for leading-order detection in division
_CENTER_TOL = 1e-12


def _coeff_array(coeffs) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficients must form a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteCoefficients("series coefficients must be finite")
    return arr


def _padded(c: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of c, padded with zeros."""
    out = np.zeros(n, dtype=complex)
    out[: min(n, c.size)] = c[:n]
    return out


def _horner(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] u^k by Horner's rule; overflow leaves it non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        acc = np.full(u.shape, coeffs[0]) if coeffs.size == 1 else coeffs[-1] * u + coeffs[-2]
        for c in coeffs[-3::-1]:
            acc = acc * u + c
    return acc


def _mul_trunc(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Cauchy product of two coefficient vectors, truncated at ``order``;
    together they hold at least order + 2 coefficients."""
    return np.convolve(a[: order + 1], b[: order + 1])[: order + 1]


def _reciprocal(u: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of 1/u through ``order``; u[0] must be nonzero and u
    hold at least order + 1 coefficients."""
    uu = u[: order + 1]
    r = np.zeros(order + 1, dtype=complex)
    r[0] = 1.0 / uu[0]
    for k in range(1, order + 1):
        r[k] = -np.dot(uu[1 : k + 1], r[k - 1 :: -1]) / uu[0]
    return r


def _compose_zero(outer: np.ndarray, inner: np.ndarray, order: int) -> np.ndarray:
    """Horner composition outer(inner) through ``order``; inner[0] must be 0."""
    oc = np.zeros(order + 1, dtype=complex)
    oc[: outer.size] = outer[: order + 1]
    acc = np.zeros(order + 1, dtype=complex)
    acc[0] = oc[order]
    for k in range(order - 1, -1, -1):
        acc = np.convolve(acc, inner)[: order + 1]
        acc[0] += oc[k]
    return acc


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Immutable truncated power series about ``center``."""

    coeffs: np.ndarray
    center: complex = 0j

    def __post_init__(self):
        arr = _coeff_array(self.coeffs)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        c = complex(self.center)
        if not (np.isfinite(c.real) and np.isfinite(c.imag)):
            raise ValueError("series center must be finite")
        object.__setattr__(self, "center", c)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def identity(cls, order: int = 1, center: complex = 0j) -> "PowerSeries":
        """The series of f(z) = z about ``center``."""
        coeffs = np.zeros(order + 1, dtype=complex)
        coeffs[0] = center
        if order >= 1:
            coeffs[1] = 1.0
        return cls(coeffs, center)

    # -- basic protocol --------------------------------------------------------

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __repr__(self):
        return f"PowerSeries(order={self.order}, center={self.center!r})"

    def __call__(self, z):
        """Horner evaluation; broadcasts over numpy arrays.

        Never raises on overflow, the result is simply non-finite.
        """
        acc = _horner(self.coeffs, np.asarray(z, dtype=complex) - self.center)
        return complex(acc) if acc.ndim == 0 else acc

    # -- arithmetic ------------------------------------------------------------

    def _check_center(self, other: "PowerSeries"):
        if abs(other.center - self.center) > _CENTER_TOL * (1.0 + abs(self.center)):
            raise CenterMismatch(
                f"series centers differ: {self.center!r} vs {other.center!r}"
            )

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_center(other)
        n = min(self.order, other.order)
        return PowerSeries(_mul_trunc(self.coeffs, other.coeffs, n), self.center)

    # -- composition and inversion ----------------------------------------------

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Return self(inner(z)) as a series about ``inner.center``.

        inner's constant term must equal this series' center, so the
        composition is valid as a formal-series operation. The result is
        truncated to the shorter of the two orders.
        """
        if abs(inner.coeffs[0] - self.center) > _CENTER_TOL * (1.0 + abs(self.center)):
            raise CompositionCenter(
                f"inner constant term {inner.coeffs[0]!r} does not match "
                f"outer center {self.center!r}"
            )
        n = min(self.order, inner.order)
        t = inner.coeffs[: n + 1].astype(complex)
        t[0] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):   # PowerSeries rejects non-finite
            return PowerSeries(_compose_zero(self.coeffs, t, n), inner.center)

    def revert(self) -> "PowerSeries":
        """Compositional inverse: a series g centered at coeffs[0] with
        g(self(z)) = z through the truncation order.

        Requires a linear coefficient of modulus above REV_EPS; a smaller
        one means the map is not invertible near its center. The Newton
        steps are described in the module docstring.
        """
        if self.order < 1 or abs(self.coeffs[1]) <= REV_EPS:
            raise NonInvertible(
                "linear coefficient too small for functional inversion "
                f"(threshold {REV_EPS:g})"
            )
        n, t = self.order, self.coeffs.copy()
        t[0] = 0.0
        g = np.zeros(n + 1, dtype=complex)
        g[1] = 1.0 / t[1]
        with np.errstate(over="ignore", invalid="ignore"):   # PowerSeries rejects non-finite
            for m in [-(-n // 2**k) for k in reversed(range((n - 1).bit_length()))]:
                gg = g[: m + 1]   # correct through order ceil(m / 2)
                tg = _compose_zero(t, gg, m)
                tg[1] -= 1.0  # residual of t(g(w)) - w
                g[: m + 1] = gg - _mul_trunc(tg, np.arange(1, m + 1) * gg[1:], m)
        g[0] = self.center
        return PowerSeries(g, center=self.coeffs[0])


@dataclass(frozen=True, eq=False)
class Rational:
    """Immutable rational map num(z) / den(z): coprime polynomials in ascending
    powers, trailing zeros trimmed, den(0) != 0. ``order`` >= 1 is the
    truncation order of its coefficient view ``series()``, which needs its
    linear term to be reverted."""

    num: np.ndarray
    den: np.ndarray
    order: int = DEFAULT_ORDER
    degree: int = field(init=False)   # max(deg num, deg den); 0 when num / den is constant

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"truncation order must be >= 1, got {self.order}")
        for name in ("num", "den"):
            arr = _coeff_array(getattr(self, name))
            nz = np.flatnonzero(arr)
            arr = arr[: nz[-1] + 1 if nz.size else 1]
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.den[0] == 0:
            raise ValueError("a rational map needs den(0) != 0")
        n = max(self.num.size, self.den.size)
        cross = _padded(self.num, n) * self.den[0] - _padded(self.den, n) * self.num[0]
        constant = np.max(np.abs(cross)) <= 1e-15 * abs(self.den[0]) ** 2
        object.__setattr__(self, "degree", 0 if constant else n - 1)

    def __call__(self, z):
        """num(z) / den(z); broadcasts, and never raises on overflow or a pole."""
        u = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = _horner(self.num, u) / _horner(self.den, u)
        return complex(out) if out.ndim == 0 else out

    def series(self) -> PowerSeries:
        """The map's power series at 0 through its ``order``: num times the
        reciprocal series of den."""
        n = self.order
        return PowerSeries(_padded(self.num, n + 1)) * PowerSeries(_reciprocal(_padded(self.den, n + 1), n))

    def revert(self) -> "Rational | PowerSeries":
        """h with h(self(z)) = z near 0. A degree-1 map (a z + b) / (c z + d)
        with a != 0 inverts exactly, by its adjugate (d w - b) / (a - c w);
        any other map by the Newton reversion of ``series()``, centered at
        self(0), which raises NonInvertible when self'(0) is numerically zero."""
        (b, a), (d, c) = _padded(self.num, 2), _padded(self.den, 2)
        if self.degree == 1 and a != 0:
            return Rational([-b, d], [a, -c], self.order)
        return self.series().revert()


def divide(num: PowerSeries, den: PowerSeries) -> PowerSeries:
    """Formal quotient num/den with their common leading zero cancelled.

    The leading order of a series is the index of its first coefficient of
    modulus above DIV_EPS. The denominator's leading order may not exceed
    the numerator's (the quotient would have a pole). The result is truncated
    to min(order(num), order(den)) minus the cancelled order. Kept, with no
    CLI caller, as the reference the closed-form witnesses are tested against.
    """
    num._check_center(den)
    dmag = np.abs(den.coeffs)
    nz = np.flatnonzero(dmag > DIV_EPS)
    if nz.size == 0:
        raise DivisionOrder("denominator vanishes to its truncation order")
    ord_d = int(nz[0])
    nmag = np.abs(num.coeffs)
    nnz = np.flatnonzero(nmag > DIV_EPS)
    ord_n = int(nnz[0]) if nnz.size else None
    if ord_n is not None and ord_n < ord_d:
        raise DivisionOrder(
            f"quotient has a pole: denominator leading order {ord_d} exceeds "
            f"numerator leading order {ord_n}"
        )
    n_res = min(num.order, den.order) - ord_d
    if n_res < 0:
        raise DivisionOrder("denominator leading order exceeds the truncation order")
    q = _mul_trunc(num.coeffs[ord_d:], _reciprocal(den.coeffs[ord_d:], n_res), n_res)
    return PowerSeries(q, num.center)
