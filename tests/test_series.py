import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cnpcert import series
from cnpcert.errors import (
    CenterMismatch, CompositionCenter, DivisionOrder, NonFiniteCoefficients, NonInvertible,
)
from cnpcert.families import family_symbol
from cnpcert.sampling import PROBE_GRID, polar_grid
from cnpcert.series import PowerSeries, Rational, divide


def geometric(order, ratio=1.0):
    """Truncation of 1/(1 - ratio*z)."""
    return PowerSeries(ratio ** np.arange(order + 1), 0j)


# ---------------------------------------------------------------- evaluation

def test_eval_constant():
    s = PowerSeries([1.0, 0.0])
    assert s(0.7) == 1.0


def test_eval_identity():
    s = PowerSeries([0.0, 1.0])
    assert s(0.3 + 0.4j) == 0.3 + 0.4j


def test_eval_geometric_truncation():
    s = geometric(30)
    assert abs(s(0.5) - 2.0) < 1e-8


def test_eval_overflow_is_nonfinite_not_raised():
    s = PowerSeries([1e308, 1e308, 1e308])
    assert not np.isfinite(s(2.0))


def test_eval_broadcasts_over_arrays():
    s = geometric(30)
    zs = np.array([0.1, 0.2, 0.5])
    out = s(zs)
    assert out.shape == (3,)
    assert abs(out[2] - s(0.5)) == 0.0


# ---------------------------------------------------------------- arithmetic

def test_mul_cauchy_product():
    a = PowerSeries([1.0, 1.0, 0.0])
    b = PowerSeries([1.0, -1.0, 0.0])
    out = a * b
    assert np.allclose(out.coeffs, [1.0, 0.0, -1.0])


def test_mul_constants():
    out = PowerSeries([2.0 + 1j]) * PowerSeries([3.0 - 1j])
    assert out.coeffs[0] == (2 + 1j) * (3 - 1j)


def test_center_mismatch_raises():
    with pytest.raises(CenterMismatch):
        PowerSeries([1.0], center=0.0) * PowerSeries([1.0], center=0.5)


@given(
    st.integers(min_value=1000, max_value=9999),
    st.floats(min_value=-0.3, max_value=0.3),
    st.floats(min_value=-0.3, max_value=0.3),
)
def test_mul_eval_consistency_within_tail_bound(seed, zre, zim):
    rng = np.random.default_rng(seed)
    na, nb = rng.integers(2, 12), rng.integers(2, 12)
    ca = rng.uniform(-1, 1, na + 1) + 1j * rng.uniform(-1, 1, na + 1)
    cb = rng.uniform(-1, 1, nb + 1) + 1j * rng.uniform(-1, 1, nb + 1)
    center = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
    a, b = PowerSeries(ca, center), PowerSeries(cb, center)
    z = center + complex(zre, zim)
    full = np.convolve(ca, cb)
    n = min(na, nb)
    u = abs(z - center)
    tail = sum(abs(full[k]) * u ** k for k in range(n + 1, len(full)))
    lhs = (a * b)(z)
    rhs = a(z) * b(z)
    assert abs(lhs - rhs) <= tail + 1e-12


# ---------------------------------------------------------------- composition

def test_compose_shifted_square():
    outer = PowerSeries([1.0, 2.0, 1.0], center=1.0)  # z^2 about 1
    inner = PowerSeries([1.0, 1.0, 0.0], center=0.0)  # 1 + z, padded
    out = outer.compose(inner)
    assert out.center == 0.0
    assert np.allclose(out.coeffs, [1.0, 2.0, 1.0])


def test_compose_identity_outer_returns_inner():
    inner = PowerSeries([0.2, 0.5, -0.125], center=0.0)
    outer = PowerSeries.identity(order=2, center=0.2)
    out = outer.compose(inner)
    assert np.allclose(out.coeffs, inner.coeffs)


def test_compose_exp_matches_scalar_exp():
    fact = np.array([1.0 / math.factorial(k) for k in range(11)])
    exp_series = PowerSeries(fact, 0j)
    ident = PowerSeries.identity(order=10)
    comp = exp_series.compose(ident)
    assert abs(comp(0.1) - math.exp(0.1)) < 1e-10


def test_compose_center_precondition():
    outer = PowerSeries([1.0, 1.0], center=0.0)
    inner = PowerSeries([0.5, 1.0], center=0.0)  # constant term 0.5 != 0
    with pytest.raises(CompositionCenter):
        outer.compose(inner)


# ---------------------------------------------------------------- reversion

def test_revert_linear():
    h = PowerSeries([0.0, 2.0]).revert()
    assert np.allclose(h.coeffs, [0.0, 0.5])
    assert h.center == 0.0


def test_revert_quadratic_matches_catalan_head():
    b = PowerSeries([0, 1, 1, 0, 0, 0], 0j)
    h = b.revert()
    assert np.allclose(h.coeffs, [0, 1, -1, 2, -5, 14])


def test_revert_geometric_head():
    b = PowerSeries([0, 1, 1, 1, 1, 1, 1], 0j)  # z/(1-z) truncated
    h = b.revert()
    assert np.allclose(h.coeffs, [0, 1, -1, 1, -1, 1, -1])


def test_revert_requires_linear_term():
    with pytest.raises(NonInvertible):
        PowerSeries([0.0, 0.0, 1.0]).revert()


def test_revert_centers():
    # inverse of s = a0 + a1 (z - c) is centered at a0 and maps back to c
    s = PowerSeries([0.3 + 0.1j, 2.0], center=0.5)
    h = s.revert()
    assert h.center == 0.3 + 0.1j
    assert abs(h(s(0.7)) - 0.7) < 1e-14


def _closed_form_inverse(kind, n):
    """Coefficients about b(0) of the exact inverses, through order n."""
    c, k = np.zeros(n + 1, dtype=complex), np.arange(1, n + 1)
    if kind == "affine":            # (z + 0.5) / 2  ->  2w - 0.5
        c[1] = 2.0
    elif kind == "scaled":          # z / 1.5  ->  1.5w
        c[1] = 1.5
    elif kind == "moebius":         # 2z / (z + 4)  ->  4w / (2 - w)
        c[1:] = 4.0 / 2.0 ** k
    else:                           # (z - 0.3) / (1 - 0.3z)  ->  (w + 0.3) / (1 + 0.3w)
        c[1:] = (-0.3 / 0.91) ** (k - 1) / 0.91
    return c


_SYMBOLS = {
    "affine": lambda n: family_symbol("affine", {"A": 0.5, "B": 2.0}, n).series(),
    "scaled": lambda n: family_symbol("scaled_identity", {"R": 1.5}, n).series(),
    "moebius": lambda n: family_symbol("moebius_over", {"A": 2.0, "B": 4.0}, n).series(),
    "blaschke": lambda n: family_symbol("blaschke", {"zeros": [0.3]}, n).series(),
}


# measured: 0 for affine and scaled at every order, at most 2.3e-16 for the
# Blaschke zero and for moebius below order 256, where rounding in the
# compositions leaves 2.0e-14 on coefficients of size ~2^-200
@pytest.mark.parametrize("kind", sorted(_SYMBOLS))
@pytest.mark.parametrize("n", [1, 2, 3, 16, 37, 64, 100, 256])
def test_revert_matches_closed_form_inverse(kind, n):
    b = _SYMBOLS[kind](n)
    h = b.revert()
    tol = 1e-13 if (kind, n) == ("moebius", 256) else 1e-15
    assert h.order == n and h.center == b.coeffs[0]
    assert np.max(np.abs(h.coeffs - _closed_form_inverse(kind, n))) <= tol


@pytest.mark.parametrize("n,orders", [
    (1, []), (2, [2]), (3, [2, 3]), (37, [2, 3, 5, 10, 19, 37]),
    (64, [2, 4, 8, 16, 32, 64]), (100, [2, 4, 7, 13, 25, 50, 100]),
])
def test_revert_composes_once_per_step_on_orders_halved_back_from_n(monkeypatch, n, orders):
    seen, compose_zero = [], series._compose_zero

    def counted(outer, inner, order):
        seen.append(order)
        return compose_zero(outer, inner, order)

    monkeypatch.setattr(series, "_compose_zero", counted)
    family_symbol("blaschke", {"zeros": [0.3]}, n).series().revert()
    assert seen == orders


def test_revert_overflow_is_a_value_error_without_warnings():
    b = family_symbol("blaschke", {"zeros": [0.0, 0.5]}, 512).series()   # blaschke_deg2_0_05
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteCoefficients, match="must be finite"):
            b.revert()


def test_compose_overflow_is_a_value_error_without_warnings():
    outer, inner = PowerSeries([0.0, 0.0, 1e300]), PowerSeries([0.0, 1e10, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="must be finite"):
            outer.compose(inner)


@st.composite
def invertible_series(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    order = draw(st.integers(min_value=3, max_value=32))
    mod = draw(st.floats(min_value=0.2, max_value=2.0))
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[0] = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
    coeffs[1] = mod * np.exp(2j * np.pi * rng.uniform())
    for k in range(2, order + 1):
        r = rng.uniform() * 0.15 * mod * 0.4 ** (k - 2)
        coeffs[k] = r * np.exp(2j * np.pi * rng.uniform())
    center = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
    return PowerSeries(coeffs, center)


@given(invertible_series())
def test_revert_roundtrip_identity(s):
    comp = s.revert().compose(s)
    ident = np.zeros(comp.order + 1, dtype=complex)
    ident[0] = s.center
    ident[1] = 1.0
    assert np.max(np.abs(comp.coeffs - ident)) < 1e-9


# ---------------------------------------------------------------- division

def test_divide_cancels_common_zero():
    q = divide(PowerSeries([0.0, 1.0]), PowerSeries([0.0, 2.0]))
    assert np.allclose(q.coeffs, [0.5])


def test_divide_long_division_oracle():
    num = PowerSeries([0.0, 1.0, 0.0, 0.0])
    den = PowerSeries([0.0, 1.0, -1.0, 2.0])
    q = divide(num, den)
    # independent oracle: triangular solve of the Toeplitz system
    n = q.order
    dd = den.coeffs[1:]
    T = np.zeros((n + 1, n + 1), dtype=complex)
    for i in range(n + 1):
        T[i, : i + 1] = dd[: i + 1][::-1]
    expect = np.linalg.solve(T, num.coeffs[1 : n + 2])
    assert np.allclose(q.coeffs, expect)
    assert np.allclose(q.coeffs, [1.0, 1.0, -1.0])


def test_divide_pole_raises():
    with pytest.raises(DivisionOrder):
        divide(PowerSeries([1.0, 0.0]), PowerSeries([0.0, 1.0]))


def test_divide_zero_denominator_raises():
    with pytest.raises(DivisionOrder):
        divide(PowerSeries([1.0, 1.0]), PowerSeries([0.0, 0.0]))


@given(st.integers(min_value=0, max_value=10**6))
def test_divide_times_denominator_recovers_numerator(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    shift = int(rng.integers(0, 3))
    den = np.zeros(n + 1, dtype=complex)
    den[shift] = 0.5 + rng.uniform(0, 1)
    den[shift + 1 :] = 0.2 * (
        rng.uniform(-1, 1, n - shift) + 1j * rng.uniform(-1, 1, n - shift)
    )
    num = np.zeros(n + 1, dtype=complex)
    num[shift:] = rng.uniform(-1, 1, n + 1 - shift) + 1j * rng.uniform(-1, 1, n + 1 - shift)
    nump, denp = PowerSeries(num), PowerSeries(den)
    q = divide(nump, denp)
    back = q * denp  # truncates to q.order; must reproduce num up there
    expect = num[: back.order + 1]
    assert np.max(np.abs(back.coeffs - expect)) < 1e-9


# ---------------------------------------------------------------- validation

def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        PowerSeries([1.0, float("inf")])


# ---------------------------------------------------------------- rational maps

_phase = st.floats(0.0, 2 * math.pi).map(lambda t: complex(math.cos(t), math.sin(t)))
_zero = st.builds(lambda r, u: r * u, st.floats(0.0, 0.9), _phase)   # |z| <= 0.9


@st.composite
def degree_one_symbols(draw):
    """A named degree-1 family, its parameters drawn so that it maps the disk into itself."""
    a, big = draw(_zero), draw(st.floats(1.0, 3.0)) * draw(_phase)
    kind = draw(st.sampled_from(["affine", "moebius_over", "scaled_identity", "blaschke"]))
    if kind == "affine":             # |A| + 1 <= |B|
        return family_symbol("affine", {"A": a, "B": (abs(a) + 1.0) * big})
    if kind == "moebius_over":       # |A| + 1 <= |B|
        return family_symbol("moebius_over", {"A": big, "B": (abs(big) + 1.0) * draw(_phase)})
    if kind == "scaled_identity":
        return family_symbol("scaled_identity", {"R": big})
    return family_symbol("blaschke", {"zeros": [a]})


@seed(20210)
@settings(database=None)
@given(
    st.one_of(degree_one_symbols(), st.lists(_zero, min_size=1, max_size=3).map(
        lambda zeros: family_symbol("blaschke", {"zeros": zeros}))),
    st.lists(st.builds(lambda r, u: r * u, st.floats(0.0, 0.5), _phase), min_size=1, max_size=8),
)
def test_a_rational_map_agrees_with_horner_on_its_own_series(b, zs):
    zs = np.asarray(zs)
    assert np.max(np.abs(b(zs) - b.series()(zs))) <= 1e-13


@seed(20210)
@settings(database=None)
@given(degree_one_symbols())
def test_a_degree_one_inverse_round_trips_on_the_probe_grid(b):
    zs = polar_grid(*PROBE_GRID)
    h = b.revert()
    assert b.degree == h.degree == 1
    assert np.max(np.abs(h(b(zs)) - zs)) <= 1e-13


def test_a_rational_map_is_trimmed_and_knows_its_degree():
    b = Rational([0.5, 2.0, 0.0], [1.0, 0.0])
    assert (b.num == [0.5, 2.0]).all() and (b.den == [1.0]).all() and b.degree == 1
    assert Rational([0.0, 0.0], [2.0, 1.0]).degree == 0       # 0 / (z + 2)
    assert Rational([1.0, 0.5], [2.0, 1.0]).degree == 0       # (1 + z/2) / (2 + z)
    assert family_symbol("blaschke", {"zeros": [0.0, 0.5]}).degree == 2
    with pytest.raises(ValueError, match="den"):
        Rational([1.0], [0.0, 1.0])


def test_a_rational_map_reverts_exactly_only_by_an_adjugate_it_can_hold():
    h = family_symbol("blaschke", {"zeros": [0.3]}).revert()
    assert isinstance(h, Rational) and (h.num == [0.3, 1.0]).all() and (h.den == [1.0, 0.3]).all()
    # 1 / (2 + z) has degree 1, but its adjugate (2 w - 1) / (-w) has a pole at 0:
    # its series reverts, centered at b(0)
    b = Rational([1.0], [2.0, 1.0])
    h = b.revert()
    zs = polar_grid(4, 16, 0.2)
    assert isinstance(h, PowerSeries) and h.order == 64 and h.center == 0.5
    assert np.max(np.abs(h(b(zs)) - zs)) <= 1e-15
    b = family_symbol("blaschke", {"zeros": [0.0, 0.5]}, 16)
    assert isinstance(b.revert(), PowerSeries) and b.revert().order == 16
    with pytest.raises(NonInvertible):
        family_symbol("power", {"k": 2}).revert()

