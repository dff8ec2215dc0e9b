import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnpcert import cnp
from cnpcert.errors import (
    DomainMismatch,
    DomainViolation,
    NearSingular,
    NotSchurClass,
    RangeViolation,
    VanishingKernel,
)
from cnpcert.kernels import (
    Congruence,
    Constant,
    DeBrangesRovnyak,
    DruryArveson,
    NormalizedDefect,
    Pullback,
    Sum,
    Szego,
    WeightedHardy,
    row_blocks,
    unit_ball_probe,
)
from cnpcert.descriptors import kernel_from_json
from cnpcert.linalg import _kernel_matrix, gram, hermitian_from_raw
from cnpcert.sampling import SampleSet, ball_points
from cnpcert.series import PowerSeries


def half_map(order=8):
    return PowerSeries(np.array([0, 0.5] + [0] * (order - 1)), 0j)


disk_pts = st.complex_numbers(max_magnitude=0.85).filter(lambda z: abs(z) < 0.85)


# ------------------------------------------------------------------ builtins

def test_szego_values():
    k = Szego()
    assert k.evaluate(0, 0) == 1.0
    assert abs(k.evaluate(0.5, 0.5) - 4 / 3) < 1e-15


def test_szego_domain_violation():
    with pytest.raises(DomainViolation):
        gram(Szego(), [1.2, 0.0])


def test_szego_near_singular():
    z = 1.0 - 5e-14
    with pytest.raises(NearSingular):
        Szego().evaluate(z, z)


def test_dbr_identity_symbol_is_constant_one():
    k = DeBrangesRovnyak(PowerSeries([0.0, 1.0]))
    for z, w in [(0.2, 0.5), (0.3 + 0.4j, -0.1j), (0.0, 0.7)]:
        assert abs(k.evaluate(z, w) - 1.0) < 1e-14


def test_dbr_half_symbol_value():
    k = DeBrangesRovnyak(half_map())
    assert abs(k.evaluate(0.5, 0.5) - 1.25) < 1e-14


def test_dbr_rejects_non_unit_ball_symbol():
    with pytest.raises(NotSchurClass):
        DeBrangesRovnyak(PowerSeries([0.0, 1.2]))


def test_unit_ball_probe_values():
    assert unit_ball_probe(PowerSeries([0.0, 1.2])) > 1.1
    assert unit_ball_probe(half_map()) < 0.5


def test_drury_arveson_dim1_matches_szego():
    da, sz = DruryArveson(1), Szego()
    pts = [0.3 + 0.2j, -0.5j, 0.7]
    for z in pts:
        for w in pts:
            a, b = da.evaluate([z], [w]), sz.evaluate(z, w)
            # same formula; the array path may use FMA, keep it below one ulp
            assert abs(a - b) <= 1e-16 * (1 + abs(b))


def test_drury_arveson_domain():
    with pytest.raises(DomainViolation):
        gram(DruryArveson(2), [[0.8, 0.7], [0.0, 0.0]])


@pytest.mark.parametrize("dim", [2, 3])
def test_drury_arveson_matches_summed_inner_product_bitwise(dim):
    pts = np.asarray(ball_points(60, dim, seed=300 + dim), dtype=complex)
    z, w = pts[:, None, :], pts[None, :, :]
    ref = 1.0 / (1.0 - np.sum(z * np.conj(w), axis=-1))
    assert DruryArveson(dim).evaluate(z, w).tobytes() == ref.tobytes()


def test_weighted_hardy_all_ones_matches_szego():
    wh, sz = WeightedHardy(np.ones(256)), Szego()
    zs = np.array([0.5, -0.3 + 0.2j, 0.7j, 0.79, 0.8])
    dev = np.abs(
        wh.evaluate(zs[:, None], zs[None, :]) - sz.evaluate(zs[:, None], zs[None, :])
    )
    assert dev.max() < 1e-12


def test_weighted_hardy_validation_and_flag():
    with pytest.raises(ValueError):
        WeightedHardy([1.0, -1.0])
    with pytest.raises(ValueError, match="finite reciprocals"):   # 1 / 1e-320 overflows
        WeightedHardy([1.0, 1e-320])


def test_constant_validation():
    with pytest.raises(ValueError):
        Constant(-1.0)


# ---------------------------------------------------------------- combinators

def test_sum_with_zero_constant_is_identity():
    k = Sum(Szego(), Constant(0.0))
    assert k.evaluate(0.4, 0.2j) == Szego().evaluate(0.4, 0.2j)


def test_sum_szego_twice():
    assert Sum(Szego(), Szego()).evaluate(0, 0) == 2.0


def test_sum_domain_mismatch():
    with pytest.raises(DomainMismatch):
        Sum(Szego(), DruryArveson(2))


def test_a_node_takes_its_domain_from_its_children():
    # a constant fits any domain: a sum takes its other term's, a sum of two
    # constants the disk, a defect its inner kernel's
    pts = ball_points(3, 2, seed=1)
    assert Sum(Constant(1.0), DruryArveson(2)).points(pts).shape == (3, 2)
    assert Sum(Constant(1.0), Constant(2.0)).points([0.1, 0.2j]).shape == (2,)
    with pytest.raises(DomainMismatch):
        Sum(Constant(1.0), Constant(2.0)).points(pts)
    assert NormalizedDefect(DruryArveson(2), (0j, 0j)).points(pts).shape == (3, 2)
    for node in (Pullback, Congruence):
        with pytest.raises(DomainMismatch):
            node(DruryArveson(2), half_map())
        assert node(Constant(1.0), half_map()).points([0.1]).shape == (1,)


def test_pullback_by_identity_is_identity():
    k = Pullback(Szego(), PowerSeries([0.0, 1.0]))
    assert k.evaluate(0.3, 0.6) == Szego().evaluate(0.3, 0.6)


def test_pullback_by_half_map():
    k = Pullback(Szego(), half_map())
    assert abs(k.evaluate(0.5, 0.5) - 16 / 15) < 1e-14


def test_pullback_range_violation():
    # map z + 0.9 exits the disk at z = 0.3
    k = Pullback(Szego(), PowerSeries([0.9, 1.0]))
    with pytest.raises(RangeViolation):
        k.evaluate(0.3, 0.0)


def test_pullback_gram_commutes_exactly():
    phi = half_map()
    pts = SampleSet.default(seed=5)
    left = gram(Pullback(Szego(), phi), pts)
    mapped = [phi(p) for p in pts]
    right = gram(Szego(), mapped)
    assert np.array_equal(left.entries, right.entries)


def test_congruence_unit_factor_is_identity():
    k = Congruence(Szego(), PowerSeries([1.0, 0.0]))
    assert k.evaluate(0.3, 0.4) == Szego().evaluate(0.3, 0.4)


def test_congruence_constant_two_scales_by_four():
    k = Congruence(Szego(), PowerSeries([2.0]))
    assert abs(k.evaluate(0.3, 0.4) - 4 * Szego().evaluate(0.3, 0.4)) < 1e-14


def test_congruence_identity_factor_matches_explicit_formula():
    # z-factor congruence multiplies by z conj(w)
    inner = DeBrangesRovnyak(half_map())
    k = Congruence(inner, PowerSeries([0.0, 1.0]))
    z, w = 0.4 + 0.1j, -0.3 + 0.5j
    expect = z * np.conj(w) * inner.evaluate(z, w)
    assert abs(k.evaluate(z, w) - expect) < 1e-14


def test_decomposition_pieces_match_closed_formulas():
    # the two congruence/pull-back pieces of the defect rearrangement equal
    # their explicit quotient formulas pointwise
    b = half_map(32)
    a = complex(b.coeffs[0])  # = 0 for this symbol, keep the general formula
    f_coeffs = -np.conj(a) * np.asarray(b.coeffs)
    f_coeffs = f_coeffs.copy()
    f_coeffs[0] += 1.0
    f_series = PowerSeries(f_coeffs, 0j)
    k1 = Congruence(Pullback(Szego(), b), f_series)
    k2 = Congruence(k1, PowerSeries([0.0, 1.0]))
    for z, w in [(0.5, 0.5), (0.3 + 0.2j, -0.4j), (-0.6, 0.1 + 0.1j)]:
        fz, fw, bz, bw = f_series(z), f_series(w), b(z), b(w)
        expect1 = fz * np.conj(fw) / (1 - np.conj(bw) * bz)
        assert abs(k1.evaluate(z, w) - expect1) < 1e-13
        expect2 = z * np.conj(w) * expect1
        assert abs(k2.evaluate(z, w) - expect2) < 1e-13


# ----------------------------------------------------------------- defect

def test_defect_szego_is_product_kernel():
    d = NormalizedDefect(Szego(), 0j)
    for z, w in [(0.5, 0.5), (0.3 + 0.2j, -0.6j), (0.7, -0.7)]:
        assert abs(d.evaluate(z, w) - z * np.conj(w)) < 1e-14


def test_defect_rank_one_kernel_vanishes():
    # degree-1 inner symbol gives a rank-one kernel, defect identically 0
    from cnpcert.families import family_symbol

    k = DeBrangesRovnyak(family_symbol("blaschke", {"zeros": [0.3]}))
    d = NormalizedDefect(k, 0j)
    zs = np.array([0.5, -0.2 + 0.4j, 0.8j])
    vals = d.evaluate(zs[:, None], zs[None, :])
    assert np.max(np.abs(vals)) < 1e-12


@pytest.mark.parametrize("name, params", [
    ("blaschke", {"zeros": [0j, 0.5 + 0j]}),
    ("moebius_over", {"A": 1.5 + 0j, "B": 2.5 + 0j}),
])
def test_a_dbr_gram_does_not_read_its_symbols_order(name, params):
    # a named symbol is evaluated in closed form; its order sets only the
    # coefficient view that the criterion reverts
    from cnpcert.families import family_symbol

    pts = SampleSet.default(seed=5, grid=(6, 12)).points
    low, high = (gram(DeBrangesRovnyak(family_symbol(name, params, order)), pts)
                 for order in (2, 256))
    assert np.array_equal(low.entries, high.entries)
    assert (low.scale, low.cs_excess) == (high.scale, high.cs_excess)


def test_defect_squared_symbol_closed_form():
    b = PowerSeries([0.0, 0.0, 1.0])
    d = NormalizedDefect(DeBrangesRovnyak(b), 0j)
    for z, w in [(0.5, 0.5), (0.5, -0.5), (0.3j, 0.2)]:
        t = z * np.conj(w)
        assert abs(d.evaluate(z, w) - t / (1 + t)) < 1e-14


def test_defect_gram_of_kernel_gram_matches_evaluate():
    # J - diag(u) R diag(conj u), R = 1/K and u = K(z, base) / sqrt(K(base, base)),
    # against 1 - K(z, base) K(base, w) / (K(base, base) K(z, w)) evaluated
    k = DeBrangesRovnyak(half_map(16))
    d = NormalizedDefect(k, 0.2 - 0.1j)
    zs = np.asarray(SampleSet.default(seed=4, grid=(4, 8)).points)
    r = cnp.factor_reciprocal(gram(k, zs, True)).entries
    keep = np.ones(zs.size, dtype=bool)
    keep[5] = False   # a dropped sample: the defect on the principal submatrix
    for mask in (np.ones(zs.size, dtype=bool), keep):
        kept = zs[mask]
        u = np.zeros(zs.size, dtype=complex)
        u[mask] = d.base_column(kept)[:, 0] / np.sqrt(d.kbb)
        ref = hermitian_from_raw(d.evaluate(kept[:, None], kept[None, :]))
        m = cnp._defect_gram(u, r, mask)
        bound = 1e-14 * max(1.0, ref.scale)
        assert np.max(np.abs(m.entries - ref.entries)) <= bound
        assert abs(m.scale - ref.scale) <= bound


def test_defect_vanishing_kernel_raises():
    k = Congruence(Szego(), PowerSeries([-0.5, 1.0]))  # factor z - 1/2
    d = NormalizedDefect(k, 0j)
    with pytest.raises(VanishingKernel):
        d.evaluate(0.5, 0.3)


def test_defect_base_outside_domain():
    with pytest.raises(DomainViolation):
        NormalizedDefect(Szego(), 1.5)


@given(st.lists(disk_pts, min_size=2, max_size=6, unique=True))
def test_conjugate_symmetry(points):
    kernels = [
        Szego(),
        WeightedHardy(np.arange(1.0, 65.0)),
        DeBrangesRovnyak(half_map(16)),
        Sum(Szego(), Constant(0.75)),
        Congruence(Szego(), PowerSeries([0.3, 1.0])),
        NormalizedDefect(Szego(), 0.1 + 0.1j),
    ]
    for k in kernels:
        for z in points:
            for w in points:
                a = k.evaluate(z, w)
                b = k.evaluate(w, z)
                assert abs(a - np.conj(b)) <= 1e-12 * (1 + abs(a))


def test_drury_arveson_rejects_points_of_another_dimension():
    # a point of C^3 must not broadcast against DA(2) (it evaluated to 1.0526)
    with pytest.raises(DomainMismatch):
        gram(DruryArveson(2), ball_points(10, 3, seed=1))
    with pytest.raises(DomainMismatch):
        NormalizedDefect(DruryArveson(2), (0j, 0j, 0j))
    with pytest.raises(DomainMismatch):
        DruryArveson(2).contains(0.1)
    assert DruryArveson(2).contains(np.zeros((0, 3))).shape == (0,)


def test_points_have_one_shape_per_domain():
    assert Szego().points([0.1, 0.2j]).shape == (2,)
    assert Constant(1.0).points(np.array([0.1])).shape == (1,)
    assert DruryArveson(3).points(ball_points(4, 3)).shape == (4, 3)
    assert DruryArveson(2).points([]).shape == (0, 2)
    for kernel, pts in [(Szego(), [[0.1, 0.2]]), (DruryArveson(2), [0.5, 0.1]),
                        (DruryArveson(2), [(0.1, 0.2, 0.3)])]:
        with pytest.raises(DomainMismatch):
            kernel.points(pts)


def test_dbr_gram_evaluates_the_symbol_on_the_sample_row_once(monkeypatch):
    # each ~1 MiB row block evaluated b on all n samples again: 21 times at n = 1160
    kernel = DeBrangesRovnyak(PowerSeries([0.25, 0.5]))
    pts = kernel.points(SampleSet.default(grid=(24, 48)))
    n = len(pts)
    sizes, call = [], PowerSeries.__call__
    monkeypatch.setattr(PowerSeries, "__call__", lambda self, z: sizes.append(np.size(z)) or call(self, z))
    m = gram(kernel, pts)
    monkeypatch.undo()
    assert n == 1160 and sizes.count(n) == 1 and sum(sizes) == 2 * n
    whole = hermitian_from_raw(kernel.evaluate(pts[:, None], pts[None]))
    assert m.entries.tobytes() == whole.entries.tobytes()


# ------------------------------ Gram row blocks evaluated into the Gram's rows

HALF = {"series": {"coeffs": [[0.25, 0], [0.5, 0]]}}


@pytest.mark.parametrize("spec", [
    {"kind": "dbr", "b": {"family": "blaschke", "zeros": [[0, 0], [0.5, 0]]}},
    {"kind": "dbr", "b": HALF},
    {"kind": "drury_arveson", "dim": 2},
    {"kind": "drury_arveson", "dim": 3},
    {"kind": "szego"},
    {"kind": "weighted_hardy", "weights": [1, 2, 3, 4]},
    {"kind": "sum", "left": {"kind": "szego"}, "right": {"kind": "constant", "value": 0.5}},
    {"kind": "pullback", "inner": {"kind": "szego"}, "map": HALF},
    {"kind": "congruence", "inner": {"kind": "szego"}, "factor": HALF},
    {"kind": "constant", "value": 0.7},
], ids=lambda spec: spec["kind"])
def test_a_gram_written_into_its_rows_is_the_whole_evaluation_bit_for_bit(spec):
    # 296 samples make two row blocks: each is written straight into the Gram,
    # or, for a kernel with no in-place route, evaluated and copied there
    kernel = kernel_from_json(spec)
    pts = ball_points(296, kernel.dim, seed=7) if kernel.dim else SampleSet.default(seed=7, grid=(12, 24))
    points = kernel.points(pts)
    assert len(row_blocks(len(points), 16 * len(points))) == 2
    whole = np.broadcast_to(kernel.evaluate(points[:, None], points[None]), (296, 296))
    assert _kernel_matrix(kernel, points).tobytes() == whole.tobytes()


@pytest.mark.parametrize("kernel, z, w, kind", [
    (Szego(), 0.5, 0.3j, np.complex128),
    (DruryArveson(2), [0.5, 0.1j], [0.3j, -0.2], np.ndarray),
    (DeBrangesRovnyak(PowerSeries([0.25, 0.5])), 0.5, 0.3j, np.ndarray),
])
def test_a_scalar_evaluation_keeps_its_type_and_value(kernel, z, w, kind):
    # a numpy scalar for Szego, a 0-d array for the ball and dBR, as each
    # evaluated before it gained an in-place route
    v = kernel.evaluate(z, w)
    zz, ww = np.asarray(z, complex), np.asarray(w, complex)
    if kernel.dim:
        ref = 1.0 / (1.0 - np.sum(zz * np.conj(ww)))
    elif isinstance(kernel, Szego):
        ref = 1.0 / (1.0 - np.conj(ww) * zz)
    else:
        b = kernel.symbol
        ref = (1.0 - np.conj(b(ww)) * b(zz)) / (1.0 - np.conj(ww) * zz)
    assert type(v) is kind and np.shape(v) == () and complex(v) == complex(ref)


# ------------------------------------- the NearSingular guard and its O(n) bound

R_EDGE = 1.0 - 5e-14   # 1 - r^2 ~ 1e-13: below DOM_EPS
DBR_AFFINE = DeBrangesRovnyak(PowerSeries([0.25, 0.5]))


def edge_samples(kernel):
    """296 samples within r = 0.9, sample 250 moved to radius R_EDGE (in the
    second row block of the Gram)."""
    if kernel.dim:
        pts = list(ball_points(296, 2, seed=5))   # a memoized tuple: written to a copy
        pts[250] = R_EDGE * np.array([0.6j, -0.8])
    else:
        pts = np.array(SampleSet.default(seed=5, grid=(12, 24)).points)
        pts[250] = R_EDGE * np.exp(0.7j)
    return pts


@pytest.mark.parametrize("kernel, name", [
    (Szego(), "Szego"), (DBR_AFFINE, "de Branges-Rovnyak"), (DruryArveson(2), "Drury-Arveson"),
])
def test_a_sample_at_the_edge_is_near_singular_at_its_position(kernel, name):
    with pytest.raises(NearSingular, match=rf"^{name} denominator below 1e-12 in modulus "
                                           r"at positions \[\[250, 250\]\]$"):
        gram(kernel, edge_samples(kernel))


@pytest.mark.parametrize("kernel, pts, bases", [
    (Szego(), SampleSet.default(seed=5, grid=(12, 24)), [0j, 0.3 + 0j]),
    (DBR_AFFINE, SampleSet.default(seed=5, grid=(12, 24)), [0j, -0.2 + 0.4j]),
    (DruryArveson(2), ball_points(296, 2, seed=5), [(0j, 0j), (-0.2 + 0.1j, 0.4j)]),
])
def test_samples_within_r_0_9_run_no_denominator_guard_pass(monkeypatch, kernel, pts, bases):
    # 1 - max|z| max|w| (1 - ||z|| ||w|| on the ball) clears DOM_EPS, so no
    # denominator can be near singular and the n^2 modulus pass is skipped
    from cnpcert import kernels

    guarded, guard = [], kernels._guard_min_modulus
    monkeypatch.setattr(kernels, "_guard_min_modulus",
                        lambda values, eps, exc, what: guarded.append(what) or guard(values, eps, exc, what))
    reports = cnp.cnp_basepoint_sweep(kernel, bases, pts)
    assert all(r.verdict.status.value == "PSD" for r in reports)
    assert guarded and not [what for what in guarded if what.endswith("denominator")]


@pytest.mark.parametrize("kernel", [Szego(), DBR_AFFINE, DruryArveson(2)],
                         ids=["szego", "dbr", "drury_arveson"])
def test_only_the_row_block_holding_an_edge_sample_runs_a_denominator_pass(monkeypatch, kernel):
    # max||z|| is taken per row block, max||w|| once per Gram: rows 0-220 clear
    # the bound, the 75-row block holding sample 250 runs the pass, and
    # _kernel_matrix then evaluates the whole matrix to name the position
    from cnpcert import kernels

    shapes, guard = [], kernels._guard_min_modulus
    def spy(values, eps, exc, what):
        if what.endswith("denominator"):
            shapes.append(np.shape(values))
        return guard(values, eps, exc, what)
    monkeypatch.setattr(kernels, "_guard_min_modulus", spy)
    with pytest.raises(NearSingular, match=r"at positions \[\[250, 250\]\]$"):
        gram(kernel, edge_samples(kernel))
    assert shapes == [(75, 296), (296, 296)]
