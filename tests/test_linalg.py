import json
import math
import mmap
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnpcert import cnp, linalg
from cnpcert.descriptors import kernel_from_json
from cnpcert.errors import DomainMismatch, LengthMismatch
from cnpcert.kernels import Congruence, Constant, DruryArveson, NormalizedDefect, Szego, row_blocks
from cnpcert.linalg import (
    RITZ_BLOCK,
    RITZ_MAX_FRAC,
    RITZ_MIN_N,
    RITZ_PROBE,
    RITZ_RESIDUAL,
    RITZ_SEED,
    HermitianMatrix,
    Verdict,
    gram,
    hermitian_from_raw,
    hermitian_in_place,
    pick_matrix,
    psd_verdict,
    _ritz_residual,
    range_steps,
    smallest_eigenvalue,
)
from cnpcert.sampling import SampleSet, ball_points
from cnpcert.series import PowerSeries


def herm(entries):
    return hermitian_from_raw(np.asarray(entries, dtype=complex))


# ------------------------------------------------------------------- gram

@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="maps only where glibc allocates")
def test_a_large_array_after_the_first_is_a_mapping_of_its_own(monkeypatch):
    # the first is numpy's, so glibc's thresholds rise as it is freed; small ones stay numpy's
    monkeypatch.setattr(linalg, "_mapped", False)
    n = math.isqrt(linalg.MAPPED_MIN_BYTES // 16)
    first, small, later = linalg.empty_matrix(n), linalg.empty_matrix(n - 1), linalg.empty_matrix(n)
    assert first.flags.owndata and small.flags.owndata
    assert isinstance(later.base.base.obj, mmap.mmap)
    assert later.shape == (n, n) and later.dtype == complex and later.flags.writeable
    later[...] = 1j
    assert np.all(later == 1j)


def mapping(a):
    """The memory mapping under an array from empty_matrix."""
    return a.base.base.obj   # the 2-D view of a flat np.frombuffer array, whose base views the mapping


@pytest.fixture
def mapped_n(monkeypatch):
    """An n whose n x n arrays empty_matrix maps, with no array served yet and no spare."""
    if not hasattr(mmap, "MADV_HUGEPAGE"):
        pytest.skip("maps only where glibc allocates")
    monkeypatch.setattr(linalg, "_mapped", True)
    monkeypatch.setattr(linalg, "_spare", {})
    return math.isqrt(linalg.MAPPED_MIN_BYTES // 16)


def test_a_released_mapping_is_handed_out_again(mapped_n):
    a = linalg.empty_matrix(mapped_n)
    m = mapping(a)
    del a
    b = linalg.empty_matrix(mapped_n)
    assert mapping(b) is m and linalg._spare.get(0) is None
    assert b.shape == (mapped_n, mapped_n) and b.dtype == complex and b.flags.writeable


@pytest.mark.parametrize("view", [
    lambda a: a[3:5], lambda a: a.T, lambda a: a.real, lambda a: a.diagonal(), lambda a: a[2],
], ids=["rows", "transpose", "real", "diagonal", "row"])
def test_a_mapping_is_not_handed_out_while_a_view_of_it_lives(mapped_n, view):
    a = linalg.empty_matrix(mapped_n)
    a[...] = 1 + 2j
    m, v = mapping(a), view(a)
    del a
    b = linalg.empty_matrix(mapped_n)
    b[...] = 0.0
    assert mapping(b) is not m and np.all(v == (1.0 if v.dtype == float else 1 + 2j))
    del v
    assert linalg._spare.get(0) is m


def test_a_request_of_another_size_unmaps_the_spare_first(mapped_n):
    spare = mapping(linalg.empty_matrix(mapped_n))   # released at once
    assert linalg._spare.get(0) is spare and not spare.closed
    other = linalg.empty_matrix(mapped_n + 1)
    assert spare.closed and linalg._spare.get(0) is None
    # of two released mappings only the last stays: the other is unmapped
    first = weakref.ref(mapping(linalg.empty_matrix(mapped_n)))
    assert first() is linalg._spare.get(0)
    kept = mapping(other)
    del other
    assert first() is None and linalg._spare.get(0) is kept


def test_gram_szego_single_point():
    m = gram(Szego(), [0.0])
    assert np.allclose(m.entries, [[1.0]])


def test_gram_szego_two_points():
    m = gram(Szego(), [0.0, 0.5])
    assert np.allclose(m.entries, [[1.0, 1.0], [1.0, 4 / 3]])


def test_gram_constant_is_rank_one_psd():
    m = gram(Constant(0.7), [0.1, 0.2, 0.3j, -0.5])
    assert np.allclose(m.entries, 0.7 * np.ones((4, 4)))
    v = psd_verdict(m)
    assert v.status is Verdict.PSD
    assert np.linalg.matrix_rank(m.entries) == 1


def test_gram_asymmetry_metadata():
    m = gram(Szego(), SampleSet.default())
    assert m.asymmetry < 1e-14
    assert not m.asym_warning
    assert m.scale > 1.0


# ----------------------------------------------------------------- min eig

def test_min_eig_closed_forms():
    assert abs(smallest_eigenvalue(herm([[0.2, -1 / 3], [-1 / 3, 0.2]])) - (0.2 - 1 / 3)) < 1e-14
    assert smallest_eigenvalue(herm([[3.0, 0.0], [0.0, -2.0]])) == -2.0
    assert abs(smallest_eigenvalue(herm([[1.0, 1.0], [1.0, 1.0]]))) < 1e-15


@given(st.integers(min_value=0, max_value=10**6))
def test_min_eig_matches_planted_spectrum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 65))
    diag = rng.uniform(-3.0, 3.0, n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    m = hermitian_from_raw(q @ np.diag(diag) @ q.conj().T)
    assert abs(smallest_eigenvalue(m) - diag.min()) < 1e-10 * m.scale


# ----------------------------------------------------------------- verdicts

def test_psd_verdict_bands():
    assert psd_verdict(herm(np.eye(3))).status is Verdict.PSD
    assert psd_verdict(herm(np.eye(3))).min_eig == 1.0
    v = psd_verdict(herm([[0.2, -1 / 3], [-1 / 3, 0.2]]))
    assert v.status is Verdict.NOT_PSD
    mid = psd_verdict(herm([[1.0, 0.0], [0.0, -5e-6]]), tol=1e-6)
    assert mid.status is Verdict.INCONCLUSIVE
    bad = psd_verdict(herm([[1.0, 0.0], [0.0, -5e-5]]), tol=1e-6)
    assert bad.status is Verdict.NOT_PSD
    with pytest.raises(ValueError):
        psd_verdict(herm(np.eye(2)), tol=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_is_inconclusive_without_warning(bad):
    raw = np.eye(4, dtype=complex)
    raw[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = hermitian_from_raw(raw)
        v = psd_verdict(m)
    assert not m.finite
    assert v.status is Verdict.INCONCLUSIVE
    assert np.isnan(v.min_eig)
    assert v.tol == 1e-9
    json.dumps(v.to_json_dict(), allow_nan=False)


@pytest.mark.parametrize("pos, bad", [((140, 100), np.nan), ((100, 100), np.inf)])
def test_non_finite_entry_off_the_upper_triangle_reaches_scale(pos, bad):
    # a NaN only below the diagonal, an inf only on it, in a later row chunk
    raw = np.eye(150, dtype=complex)
    raw[pos] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = hermitian_from_raw(raw)
        v = psd_verdict(m)
    assert not m.finite
    assert v.status is Verdict.INCONCLUSIVE


@pytest.mark.parametrize("order", ["C", "F"])
def test_hermitian_from_raw_matches_full_array_formulas(order):
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((150, 150)) + 1j * rng.standard_normal((150, 150))
    raw = np.asarray(raw, order=order)
    m = hermitian_from_raw(raw)
    ref = 0.5 * (raw + raw.conj().T)
    assert m.entries.tobytes() == np.ascontiguousarray(ref).tobytes()
    assert m.scale == np.max(np.abs(ref))
    assert m.asymmetry == np.max(np.abs(raw - raw.conj().T))


def test_cs_excess_is_the_largest_relative_2x2_minor_across_row_blocks():
    # n = 608 spans several ~1 MiB row blocks; one pair, in a later block,
    # is pushed 1 % past Cauchy-Schwarz
    raw = gram(Szego(), SampleSet.default(grid=(20, 30))).entries.copy()
    d = raw.diagonal().real
    raw[300, 450] *= 1.01 * math.sqrt(d[300] * d[450]) / abs(raw[300, 450])
    raw[450, 300] = raw[300, 450].conj()
    ref = np.abs(raw) ** 2 / np.outer(d, d) - 1.0
    np.fill_diagonal(ref, -1.0)
    e, i, j = hermitian_from_raw(raw).cs_excess
    assert (i, j) == (300, 450)
    assert e == pytest.approx(ref.max(), rel=1e-13) and e == pytest.approx(1.01 ** 2 - 1, rel=1e-12)
    e, i, j = gram(Szego(), SampleSet.default(grid=(20, 30))).cs_excess
    assert e < 0 and i < j
    assert hermitian_from_raw(np.eye(1)).cs_excess == (-1.0, 0, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_cauchy_schwarz_excess_past_the_float_range_is_inf():
    # |m_01| / sqrt(m_00 m_11) = 1e300: its square overflows, and used to
    # raise OverflowError
    assert hermitian_from_raw([[1e-300, 1], [1, 1e-300]]).cs_excess == (math.inf, 0, 1)


def test_asym_warning_measures_asymmetry_against_max_1_scale():
    # the defect of a degree-one Blaschke symbol vanishes identically but keeps
    # the rounding of its O(1) terms: warned "asymmetry 2.338e-16 exceeds
    # tolerance at scale 1.443e-15"
    zeros = np.zeros((2, 2), dtype=complex)
    assert not HermitianMatrix(zeros, 1.443e-15, 2.338e-16).asym_warning
    assert HermitianMatrix(zeros, 1.443e-15, 2e-10).asym_warning
    assert not HermitianMatrix(zeros, 1e3, 2e-8).asym_warning
    assert HermitianMatrix(zeros, 1e3, 2e-7).asym_warning


def test_psd_verdict_rejects_non_finite_tolerance():
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            psd_verdict(herm(np.eye(2)), tol=tol)


# ------------------------------------------------- low-rank Rayleigh-Ritz

def planted(n, diag, seed):
    """Hermitian n x n matrix with the given nonzero eigenvalues (rank
    len(diag)) and zeros elsewhere."""
    rng = np.random.default_rng(seed)
    r = len(diag)
    v, _ = np.linalg.qr(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
    return hermitian_from_raw((v * np.asarray(diag)) @ v.conj().T)


def ritz(m):
    """The last step of the range finder on ``m`` aimed at RITZ_RESIDUAL * max(1, scale),
    and that target."""
    target = RITZ_RESIDUAL * max(1.0, m.scale)
    return list(range_steps(m.entries, target, float(np.linalg.norm(m.entries))))[-1], target


def test_ritz_planted_rank_12_with_negative_eigenvalues():
    diag = [-2.5, -1.0, -0.3, 0.1, 0.4, 0.7, 1.0, 1.3, 1.6, 2.0, 2.4, 3.0]
    m = planted(600, diag, seed=1)
    me = smallest_eigenvalue(m)
    (q, b, resid), target = ritz(m)
    assert resid <= target and q.shape[1] <= m.n // RITZ_MAX_FRAC
    assert abs(min(float(np.linalg.eigvalsh(b)[0]), 0.0) - me) <= resid   # Weyl
    assert abs(me - (-2.5)) < 1e-10 * m.scale
    assert psd_verdict(m).status is Verdict.NOT_PSD


def test_smallest_eigenvalue_is_dense_eigvalsh_on_a_low_rank_matrix():
    # a randomized Rayleigh-Ritz pass answered here, off eigvalsh in the last bits
    m = planted(600, [-2.5, -1.0, -0.3, 0.1, 0.4, 0.7, 1.0, 1.3, 1.6, 2.0, 2.4, 3.0], seed=1)
    assert smallest_eigenvalue(m) == float(np.linalg.eigvalsh(m.entries)[0])


def test_ritz_planted_rank_2_psd():
    m = planted(1160, [1.5, 0.2], seed=2)
    v = psd_verdict(m)
    assert v.status is Verdict.PSD
    assert abs(v.min_eig) <= 1e-10 * max(1.0, m.scale)
    (q, b, resid), target = ritz(m)
    assert resid <= target and q.shape[1] <= m.n // RITZ_MAX_FRAC


def test_ritz_full_rank_falls_back_to_eigvalsh():
    n = 300
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    m = hermitian_from_raw(q @ np.diag(rng.uniform(-3.0, 3.0, n)) @ q.conj().T)
    assert m.n >= RITZ_MIN_N
    (q, b, resid), target = ritz(m)
    assert not resid <= target and q.shape[1] <= m.n // RITZ_MAX_FRAC
    assert smallest_eigenvalue(m) == float(np.linalg.eigvalsh(m.entries)[0])


def test_ritz_overflow_falls_back_without_warning():
    m = planted(300, [1e300, -1e300], seed=5)
    assert m.finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        me = smallest_eigenvalue(m)
    assert me == float(np.linalg.eigvalsh(m.entries)[0])
    assert psd_verdict(m).status is Verdict.NOT_PSD


def test_ritz_is_deterministic():
    m = planted(600, [-0.7, 0.5, 1.0], seed=4)
    assert smallest_eigenvalue(m) == smallest_eigenvalue(m)


@pytest.mark.parametrize("desc, base", [
    ({"kind": "dbr", "b": {"family": "affine", "A": [0.5, 0], "B": [2, 0]}}, 0.3 + 0j),
    ({"kind": "dbr", "b": {"family": "blaschke", "zeros": [[0, 0], [0.5, 0]]}}, 0.3 + 0j),
    ({"kind": "drury_arveson", "dim": 2}, (0.3 + 0j, 0j)),
])
def test_ritz_matches_eigvalsh_on_defect_matrices(desc, base):
    kernel = kernel_from_json(desc)
    if not kernel.dim:
        pts = SampleSet.default(grid=(20, 40)).points
    else:
        pts = ball_points(808, 2)
    m = gram(NormalizedDefect(kernel, base), [p for p in pts if p != base])
    (q, b, resid), target = ritz(m)
    assert resid <= target and m.n >= 800
    again, _ = ritz(m)   # fixed seed: bitwise the same basis
    assert np.array_equal(again[0], q) and np.array_equal(again[1], b) and again[2] == resid
    me = min(float(np.linalg.eigvalsh(b)[0]), 0.0)
    ref = float(np.linalg.eigvalsh(m.entries)[0])
    assert smallest_eigenvalue(m) == ref
    assert abs(me - ref) <= resid <= 1e-10 * max(1.0, m.scale)
    tol = 1e-9 * max(1.0, m.scale)
    ref_status = (Verdict.PSD if ref >= -tol
                  else Verdict.NOT_PSD if ref < -10 * tol else Verdict.INCONCLUSIVE)
    assert psd_verdict(m).status is ref_status


def one_block(a):
    """q, b and the residual of a single RITZ_BLOCK-column block drawn from
    RITZ_SEED: the range finder's first step, as one product a @ omega."""
    n = a.shape[0]
    rng = np.random.default_rng(RITZ_SEED)
    omega = rng.standard_normal((n, RITZ_BLOCK)) + 1j * rng.standard_normal((n, RITZ_BLOCK))
    q = np.linalg.qr(a @ omega)[0]
    b = q.conj().T @ (a @ q)
    b = 0.5 * (b + b.conj().T)
    return q, b, _ritz_residual(a, q, b)


def test_a_probe_that_misses_a_tail_falls_back_to_the_full_block_bitwise():
    # rank 4, plus a rank-2 tail of Frobenius norm 2.1 target that the probe's
    # columns of omega cannot see: the probe's sketch has rank 4, so it passes
    # the rank test, its residual misses the target, and the full block, which
    # sees the tail, is the single product's bit for bit
    n, target = 600, 1e-9
    m = planted(n, [-1.0, 0.5, 1.0, 2.0], seed=6)
    rng = np.random.default_rng(RITZ_SEED)
    probe = (rng.standard_normal((n, RITZ_BLOCK)) + 1j * rng.standard_normal((n, RITZ_BLOCK)))[:, :RITZ_PROBE]
    p = np.linalg.qr(probe)[0]
    w = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    w = np.linalg.qr(w - p @ (p.conj().T @ w))[0]
    a = hermitian_from_raw(m.entries + (w * 1.5 * target) @ w.conj().T).entries
    steps = list(range_steps(a, target, float(np.linalg.norm(a))))
    assert [(s[0].shape[1], s[2] is None) for s in steps] == [(RITZ_PROBE, True), (RITZ_BLOCK, True),
                                                              (RITZ_BLOCK, False)]
    assert _ritz_residual(a, *steps[0][:2]) > target
    q, b, resid = one_block(a)
    for step in steps[1:]:
        assert np.array_equal(step[0], q) and np.array_equal(step[1], b)
    assert steps[-1][2] == resid <= target


@pytest.mark.parametrize("spec, grid, dim, stops", [
    ({"kind": "dbr", "b": {"family": "affine", "A": [0.5, 0], "B": [2, 0]}}, (24, 48), 0, False),
    # its probe's compression and its Krylov basis show a second positive eigenvalue
    ({"kind": "dbr", "b": {"family": "blaschke", "zeros": [[0, 0], [0.5, 0]]}}, (24, 48), 0, True),
    ({"kind": "drury_arveson", "dim": 6}, (12, 24), 6, False),   # rank 7: one small entry, not two
])
def test_r_above_the_probe_rank_is_factored_as_one_full_block_bitwise(spec, grid, dim, stops):
    # dBR affine (rank ~18) at n = 1160 and DA(6) at 296: the probe's rank
    # test fails, no probe step is yielded, and the block a @ omega completed
    # from it is the single product's bit for bit. Blaschke {0, 0.5} (~80) at
    # 1160: the first step is the Krylov basis [q1, orth(R q1 - q1 m11)], q1
    # the probe's Q, and m = q^H R q, on which factor_reciprocal stops
    kernel, n = kernel_from_json(spec), grid[0] * grid[1] + 8
    r = gram(kernel, ball_points(n, dim) if dim else SampleSet.default(grid=grid), True)
    target = RITZ_RESIDUAL * float(np.min(np.abs(np.diagonal(r.entries))))
    first = next(range_steps(r.entries, target, r.r_norm))
    rec = cnp.factor_reciprocal(r)
    if stops:
        rng = np.random.default_rng(RITZ_SEED)
        omega = rng.standard_normal((n, RITZ_BLOCK)) + 1j * rng.standard_normal((n, RITZ_BLOCK))
        q1 = np.linalg.qr(r.entries @ omega[:, :RITZ_PROBE])[0]
        m = rec.q.conj().T @ (r.entries @ rec.q)
        assert rec.q.shape == (n, 2 * RITZ_PROBE) and rec.resid is None
        assert np.array_equal(first[0], rec.q) and np.array_equal(first[1], rec.m)
        assert np.array_equal(rec.q[:, :RITZ_PROBE], q1)
        assert np.max(np.abs(rec.q.conj().T @ rec.q - np.eye(2 * RITZ_PROBE))) < 1e-14
        assert np.max(np.abs(rec.m - 0.5 * (m + m.conj().T))) <= 1e-13 * np.max(np.abs(m))
        return
    q, b, resid = one_block(r.entries)
    assert np.array_equal(first[0], q) and np.array_equal(first[1], b)
    assert np.array_equal(rec.q, q) and np.array_equal(rec.m, b)
    assert rec.resid == resid


@pytest.mark.parametrize("r_max", [0.9, 0.99])
@pytest.mark.parametrize("grid", [(12, 24), (24, 48)])   # n = 296, 1160
@pytest.mark.parametrize("spec", [
    {"kind": "szego"},
    {"kind": "drury_arveson", "dim": 2},
    {"kind": "drury_arveson", "dim": 6},
    {"kind": "dbr", "b": {"family": "affine", "A": [0.5, 0], "B": [2, 0]}},
    {"kind": "dbr", "b": {"family": "blaschke", "zeros": [[0.9, 0.1]]}},
    {"kind": "dbr", "b": {"family": "scaled_identity", "R": 2}},
], ids=json.dumps)
def test_the_krylov_gate_never_fires_on_a_complete_pick_kernel(monkeypatch, spec, grid, r_max):
    # R = 1/K has one positive eigenvalue, so no compression of it shows a
    # second beyond rounding: every step is the finder's without the gate bit
    # for bit, and a first step past the probe is the single product's
    kernel, n = kernel_from_json(spec), grid[0] * grid[1] + 8
    pts = ball_points(n, kernel.dim, r_max) if kernel.dim else SampleSet.default(grid=grid, r_max=r_max)
    r = gram(kernel, pts, True)
    target = RITZ_RESIDUAL * float(np.min(np.abs(np.diagonal(r.entries))))
    steps = list(range_steps(r.entries, target, r.r_norm))
    monkeypatch.setattr(linalg, "_probe_second_eigenvalue", lambda omega, y: -math.inf)
    ref = list(range_steps(r.entries, target, r.r_norm))
    assert len(steps) == len(ref)
    for (q, b, resid), (q0, b0, resid0) in zip(steps, ref):
        assert np.array_equal(q, q0) and np.array_equal(b, b0) and resid == resid0
    if steps[0][0].shape[1] != RITZ_PROBE:
        q, b, _ = one_block(r.entries)
        assert np.array_equal(steps[0][0], q) and np.array_equal(steps[0][1], b)


# --------------------------------------------------------------- pick forms

def test_pick_matrix_examples():
    m = pick_matrix(Szego(), [0.0], [0.5])
    assert np.allclose(m.entries, [[0.75]])
    assert psd_verdict(m).status is Verdict.PSD

    m = pick_matrix(Szego(), [0.0, 0.5], [0.0, 0.5])
    assert np.allclose(m.entries, np.ones((2, 2)))
    v = psd_verdict(m)
    assert v.status is Verdict.PSD
    assert abs(v.min_eig) < 1e-12  # singular, extremal data

    m = pick_matrix(Szego(), [0.0], [2.0])
    assert np.allclose(m.entries, [[-3.0]])
    assert psd_verdict(m).status is Verdict.NOT_PSD


@pytest.mark.parametrize("kernel", [Szego(), DruryArveson(2)], ids=repr)
def test_pick_matrix_scales_the_kernel_gram_in_place(kernel):
    # hermitian_from_raw((1 - t t^H) * K) bit for bit, holding K's array and
    # row blocks only
    n = 600
    rng = np.random.default_rng(3)
    nodes = ball_points(n, 2) if kernel.dim else list(SampleSet.random_disk(n, seed=3))
    targets = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    tracemalloc.start()
    try:
        m = pick_matrix(kernel, nodes, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    raw = linalg._kernel_matrix(kernel, kernel.points(nodes))
    ref = hermitian_from_raw((1.0 - targets[:, None] * np.conj(targets)[None, :]) * raw)
    assert m.entries.tobytes() == ref.entries.tobytes()
    assert (m.scale, m.asymmetry, m.cs_excess) == (ref.scale, ref.asymmetry, ref.cs_excess)
    assert peak < 2 * 16 * n**2


def test_pick_matrix_length_mismatch():
    with pytest.raises(LengthMismatch):
        pick_matrix(Szego(), [0.0, 0.5], [0.0])


# --------------------------------------------------------------- invariants

def test_schur_product_of_szego_grams_is_psd():
    pts = SampleSet.default(seed=11)
    g = gram(Szego(), pts).entries
    prod = hermitian_from_raw(g * g)
    v = psd_verdict(prod)
    assert v.status is Verdict.PSD


def test_congruence_gram_is_diagonal_sandwich():
    factor = PowerSeries([0.3, 1.0])
    pts = SampleSet.default(seed=3)
    left = gram(Congruence(Szego(), factor), pts)
    g = gram(Szego(), pts)
    d = np.diag([factor(p) for p in pts])
    sandwich = d @ g.entries @ d.conj().T
    assert np.max(np.abs(left.entries - sandwich)) < 1e-12 * left.scale
    assert psd_verdict(left).status is Verdict.PSD


def test_gram_permutation_invariance():
    pts = list(SampleSet.default(seed=9).points)
    perm = pts[::-1]
    v1 = psd_verdict(gram(Szego(), pts))
    v2 = psd_verdict(gram(Szego(), perm))
    assert v1.status is v2.status
    assert abs(v1.min_eig - v2.min_eig) < 1e-10


@pytest.mark.parametrize("order", ["C", "F"])
def test_hermitian_from_raw_across_row_blocks(order):
    # n = 600 spans six row blocks; the result is still the full-array formula
    rng = np.random.default_rng(23)
    raw = rng.standard_normal((600, 600)) + 1j * rng.standard_normal((600, 600))
    raw[-1, 3] = np.nan   # below the diagonal, in the last block
    m = hermitian_from_raw(np.asarray(raw, order=order))
    ref = 0.5 * (raw + raw.conj().T)
    assert m.entries.tobytes() == np.ascontiguousarray(ref).tobytes()
    assert not m.entries.flags.writeable
    assert math.isnan(m.scale) and math.isnan(m.asymmetry)
    raw[-1, 3] = 1.0
    m = hermitian_from_raw(raw)
    assert m.scale == np.max(np.abs(0.5 * (raw + raw.conj().T)))
    assert m.asymmetry == np.max(np.abs(raw - raw.conj().T))


@pytest.mark.parametrize("order", ["C", "F"])
def test_min_modulus_is_taken_in_the_symmetrizing_pass(order):
    # the fixtures of test_hermitian_from_raw_across_row_blocks: six row blocks
    rng = np.random.default_rng(23)
    raw = rng.standard_normal((600, 600)) + 1j * rng.standard_normal((600, 600))
    raw[-1, 3] = np.nan
    m = hermitian_from_raw(np.asarray(raw, order=order))
    assert math.isnan(m.min_modulus) and math.isnan(np.min(np.abs(m.entries)))
    raw[-1, 3] = 1.0
    m = hermitian_from_raw(np.asarray(raw, order=order))
    assert m.min_modulus == np.min(np.abs(m.entries))
    assert m.min_modulus.hex() == float(np.min(np.abs(m.entries))).hex()


SWEEP_KERNELS = {   # the base-point sweeps of the benchmark, on the disk or the ball of C^2
    "dbr-affine": ({"kind": "dbr", "b": {"family": "affine", "A": [0.5, 0], "B": [2, 0]}}, 0),
    "dbr-blaschke-0-05": ({"kind": "dbr", "b": {"family": "blaschke", "zeros": [[0, 0], [0.5, 0]]}}, 0),
    "drury-arveson-2": ({"kind": "drury_arveson", "dim": 2}, 2),
}


@pytest.mark.parametrize("grid", [(6, 12), (12, 24), (24, 48)])   # n = 80, 296, 1160
@pytest.mark.parametrize("name", sorted(SWEEP_KERNELS))
def test_gram_forms_r_as_the_entrywise_reciprocal_of_the_symmetrized_k(name, grid):
    # R = 1/K is formed in the symmetrizing pass: the values of 1/K (R's lower
    # triangle mirrors its upper one, so a zero imaginary part may change
    # sign), the upper triangle bit for bit, and K's own scale, asymmetry,
    # Cauchy-Schwarz excess and least modulus
    spec, dim = SWEEP_KERNELS[name]
    kernel, n = kernel_from_json(spec), grid[0] * grid[1] + 8
    pts = ball_points(n, dim) if dim else SampleSet.default(grid=grid)
    k, r = gram(kernel, pts), gram(kernel, pts, True)
    ref = 1.0 / k.entries
    assert (r.n, r.r_rows, k.r_rows) == (n, n, 0) and not r.entries.flags.writeable
    assert np.array_equal(r.entries, ref)
    upper = np.triu_indices(n)
    assert r.entries[upper].tobytes() == ref[upper].tobytes()
    assert (r.scale, r.asymmetry, r.cs_excess) == (k.scale, k.asymmetry, k.cs_excess)
    assert r.min_modulus.hex() == k.min_modulus.hex()
    assert abs(r.r_norm - np.linalg.norm(ref)) <= 1e-13 * np.linalg.norm(ref)


def upper_row_max(a):
    """Each row's max modulus from the first column of its row block on."""
    blocks = row_blocks(a.shape[0], a[:1].nbytes)
    return np.concatenate([np.max(np.abs(a[blk, blk.start:]), axis=1) for blk in blocks])


@pytest.mark.parametrize("name", sorted(SWEEP_KERNELS))
def test_r_row_bounds_are_each_rows_max_modulus_to_rounding(name):
    # from the least |K| of each row, from its row block's first column on, as
    # a row-block pass over R's upper triangle reads it; a Gram that does not
    # form R has none
    spec, dim = SWEEP_KERNELS[name]
    kernel = kernel_from_json(spec)
    pts = ball_points(1160, dim) if dim else SampleSet.default(grid=(24, 48))
    r = gram(kernel, pts, True)
    rows = upper_row_max(r.entries)
    assert np.all(rows <= r.r_row_max) and np.all(r.r_row_max <= rows * (1 + 64 * np.finfo(float).eps))
    assert gram(kernel, pts).r_row_max is None and hermitian_from_raw(r.entries).r_row_max is None


def test_r_row_bounds_hold_over_every_magnitude_and_phase_of_k():
    # |K| from 1e-11 to 8e307, where 1/K is subnormal; K is Hermitian, so
    # symmetrizing keeps it bit for bit, and its diagonal the largest
    rng = np.random.default_rng(29)
    n = 600
    upper = np.triu(10.0 ** rng.uniform(-11, 307.9, (n, n)) * np.exp(2j * np.pi * rng.uniform(size=(n, n))), 1)
    upper[0, 1:] = np.abs(upper[0, 1:]) * np.array([1, 1j, -1, -1j])[np.arange(n - 1) % 4]   # on the axes
    raw = upper + upper.conj().T + np.diag(np.full(n, 8e307))
    r = hermitian_in_place(raw, True)
    assert r.r_rows == n and np.min(np.abs(r.entries)) < np.finfo(float).tiny
    assert np.all(upper_row_max(r.entries) <= r.r_row_max)


def test_r_stops_at_the_first_row_block_where_k_vanishes():
    # 1 + 4 z conj(w) vanishes only at pairs of the six appended samples, in
    # the last row block: R is formed on the rows before it, and K is kept on
    # the square from that block's first row on
    kernel = kernel_from_json({"kind": "weighted_hardy", "weights": [1.0, 0.25]})
    pts = SampleSet.default(grid=(24, 48)).extended([0.5, -0.5, 0.5j, -0.5j, 0.4, -0.625])
    k, r = gram(kernel, pts), gram(kernel, pts, True)
    i, vanishing = r.r_rows, np.argwhere(np.abs(k.entries) < 1e-12)
    assert i == row_blocks(r.n, r.entries[:1].nbytes)[-1].start < vanishing.min()
    assert np.array_equal(r.entries[i:, i:], k.entries[i:, i:])
    assert np.array_equal(r.entries[:i], 1.0 / k.entries[:i])
    assert np.array_equal(r.entries[:, :i], 1.0 / k.entries[:, :i])
    assert (r.scale, r.asymmetry, r.cs_excess, r.min_modulus) == \
        (k.scale, k.asymmetry, k.cs_excess, k.min_modulus)


def test_a_gram_that_keeps_k_on_a_row_block_has_no_r_row_bounds():
    # as in test_r_stops_at_the_first_row_block_where_k_vanishes
    kernel = kernel_from_json({"kind": "weighted_hardy", "weights": [1.0, 0.25]})
    r = gram(kernel, SampleSet.default(grid=(24, 48)).extended([0.5, -0.5, 0.5j, -0.5j, 0.4, -0.625]), True)
    assert r.r_rows < r.n and r.r_row_max is None


def test_gram_error_positions_index_the_whole_matrix():
    # the matrix is built in row blocks; a guard failing in a later block
    # still names its row in the whole matrix
    from cnpcert.errors import VanishingKernel

    pts = list(0.9 * np.exp(2j * np.pi * np.arange(400) / 400))
    pts[300] = 0.5   # where the congruence factor z - 0.5 vanishes
    kernel = NormalizedDefect(Congruence(Szego(), PowerSeries([-0.5, 1.0])), 0.1)
    with pytest.raises(VanishingKernel, match=r"K\(z, base\) .* positions \[\[300, 0\]\]$"):
        gram(kernel, pts)


def test_gram_rejects_ball_shaped_points_on_a_disk_kernel():
    with pytest.raises(DomainMismatch):
        gram(Szego(), [[0.1, 0.2]])
