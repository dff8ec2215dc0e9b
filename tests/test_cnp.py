import json
import math
import mmap
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cnpcert import cnp, linalg
from cnpcert.cnp import EVIDENCE_NOTE, SWEEP_ANOMALY_NOTE, cnp_basepoint_sweep, cnp_certify
from cnpcert.dbr import dbr_kernel
from cnpcert.errors import DomainMismatch, DomainViolation, VanishingKernel
from cnpcert.families import family_symbol
from cnpcert.kernels import (
    Congruence,
    DeBrangesRovnyak,
    DruryArveson,
    Kernel,
    NormalizedDefect,
    Szego,
    WeightedHardy,
    row_blocks,
)
from cnpcert.linalg import RITZ_MIN_N, RITZ_PROBE, RITZ_RESIDUAL, Verdict, gram, hermitian_from_raw
from cnpcert.sampling import SampleSet, ball_points
from cnpcert.series import PowerSeries, Rational

from strategies import phases, schur_symbols


def test_szego_certifies_psd():
    pts = SampleSet.default(seed=1, grid=(4, 8))
    rep = cnp_certify(Szego(), 0j, pts, tol=1e-9)
    assert rep.verdict.status is Verdict.PSD
    assert rep.verdict.min_eig >= -1e-9
    assert not rep.vanish_flag
    assert EVIDENCE_NOTE in rep.notes


def test_squared_symbol_two_point_counterexample():
    k = DeBrangesRovnyak(PowerSeries([0.0, 0.0, 1.0]))
    rep = cnp_certify(k, 0j, SampleSet.explicit([0.5, -0.5]))
    assert rep.verdict.status is Verdict.NOT_PSD
    assert abs(rep.verdict.min_eig - (-2 / 15)) < 1e-12


def test_degree_one_inner_symbol_defect_vanishes():
    k = DeBrangesRovnyak(family_symbol("blaschke", {"zeros": [0.3]}))
    rep = cnp_certify(k, 0j, SampleSet.default())
    assert rep.verdict.status is Verdict.PSD
    assert abs(rep.verdict.min_eig) <= 1e-10


def test_monotonic_evidence_under_sample_growth():
    k = DeBrangesRovnyak(PowerSeries([0.0, 0.0, 1.0]))
    small = SampleSet.explicit([0.5, -0.5])
    big = SampleSet.default().extended([0.5, -0.5])
    r_small = cnp_certify(k, 0j, small)
    r_big = cnp_certify(k, 0j, big)
    assert r_small.verdict.status is Verdict.NOT_PSD
    assert r_big.verdict.status is Verdict.NOT_PSD
    # eigenvalue interlacing: more samples can only push the bottom down
    assert r_big.verdict.min_eig <= r_small.verdict.min_eig + 1e-9


def test_base_point_excluded_with_note():
    rep = cnp_certify(Szego(), 0.3 + 0j, SampleSet.explicit([0.3, -0.3]))
    assert rep.n_samples == 1
    assert any("base" in note for note in rep.notes)


def test_sweep_szego_two_bases():
    pts = SampleSet.default(seed=2)
    reps = cnp_basepoint_sweep(Szego(), [0j, 0.3 + 0.1j], pts)
    assert [r.verdict.status for r in reps] == [Verdict.PSD, Verdict.PSD]


def test_sweep_squared_symbol_two_bases():
    k = DeBrangesRovnyak(PowerSeries([0.0, 0.0, 1.0]))
    pts = SampleSet.explicit([0.5, -0.5, 0.3j])
    reps = cnp_basepoint_sweep(k, [0j, 0.2 + 0j], pts)
    assert all(r.verdict.status is Verdict.NOT_PSD for r in reps)


def test_a_sweep_whose_bases_disagree_notes_the_anomaly():
    # dropping the sample 0.5 at base 0.5 leaves one sample, too few to see
    # the NOT_PSD that base 0 finds on two
    k, pts = dbr_kernel(Rational([0.0, 0.0, 1.0], [1.0])), SampleSet.explicit([0.5, -0.5])
    sweep = cnp_basepoint_sweep(k, [0j, 0.5], pts)
    assert [(r.verdict.status, r.n_samples) for r in sweep] == [(Verdict.NOT_PSD, 2), (Verdict.PSD, 1)]
    assert all(SWEEP_ANOMALY_NOTE in r.notes for r in sweep)
    lone = [cnp_certify(k, b, pts) for b in (0j, 0.5)]
    assert [r.verdict for r in lone] == [r.verdict for r in sweep]
    assert not any(SWEEP_ANOMALY_NOTE in r.notes for r in lone)


def test_sweep_empty_bases():
    assert cnp_basepoint_sweep(Szego(), [], SampleSet.default()) == []


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_drury_arveson_certifies_psd(dim):
    pts = ball_points(24, dim, seed=100 + dim)
    rep = cnp_certify(DruryArveson(dim), (0j,) * dim, pts)
    assert rep.verdict.status is Verdict.PSD


def test_vanishing_kernel_sets_flag_and_inconclusive():
    k = Congruence(Szego(), PowerSeries([-0.5, 1.0]))  # vanishes at z = 1/2
    rep = cnp_certify(k, 0j, SampleSet.explicit([0.5, -0.3]))
    assert rep.vanish_flag
    assert rep.verdict.status is Verdict.INCONCLUSIVE
    assert any("VANISHING_KERNEL" in n for n in rep.notes)
    d = rep.to_json_dict()
    json.dumps(d)
    assert d["min_eig"] is None
    assert d["vanish_flag"] is True


def test_report_json_fields():
    rep = cnp_certify(Szego(), 0j, SampleSet.explicit([0.4, -0.2j]))
    d = rep.to_json_dict()
    assert set(d) == {"verdict", "min_eig", "tol", "base", "n_samples", "vanish_flag", "notes"}
    assert d["base"] == [0.0, 0.0]
    assert d["n_samples"] == 2
    json.dumps(d)


def test_report_json_ball_base():
    pts = ball_points(8, 2, seed=5)
    rep = cnp_certify(DruryArveson(2), (0j, 0j), pts)
    d = rep.to_json_dict()
    assert d["base"] == [[0.0, 0.0], [0.0, 0.0]]


# ------------------------------------------- sweep against per-base certify

def assert_sweep_matches_certify(kernel, bases, pts):
    sweep = cnp_basepoint_sweep(kernel, bases, pts)
    assert len(sweep) == len(bases)
    for base, rep in zip(bases, sweep):
        one = cnp_certify(kernel, base, pts)
        assert rep.verdict.status is one.verdict.status
        assert rep.n_samples == one.n_samples
        assert rep.notes == one.notes
        assert rep.vanish_flag == one.vanish_flag
        if one.vanish_flag:
            assert math.isnan(rep.verdict.min_eig) and math.isnan(one.verdict.min_eig)
        else:
            scale = one.verdict.tol / 1e-9   # the default tol is 1e-9 max(1, scale)
            assert abs(rep.verdict.min_eig - one.verdict.min_eig) <= 1e-12 * scale
    return sweep


def test_sweep_matches_certify_with_base_on_a_sample():
    pts = SampleSet.default(seed=5, grid=(6, 12))
    kernel = DeBrangesRovnyak(family_symbol("blaschke", {"zeros": [0.0, 0.5]}))
    bases = [0j, pts.points[7], -0.2 + 0.4j]
    sweep = assert_sweep_matches_certify(kernel, bases, pts)
    assert [r.n_samples for r in sweep] == [80, 79, 80]
    assert any("dropped" in note for note in sweep[1].notes)
    assert all(r.verdict.status is Verdict.NOT_PSD for r in sweep)


@pytest.mark.parametrize("outer_defect", [False, True])
def test_sweep_matches_certify_for_vanishing_kernel(outer_defect):
    k = Congruence(Szego(), PowerSeries([-0.5, 1.0]))  # vanishes at z = 1/2
    if outer_defect:   # then the kernel's own Gram raises VanishingKernel
        k = NormalizedDefect(k, 0.1j)
    pts = SampleSet.explicit([0.5, -0.3, 0.2j])
    sweep = assert_sweep_matches_certify(k, [0j, -0.3 + 0j, 0.1 + 0.1j], pts)
    for rep in sweep:
        assert rep.vanish_flag
        assert rep.verdict.status is Verdict.INCONCLUSIVE
        assert any("VANISHING_KERNEL" in n for n in rep.notes)


def test_a_vanishing_kernel_gram_is_evaluated_once_per_sweep(monkeypatch):
    # the kernel's own Gram raises VanishingKernel; each base evaluated it anew
    k = NormalizedDefect(Congruence(Szego(), PowerSeries([-0.5, 1.0])), 0.1j)
    pts = SampleSet.default(grid=(12, 24)).extended([0.5])
    calls = []

    def counted(kernel, points, *form):
        calls.append(len(points))
        return gram(kernel, points, *form)

    monkeypatch.setattr(cnp, "gram", counted)
    bases = [0j, 0.2 + 0j, -0.3j]
    sweep = cnp_basepoint_sweep(k, bases, pts)
    assert calls == [297]
    for base, rep in zip(bases, sweep):
        assert rep.vanish_flag
        assert rep.to_json_dict() == cnp_certify(k, base, pts).to_json_dict()


def test_sweep_matches_certify_on_the_ball():
    pts = ball_points(60, 2, seed=9)
    bases = [(0j, 0j), (0.3 + 0j, 0j), tuple(pts[3])]
    sweep = assert_sweep_matches_certify(DruryArveson(2), bases, pts)
    assert [r.n_samples for r in sweep] == [60, 60, 59]
    assert all(r.verdict.status is Verdict.PSD for r in sweep)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.inf, math.nan])
def test_a_bad_tolerance_is_rejected_on_the_vanishing_kernel_path(tol):
    # the vanishing path returned INCONCLUSIVE and wrote the bad tol into the report
    k = Congruence(Szego(), PowerSeries([-0.5, 1.0]))  # vanishes at z = 1/2
    pts = SampleSet.explicit([0.5, -0.3])
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        cnp_certify(k, 0j, pts, tol=tol)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        cnp_basepoint_sweep(k, [0j], pts, tol=tol)


def test_a_base_outside_the_domain_is_reported_before_samples_outside_it():
    # the sweep built K before any base's checks, so it raised for the samples
    pts = [0.2, 2.0]
    for run in (lambda: cnp_certify(Szego(), 1.5, pts),
                lambda: cnp_basepoint_sweep(Szego(), [1.5, 0j], pts)):
        with pytest.raises(DomainViolation, match="defect base point"):
            run()
    with pytest.raises(DomainViolation, match="sample"):
        cnp_basepoint_sweep(Szego(), [0j, 1.5], pts)


@pytest.mark.parametrize("n", [10, 300])
def test_samples_that_all_coincide_with_the_base_raise_value_error(n):
    # from RITZ_MIN_N samples on this was an IndexError from a 0 x 0 compression
    with pytest.raises(ValueError, match="at least one sample point away from the base"):
        cnp_certify(Szego(), 0.3, [0.3] * n)


class SkewedSzego(Kernel):
    """Szego plus 1e-6 z w: not conjugate-symmetric, as a buggy kernel would
    be, yet exact at the base 0, so only K(z, w) carries the asymmetry."""

    def evaluate(self, z, w):
        return Szego().evaluate(z, w) + 1e-6 * np.asarray(z, complex) * np.asarray(w, complex)


def test_asymmetric_kernel_gets_an_assembly_warning():
    pts = SampleSet.default(seed=3, grid=(4, 8))
    for rep in [cnp_certify(SkewedSzego(), 0j, pts)] + cnp_basepoint_sweep(
            SkewedSzego(), [0j], pts):
        assert any(note.startswith("assembly warning") for note in rep.notes)


def test_certify_rejects_ball_points_of_another_dimension():
    # DA(2) with a base and samples in C^3 must not certify (it read PSD)
    from cnpcert.errors import DomainMismatch

    with pytest.raises(DomainMismatch):
        cnp_certify(DruryArveson(2), (0j,) * 3, ball_points(10, 3, seed=1))
    with pytest.raises(DomainMismatch):   # not a numpy broadcast ValueError
        cnp_certify(DruryArveson(2), (0j,) * 2, ball_points(10, 3, seed=1))
    with pytest.raises(DomainMismatch):
        cnp_basepoint_sweep(DruryArveson(2), [(0j,) * 3], ball_points(10, 2, seed=1))


def test_defect_error_positions_index_the_whole_matrix():
    # the defect is assembled in row blocks; K(z, base) vanishing at a sample
    # in a later block is reported at its row in the whole matrix
    pts = list(0.9 * np.exp(2j * np.pi * np.arange(400) / 400))
    pts[300] = 0.5   # where the congruence factor z - 0.5 vanishes
    kernel = Congruence(Szego(), PowerSeries([-0.5, 1.0]))
    for rep in [cnp_certify(kernel, 0.1, pts)] + cnp_basepoint_sweep(kernel, [0.1], pts):
        assert rep.vanish_flag and rep.verdict.status is Verdict.INCONCLUSIVE
        assert rep.notes[0].endswith("K(z, base) below 1e-12 in modulus at positions [[300, 0]]")


def test_report_json_ball_base_given_as_a_list():
    # a list base raised a TypeError in to_json_dict, which read only tuples as ball points
    rep = cnp_certify(DruryArveson(2), [0j, 0j], ball_points(8, 2, seed=5))
    assert rep.to_json_dict()["base"] == [[0.0, 0.0], [0.0, 0.0]]


def test_flat_samples_on_a_ball_kernel_are_a_domain_mismatch():
    # the flat pair [0.5, 0.1] was read as one ball point and failed with a numpy AxisError
    with pytest.raises(DomainMismatch):
        cnp_certify(DruryArveson(2), (0j, 0j), [0.5, 0.1])


def test_pair_base_on_a_disk_kernel_is_a_domain_mismatch():
    # raised a TypeError from complex((0.1, 0.2))
    with pytest.raises(DomainMismatch):
        cnp_certify(Szego(), (0.1, 0.2), SampleSet.default(grid=(2, 3)))


# ------------------------------------ the defect from a factorization of 1/K

DBR_AFFINE = DeBrangesRovnyak(PowerSeries([0.25, 0.5]))   # (z + 0.5) / 2: PSD
DBR_BLASCHKE = DeBrangesRovnyak(family_symbol("blaschke", {"zeros": [0.0, 0.5]}))   # NOT_PSD
DBR_POWER_2 = DeBrangesRovnyak(PowerSeries([0.0, 0.0, 1.0]))   # b = z^2: NOT_PSD
# the Dirichlet kernel sum (z conj w)^n / (n + 1), truncated at 200 terms: a
# truncation of the complete Pick Dirichlet kernel, not itself complete Pick,
# whose 1/K has numerical rank above 296 / 8 at r_max 0.9
DIRICHLET = WeightedHardy(np.arange(1.0, 201.0))


def disk_296():
    return SampleSet.default(seed=5, grid=(12, 24))


def disk_776():
    return SampleSet.default(seed=5, grid=(24, 32))


@pytest.mark.parametrize("kernel, pts, base", [
    (DBR_BLASCHKE, SampleSet.default(seed=5), -0.2 + 0.4j),
    (DruryArveson(2), ball_points(60, 2, seed=9), (0.3 + 0j, -0.1j)),
])
def test_defect_is_the_reciprocal_gram_rescaled_by_the_base_column(kernel, pts, base):
    # D = J - diag(u) R diag(conj u), u = K(z, base) / sqrt(K(base, base)), R = 1/K
    pts = kernel.points(pts)
    defect = NormalizedDefect(kernel, base)
    u = defect.base_column(pts)[:, 0] / math.sqrt(defect.kbb)
    identity = 1.0 - u[:, None] * (1.0 / gram(kernel, pts).entries) * u.conj()
    direct = defect.evaluate(pts[:, None], pts[None])
    assert np.all(np.abs(identity - direct) <= 1e-12 * np.maximum(1.0, np.abs(direct)))


@pytest.mark.parametrize("kernel, pts", [
    (DBR_BLASCHKE, disk_776()), (DBR_AFFINE, disk_296()),
    (DruryArveson(2), ball_points(296, 2, seed=5)),
])
def test_reciprocal_of_a_symmetrized_gram_is_bitwise_hermitian(kernel, pts):
    rec = cnp.factor_reciprocal(gram(kernel, pts, True))
    assert rec is not None
    assert np.array_equal(rec.entries, rec.entries.conj().T)


def eigvalsh_reference(kernel, base, pts):
    """min_eig of the materialized, symmetrized defect on the samples away
    from the base, and its scale."""
    pts = kernel.points(pts)[cnp._exclude_base(pts, base, kernel)]
    m = hermitian_from_raw(NormalizedDefect(kernel, base).evaluate(pts[:, None], pts[None]))
    return float(np.linalg.eigvalsh(m.entries)[0]), m.scale


def materialized_reports(monkeypatch, kernel, bases, pts):
    """Per-base cnp_certify and a sweep through the assembled defect alone."""
    with monkeypatch.context() as mp:
        mp.setattr(cnp, "RITZ_MIN_N", math.inf)   # R is formed, not factored
        return [cnp_certify(kernel, b, pts) for b in bases], cnp_basepoint_sweep(kernel, bases, pts)


@pytest.mark.parametrize("kernel, pts, bases, status, quotient", [
    (DBR_AFFINE, disk_296(), [0j, disk_296().points[40], -0.2 + 0.4j], Verdict.PSD, False),
    # the range finder stops at its first block, whose second Ritz value is far
    # past rounding, and each base is certified by a Rayleigh quotient
    (DBR_BLASCHKE, disk_296(), [-0.2 + 0.4j, disk_296().points[250]], Verdict.NOT_PSD, True),
    (DBR_BLASCHKE, disk_776(), [-0.2 + 0.4j, disk_776().points[250]], Verdict.NOT_PSD, True),
    (DruryArveson(2), ball_points(296, 2, seed=5),
     [(0j, 0j), tuple(ball_points(296, 2, seed=5)[17])], Verdict.PSD, False),
    (DBR_POWER_2, disk_296(), [0j, disk_296().points[250]], Verdict.NOT_PSD, True),
    (DBR_POWER_2, disk_776(), [0.1 + 0.2j, disk_776().points[250]], Verdict.NOT_PSD, True),
])
def test_factored_defect_matches_the_materialized_defect(
        monkeypatch, kernel, pts, bases, status, quotient):
    n = len(pts)
    assert n >= RITZ_MIN_N
    one_by_one, swept = materialized_reports(monkeypatch, kernel, bases, pts)
    assembled = recorded(monkeypatch, cnp, "_defect_gram")
    quotients = recorded(monkeypatch, cnp, "_rayleigh_quotient")
    reports = [cnp_certify(kernel, b, pts) for b in bases] + cnp_basepoint_sweep(kernel, bases, pts)
    assert not assembled
    assert len(quotients) == (len(reports) if quotient else 0)
    for base, rep, ref in zip(bases + bases, reports, one_by_one + swept):
        assert rep.verdict.status is ref.verdict.status is status
        assert (rep.n_samples, rep.notes) == (ref.n_samples, ref.notes)
        min_eig, scale = eigvalsh_reference(kernel, base, pts)
        assert rep.verdict.tol == pytest.approx(1e-9 * max(1.0, scale), rel=1e-12)
        assert rep.verdict.tol == pytest.approx(ref.verdict.tol, rel=1e-12)
        if quotient:   # a tight upper bound on the smallest eigenvalue, past the NOT_PSD band
            assert min_eig - 2 * RITZ_RESIDUAL * max(1.0, scale) <= rep.verdict.min_eig <= 0.999 * min_eig
            assert rep.verdict.min_eig < -10 * rep.verdict.tol
        else:
            assert abs(rep.verdict.min_eig - min_eig) <= 2 * RITZ_RESIDUAL * max(1.0, scale)
    assert {r.n_samples for r in reports} == {n - 1, n}


def test_sweep_falls_back_to_the_assembled_defect_when_the_bound_fails(monkeypatch):
    pts, bases = disk_296(), [0j, disk_296().points[40]]
    assembled = []
    defect_gram = cnp._defect_gram
    monkeypatch.setattr(cnp, "_defect_gram", lambda *a: assembled.append(1) or defect_gram(*a))
    expected = cnp_basepoint_sweep(DBR_AFFINE, bases, pts)
    assert not assembled
    factor_reciprocal = cnp.factor_reciprocal   # R is formed, but no Weyl bound can pass
    monkeypatch.setattr(cnp, "factor_reciprocal", lambda *a: factor_reciprocal(*a)._replace(
        resid=math.inf))
    reports = cnp_basepoint_sweep(DBR_AFFINE, bases, pts)
    assert len(assembled) == len(bases)
    for rep, ref in zip(reports, expected):
        assert (rep.verdict.status, rep.n_samples, rep.notes) == \
            (ref.verdict.status, ref.n_samples, ref.notes)
        assert rep.verdict.tol == pytest.approx(ref.verdict.tol, rel=1e-12)
        assert abs(rep.verdict.min_eig - ref.verdict.min_eig) <= 2 * RITZ_RESIDUAL


def test_a_stalled_factorization_serves_the_bases_whose_bound_it_meets(monkeypatch):
    # the range finder stops at 32 columns (64 would pass 296 / 8) with resid
    # 5.6e-11, above its target 1e-10 / max K(z, z) = 1.2e-11; each of these
    # bases meets its own Weyl bound all the same, so none needs its defect assembled
    kernel = DeBrangesRovnyak(family_symbol("moebius_over", {"A": 1.5, "B": 2.5}))
    pts = SampleSet.default(seed=5, grid=(12, 24), r_max=0.95)
    kmax = np.max(np.abs(np.diagonal(gram(kernel, pts).entries)))
    rec = cnp.factor_reciprocal(gram(kernel, pts, True))
    assert rec.resid > RITZ_RESIDUAL / kmax
    bases = [0j, 0.3 + 0j, -0.3 + 0j, pts.points[40]]
    assembled = []
    defect_gram = cnp._defect_gram
    monkeypatch.setattr(cnp, "_defect_gram", lambda *a: assembled.append(1) or defect_gram(*a))
    reports = cnp_basepoint_sweep(kernel, bases, pts)
    assert not assembled
    for base, rep in zip(bases, reports):
        assert rep.verdict.status is Verdict.PSD
        min_eig, scale = eigvalsh_reference(kernel, base, pts)
        assert abs(rep.verdict.min_eig - min_eig) <= 2 * RITZ_RESIDUAL * max(1.0, scale)


@pytest.mark.parametrize("kernel, pts", [
    (DBR_AFFINE, disk_296()), (DBR_BLASCHKE, disk_296()), (DruryArveson(2), ball_points(296, 2, seed=5)),
])
def test_a_lone_certificate_is_the_sweeps_report_for_a_base_on_a_sample(kernel, pts):
    # a lone cnp_certify factored 1/K on the kept samples only, so its
    # min_eig differed from the sweep's in the last digits
    base = kernel.points(pts)[40]
    base = tuple(base) if base.ndim else base
    (swept,) = cnp_basepoint_sweep(kernel, [base], pts)
    one = cnp_certify(kernel, base, pts)
    assert one.n_samples == len(pts) - 1
    assert json.dumps(one.to_json_dict()) == json.dumps(swept.to_json_dict())


# ------------------------------------------ the assembled defect, Hermitian as formed

GALLERY_80 = SampleSet.default()   # a gallery entry's 80 samples


@pytest.mark.parametrize("kernel, pts, base, status", [
    (dbr_kernel(family_symbol("affine", {"A": 0.5, "B": 2.0})), GALLERY_80, 0j, Verdict.PSD),
    (dbr_kernel(family_symbol("power", {"k": 2})), GALLERY_80, 0j, Verdict.NOT_PSD),
    (DBR_BLASCHKE, GALLERY_80.extended([0.4, 0.125]), 0j, Verdict.NOT_PSD),
    (DBR_AFFINE, GALLERY_80, GALLERY_80.points[40], Verdict.PSD),
    # the range finder stalls at 296 samples, so each base assembles its defect
    (DIRICHLET, disk_296(), -0.2 + 0.4j, Verdict.PSD),
    (DIRICHLET, disk_296(), disk_296().points[250], Verdict.PSD),
], ids=["affine-80", "power_2-80", "blaschke_deg2_0_05-82", "base-on-a-sample-80",
        "dirichlet-296", "dirichlet-296-base-on-a-sample"])
def test_an_assembled_defect_is_hermitian_bit_for_bit_at_its_own_scale(
        monkeypatch, kernel, pts, base, status):
    calls = recorded(monkeypatch, cnp, "psd_verdict")
    rep = cnp_certify(kernel, base, pts)
    (d, _), = calls   # the one eigensolve, of the assembled defect
    assert d.n == rep.n_samples == len(pts) - (base in pts.points)
    assert d.asymmetry == 0.0 and np.array_equal(d.entries, d.entries.conj().T)
    assert d.scale == np.max(np.abs(d.entries))
    kept = kernel.points(pts)[cnp._exclude_base(pts, base, kernel)]
    direct = NormalizedDefect(kernel, base).evaluate(kept[:, None], kept[None])
    assert np.max(np.abs(d.entries - direct)) <= 1e-12 * max(1.0, d.scale)
    min_eig, scale = eigvalsh_reference(kernel, base, pts)
    assert rep.verdict.status is status
    assert rep.verdict.tol == pytest.approx(1e-9 * max(1.0, scale), rel=1e-12)
    assert abs(rep.verdict.min_eig - min_eig) <= 2 * RITZ_RESIDUAL * max(1.0, scale)


# ------------------------- a PSD base's scale from its own Weyl bound, not a scan

@pytest.mark.parametrize("kernel, pts, bases", [
    (DBR_AFFINE, disk_296(), [0j, -0.2 + 0.4j, disk_296().points[40]]),
    (DruryArveson(2), ball_points(296, 2, seed=5),
     [(0j, 0j), (-0.2 + 0.1j, 0.4j), tuple(ball_points(296, 2, seed=5)[40])]),
])
def test_psd_bases_certify_their_unit_scale_without_a_defect_scan(monkeypatch, kernel, pts, bases):
    # each base's own T C T^H eigenvalue and Weyl bound prove max(1, scale) = 1,
    # so no base scans its n^2 defect, and every report is the scan's bit for bit;
    # sample 40 as the base certifies on the other 295
    scans = recorded(monkeypatch, cnp, "_defect_scale")
    certified = recorded(monkeypatch, cnp, "_unit_scale")
    reports, _, assembled = sweep_reports(monkeypatch, kernel, bases, pts)
    lone = [json.dumps(cnp_certify(kernel, b, pts).to_json_dict()) for b in bases]
    assert not scans and not assembled and len(certified) == 2 * len(bases)
    scanned = sweep_reports(monkeypatch, kernel, bases, pts, _unit_scale=lambda *a: False)[0]
    assert len(scans) == len(bases)
    assert reports == lone == scanned
    for rep in map(json.loads, reports):
        assert rep["verdict"] == "PSD" and rep["tol"] == 1e-9
    assert json.loads(reports[-1])["n_samples"] == len(pts) - 1


def test_not_psd_bases_still_scan_their_scale(monkeypatch):
    # Blaschke {0, 0.5}: the range finder stops at its first block, so no base
    # has a Weyl bound; each scans, and its tol is 1e-9 times that scale
    pts = disk_296()
    bases = [0j, -0.2 + 0.4j, pts.points[250]]
    scans = []
    scale = cnp._defect_scale
    monkeypatch.setattr(cnp, "_defect_scale", lambda *a: scans.append(scale(*a)) or scans[-1])
    certified = recorded(monkeypatch, cnp, "_unit_scale")
    reports = cnp_basepoint_sweep(DBR_BLASCHKE, bases, pts)
    assert len(scans) == len(bases) and not certified
    for base, rep, s in zip(bases, reports, scans):
        assert rep.verdict.status is Verdict.NOT_PSD and s > 1.0
        assert rep.verdict.tol == 1e-9 * s
        assert rep.verdict.tol == pytest.approx(1e-9 * eigvalsh_reference(DBR_BLASCHKE, base, pts)[1],
                                                rel=1e-12)


def test_a_base_whose_verdict_cannot_prove_its_scale_scans_it(monkeypatch):
    # 3u makes D = J - 9 diag(u) R diag(conj u) far from PSD, with entries past
    # 1; the Weyl bound 9 max|u|^2 resid still holds, but the shift it needs
    # proves no scale, so the base scans, and tol is 1e-9 times D's scale
    pts = disk_296()
    rec = cnp.factor_reciprocal(gram(DBR_AFFINE, pts, True))
    defect = NormalizedDefect(DBR_AFFINE, 0.3)
    u = 3 * defect.base_column(DBR_AFFINE.points(pts))[:, 0] / math.sqrt(defect.kbb)
    keep = np.ones(len(pts), dtype=bool)
    assert np.max(np.abs(u)) ** 2 * rec.resid <= RITZ_RESIDUAL
    scans = recorded(monkeypatch, cnp, "_defect_scale")
    verdict = cnp._factored_verdict(rec, u, keep, None)
    ref = linalg.psd_verdict(cnp._defect_gram(u, rec.entries, keep))
    assert len(scans) == 1 and verdict.status is ref.status is Verdict.NOT_PSD
    assert verdict.tol == pytest.approx(ref.tol, rel=1e-12) and verdict.tol > 2e-9
    assert verdict.min_eig == pytest.approx(ref.min_eig, rel=1e-9)


# ------------------- a scanning base reads only the rows that can hold its scale

def full_defect_scale(rec, u):
    """max|J - diag(u) R diag(conj u)| by one row-block pass over the upper
    triangle of R's array, every row scanned: the reference of _defect_scale."""
    mods, uc = [], u.conj()
    for rows in row_blocks(u.size, rec.entries[:1].nbytes):
        i = rows.start
        mods.append(np.max(np.abs(np.subtract(1.0, u[rows, None] * rec.entries[rows, i:] * uc[i:]))))
    return float(np.max(mods))


def base_u(kernel, pts, base):
    """u = K(z, base) / sqrt(K(base, base)) on all samples, 0 at a dropped one."""
    defect = NormalizedDefect(kernel, base)
    column = defect.base_column(kernel.points(pts))[:, 0] / math.sqrt(defect.kbb)
    return np.where(cnp._exclude_base(pts, base, kernel), column, 0.0)


def scanned_defects(monkeypatch, case):
    """(rec, u) pairs whose defect scale is scanned: those of a sweep's scanning
    bases, or made up for the case."""
    if case in ("blaschke-296", "blaschke-1160"):
        # base 0.3 is a sample, so its dropped row reads 1
        pts = disk_296() if case == "blaschke-296" else SampleSet.default(grid=(24, 48))
        bases, kernel, patched = [0j, 0.3 + 0j, -0.2 + 0.4j], DBR_BLASCHKE, {}
        assert not cnp._exclude_base(pts, 0.3, kernel).all()
    elif case == "drury-arveson-2":
        pts = ball_points(296, 2, seed=5)
        bases, kernel = [(0j, 0j), (-0.2 + 0.1j, 0.4j), tuple(pts[40])], DruryArveson(2)
        patched = {"_unit_scale": lambda *a: False}   # each PSD base scans its scale
    elif case == "affine-3u":   # test_a_base_whose_verdict_cannot_prove_its_scale_scans_it
        pts = disk_296()
        return [(cnp.factor_reciprocal(gram(DBR_AFFINE, pts, True)), 3 * base_u(DBR_AFFINE, pts, 0.3))]
    else:   # random Hermitian K over six row blocks, far from 0, and random u, 0 at two samples
        cases = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            raw = rng.standard_normal((600, 600)) + 1j * rng.standard_normal((600, 600)) + 3.0
            k = linalg.hermitian_in_place(raw, True)
            rec = cnp.Reciprocal(k.entries, None, None, None, 1.0 / k.min_modulus, k.r_row_max)
            u = (rng.standard_normal(600) + 1j * rng.standard_normal(600)) * np.exp(rng.standard_normal(600))
            u[rng.choice(600, 2)] = 0.0
            cases.append((rec, u))
        # equal moduli: K_ij = -c e^(i(t_i - t_j)), u_i = a e^(i t_i), so every D_ij = 1 + a^2 / c
        # up to rounding, the least room the row bounds get
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 600))
        k = linalg.hermitian_in_place(-0.7 * np.outer(phase, phase.conj()), True)
        rec = cnp.Reciprocal(k.entries, None, None, None, 1.0 / k.min_modulus, k.r_row_max)
        return cases + [(rec, 1.3 * phase)]
    with monkeypatch.context() as mp:
        for name, value in patched.items():
            mp.setattr(cnp, name, value)
        scans = recorded(mp, cnp, "_defect_scale")
        cnp_basepoint_sweep(kernel, bases, pts)
    assert len(scans) == len(bases)
    return scans


SCALE_CASES = ["blaschke-296", "blaschke-1160", "affine-3u", "drury-arveson-2", "random-hermitian"]


@pytest.mark.parametrize("case", SCALE_CASES)
def test_the_pruned_defect_scale_is_the_full_scan_bit_for_bit(monkeypatch, case):
    for rec, u in scanned_defects(monkeypatch, case):
        assert cnp._row_bounds(rec, u) is not None
        assert cnp._defect_scale(rec, u).hex() == full_defect_scale(rec, u).hex()


@pytest.mark.parametrize("case", SCALE_CASES)
def test_each_row_bound_dominates_every_defect_entry_the_scan_computes_in_its_row(monkeypatch, case):
    # the scan computes row i from the first column of its row block on
    for rec, u in scanned_defects(monkeypatch, case):
        uc, rows = u.conj(), []
        for blk in row_blocks(u.size, rec.entries[:1].nbytes):
            i = blk.start
            rows.append(np.max(np.abs(np.subtract(1.0, u[blk, None] * rec.entries[blk, i:] * uc[i:])), axis=1))
        assert np.all(np.concatenate(rows) <= cnp._row_bounds(rec, u))


def test_a_not_psd_base_at_1160_samples_scans_under_two_fifths_of_its_rows(monkeypatch):
    # Blaschke {0, 0.5} at bases 0, 0.3 and -0.2 + 0.4i: 226, 428 and 272 of
    # 1160 rows, after the probe's single rows
    for rec, u in scanned_defects(monkeypatch, "blaschke-1160"):
        scans = recorded(monkeypatch, cnp, "_scan_rows")
        cnp._defect_scale(rec, u)
        (_, _, probe), (_, _, runs) = scans
        assert len(probe) == cnp._SCALE_PROBE and all(r.stop - r.start == 1 for r, _ in probe)
        assert sum(r.stop - r.start for r, _ in runs) < 0.4 * u.size


def test_a_u_not_finite_or_a_gram_without_row_bounds_takes_the_full_scan(monkeypatch):
    # the full scan returns NaN if any entry is; the planted Gram has no row
    # bounds, as no Gram from hermitian_from_raw has
    pts = disk_296()
    rec = cnp.factor_reciprocal(gram(DBR_BLASCHKE, pts, True))
    u = base_u(DBR_BLASCHKE, pts, -0.2 + 0.4j)
    planted = cnp.factor_reciprocal(planted_reciprocal(300))
    assert planted.row_max is None
    cases = [(planted, 1.0 + 0.2j * np.arange(300) / 300)]
    for at, bad in [(0, np.nan), (150, complex(1.0, np.nan)), (295, np.inf), (7, complex(0.0, -np.inf))]:
        cases.append((rec, u.copy()))
        cases[-1][1][at] = bad
    scans = recorded(monkeypatch, cnp, "_scan_rows")
    for case, (r, v) in enumerate(cases):
        full = [(rows, rows.start) for rows in row_blocks(v.size, r.entries[:1].nbytes)]
        scans.clear()
        with np.errstate(invalid="ignore", over="ignore"):
            scale, ref = cnp._defect_scale(r, v), full_defect_scale(r, v)
        assert cnp._row_bounds(r, v) is None and [runs for _, _, runs in scans] == [full]
        assert scale.hex() == ref.hex()   # 'nan' for any NaN
        assert math.isnan(scale) is (case > 0)


@pytest.mark.parametrize("kernel_gram", [
    lambda: linalg.hermitian_in_place(
        np.random.default_rng(7).standard_normal((600, 600)) + (2.0 + 0j), True),
    lambda: gram(DBR_AFFINE, SampleSet.default(grid=(24, 48)), True),
])
def test_the_range_finder_starts_from_r_frobenius_norm_summed_by_row_block(monkeypatch, kernel_gram):
    started = []
    range_steps = cnp.range_steps

    def first(a, target, resid):
        started.append((np.linalg.norm(a), resid))
        return range_steps(a, target, resid)
    monkeypatch.setattr(cnp, "range_steps", first)
    cnp.factor_reciprocal(kernel_gram())
    ((whole, summed),) = started
    assert abs(summed - whole) <= 1e-13 * whole


# ------------------------------------------- one n x n array: R takes K's

def recorded(monkeypatch, module, name):
    """Patch ``module.name`` to record its arguments in the returned list."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_a_factored_sweep_allocates_one_n_by_n_array(monkeypatch):
    # R is formed in the kernel Gram's array, the only n x n array of the sweep
    sizes = recorded(monkeypatch, linalg, "empty_matrix")
    monkeypatch.setattr(cnp, "empty_matrix", linalg.empty_matrix)
    pts = disk_296()
    reports = cnp_basepoint_sweep(DBR_AFFINE, [0j, pts.points[40], -0.2 + 0.4j], pts)
    assert [r.verdict.status for r in reports] == [Verdict.PSD] * 3
    assert [n for (n,) in sizes if n >= RITZ_MIN_N] == [len(pts)]


def mapped_bytes(monkeypatch):
    """Patch empty_matrix to count the bytes of its memory mappings, which
    tracemalloc does not see, each mapping once however often it is handed
    out (a released one is handed out again); returns [bytes mapped now, most
    mapped at once]."""
    held, live, fn = [0, 0], weakref.WeakSet(), linalg.empty_matrix

    def release(nbytes):
        held[0] -= nbytes

    def counted(n):
        a = buf = fn(n)
        while isinstance(buf, np.ndarray) and buf.base is not None:
            buf = buf.base
        buf = getattr(buf, "obj", buf)   # np.frombuffer's base is a memoryview of the mapping
        if isinstance(buf, mmap.mmap) and buf not in live:
            live.add(buf)
            held[0] += a.nbytes
            held[1] = max(held)
            weakref.finalize(buf, release, a.nbytes)
        return a

    monkeypatch.setattr(linalg, "empty_matrix", counted)
    monkeypatch.setattr(cnp, "empty_matrix", counted)
    return held


@pytest.mark.parametrize("assembled, arrays", [(False, 2), (True, 3)])   # measured 1.22 and 2.14
def test_a_sweep_at_n_1160_peaks_below_its_n_by_n_arrays(monkeypatch, assembled, arrays):
    # a factored sweep holds K, then R in its array; the assembled path holds R
    # and one defect at a time; the rest is row blocks and thin factors. An
    # n x n array that empty_matrix maps is counted apart from tracemalloc's peak
    if assembled:
        monkeypatch.setattr(cnp, "RITZ_MIN_N", math.inf)
    mapped = mapped_bytes(monkeypatch)
    for kernel, bases, pts in [
        (DBR_AFFINE, [0j, 0.3 + 0j, -0.2 + 0.4j], SampleSet.default(grid=(24, 48))),
        (DruryArveson(2), [(0j, 0j), (0.3 + 0j, 0j), (-0.2 + 0.1j, 0.4j)], ball_points(1160, 2)),
    ]:
        mapped[1] = mapped[0]
        tracemalloc.start()
        try:
            reports = cnp_basepoint_sweep(kernel, bases, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.verdict.status for r in reports] == [Verdict.PSD] * 3
        assert peak + mapped[1] < arrays * 16 * len(pts) ** 2


def test_a_lone_certificate_builds_k_and_factors_r_once(monkeypatch):
    grams = recorded(monkeypatch, cnp, "gram")
    factored = recorded(monkeypatch, cnp, "factor_reciprocal")
    pts = disk_296()
    rep = cnp_certify(DBR_AFFINE, pts.points[40], pts)
    assert rep.verdict.status is Verdict.PSD
    assert (len(grams), len(factored)) == (1, 1)


def sweep_reports(monkeypatch, kernel, bases, pts, **patched):
    """The JSON reports of a sweep with the ``patched`` attributes of cnp, the
    Grams it built and the defects it assembled."""
    with monkeypatch.context() as mp:
        for name, value in patched.items():
            mp.setattr(cnp, name, value)
        grams = recorded(mp, cnp, "gram")
        assembled = recorded(mp, cnp, "_defect_gram")
        reports = cnp_basepoint_sweep(kernel, bases, pts)
    return [json.dumps(r.to_json_dict()) for r in reports], len(grams), len(assembled)


def test_a_stalled_range_finder_assembles_every_defect_from_r(monkeypatch):
    # the range finder stalls with no second positive Ritz value, so R is not
    # factored and every base assembles its defect from R: K was rebuilt for them
    pts = disk_296()
    bases = [-0.2 + 0.4j, pts.points[250], 0j]
    factored = []
    factor_reciprocal = cnp.factor_reciprocal
    reports, built, assembled = sweep_reports(
        monkeypatch, DIRICHLET, bases, pts,
        factor_reciprocal=lambda *a: factored.append(factor_reciprocal(*a)) or factored[-1])
    assert factored[0].q is None and (built, assembled) == (1, len(bases))
    assert (reports, built, assembled) == sweep_reports(
        monkeypatch, DIRICHLET, bases, pts, RITZ_MIN_N=math.inf)


@pytest.mark.parametrize("resid", [math.inf, 1.0])
def test_a_sweep_whose_bases_all_miss_their_bound_builds_k_at_most_twice(monkeypatch, resid):
    # every base misses its Weyl bound and assembles its defect from R: K was
    # rebuilt for them (inf: R dropped at once; 1.0: by the first base), now
    # it is built once
    pts = disk_296()
    bases = [0j, pts.points[40], -0.2 + 0.4j]
    factor_reciprocal = cnp.factor_reciprocal
    reports, built, assembled = sweep_reports(
        monkeypatch, DBR_AFFINE, bases, pts,
        factor_reciprocal=lambda *a: factor_reciprocal(*a)._replace(resid=resid))
    assert (built, assembled) == (1, len(bases))
    assert reports == sweep_reports(monkeypatch, DBR_AFFINE, bases, pts, RITZ_MIN_N=math.inf)[0]


def test_a_sweep_at_n_1160_whose_bases_all_miss_their_bound_peaks_below_three_n_by_n_arrays(
        monkeypatch):
    # R and one defect at a time (measured 2.22): K rebuilt beside R and a
    # defect peaked at 3.22
    pts = SampleSet.default(grid=(24, 48))
    factor_reciprocal = cnp.factor_reciprocal
    monkeypatch.setattr(cnp, "factor_reciprocal", lambda *a: factor_reciprocal(*a)._replace(resid=1.0))
    assembled = recorded(monkeypatch, cnp, "_defect_gram")
    tracemalloc.start()
    try:
        reports = cnp_basepoint_sweep(DBR_AFFINE, [0j, 0.3 + 0j, -0.2 + 0.4j], pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pts) == 1160 and len(assembled) == 3
    assert [r.verdict.status for r in reports] == [Verdict.PSD] * 3
    assert peak < 3 * 16 * len(pts) ** 2


# ------------------------------------------- a vanishing K(z, w), not K(z, base)

VANISHING_PAIR = WeightedHardy([1.0, 0.25])   # 1 + 4 z conj(w): 0 at z = 0.5, w = -0.5


@pytest.mark.parametrize("pts, pair, base_row", [
    (SampleSet.explicit([0.5, -0.5, 0.3j]), "[[0, 1], [1, 0]]", "[[1, 0]]"),
    (SampleSet.default(grid=(12, 24)).extended([0.5, -0.5]), "[[296, 297], [297, 296]]", "[[297, 0]]"),
])
def test_a_vanishing_kernel_gram_entry_is_named_at_its_samples(pts, pair, base_row):
    # every other vanishing-kernel test trips K(z, base) first; at base 0.5, a
    # sample, so does this one: K(z, base) vanishes at the kept sample -0.5,
    # named, as K(z, w) is, by its index among all the given samples
    bases = [0j, 0.5]
    sweep = cnp_basepoint_sweep(VANISHING_PAIR, bases, pts)
    (at_0,), (at_half,) = ([n for n in r.notes if n.startswith("VANISHING_KERNEL")] for r in sweep)
    assert at_0.endswith(f"K(z, w) below 1e-12 in modulus at positions {pair}")
    assert at_half.endswith(f"K(z, base) below 1e-12 in modulus at positions {base_row}")
    for base, rep in zip(bases, sweep):
        assert rep.vanish_flag and rep.verdict.status is Verdict.INCONCLUSIVE
        assert rep.to_json_dict() == cnp_certify(VANISHING_PAIR, base, pts).to_json_dict()


def test_a_k_that_vanishes_in_a_late_row_block_is_named_at_the_positions_of_the_whole_k():
    # the Gram forms R on the rows before the last row block and keeps K from
    # there on; the scan of that square names the pairs the whole K's scan did
    pts = SampleSet.default(grid=(24, 48)).extended([0.5, -0.5, 0.5j, -0.5j, 0.4, -0.625])
    pairs = np.argwhere(np.abs(gram(VANISHING_PAIR, pts).entries) < 1e-12)[:4].tolist()
    assert pairs == [[1160, 1161], [1161, 1160], [1162, 1163], [1163, 1162]]
    kernel_gram = gram(VANISHING_PAIR, pts, True)
    assert 0 < kernel_gram.r_rows < 1160
    message = f"K(z, w) below 1e-12 in modulus at positions {pairs}"
    with pytest.raises(VanishingKernel, match=re.escape(message)):
        cnp.factor_reciprocal(kernel_gram)
    rep = cnp_certify(VANISHING_PAIR, 0j, pts)
    assert rep.vanish_flag and rep.notes[0] == f"VANISHING_KERNEL: {message}"


def test_factor_reciprocal_refuses_a_gram_without_r():
    with pytest.raises(ValueError, match="not formed"):
        cnp.factor_reciprocal(gram(DBR_AFFINE, disk_296()))


@pytest.mark.parametrize("weight", [1e-308, 1.5e-308])
@pytest.mark.parametrize("grid, bases", [((6, 12), [0j]), ((12, 24), [0j, 0.1j, -0.2 + 0.4j])])
def test_a_kernel_gram_that_is_not_finite_is_named_at_its_first_entry(weight, grid, bases):
    # K = (1 + t + t^2) / weight, t = z conj(w), and the symmetrizing sum
    # K(z, w) + conj(K(w, z)) overflows: at every pair for weight 1e-308, away
    # from the first rows for 1.5e-308. 80 samples for a lone certificate,
    # 296 for a sweep: INCONCLUSIVE, as before, now with a coded note naming
    # the first K(z, w) that is not finite
    kernel, pts = WeightedHardy([weight] * 3), SampleSet.default(grid=grid)
    first = np.argwhere(~np.isfinite(gram(kernel, pts).entries))[0].tolist()
    note = f"NON_FINITE: K(z, w) is not finite at position {first}"
    reports = cnp_basepoint_sweep(kernel, bases, pts) if len(bases) > 1 else \
        [cnp_certify(kernel, bases[0], pts)]
    for rep in reports:
        assert rep.verdict.status is Verdict.INCONCLUSIVE and not rep.vanish_flag
        assert rep.to_json_dict()["min_eig"] is None
        assert rep.notes[0] == note and rep.notes[-1] == EVIDENCE_NOTE


# ------------------------- a second positive eigenvalue of 1/K: early stop

def counted_steps(monkeypatch):
    """Patch cnp.range_steps to record each step the range finder is asked for."""
    steps, range_steps = [], cnp.range_steps

    def counted(*args):
        for step in range_steps(*args):
            steps.append(step[2])
            yield step
    monkeypatch.setattr(cnp, "range_steps", counted)
    return steps


@pytest.mark.parametrize("kernel", [DBR_BLASCHKE, DBR_POWER_2])
def test_a_not_psd_sweep_at_n_2056_is_certified_from_one_range_finder_block(monkeypatch, kernel):
    # the finder stalled there (resid 242 for Blaschke {0, 0.5}), so every base
    # assembled its 2056^2 defect and paid a dense eigvalsh: ~20 s a sweep
    pts = SampleSet.default(grid=(32, 64), r_max=0.99)
    n = len(pts)
    steps = counted_steps(monkeypatch)
    assembled = recorded(monkeypatch, cnp, "_defect_gram")
    tracemalloc.start()
    try:
        reports = cnp_basepoint_sweep(kernel, [0j, 0.3 + 0j, -0.2 + 0.4j, pts.points[40]], pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 2056 and steps == [None] and not assembled
    assert [r.verdict.status for r in reports] == [Verdict.NOT_PSD] * 4
    assert peak < 2 * 16 * n ** 2


def test_a_not_psd_sweep_at_n_1160_stops_on_a_16_column_krylov_basis(monkeypatch):
    # b = z^2: the compression of R onto the probe's columns of omega shows a
    # second positive eigenvalue, and so does m on the Krylov basis
    # [q1, orth(R q1 - q1 m11)]: the finder stops there, and each base is
    # certified by a Rayleigh quotient
    pts = SampleSet.default(grid=(24, 48))
    steps = counted_steps(monkeypatch)
    assembled = recorded(monkeypatch, cnp, "_defect_gram")
    quotients = recorded(monkeypatch, cnp, "_rayleigh_quotient")
    reports = cnp_basepoint_sweep(DBR_POWER_2, [0j, 0.3 + 0j, -0.2 + 0.4j], pts)
    assert len(pts) == 1160 and steps == [None] and not assembled and len(quotients) == 3
    assert [r.verdict.status for r in reports] == [Verdict.NOT_PSD] * 3
    rec = quotients[0][0]
    assert rec.q.shape == (1160, 2 * RITZ_PROBE) and rec.resid is None


def test_a_base_on_a_sample_takes_its_quotient_on_the_kept_samples(monkeypatch):
    # m covers every sample, the base's too; the quotient's vector is the lowest
    # eigenvector of the compression onto [1, diag(u) q] over the kept samples,
    # zero at the dropped one, and its quotient is within 0.1 % of the smallest
    # eigenvalue. (This truncated kernel's NOT_PSD is false, so the
    # Cauchy-Schwarz guard makes it INCONCLUSIVE.)
    kernel = DeBrangesRovnyak(family_symbol("blaschke", {"zeros": [0.9]}, 64).series())
    pts = disk_296()
    bases = [pts.points[40], pts.points[250]]
    assembled = recorded(monkeypatch, cnp, "_defect_gram")
    reports = cnp_basepoint_sweep(kernel, bases, pts)
    assert not assembled
    for base, rep in zip(bases, reports):
        assert rep.n_samples == len(pts) - 1 and rep.verdict.status is Verdict.INCONCLUSIVE
        min_eig, scale = eigvalsh_reference(kernel, base, pts)
        assert min_eig - 2 * RITZ_RESIDUAL * max(1.0, scale) <= rep.verdict.min_eig <= 0.999 * min_eig
        assert rep.verdict.min_eig < -10 * rep.verdict.tol


@pytest.mark.parametrize("kernel, grid", [
    (DBR_AFFINE, (12, 24)), (DBR_AFFINE, (24, 48)),
    (DeBrangesRovnyak(family_symbol("moebius_over", {"A": 1.5, "B": 2.5})), (12, 24)),
    (DeBrangesRovnyak(family_symbol("moebius_over", {"A": 1.5, "B": 2.5})), (24, 48)),
    (DruryArveson(2), (12, 24)), (DruryArveson(2), (24, 48)),
])
def test_complete_pick_kernels_never_stop_the_range_finder_early(monkeypatch, kernel, grid):
    n = grid[0] * grid[1] + 8
    if kernel.dim:
        pts = ball_points(n, 2, r_max=0.95, seed=5)
    else:
        pts = SampleSet.default(seed=5, grid=grid, r_max=0.95)
    steps = counted_steps(monkeypatch)
    rec = cnp.factor_reciprocal(gram(kernel, pts, True))
    assert rec.resid is not None and steps[-1] is not None   # every residual pass ran


# -------------------------------------------- Cauchy-Schwarz on the kernel Gram

@pytest.mark.parametrize("zero, order, status", [
    # truncation made each of these a false NOT_PSD
    (0.6, 32, Verdict.INCONCLUSIVE), (0.9, 64, Verdict.INCONCLUSIVE),
    (0.95, 64, Verdict.INCONCLUSIVE), (0.99, 64, Verdict.INCONCLUSIVE),
    (0.95, 128, Verdict.INCONCLUSIVE), (0.99, 128, Verdict.INCONCLUSIVE),
    # accurate enough: Cauchy-Schwarz holds to rounding (e = 3.2e-12 at 0.99, 256)
    (0.9, 128, Verdict.PSD), (0.99, 256, Verdict.PSD),
])
def test_a_degree_one_blaschke_kernel_breaking_cauchy_schwarz_is_not_a_disproof(zero, order, status):
    b = family_symbol("blaschke", {"zeros": [zero]}, order).series()
    rep = cnp_certify(DeBrangesRovnyak(b), 0j, SampleSet.default())
    assert rep.verdict.status is status
    flagged = [n for n in rep.notes if n.startswith("KERNEL_INCONSISTENT")]
    if status is Verdict.INCONCLUSIVE:
        assert rep.verdict.min_eig < -10 * rep.verdict.tol   # NOT_PSD without the guard
        (note,) = flagged
        assert "give a series symbol more coefficients" in note and "samples i = " in note
        e = float(note.split(" by ")[1].split()[0])
        assert cnp.CS_BAND < e < 1.2 * abs(rep.verdict.min_eig)
    else:
        assert not flagged


def test_a_cauchy_schwarz_note_keeps_psd_and_withdraws_not_psd(monkeypatch):
    # as though K broke Cauchy-Schwarz at samples 3 and 7: PSD stands, and
    # NOT_PSD, assembled or from a Rayleigh quotient, becomes INCONCLUSIVE
    monkeypatch.setattr(cnp, "gram", lambda *a: replace(gram(*a), cs_excess=(2e-8, 3, 7)))
    cases = [(Szego(), SampleSet.default(seed=1, grid=(4, 8)), Verdict.PSD),
             (DBR_POWER_2, SampleSet.default(grid=(4, 8)), Verdict.INCONCLUSIVE),
             (DBR_BLASCHKE, disk_296(), Verdict.INCONCLUSIVE)]
    for kernel, pts, status in cases:
        for rep in [cnp_certify(kernel, 0j, pts)] + cnp_basepoint_sweep(kernel, [0j], pts):
            assert rep.verdict.status is status
            assert sum(n.startswith("KERNEL_INCONSISTENT") and "2.000e-08" in n
                       and "i = 3, j = 7" in n for n in rep.notes) == 1


@pytest.mark.parametrize("grid", [(6, 12), (12, 24)])   # 80 samples lone, 296 a sweep
def test_a_kernel_gram_that_is_not_finite_gets_no_cauchy_schwarz_note(grid):
    # K(z, w) + conj(K(w, z)) overflows away from the first rows, and the
    # excess of an inf is no measure of inaccurate kernel values
    kernel, pts = WeightedHardy([1.5e-308] * 3), SampleSet.default(grid=grid)
    reports = [cnp_certify(kernel, 0j, pts)] if len(pts) < RITZ_MIN_N else \
        cnp_basepoint_sweep(kernel, [0j, 0.1j, -0.2 + 0.4j], pts)
    for rep in reports:
        assert rep.verdict.status is Verdict.INCONCLUSIVE
        assert [n.split(":")[0] for n in rep.notes] == ["NON_FINITE", EVIDENCE_NOTE.split(":")[0]]


# ------------------------------------------- the range finder's probe block

def ball_bases(dim):
    return [(0j,) * dim, (0.3 + 0j,) + (0j,) * (dim - 1), (-0.2 + 0.1j, 0.4j) + (0j,) * (dim - 2)]


@pytest.mark.parametrize("kernel, n", [
    (Szego(), 296), (DruryArveson(2), 300), (DruryArveson(2), 1160),
    (DruryArveson(5), 300), (DruryArveson(5), 1160),
])
def test_r_of_rank_below_the_probe_is_factored_in_one_step_of_eight_columns(monkeypatch, kernel, n):
    # 1/K = 1 - <z, w> has rank d + 1 (Szego: 2): the first RITZ_PROBE columns
    # of the first block span it, and one residual pass meets the target
    if kernel.dim:
        pts, bases = ball_points(n, kernel.dim), ball_bases(kernel.dim)
    else:
        pts, bases = disk_296(), [0j, 0.3 + 0j, -0.2 + 0.4j]
    steps = counted_steps(monkeypatch)
    factored = recorded(monkeypatch, cnp, "factor_reciprocal")
    assembled = recorded(monkeypatch, cnp, "_defect_gram")
    reports = cnp_basepoint_sweep(kernel, bases, pts)
    ((kernel_gram,),) = factored
    rec = cnp.factor_reciprocal(kernel_gram)
    target = RITZ_RESIDUAL * float(np.min(np.abs(np.diagonal(rec.entries))))
    assert len(pts) == n and steps[0] is None and steps[1] == rec.resid <= target
    assert len(steps) == 4 and rec.q.shape[1] == linalg.RITZ_PROBE   # the sweep's and this one
    assert [r.verdict.status for r in reports] == [Verdict.PSD] * 3 and not assembled


def planted_reciprocal(n):
    """R = J + e1 e1^H - e2 e2^H - 0.5 e3 e3^H, e1..e3 orthonormal and orthogonal
    to the ones vector: rank 4, two positive eigenvalues (n and 1) and a
    diagonal near 1, as a Gram with R formed."""
    rng = np.random.default_rng(11)
    v = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))])
    v = np.linalg.qr(v)[0]
    r = linalg.hermitian_from_raw((v * [n, 1.0, -1.0, -0.5]) @ v.conj().T)
    return replace(r, min_modulus=1.0 / r.scale, r_rows=n, r_norm=float(np.linalg.norm(r.entries)))


def test_a_planted_r_with_two_positive_eigenvalues_stops_on_the_probe(monkeypatch):
    # the probe's m shows the second positive eigenvalue, so the finder stops
    # before any residual pass, on eight columns; each base's Rayleigh quotient
    # is then within 0.1 % of its defect's smallest eigenvalue
    n = 300
    steps = counted_steps(monkeypatch)
    rec = cnp.factor_reciprocal(planted_reciprocal(n))
    assert steps == [None] and rec.resid is None and rec.q.shape[1] == linalg.RITZ_PROBE
    rng = np.random.default_rng(12)
    keep = np.ones(n, dtype=bool)
    for _ in range(3):
        u = 1.0 + 0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        verdict = cnp._factored_verdict(rec, u, keep, None)
        ref = linalg.psd_verdict(cnp._defect_gram(u, rec.entries, keep))
        assert verdict.status is ref.status is Verdict.NOT_PSD
        assert abs(verdict.min_eig - ref.min_eig) <= 1e-3 * abs(ref.min_eig)


def test_the_rayleigh_quotient_needs_no_explicit_q():
    # Blaschke {0, 0.5} at n = 1160: each base's quotient, of x = V C T^H y =
    # lambda U y with no U formed, is the quotient of U y from an explicit
    # thin Q to 1e-12 relative
    pts, bases = SampleSet.default(grid=(24, 48)), [0j, 0.3 + 0j, -0.2 + 0.4j]
    reports = cnp_basepoint_sweep(DBR_BLASCHKE, bases, pts)
    rec = cnp.factor_reciprocal(gram(DBR_BLASCHKE, pts, True))
    keep = np.ones(len(pts), dtype=bool)
    for base, rep in zip(bases, reports):
        defect = NormalizedDefect(DBR_BLASCHKE, base)
        u = defect.base_column(DBR_BLASCHKE.points(pts))[:, 0] / math.sqrt(defect.kbb)
        v = np.hstack([np.ones((len(pts), 1)), u[:, None] * rec.q, np.zeros((len(pts), 1))])
        basis, t = np.linalg.qr(v)
        g = np.outer(t[:, 0], t[:, 0].conj()) - t[:, 1:-1] @ rec.m @ t[:, 1:-1].conj().T
        x = basis @ np.linalg.eigh(0.5 * (g + g.conj().T))[1][:, 0]
        explicit = cnp._rayleigh_quotient(rec, u, x)[0]
        assert rep.verdict.status is Verdict.NOT_PSD
        assert abs(rep.verdict.min_eig - explicit) <= 1e-12 * abs(explicit)


def test_a_singular_or_near_singular_t_gives_a_quotient_without_raising():
    # V = [1, diag(u) q, 0]: u = 0 on q's rows makes V's first k + 1 columns
    # dependent, T' (T without its zero last row and column) exactly singular,
    # and D = J, PSD, so no quotient settles the base; a constant u and q's
    # first column 1 / sqrt(n) make T' singular to rounding, and the quotient
    # still finds D's negative eigenvalue. No T' is inverted, so neither raises
    n = 300
    keep = np.ones(n, dtype=bool)
    m = np.diag([3.0, 1.0, -1.0, -0.5, 0, 0, 0, 0]).astype(complex)
    q = np.eye(n, 8, dtype=complex)
    u = np.where(np.arange(n) < 8, 0.0, 0.5 + 0j)
    rec = cnp.Reciprocal((q * m.diagonal()) @ q.conj().T, q, m, None, 3.0)
    assert cnp._factored_verdict(rec, u, keep, None) is None
    r = planted_reciprocal(n).entries
    sketch = r @ (np.random.default_rng(13).normal(size=(n, 7)) + 0j)
    q = np.linalg.qr(np.hstack([np.ones((n, 1)), sketch]))[0]
    rec = cnp.Reciprocal(r, q, q.conj().T @ r @ q, None, float(np.max(np.abs(r))))
    u = np.full(n, 0.5 + 0j)
    t = np.linalg.qr(np.hstack([np.ones((n, 1)), u[:, None] * q]), mode="r")
    assert np.min(np.abs(t.diagonal())) < 1e-14 * np.max(np.abs(t.diagonal()))
    ref = linalg.psd_verdict(cnp._defect_gram(u, r, keep))
    verdict = cnp._factored_verdict(rec, u, keep, None)
    assert verdict.status is ref.status is Verdict.NOT_PSD
    assert abs(verdict.min_eig - ref.min_eig) <= 1e-3 * abs(ref.min_eig)


# ------------------- a tol below the default tightens PSD alone, never NOT_PSD

@pytest.mark.parametrize("pts", [SampleSet.default(), disk_296()], ids=["assembled-80", "weyl-296"])
def test_a_tiny_tol_turns_no_rounding_into_a_disproof(monkeypatch, pts):
    # Szego's defect is PSD; at tol 1e-17 its rounding-level min_eig (-8.8e-15
    # at 80 samples) once read NOT_PSD, on the assembled and the factored route
    assembled = recorded(monkeypatch, cnp, "_defect_gram")
    rep = cnp_certify(Szego(), 0j, pts, 1e-17)
    assert bool(assembled) is (len(pts) < RITZ_MIN_N)
    assert rep.verdict.status is Verdict.INCONCLUSIVE
    assert rep.verdict.min_eig < -10 * 1e-17 and rep.verdict.tol == 1e-17
    assert cnp_certify(DBR_BLASCHKE, 0j, pts, 1e-17).verdict.status is Verdict.NOT_PSD


def test_a_rayleigh_quotient_in_the_default_band_is_no_disproof_at_a_tiny_tol():
    # D = J - R = -delta v v^H on 296 samples (u = 1), with no Weyl bound: the
    # Rayleigh quotient -delta disproves only below -10 times the default tol
    # 1e-9, whatever smaller tol is given; the assembled defect agrees
    n, rng = 296, np.random.default_rng(14)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = (v - v.mean()) / np.linalg.norm(v - v.mean())
    keep, u = np.ones(n, dtype=bool), np.ones(n, dtype=complex)
    q = np.linalg.qr(np.column_stack([np.ones(n), v, rng.normal(size=(n, 6))]))[0]
    for delta, status in [(1e-9, Verdict.INCONCLUSIVE), (1e-6, Verdict.NOT_PSD)]:
        r = hermitian_from_raw(1.0 + delta * np.outer(v, v.conj())).entries
        rec = cnp.Reciprocal(r, q, q.conj().T @ r @ q, None, float(np.max(np.abs(r))))
        verdict = cnp._factored_verdict(rec, u, keep, 1e-17)   # None: no disproof, so assemble
        assert (verdict.status if verdict else Verdict.INCONCLUSIVE) is status
        ref = linalg.psd_verdict(cnp._defect_gram(u, r, keep), 1e-17)
        assert ref.status is status and ref.min_eig == pytest.approx(-delta, rel=1e-3)


# ---------------------------- psi o b: the defect of a congruent dBR kernel

def after_automorphism(b: Rational, a: complex) -> Rational:
    """psi o b for psi(w) = (w - a) / (1 - conj(a) w): the rational map
    (num - a den) / (den - conj(a) num)."""
    n = max(b.num.size, b.den.size)
    num, den = (np.pad(c, (0, n - c.size)) for c in (b.num, b.den))
    return Rational(num - a * den, den - np.conj(a) * num)


@seed(20210)
@settings(database=None)
@given(schur_symbols(), st.floats(0.0, 0.5), phases)
def test_cnp_is_invariant_under_an_automorphism_after_the_symbol(b, a_mod, a_phase):
    # the dBR kernel of psi o b is that of b under the congruence by
    # sqrt(1 - |a|^2) / (1 - conj(a) b(z)), so the normalized defect is the same
    pts, bases = SampleSet.default(), [0j, 0.2 - 0.1j]
    reports = cnp_basepoint_sweep(DeBrangesRovnyak(b), bases, pts)
    moved = cnp_basepoint_sweep(DeBrangesRovnyak(after_automorphism(b, a_mod * a_phase)), bases, pts)
    for rep, mov in zip(reports, moved):
        assert mov.verdict.status is rep.verdict.status
        tol = min(rep.verdict.tol, mov.verdict.tol)
        assert abs(mov.verdict.min_eig - rep.verdict.min_eig) <= 0.1 * tol


# ------------------------------ b o phi: the defect of a pulled-back dBR kernel

def before_automorphism(b: Rational, a: complex) -> Rational:
    """b o phi for phi(z) = (z + a) / (1 + conj(a) z), by homogenized
    substitution: p(phi(z)) (1 + conj(a) z)^n for p = num and den, n the
    larger of their degrees, so the factor cancels in the quotient."""
    P = np.polynomial.polynomial
    n = max(b.num.size, b.den.size) - 1
    up, down = [a, 1.0], [1.0, np.conj(a)]
    def homogenized(p):
        out = np.zeros(n + 1, dtype=complex)
        for k, c in enumerate(p):
            term = P.polymul(P.polypow(up, k), P.polypow(down, n - k))   # trimmed
            out[: term.size] += c * term
        return out
    return Rational(homogenized(b.num), homogenized(b.den))


@seed(20210)
@settings(database=None)
@given(schur_symbols(), st.floats(0.0, 0.5), phases)
def test_cnp_is_invariant_under_an_automorphism_before_the_symbol(b, a_mod, a_phase):
    # the dBR kernel of b o phi is the pull-back of b's kernel by phi under the
    # congruence by sqrt(1 - |a|^2) / (1 + conj(a) z), so the normalized defect
    # of b o phi on phi^-1(X) at phi^-1(beta) is that of b on X at beta
    a = a_mod * a_phase
    inverse = lambda w: (w - a) / (1 - np.conj(a) * w)
    pts, bases = SampleSet.default(), [0j, 0.2 - 0.1j]
    reports = cnp_basepoint_sweep(DeBrangesRovnyak(b), bases, pts)
    moved = cnp_basepoint_sweep(
        DeBrangesRovnyak(before_automorphism(b, a)),
        [inverse(beta) for beta in bases],
        SampleSet.explicit(inverse(np.asarray(pts.points))),
    )
    for rep, mov in zip(reports, moved):
        assert mov.verdict.status is rep.verdict.status
        tol = min(rep.verdict.tol, mov.verdict.tol)
        assert abs(mov.verdict.min_eig - rep.verdict.min_eig) <= 0.1 * tol
