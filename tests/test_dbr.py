import json

import numpy as np
import pytest

from cnpcert.cnp import cnp_certify
from cnpcert.dbr import (
    CriterionVerdict,
    ExtensionWitness,
    InjectivityStatus,
    cnp_criterion,
    dbr_kernel,
    decomposition_check,
    decomposition_identity_residual,
    extension_margin,
    functional_inverse,
    injectivity_probe,
    reversion_residual,
    schwarz_pick_margin,
)
from cnpcert.descriptors import symbol_from_json, witness_from_json
from cnpcert.errors import (
    NearZeroSample,
    NonInvertible,
    NotSchurClass,
    WitnessInconsistent,
)
from cnpcert.families import family_symbol, family_witness
from cnpcert.linalg import Verdict
from cnpcert.sampling import SampleSet
from cnpcert.series import PowerSeries, Rational, divide

PTS = SampleSet.default()
COLLISION_PAIR = [0.4, 0.125]  # b(z1) = b(z2) for the Blaschke zeros {0, 1/2}


# ------------------------------------------------------------------- kernel

def test_dbr_kernel_identity_symbol():
    k = dbr_kernel(Rational([0.0, 1.0], [1.0]))
    assert abs(k.evaluate(0.3, -0.2j) - 1.0) < 1e-14


def test_dbr_kernel_half_symbol():
    k = dbr_kernel(family_symbol("scaled_identity", {"R": 2}))
    assert abs(k.evaluate(0.5, 0.5) - 1.25) < 1e-14


def test_dbr_kernel_rejects_large_symbol():
    with pytest.raises(NotSchurClass):
        dbr_kernel(Rational([0.0, 1.2], [1.0]))


def test_dbr_kernel_rejects_constant_symbol():
    with pytest.raises(ValueError):
        dbr_kernel(Rational([0.5, 0.0], [1.0]))


# ---------------------------------------------------------------- injectivity

def test_injectivity_squared_symbol_collides():
    assert injectivity_probe(family_symbol("power", {"k": 2}), PTS) is InjectivityStatus.NOT_INJ


def test_injectivity_affine_symbol():
    b = family_symbol("affine", {"A": 1.0, "B": 3.0})  # (z + 1)/3
    assert injectivity_probe(b, PTS) is InjectivityStatus.INJ_EVIDENCE


def test_injectivity_single_point_inconclusive():
    assert injectivity_probe(family_symbol("power", {"k": 2}), [0.5]) is InjectivityStatus.INCONCLUSIVE


def test_injectivity_nonfinite_inconclusive():
    b = PowerSeries([0.0, 1e308, 1e308])
    assert injectivity_probe(b, [0.5, 0.9]) is InjectivityStatus.INCONCLUSIVE


def test_injectivity_blaschke2_needs_collision_samples():
    b = family_symbol("blaschke", {"zeros": [0.0, 0.5]})
    assert injectivity_probe(b, PTS) is InjectivityStatus.INJ_EVIDENCE
    assert (
        injectivity_probe(b, PTS.extended(COLLISION_PAIR)) is InjectivityStatus.NOT_INJ
    )


# ----------------------------------------------------------------- inversion

def test_inverse_of_affine_is_exact():
    A, B = 0.5, 2.0
    h = functional_inverse(family_symbol("affine", {"A": A, "B": B}))
    # the adjugate of (z + A) / B: the closed form B w - A
    assert (h.num == [-A, B]).all() and (h.den == [1.0]).all()
    for w in [0.3, -0.2 + 0.1j, 0.6]:
        assert abs(h(w) - (B * w - A)) < 1e-12


@pytest.mark.parametrize("A,B,tol", [(-1.0, -2.0, 1e-10), (2.0, 4.0, 1e-10), (1.2, 2.4, 2e-10)])
def test_inverse_of_moebius_matches_closed_form(A, B, tol):
    # the adjugate B w / (A - w), through its coefficient view
    h = functional_inverse(family_symbol("moebius_over", {"A": A, "B": B})).series()
    n = np.arange(1, 33)
    expect = B / A ** n
    assert np.max(np.abs(h.coeffs[1:33] - expect)) < tol
    assert abs(h.coeffs[0]) < 1e-14


def test_inverse_of_quadratic_head():
    h = functional_inverse(Rational([0, 1, 1], [1], 64))
    assert np.allclose(h.coeffs[:6], [0, 1, -1, 2, -5, 14])


def test_noninvertible_symbol():
    with pytest.raises(NonInvertible):
        functional_inverse(family_symbol("power", {"k": 2}))


def test_reversion_residual_small_for_gallery_symbols():
    for b in [family_symbol("affine", {"A": 0.5, "B": 2}),
              family_symbol("moebius_over", {"A": -1, "B": -2}),
              family_symbol("blaschke", {"zeros": [0.3]})]:
        assert reversion_residual(functional_inverse(b), b) < 1e-11


# ----------------------------------------------------------------- margins

def test_schwarz_pick_margin_half_symbol():
    b = family_symbol("scaled_identity", {"R": 2})
    margin = schwarz_pick_margin(b, PTS)
    expect = min(abs(z) / 2 for z in PTS)
    assert abs(margin - expect) < 1e-12
    assert margin > 0


def test_schwarz_pick_margin_squared_symbol_passes_while_cnp_fails():
    # the margin check is necessary-only: z^2 passes it, injectivity is the
    # binding failure
    b = family_symbol("power", {"k": 2})
    margin = schwarz_pick_margin(b, PTS)
    expect = min(abs(z) - abs(z) ** 2 for z in PTS)
    assert abs(margin - expect) < 1e-12
    assert margin > 0
    rep = cnp_certify(dbr_kernel(b), 0j, PTS)
    assert rep.verdict.status is Verdict.NOT_PSD


def test_schwarz_pick_margin_rejects_origin():
    with pytest.raises(ValueError):
        schwarz_pick_margin(family_symbol("scaled_identity", {"R": 2}), [1e-8, 0.5])


def test_blaschke2_margin_reported_but_overall_fail():
    b = family_symbol("blaschke", {"zeros": [0.0, 0.5]})
    rep = cnp_criterion(b, None, PTS.extended(COLLISION_PAIR))
    assert rep.schwarz_pick_margin > 0
    assert rep.injectivity is InjectivityStatus.NOT_INJ
    assert rep.overall is CriterionVerdict.FAIL


# ----------------------------------------------------------------- witnesses

def test_extension_margin_affine_constant_witness():
    b = family_symbol("affine", {"A": 0.0, "B": 2.0})
    margin = extension_margin(b, ExtensionWitness(PowerSeries.constant(0.5)), PTS)
    assert abs(margin - 0.5) < 1e-12  # min |1 - 0| - 1/2 over the grid


def test_extension_margin_identity_symbol_boundary():
    b = PowerSeries([0.0, 1.0])
    margin = extension_margin(b, ExtensionWitness(PowerSeries.constant(1.0)), PTS)
    assert abs(margin) < 1e-12


def test_extension_witness_scaled_is_inconsistent():
    b = family_symbol("affine", {"A": 0.5, "B": 2.0})
    bad = ExtensionWitness(PowerSeries.constant(2.0 / 2.0))  # 2x the true 1/B
    with pytest.raises(WitnessInconsistent):
        extension_margin(b, bad, PTS)


def test_local_quotient_agrees_with_witness_near_center():
    cases = [
        ("affine", {"A": 0.5, "B": 2.0}),
        ("moebius_over", {"A": -1, "B": -2}),
        ("blaschke", {"zeros": [0.3]}),
    ]
    for name, params in cases:
        b, q = family_symbol(name, params).series(), family_witness(name, params)
        # the local quotient of the series reversion
        h = b.revert()
        a = complex(b.coeffs[0])
        num = PowerSeries.identity(order=h.order, center=a) - PowerSeries.constant(
            a, order=h.order, center=a
        )
        q_local = divide(num, h)
        zs = a + 0.05 * np.exp(2j * np.pi * np.arange(12) / 12)
        assert np.max(np.abs(q_local(zs) - q(zs))) < 1e-8


def test_family_sweep_margins():
    # across admissible parameter grids the sampled-range margin stays
    # nonnegative and consistent witnesses keep a margin above -1e-9
    for a_vals, scales, fam in [
        ([0, 0.2, -0.35, 0.25 + 0.25j, -0.4j], [1.0, 1.2, 1.5, 2.0, 3.0], "affine"),
        ([1.0, -1.25, 1.5j, 1.2 + 0.9j, 2.0], [1.0, 1.25, 1.5, 2.0, 2.5], "moebius_over"),
    ]:
        for A in a_vals:
            for s in scales:
                B = s * (abs(A) + 1.0)
                b = family_symbol(fam, {"A": A, "B": B})
                w = ExtensionWitness(family_witness(fam, {"A": A, "B": B}))
                rep = cnp_criterion(b, w, PTS)
                assert rep.schwarz_pick_margin >= 0.0, (fam, A, B)
                assert rep.extension_margin >= -1e-9, (fam, A, B)
                assert rep.overall is CriterionVerdict.PASS_WITH_EXTENSION


# ------------------------------------------------------------- decomposition

GALLERY = [
    family_symbol("affine", {"A": 0.5, "B": 2}),
    family_symbol("affine", {"A": 0.3j, "B": -1.5}),
    family_symbol("moebius_over", {"A": -1, "B": -2}),
    family_symbol("moebius_over", {"A": 1.2, "B": 2.4}),
    family_symbol("scaled_identity", {"R": 1.5}),
    family_symbol("scaled_identity", {"R": 2}),
    family_symbol("scaled_identity", {"R": 4}),
    family_symbol("blaschke", {"zeros": [0.3]}),
    family_symbol("power", {"k": 2}),
    family_symbol("blaschke", {"zeros": [0.0, 0.5]}),
]


def test_decomposition_agrees_with_defect_certification():
    for b in GALLERY:
        dec = decomposition_check(b, PTS)
        cert = cnp_certify(dbr_kernel(b), 0j, PTS)
        assert dec.status is not Verdict.INCONCLUSIVE
        assert dec.status is cert.verdict.status


def test_decomposition_examples():
    assert decomposition_check(family_symbol("scaled_identity", {"R": 2}), PTS).status is Verdict.PSD
    assert (
        decomposition_check(family_symbol("power", {"k": 2}),
                            SampleSet.default().extended([0.5, -0.5])).status
        is Verdict.NOT_PSD
    )
    v = decomposition_check(family_symbol("blaschke", {"zeros": [0.3]}), PTS)
    assert v.status is Verdict.PSD
    assert v.min_eig >= -v.tol


# -------------------------------------------------------- companion identity

def test_identity_residual_rounding_level():
    fs = {
        "one": PowerSeries.constant(1.0, order=4),
        "z": PowerSeries.identity(order=4),
        "z2": PowerSeries([0, 0, 1, 0, 0]),
    }
    for b in [family_symbol("affine", {"A": 0.5, "B": 2}),
              family_symbol("moebius_over", {"A": -1, "B": -2}),
              family_symbol("blaschke", {"zeros": [0.0, 0.5]})]:
        for f in fs.values():
            assert decomposition_identity_residual(b, f, PTS) < 1e-10


def test_identity_residual_szego_section_is_annihilated():
    # f equal to the kernel section at b(0) makes the companion vanish
    b = family_symbol("affine", {"A": 0.5, "B": 2})
    a = complex(b(0))
    f = PowerSeries(np.conj(a) ** np.arange(65), 0j)
    arr = np.asarray(PTS.points)
    vals = b(arr)
    c = complex(f(a)) * (1 - abs(a) ** 2)
    g = (f(vals) - c / (1 - np.conj(a) * vals)) / arr
    assert np.max(np.abs(g)) < 1e-12
    assert decomposition_identity_residual(b, f, PTS) < 1e-10


def test_identity_rejects_near_origin_samples():
    with pytest.raises(NearZeroSample):
        decomposition_identity_residual(
            family_symbol("affine", {"A": 0.5, "B": 2}), PowerSeries.constant(1.0), [1e-7, 0.5]
        )


def test_identity_requires_invertible_symbol():
    with pytest.raises(NonInvertible):
        decomposition_identity_residual(
            family_symbol("power", {"k": 2}), PowerSeries.constant(1.0), PTS)


# ----------------------------------------------------------------- criterion

def test_criterion_pass_with_extension():
    b = family_symbol("scaled_identity", {"R": 2})
    rep = cnp_criterion(b, ExtensionWitness(PowerSeries.constant(0.5)), PTS)
    assert rep.overall is CriterionVerdict.PASS_WITH_EXTENSION
    assert rep.reversion_ok
    assert rep.extension_supplied


def test_criterion_pass_necessary_without_witness():
    rep = cnp_criterion(family_symbol("scaled_identity", {"R": 2}), None, PTS)
    assert rep.overall is CriterionVerdict.PASS_NECESSARY
    assert not rep.extension_supplied


def test_criterion_fail_squared_symbol():
    rep = cnp_criterion(family_symbol("power", {"k": 2}), None, PTS)
    assert rep.overall is CriterionVerdict.FAIL
    assert rep.injectivity is InjectivityStatus.NOT_INJ
    assert not rep.reversion_ok


def test_criterion_fail_blaschke2_reversion_blows_up():
    # without collision samples the FAIL still comes from the meaningless
    # truncated inverse (its radius of convergence is ~0.07)
    rep = cnp_criterion(family_symbol("blaschke", {"zeros": [0.0, 0.5]}), None, PTS)
    assert not rep.reversion_ok
    assert rep.overall is CriterionVerdict.FAIL


def test_criterion_an_overflowing_reversion_is_a_diverged_round_trip():
    # the Newton reversion of blaschke_deg2_0_05's order-512 series overflows;
    # that raised a ValueError, an exit-3 input error for `gallery --order 512`
    rep = cnp_criterion(family_symbol("blaschke", {"zeros": [0.0, 0.5]}, 512), None, PTS)
    assert rep.overall is CriterionVerdict.FAIL and not rep.reversion_ok
    assert rep.to_json_dict()["reversion_residual"] is None
    assert any(n.startswith("reversion overflowed (series coefficients must be finite)")
               for n in rep.notes)


def test_criterion_of_a_moebius_map_whose_adjugate_has_a_pole_at_0():
    # 1 / (2 + z): its adjugate (2 w - 1) / (-w) is no Rational, so its left
    # inverse is the series reversion, as for the same map given as a series
    b = Rational([1.0], [2.0, 1.0])
    rep = cnp_criterion(b, ExtensionWitness(PowerSeries([0.0, -0.5])), PTS)
    assert rep.reversion_ok and rep.reversion_residual <= 1e-15
    assert rep.overall is CriterionVerdict.PASS_WITH_EXTENSION, rep.notes
    as_series = Rational(b.series().coeffs, [1], 64)
    assert cnp_criterion(as_series, None, PTS).overall is CriterionVerdict.PASS_NECESSARY


# the eight symbols of the ROADMAP panel whose dBR kernels are CNP
PANEL = [{"family": "blaschke", "zeros": [[z, 0]]} for z in (0.3, 0.6, 0.9, 0.95, 0.99)] + [
    {"family": "moebius_over", "A": [1.5, 0], "B": [2.5, 0]},
    {"family": "moebius_over", "A": [-1, 0], "B": [-2, 0]},
    {"family": "affine", "A": [0.5, 0], "B": [2, 0]},
]


@pytest.mark.parametrize("order", [32, 64, 128, 256, 512])
@pytest.mark.parametrize("spec", PANEL, ids=lambda spec: json.dumps(spec))
def test_the_panel_of_cnp_symbols_is_right_at_every_order(spec, order):
    # truncation made 9 cnp and 22 criterion cells of this panel wrong, some
    # by an exception: NotSchurClass, WitnessInconsistent, or an overflow
    b = symbol_from_json(spec, order)
    rep = cnp_criterion(b, witness_from_json("shipped", spec), PTS)
    assert rep.overall is CriterionVerdict.PASS_WITH_EXTENSION, rep.notes
    assert cnp_certify(dbr_kernel(b), 0j, PTS).verdict.status is Verdict.PSD


def test_criterion_rejects_non_unit_ball_symbol():
    with pytest.raises(NotSchurClass):
        cnp_criterion(Rational([0.0, 1.5], [1.0]), None, PTS)


def test_not_inj_implies_not_psd_on_collision_samples():
    cases = [
        (family_symbol("power", {"k": 2}), [0.5, -0.5]),
        (family_symbol("blaschke", {"zeros": [0.0, 0.5]}), COLLISION_PAIR),
    ]
    for b, pair in cases:
        pts = SampleSet.explicit(pair + [0.05, 0.1j])
        assert injectivity_probe(b, pts) is InjectivityStatus.NOT_INJ
        rep = cnp_certify(dbr_kernel(b), 0j, pts)
        assert rep.verdict.status is Verdict.NOT_PSD


def test_criterion_report_json():
    rep = cnp_criterion(
        family_symbol("scaled_identity", {"R": 2}), ExtensionWitness(PowerSeries.constant(0.5)), PTS)
    d = rep.to_json_dict()
    json.dumps(d)
    assert d["overall"] == "PASS_WITH_EXTENSION"
    assert d["injectivity"] == "INJ_EVIDENCE"
    assert d["extension_margin"] is not None
