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
from cnpcert.errors import (
    NearZeroSample,
    NonInvertible,
    NotSchurClass,
    WitnessInconsistent,
)
from cnpcert.families import (
    affine_symbol,
    blaschke_symbol,
    family_witness,
    moebius_over_symbol,
    power_symbol,
    scaled_identity_symbol,
)
from cnpcert.linalg import Verdict
from cnpcert.sampling import SampleSet
from cnpcert.series import PowerSeries, divide

PTS = SampleSet.default()
COLLISION_PAIR = [0.4, 0.125]  # b(z1) = b(z2) for the Blaschke zeros {0, 1/2}


# ------------------------------------------------------------------- kernel

def test_dbr_kernel_identity_symbol():
    k = dbr_kernel(PowerSeries([0.0, 1.0]))
    assert abs(k.evaluate(0.3, -0.2j) - 1.0) < 1e-14


def test_dbr_kernel_half_symbol():
    k = dbr_kernel(scaled_identity_symbol(2))
    assert abs(k.evaluate(0.5, 0.5) - 1.25) < 1e-14


def test_dbr_kernel_rejects_large_symbol():
    with pytest.raises(NotSchurClass):
        dbr_kernel(PowerSeries([0.0, 1.2]))


def test_dbr_kernel_rejects_constant_symbol():
    with pytest.raises(ValueError):
        dbr_kernel(PowerSeries([0.5, 0.0]))


# ---------------------------------------------------------------- injectivity

def test_injectivity_squared_symbol_collides():
    assert injectivity_probe(power_symbol(2), PTS) is InjectivityStatus.NOT_INJ


def test_injectivity_affine_symbol():
    b = affine_symbol(1.0, 3.0)  # (z + 1)/3
    assert injectivity_probe(b, PTS) is InjectivityStatus.INJ_EVIDENCE


def test_injectivity_single_point_inconclusive():
    assert injectivity_probe(power_symbol(2), [0.5]) is InjectivityStatus.INCONCLUSIVE


def test_injectivity_nonfinite_inconclusive():
    b = PowerSeries([0.0, 1e308, 1e308])
    assert injectivity_probe(b, [0.5, 0.9]) is InjectivityStatus.INCONCLUSIVE


def test_injectivity_blaschke2_needs_collision_samples():
    b = blaschke_symbol([0.0, 0.5])
    assert injectivity_probe(b, PTS) is InjectivityStatus.INJ_EVIDENCE
    assert (
        injectivity_probe(b, PTS.extended(COLLISION_PAIR)) is InjectivityStatus.NOT_INJ
    )


# ----------------------------------------------------------------- inversion

def test_inverse_of_affine_is_exact():
    A, B = 0.5, 2.0
    h = functional_inverse(affine_symbol(A, B))
    # closed form B z - A, centered at b(0) = A/B
    assert h.center == A / B
    assert abs(h.coeffs[1] - B) < 1e-14
    assert np.max(np.abs(h.coeffs[2:])) < 1e-14
    for w in [0.3, -0.2 + 0.1j, 0.6]:
        assert abs(h(w) - (B * w - A)) < 1e-12


@pytest.mark.parametrize("A,B,tol", [(-1.0, -2.0, 1e-10), (2.0, 4.0, 1e-10), (1.2, 2.4, 2e-10)])
def test_inverse_of_moebius_matches_closed_form(A, B, tol):
    # |A| barely above 1 puts the inverse's convergence radius near 1 and
    # costs a little cancellation at high orders, hence the looser tolerance
    h = functional_inverse(moebius_over_symbol(A, B))
    n = np.arange(1, 33)
    expect = B / A ** n
    assert np.max(np.abs(h.coeffs[1:33] - expect)) < tol
    assert abs(h.coeffs[0]) < 1e-14


def test_inverse_of_quadratic_head():
    h = functional_inverse(PowerSeries([0, 1, 1] + [0] * 62))
    assert np.allclose(h.coeffs[:6], [0, 1, -1, 2, -5, 14])


def test_noninvertible_symbol():
    with pytest.raises(NonInvertible):
        functional_inverse(power_symbol(2))


def test_reversion_residual_small_for_gallery_symbols():
    for b in [affine_symbol(0.5, 2), moebius_over_symbol(-1, -2), blaschke_symbol([0.3])]:
        assert reversion_residual(functional_inverse(b), b) < 1e-11


# ----------------------------------------------------------------- margins

def test_schwarz_pick_margin_half_symbol():
    b = scaled_identity_symbol(2)
    margin = schwarz_pick_margin(b, PTS)
    expect = min(abs(z) / 2 for z in PTS)
    assert abs(margin - expect) < 1e-12
    assert margin > 0


def test_schwarz_pick_margin_squared_symbol_passes_while_cnp_fails():
    # the margin check is necessary-only: z^2 passes it, injectivity is the
    # binding failure
    b = power_symbol(2)
    margin = schwarz_pick_margin(b, PTS)
    expect = min(abs(z) - abs(z) ** 2 for z in PTS)
    assert abs(margin - expect) < 1e-12
    assert margin > 0
    rep = cnp_certify(dbr_kernel(b), 0j, PTS)
    assert rep.verdict.status is Verdict.NOT_PSD


def test_schwarz_pick_margin_rejects_origin():
    with pytest.raises(ValueError):
        schwarz_pick_margin(scaled_identity_symbol(2), [1e-8, 0.5])


def test_blaschke2_margin_reported_but_overall_fail():
    b = blaschke_symbol([0.0, 0.5])
    rep = cnp_criterion(b, None, PTS.extended(COLLISION_PAIR))
    assert rep.schwarz_pick_margin > 0
    assert rep.injectivity is InjectivityStatus.NOT_INJ
    assert rep.overall is CriterionVerdict.FAIL


# ----------------------------------------------------------------- witnesses

def test_extension_margin_affine_constant_witness():
    b = affine_symbol(0.0, 2.0)
    margin = extension_margin(b, ExtensionWitness(PowerSeries.constant(0.5)), PTS)
    assert abs(margin - 0.5) < 1e-12  # min |1 - 0| - 1/2 over the grid


def test_extension_margin_identity_symbol_boundary():
    b = PowerSeries([0.0, 1.0])
    margin = extension_margin(b, ExtensionWitness(PowerSeries.constant(1.0)), PTS)
    assert abs(margin) < 1e-12


def test_extension_witness_scaled_is_inconsistent():
    b = affine_symbol(0.5, 2.0)
    bad = ExtensionWitness(PowerSeries.constant(2.0 / 2.0))  # 2x the true 1/B
    with pytest.raises(WitnessInconsistent):
        extension_margin(b, bad, PTS)


def test_local_quotient_agrees_with_witness_near_center():
    cases = [
        (affine_symbol(0.5, 2.0), family_witness("affine", {"A": 0.5, "B": 2.0})),
        (moebius_over_symbol(-1, -2), family_witness("moebius_over", {"A": -1, "B": -2})),
        (blaschke_symbol([0.3]), family_witness("blaschke", {"zeros": [0.3]})),
    ]
    for b, q in cases:
        h = functional_inverse(b)
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
    for a_vals, scales, build, fam in [
        ([0, 0.2, -0.35, 0.25 + 0.25j, -0.4j], [1.0, 1.2, 1.5, 2.0, 3.0],
         affine_symbol, "affine"),
        ([1.0, -1.25, 1.5j, 1.2 + 0.9j, 2.0], [1.0, 1.25, 1.5, 2.0, 2.5],
         moebius_over_symbol, "moebius_over"),
    ]:
        for A in a_vals:
            for s in scales:
                B = s * (abs(A) + 1.0)
                b = build(A, B)
                w = ExtensionWitness(family_witness(fam, {"A": A, "B": B}))
                rep = cnp_criterion(b, w, PTS)
                assert rep.schwarz_pick_margin >= 0.0, (fam, A, B)
                assert rep.extension_margin >= -1e-9, (fam, A, B)
                assert rep.overall is CriterionVerdict.PASS_WITH_EXTENSION


# ------------------------------------------------------------- decomposition

GALLERY = [
    affine_symbol(0.5, 2),
    affine_symbol(0.3j, -1.5),
    moebius_over_symbol(-1, -2),
    moebius_over_symbol(1.2, 2.4),
    scaled_identity_symbol(1.5),
    scaled_identity_symbol(2),
    scaled_identity_symbol(4),
    blaschke_symbol([0.3]),
    power_symbol(2),
    blaschke_symbol([0.0, 0.5]),
]


def test_decomposition_agrees_with_defect_certification():
    for b in GALLERY:
        dec = decomposition_check(b, PTS)
        cert = cnp_certify(dbr_kernel(b), 0j, PTS)
        assert dec.status is not Verdict.INCONCLUSIVE
        assert dec.status is cert.verdict.status


def test_decomposition_examples():
    assert decomposition_check(scaled_identity_symbol(2), PTS).status is Verdict.PSD
    assert (
        decomposition_check(power_symbol(2), SampleSet.default().extended([0.5, -0.5])).status
        is Verdict.NOT_PSD
    )
    v = decomposition_check(blaschke_symbol([0.3]), PTS)
    assert v.status is Verdict.PSD
    assert v.min_eig >= -v.tol


# -------------------------------------------------------- companion identity

def test_identity_residual_rounding_level():
    fs = {
        "one": PowerSeries.constant(1.0, order=4),
        "z": PowerSeries.identity(order=4),
        "z2": PowerSeries([0, 0, 1, 0, 0]),
    }
    for b in [affine_symbol(0.5, 2), moebius_over_symbol(-1, -2), blaschke_symbol([0.0, 0.5])]:
        for f in fs.values():
            assert decomposition_identity_residual(b, f, PTS) < 1e-10


def test_identity_residual_szego_section_is_annihilated():
    # f equal to the kernel section at b(0) makes the companion vanish
    b = affine_symbol(0.5, 2)
    a = complex(b.coeffs[0])
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
            affine_symbol(0.5, 2), PowerSeries.constant(1.0), [1e-7, 0.5]
        )


def test_identity_requires_invertible_symbol():
    with pytest.raises(NonInvertible):
        decomposition_identity_residual(power_symbol(2), PowerSeries.constant(1.0), PTS)


# ----------------------------------------------------------------- criterion

def test_criterion_pass_with_extension():
    b = scaled_identity_symbol(2)
    rep = cnp_criterion(b, ExtensionWitness(PowerSeries.constant(0.5)), PTS)
    assert rep.overall is CriterionVerdict.PASS_WITH_EXTENSION
    assert rep.reversion_ok
    assert rep.extension_supplied


def test_criterion_pass_necessary_without_witness():
    rep = cnp_criterion(scaled_identity_symbol(2), None, PTS)
    assert rep.overall is CriterionVerdict.PASS_NECESSARY
    assert not rep.extension_supplied


def test_criterion_fail_squared_symbol():
    rep = cnp_criterion(power_symbol(2), None, PTS)
    assert rep.overall is CriterionVerdict.FAIL
    assert rep.injectivity is InjectivityStatus.NOT_INJ
    assert not rep.reversion_ok


def test_criterion_fail_blaschke2_reversion_blows_up():
    # without collision samples the FAIL still comes from the meaningless
    # truncated inverse (its radius of convergence is ~0.07)
    rep = cnp_criterion(blaschke_symbol([0.0, 0.5]), None, PTS)
    assert not rep.reversion_ok
    assert rep.overall is CriterionVerdict.FAIL


def test_criterion_rejects_non_unit_ball_symbol():
    with pytest.raises(NotSchurClass):
        cnp_criterion(PowerSeries([0.0, 1.5]), None, PTS)


def test_not_inj_implies_not_psd_on_collision_samples():
    cases = [
        (power_symbol(2), [0.5, -0.5]),
        (blaschke_symbol([0.0, 0.5]), COLLISION_PAIR),
    ]
    for b, pair in cases:
        pts = SampleSet.explicit(pair + [0.05, 0.1j])
        assert injectivity_probe(b, pts) is InjectivityStatus.NOT_INJ
        rep = cnp_certify(dbr_kernel(b), 0j, pts)
        assert rep.verdict.status is Verdict.NOT_PSD


def test_criterion_report_json():
    rep = cnp_criterion(scaled_identity_symbol(2), ExtensionWitness(PowerSeries.constant(0.5)), PTS)
    d = rep.to_json_dict()
    json.dumps(d)
    assert d["overall"] == "PASS_WITH_EXTENSION"
    assert d["injectivity"] == "INJ_EVIDENCE"
    assert d["extension_margin"] is not None
