"""Acceptance suite: one test per shipped criterion, each printing a verdict
line. Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Everything here is pinned: tolerances are stated inline, expected values come
from closed forms or independent constructions, and random draws are seeded.
"""

import io
import json
from contextlib import redirect_stdout
from math import comb

import numpy as np

from cnpcert.cli import main


def quiet_main(argv):
    """Run the CLI in-process, discarding its report stdout."""
    with redirect_stdout(io.StringIO()):
        return main(argv)
from cnpcert.cnp import cnp_basepoint_sweep, cnp_certify
from cnpcert.dbr import (
    dbr_kernel,
    decomposition_check,
    decomposition_identity_residual,
    functional_inverse,
    reversion_residual,
)
from cnpcert.descriptors import symbol_from_json
from cnpcert.families import family_symbol
from cnpcert.gallery import default_suite_dict, load_suite, sample_set_from_config
from cnpcert.kernels import Szego
from cnpcert.linalg import (
    Verdict,
    gram,
    hermitian_from_raw,
    pick_matrix,
    smallest_eigenvalue,
)
from cnpcert.pickinterp import (
    InterpolationProblem,
    pick_solvable,
    sampled_sup,
    schur_interpolant,
)
from cnpcert.sampling import SampleSet
from cnpcert.series import PowerSeries, Rational

SUITE = load_suite(default_suite_dict())
ENTRY = {e.name: e for e in SUITE}


def entry_symbol(name, order=64):
    return symbol_from_json(ENTRY[name].b_spec, order)


def entry_samples(name):
    return sample_set_from_config(ENTRY[name].samples_cfg)


def passing_entries():
    return [e for e in SUITE if e.expected_criterion == "PASS_WITH_EXTENSION"]


def test_acceptance_01_szego_positive_certificate():
    pts = SampleSet.default(seed=20210, grid=(6, 12), r_max=0.9, n_random=0)
    rep = cnp_certify(Szego(), 0j, pts, tol=1e-9)
    assert rep.verdict.status is Verdict.PSD
    assert rep.verdict.min_eig >= -1e-9
    print(
        f"ACCEPTANCE 1 PASS: szego defect PSD on 6x12 grid, "
        f"min_eig={rep.verdict.min_eig:+.2e} >= -1e-9"
    )


def test_acceptance_02_model_space_dichotomy():
    deg1 = cnp_certify(
        dbr_kernel(family_symbol("blaschke", {"zeros": [0.3]})), 0j, SampleSet.default())
    assert deg1.verdict.status is Verdict.PSD
    assert abs(deg1.verdict.min_eig) <= 1e-10

    sq = cnp_certify(
        dbr_kernel(Rational([0, 0, 1], [1], 64)), 0j, SampleSet.explicit([0.5, -0.5])
    )
    assert sq.verdict.status is Verdict.NOT_PSD
    assert abs(sq.verdict.min_eig - (-0.1333333333)) <= 1e-6

    deg2 = cnp_certify(
        dbr_kernel(family_symbol("blaschke", {"zeros": [0.0, 0.5]})), 0j, SampleSet.default())
    assert deg2.verdict.status is Verdict.NOT_PSD
    print(
        "ACCEPTANCE 2 PASS: degree-1 inner symbol defect vanishes "
        f"(|min_eig|={abs(deg1.verdict.min_eig):.1e} <= 1e-10), squared symbol "
        f"min_eig={sq.verdict.min_eig:.7f} (=-2/15 within 1e-6), degree-2 "
        "Blaschke NOT_PSD on the default grid"
    )


def test_acceptance_03_criterion_family_sweeps():
    pts = SampleSet.default()
    checked = 0
    for A in [0, 0.2, -0.35, 0.25 + 0.25j, -0.4j]:
        for s in [1.0, 1.2, 1.5, 2.0, 3.0]:
            B = s * (abs(A) + 1.0)
            spec = {"family": "affine", "A": [A.real, A.imag] if isinstance(A, complex) else [A, 0],
                    "B": [B, 0]}
            code = quiet_main(["hbcheck", "--b", json.dumps(spec), "--witness", "shipped"])
            assert code == 0, (A, B)
            b = symbol_from_json(spec)
            cert = cnp_certify(dbr_kernel(b), 0j, pts)
            assert cert.verdict.status is Verdict.PSD and cert.verdict.min_eig >= -1e-8
            checked += 1
    for A in [1.0, -1.25, 1.5j, 1.2 + 0.9j, 2.0]:
        for s in [1.0, 1.25, 1.5, 2.0, 2.5]:
            A = complex(A)
            B = s * (abs(A) + 1.0)
            spec = {"family": "moebius_over", "A": [A.real, A.imag], "B": [B, 0]}
            code = quiet_main(["hbcheck", "--b", json.dumps(spec), "--witness", "shipped"])
            assert code == 0, (A, B)
            b = symbol_from_json(spec)
            cert = cnp_certify(dbr_kernel(b), 0j, pts)
            assert cert.verdict.status is Verdict.PSD and cert.verdict.min_eig >= -1e-8
            checked += 1
    assert checked == 50
    print(
        "ACCEPTANCE 3 PASS: 25 affine + 25 moebius admissible parameter pairs, "
        "hbcheck exit 0 with shipped witnesses, defect PSD with min_eig >= -1e-8"
    )


def test_acceptance_04_decomposition_equivalence():
    for e in SUITE:
        b = entry_symbol(e.name)
        pts = entry_samples(e.name)
        dec = decomposition_check(b, pts)
        cert = cnp_certify(dbr_kernel(b), 0j, pts)
        assert dec.status is not Verdict.INCONCLUSIVE
        assert cert.verdict.status is not Verdict.INCONCLUSIVE
        assert dec.status is cert.verdict.status, e.name
    print(
        f"ACCEPTANCE 4 PASS: decomposition and defect certification agree on "
        f"all {len(SUITE)} gallery entries"
    )


def test_acceptance_05_companion_identity_residuals():
    pts = SampleSet.default()
    worst = 0.0
    count = 0
    for e in SUITE:
        b = entry_symbol(e.name)
        if abs(b.series().coeffs[1]) < 1e-10:
            continue  # no left inverse exists, the identity's premise fails
        a = complex(b(0))
        tests = {
            "one": PowerSeries.constant(1.0, order=4),
            "z": PowerSeries.identity(order=4),
            "z^2": PowerSeries([0, 0, 1, 0, 0]),
            "kernel-section": PowerSeries(np.conj(a) ** np.arange(65), 0j),
        }
        for f in tests.values():
            worst = max(worst, decomposition_identity_residual(b, f, pts))
            count += 1
    assert worst < 1e-10
    print(
        f"ACCEPTANCE 5 PASS: companion identity residual < 1e-10 across "
        f"{count} (symbol, test-function) pairs (worst {worst:.2e})"
    )


def test_acceptance_06_series_reversion():
    worst = 0.0
    for e in passing_entries():
        b = entry_symbol(e.name, order=64)
        resid = reversion_residual(functional_inverse(b), b)
        worst = max(worst, resid)
    assert worst < 1e-9

    # quadratic closed form: inverse of z + z^2 has signed Catalan coefficients
    b = Rational([0, 1, 1], [1], 64)
    h = functional_inverse(b)
    catalan = np.array(
        [0] + [(-1) ** (n + 1) * comb(2 * (n - 1), n - 1) // n for n in range(1, 65)],
        dtype=float,
    )
    rel = np.abs(h.coeffs - catalan) / np.maximum(1.0, np.abs(catalan))
    assert rel.max() < 1e-10
    print(
        f"ACCEPTANCE 6 PASS: round-trip residual < 1e-9 at order 64 on "
        f"{len(passing_entries())} gallery symbols (worst {worst:.2e}); "
        f"z+z^2 inverse matches the closed form per-coefficient "
        f"(worst relative dev {rel.max():.2e} < 1e-10)"
    )


def test_acceptance_07_base_point_independence():
    bases = [0j, 0.3 + 0.1j, -0.2j]
    for e in SUITE:
        kernel = dbr_kernel(entry_symbol(e.name))
        pts = entry_samples(e.name)
        reports = cnp_basepoint_sweep(kernel, bases, pts)
        statuses = {r.verdict.status for r in reports}
        assert Verdict.INCONCLUSIVE not in statuses, e.name
        assert len(statuses) == 1, (e.name, statuses)
    print(
        f"ACCEPTANCE 7 PASS: verdicts identical across bases "
        f"{{0, 0.3+0.1i, -0.2i}} on all {len(SUITE)} gallery kernels"
    )


def _strict_problem(seed, n_nodes=3):
    rng = np.random.default_rng(seed)
    while True:
        nodes = []
        while len(nodes) < n_nodes:
            p = 0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            if all(abs(p - q) > 0.25 for q in nodes):
                nodes.append(complex(p))
        if smallest_eigenvalue(gram(Szego(), nodes)) > 0.1:
            break
    targets = np.array(
        [0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) for _ in range(n_nodes)]
    )
    t = 1.0
    while smallest_eigenvalue(pick_matrix(Szego(), nodes, t * targets)) <= 0.05:
        t *= 0.6
    return InterpolationProblem(tuple(nodes), tuple(t * targets))


def test_acceptance_08_pick_interpolation():
    worst_res, worst_sup = 0.0, 0.0
    for seed in range(100):
        prob = _strict_problem(31000 + seed)
        f = schur_interpolant(prob)
        worst_res = max(
            worst_res, max(abs(f(x) - t) for x, t in zip(prob.nodes, prob.targets))
        )
        worst_sup = max(worst_sup, sampled_sup(f, radius=0.999))
    assert worst_res < 1e-8
    assert worst_sup <= 1 + 1e-6
    v = pick_solvable(InterpolationProblem((0,), (2,)))
    assert v.status is Verdict.NOT_PSD
    print(
        f"ACCEPTANCE 8 PASS: 100 seeded 3-node problems, worst residual "
        f"{worst_res:.2e} < 1e-8, worst sampled sup {worst_sup:.6f} <= 1+1e-6; "
        "target 2 at the origin is NOT_PSD"
    )


def test_acceptance_09_eigensolver_oracle():
    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng(77000 + i)
        n = int(rng.integers(2, 33))
        diag = rng.uniform(-2.0, 2.0, n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(a)
        m = hermitian_from_raw(q @ np.diag(diag) @ q.conj().T)
        err = abs(smallest_eigenvalue(m) - diag.min()) / m.scale
        worst = max(worst, err)
    assert worst < 1e-10
    print(
        f"ACCEPTANCE 9 PASS: 200 planted-spectrum Hermitian matrices (n <= 32), "
        f"worst min-eig error {worst:.2e} of scale < 1e-10"
    )


def test_acceptance_10_riemann_map_consistency():
    pts = SampleSet.default()
    cases = [
        ("z/1.5", {"family": "scaled_identity", "R": [1.5, 0]}),
        ("z/2", {"family": "scaled_identity", "R": [2, 0]}),
        ("z/4", {"family": "scaled_identity", "R": [4, 0]}),
        ("z/(2-z)", {"family": "moebius_over", "A": [-1, 0], "B": [-2, 0]}),
    ]
    for label, spec in cases:
        code = quiet_main(["hbcheck", "--b", json.dumps(spec), "--witness", "shipped"])
        assert code == 0, label
        cert = cnp_certify(dbr_kernel(symbol_from_json(spec)), 0j, pts)
        assert cert.verdict.status is Verdict.PSD, label
    print(
        "ACCEPTANCE 10 PASS: elementary conformal restrictions z/R "
        "(R in {1.5, 2, 4}) and z/(2-z) pass hbcheck with witnesses and "
        "certify PSD"
    )
