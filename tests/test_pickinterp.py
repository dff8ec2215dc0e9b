import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnpcert.errors import LengthMismatch, NotStrictlySolvable
from cnpcert.families import family_symbol
from cnpcert.kernels import Szego, unit_ball_probe
from cnpcert.linalg import Verdict, gram, pick_matrix, smallest_eigenvalue
from cnpcert.pickinterp import (
    InterpolationProblem,
    pick_solvable,
    sampled_sup,
    schur_interpolant,
)


def make_strict_problem(seed, n_nodes=3):
    """Seeded nodes with decent Gram conditioning, targets scaled until the
    Pick matrix is comfortably positive definite."""
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


# ---------------------------------------------------------------- solvability

def test_solvable_examples():
    assert pick_solvable(InterpolationProblem((0,), (0.5,))).status is Verdict.PSD
    v = pick_solvable(InterpolationProblem((0, 0.5), (0, 0.5)))
    assert v.status is Verdict.PSD and abs(v.min_eig) < 1e-12
    assert pick_solvable(InterpolationProblem((0,), (2,))).status is Verdict.NOT_PSD


def test_problem_validation():
    with pytest.raises(LengthMismatch):
        InterpolationProblem((0, 0.5), (0.5,))
    with pytest.raises(ValueError):
        InterpolationProblem((0.3, 0.3 + 1e-9), (0.5, 0.5))
    with pytest.raises(ValueError):
        InterpolationProblem((1.2,), (0.5,))


def test_nodes_must_be_distinct():
    with pytest.raises(ValueError):
        InterpolationProblem((0.3, 0.3), (0.1, 0.2))


# --------------------------------------------------------------- construction

def test_constant_interpolant():
    f = schur_interpolant(InterpolationProblem((0,), (0.5,)))
    assert abs(f(0.3) - 0.5) < 1e-15
    assert abs(f(-0.7j) - 0.5) < 1e-15


def test_two_node_interpolant_closed_form():
    # nodes (0, 1/2), targets (0, 3/8): the recursion yields f(z) = 0.75 z
    f = schur_interpolant(InterpolationProblem((0, 0.5), (0, 0.375)))
    assert abs(f(0.0)) < 1e-15
    assert abs(f(0.5) - 0.375) < 1e-15
    assert abs(f(0.25) - 0.1875) < 1e-14
    assert sampled_sup(f) <= 1 + 1e-6


def test_extremal_data_rejected():
    with pytest.raises(NotStrictlySolvable):
        schur_interpolant(InterpolationProblem((0, 0.5), (0, 0.5)))


def test_unsolvable_data_rejected():
    with pytest.raises(NotStrictlySolvable):
        schur_interpolant(InterpolationProblem((0,), (2,)))


@given(st.integers(min_value=0, max_value=10**6))
def test_interpolant_roundtrip(seed):
    prob = make_strict_problem(seed)
    f = schur_interpolant(prob)
    for x, t in zip(prob.nodes, prob.targets):
        assert abs(f(x) - t) < 1e-8
    assert sampled_sup(f) <= 1 + 1e-6
    assert all(abs(g) <= 1 + 1e-10 for _, g in f.stages)
    # construction success implies the solvability verdict
    assert pick_solvable(prob).status is Verdict.PSD


# ------------------------------------------------------------------ blaschke

def test_blaschke_single_zero_at_origin():
    b = family_symbol("blaschke", {"zeros": [0.0]}).series()
    assert abs(b.coeffs[1] - 1.0) < 1e-15
    assert np.max(np.abs(np.delete(b.coeffs, 1))) < 1e-15


def test_blaschke_double_zero_at_origin():
    b = family_symbol("blaschke", {"zeros": [0.0, 0.0]}).series()
    assert abs(b.coeffs[2] - 1.0) < 1e-15
    assert np.max(np.abs(np.delete(b.coeffs, 2))) < 1e-15


def test_blaschke_matches_rational_form():
    b = family_symbol("blaschke", {"zeros": [0.0, 0.5]})
    for z in [0.3, -0.6, 0.2 + 0.4j, 0.8j]:
        expect = z * (z - 0.5) / (1 - 0.5 * z)
        assert abs(b(z) - expect) < 1e-10


def test_blaschke_zero_outside_disk_rejected():
    with pytest.raises(ValueError):
        family_symbol("blaschke", {"zeros": [1.0]})


@given(
    st.lists(
        st.complex_numbers(max_magnitude=0.6).filter(lambda z: abs(z) < 0.6),
        min_size=1,
        max_size=3,
    )
)
def test_blaschke_products_stay_in_unit_ball(zeros):
    b = family_symbol("blaschke", {"zeros": zeros})
    assert unit_ball_probe(b) <= 1 + 1e-9
