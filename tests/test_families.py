import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from cnpcert.cli import main
from cnpcert.dbr import closed_form_witness
from cnpcert.descriptors import kernel_from_json, symbol_from_json, witness_from_json
from cnpcert.families import (
    FAMILIES,
    family_symbol,
    integer_from_json,
    params_from_json,
)
from cnpcert.kernels import DruryArveson
from cnpcert.series import Rational

from strategies import phases


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# one spec per family, with a shipped witness where the family has one
SPECS = {
    "affine": ({"A": [0.5, 0], "B": [2, 0]}, True),
    "moebius_over": ({"A": [1.2, 0.9], "B": [4, 0]}, True),
    "scaled_identity": ({"R": 2}, True),
    "power": ({"k": 2}, False),
    "blaschke": ({"zeros": [[0.3, 0.1]]}, True),
}


def test_every_family_has_a_spec_here():
    assert set(SPECS) == set(FAMILIES)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_json_spec_goes_through_the_registry(name):
    params, has_witness = SPECS[name]
    spec = {"family": name, **params}
    b = symbol_from_json(spec, order=16)
    direct = family_symbol(name, params_from_json(spec), order=16)
    assert b.order == 16
    assert (b.num == direct.num).all() and (b.den == direct.den).all()
    witness = closed_form_witness(direct)
    assert (witness is not None) is has_witness
    if has_witness:
        assert (witness_from_json("shipped", b).num == witness.num).all()


@st.composite
def degree_one_families(draw):
    """An affine or moebius_over map at A and B = s (|A| + 1), s >= 1, with |A|
    >= 1 for moebius_over, or a one-zero Blaschke factor."""
    name = draw(st.sampled_from(["affine", "moebius_over", "blaschke"]))
    if name == "blaschke":
        return name, {"zeros": [draw(st.floats(0.0, 0.95)) * draw(phases)]}
    A = draw(st.floats(1.0 if name == "moebius_over" else 0.0, 3.0)) * draw(phases)
    return name, {"A": A, "B": draw(st.floats(1.0, 3.0)) * (abs(A) + 1.0) * draw(phases)}


@st.composite
def degree_one_literals(draw):
    """A series literal alpha + beta z with beta != 0 and |alpha| + |beta| <= 1."""
    beta = draw(st.floats(0.01, 1.0))
    return Rational([draw(st.floats(0.0, 1.0 - beta)) * draw(phases), beta * draw(phases)], [1.0])


@seed(20210)
@settings(database=None)
@given(st.one_of(degree_one_families().map(lambda f: family_symbol(*f)), degree_one_literals()),
       st.floats(0.0, 0.9), phases)
def test_a_shipped_witness_is_the_rational_quotient_by_the_left_inverse(b, r, phase):
    # q(z) = (z - b(0)) / h(z), h = b.revert(), away from b(0), where both vanish;
    # named or listed, every degree-1 map has one
    q = closed_form_witness(b)
    z, b0 = r * phase, complex(b(0))
    assume(abs(z - b0) > 1e-3)
    assert isinstance(q, Rational) and q.degree <= 1
    assert abs(q(z) - (z - b0) / b.revert()(z)) <= 1e-12


def test_python_params_ignore_extra_keys():
    b = family_symbol("affine", {"A": 0.5, "B": 2.0, "note": "unused"}, order=4)
    c = b.series().coeffs
    assert c[0] == 0.25 and c[1] == 0.5


@pytest.mark.parametrize(
    "spec, shipped, message",
    [
        ({"family": "x"}, False, "input error [ValueError]: unknown symbol family 'x'"),
        ({"family": [1]}, False, "input error [ValueError]: unknown symbol family [1]"),
        ({"family": "affine", "A": [0, 0]}, False, "input error [KeyError]: 'B'"),
        (
            {"family": "power", "k": 2}, True,
            "input error [ValueError]: a map of degree 2 has no shipped witness; "
            "degree 1 does",
        ),
        (
            {"family": "blaschke", "zeros": [[0, 0], [0.5, 0]]}, True,
            "input error [ValueError]: a map of degree 2 has no shipped witness; "
            "degree 1 does",
        ),
    ],
)
def test_registry_error_paths_exit_3(capsys, spec, shipped, message):
    argv = ["hbcheck", "--b", json.dumps(spec)] + (["--witness", "shipped"] if shipped else [])
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.strip() == message


@pytest.mark.parametrize("value, expected", [(2, 2), (2.0, 2), (-3, -3), (0.0, 0)])
def test_integer_reader_accepts_integral_numbers(value, expected):
    got = integer_from_json(value)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value", [1.5, 2.9, True, "2", None, [2], math.inf, math.nan])
def test_integer_reader_rejects_everything_else(value):
    with pytest.raises(ValueError, match="expected an integer"):
        integer_from_json(value)


def test_power_exponent_must_be_integral(capsys):
    # k = 1.5 must not be truncated to 1 and pass with the k = 1 witness
    code, out, err = run_cli(
        capsys, ["hbcheck", "--b", '{"family":"power","k":1.5}', "--witness", "shipped"]
    )
    assert code == 3
    assert out == ""
    assert "expected an integer, got 1.5" in err
    b = symbol_from_json({"family": "power", "k": 2.0})
    assert (b.num == family_symbol("power", {"k": 2}).num).all()


def test_drury_arveson_dimension_must_be_integral(capsys):
    # dim = 2.9 must not be truncated to DA(2) and certified PSD
    code, out, err = run_cli(capsys, ["cnp", "--kernel", '{"kind":"drury_arveson","dim":2.9}'])
    assert code == 3
    assert out == ""
    assert "expected an integer, got 2.9" in err
    assert kernel_from_json({"kind": "drury_arveson", "dim": 2.0}) == DruryArveson(2)


@pytest.mark.parametrize("zeros", [0.5, None])
def test_blaschke_zeros_must_be_an_array(capsys, zeros):
    # a number or null died with a TypeError traceback: exit 1, read as FAIL
    spec = json.dumps({"family": "blaschke", "zeros": zeros})
    code, out, err = run_cli(capsys, ["hbcheck", "--b", spec])
    assert code == 3
    assert out == ""
    assert "expected an array" in err


def test_ball_defect_base_must_be_an_array(capsys):
    # base 5 for a ball inner died with a TypeError traceback: exit 1, read as NOT_PSD
    desc = {"kind": "normalized_defect", "inner": {"kind": "drury_arveson", "dim": 2}, "base": 5}
    with pytest.raises(ValueError, match="expected an array"):
        kernel_from_json(desc)
    code, out, err = run_cli(capsys, ["cnp", "--kernel", json.dumps(desc)])
    assert code == 3
    assert out == ""
