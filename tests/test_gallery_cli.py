import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cnpcert import dbr, sampling
from cnpcert.cli import _parse_complex, main
from cnpcert.descriptors import symbol_from_json, witness_from_json
from cnpcert.errors import SuiteFormat
from cnpcert.gallery import default_suite_dict, load_suite, run_suite
from cnpcert.linalg import Verdict
from cnpcert.series import Rational


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ gallery

def test_default_suite_all_match(capsys):
    code, out, _ = run_cli(capsys, ["gallery"])
    assert code == 0
    report = json.loads(out)
    assert report["all_match"] is True
    assert len(report["entries"]) == 11
    names = [e["name"] for e in report["entries"]]
    assert names == sorted(names)


def test_suite_with_wrong_expectation_exits_1(tmp_path, capsys):
    doc = default_suite_dict()
    doc["entries"] = [e for e in doc["entries"] if e["name"] == "scaled_identity_r2"]
    doc["entries"][0]["expected"]["cnp"] = "NOT_PSD"
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["gallery", "--suite", str(path)])
    assert code == 1
    assert "scaled_identity_r2" in err
    report = json.loads(out)
    assert report["mismatches"] == ["scaled_identity_r2"]


def test_empty_suite_exits_0(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"entries": []}))
    code, out, _ = run_cli(capsys, ["gallery", "--suite", str(path)])
    assert code == 0
    assert json.loads(out)["entries"] == []


def test_suite_missing_fields_exit_3_lists_entries(tmp_path, capsys):
    doc = {
        "entries": [
            {"name": "ok", "b": {"family": "power", "k": 2},
             "expected": {"cnp": "NOT_PSD", "criterion": "FAIL"}},
            {"name": "broken1", "b": {"family": "power", "k": 2}},
            {"name": "broken2", "expected": {"cnp": "PSD", "criterion": "FAIL"}},
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["gallery", "--suite", str(path)])
    assert code == 3
    assert "broken1" in err and "broken2" in err


def test_each_gallery_entry_probes_its_symbol_once():
    # cnp_criterion and the DeBrangesRovnyak kernel both check sup |b| <= 1;
    # only the first check evaluates the symbol on the probe grid
    from cnpcert.gallery import run_entry
    from cnpcert.kernels import unit_ball_probe

    misses = unit_ball_probe.cache_info().misses
    for entry in load_suite(default_suite_dict())[:3]:
        assert run_entry(entry)["match"]
    assert unit_ball_probe.cache_info().misses - misses == 3


@pytest.mark.parametrize("order", [32, 64, 128, 256])
def test_a_vanishing_defect_gets_no_assembly_warning(order):
    # blaschke_deg1_03's defect vanishes identically; the rounding of its O(1)
    # terms, 2.3e-16, was measured against its scale 1.4e-15 and warned about
    from cnpcert.gallery import run_entry

    (entry,) = [e for e in load_suite(default_suite_dict()) if e.name == "blaschke_deg1_03"]
    result = run_entry(entry, order)
    assert result["match"] and "assembly warning" not in json.dumps(result)


def test_load_suite_validates():
    with pytest.raises(SuiteFormat):
        load_suite({"entries": [{"name": "x"}]})
    with pytest.raises(SuiteFormat):
        load_suite({"nope": 1})


def test_run_suite_deterministic_modulo_wall_time():
    doc = default_suite_dict()
    doc["entries"] = doc["entries"][:3]
    r1 = run_suite(doc, command="gallery")
    r2 = run_suite(doc, command="gallery")
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["inputs_digest"] == r2["inputs_digest"]


# ------------------------------------------------------------- command line

@pytest.mark.parametrize("argv", [
    ["cnp", "--kernel", '{"kind":"szego"}', "--bogus"],
    ["hbcheck", "--b", '{"family":"power","k":2}', "--grid"],
    ["cnp", "--kernel", '{"kind":"szego"}', "--order", "x"],
    # the truncation order reaches only the criterion: cnp and pick take none
    ["cnp", "--kernel", '{"kind":"szego"}', "--order", "64"],
    ["pick", "--problem", '{"nodes":[[0,0],[0.5,0]],"targets":[[0,0],[0.375,0]]}',
     "--order", "64"],
])
def test_a_malformed_command_line_is_an_input_error(capsys, argv):
    # argparse's own exit code, 2, would read as INCONCLUSIVE or PASS_NECESSARY
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == "" and "error:" in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0 and out.startswith("usage: cnpcert")


# ---------------------------------------------------------------------- cnp

def test_cnp_szego_exit_0(tmp_path, capsys):
    k = tmp_path / "szego.json"
    k.write_text('{"kind": "szego"}')
    code, out, _ = run_cli(
        capsys, ["cnp", "--kernel", str(k), "--base", "0", "--grid", "6x12", "--rmax", "0.9"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "PSD"
    assert rep["min_eig"] >= -1e-9


def test_cnp_squared_symbol_exit_1(capsys):
    code, out, _ = run_cli(
        capsys,
        ["cnp", "--kernel", '{"kind":"dbr","b":{"family":"power","k":2}}',
         "--points", "0.5,-0.5"],
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] == "NOT_PSD"
    assert abs(rep["min_eig"] - (-0.13333333333)) < 1e-6


def test_cnp_broken_kernel_exit_3(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["cnp", "--kernel", str(bad)])
    assert code == 3
    assert err


def test_cnp_missing_file_exit_3(capsys):
    code, _, err = run_cli(capsys, ["cnp", "--kernel", "/nonexistent/k.json"])
    assert code == 3


def test_cnp_writes_json_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, ["cnp", "--kernel", '{"kind":"szego"}', "--json", str(out_path)]
    )
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(out)


def test_cnp_complex_base_parsing(capsys):
    code, out, _ = run_cli(
        capsys, ["cnp", "--kernel", '{"kind":"szego"}', "--base", "0.3+0.1i"]
    )
    assert code == 0
    assert json.loads(out)["base"] == [0.3, 0.1]


def test_cnp_determinism(capsys):
    argv = ["cnp", "--kernel", '{"kind":"szego"}', "--seed", "7"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


# ------------------------------------------------------------------ hbcheck

def test_hbcheck_affine_with_witness_exit_0(capsys):
    code, out, _ = run_cli(
        capsys,
        ["hbcheck", "--b", '{"family":"affine","A":[0,0],"B":[2,0]}', "--witness", "shipped"],
    )
    assert code == 0
    assert json.loads(out)["overall"] == "PASS_WITH_EXTENSION"


def test_hbcheck_squared_symbol_exit_1(capsys):
    code, out, _ = run_cli(capsys, ["hbcheck", "--b", '{"family":"power","k":2}'])
    assert code == 1
    assert json.loads(out)["injectivity"] == "NOT_INJ"


@pytest.mark.parametrize("R", ["1e6", "1e8"])
def test_hbcheck_a_small_scaled_identity_is_injective_exit_0(capsys, R):
    # z / R: the collision threshold scales with max |b| over the samples,
    # so values all within 1e-7 of each other need not collide
    code, out, _ = run_cli(
        capsys, ["hbcheck", "--b", f'{{"family":"scaled_identity","R":{R}}}', "--witness", "shipped"]
    )
    assert code == 0
    assert json.loads(out)["injectivity"] == "INJ_EVIDENCE"


def test_hbcheck_a_small_scaled_identity_at_6000_samples_forms_few_pairs(capsys, monkeypatch):
    # all 6000 values of z / 1e8 once lay in one strip of the close-pair
    # search, whose candidate pairs grew with n^2 (317 MiB at 2000 samples)
    def counted(arr, eps):   # the pairs whose real parts lie within the strip, checked first
        re = np.sort(arr.real)
        assert np.sum(np.searchsorted(re, re + 2 * eps) - np.arange(re.size) - 1) < 2 * re.size
        return sampling.close_pairs(arr, eps)
    monkeypatch.setattr(dbr, "close_pairs", counted)
    code, out, _ = run_cli(
        capsys, ["hbcheck", "--b", '{"family":"scaled_identity","R":1e8}', "--witness", "shipped",
                 "--random", "6000"]
    )
    assert code == 0
    assert json.loads(out)["injectivity"] == "INJ_EVIDENCE"


def test_hbcheck_half_plane_case_exit_0(capsys):
    # A z/(z + B) with A = -1, B = -2 is z/(2 - z)
    code, out, _ = run_cli(
        capsys,
        ["hbcheck", "--b", '{"family":"moebius_over","A":[-1,0],"B":[-2,0]}',
         "--witness", "shipped"],
    )
    assert code == 0
    assert json.loads(out)["overall"] == "PASS_WITH_EXTENSION"


@pytest.mark.parametrize(
    "entry", [e for e in default_suite_dict()["entries"] if e.get("witness") == "shipped"],
    ids=lambda e: e["name"],
)
def test_hbcheck_a_shipped_witness_is_its_series_literal(capsys, entry):
    # a shipped witness is a Rational, like the series literal of its coefficients
    b = json.dumps(entry["b"])
    q = witness_from_json("shipped", symbol_from_json(entry["b"]))
    literal = json.dumps({"series": {"coeffs": [[c.real, c.imag] for c in q.num.tolist()]}})
    shipped = run_cli(capsys, ["hbcheck", "--b", b, "--witness", "shipped"])
    assert shipped[0] == 0
    assert run_cli(capsys, ["hbcheck", "--b", b, "--witness", literal]) == shipped


def test_hbcheck_an_origin_sample_is_dropped_from_the_margin(capsys):
    # the margin at 0 is the removable 0 - 0: a sample there once exited 3
    argv = ["hbcheck", "--b", '{"family":"affine","A":[0.5,0],"B":[2,0]}', "--witness", "shipped"]
    with_origin = run_cli(capsys, argv + ["--points", "0,0.5,-0.3j"])
    assert with_origin[0] == 0
    assert with_origin == run_cli(capsys, argv + ["--points", "0.5,-0.3j"])


def test_a_suite_entry_with_an_origin_sample_gets_its_verdicts():
    doc = default_suite_dict()
    doc["entries"] = [dict(doc["entries"][0], samples={"extra": [[0, 0]]})]
    report = run_suite(doc)
    assert report["all_match"], report["mismatches"]


def test_hbcheck_no_witness_exit_2(capsys):
    code, out, _ = run_cli(
        capsys, ["hbcheck", "--b", '{"family":"scaled_identity","R":[2,0]}']
    )
    assert code == 2
    assert json.loads(out)["overall"] == "PASS_NECESSARY"


def test_hbcheck_explicit_series_symbol(capsys):
    spec = json.dumps({"series": {"center": [0, 0], "coeffs": [[0, 0], [0.5, 0]]}})
    code, out, _ = run_cli(capsys, ["hbcheck", "--b", spec])
    assert code == 2


def _series_spec(coeffs, **extra):
    return json.dumps({"series": {"coeffs": [[c, 0] for c in coeffs], **extra}})


@pytest.mark.parametrize("order", [16, 64, 256])
def test_an_explicit_series_is_the_polynomial_it_lists(capsys, order):
    # z/2 + z^2/4 is reverted through --order like a named map of degree 2,
    # so trailing zeros change nothing; its round trip fails from order 64 on
    reports = [run_cli(capsys, ["hbcheck", "--b", _series_spec(c), "--order", str(order)])
               for c in ([0, 0.5, 0.25], [0, 0.5, 0.25, 0, 0])]
    assert reports[0] == reports[1]
    code, out, _ = reports[0]
    assert (code == 1) == (json.loads(out)["overall"] == "FAIL") == (order >= 64)


@pytest.mark.parametrize("order", [16, 64, 256])
def test_an_explicit_cnp_polynomial_never_fails(capsys, order):
    # z/2 + z^2/20 has CNP: its round trip stays clean at every order
    code, out, _ = run_cli(capsys, ["hbcheck", "--b", _series_spec([0, 0.5, 0.05]), "--order", str(order)])
    assert code == 2 and json.loads(out)["overall"] == "PASS_NECESSARY"


def test_a_series_literal_centered_off_0_exits_3_naming_the_center(capsys):
    spec = _series_spec([0, 0.5, 0.25], center=[0.5, 0])
    code, _, err = run_cli(capsys, ["hbcheck", "--b", spec])
    assert code == 3
    assert "series literals are centered at 0" in err


def test_hbcheck_non_unit_ball_symbol_exit_3(capsys):
    spec = json.dumps({"series": {"coeffs": [[0, 0], [1.5, 0]]}})
    code, _, err = run_cli(capsys, ["hbcheck", "--b", spec])
    assert code == 3
    assert "NOT_SCHUR_CLASS" in err


def test_hbcheck_a_degree_one_literal_has_a_shipped_witness(capsys):
    # 0.5z and 0.25 + 0.5z = (z + 0.5) / 2 are degree-1 maps like any named
    # family: the shipped witness is read off the map, the constant 0.5 for both
    literal = json.dumps({"series": {"coeffs": [[0.5, 0]]}})
    for coeffs in ([[0, 0], [0.5, 0]], [[0.25, 0], [0.5, 0]]):
        spec = json.dumps({"series": {"coeffs": coeffs}})
        shipped = run_cli(capsys, ["hbcheck", "--b", spec, "--witness", "shipped"])
        assert shipped[0] == 0
        assert run_cli(capsys, ["hbcheck", "--b", spec, "--witness", literal]) == shipped


@pytest.mark.parametrize("args", [
    ["gallery", "--order", "-1"],
    ["hbcheck", "--b", '{"family":"affine","A":[0.5,0],"B":[2,0]}', "--order", "-1"],
    ["hbcheck", "--b", '{"series":{"coeffs":[[0.25,0],[0.5,0]]}}', "--order", "-1"],
    ["hbcheck", "--b", '{"series":{"coeffs":[[0,0],[0.5,0],[0.25,0]]}}', "--order", "-1"],
])
def test_a_negative_order_exits_3_naming_it(capsys, args):
    # exit 3 naming the order, not an IndexError traceback: exit 1, "mismatches" for gallery
    code, _, err = run_cli(capsys, args)
    assert code == 3
    assert "truncation order must be >= 1, got -1" in err


@pytest.mark.parametrize("args", [
    ["gallery", "--order", "0"],
    ["hbcheck", "--b", '{"series":{"coeffs":[[0,0],[0.5,0],[0.05,0]]}}', "--order", "0"],
])
def test_order_zero_exits_3_naming_it(capsys, args):
    # an order-0 coefficient view has no linear term: the hbcheck map, whose
    # b'(0) is 0.5, reported FAIL as if b'(0) were numerically zero
    code, _, err = run_cli(capsys, args)
    assert code == 3
    assert "truncation order must be >= 1, got 0" in err


# --------------------------------------------------------------------- pick

def test_a_tol_below_the_default_disproves_no_complete_pick_kernel(capsys):
    # at --tol 1e-17 rounding once read NOT_PSD: Szego's defect exited 1, the
    # gallery's nine complete Pick entries were NOT_PSD, and so was a Pick
    # matrix of all ones (targets = nodes, min_eig -6.5e-16); PSD still takes
    # the given tol, and a disproof at least 10 default tols
    code, out, _ = run_cli(capsys, ["cnp", "--kernel", '{"kind":"szego"}', "--tol", "1e-17"])
    assert code == 2 and json.loads(out)["tol"] == 1e-17
    for e in run_suite(default_suite_dict(), tol=1e-17)["entries"]:
        cnp = "NOT_PSD" if e["expected"]["cnp"] == "NOT_PSD" else "INCONCLUSIVE"
        assert e["observed"]["cnp"] == cnp, e["name"]
    nodes = [[0, 0], [0.5, 0], [-0.3, 0.2], [0.1, 0.6]]
    problem = json.dumps({"nodes": nodes, "targets": nodes})
    code, out, _ = run_cli(capsys, ["pick", "--problem", problem, "--tol", "1e-17"])
    assert code == 2 and json.loads(out)["verdict"]["tol"] == 1e-17


def test_pick_constant_construct(capsys):
    code, out, _ = run_cli(
        capsys,
        ["pick", "--problem", '{"nodes":[[0,0]],"targets":[[0.5,0]]}', "--construct"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"]["status"] == "PSD"
    assert rep["interpolant"]["max_residual"] < 1e-8


def test_pick_unsolvable_exit_1(capsys):
    code, out, _ = run_cli(
        capsys, ["pick", "--problem", '{"nodes":[[0,0]],"targets":[[2,0]]}']
    )
    assert code == 1
    assert json.loads(out)["verdict"]["status"] == "NOT_PSD"


def test_pick_two_nodes_construct(capsys):
    code, out, _ = run_cli(
        capsys,
        ["pick", "--problem",
         '{"nodes":[[0,0],[0.5,0]],"targets":[[0,0],[0.375,0]]}', "--construct"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["interpolant"]["max_residual"] < 1e-8
    assert rep["interpolant"]["sampled_sup"] <= 1 + 1e-6


def test_pick_extremal_construct_exit_1(capsys):
    code, out, _ = run_cli(
        capsys,
        ["pick", "--problem",
         '{"nodes":[[0,0],[0.5,0]],"targets":[[0,0],[0.5,0]]}', "--construct"],
    )
    assert code == 1
    assert json.loads(out)["interpolant"]["error"] == "NOT_STRICTLY_SOLVABLE"


def test_pick_construct_is_for_the_szego_kernel_only(capsys):
    problem = ["pick", "--problem", '{"nodes":[[0,0],[0.5,0]],"targets":[[0,0],[0.375,0]]}',
               "--construct", "--kernel"]
    code, _, _ = run_cli(capsys, problem + ['{"kind":"szego"}'])
    assert code == 0
    other = '{"kind":"sum","left":{"kind":"szego"},"right":{"kind":"constant","value":0}}'
    code, out, err = run_cli(capsys, problem + [other])
    assert (code, out) == (3, "")
    assert "available for the szego kernel only" in err


def test_pick_malformed_problem_exit_3(capsys):
    code, _, err = run_cli(capsys, ["pick", "--problem", '{"nodes": "zap"}'])
    assert code == 3


def test_pick_reads_nodes_and_targets_as_numbers_or_pairs(capsys):
    # a target of three numbers was read as 1+2i, NOT_PSD with exit 1
    code, out, err = run_cli(
        capsys, ["pick", "--problem", '{"nodes":[[0,0]],"targets":[[1,2,3]]}']
    )
    assert (code, out) == (3, "")
    assert "[1, 2, 3]" in err
    code, out, _ = run_cli(
        capsys, ["pick", "--problem", '{"nodes":[0,[0.5,0]],"targets":[0,0.375]}', "--construct"]
    )
    assert code == 0
    assert json.loads(out)["interpolant"]["max_residual"] < 1e-8


# ------------------------------------------------------- malformed input fuzz

@given(st.text(min_size=1, max_size=40))
def test_malformed_kernel_json_always_exits_3(text):
    blob = "{" + text
    try:
        parsed = json.loads(blob)
    except json.JSONDecodeError:
        parsed = None
    assume(parsed is None)  # keep only genuinely malformed JSON
    code = main(["cnp", "--kernel", blob])
    assert code == 3


@given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=3))
def test_wrong_kernel_descriptors_exit_3(obj):
    assume("kind" not in obj or obj.get("kind") not in
           {"szego", "drury_arveson", "weighted_hardy", "dbr", "constant",
            "sum", "pullback", "congruence", "normalized_defect"})
    code = main(["cnp", "--kernel", json.dumps(obj)])
    assert code == 3


# ------------------------------------------------------------------- process

def test_module_entry_point_runs_gallery():
    proc = subprocess.run(
        [sys.executable, "-m", "cnpcert", "gallery"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_match"] is True


def test_cnp_ball_base_of_another_dimension_exit_3(capsys):
    # exit 3 on DOMAIN_MISMATCH, not on a raw numpy broadcast ValueError
    code, out, err = run_cli(
        capsys,
        ["cnp", "--kernel", '{"kind":"drury_arveson","dim":2}', "--base", "0,0,0"],
    )
    assert code == 3
    assert out == ""
    assert "DOMAIN_MISMATCH" in err


def test_cnp_explicit_points_on_a_ball_kernel_exit_3(capsys):
    # the points were silently replaced by 48 random ball points (exit 0)
    code, out, err = run_cli(
        capsys,
        ["cnp", "--kernel", '{"kind":"drury_arveson","dim":2}', "--points", "0.5,0.1"],
    )
    assert code == 3
    assert out == ""
    assert "DOMAIN_MISMATCH" in err


@pytest.mark.parametrize("samples", [
    "zap", {"grid": 5}, {"grid": [6]}, {"extra": 5}, {"rmax": None}, {"grid": [6.5, 12]},
])
def test_malformed_samples_block_is_a_suite_format_error(tmp_path, capsys, samples):
    # each died with a traceback (exit 1, read as mismatches) or, for 6.5, was truncated
    doc = default_suite_dict()
    doc["entries"][0]["samples"] = samples
    with pytest.raises(SuiteFormat, match=f"{doc['entries'][0]['name']}: malformed 'samples'"):
        load_suite(doc)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["gallery", "--suite", str(path)])
    assert code == 3
    assert out == ""
    assert "SUITE_FORMAT" in err


@pytest.mark.parametrize("field, value, problem", [
    ("name", 5, "'name' must be a string"),   # beside string names: sorting failed
    ("name", ["x"], "'name' must be a string"),   # unhashable
    ("expected", {"cnp": ["PSD"], "criterion": "FAIL"}, "expected.cnp must be one of"),
], ids=["int_name", "list_name", "list_expected_cnp"])
def test_an_entry_name_or_expectation_that_is_not_a_string_is_a_suite_format_error(
        tmp_path, capsys, field, value, problem):
    # each died with a TypeError traceback (exit 1, read as mismatches)
    doc = default_suite_dict()
    doc["entries"][0][field] = value
    with pytest.raises(SuiteFormat, match=problem):
        load_suite(doc)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["gallery", "--suite", str(path)])
    assert code == 3
    assert out == ""
    assert "SUITE_FORMAT" in err


@pytest.mark.parametrize("argv", [
    ["cnp", "--kernel",
     '{"kind":"normalized_defect","inner":{"kind":"szego"},"base":[[0.1,0],[0,0]]}'],
    ["hbcheck", "--b", '{"series":{"coeffs":5}}'],
    ["cnp", "--kernel", '{"kind":"constant","value":[1]}'],
])
def test_json_of_the_wrong_type_is_an_input_error(capsys, argv):
    # each died with a TypeError traceback (exit 1, read as NOT_PSD or FAIL)
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert "input error [ValueError]" in err


@pytest.mark.parametrize("weights", ['{"a":1}', '[{"a":1}]', '[true,2]'])
def test_weighted_hardy_weights_that_are_not_numbers_are_an_input_error(capsys, weights):
    # objects died with a TypeError traceback (exit 1); booleans were read as 1.0
    kernel = '{"kind":"weighted_hardy","weights":%s}' % weights
    code, out, err = run_cli(capsys, ["cnp", "--kernel", kernel, "--grid", "2x3"])
    assert code == 3
    assert out == ""
    assert "input error [ValueError]" in err


def test_a_bad_tolerance_on_a_vanishing_kernel_is_an_input_error(capsys):
    # exited 2 (INCONCLUSIVE) with "tol": -1.0 in the report; on Szego it exited 3
    kernel = ('{"kind":"congruence","inner":{"kind":"szego"},'
              '"factor":{"series":{"coeffs":[[-0.5,0],[1,0]]}}}')
    code, out, err = run_cli(capsys, ["cnp", "--kernel", kernel, "--points", "0.5,-0.3", "--tol", "-1"])
    assert code == 3
    assert out == ""
    assert "tolerance must be positive and finite" in err


@pytest.mark.parametrize("kernel", ['{"kind":"szego"}', '{"kind":"drury_arveson","dim":2}'])
def test_negative_random_sample_count_is_an_input_error(capsys, kernel):
    # was read as 0 on the disk (72 samples, exit 0) and as 48 ball points on DA(2)
    code, out, err = run_cli(capsys, ["cnp", "--kernel", kernel, "--random", "-3"])
    assert code == 3
    assert out == ""
    assert "-3" in err


def test_negative_random_in_a_samples_block_is_a_suite_format_error():
    # passed validation, and SampleSet.default then drew no random points
    doc = default_suite_dict()
    doc["entries"][2]["samples"] = {"random": -1}
    with pytest.raises(SuiteFormat, match=f"{doc['entries'][2]['name']}: malformed 'samples'"):
        load_suite(doc)


OUT_OF_RANGE_SUITE = {"entries": [
    {"name": name, "b": {"family": "power", "k": 2}, "samples": samples,
     "expected": {"cnp": "NOT_PSD", "criterion": "FAIL"}}
    for name, samples in (("rmax_1_5", {"rmax": 1.5}), ("grid_0_3", {"grid": [0, 3]}),
                          ("extra_2_0", {"extra": [[2, 0]]}))
]}


def test_out_of_range_samples_are_one_suite_format_error_naming_every_entry(tmp_path, capsys):
    # passed validation; the gallery then exited 3 with a bare "radial grid
    # needs ..." input error for the first entry only
    with pytest.raises(SuiteFormat) as exc:
        load_suite(OUT_OF_RANGE_SUITE)
    assert [p.split(":")[0] for p in str(exc.value).split("; ")] == ["rmax_1_5", "grid_0_3", "extra_2_0"]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(OUT_OF_RANGE_SUITE))
    code, out, err = run_cli(capsys, ["gallery", "--suite", str(path)])
    assert code == 3 and out == ""
    assert "SUITE_FORMAT" in err and all(n in err for n in ("rmax_1_5", "grid_0_3", "extra_2_0"))


@pytest.mark.parametrize("points", ["0.5,inf", "0.5,1e400", "0.5,-infi"])
def test_an_infinite_sample_point_is_an_input_error_naming_its_finiteness(capsys, points):
    # "inf" was read as "jnf" and reported as a number that does not parse
    code, out, err = run_cli(capsys, ["cnp", "--kernel", '{"kind":"szego"}', "--points", points])
    assert code == 3 and out == ""
    assert "sample points must be finite" in err


@pytest.mark.parametrize("text, value", [("0.3+0.1i", 0.3 + 0.1j), ("-0.5i", -0.5j), ("i", 1j),
                                         (" 0.25 ", 0.25 + 0j)])
def test_a_trailing_i_is_the_imaginary_unit(text, value):
    assert _parse_complex(text) == value


# -------------------------------------------------------------------- README

def test_the_readme_library_quickstart_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(block, ns)
    assert ns["report"].verdict.status is Verdict.PSD
    h, g = ns["h"], ns["g"]
    assert isinstance(h, Rational) and isinstance(g, Rational) and h.degree == g.degree == 1
    assert abs(h(ns["b"](0.3)) - 0.3) <= 1e-15
    assert ns["coeffs"].size == 65


# ------------------------------- a JSON integer past the float range

HUGE = "1" + "0" * 400   # 10^400, a JSON integer float() overflows on


@pytest.mark.parametrize("argv", [
    ["hbcheck", "--b", '{"family":"affine","A":[%s,0],"B":[2,0]}' % HUGE],
    ["hbcheck", "--b", '{"family":"power","k":%s}' % HUGE],
    ["hbcheck", "--b", '{"series":{"coeffs":[%s]}}' % HUGE],
    ["cnp", "--kernel", '{"kind":"constant","value":%s}' % HUGE],
    ["cnp", "--kernel", '{"kind":"drury_arveson","dim":%s}' % HUGE],
], ids=["affine-A", "power-k", "series-coeff", "constant-value", "drury-arveson-dim"])
def test_an_integer_past_the_float_range_is_an_input_error(capsys, argv):
    # each raised OverflowError: a traceback and exit 1, read as FAIL or NOT_PSD
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "") and err.startswith("input error [ValueError]")


def test_a_suite_rmax_past_the_float_range_is_a_suite_format_error(tmp_path, capsys):
    doc = default_suite_dict()
    doc["entries"][0]["samples"] = {"rmax": 10 ** 400}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["gallery", "--suite", str(path)])
    assert (code, out) == (3, "") and "SUITE_FORMAT" in err and doc["entries"][0]["name"] in err
