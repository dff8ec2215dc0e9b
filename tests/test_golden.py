"""Gallery and sweep reports against the golden files in tests/golden/.

Exit codes, verdicts, observed/expected/match, notes, sample counts, vanish
flags and base points are compared exactly. Floats are compared within a band,
because the digits of eigvalsh and of the range finder's QR differ between
LAPACK builds:
- min_eig within 0.1 tol = RITZ_RESIDUAL max(1, scale) at the default tol,
  the Weyl bound within which a factored defect places its smallest
  eigenvalue, or within FLOAT_REL of its value, which covers a NOT_PSD
  min_eig that is the Rayleigh quotient of a Ritz vector: its digits move
  with the range finder's basis, but only at rounding level;
- every other float within FLOAT_REL of its value or FLOAT_ABS;
- a reversion residual above REV_RESID_TOL (null when not finite) by that
  outcome only, in its note too: its digits come from a diverging series.

A change that alters a report on purpose regenerates the files with
tests/golden/regenerate.py, so the diff shows what changed.
"""

import importlib.util
import json
import math
import pathlib
import re

import pytest

from cnpcert.dbr import REV_RESID_TOL

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN_DIR / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

FLOAT_REL = 1e-9
FLOAT_ABS = 1e-12
MIN_EIG_TOL_FRACTION = 0.1
_DIVERGED = re.compile(r"reversion round-trip residual \S+ exceeds")


def _diverged(resid) -> bool:
    return resid is None or resid > REV_RESID_TOL


def _note(note: str) -> str:
    return _DIVERGED.sub("reversion round-trip residual (diverged) exceeds", note)


def assert_matches(fresh, gold, where="report"):
    """``fresh`` matches ``gold`` by the rules of the module docstring."""
    if isinstance(gold, dict):
        assert isinstance(fresh, dict) and fresh.keys() == gold.keys(), where
        for key, value in gold.items():
            at = f"{where}.{key}"
            if key == "min_eig" and value is not None and fresh[key] is not None:
                band = max(FLOAT_REL * abs(value), MIN_EIG_TOL_FRACTION * gold["tol"])
                assert abs(fresh[key] - value) <= band, (at, fresh[key], value)
            elif key == "reversion_residual" and _diverged(value):
                assert _diverged(fresh[key]), (at, fresh[key], value)
            elif key == "notes":
                assert [_note(n) for n in fresh[key]] == [_note(n) for n in value], at
            elif key == "base":
                assert fresh[key] == value, (at, fresh[key], value)
            else:
                assert_matches(fresh[key], value, at)
    elif isinstance(gold, list):
        assert isinstance(fresh, list) and len(fresh) == len(gold), where
        for i, (f, g) in enumerate(zip(fresh, gold)):
            assert_matches(f, g, f"{where}[{i}]")
    elif isinstance(gold, float):
        assert type(fresh) is float, (where, fresh, gold)
        assert math.isclose(fresh, gold, rel_tol=FLOAT_REL, abs_tol=FLOAT_ABS), (where, fresh, gold)
    else:
        assert type(fresh) is type(gold) and fresh == gold, (where, fresh, gold)


@pytest.mark.parametrize("name", sorted(regenerate.GOLDEN))
def test_reports_match_their_golden_file(name):
    produce, arg = regenerate.GOLDEN[name]
    fresh = json.loads(regenerate.dumps(produce(arg)))
    assert_matches(fresh, json.loads((GOLDEN_DIR / name).read_text()))
