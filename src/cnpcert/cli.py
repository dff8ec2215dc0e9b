"""Command line front end.

Subcommands and exit codes:

  cnp      certify the normalized defect of a kernel descriptor
           0 PSD, 1 NOT_PSD, 2 INCONCLUSIVE, 3 input error
  hbcheck  run the constructive criterion on a symbol spec
           0 PASS_WITH_EXTENSION, 1 FAIL, 2 PASS_NECESSARY, 3 input error
  gallery  run a suite of entries against expected verdicts
           0 all match, 1 mismatches (named), 3 malformed suite/input
  pick     Pick-matrix solvability, optionally constructing the interpolant
           0 PSD/constructed, 1 NOT_PSD or not strictly solvable,
           2 INCONCLUSIVE, 3 input error

Reports are JSON on stdout (optionally duplicated to --json PATH);
diagnostics go to stderr. A malformed command line is an input error: exit
3, with argparse's message on stderr. Complex numbers are written like
"0.3+0.1i"; lists of points are comma separated.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cnp import cnp_certify
from .dbr import CriterionVerdict, cnp_criterion
from .descriptors import complex_to_json, kernel_from_json, symbol_from_json, witness_from_json
from .errors import CnpcertError, NotStrictlySolvable, SuiteFormat
from .families import complex_list_from_json
from .gallery import default_suite_dict, run_suite
from .kernels import Szego
from .linalg import Verdict
from .pickinterp import (
    InterpolationProblem,
    pick_solvable,
    sampled_sup,
    schur_interpolant,
)
from .sampling import (
    DEFAULT_GRID,
    DEFAULT_RANDOM,
    DEFAULT_RMAX,
    DEFAULT_SEED,
    SampleSet,
    ball_points,
)
from .series import DEFAULT_ORDER

_VERDICT_EXIT = {Verdict.PSD: 0, Verdict.NOT_PSD: 1, Verdict.INCONCLUSIVE: 2}
_CRITERION_EXIT = {
    CriterionVerdict.PASS_WITH_EXTENSION: 0,
    CriterionVerdict.FAIL: 1,
    CriterionVerdict.PASS_NECESSARY: 2,
}


def _parse_complex(text: str) -> complex:
    cleaned = text.strip()
    if cleaned.endswith("i"):   # the imaginary unit; the i of "inf" is left alone
        cleaned = cleaned[:-1] + "j"
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number from {text!r}") from exc


def _parse_points(text: str):
    return [_parse_complex(tok) for tok in text.split(",") if tok.strip()]


def _load_json_arg(text: str):
    """Inline JSON if the argument starts with '{', else a file path."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    with open(text) as fh:
        return json.load(fh)


def _emit(report: dict, json_path: str | None):
    payload = json.dumps(report, indent=2, sort_keys=True)
    print(payload)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(payload + "\n")


def _sample_args(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--grid",
        default=f"{DEFAULT_GRID[0]}x{DEFAULT_GRID[1]}",
        help="radial sampling grid as RADIIxANGLES (default: %(default)s)",
    )
    parser.add_argument(
        "--rmax", type=float, default=DEFAULT_RMAX,
        help="outer sampling radius (default: %(default)s)",
    )
    parser.add_argument(
        "--random", type=int, default=DEFAULT_RANDOM,
        help="extra seeded random samples; for a ball kernel, all samples, at least 48 (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="seed for random samples (default: %(default)s)",
    )
    parser.add_argument(
        "--points", default=None,
        help="explicit comma-separated samples, replacing the grid",
    )


def _samples_from_args(args) -> SampleSet:
    if args.points:
        return SampleSet.explicit(_parse_points(args.points))
    n_r, n_t = (int(v) for v in args.grid.lower().split("x"))
    return SampleSet.default(
        seed=args.seed, grid=(n_r, n_t), r_max=args.rmax, n_random=args.random
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnpcert",
        description="Reproducing-kernel certification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", dest="json_path", default=None, help="also write report here")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None,
                     help="verdict tolerance (default: 1e-9 * max(1, scale)); one below the "
                     "default tightens only PSD, never NOT_PSD")
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--order", type=int, default=DEFAULT_ORDER, help="order of the coefficient view "
                       "reverted for a map of degree >= 2, named or explicit (default: %(default)s)")

    p_cnp = sub.add_parser("cnp", parents=[tol, common], help="certify normalized-defect positivity")
    p_cnp.add_argument("--kernel", required=True, help="kernel descriptor JSON (path or inline)")
    p_cnp.add_argument("--base", default="0", help="base point (default: %(default)s)")
    _sample_args(p_cnp)
    p_cnp.set_defaults(func=cmd_cnp)

    p_hb = sub.add_parser("hbcheck", parents=[order, common], help="run the constructive criterion on a symbol")
    p_hb.add_argument("--b", required=True, help="symbol spec JSON (path or inline)")
    p_hb.add_argument(
        "--witness", default=None,
        help="extension witness: 'shipped', or series JSON (path or inline)",
    )
    _sample_args(p_hb)
    p_hb.set_defaults(func=cmd_hbcheck)

    p_gal = sub.add_parser("gallery", parents=[tol, order, common], help="run a verdict suite")
    p_gal.add_argument("--suite", default=None, help="suite JSON path (default: the shipped gallery)")
    p_gal.set_defaults(func=cmd_gallery)

    p_pick = sub.add_parser("pick", parents=[tol, common], help="Pick-matrix solvability / interpolant")
    p_pick.add_argument("--problem", required=True, help="problem JSON (path or inline)")
    p_pick.add_argument("--kernel", default=None, help="kernel descriptor (default: szego)")
    p_pick.add_argument("--construct", action="store_true", help="build the interpolant")
    p_pick.set_defaults(func=cmd_pick)

    return parser


def cmd_cnp(args) -> int:
    kernel = kernel_from_json(_load_json_arg(args.kernel))
    if not kernel.dim:
        base = _parse_complex(args.base)
    else:
        base = tuple(_parse_points(args.base)) if args.base != "0" else (0j,) * kernel.dim
    if not kernel.dim or args.points:   # --points are disk points, shape-checked by cnp_certify
        pts = _samples_from_args(args)
    elif args.random < 0:
        raise ValueError(f"--random must be >= 0, got {args.random}")
    else:
        pts = ball_points(max(args.random, 48), kernel.dim, args.rmax, args.seed)
    report = cnp_certify(kernel, base, pts, args.tol)
    _emit(report.to_json_dict(), args.json_path)
    return _VERDICT_EXIT[report.verdict.status]


def cmd_hbcheck(args) -> int:
    b = symbol_from_json(_load_json_arg(args.b), args.order)
    w_spec = args.witness
    if w_spec is not None:
        w_spec = "shipped" if w_spec.strip() == "shipped" else _load_json_arg(w_spec)
    witness = witness_from_json(w_spec, b)
    pts = _samples_from_args(args)
    report = cnp_criterion(b, witness, pts)
    _emit(report.to_json_dict(), args.json_path)
    return _CRITERION_EXIT[report.overall]


def cmd_gallery(args) -> int:
    if args.suite is None:
        suite_doc = default_suite_dict()
        command = "gallery"
    else:
        with open(args.suite) as fh:
            suite_doc = json.load(fh)
        command = f"gallery --suite {args.suite}"
    report = run_suite(suite_doc, order=args.order, tol=args.tol, command=command)
    _emit(report, args.json_path)
    if report["all_match"]:
        return 0
    print(
        "verdict mismatches: " + ", ".join(report["mismatches"]), file=sys.stderr
    )
    return 1


def cmd_pick(args) -> int:
    doc = _load_json_arg(args.problem)
    if not isinstance(doc, dict) or not {"nodes", "targets"} <= doc.keys():
        raise ValueError("problem JSON needs 'nodes' and 'targets' arrays of numbers or [re, im] pairs")
    problem = InterpolationProblem(*(complex_list_from_json(doc[k]) for k in ("nodes", "targets")))
    kernel = kernel_from_json(_load_json_arg(args.kernel)) if args.kernel else None
    verdict = pick_solvable(problem, kernel, args.tol)
    report = {"verdict": verdict.to_json_dict(), "interpolant": None}
    exit_code = _VERDICT_EXIT[verdict.status]
    if args.construct:
        if kernel is not None and not isinstance(kernel, Szego):
            raise ValueError("interpolant construction is available for the szego kernel only")
        try:
            f = schur_interpolant(problem)
        except NotStrictlySolvable as exc:
            report["interpolant"] = {"error": exc.code, "detail": str(exc)}
            _emit(report, args.json_path)
            return 1
        residuals = [abs(f(x) - t) for x, t in zip(problem.nodes, problem.targets)]
        report["interpolant"] = {
            "parameters": [
                [complex_to_json(x), complex_to_json(g)] for x, g in f.stages
            ],
            "residuals": residuals,
            "max_residual": max(residuals),
            "sampled_sup": sampled_sup(f),
        }
    _emit(report, args.json_path)
    return exit_code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse: 0 after --help, 2 for a malformed command line
        return 3 if exc.code else 0
    try:
        return args.func(args)
    except SuiteFormat as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 3
    except (CnpcertError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        code = getattr(exc, "code", type(exc).__name__)
        print(f"input error [{code}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
