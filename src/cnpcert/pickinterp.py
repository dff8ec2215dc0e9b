"""Scalar Nevanlinna-Pick solvability and interpolant construction.

Solvability is the positivity verdict of the Pick matrix for any kernel; the
constructive side is implemented for the Szego kernel only, via the classical
Schur recursion. The recursion peels one node at a time: every bounded-by-one
interpolant with f(x1) = g1 factors through a disk automorphism twisted by
the Blaschke factor at x1, which turns the remaining constraints into a
smaller problem of the same kind. Strictly positive data keeps every Schur
parameter strictly inside the disk, so the nested Moebius evaluation is a
genuine unit-ball function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NotStrictlySolvable
from .kernels import Kernel, Szego
from .linalg import PsdVerdict, pick_matrix, psd_verdict
from .sampling import SampleSet, polar_grid

STRICT_EPS = 1e-8   # smallest Pick eigenvalue the construction will accept


@dataclass(frozen=True)
class InterpolationProblem:
    """Distinct disk nodes with complex target values, one per node."""

    nodes: tuple
    targets: tuple

    def __post_init__(self):
        targets = tuple(complex(t) for t in self.targets)
        if len(self.nodes) != len(targets):
            raise LengthMismatch(f"{len(self.nodes)} nodes but {len(targets)} targets")
        if len(targets) == 0:
            raise ValueError("at least one interpolation node is required")
        object.__setattr__(self, "nodes", SampleSet(self.nodes).points)   # finite, in the disk, distinct
        object.__setattr__(self, "targets", targets)


def pick_solvable(
    problem: InterpolationProblem, kernel: Kernel | None = None, tol: float | None = None
) -> PsdVerdict:
    """Positivity verdict of the Pick matrix for the given data."""
    kernel = kernel if kernel is not None else Szego()
    return psd_verdict(pick_matrix(kernel, problem.nodes, problem.targets), tol)


@dataclass(frozen=True)
class SchurInterpolant:
    """Interpolant as nested Moebius/Blaschke stages, outermost first.

    Each stage holds (node, parameter); evaluation starts from the innermost
    constant and wraps one stage at a time:
    f_j(z) = (g_j + B_j(z) f_{j+1}(z)) / (1 + conj(g_j) B_j(z) f_{j+1}(z))
    with B_j the Blaschke factor at the stage node.
    """

    stages: tuple

    def __post_init__(self):
        for _, gamma in self.stages:
            if abs(gamma) > 1.0 + 1e-10:
                raise NotStrictlySolvable(
                    f"stage parameter modulus {abs(gamma):.6g} exceeds 1"
                )

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        x_last, g_last = self.stages[-1]
        val = np.full(zz.shape, complex(g_last))
        for x, gamma in reversed(self.stages[:-1]):
            blaschke = (zz - x) / (1.0 - np.conj(x) * zz)
            t = blaschke * val
            val = (gamma + t) / (1.0 + np.conj(gamma) * t)
        if val.ndim == 0:
            return complex(val)
        return val


def schur_interpolant(problem: InterpolationProblem) -> SchurInterpolant:
    """Construct a unit-ball interpolant for strictly solvable Szego data.

    Data whose Pick matrix has smallest eigenvalue at or below STRICT_EPS is
    rejected: degenerate problems sit on the boundary of the recursion's
    validity (the extremal solution is unique and unimodular parameters stop
    the reduction).
    """
    verdict = pick_solvable(problem)
    if not (np.isfinite(verdict.min_eig) and verdict.min_eig > STRICT_EPS):
        raise NotStrictlySolvable(
            f"Pick matrix smallest eigenvalue {verdict.min_eig:.3e} is not "
            f"above {STRICT_EPS:g}; data is degenerate or unsolvable"
        )
    xs = list(problem.nodes)
    vs = list(problem.targets)
    stages = []
    while xs:
        x0, g0 = xs[0], vs[0]
        if abs(g0) >= 1.0:
            raise NotStrictlySolvable(
                f"reduced value {abs(g0):.6g} reached the unit circle"
            )
        stages.append((x0, g0))
        nxt_x, nxt_v = [], []
        for xi, vi in zip(xs[1:], vs[1:]):
            blaschke = (xi - x0) / (1.0 - np.conj(x0) * xi)
            mu = (vi - g0) / (blaschke * (1.0 - np.conj(g0) * vi))
            nxt_x.append(xi)
            nxt_v.append(mu)
        xs, vs = nxt_x, nxt_v
    return SchurInterpolant(tuple(stages))


def sampled_sup(f, radius: float = 0.999) -> float:
    """Max modulus of f over 512 equispaced points on the given circle."""
    return float(np.max(np.abs(np.asarray(f(polar_grid(1, 512, radius)), complex))))
