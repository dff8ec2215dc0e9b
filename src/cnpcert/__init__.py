"""Reproducing-kernel toolkit.

Truncated power series with functional reversion, exact rational maps,
evaluable kernel expression trees on the disk and ball, Hermitian/PSD
certification, sampled certification of the complete Nevanlinna-Pick
property, the constructive criterion for de Branges-Rovnyak kernels, and
Schur-recursion Pick interpolation for the Szego kernel.
"""

__version__ = "0.1.0"

from .cnp import CertReport, cnp_basepoint_sweep, cnp_certify
from .dbr import (
    CriterionReport,
    CriterionVerdict,
    InjectivityStatus,
    closed_form_witness,
    cnp_criterion,
    dbr_kernel,
    decomposition_check,
    decomposition_identity_residual,
    extension_margin,
    injectivity_probe,
    reversion_residual,
    schwarz_pick_margin,
)
from .errors import CnpcertError
from .kernels import (
    Congruence,
    Constant,
    DeBrangesRovnyak,
    DruryArveson,
    Kernel,
    NormalizedDefect,
    Pullback,
    Sum,
    Szego,
    WeightedHardy,
    unit_ball_probe,
)
from .linalg import (
    HermitianMatrix,
    PsdVerdict,
    Verdict,
    gram,
    pick_matrix,
    psd_verdict,
    smallest_eigenvalue,
)
from .pickinterp import (
    InterpolationProblem,
    SchurInterpolant,
    pick_solvable,
    sampled_sup,
    schur_interpolant,
)
from .sampling import SampleSet, ball_points
from .series import PowerSeries, Rational, divide
