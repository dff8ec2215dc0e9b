"""Exception types shared across the package.

Every error carries a stable ``code`` string that surfaces unchanged in CLI
diagnostics, so callers can dispatch on it without parsing messages.
"""


class CnpcertError(Exception):
    """Base class for all library errors."""

    code = "ERROR"


class CenterMismatch(CnpcertError):
    code = "CENTER_MISMATCH"


class CompositionCenter(CnpcertError):
    code = "COMPOSITION_CENTER"


class NonInvertible(CnpcertError):
    code = "NON_INVERTIBLE"


class DivisionOrder(CnpcertError):
    code = "DIVISION_ORDER"


class NonFiniteCoefficients(CnpcertError, ValueError):   # a series input error, or an overflow
    code = "NON_FINITE"


class DomainViolation(CnpcertError):
    code = "DOMAIN_VIOLATION"


class NearSingular(CnpcertError):
    code = "NEAR_SINGULAR"


class DomainMismatch(CnpcertError):
    code = "DOMAIN_MISMATCH"


class RangeViolation(CnpcertError):
    code = "RANGE_VIOLATION"


class VanishingKernel(CnpcertError):
    code = "VANISHING_KERNEL"


class NotSchurClass(CnpcertError):
    code = "NOT_SCHUR_CLASS"


class LengthMismatch(CnpcertError):
    code = "LENGTH_MISMATCH"


class NoConvergence(CnpcertError):
    code = "NO_CONVERGENCE"


class WitnessInconsistent(CnpcertError):
    code = "WITNESS_INCONSISTENT"


class NearZeroSample(CnpcertError):
    code = "NEAR_ZERO_SAMPLE"


class NotStrictlySolvable(CnpcertError):
    code = "NOT_STRICTLY_SOLVABLE"


class SuiteFormat(CnpcertError):
    code = "SUITE_FORMAT"
