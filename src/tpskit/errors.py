"""Exception hierarchy shared by all tpskit modules."""


class TpskitError(Exception):
    """Base class for every error raised by tpskit."""


class DimensionMismatch(TpskitError):
    pass


class ConvergenceFailure(TpskitError):
    pass


class SingularBasis(TpskitError):
    pass


class ZeroState(TpskitError):
    pass


class NumericOverflow(TpskitError, ValueError):
    """A finite input whose solve or singular values leave the float range."""


class NonUnital(TpskitError):
    pass


class NotATpp(TpskitError):
    pass


class GenericElementFailure(TpskitError):
    pass


class NotCommuting(TpskitError):
    pass


class NotDiagonalizable(TpskitError):
    pass


class MultiplicityViolation(TpskitError):
    pass


class JointDegeneracy(TpskitError):
    pass


class NotComplementary(TpskitError):
    pass


class NonCompositeDim(TpskitError):
    pass


class ShapeTooSmall(TpskitError):
    pass


class GridOverflow(TpskitError):
    pass


class ZeroAlpha(TpskitError):
    pass


class InputError(TpskitError):
    """Malformed external input (CLI files, JSON fields)."""
