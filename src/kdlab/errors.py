"""Exception types shared across the package."""


class KdlabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(KdlabError, ValueError):
    """An argument lies outside its mathematical domain."""


class GridMismatchError(KdlabError, ValueError):
    """Profiles or fields that must share one grid do not."""


class NonFiniteError(KdlabError, ValueError):
    """NaN or infinity in data that must be finite."""


class NumericalError(KdlabError, RuntimeError):
    """A solver left its stability envelope (instability signal, not roundoff)."""


class OvershootError(NumericalError):
    """A bounded field left its range by more than the roundoff allowance."""


class SingularSystemError(KdlabError, ValueError):
    """Linear system has no unique solution."""


class FrontBracketError(KdlabError, ValueError):
    """A level crossing is not bracketed by the profile values."""


class FrontOffGridLeft(FrontBracketError):
    """The crossing lies left of the grid (all values at or below the level)."""


class FrontOffGridRight(FrontBracketError):
    """The crossing lies right of the grid (all values at or above the level)."""


class NonMonotoneProfileError(KdlabError, ValueError):
    """A profile required to be monotone is not."""


class ConfigError(KdlabError, ValueError):
    """Invalid experiment configuration."""


class CheckpointError(KdlabError, ValueError):
    """Unreadable or version-incompatible checkpoint file."""
