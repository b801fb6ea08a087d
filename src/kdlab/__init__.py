"""Numerical lab for a knowledge-diffusion mean-field growth model.

Solvers for the coupled forward/backward nonlocal parabolic system, an
N-agent stochastic simulator of the underlying dynamics, front tracking and
speed estimation, a structural-invariant diagnostics suite, and a CLI harness
with reproducible presets.
"""

from .analysis import (
    DiagnosticsReport,
    FrontTrack,
    Snapshot,
    SpeedFit,
    default_window,
    estimate_speed,
    locate_level,
    run_diagnostics,
)
from .backward import TerminalCondition, solve_backward
from .errors import (
    CheckpointError,
    ConfigError,
    DomainError,
    FrontBracketError,
    FrontOffGridLeft,
    FrontOffGridRight,
    GridMismatchError,
    KdlabError,
    NonFiniteError,
    NonMonotoneProfileError,
    NumericalError,
    OvershootError,
    SingularSystemError,
)
from .forward import dt_max, solve_forward
from .grid import (
    Grid1D,
    Profile,
    SpaceTimeField,
    recommended_domain,
)
from .mfg import MfgConfig, MfgSolution, best_response, solve_nash
from .model import ModelParams, TheoryPredictions
from .particles import (
    CdfEstimate,
    ParticleState,
    StrategyRule,
    empirical_cdf,
    eval_strategy,
    step_particles,
)

__version__ = "0.1.0"
