"""Spectral solver and pressure-field verifier for periodic deep-water
traveling waves in conformal strip coordinates."""

from .wave_model import (
    ConformalJet,
    ConformalSolution,
    InvalidConfig,
    StripPoint,
    WaveConfig,
    crest_indicator,
    eval_conformal_jet,
    eval_jet_grid,
    steepness,
    tail_ratio,
)
from .spectral_solver import (
    ContinuationFamily,
    FamilyMember,
    LimitEstimate,
    NonConvergence,
    SingularJacobian,
    SolverError,
    TailNotResolved,
    continue_family,
    estimate_limit,
    initial_guess,
    newton_solve,
)
from .hodograph_fields import (
    FieldGrid,
    StagnationProximity,
    SurfaceProfile,
    field_sample,
    grid_fields,
    physical_grid,
    pressure,
    pressure_gradient,
    surface,
    velocity,
)
from .verifier import CheckResult, VerificationReport, crest_angle, verify_all

__version__ = "0.1.0"
