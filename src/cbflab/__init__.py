"""Spectral simulation laboratory for damped incompressible flow on the torus."""

from .conditions import ConditionReport, check_singleton_condition, grashof
from .deterministic import (
    Trajectory,
    energy_residual,
    find_singleton,
    probe_field,
    simulate,
)
from .errors import (
    BlowUpError,
    CBFError,
    CFLViolationError,
    GridMismatchError,
    MeanViolationError,
    NonConvergenceError,
    ValidationError,
)
from .experiments import (
    RateFit,
    SweepRecord,
    fit_rate,
    rate_sweep,
)
from .fields import (
    SpectralVelocity,
    random_field,
    read_field,
    single_mode_field,
    write_field,
    zero_velocity,
)
from .grid import TorusGrid
from .operators import (
    bilinear_B,
    damping_C,
    h_norm,
    inner_h,
    leray_project,
    lr_norm,
    stokes_apply,
    trilinear_b,
    v_norm,
)
from .ou import OUPath, WienerPath, ou_from_wiener, ou_path, sample_wiener
from .params import EstimateConstants, PhysicsParams
from .random_pde import (
    NoiseConfig,
    PullbackSample,
    pullback_sample,
)

__version__ = "0.1.0"

