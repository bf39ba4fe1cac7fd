"""Insensitizing-control synthesis for 1D bulk-surface reaction-diffusion
equations with dynamic boundary conditions.

Pipeline: SBP geometry -> Carleman weight system -> weighted space-time
least squares (null control of the linearized cascade) -> chord
correction of h(.,0) of the quasilinear cascade on the controllable modes
-> two-sided insensitivity verification of the energy functional.
"""

from .errors import (BSControlError, ConditioningError, ConfigurationError,
                     ContractError, SmallnessViolationError)
from .geometry import (BulkSurfaceField, RegionMasks, SpatialGrid, TimeGrid,
                       build_grid, build_masks, build_time_grid, l2_inner,
                       l2_norm)
from .weights import (EtaProfile, WeightTables,
                      build_chi, build_eta, build_weight_tables,
                      carleman_functional_I, carleman_functional_Jw,
                      check_elementary_estimates, empirical_carleman_check,
                      m_threshold, validate_params)
from .solvers import (CoefficientSet, LinearOperatorSet, apply_L,
                      coefficient_preset, solve_adjoint_cascade,
                      solve_linear_backward, solve_linear_forward,
                      solve_linearized_cascade, solve_quasilinear,
                      solve_quasilinear_cascade, solve_sensitivity,
                      validate_coefficients)
from .fi import (FIProblem, FISolution, FISolver, cascade_residual_check,
                 galerkin_check)
from .insensitize import (TAU_LADDER, ControlModes, SynthesisBundle,
                          SynthesisReport, evaluate_J, insensitivity_check,
                          random_direction, synthesize)

__version__ = "0.1.0"
