"""Completely-monotone second-order convolution quadrature for the
Havriliak-Negami kernel and an energy-decay-preserving 2D Maxwell solver."""

from .fem import (
    AssembledOperators,
    FieldVectors,
    MaxwellMesh,
    MeshModes,
    assemble,
    assemble_cell_load,
    assemble_edge_load,
    interpolate_E,
    interpolate_H,
    l2_error,
)
from .monotonicity import alternating_diff, index_k, indicator_rho, sweep_grid
from .prabhakar import (
    PrabhakarParams,
    SeriesConvergenceError,
    hn_kernel,
    ml3,
    prabhakar_integral_monomial,
)
from .quadrature import (
    CQWeights,
    ExpSum,
    NotCompletelyMonotoneError,
    cm2_weights,
    delta_consistency_residual,
    fit_exp_sum,
    generate_weights,
)
from .series import binom_series, series_mul, series_pow
from .stepper import (
    EnergyTrace,
    ErrorReport,
    HNParams,
    Separable,
    SourceLoads,
    SourceSet,
    StepOperator,
    StepperState,
    energy_components,
    init_state,
    manufactured_sources,
    observed_rates,
    run_convergence,
    run_energy,
    step,
)

__version__ = "0.1.0"
