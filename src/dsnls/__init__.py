"""Structure-preserving splitting scheme for the damped stochastic cubic
Schrödinger equation, with diagnostics and Monte Carlo experiments."""

__version__ = "0.1.0"

from .model import (
    GridSpec,
    ModelParams,
    NoiseSpec,
    eigenfunction_matrix,
    make_grid,
    sample_initial,
    spectrum,
)
from .noise import (
    forcing_weights,
    generate_path,
)
from .integrator import (
    BlowUpError,
    CutoffFunction,
    LinearPropagator,
    NumericalError,
    integrate,
    make_propagator,
    march,
    nonlinear_step,
    step,
)
from .diagnostics import (
    TwoFormSample,
    charge_limit_discrete,
    conformal_ms_residual,
    discrete_charge,
    matrix_norm_A,
    mean_charge_law,
    nonlinear_symplectic_residual,
    run_diagnostic_suite,
    step_energy_residual,
    tangent_step,
    two_form_sample,
)
from .harness import (
    ExperimentConfig,
    OrderFit,
    RunRecord,
    charge_experiment,
    ergodic_experiment,
    jackknife_se,
    ms_error,
    order_fit,
)
from .config import ConfigError, parse_config, serialize_config
from .presets import preset_config
