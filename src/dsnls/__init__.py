"""Structure-preserving splitting scheme for the damped stochastic cubic
Schrödinger equation, with diagnostics and Monte Carlo experiments."""

import os as _os
import sys as _sys

#: The variables OpenBLAS reads its thread count from, in the order it reads them.
_OPENBLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
#: The thread variables the manifest records: OpenBLAS's and MKL's.
_THREAD_VARS = (*_OPENBLAS_VARS, "MKL_NUM_THREADS")


def _pin_blas_threads() -> tuple:
    """Start OpenBLAS with one thread unless the user chose a count; return
    the manifest's `blas_threads` line, which says who set each variable,
    and whether OPENBLAS_NUM_THREADS was set here.

    numpy and scipy each bundle an OpenBLAS that reads the thread variables
    once, when it loads, and by default starts a busy-waiting worker thread
    for each further core.  dsnls's parallelism is its fork pool of chunks
    and its forked noise producer, which inherit this setting, and no thread
    count changes a CSV byte.  Once numpy has loaded, a variable set here
    would no longer take effect, so none is set and the line says the values
    were found after.
    """
    found = {k: _os.environ[k] for k in _THREAD_VARS if k in _os.environ}
    tags = dict.fromkeys(found, " (user)")
    pinned = False
    if "numpy" in _sys.modules:
        tags = dict.fromkeys(found, " (found after numpy loaded)")
    elif not found.keys() & set(_OPENBLAS_VARS):
        _os.environ["OPENBLAS_NUM_THREADS"] = found["OPENBLAS_NUM_THREADS"] = "1"
        tags["OPENBLAS_NUM_THREADS"] = " (dsnls default)"
        pinned = True
    line = ", ".join(f"{k}={found[k]}{tags[k]}" if k in found else f"{k}=unset"
                     for k in _THREAD_VARS)
    return line, pinned


_BLAS_THREADS, _PINNED_HERE = _pin_blas_threads()

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

# Both OpenBLAS copies have read the thread variables by now: numpy's, and
# the one behind scipy's _flapack, which .integrator loaded.  Put the
# environment back as it was found, so that the programs this process
# starts inherit no pin and make their own choice.
if _PINNED_HERE:
    del _os.environ["OPENBLAS_NUM_THREADS"]
