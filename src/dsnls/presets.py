"""Named experiment presets.

Each preset fixes every knob of one standard experiment at desk scale
(runtimes of seconds to minutes).  The shared physical setup is λ = 1,
α = 0.5, P = 100 modes with the power-law spectrum η_k = k⁻⁶.

Mesh-width conventions: the library always uses (J+1)·h = 1, so presets
quoted at h = 0.1 use J = 9 and h = 0.25 uses J = 3.  The ergodic preset
keeps h = 0.1 and evaluates its five initial profiles on that grid; on a
J = 100 grid the same named profiles reproduce the classical 100-dimensional
initial vectors verbatim.
"""

from __future__ import annotations

from dataclasses import replace

from .harness import ExperimentConfig
from .model import GridSpec, ModelParams, NoiseSpec, spectrum

__all__ = ["PRESETS", "preset_config", "preset_lines"]

_SPECTRUM = "power-law(6)"
_DEFAULT_SEED = 11


def _noise(P: int, seed: int) -> NoiseSpec:
    return NoiseSpec(P=P, eta=spectrum(_SPECTRUM, P), seed=seed)


def _fig1(epsilon: float) -> ExperimentConfig:
    return ExperimentConfig(
        kind="charge",
        params=ModelParams(alpha=0.5, lam=1, epsilon=epsilon),
        grid=GridSpec(J=9),
        noise=_noise(100, _DEFAULT_SEED),
        spectrum_desc=_SPECTRUM,
        tau=2.0 ** -6,
        T=35.0,
        M=500,
        initial="sine",
        record_stride=16,
    )


def _fig2() -> ExperimentConfig:
    return ExperimentConfig(
        kind="ergodic",
        params=ModelParams(alpha=0.5, lam=1, epsilon=1.0),
        grid=GridSpec(J=9),
        noise=_noise(100, _DEFAULT_SEED),
        spectrum_desc=_SPECTRUM,
        tau=2.0 ** -6,
        T=100.0,
        M=100,
        initials=("initial(1)", "initial(2)", "initial(3)", "initial(4)", "initial(5)"),
        observables=("exp-norm2", "sin-norm2"),
        record_stride=64,
    )


def _fig3() -> ExperimentConfig:
    return ExperimentConfig(
        kind="error",
        params=ModelParams(alpha=0.5, lam=1, epsilon=1.0),
        grid=GridSpec(J=3),
        noise=_noise(100, _DEFAULT_SEED),
        spectrum_desc=_SPECTRUM,
        tau=2.0 ** -12,
        T=80.0,
        M=100,
        initial="sine",
        tau_ladder=(2.0 ** -10, 2.0 ** -8),
        horizons=(10.0, 20.0, 40.0, 80.0),
    )


def _fig4(epsilon: float) -> ExperimentConfig:
    return ExperimentConfig(
        kind="order",
        params=ModelParams(alpha=0.5, lam=1, epsilon=epsilon),
        grid=GridSpec(J=9),
        noise=_noise(100, _DEFAULT_SEED),
        spectrum_desc=_SPECTRUM,
        tau=2.0 ** -12,
        T=1.0,
        M=100,
        initial="sine",
        tau_ladder=(2.0 ** -10, 2.0 ** -9, 2.0 ** -8, 2.0 ** -7),
    )


PRESETS = {
    "fig1a": ("noise-free charge dissipation (h=0.1, tau=2^-6, T=35, eps=0)",
              lambda: _fig1(0.0)),
    "fig1b": ("stochastic charge plateau (h=0.1, tau=2^-6, T=35, eps=1, M=500)",
              lambda: _fig1(1.0)),
    "fig2": ("ergodic temporal averages from five initial profiles (desk T=100, M=100)",
             _fig2),
    "fig3": ("mean-square error across horizons T=10..80 (h=0.25, coupled reference tau=2^-12)",
             _fig3),
    "fig4-det": ("deterministic convergence order (T=1, ladder 2^-10..2^-7 vs tau=2^-12)",
                 lambda: _fig4(0.0)),
    "fig4-stoch": ("stochastic convergence order (T=1, ladder 2^-10..2^-7 vs tau=2^-12)",
                   lambda: _fig4(1.0)),
}


def preset_config(name: str, seed: int | None = None) -> ExperimentConfig:
    """Build a preset by name, optionally replacing its base seed."""
    try:
        _, builder = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}") from None
    config = builder()
    if seed is not None:
        config = replace(config, noise=replace(config.noise, seed=seed))
    return config


def preset_lines() -> list:
    """(name, description) pairs for the `presets` listing."""
    return [(name, PRESETS[name][0]) for name in sorted(PRESETS)]
