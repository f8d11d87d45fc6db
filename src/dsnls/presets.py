"""Named experiment presets: one config document plus overrides.

`BASE` is a config document (see `dsnls.config`): λ = 1, α = 0.5, ε = 1,
P = 100 modes with η_k = k⁻⁶, seed 11, J = 9, τ = 2⁻⁶, T = 35 and M = 100
realizations of a charge run.  A preset is a list of ``key=value``
overrides on it, applied as `--set` overrides are: ``--preset NAME --set
KEY=VALUE`` is `BASE` with the preset's overrides, then the user's.

The library uses (J+1)·h = 1, so h = 0.1 is J = 9 and h = 0.25 is J = 3.
The ergodic preset evaluates its five initial profiles on the h = 0.1 grid;
on a J = 100 grid the same named profiles are the classical
100-dimensional initial vectors.
"""

from __future__ import annotations

from .config import ConfigError, parse_config
from .harness import ExperimentConfig

__all__ = ["BASE", "PRESETS", "preset_config"]

BASE = """\
[model]
alpha = 0.5
lambda = 1
epsilon = 1.0

[grid]
J = 9

[noise]
P = 100
spectrum = power-law(6)
seed = 11

[time]
tau = 2^-6
T = 35

[experiment]
kind = charge
M = 100
"""

_FIG1 = ("M=500", "record_stride=16")
_FIG4 = ("kind=order", "tau=2^-12", "T=1", "tau_ladder=2^-10, 2^-9, 2^-8, 2^-7")

#: name -> (description, overrides on `BASE`)
PRESETS = {
    "fig1a": ("noise-free charge dissipation (h=0.1, tau=2^-6, T=35, eps=0)",
              ("epsilon=0", *_FIG1)),
    "fig1b": ("stochastic charge plateau (h=0.1, tau=2^-6, T=35, eps=1, M=500)", _FIG1),
    "fig2": ("ergodic temporal averages from five initial profiles (desk T=100, M=100)",
             ("kind=ergodic", "T=100", "record_stride=64",
              "initials=initial(1), initial(2), initial(3), initial(4), initial(5)")),
    "fig3": ("mean-square error across horizons T=10..80 (h=0.25, coupled reference tau=2^-12)",
             ("kind=error", "J=3", "tau=2^-12", "T=80", "tau_ladder=2^-10, 2^-8",
              "horizons=10, 20, 40, 80")),
    "fig4-det": ("deterministic convergence order (T=1, ladder 2^-10..2^-7 vs tau=2^-12)",
                 ("epsilon=0", *_FIG4)),
    "fig4-stoch": ("stochastic convergence order (T=1, ladder 2^-10..2^-7 vs tau=2^-12)",
                   _FIG4),
}


def preset_config(name: str, overrides=()) -> ExperimentConfig:
    """`BASE` with the preset's overrides, then `overrides`, parsed."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return parse_config(BASE, [*PRESETS[name][1], *overrides])
