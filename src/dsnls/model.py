"""Model constants, spatial grid, noise spectrum and initial profiles.

The model is the weakly damped stochastic cubic Schrödinger equation on (0, 1)
with homogeneous Dirichlet boundary conditions,

    dψ - i (ψ_xx + i α ψ + λ |ψ|² ψ) dt = ε dW_Q,

sampled on J interior nodes x_j = j h with (J + 1) h = 1.  The noise is a
truncated Karhunen-Loève expansion over the Dirichlet sine eigenbasis
e_k(x) = √2 sin(k π x) with weights √η_k and independent complex Brownian
coefficients.

States are plain complex ndarrays of length J (node values); batched states
are (J, m) arrays, one realization per column.  Everything in this module is
immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "GridSpec",
    "NoiseSpec",
    "make_grid",
    "eigenfunction_matrix",
    "spectrum",
    "sample_initial",
    "INITIAL_PROFILES",
]


@dataclass(frozen=True)
class ModelParams:
    """Damping alpha > 0, nonlinearity sign lam in {-1, +1}, noise size epsilon >= 0.

    Time-uniform moment bounds additionally need alpha >= 1/2; that stronger
    condition is enforced only by the experiment presets that rely on it, not
    here.
    """

    alpha: float
    lam: int
    epsilon: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.lam not in (-1, 1):
            raise ValueError(f"lam must be -1 or +1, got {self.lam}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform interior grid on (0, 1): nodes x_j = j h, j = 1..J, (J + 1) h = 1."""

    J: int

    def __post_init__(self):
        if self.J < 1:
            raise ValueError(f"J must be >= 1, got {self.J}")

    @property
    def h(self) -> float:
        return 1.0 / (self.J + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.J + 1)


@dataclass(frozen=True)
class NoiseSpec:
    """Karhunen-Loève truncation: P modes, eigenvalues eta, 64-bit base seed.

    Ergodic-average experiments need every eta_k strictly positive (the noise
    must act on all retained modes); that is checked by the harness, not here.
    """

    P: int
    eta: tuple
    seed: int

    def __post_init__(self):
        self.check_seed(self.seed)
        if self.P < 1:
            raise ValueError(f"P must be >= 1, got {self.P}")
        if len(self.eta) != self.P:
            raise ValueError(f"eta has {len(self.eta)} entries, expected P={self.P}")
        if any(e < 0.0 for e in self.eta):
            raise ValueError("eta entries must be nonnegative")

    @staticmethod
    def check_seed(seed: int) -> int:
        """`seed`, if it is a 64-bit base seed, in [0, 2⁶⁴): `noise.stream_key`
        would fold any other onto one of those."""
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2^64), got {seed}")
        return seed

    @property
    def eta_array(self) -> np.ndarray:
        return np.asarray(self.eta, dtype=float)

    @property
    def eta_total(self) -> float:
        """Sum of the retained eigenvalues."""
        return float(sum(self.eta))


def make_grid(J: int) -> GridSpec:
    """Grid with J interior nodes and mesh width h = 1/(J+1)."""
    if int(J) != J:
        raise ValueError(f"J must be an integer, got {J!r}")
    return GridSpec(int(J))


def eigenfunction_matrix(grid: GridSpec, P: int) -> np.ndarray:
    """Matrix sigma with sigma[j, k] = e_{k+1}(x_{j+1}) = √2 sin((k+1) π x_{j+1}).

    Shape (J, P).  Columns k <= J are h-orthonormal on the grid
    (h · Σ_j sigma_jk sigma_jl = δ_kl); higher columns alias.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    k = np.arange(1, P + 1)
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(grid.nodes, k))


_POWER_LAW = re.compile(r"^power-law\(\s*([^)]+?)\s*\)$")


def spectrum(kind, P: int):
    """Noise eigenvalues η_1..η_P.

    `kind` is either the descriptor string ``"power-law(r)"``, giving
    η_k = k^(-r), or an explicit sequence of P nonnegative values.
    Returns a tuple of floats suitable for `NoiseSpec.eta`.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    if isinstance(kind, str):
        m = _POWER_LAW.match(kind.strip())
        if m is None:
            raise ValueError(f"unknown spectrum descriptor {kind!r}")
        r = float(m.group(1))
        return tuple(float(k) ** (-r) for k in range(1, P + 1))
    eta = [float(e) for e in kind]
    if len(eta) != P:
        raise ValueError(f"explicit spectrum has {len(eta)} entries, expected {P}")
    if any(e < 0.0 for e in eta):
        raise ValueError("explicit spectrum entries must be nonnegative")
    return tuple(eta)


def _sine(grid: GridSpec) -> np.ndarray:
    return np.sin(np.pi * grid.nodes).astype(complex)


def _unit_first(grid: GridSpec) -> np.ndarray:
    psi = np.zeros(grid.J, dtype=complex)
    psi[0] = 1.0
    return psi


def _tiny_imag_first(grid: GridSpec) -> np.ndarray:
    psi = np.zeros(grid.J, dtype=complex)
    psi[0] = 0.0003j
    return psi


def _ramp(grid: GridSpec) -> np.ndarray:
    return (2.0 + 1.0j) / 20.0 * np.arange(1, grid.J + 1)


def _phase_spiral(grid: GridSpec) -> np.ndarray:
    return np.exp(-1j * np.arange(1, grid.J + 1) / 50.0)


#: Named initial profiles.  ``initial(3)`` coincides with the sine profile
#: (both evaluate sin(π x_j) at the nodes).  ``initial(5)`` keeps the literal
#: per-node phase -j/50 at every grid size.
INITIAL_PROFILES = {
    "sine": _sine,
    "initial(1)": _unit_first,
    "initial(2)": _tiny_imag_first,
    "initial(3)": _sine,
    "initial(4)": _ramp,
    "initial(5)": _phase_spiral,
}


def sample_initial(grid: GridSpec, profile) -> np.ndarray:
    """Initial state: node-wise evaluation of a named profile or an explicit vector."""
    if isinstance(profile, str):
        try:
            return INITIAL_PROFILES[profile.strip()](grid)
        except KeyError:
            raise ValueError(f"unknown initial profile {profile!r}") from None
    psi = np.asarray(profile, dtype=complex)
    if psi.shape != (grid.J,):
        raise ValueError(f"explicit initial vector has shape {psi.shape}, expected ({grid.J},)")
    return psi.copy()
