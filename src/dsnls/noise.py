"""Seeded Karhunen-Loève Wiener increments and their projection to forcing.

Each realization owns an independent counter-based stream (numpy's
philox4x64-10), so ensembles reproduce bit-for-bit regardless of worker
count or scheduling.  The stream layout is frozen:

* key      = splitmix64(base_seed + realization · 0x9E3779B97F4A7C15)
* normals  are drawn in C order over (step, mode, component), component 0
  being the real part and 1 the imaginary part;
* δβ_k     = √τ · (n₀ + i n₁), so each real component has variance τ and
  E|δβ_k|² = 2τ.

The variance convention Var(δβ¹) = Var(δβ²) = τ (rather than τ/2) makes the
Itô correction of the squared norm equal 2 ε² Σ η_k dt, which is what the
exponential charge law of the continuous model requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NoiseSpec, eigenfunction_matrix

__all__ = [
    "BrownianPath",
    "stream_key",
    "generate_path",
    "increment_blocks",
    "forcing_weights",
    "project_forcing",
    "forcing_blocks",
]

GENERATOR_NAME = "philox4x64-10/splitmix64-key"

#: Increments are projected to forcing in blocks of this many steps everywhere
#: (single trajectories and ensembles alike), so the two paths agree bit-for-bit.
FORCING_BLOCK_STEPS = 256

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_key(base_seed: int, realization: int) -> int:
    """64-bit Philox key for one realization (documented mixing, scheduling-free)."""
    if realization < 0:
        raise ValueError(f"realization index must be >= 0, got {realization}")
    return _splitmix64((base_seed + realization * _GOLDEN) & _MASK64)


def _stream(noise: NoiseSpec, realization: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=stream_key(noise.seed, realization)))


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """Complex Wiener increments δβ over n_steps uniform steps of size tau.

    `increments` has shape (n_steps, P).  Regenerating with the same
    (NoiseSpec, tau, n_steps, realization) reproduces it bit-for-bit.
    """

    tau: float
    increments: np.ndarray
    base_seed: int
    realization: int

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def P(self) -> int:
        return self.increments.shape[1]


def _draw(gen: np.random.Generator, n_steps: int, P: int, root: float) -> np.ndarray:
    """The next (n_steps, P) complex increments of `gen`, scaled by `root` = √τ."""
    raw = gen.standard_normal((n_steps, P, 2))
    raw *= root
    return raw.view(complex)[..., 0]  # (re, im) pairs read in place as complex


def generate_path(noise: NoiseSpec, tau_fine: float, n_steps: int, realization: int) -> BrownianPath:
    """Sample one realization's increments from its dedicated stream."""
    if not tau_fine > 0.0:
        raise ValueError(f"tau_fine must be > 0, got {tau_fine}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return BrownianPath(
        tau=tau_fine,
        increments=_draw(_stream(noise, realization), n_steps, noise.P, np.sqrt(tau_fine)),
        base_seed=noise.seed,
        realization=realization,
    )


def increment_blocks(noise: NoiseSpec, tau_fine: float, n_steps: int, realization: int,
                     block_size: int = 256):
    """Yield the same increments as `generate_path`, in (<=block_size, P) chunks.

    Chunked draws consume the stream sequentially, so the concatenation of all
    blocks is bit-identical to the one-shot path.  A suspended generator holds
    no block: each is formed by `_draw` and handed straight out.
    """
    if not tau_fine > 0.0:
        raise ValueError(f"tau_fine must be > 0, got {tau_fine}")
    gen = _stream(noise, realization)
    root = np.sqrt(tau_fine)
    done = 0
    while done < n_steps:
        n = min(block_size, n_steps - done)
        yield _draw(gen, n, noise.P, root)
        done += n


def forcing_weights(grid, noise: NoiseSpec, epsilon: float) -> np.ndarray:
    """Precomputed (J, P) map ε σ Λ so a forcing increment is weights @ δβ."""
    sigma = eigenfunction_matrix(grid, noise.P)
    return epsilon * sigma * np.sqrt(noise.eta_array)


def project_forcing(increments: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Map increment rows (n, P) to forcing rows (n, J), in FORCING_BLOCK_STEPS
    blocks so the result is bit-identical however the caller batches steps."""
    wt = np.ascontiguousarray(weights.T)
    parts = [increments[a:a + FORCING_BLOCK_STEPS] @ wt
             for a in range(0, increments.shape[0], FORCING_BLOCK_STEPS)]
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def forcing_blocks(weights: np.ndarray, noise: NoiseSpec, tau_fine: float, n_steps: int,
                   realization: int, block_size: int = FORCING_BLOCK_STEPS):
    """Yield projected forcing increments (<=block_size, J) for one realization.

    Each block is (δβ block) @ weightsᵀ computed at fixed per-realization
    shapes, so the values do not depend on how realizations are batched.
    """
    wt = np.ascontiguousarray(weights.T)
    blocks = increment_blocks(noise, tau_fine, n_steps, realization, block_size)
    for _ in range(0, n_steps, block_size):
        yield next(blocks) @ wt  # never bound, so not held while suspended
