"""Seeded Karhunen-Loève Wiener increments and their projection to forcing.

Each realization owns an independent counter-based stream (numpy's
philox4x64-10), so ensembles reproduce bit-for-bit regardless of worker
count or scheduling.  The stream layout is frozen:

* key      = splitmix64(base_seed + realization · 0x9E3779B97F4A7C15)
* modes    are the K = min(J, P) modes of `fold_noise(grid, noise)`, the
  noise the J-node grid can see, so a step draws 2K normals, not 2P;
* normals  are drawn in C order over (step, mode, component), component 0
  being the real part and 1 the imaginary part;
* δβ_m     = √τ · (n₀ + i n₁), so each real component has variance τ and
  E|δβ_m|² = 2τ.

The variance convention Var(δβ¹) = Var(δβ²) = τ (rather than τ/2) makes the
Itô correction of the squared norm equal 2 ε² Σ η_k dt, which is what the
exponential charge law of the continuous model requires.

The fold is exact in law.  On the nodes x_j = j/(J+1), sine mode k equals
+e_m, -e_m (m ≤ J) or vanishes (k ≡ 0 mod J+1), so the P-mode forcing
Σ_k √η_k e_k δβ_k has the law of Σ_m √η̃_m e_m δβ̃_m with η̃_m = Σ_{k→m} η_k.
When P ≤ J nothing aliases and the fold is the identity: the same spec,
weights and stream bits.
"""

from __future__ import annotations

import numpy as np

from .model import NoiseSpec, eigenfunction_matrix

__all__ = [
    "fold_noise",
    "stream_key",
    "generate_path",
    "increment_blocks",
    "forcing_weights",
    "project_forcing",
    "forcing_blocks",
]

GENERATOR_NAME = "philox4x64-10/splitmix64-key/folded-modes"

#: Steps per block of every realization's forcing stream (`forcing_blocks`),
#: wherever the blocks are filled.  The joined blocks are the same bits for
#: any block size, with one exception: a one-row last block (n_steps ≡ 1 mod
#: the block size, n_steps > 1) goes through numpy's vector-matrix product,
#: whose last bits may differ from a matrix product's, so such a run's last
#: forcing row depends on this constant.
FORCING_BLOCK_STEPS = 64

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


def fold_noise(grid, noise: NoiseSpec) -> NoiseSpec:
    """The spec of the same forcing law on grid's J nodes from min(J, P) modes.

    Mode k lands on m(k) = r or 2(J+1) - r, with r = k mod 2(J+1); modes with
    k ≡ 0 mod J+1 vanish on the grid and are dropped.  η̃_m sums the η_k that
    land on m in increasing k; the seed is kept.  Folding a folded spec is
    the identity.
    """
    if noise.P <= grid.J:
        return noise
    n = grid.J + 1
    eta = [0.0] * grid.J
    for k, e in enumerate(noise.eta, start=1):
        r = k % (2 * n)
        if r % n:
            eta[min(r, 2 * n - r) - 1] += e
    return NoiseSpec(P=grid.J, eta=tuple(eta), seed=noise.seed)


def _stream(noise: NoiseSpec, realization: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=stream_key(noise.seed, realization)))


def _draw(gen: np.random.Generator, n_steps: int, P: int, root: float) -> np.ndarray:
    """The next (n_steps, P) complex increments of `gen`, scaled by `root` = √τ."""
    raw = gen.standard_normal((n_steps, P, 2))
    raw *= root
    return raw.view(complex)[..., 0]  # (re, im) pairs read in place as complex


def generate_path(noise: NoiseSpec, tau_fine: float, n_steps: int, realization: int) -> np.ndarray:
    """One realization's (n_steps, P) increments δβ over steps of tau_fine:
    its stream drawn as one block of `increment_blocks`."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return next(increment_blocks(noise, tau_fine, n_steps, realization, n_steps))


def increment_blocks(noise: NoiseSpec, tau_fine: float, n_steps: int, realization: int,
                     block_size: int = FORCING_BLOCK_STEPS):
    """One realization's increments, as an iterator of (<=block_size, P) blocks.

    The stream is opened here and the blocks are drawn as they are taken; they
    consume it in order, so the blocks joined are the same bits whatever the
    block size.  A suspended iterator holds no block.
    """
    if not tau_fine > 0.0:
        raise ValueError(f"tau_fine must be > 0, got {tau_fine}")
    gen = _stream(noise, realization)
    root = np.sqrt(tau_fine)
    return (_draw(gen, min(block_size, n_steps - a), noise.P, root)
            for a in range(0, n_steps, block_size))


def forcing_weights(grid, noise: NoiseSpec, epsilon: float) -> np.ndarray:
    """Precomputed (J, P) map ε σ Λ so a forcing increment is weights @ δβ."""
    sigma = eigenfunction_matrix(grid, noise.P)
    return epsilon * sigma * np.sqrt(noise.eta_array)


def project_forcing(increments: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Forcing rows (n, J) of increment rows (n, P): increments @ weightsᵀ."""
    return increments @ np.ascontiguousarray(weights.T)


def forcing_blocks(weights: np.ndarray, noise: NoiseSpec, tau_fine: float, n_steps: int,
                   realization: int):
    """One realization's forcing increments, as an iterator of projected
    (<=FORCING_BLOCK_STEPS, J) blocks of `increment_blocks`, whose stream it
    opens.  Every block is projected alone at per-realization shapes, so the
    values do not depend on how realizations are batched.
    """
    blocks = increment_blocks(noise, tau_fine, n_steps, realization)
    # `project_forcing`'s product with its (P, J) matrix built once, complex,
    # so no block casts it again: the same bits.  The transposed view of such
    # a matrix is used uncopied.
    projection = np.ascontiguousarray(weights.T, dtype=complex)
    # next(blocks) is never bound, so a suspended iterator holds no block
    return (next(blocks) @ projection for _ in range(0, n_steps, FORCING_BLOCK_STEPS))
