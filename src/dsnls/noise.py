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
    "BatchSource",
]

GENERATOR_NAME = "philox4x64-10/splitmix64-key/folded-modes"

#: Steps per block of every realization's forcing stream (`forcing_blocks`,
#: `BatchSource`), wherever the blocks are filled.  A batch's block costs one
#: draw call per realization and one stacked product, so the blocks can be
#: short, and the two shared slots of a noise producer small.  The joined
#: blocks are the same bits for any block size, with one exception: a
#: one-row last block (n_steps ≡ 1 mod the block size, n_steps > 1) goes
#: through numpy's vector-matrix product, whose last bits may differ from a
#: matrix product's, so such a run's last forcing row depends on this
#: constant.
FORCING_BLOCK_STEPS = 16

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


def _draw(gen: np.random.Generator, raw: np.ndarray, root: float) -> np.ndarray:
    """`raw`, a (rows, P, 2) float array, filled with the next normals of `gen`
    in C order and scaled by `root` = √τ; a root of 1 multiplies nothing,
    the same bits.  Read as complex, its rows are (rows, P) increments."""
    gen.standard_normal(out=raw)
    if root != 1.0:
        raw *= root
    return raw


def generate_path(noise: NoiseSpec, tau_fine: float, n_steps: int, realization: int) -> np.ndarray:
    """One realization's (n_steps, P) increments δβ over steps of tau_fine:
    its stream drawn as one block of `increment_blocks`."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return next(increment_blocks(noise, tau_fine, n_steps, realization, n_steps))


def increment_blocks(noise: NoiseSpec, tau_fine: float, n_steps: int, realization: int,
                     block_size: int = FORCING_BLOCK_STEPS, out=None):
    """One realization's increments, as an iterator of (<=block_size, P) blocks.

    The stream is opened here and the blocks are drawn as they are taken; they
    consume it in order, so the blocks joined are the same bits whatever the
    block size.  A suspended iterator holds no block of its own: each block
    is a new array or, with `out`, a (>= block_size, P, 2) float buffer, a
    view of the rows drawn into it, valid until the next block is taken.
    """
    if not tau_fine > 0.0:
        raise ValueError(f"tau_fine must be > 0, got {tau_fine}")
    gen = _stream(noise, realization)
    root = np.sqrt(tau_fine)
    if out is not None:
        return _drawn_into(gen, n_steps, block_size, root, out)
    return (_draw(gen, np.empty((min(block_size, n_steps - a), noise.P, 2)), root)
            .view(complex)[..., 0] for a in range(0, n_steps, block_size))


def _drawn_into(gen: np.random.Generator, n_steps: int, block_size: int, root: float,
                out: np.ndarray):
    """`increment_blocks`' blocks, each drawn into the first rows of `out` and
    read there through one complex view, taken once and not per block: at
    J = 3 a block's own views would cost a third of its draw."""
    raw = out[:block_size]
    block = raw.view(complex)[..., 0]
    for a in range(0, n_steps, block_size):
        if n_steps - a < block_size:
            raw, block = raw[:n_steps - a], block[:n_steps - a]
        _draw(gen, raw, root)
        yield block


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


class BatchSource:
    """The forcing of a batch of realizations, filled a block at a time into
    (rows, J, m) arrays, column i from realization realizations[i]'s stream,
    bit for bit its `forcing_blocks`.

    Per block, every stream draws its rows of unit-step increments through
    `increment_blocks` into its slice of one (m, FORCING_BLOCK_STEPS, P, 2)
    buffer; the buffer is scaled by √τ at once and projected by one stacked
    product, which numpy runs as one product per realization at the shapes
    `forcing_blocks` uses; the rows are then written into the caller's block.
    Between blocks it holds these two buffers and the streams' generators,
    and no stream holds a block of its own.
    """

    def __init__(self, weights: np.ndarray, noise: NoiseSpec, tau_fine: float, n_steps: int,
                 realizations):
        if not tau_fine > 0.0:
            raise ValueError(f"tau_fine must be > 0, got {tau_fine}")
        rows = min(FORCING_BLOCK_STEPS, n_steps)
        self._normals = np.empty((len(realizations), rows, noise.P, 2))
        self._product = np.empty((len(realizations), rows, len(weights)), dtype=complex)
        # `forcing_blocks`'s complex (P, J) matrix
        self._projection = np.ascontiguousarray(weights.T, dtype=complex)
        self._root = np.sqrt(tau_fine)
        # a root of 1 leaves the scaling to `fill`, once for the whole batch
        self._streams = [increment_blocks(noise, 1.0, n_steps, r, out=self._normals[i])
                         for i, r in enumerate(realizations)]

    def fill(self, block: np.ndarray) -> None:
        """Write every stream's next block of forcing rows into `block`, a
        (rows, J, m) array, rows being that block's length."""
        rows = len(block)
        for stream in self._streams:
            next(stream)
        normals = self._normals[:, :rows]
        normals *= self._root
        # written into `block` itself, whose rows are strided, the product
        # would leave BLAS for numpy's own loop: another code path than
        # `forcing_blocks`'s, and 3.5 times slower at J = 1000
        product = np.matmul(normals.view(complex)[..., 0], self._projection,
                            out=self._product[:, :rows])
        block[...] = product.transpose(1, 2, 0)
