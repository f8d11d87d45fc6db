"""Splitting integrator for the damped stochastic cubic Schrödinger lattice.

One step from Ψⁿ with step size τ on mesh width h:

    Ψ̃ⁿ       = exp(i λ τ |Ψⁿ|²) ∘ Ψⁿ                    (exact node-wise rotation)
    L₋ Ψⁿ⁺¹   = L₊ · e^{-ατ/2} Ψ̃ⁿ + g_{n+1}              (midpoint linear substep)

with L∓ = I ∓ i τ/(2h²) A ± (ατ/4) I, A the Dirichlet second-difference
stencil tridiag(1, -2, 1), and g the Karhunen-Loève forcing increment
ε σ Λ δβ.  For α = 0 the linear substep is the Cayley transform of a
skew-Hermitian matrix, hence an exact isometry.

L₋ is constant in n, so it is factored once with LAPACK `zgttrf` (LU with
partial pivoting) and every solve is one O(J)-per-column `zgttrs` call; on
J <= 2, which the LAPACK wrappers reject, a Thomas elimination in numpy does
both.  All state operations accept (J,) vectors or (J, m) batches, one
realization per column, and are column-wise deterministic: `zgttrs` sweeps
each right-hand side on its own, so a column's bits do not depend on how
many columns are solved with it.

`zgttrf` and `zgttrs` are the function objects `scipy.linalg.lapack`
exports: they live in scipy's f2py extension `scipy.linalg._flapack`, which
this module loads by file (`_load_flapack`).  `import scipy.linalg` would run
the whole package's `__init__`, which pulls in numpy.f2py, numpy.testing and
numpy.ma and took about two thirds of a command's 0.5 s startup; loading the
one extension takes milliseconds.

With a cutoff, `step` scales the rotation angle by θ(‖Ψⁿ‖/R) with a smooth
plateau cutoff θ (≡1 below R, ≡0 above 2R), which makes the drift globally
Lipschitz while leaving the scheme untouched on trajectories that stay
inside radius R.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path

import numpy as np
import scipy

from .model import GridSpec, ModelParams

# only for perfbench/child.py's tracer, which looks them up here (ROADMAP item 1)
from .noise import forcing_weights, project_forcing  # noqa: F401


def _load_flapack():
    """scipy's f2py LAPACK extension, without running scipy.linalg's __init__.

    Registered under its own name, so a later `import scipy.linalg` reuses
    this module object rather than loading a second copy, and an earlier one
    is reused here.  A scipy that moves the extension fails this import with
    the directory it looked in.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    linalg = Path(scipy.__file__).parent / "linalg"
    spec = FileFinder(str(linalg), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} extension module in {linalg}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
zgttrf, zgttrs = _flapack.zgttrf, _flapack.zgttrs

__all__ = [
    "NumericalError",
    "BlowUpError",
    "LinearPropagator",
    "CutoffFunction",
    "column_norm2",
    "make_propagator",
    "nonlinear_step",
    "step",
    "march",
    "integrate",
    "tridiag_factor",
    "tridiag_solve",
]


class NumericalError(RuntimeError):
    """A numerical cross-check failed where the inputs were valid (bug signal)."""


class BlowUpError(RuntimeError):
    """Non-finite state detected; carries the first offending step index, the
    realization whose state it was and the norm ‖Ψⁿ⁻¹‖ = (Σ_j |ψ_j|²)^{1/2}
    of that realization's last finite state (nan when not known)."""

    def __init__(self, step_index: int, realization: int = 0,
                 last_finite_norm: float = float("nan")):
        self.step_index = step_index
        self.realization = realization
        self.last_finite_norm = last_finite_norm
        super().__init__(f"non-finite state after step {step_index} (realization {realization})")

    def __reduce__(self):
        # pickled by a pool worker: rebuild from the step, realization and norm
        return type(self), (self.step_index, self.realization, self.last_finite_norm)


def tridiag_factor(J: int, diag, off):
    """Forward-elimination factors (mult, piv) for the constant tridiagonal
    matrix with `diag` on the diagonal and `off` on both off-diagonals."""
    dtype = np.result_type(diag, off, float)
    piv = np.empty(J, dtype=dtype)
    mult = np.zeros(J, dtype=dtype)
    piv[0] = diag
    for k in range(1, J):
        if piv[k - 1] == 0:
            raise NumericalError("zero pivot in tridiagonal elimination")
        mult[k] = off / piv[k - 1]
        piv[k] = diag - mult[k] * off
    if piv[J - 1] == 0:
        raise NumericalError("zero pivot in tridiagonal elimination")
    return mult, piv


def tridiag_solve(mult, piv, off, b):
    """Solve the factored constant tridiagonal system for b of shape (J,) or (J, m).

    1-D inputs are solved through the same 2-D kernels as batches, so a single
    trajectory and a batch column produce bit-identical results.
    """
    J = piv.shape[0]
    flat = np.asarray(b).ndim == 1
    x = np.array(b, dtype=np.result_type(b, piv), copy=True)
    if flat:
        x = x.reshape(J, 1)
    for k in range(1, J):
        x[k] -= mult[k] * x[k - 1]
    x[J - 1] /= piv[J - 1]
    for k in range(J - 2, -1, -1):
        x[k] = (x[k] - off * x[k + 1]) / piv[k]
    return x.reshape(J) if flat else x


@dataclass(frozen=True)
class LinearPropagator:
    """Precomputed linear substep: apply L₊ and solve with L₋, both O(J).

    L₋ = I - i τ/(2h²) A + (ατ/4) I is strictly diagonally dominant for
    ατ >= 0, so the one-time factorization is never singular.  `_factors`
    holds the `zgttrf` output (dl, d, du, du2, ipiv), or the Thomas
    (mult, piv) when J <= 2.  `damping_factor` is the per-substep amplitude
    factor e^{-ατ/2}, computed once by `make_propagator`.
    """

    grid: GridSpec
    tau: float
    alpha: float
    damping_factor: float
    _diag_minus: complex = field(repr=False, default=0j)
    _off_minus: complex = field(repr=False, default=0j)
    _diag_plus: complex = field(repr=False, default=0j)
    _off_plus: complex = field(repr=False, default=0j)
    _factors: tuple = field(repr=False, default=())

    def apply_plus(self, x: np.ndarray) -> np.ndarray:
        """L₊ x = (I + i τ/(2h²) A - (ατ/4) I) x with Dirichlet ends."""
        y = self._diag_plus * x
        y[1:] += self._off_plus * x[:-1]
        y[:-1] += self._off_plus * x[1:]
        return y

    def apply_minus(self, x: np.ndarray) -> np.ndarray:
        """L₋ x, used by solve-then-multiply checks."""
        y = self._diag_minus * x
        y[1:] += self._off_minus * x[:-1]
        y[:-1] += self._off_minus * x[1:]
        return y

    def solve_minus(self, b: np.ndarray) -> np.ndarray:
        """x with L₋ x = b, reusing the one-time factorization; C-contiguous."""
        if self.grid.J <= 2:
            return tridiag_solve(*self._factors, self._off_minus, b)
        x, _ = zgttrs(*self._factors, b)
        # LAPACK hands back Fortran order, which slows the row-wise stencil
        # and rotation of the next step
        return np.ascontiguousarray(x)

    def propagate(self, x: np.ndarray) -> np.ndarray:
        """One application of L₋⁻¹ L₊ (an isometry when α = 0)."""
        return self.solve_minus(self.apply_plus(x))


def make_propagator(grid: GridSpec, tau: float, alpha: float) -> LinearPropagator:
    """Build and factor the linear substep operators for fixed (grid, τ, α)."""
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    r = tau / (2.0 * grid.h ** 2)
    a = 0.25 * alpha * tau
    # A has -2 on the diagonal and 1 off it, so -i r A contributes +2ir / -ir.
    diag_minus = complex(1.0 + a, 2.0 * r)
    off_minus = complex(0.0, -r)
    diag_plus = complex(1.0 - a, -2.0 * r)
    off_plus = complex(0.0, r)
    J = grid.J
    if J <= 2:  # scipy's zgttrf/zgttrs wrappers reject n <= 2
        factors = tridiag_factor(J, diag_minus, off_minus)
    else:
        off = np.full(J - 1, off_minus)
        *factors, info = zgttrf(off, np.full(J, diag_minus), off)
        if info != 0:
            raise NumericalError(f"L- is singular (zgttrf info {info})")
    return LinearPropagator(
        grid=grid, tau=tau, alpha=alpha, damping_factor=float(np.exp(-0.5 * alpha * tau)),
        _diag_minus=diag_minus, _off_minus=off_minus,
        _diag_plus=diag_plus, _off_plus=off_plus,
        _factors=tuple(factors),
    )


def _abs2(psi: np.ndarray) -> np.ndarray:
    return psi.real ** 2 + psi.imag ** 2


def column_norm2(psi: np.ndarray):
    """Σ_j |ψ_j|²: numpy's sum for a (J,) state, and per column for a (J, m)
    batch, adding the rows in node order.

    numpy adds the rows of a batch in order when m >= 2 but sums a lone
    (J, 1) column pairwise; the running sum gives every width the bits of
    the in-order sum, so no chunk size changes a column's norm.
    """
    a2 = _abs2(psi)
    return a2.sum() if a2.ndim == 1 else np.cumsum(a2, axis=0)[-1]


def _rotate(psi: np.ndarray, lam: int, tau: float, scale) -> np.ndarray:
    # scale is 1.0 for the plain scheme or θ(‖Ψ‖/R) per column when truncated;
    # multiplying by exactly 1.0 keeps the two code paths bit-identical.
    return np.exp((1j * lam * tau) * (scale * _abs2(psi))) * psi


def nonlinear_step(psi: np.ndarray, lam: int, tau: float) -> np.ndarray:
    """Exact flow of the cubic term: node-wise phase rotation by λ τ |ψ_j|².

    Moduli are preserved node by node; tau = 0 is the identity.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return _rotate(psi, lam, tau, 1.0)


@dataclass(frozen=True)
class CutoffFunction:
    """Smooth plateau cutoff: θ ≡ 1 on [0, 1], θ ≡ 0 on [2, ∞), C^∞ bridge between.

    The bridge is the canonical b(2-x) / (b(2-x) + b(x-1)) with b(t) = e^{-1/t},
    monotone non-increasing on [1, 2].  `R` is the truncation radius applied to
    the state norm.
    """

    R: float

    def __post_init__(self):
        if not self.R > 0.0:
            raise ValueError(f"R must be > 0, got {self.R}")

    def theta(self, x):
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < 0.0):
            raise ValueError("cutoff argument must be >= 0")
        out = np.ones_like(x_arr)
        out[x_arr >= 2.0] = 0.0
        bridge = (x_arr > 1.0) & (x_arr < 2.0)
        if np.any(bridge):
            t = x_arr[bridge]
            b_hi = np.exp(-1.0 / (2.0 - t))
            b_lo = np.exp(-1.0 / (t - 1.0))
            out[bridge] = b_hi / (b_hi + b_lo)
        return out if out.ndim else float(out)

    def theta_prime(self, x):
        """Analytic derivative; identically 0 outside (1, 2)."""
        x_arr = np.asarray(x, dtype=float)
        out = np.zeros_like(x_arr)
        bridge = (x_arr > 1.0) & (x_arr < 2.0)
        if np.any(bridge):
            t = x_arr[bridge]
            b_hi = np.exp(-1.0 / (2.0 - t))
            b_lo = np.exp(-1.0 / (t - 1.0))
            out[bridge] = -b_hi * b_lo * ((2.0 - t) ** -2 + (t - 1.0) ** -2) / (b_hi + b_lo) ** 2
        return out if out.ndim else float(out)

    def scale(self, psi: np.ndarray):
        """θ(‖Ψ‖/R) per column; the factor applied to the rotation angle."""
        norm = np.sqrt(column_norm2(psi))
        return self.theta(norm / self.R)


def _check_step_inputs(psi, prop: LinearPropagator, params: ModelParams, forcing_vec):
    if psi.shape[0] != prop.grid.J:
        raise ValueError(f"state has leading dimension {psi.shape[0]}, expected J={prop.grid.J}")
    if prop.alpha != params.alpha:
        raise ValueError(f"propagator alpha {prop.alpha} != params alpha {params.alpha}")
    if forcing_vec is not None and forcing_vec.shape != psi.shape:
        raise ValueError(f"forcing has shape {forcing_vec.shape}, expected {psi.shape}")


def step(psi: np.ndarray, prop: LinearPropagator, params: ModelParams,
         forcing_vec: np.ndarray | None = None,
         cutoff: CutoffFunction | None = None) -> np.ndarray:
    """One full step Ψⁿ → Ψⁿ⁺¹ = L₋⁻¹ [L₊ e^{f(Ψⁿ)} Ψⁿ + g].

    With a `cutoff` the rotation angle is scaled by θ(‖Ψⁿ‖/R): bit-identical
    to the plain step while ‖Ψⁿ‖ <= R, a pure damped linear step once
    ‖Ψⁿ‖ >= 2R.  The damped rotated stage e^{f(Ψⁿ)} Ψⁿ that the per-step
    energy identity needs is `prop.damping_factor * nonlinear_step(psi, lam,
    tau)`, bit for bit the one formed here.
    """
    _check_step_inputs(psi, prop, params, forcing_vec)
    scale = 1.0 if cutoff is None else cutoff.scale(psi)
    rhs = prop.apply_plus(prop.damping_factor * _rotate(psi, params.lam, prop.tau, scale))
    if forcing_vec is not None:
        rhs += forcing_vec
    return prop.solve_minus(rhs)


def march(psi: np.ndarray, prop: LinearPropagator, params: ModelParams, forcing,
          n_steps: int, cutoff: CutoffFunction | None = None, first_realization: int = 0):
    """Step Ψ⁰ n_steps times, yielding (n, Ψⁿ) for n = 0, 1, ..., n_steps.

    `forcing` is an iterator giving one forcing increment per step, shaped
    like `psi` ((J,) or (J, m), one realization per column), or None for a
    noise-free step.  The yielded arrays are never modified afterwards.
    Raises `BlowUpError` on the first non-finite state, naming the step,
    the realization, `first_realization` + column, and the norm of that
    column's previous state; the overflow that causes it raises no warning.
    """
    yield 0, psi
    for n in range(1, n_steps + 1):
        g = next(forcing)
        with np.errstate(over="ignore", invalid="ignore"):
            new = step(psi, prop, params, g, cutoff)
        finite = np.isfinite(new)
        if not finite.all():
            column = int(np.argwhere(~finite.reshape(psi.shape[0], -1))[0, 1])
            last = psi.reshape(psi.shape[0], -1)[:, column]
            # hypot: a finite state too large to square still has a finite norm
            raise BlowUpError(n, first_realization + column, float(np.hypot.reduce(np.abs(last))))
        psi = new
        yield n, psi


def integrate(psi0: np.ndarray, prop: LinearPropagator, params: ModelParams, forcing,
              n_steps: int, record_stride: int = 1):
    """`march` Ψ⁰ along `forcing`, returning the indices of every
    `record_stride`-th step and the last, and the states there stacked."""
    steps, states = [], []
    for n, psi in march(psi0, prop, params, forcing, n_steps):
        if n % record_stride == 0 or n == n_steps:
            steps.append(n)
            states.append(psi)  # march never modifies a state it has yielded
    return np.asarray(steps), np.asarray(states)
