"""Splitting integrator for the damped stochastic cubic Schrödinger lattice.

One step from Ψⁿ with step size τ on mesh width h:

    Ψ̃ⁿ       = exp(i λ τ |Ψⁿ|²) ∘ Ψⁿ                    (exact node-wise rotation)
    L₋ Ψⁿ⁺¹   = L₊ · e^{-ατ/2} Ψ̃ⁿ + g_{n+1}              (midpoint linear substep)

with L∓ = I ∓ i τ/(2h²) A ± (ατ/4) I, A the Dirichlet second-difference
stencil tridiag(1, -2, 1), and g the Karhunen-Loève forcing increment
ε σ Λ δβ.  For α = 0 the linear substep is the Cayley transform of a
skew-Hermitian matrix, hence an exact isometry.

L₋ is constant in n, so it is factored once with LAPACK `zgttrf` (LU with
partial pivoting) and every solve is one O(J)-per-column `zgttrs` call, on
every J >= 1.  All state operations accept (J,) vectors or (J, m) batches,
one realization per column, and are column-wise deterministic: `zgttrs`
sweeps each right-hand side on its own, so a column's bits do not depend on
how many columns are solved with it.

`zgttrf` and `zgttrs` are called through ctypes in the OpenBLAS that numpy
itself loaded (`_load_lapack`), which exports them as `scipy_zgttrf_64_` and
`scipy_zgttrs_64_`.  The forcing product and the linear solve thus run on
one BLAS/LAPACK build, the one the manifest names, and no dsnls process
imports scipy or maps a second OpenBLAS.

With a cutoff, `step` scales the rotation angle by θ(‖Ψⁿ‖/R) with a smooth
plateau cutoff θ (≡1 below R, ≡0 above 2R), which makes the drift globally
Lipschitz while leaving the scheme untouched on trajectories that stay
inside radius R.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import GridSpec, ModelParams

# only for perfbench/child.py's tracer, which looks them up here (ROADMAP item 1)
from .noise import forcing_weights, project_forcing  # noqa: F401


def _load_lapack():
    """`zgttrf` and `zgttrs` of numpy's bundled OpenBLAS, as ctypes functions,
    and the name of the kernel core it picked for this CPU.

    numpy's wheels ship scipy-openblas64, whose symbols carry a `scipy_`
    prefix and a `64_` suffix and whose integers are 64-bit (ILP64).  The
    path is the one numpy loaded, so the dynamic loader hands back that
    library rather than mapping a second copy.  A numpy that ships no such
    library, or more than one, fails this import with the directory it
    looked in.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so"))
    if len(found) != 1:
        raise ImportError(f"expected one libscipy_openblas64_*.so in {libs}, found "
                          f"{len(found)}", name="scipy_openblas64")
    lib = ctypes.CDLL(str(found[0]))
    factor, solve = lib.scipy_zgttrf_64_, lib.scipy_zgttrs_64_
    # zgttrf(n, dl, d, du, du2, ipiv, info)
    factor.argtypes = (ctypes.POINTER(ctypes.c_int64), *[ctypes.c_void_p] * 5,
                       ctypes.POINTER(ctypes.c_int64))
    # zgttrs(trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb, info, len(trans)) takes
    # no argtypes: converting twelve arguments costs about 1.8 µs a call on a
    # 2-core x86-64 machine, more than half of a (9, 1) solve, and
    # `LinearPropagator._solver` builds each one once as a ctypes object of
    # the exact C type
    factor.restype = solve.restype = None
    corename = lib.scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = (), ctypes.c_char_p
    return factor, solve, corename().decode()


#: The OpenBLAS kernel core (`OPENBLAS_CORETYPE` overrides it), on which the
#: bits of the forcing product depend.
_zgttrf, _zgttrs, BLAS_CORE = _load_lapack()
_NO_TRANSPOSE = ctypes.c_char_p(b"N")
#: gfortran passes the length of a character argument as a trailing size_t.
_CHAR_LEN = ctypes.c_size_t(1)


def _ptr(a: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(a.ctypes.data)


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


@dataclass(frozen=True)
class LinearPropagator:
    """Precomputed linear substep: apply L₊ and solve with L₋, both O(J).

    L₋ = I - i τ/(2h²) A + (ατ/4) I is strictly diagonally dominant for
    ατ >= 0, so the one-time factorization is never singular.  `_factors`
    holds the `zgttrf` output (dl, d, du, du2, ipiv).  `_solvers` holds, per
    right-hand-side shape, the Fortran-order buffer `zgttrs` solves in and
    its ready-made ctypes arguments.  `damping_factor` is the per-substep
    amplitude factor e^{-ατ/2}, computed once by `make_propagator`.
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
    _solvers: dict = field(repr=False, compare=False, default_factory=dict)

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

    def _solver(self, shape: tuple) -> tuple:
        """The buffer and `zgttrs` arguments for right-hand sides of `shape`."""
        J = self.grid.J
        if len(shape) not in (1, 2) or shape[0] != J:
            raise ValueError(f"right-hand side has shape {shape}, expected ({J},) or ({J}, m)")
        buf = np.empty(shape, dtype=complex, order="F")
        # n, nrhs, ldb and info; each byref keeps its c_int64 alive
        n, nrhs, ldb, info = (ctypes.byref(ctypes.c_int64(v)) for v in (J, buf.size // J, J, 0))
        args = (_NO_TRANSPOSE, n, nrhs, *map(_ptr, self._factors), _ptr(buf), ldb, info,
                _CHAR_LEN)
        self._solvers[shape] = buf, args
        return buf, args

    def solve_minus(self, b: np.ndarray) -> np.ndarray:
        """x with L₋ x = b, reusing the one-time factorization; a fresh
        C-contiguous array."""
        buf, args = self._solvers.get(b.shape) or self._solver(b.shape)
        buf[...] = b
        _zgttrs(*args)
        # LAPACK works in Fortran order, which slows the row-wise stencil and
        # rotation of the next step; the copy also frees the buffer for reuse
        return buf.copy()

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
    factors = (np.full(J - 1, off_minus), np.full(J, diag_minus), np.full(J - 1, off_minus),
               np.zeros(max(J - 2, 0), dtype=complex), np.zeros(J, dtype=np.int64))
    n, info = ctypes.c_int64(J), ctypes.c_int64(0)
    _zgttrf(ctypes.byref(n), *map(_ptr, factors), ctypes.byref(info))
    if info.value != 0:
        raise NumericalError(f"L- is singular (zgttrf info {info.value})")
    return LinearPropagator(
        grid=grid, tau=tau, alpha=alpha, damping_factor=float(np.exp(-0.5 * alpha * tau)),
        _diag_minus=diag_minus, _off_minus=off_minus,
        _diag_plus=diag_plus, _off_plus=off_plus,
        _factors=factors,
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
          n_steps: int, cutoff: CutoffFunction | None = None, realizations: range | None = None):
    """Step Ψ⁰ n_steps times, yielding (n, Ψⁿ, gⁿ) for n = 0, 1, ..., n_steps,
    gⁿ being the forcing the step into Ψⁿ took (None at n = 0).

    `forcing` is an iterator giving one increment per step, (J,) or (J, m)
    with one column per realization in `realizations` (by default one per
    column of `psi`), or None for a noise-free step; column c of `psi` takes
    column c mod m, so k·m columns step k copies of the batch.  The yielded
    arrays are never modified afterwards.  Raises `BlowUpError` on the first
    non-finite state, naming the step, column c's realization and the norm
    of c's previous state; the overflow that causes it raises no warning.
    """
    yield 0, psi, None
    realizations = range(psi[0].size) if realizations is None else realizations
    copies = psi[0].size // len(realizations)
    for n in range(1, n_steps + 1):
        g = next(forcing)
        with np.errstate(over="ignore", invalid="ignore"):
            new = step(psi, prop, params, g if g is None or copies == 1 else np.tile(g, copies),
                       cutoff)
        finite = np.isfinite(new)
        if not finite.all():
            column = int(np.argwhere(~finite.reshape(psi.shape[0], -1))[0, 1])
            last = psi.reshape(psi.shape[0], -1)[:, column]
            # hypot: a finite state too large to square still has a finite norm
            raise BlowUpError(n, realizations[column % len(realizations)],
                              float(np.hypot.reduce(np.abs(last))))
        psi = new
        yield n, psi, g


def integrate(psi0: np.ndarray, prop: LinearPropagator, params: ModelParams, forcing,
              n_steps: int, record_stride: int = 1):
    """`march` Ψ⁰ along `forcing`, returning the indices of every
    `record_stride`-th step and the last, and the states there stacked,
    each copied into one array as it is reached."""
    steps = list(range(0, n_steps + 1, record_stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    states = np.empty((len(steps), *np.shape(psi0)), dtype=complex)
    i = 0
    for n, psi, _ in march(psi0, prop, params, forcing, n_steps):
        if n == steps[i]:
            states[i] = psi
            i += 1
    return np.asarray(steps), states
