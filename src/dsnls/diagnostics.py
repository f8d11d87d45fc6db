"""Structure diagnostics for the splitting scheme.

Covers the laws the scheme is built to respect:

* exponential evolution of the discrete charge h Σ|ψ_j|² and its stochastic
  plateau (ε² h / α) Σ_j Σ_k η_k e_k²(x_j);
* the pathwise per-step energy identity
  ‖Ψⁿ⁺¹‖² - e^{-ατ}‖Ψⁿ‖² + ατ‖mid‖² - 2 Re⟨mid, g⟩ = 0 with
  mid = (Ψⁿ⁺¹ + e^{f(Ψⁿ)}Ψⁿ)/2, exact in exact arithmetic;
* node-wise symplecticity of the nonlinear rotation and the discrete
  conformal multi-symplectic law of the linear substep, checked on tangent
  pairs through exact Jacobians;
* the dimension-uniform bound ‖A‖ < 4 for the second-difference stencil.

Tangent vectors dΨ, variations of the flow, are complex arrays of length J;
their z-view stacks (dp, dq, dv, dw) per node with forward differences
dv_j = (dp_j - dp_{j-1})/h and zero Dirichlet ghosts at j = 0 and j = J+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrator import (
    CutoffFunction,
    LinearPropagator,
    NumericalError,
    _abs2,
    column_norm2,
)
from .model import GridSpec, ModelParams, NoiseSpec, eigenfunction_matrix

__all__ = [
    "discrete_charge",
    "mean_charge_law",
    "charge_limit_discrete",
    "step_energy_residual",
    "z_view",
    "tangent_step",
    "propagate_tangent_linear",
    "nonlinear_tangent",
    "nonlinear_symplectic_residual",
    "TwoFormSample",
    "two_form_sample",
    "conformal_ms_terms",
    "conformal_ms_residual",
    "resolve_temporal_reading",
    "matrix_norm_A",
    "DiagnosticRow",
    "run_diagnostic_suite",
]


def discrete_charge(psi: np.ndarray, h: float):
    """h Σ_j |ψ_j|²; per column, summed in node order, for (J, m) batches."""
    return h * column_norm2(np.asarray(psi))


def mean_charge_law(t, charge0: float, params: ModelParams, eta_total: float):
    """Mean-square-norm law of the continuous model:
    e^{-2αt} charge0 + (ε² η / α)(1 - e^{-2αt})."""
    decay = np.exp(-2.0 * params.alpha * np.asarray(t, dtype=float))
    plateau = params.epsilon ** 2 * eta_total / params.alpha
    return decay * charge0 + plateau * (1.0 - decay)


def charge_limit_discrete(grid: GridSpec, noise: NoiseSpec, params: ModelParams) -> float:
    """Stationary discrete charge (ε² h / α) Σ_j Σ_k η_k e_k²(x_j).

    This is the exact grid sum.  h Σ_j e_k²(x_j) is 1, or 0 when
    k ≡ 0 mod J+1, so it equals ε²/α · Σ η̃_m over the folded spectrum
    (`noise.fold_noise`) and is at most ε² Σ η_k / α.
    """
    sigma = eigenfunction_matrix(grid, noise.P)
    total = float((sigma ** 2 * noise.eta_array).sum())
    return params.epsilon ** 2 * grid.h / params.alpha * total


def step_energy_residual(psi_n, psi_np1, psi_tilde_damped, forcing_vec,
                         params: ModelParams, tau: float) -> float:
    """Pathwise energy identity residual for one accepted step.

    Returns ‖Ψⁿ⁺¹‖² - e^{-ατ}‖Ψⁿ‖² + ατ‖mid‖² - 2 Re⟨mid, g⟩ with
    mid = (Ψⁿ⁺¹ + e^{f(Ψⁿ)}Ψⁿ)/2; zero in exact arithmetic, so the float
    value is pure roundoff.  Pass forcing_vec=None for a noise-free step.
    """
    mid = 0.5 * (psi_np1 + psi_tilde_damped)
    res = _abs2(psi_np1).sum() - np.exp(-params.alpha * tau) * _abs2(psi_n).sum()
    res += params.alpha * tau * _abs2(mid).sum()
    if forcing_vec is not None:
        res -= 2.0 * np.real(np.conj(mid) * forcing_vec).sum()
    return float(res)


# ---------------------------------------------------------------------------
# tangent dynamics


def z_view(dpsi: np.ndarray, h: float) -> np.ndarray:
    """(J+2, 4) real array of rows (dp, dq, dv, dw) for j = 0..J+1.

    Dirichlet ghosts dp = dq = 0 at j = 0 and j = J+1; forward differences
    dv_j = (dp_j - dp_{j-1})/h for j >= 1.  Row 0 of (dv, dw) is unused and
    left at zero.
    """
    J = dpsi.shape[0]
    z = np.zeros((J + 2, 4))
    z[1:J + 1, 0] = dpsi.real
    z[1:J + 1, 1] = dpsi.imag
    z[1:, 2] = (z[1:, 0] - z[:-1, 0]) / h
    z[1:, 3] = (z[1:, 1] - z[:-1, 1]) / h
    return z


def nonlinear_tangent(psi: np.ndarray, dpsi: np.ndarray, lam: int, tau: float,
                      cutoff: CutoffFunction | None = None) -> np.ndarray:
    """Exact Jacobian of the (optionally truncated) phase rotation applied to dΨ.

    For N(Ψ)_j = e^{iλτs|ψ_j|²} ψ_j with s = θ(‖Ψ‖/R) (s = 1 untruncated):
    dN_j = e^{iλτs|ψ_j|²} (dψ_j + i ψ_j d(λτ s |ψ_j|²)), where the angle
    variation carries both the node term 2 s Re(ψ̄_j dψ_j) and, inside the
    cutoff bridge, the norm term |ψ_j|² θ'(‖Ψ‖/R) Re⟨Ψ, dΨ⟩/(R ‖Ψ‖).
    """
    a2 = _abs2(psi)
    if cutoff is None:
        scale = 1.0
        dangle = (2.0 * lam * tau) * np.real(np.conj(psi) * dpsi)
    else:
        norm = float(np.sqrt(a2.sum()))
        s = norm / cutoff.R
        scale = cutoff.theta(s)
        dangle = (2.0 * lam * tau * scale) * np.real(np.conj(psi) * dpsi)
        if norm > 0.0:
            dnorm = float(np.real(np.conj(psi) * dpsi).sum()) / norm
            dangle = dangle + (lam * tau * cutoff.theta_prime(s) / cutoff.R * dnorm) * a2
    phase = np.exp((1j * lam * tau) * (scale * a2))
    return phase * (dpsi + 1j * psi * dangle)


def propagate_tangent_linear(dpsi: np.ndarray, prop: LinearPropagator) -> np.ndarray:
    """Tangent map of the linear substep: e^{-ατ/2} L₋⁻¹ L₊ dΨ (noise drops out)."""
    return prop.propagate(prop.damping_factor * dpsi)


def tangent_step(psi_n: np.ndarray, dpsi: np.ndarray, prop: LinearPropagator,
                 params: ModelParams, cutoff: CutoffFunction | None = None) -> np.ndarray:
    """Exact Jacobian of one full scheme step at base point Ψⁿ, applied to dΨⁿ."""
    if dpsi.shape != psi_n.shape:
        raise ValueError(f"tangent shape {dpsi.shape} != state shape {psi_n.shape}")
    inner = nonlinear_tangent(psi_n, dpsi, params.lam, prop.tau, cutoff)
    return propagate_tangent_linear(inner, prop)


def nonlinear_symplectic_residual(psi: np.ndarray, xi: np.ndarray, zeta: np.ndarray,
                                  lam: int, tau: float) -> float:
    """Max node-wise change of the area form ξ_p ζ_q - ξ_q ζ_p under the
    rotation Jacobian; zero in exact arithmetic (each node map has unit
    determinant)."""
    xi_out = nonlinear_tangent(psi, xi, lam, tau)
    zeta_out = nonlinear_tangent(psi, zeta, lam, tau)
    # area(a, b)_j = Im(conj(a_j) b_j) = a_p b_q - a_q b_p
    before = np.imag(np.conj(xi) * zeta)
    after = np.imag(np.conj(xi_out) * zeta_out)
    return float(np.abs(after - before).max())


# ---------------------------------------------------------------------------
# discrete conformal multi-symplectic law (linear substep)
#
# With raw wedge evaluations W_j = dz_j ∧ M dz_j and the flux
# X_j = dz_j ∧ (K₁ dz_{j+1} - K₂ dz_{j-1}) at midpoints
# z^{n+1/2} = (z^{n+1} + e^{-ατ/2} zⁿ)/2, the linear substep satisfies
#
#     (W^{n+1} - e^{-ατ} Wⁿ) / (2τ) + X^{n+1/2}/h + (α/2) W^{n+1/2} = 0
#
# exactly.  The "printed" alternative puts e^{-ατ} outside the whole temporal
# difference (and no 1/2); both are evaluated so the checker can report which
# one vanishes.

READING_DECAY = "decay-weighted"
READING_PRINTED = "as-printed"


@dataclass(frozen=True, eq=False)
class TwoFormSample:
    """A tangent pair at consecutive steps of the linear substep.

    `xi_after`/`zeta_after` must be the linear-substep tangent images of
    `xi_before`/`zeta_before` (see `two_form_sample`).
    """

    xi_before: np.ndarray
    zeta_before: np.ndarray
    xi_after: np.ndarray
    zeta_after: np.ndarray
    step_index: int = 0


def two_form_sample(xi: np.ndarray, zeta: np.ndarray, prop: LinearPropagator,
                    step_index: int = 0) -> TwoFormSample:
    """Propagate a tangent pair through one linear substep and package it."""
    return TwoFormSample(
        xi_before=xi,
        zeta_before=zeta,
        xi_after=propagate_tangent_linear(xi, prop),
        zeta_after=propagate_tangent_linear(zeta, prop),
        step_index=step_index,
    )


def _wedge_m(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # dz ∧ M dz on the pair: rows of a, b are (p, q, v, w) per node.
    return 2.0 * (a[:, 1] * b[:, 0] - a[:, 0] * b[:, 1])


def _dot_k1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a · (K₁ b) = a_p b_v + a_q b_w
    return a[:, 0] * b[:, 2] + a[:, 1] * b[:, 3]


def _dot_k2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a · (K₂ b) = -a_v b_p - a_w b_q
    return -(a[:, 2] * b[:, 0] + a[:, 3] * b[:, 1])


def conformal_ms_terms(sample: TwoFormSample, tau: float, h: float, alpha: float):
    """Per-interior-node terms (temporal_decay, temporal_printed, flux, dissipation).

    All arrays have length J (nodes j = 1..J); ghost nodes only feed the flux.
    """
    zx_n = z_view(sample.xi_before, h)
    zz_n = z_view(sample.zeta_before, h)
    zx_np1 = z_view(sample.xi_after, h)
    zz_np1 = z_view(sample.zeta_after, h)
    damp = np.exp(-0.5 * alpha * tau)
    zx_mid = 0.5 * (zx_np1 + damp * zx_n)
    zz_mid = 0.5 * (zz_np1 + damp * zz_n)

    J = sample.xi_before.shape[0]
    inner = slice(1, J + 1)
    w_n = _wedge_m(zx_n, zz_n)[inner]
    w_np1 = _wedge_m(zx_np1, zz_np1)[inner]
    w_mid = _wedge_m(zx_mid, zz_mid)[inner]

    up = slice(2, J + 2)
    down = slice(0, J)
    flux_k1 = _dot_k1(zx_mid[inner], zz_mid[up]) - _dot_k1(zz_mid[inner], zx_mid[up])
    flux_k2 = _dot_k2(zx_mid[inner], zz_mid[down]) - _dot_k2(zz_mid[inner], zx_mid[down])
    flux = (flux_k1 - flux_k2) / h

    temporal_decay = (w_np1 - np.exp(-alpha * tau) * w_n) / (2.0 * tau)
    temporal_printed = np.exp(-alpha * tau) * (w_np1 - w_n) / tau
    dissipation = 0.5 * alpha * w_mid
    return temporal_decay, temporal_printed, flux, dissipation


def conformal_ms_residual(sample: TwoFormSample, tau: float, h: float, alpha: float,
                          reading: str = READING_DECAY) -> np.ndarray:
    """Absolute residual of the discrete conformal multi-symplectic identity
    per interior node, under the requested temporal-term reading."""
    t_decay, t_printed, flux, diss = conformal_ms_terms(sample, tau, h, alpha)
    if reading == READING_DECAY:
        return np.abs(t_decay + flux + diss)
    if reading == READING_PRINTED:
        return np.abs(t_printed + flux + diss)
    raise ValueError(f"unknown reading {reading!r}")


def resolve_temporal_reading(sample: TwoFormSample, tau: float, h: float, alpha: float) -> str:
    """Report which temporal-term reading annihilates the residual.

    Returns READING_DECAY or READING_PRINTED; ties (e.g. α = 0, where both
    coincide up to the 1/2 factor) resolve to the reading with the smaller
    relative residual.
    """
    t_decay, t_printed, flux, diss = conformal_ms_terms(sample, tau, h, alpha)
    scale = np.maximum(np.maximum(np.abs(t_decay), np.abs(flux)), np.abs(diss))
    scale = np.maximum(scale, 1e-300)
    r_decay = (np.abs(t_decay + flux + diss) / scale).max()
    r_printed = (np.abs(t_printed + flux + diss) / scale).max()
    return READING_DECAY if r_decay <= r_printed else READING_PRINTED


# ---------------------------------------------------------------------------
# stencil norm bound


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
    """Solve the factored constant tridiagonal system for b of shape (J,) or (J, m)."""
    J = piv.shape[0]
    x = np.array(b, dtype=np.result_type(b, piv))
    for k in range(1, J):
        x[k] -= mult[k] * x[k - 1]
    x[J - 1] /= piv[J - 1]
    for k in range(J - 2, -1, -1):
        x[k] = (x[k] - off * x[k + 1]) / piv[k]
    return x


def _norm_a_power(J: int, iterations: int = 200) -> float:
    """Dominant eigenvalue of -A by shift-inverted power iteration.

    Plain power iteration stalls on the O(J⁻²) spectral gap, so the power
    method is applied to (4I + A)⁻¹, whose dominant mode is the one sought;
    each application is one tridiagonal solve.
    """
    mult, piv = tridiag_factor(J, 2.0, 1.0)
    j = np.arange(1, J + 1)
    # start near the top mode (alternating sign) to cut the transient
    v = np.sin(np.pi * J / (J + 1) * j)
    v /= np.linalg.norm(v)
    rayleigh = 0.0
    for _ in range(iterations):
        v = tridiag_solve(mult, piv, 1.0, v)
        v /= np.linalg.norm(v)
        minus_av = 2.0 * v
        minus_av[1:] -= v[:-1]
        minus_av[:-1] -= v[1:]
        new = float(v @ minus_av)
        if abs(new - rayleigh) <= 1e-15 * max(1.0, abs(new)):
            rayleigh = new
            break
        rayleigh = new
    return rayleigh


def matrix_norm_A(J: int) -> float:
    """2-norm of the second-difference stencil A = tridiag(1, -2, 1) of size J.

    Computed both in closed form, 2 + 2 cos(π/(J+1)) (< 4 for every J), and by
    shift-inverted power iteration; raises NumericalError if the two disagree
    beyond 1e-10 or the bound fails.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    closed = 2.0 + 2.0 * float(np.cos(np.pi / (J + 1)))
    power = _norm_a_power(J)
    if abs(closed - power) > 1e-10:
        raise NumericalError(
            f"stencil norm mismatch for J={J}: closed form {closed!r} vs power iteration {power!r}")
    if not (closed < 4.0 and power < 4.0):
        raise NumericalError(f"stencil norm bound violated for J={J}: {closed!r}")
    return closed


# ---------------------------------------------------------------------------
# machine-precision identity suite (used by the CLI `diagnose` subcommand)


@dataclass(frozen=True)
class DiagnosticRow:
    check: str
    step: int
    node: int
    residual: float
    tolerance: float
    passed: bool


def run_diagnostic_suite(seed: int = 0) -> list[DiagnosticRow]:
    """Machine-precision identity checks on randomized inputs; seconds to run."""
    from .integrator import make_propagator, nonlinear_step, step
    from .model import make_grid, spectrum
    from .noise import forcing_weights, generate_path

    rng = np.random.default_rng(seed)
    rows = []

    def record(check, residual, tolerance, step=-1, node=-1):
        rows.append(DiagnosticRow(check, step, node, float(residual), tolerance,
                                  bool(residual <= tolerance)))

    # per-step energy identity on random steps, with and without noise
    for trial in range(20):
        J = int(rng.integers(2, 33))
        grid = make_grid(J)
        params = ModelParams(alpha=float(rng.uniform(0.05, 2.0)),
                             lam=int(rng.choice([-1, 1])),
                             epsilon=float(rng.uniform(0.0, 1.5)) if trial % 2 else 0.0,
                             )
        tau = float(2.0 ** -rng.integers(4, 10))
        prop = make_propagator(grid, tau, params.alpha)
        noise_spec = NoiseSpec(P=4, eta=spectrum("power-law(4)", 4), seed=seed)
        psi = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        g = None
        if params.epsilon > 0.0:
            g = forcing_weights(grid, noise_spec, params.epsilon) @ generate_path(
                noise_spec, tau, 1, trial)[0]
        nxt = step(psi, prop, params, g)
        stage = prop.damping_factor * nonlinear_step(psi, params.lam, tau)
        res = abs(step_energy_residual(psi, nxt, stage, g, params, tau))
        scale = max(1.0, float(_abs2(psi).sum()))
        record("energy-identity", res / scale, 1e-10, step=trial)

    # isometry of the α = 0 linear substep and modulus preservation of the rotation
    grid = make_grid(17)
    prop0 = make_propagator(grid, 2.0 ** -5, 0.0)
    psi = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    norm0 = np.linalg.norm(psi)
    cur = psi
    for _ in range(1000):
        cur = prop0.propagate(cur)
    record("cayley-isometry", abs(np.linalg.norm(cur) - norm0) / norm0, 1e-12)
    rotated = nonlinear_step(psi, 1, 0.25)
    record("rotation-modulus", np.abs(np.abs(rotated) - np.abs(psi)).max(), 1e-14)

    # nonlinear substep symplecticity and the conformal law of the linear substep
    for trial in range(10):
        J = int(rng.integers(2, 17))
        grid = make_grid(J)
        alpha = float(rng.uniform(0.1, 1.5))
        tau = float(2.0 ** -rng.integers(3, 8))
        prop = make_propagator(grid, tau, alpha)
        psi = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        xi = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        zeta = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        record("nonlinear-symplectic",
               nonlinear_symplectic_residual(psi, xi, zeta, 1, tau), 1e-12, step=trial)
        sample = two_form_sample(xi, zeta, prop)
        t_decay, _, flux, diss = conformal_ms_terms(sample, tau, grid.h, alpha)
        scale = np.maximum(np.maximum(np.abs(t_decay), np.abs(flux)), np.abs(diss)).max()
        res = conformal_ms_residual(sample, tau, grid.h, alpha).max()
        record("conformal-multisymplectic", res / max(scale, 1e-300), 1e-10, step=trial)
        reading_ok = resolve_temporal_reading(sample, tau, grid.h, alpha) == READING_DECAY
        record("conformal-reading-resolved", 0.0 if reading_ok else 1.0, 0.5, step=trial)

    # dimension-uniform stencil norm bound
    for J in [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]:
        try:
            value = matrix_norm_A(J)
            record("stencil-norm-bound", max(0.0, value - 4.0) + (0.0 if value < 4.0 else 1.0),
                   0.0, node=J)
        except NumericalError:
            record("stencil-norm-bound", np.inf, 0.0, node=J)

    # cutoff plateau/support and monotone bridge
    cut = CutoffFunction(R=1.0)
    xs = np.linspace(0.0, 3.0, 601)
    theta = cut.theta(xs)
    plateau_err = np.abs(theta[xs <= 1.0] - 1.0).max()
    support_err = np.abs(theta[xs >= 2.0]).max()
    mono_err = max(0.0, float(np.diff(theta).max()))
    record("cutoff-plateau", plateau_err, 0.0)
    record("cutoff-support", support_err, 0.0)
    record("cutoff-monotone", mono_err, 1e-15)

    return rows
