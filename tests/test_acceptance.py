"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The experiments reuse the
shipped presets at desk scale; total runtime is a few minutes, dominated by
the horizon study (criterion 8).
"""

import numpy as np
import pytest

from dsnls.diagnostics import (
    conformal_ms_residual,
    conformal_ms_terms,
    matrix_norm_A,
    step_energy_residual,
    two_form_sample,
)
from dsnls.harness import charge_experiment, ergodic_experiment, ms_error, order_fit
from dsnls.integrator import (
    CutoffFunction,
    integrate,
    make_propagator,
    nonlinear_step,
    step,
)
from dsnls.model import ModelParams, NoiseSpec, make_grid, sample_initial, spectrum
from dsnls.noise import fold_noise, forcing_weights, generate_path, project_forcing
from dsnls.presets import preset_config


def _report(num, name, passed, detail):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if passed else 'FAIL'} — {detail}")


def test_c01_per_step_energy_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(1000):
        J = int(rng.integers(2, 65))
        grid = make_grid(J)
        params = ModelParams(
            alpha=float(rng.uniform(0.05, 2.0)),
            lam=int(rng.choice([-1, 1])),
            epsilon=float(rng.uniform(0.0, 2.0)),
        )
        tau = float(2.0 ** -rng.integers(3, 11))
        prop = make_propagator(grid, tau, params.alpha)
        psi = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        g = None
        if params.epsilon > 0.0:
            noise = NoiseSpec(P=5, eta=spectrum("power-law(4)", 5), seed=trial)
            g = project_forcing(generate_path(noise, tau, 1, 0).increments,
                                forcing_weights(grid, noise, params.epsilon))[0]
        nxt = step(psi, prop, params, g)
        stage = prop.damping_factor * nonlinear_step(psi, params.lam, tau)
        res = abs(step_energy_residual(psi, nxt, stage, g, params, tau))
        worst = max(worst, res / max(1.0, float((np.abs(psi) ** 2).sum())))
    passed = worst <= 1e-10
    _report(1, "per-step energy identity", passed, f"max relative residual {worst:.2e} <= 1e-10")
    assert passed


def test_c02_cayley_isometry_and_rotation_moduli():
    rng = np.random.default_rng(202)
    grid = make_grid(32)
    prop = make_propagator(grid, 2.0 ** -6, 0.0)
    psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    norm0 = np.linalg.norm(psi)
    cur = psi.copy()
    for _ in range(10_000):
        cur = prop.propagate(cur)
    drift = abs(np.linalg.norm(cur) - norm0) / norm0

    worst_mod = 0.0
    for seed in range(50):
        state = np.random.default_rng(seed).standard_normal(32) * (1 + 1j)
        state = state + 1j * np.random.default_rng(seed + 1).standard_normal(32)
        out = nonlinear_step(state, 1 if seed % 2 else -1, 0.37)
        worst_mod = max(worst_mod, float(np.abs(np.abs(out) - np.abs(state)).max()))

    passed = drift <= 1e-12 and worst_mod <= 1e-14
    _report(2, "Cayley isometry", passed,
            f"norm drift {drift:.2e} <= 1e-12 over 1e4 steps; "
            f"node-modulus drift {worst_mod:.2e} <= 1e-14")
    assert passed


def test_c03_conformal_multisymplectic_residual():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        J = int(rng.integers(2, 33))
        grid = make_grid(J)
        alpha = float(rng.uniform(0.1, 1.5))
        tau = float(2.0 ** -rng.integers(3, 9))
        prop = make_propagator(grid, tau, alpha)
        xi = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        zeta = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        sample = two_form_sample(xi, zeta, prop)
        t_decay, _, flux, diss = conformal_ms_terms(sample, tau, grid.h, alpha)
        scale = max(np.abs(t_decay).max(), np.abs(flux).max(), np.abs(diss).max())
        res = conformal_ms_residual(sample, tau, grid.h, alpha).max()
        worst = max(worst, res / scale)
    passed = worst <= 1e-10
    _report(3, "conformal multi-symplectic law", passed,
            f"max residual {worst:.2e} of largest term <= 1e-10 (decay-weighted reading)")
    assert passed


def test_c04_stencil_norm_bound():
    sizes = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    values = {J: matrix_norm_A(J) for J in sizes}  # raises if the two routes disagree
    exact_small = values[1] == 2.0 and values[2] == 3.0
    bounded = all(v < 4.0 for v in values.values())
    passed = exact_small and bounded
    _report(4, "stencil norm bound", passed,
            f"norm(J=1)={values[1]}, norm(J=2)={values[2]}, "
            f"norm(J=1024)={values[1024]:.10f} < 4; closed form and power iteration "
            f"agree to 1e-10 for all J in {sizes}")
    assert passed


def test_c05_stochastic_charge_plateau():
    config = preset_config("fig1b")
    record = charge_experiment(config)
    limit = record.extras["charge_limit_discrete"]
    last = record.rows[-1]
    assert last[1] == pytest.approx(35.0)
    mean, se = last[2], last[3]
    passed = abs(mean - limit) <= 4.0 * se
    _report(5, "stochastic charge plateau", passed,
            f"MC mean at T=35 is {mean:.4f} (SE {se:.4f}); "
            f"|mean - {limit:.4f}| = {abs(mean - limit):.4f} <= 4 SE = {4 * se:.4f}")
    assert passed


def test_c06_deterministic_charge_decay():
    from dataclasses import replace
    config = replace(preset_config("fig1a"), M=1, record_stride=1)
    record = charge_experiment(config)
    charges = np.array([row[2] for row in record.rows])
    monotone = bool(np.all(np.diff(charges) <= 0.0))
    final_fraction = charges[-1] / charges[0]
    passed = monotone and final_fraction < 1e-6
    _report(6, "deterministic charge decay", passed,
            f"monotone at every step: {monotone}; final/initial = {final_fraction:.2e} < 1e-6")
    assert passed


def test_c07a_convergence_order_deterministic():
    record = ms_error(preset_config("fig4-det"))
    fit = order_fit([(tau, err) for tau, _, err, _ in record.rows])
    passed = 1.8 <= fit.slope <= 2.2
    _report(7, "convergence order, eps=0", passed,
            f"fitted slope {fit.slope:.4f} (window [1.8, 2.2]); "
            f"errors " + ", ".join(f"{e:.3e}" for _, _, e, _ in record.rows))
    assert passed, (
        f"fitted slope {fit.slope:.4f} outside [1.8, 2.2]. ms_error compares the "
        "Strang-processed output R(tau/2) o Lie^N o R(-tau/2), which is second order "
        "for eps = 0; raw Lie iterates are first order and read about 1.76 here.")


def test_c07b_convergence_order_stochastic():
    record = ms_error(preset_config("fig4-stoch"))
    fit = order_fit([(tau, err) for tau, _, err, _ in record.rows])
    passed = 0.8 <= fit.slope <= 1.2
    _report(7, "convergence order, eps=1", passed,
            f"fitted slope {fit.slope:.4f} (window [0.8, 1.2]); "
            f"errors " + ", ".join(f"{e:.3e}" for _, _, e, _ in record.rows))
    assert passed


def test_c08_error_flat_in_horizon():
    record = ms_error(preset_config("fig3"))
    tau_target = 2.0 ** -8
    errs = [err for tau, _, err, _ in record.rows if tau == tau_target]
    assert len(errs) == 4
    ratio = max(errs) / min(errs)
    passed = ratio <= 2.0
    _report(8, "horizon-independent error", passed,
            f"E(tau=2^-8) over T in (10, 20, 40, 80): "
            + ", ".join(f"{e:.3e}" for e in errs) + f"; max/min = {ratio:.3f} <= 2")
    assert passed


def test_c09_ergodic_mixing():
    record = ergodic_experiment(preset_config("fig2"))
    curves = {}
    for t, initial, obs, mean, _ in record.rows:
        curves.setdefault((obs, t), {})[initial] = mean
    details = []
    passed = True
    for obs in ("exp-norm2", "sin-norm2"):
        early = curves[(obs, 1.0)]
        late = curves[(obs, 100.0)]
        spread_early = max(early.values()) - min(early.values())
        spread_late = max(late.values()) - min(late.values())
        contraction = spread_late / spread_early
        details.append(f"{obs}: spread {spread_early:.4f} -> {spread_late:.6f} "
                       f"(x{contraction:.4f})")
        passed = passed and contraction <= 0.2
    _report(9, "ergodic mixing", passed, "; ".join(details) + "; contraction <= 0.2")
    assert passed


def test_c10_truncation_coincidence():
    grid = make_grid(9)
    params = ModelParams(alpha=0.5, lam=1, epsilon=1.0)
    noise = NoiseSpec(P=20, eta=spectrum("power-law(6)", 20), seed=404)
    tau = 2.0 ** -6
    prop = make_propagator(grid, tau, params.alpha)
    psi0 = sample_initial(grid, "sine")
    path = generate_path(fold_noise(grid, noise), tau, 128, 0)

    plain = integrate(psi0, prop, params, noise, path, record_stride=1)
    radius = float(np.sqrt((np.abs(plain.states) ** 2).sum(axis=1)).max()) * 1.5
    cut = CutoffFunction(R=radius)
    truncated = integrate(psi0, prop, params, noise, path, cutoff=cut, record_stride=1)
    inside_identical = bool(np.array_equal(plain.states, truncated.states))

    rng = np.random.default_rng(9)
    big = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    small_cut = CutoffFunction(R=float(np.linalg.norm(big)) / 2.5)  # norm >= 2R
    g = project_forcing(generate_path(noise, tau, 1, 1).increments,
                        forcing_weights(grid, noise, params.epsilon))[0]
    suppressed = step(big, prop, params, g, cutoff=small_cut)
    linear_only = prop.solve_minus(prop.apply_plus(prop.damping_factor * big) + g)
    suppression_exact = bool(np.array_equal(suppressed, linear_only))

    passed = inside_identical and suppression_exact
    _report(10, "truncation coincidence", passed,
            f"128 steps inside radius bit-identical: {inside_identical}; "
            f"norm >= 2R step equals the damped linear step exactly: {suppression_exact}")
    assert passed
