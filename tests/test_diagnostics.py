import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnls.diagnostics import (
    READING_DECAY,
    READING_PRINTED,
    charge_limit_discrete,
    conformal_ms_residual,
    conformal_ms_terms,
    discrete_charge,
    matrix_norm_A,
    mean_charge_law,
    nonlinear_symplectic_residual,
    nonlinear_tangent,
    propagate_tangent_linear,
    resolve_temporal_reading,
    run_diagnostic_suite,
    step_energy_residual,
    tangent_step,
    two_form_sample,
    z_view,
)
from dsnls.integrator import CutoffFunction, make_propagator, nonlinear_step, step
from dsnls.model import ModelParams, NoiseSpec, make_grid, spectrum
from dsnls.noise import forcing_weights, generate_path


def _random_state(J, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(J) + 1j * rng.standard_normal(J)


class TestCharge:
    def test_zero_state(self):
        assert discrete_charge(np.zeros(5, dtype=complex), 0.1) == 0.0

    def test_all_ones(self):
        assert discrete_charge(np.ones(9, dtype=complex), 0.1) == pytest.approx(0.9)

    def test_sine_charge_approaches_l2_norm(self):
        # h sum sin^2(pi x_j) equals exactly 1/2 on these grids, the L2 norm of sin(pi x)
        for J in (9, 100, 4000):
            grid = make_grid(J)
            psi = np.sin(np.pi * grid.nodes).astype(complex)
            assert discrete_charge(psi, grid.h) == pytest.approx(0.5, abs=1e-12)

    def test_mean_charge_law_endpoints(self):
        params = ModelParams(alpha=0.5, lam=1, epsilon=1.0)
        assert mean_charge_law(0.0, 0.7, params, 1.3) == pytest.approx(0.7, abs=1e-15)
        assert mean_charge_law(1e6, 0.7, params, 1.3) == pytest.approx(
            params.epsilon ** 2 * 1.3 / params.alpha)

    def test_mean_charge_law_pure_decay(self):
        params = ModelParams(alpha=0.25, lam=-1, epsilon=0.0)
        t = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(mean_charge_law(t, 2.0, params, 5.0),
                                   2.0 * np.exp(-0.5 * t), rtol=1e-15)

    def test_charge_limit_zero_noise(self):
        grid = make_grid(9)
        noise = NoiseSpec(P=3, eta=spectrum("power-law(6)", 3), seed=0)
        assert charge_limit_discrete(grid, noise, ModelParams(0.5, 1, 0.0)) == 0.0

    def test_charge_limit_single_term(self):
        grid = make_grid(1)
        noise = NoiseSpec(P=1, eta=(1.0,), seed=0)
        params = ModelParams(alpha=0.8, lam=1, epsilon=0.3)
        expected = params.epsilon ** 2 * grid.h / params.alpha * 2.0 * np.sin(np.pi * 0.5) ** 2
        assert charge_limit_discrete(grid, noise, params) == pytest.approx(expected, rel=1e-15)

    def test_charge_limit_standard_preset_direct_summation(self):
        # independent oracle: explicit python double loop over nodes and modes
        grid = make_grid(9)
        noise = NoiseSpec(P=100, eta=spectrum("power-law(6)", 100), seed=0)
        params = ModelParams(alpha=0.5, lam=1, epsilon=1.0)
        direct = 0.0
        for j in range(1, 10):
            for k in range(1, 101):
                direct += k ** -6.0 * 2.0 * np.sin(k * np.pi * j / 10.0) ** 2
        direct *= params.epsilon ** 2 * grid.h / params.alpha
        value = charge_limit_discrete(grid, noise, params)
        assert value == pytest.approx(direct, rel=1e-13)
        assert value == pytest.approx(2.0346840892, abs=1e-9)


class TestEnergyIdentity:
    def test_zero_state_zero_noise(self):
        params = ModelParams(alpha=0.5, lam=1, epsilon=0.0)
        z = np.zeros(4, dtype=complex)
        assert step_energy_residual(z, z, z, None, params, 0.1) == 0.0

    def test_noise_free_step(self):
        grid = make_grid(12)
        params = ModelParams(alpha=0.9, lam=-1, epsilon=0.0)
        prop = make_propagator(grid, 2.0 ** -5, params.alpha)
        psi = _random_state(12, seed=1)
        nxt = step(psi, prop, params, None)
        stage = prop.damping_factor * nonlinear_step(psi, params.lam, prop.tau)
        res = step_energy_residual(psi, nxt, stage, None, params, prop.tau)
        assert abs(res) <= 1e-12

    def test_full_noise_step(self):
        grid = make_grid(12)
        params = ModelParams(alpha=0.5, lam=1, epsilon=1.0)
        prop = make_propagator(grid, 2.0 ** -6, params.alpha)
        noise = NoiseSpec(P=6, eta=spectrum("power-law(6)", 6), seed=2)
        g = forcing_weights(grid, noise, params.epsilon) @ generate_path(
            noise, prop.tau, 1, 0)[0]
        psi = _random_state(12, seed=3)
        nxt = step(psi, prop, params, g)
        stage = prop.damping_factor * nonlinear_step(psi, params.lam, prop.tau)
        res = step_energy_residual(psi, nxt, stage, g, params, prop.tau)
        assert abs(res) <= 1e-10 * max(1.0, np.linalg.norm(psi) ** 2)


class TestTangent:
    def _setup(self, J=10, seed=0, alpha=0.5):
        grid = make_grid(J)
        params = ModelParams(alpha=alpha, lam=1, epsilon=0.0)
        prop = make_propagator(grid, 2.0 ** -6, params.alpha)
        psi = _random_state(J, seed=seed)
        return grid, params, prop, psi

    def test_zero_tangent(self):
        _, params, prop, psi = self._setup()
        out = tangent_step(psi, np.zeros_like(psi), prop, params)
        assert np.all(out == 0.0)

    def test_finite_difference_convergence(self):
        _, params, prop, psi = self._setup(seed=5)
        d = _random_state(10, seed=6)
        exact = tangent_step(psi, d, prop, params)
        errs = []
        for eps in (1e-4, 1e-5, 1e-6):
            fd = (step(psi + eps * d, prop, params, None)
                  - step(psi, prop, params, None)) / eps
            errs.append(np.abs(fd - exact).max())
        # first-order convergence in the probe size
        assert errs[1] <= 0.2 * errs[0]
        assert errs[2] <= 0.2 * errs[1]

    def test_suppressed_nonlinearity_gives_linear_map(self):
        _, params, prop, psi = self._setup(seed=7)
        cut = CutoffFunction(R=np.linalg.norm(psi) / 3.0)  # norm >= 2R: theta = 0
        d = _random_state(10, seed=8)
        out = tangent_step(psi, d, prop, params, cutoff=cut)
        np.testing.assert_array_equal(out, propagate_tangent_linear(d, prop))

    def test_truncated_jacobian_finite_difference_in_bridge(self):
        _, params, prop, psi = self._setup(seed=9)
        cut = CutoffFunction(R=np.linalg.norm(psi) / 1.5)  # inside the bridge region
        d = _random_state(10, seed=10)
        exact = tangent_step(psi, d, prop, params, cutoff=cut)
        eps = 1e-6
        fd = (step(psi + eps * d, prop, params, None, cutoff=cut)
              - step(psi, prop, params, None, cutoff=cut)) / eps
        assert np.abs(fd - exact).max() <= 1e-4 * max(1.0, np.abs(exact).max())

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), a=st.floats(-2, 2), b=st.floats(-2, 2))
    def test_linearity(self, seed, a, b):
        _, params, prop, psi = self._setup(seed=seed % 7)
        xi = _random_state(10, seed=seed)
        zeta = _random_state(10, seed=seed + 1)
        combo = a * xi + b * zeta
        lhs = tangent_step(psi, combo, prop, params)
        rhs = (a * tangent_step(psi, xi, prop, params)
               + b * tangent_step(psi, zeta, prop, params))
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())


class TestNonlinearSymplectic:
    def test_tau_zero(self):
        psi = _random_state(8, seed=1)
        xi = _random_state(8, seed=2)
        zeta = _random_state(8, seed=3)
        assert nonlinear_symplectic_residual(psi, xi, zeta, 1, 0.0) == 0.0

    def test_constant_modulus(self):
        psi = np.exp(1j * np.linspace(0, 2, 8))
        xi = _random_state(8, seed=4)
        zeta = _random_state(8, seed=5)
        assert nonlinear_symplectic_residual(psi, xi, zeta, 1, 0.4) <= 1e-14

    def test_random_states(self):
        for seed in range(20):
            psi = _random_state(12, seed=seed)
            xi = _random_state(12, seed=100 + seed)
            zeta = _random_state(12, seed=200 + seed)
            assert nonlinear_symplectic_residual(psi, xi, zeta, -1, 0.3) <= 1e-12


def _hand_built_terms(sample, tau, h, alpha):
    """Independent evaluation with explicit 4x4 matrices and python loops."""
    M = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float)
    K1 = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float)
    K2 = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)

    def views(dpsi):
        J = dpsi.shape[0]
        p = [0.0] + list(dpsi.real) + [0.0]
        q = [0.0] + list(dpsi.imag) + [0.0]
        v = [0.0] * (J + 2)
        w = [0.0] * (J + 2)
        for j in range(1, J + 2):
            v[j] = (p[j] - p[j - 1]) / h
            w[j] = (q[j] - q[j - 1]) / h
        return [np.array([p[j], q[j], v[j], w[j]]) for j in range(J + 2)]

    def wedge(a, B, b):
        return a @ B @ b - b @ B @ a

    xi_n = views(sample.xi_before)
    zeta_n = views(sample.zeta_before)
    xi_np1 = views(sample.xi_after)
    zeta_np1 = views(sample.zeta_after)
    damp = np.exp(-0.5 * alpha * tau)
    xi_mid = [0.5 * (a + damp * b) for a, b in zip(xi_np1, xi_n)]
    zeta_mid = [0.5 * (a + damp * b) for a, b in zip(zeta_np1, zeta_n)]

    J = sample.xi_before.shape[0]
    rows = []
    for j in range(1, J + 1):
        w_n = wedge(xi_n[j], M, zeta_n[j])
        w_np1 = wedge(xi_np1[j], M, zeta_np1[j])
        w_mid = wedge(xi_mid[j], M, zeta_mid[j])
        flux = (xi_mid[j] @ K1 @ zeta_mid[j + 1] - zeta_mid[j] @ K1 @ xi_mid[j + 1]
                - xi_mid[j] @ K2 @ zeta_mid[j - 1] + zeta_mid[j] @ K2 @ xi_mid[j - 1]) / h
        temporal = (w_np1 - np.exp(-alpha * tau) * w_n) / (2.0 * tau)
        rows.append((temporal, flux, 0.5 * alpha * w_mid))
    return rows


class TestConformalLaw:
    def _sample(self, J=2, seed=0, tau=2.0 ** -5, alpha=0.5):
        grid = make_grid(J)
        prop = make_propagator(grid, tau, alpha)
        xi = _random_state(J, seed=seed)
        zeta = _random_state(J, seed=seed + 1)
        return grid, prop, two_form_sample(xi, zeta, prop)

    def test_hand_built_j2_instance(self):
        # every term matches a from-scratch evaluation with explicit matrices
        tau, alpha = 2.0 ** -5, 0.5
        grid, prop, sample = self._sample(J=2, seed=3, tau=tau, alpha=alpha)
        t_decay, _, flux, diss = conformal_ms_terms(sample, tau, grid.h, alpha)
        hand = _hand_built_terms(sample, tau, grid.h, alpha)
        for j, (ht, hf, hd) in enumerate(hand):
            assert t_decay[j] == pytest.approx(ht, rel=1e-12, abs=1e-12)
            assert flux[j] == pytest.approx(hf, rel=1e-12, abs=1e-12)
            assert diss[j] == pytest.approx(hd, rel=1e-12, abs=1e-12)
            assert abs(ht + hf + hd) <= 1e-10 * max(abs(ht), abs(hf), abs(hd))

    def test_decay_reading_vanishes(self):
        for seed in range(10):
            J = 2 + seed
            tau = 2.0 ** -(4 + seed % 4)
            alpha = 0.3 + 0.2 * seed
            grid, prop, sample = self._sample(J=J, seed=seed, tau=tau, alpha=alpha)
            t_decay, _, flux, diss = conformal_ms_terms(sample, tau, grid.h, alpha)
            scale = max(np.abs(t_decay).max(), np.abs(flux).max(), np.abs(diss).max())
            res = conformal_ms_residual(sample, tau, grid.h, alpha, reading=READING_DECAY)
            assert res.max() <= 1e-10 * scale

    def test_printed_reading_does_not_vanish(self):
        grid, prop, sample = self._sample(J=6, seed=2, alpha=0.8)
        res = conformal_ms_residual(sample, 2.0 ** -5, grid.h, 0.8, reading=READING_PRINTED)
        t_decay, _, flux, diss = conformal_ms_terms(sample, 2.0 ** -5, grid.h, 0.8)
        scale = max(np.abs(t_decay).max(), np.abs(flux).max(), np.abs(diss).max())
        assert res.max() > 1e-4 * scale

    def test_resolver_picks_decay(self):
        grid, prop, sample = self._sample(J=5, seed=4, alpha=0.6)
        assert resolve_temporal_reading(sample, 2.0 ** -5, grid.h, 0.6) == READING_DECAY

    def test_conservative_limit_alpha_zero(self):
        # alpha = 0: the law reduces to plain discrete multi-symplectic conservation
        grid, prop, sample = self._sample(J=4, seed=5, alpha=0.0)
        res = conformal_ms_residual(sample, 2.0 ** -5, grid.h, 0.0)
        t_decay, _, flux, diss = conformal_ms_terms(sample, 2.0 ** -5, grid.h, 0.0)
        assert np.all(diss == 0.0)
        assert res.max() <= 1e-10 * max(np.abs(t_decay).max(), np.abs(flux).max())

    def test_identical_tangents_annihilate(self):
        grid = make_grid(3)
        prop = make_propagator(grid, 2.0 ** -5, 0.5)
        xi = _random_state(3, seed=9)
        sample = two_form_sample(xi, xi, prop)
        t_decay, t_printed, flux, diss = conformal_ms_terms(sample, prop.tau, grid.h, 0.5)
        for arr in (t_decay, t_printed, flux, diss):
            np.testing.assert_array_equal(arr, np.zeros(3))

    def test_pair_swap_antisymmetry(self):
        grid, prop, sample = self._sample(J=4, seed=11)
        swapped = two_form_sample(sample.zeta_before, sample.xi_before, prop)
        a = conformal_ms_terms(sample, prop.tau, grid.h, 0.5)
        b = conformal_ms_terms(swapped, prop.tau, grid.h, 0.5)
        for arr_a, arr_b in zip(a, b):
            np.testing.assert_allclose(arr_a, -arr_b, rtol=0, atol=1e-14)
        res_a = conformal_ms_residual(sample, prop.tau, grid.h, 0.5)
        res_b = conformal_ms_residual(swapped, prop.tau, grid.h, 0.5)
        np.testing.assert_allclose(res_a, res_b, rtol=0, atol=1e-14)


class TestZView:
    def test_forward_differences_and_ghosts(self):
        dpsi = np.array([1.0 + 2.0j, 3.0 - 1.0j])
        z = z_view(dpsi, 0.5)
        assert z.shape == (4, 4)
        np.testing.assert_array_equal(z[0], [0, 0, 0, 0])
        np.testing.assert_array_equal(z[1, :2], [1.0, 2.0])
        np.testing.assert_array_equal(z[3, :2], [0.0, 0.0])
        assert z[1, 2] == pytest.approx((1.0 - 0.0) / 0.5)
        assert z[2, 2] == pytest.approx((3.0 - 1.0) / 0.5)
        assert z[3, 2] == pytest.approx((0.0 - 3.0) / 0.5)

    def test_nonlinear_tangent_reduces_to_plain_rotation_when_flat(self):
        psi = np.zeros(4, dtype=complex)
        d = _random_state(4, seed=1)
        np.testing.assert_allclose(nonlinear_tangent(psi, d, 1, 0.3), d, atol=1e-15)


class TestMatrixNorm:
    def test_small_closed_forms(self):
        assert matrix_norm_A(1) == 2.0
        assert matrix_norm_A(2) == 3.0

    def test_power_doubling_ladder(self):
        for J in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            value = matrix_norm_A(J)
            trig = 4.0 * np.sin(J * np.pi / (2.0 * (J + 1))) ** 2
            assert value < 4.0
            assert value == pytest.approx(trig, abs=1e-12)

    def test_large_dimension_close_to_bound(self):
        value = matrix_norm_A(1024)
        assert 3.99 < value < 4.0

    def test_rejects(self):
        with pytest.raises(ValueError):
            matrix_norm_A(0)


def test_diagnostic_suite_all_pass():
    rows = run_diagnostic_suite(seed=0)
    failing = [r for r in rows if not r.passed]
    assert failing == []
    checks = {r.check for r in rows}
    assert "energy-identity" in checks
    assert "conformal-multisymplectic" in checks
    assert "stencil-norm-bound" in checks
