import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnls.integrator import (
    BlowUpError,
    CutoffFunction,
    column_norm2,
    integrate,
    make_propagator,
    nonlinear_step,
    step,
)
from dsnls.model import ModelParams, NoiseSpec, make_grid, spectrum
from dsnls.noise import forcing_blocks, forcing_weights, generate_path, project_forcing


def _random_state(J, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(J) + 1j * rng.standard_normal(J)


def _noise_spec(P=4, seed=1):
    return NoiseSpec(P=P, eta=spectrum("power-law(6)", P), seed=seed)


class TestNonlinearStep:
    def test_tau_zero_identity(self):
        psi = _random_state(6)
        np.testing.assert_array_equal(nonlinear_step(psi, 1, 0.0), psi)

    def test_constant_modulus_global_phase(self):
        c = 2.25
        psi = np.sqrt(c) * np.exp(1j * np.linspace(0.0, 1.5, 5))
        out = nonlinear_step(psi, -1, 0.3)
        np.testing.assert_allclose(out, np.exp(-1j * c * 0.3) * psi, rtol=0, atol=1e-14)

    def test_modulus_preserved_nodewise(self):
        psi = _random_state(64, seed=3)
        out = nonlinear_step(psi, 1, 0.7)
        assert np.abs(np.abs(out) - np.abs(psi)).max() <= 1e-15 * np.abs(psi).max()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), lam=st.sampled_from([-1, 1]),
           tau=st.floats(0.0, 2.0))
    def test_modulus_property(self, seed, lam, tau):
        psi = _random_state(12, seed=seed)
        out = nonlinear_step(psi, lam, tau)
        assert np.abs(np.abs(out) - np.abs(psi)).max() <= 1e-13

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            nonlinear_step(_random_state(3), 1, -0.1)


class TestPropagator:
    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            make_propagator(make_grid(4), 0.0, 0.5)

    def test_cayley_isometry(self):
        prop = make_propagator(make_grid(24), 2.0 ** -5, 0.0)
        psi = _random_state(24, seed=2)
        out = prop.propagate(psi)
        assert abs(np.linalg.norm(out) - np.linalg.norm(psi)) <= 1e-12 * np.linalg.norm(psi)

    def test_scalar_grid_closed_form(self):
        # J=1: A = (-2); both operators are scalars
        grid = make_grid(1)
        tau, alpha = 0.125, 0.8
        prop = make_propagator(grid, tau, alpha)
        r = tau / (2.0 * grid.h ** 2)
        lminus = 1.0 + 0.25 * alpha * tau + 2j * r
        lplus = 1.0 - 0.25 * alpha * tau - 2j * r
        b = np.array([0.3 - 0.4j])
        np.testing.assert_allclose(prop.solve_minus(b), b / lminus, rtol=0, atol=1e-16)
        np.testing.assert_allclose(prop.apply_plus(b), lplus * b, rtol=0, atol=1e-16)

    def test_solve_then_multiply(self):
        prop = make_propagator(make_grid(33), 2.0 ** -7, 0.6)
        psi = _random_state(33, seed=4)
        back = prop.apply_minus(prop.solve_minus(psi))
        assert np.abs(back - psi).max() <= 1e-12
        batch = np.stack([_random_state(33, seed=s) for s in range(5)], axis=1)
        back = prop.apply_minus(prop.solve_minus(batch))
        assert np.abs(back - batch).max() <= 1e-12

    def test_solve_matches_dense(self):
        J, tau, alpha = 11, 2.0 ** -6, 0.5
        grid = make_grid(J)
        prop = make_propagator(grid, tau, alpha)
        A = (np.diag(-2.0 * np.ones(J)) + np.diag(np.ones(J - 1), 1)
             + np.diag(np.ones(J - 1), -1))
        lminus = np.eye(J) - 1j * tau / (2 * grid.h ** 2) * A + 0.25 * alpha * tau * np.eye(J)
        b = _random_state(J, seed=9)
        np.testing.assert_allclose(prop.solve_minus(b), np.linalg.solve(lminus, b),
                                   rtol=0, atol=1e-13)

    # A backward-stable solve of this L₋ (condition number about 2e3 at
    # J = 1000) agrees with a dense LU solve to a few hundred ulps.
    SOLVE_RTOL = 1e3 * np.finfo(complex).eps

    @pytest.mark.parametrize("J", [1, 2, 3, 9, 1000])
    def test_solve_matches_numpy_solve(self, J):
        grid = make_grid(J)
        tau, alpha = 2.0 ** -10, 0.5
        prop = make_propagator(grid, tau, alpha)
        A = (np.diag(-2.0 * np.ones(J)) + np.diag(np.ones(J - 1), 1)
             + np.diag(np.ones(J - 1), -1))
        lminus = np.eye(J) - 1j * tau / (2 * grid.h ** 2) * A + 0.25 * alpha * tau * np.eye(J)
        b = np.stack([_random_state(J, seed=s) for s in range(3)], axis=1)
        x = prop.solve_minus(b)
        ref = np.linalg.solve(lminus, b)
        assert np.abs(x - ref).max() <= self.SOLVE_RTOL * np.abs(ref).max()

    @pytest.mark.parametrize("J", [1, 2, 3, 9, 100])
    def test_solve_is_column_wise(self, J):
        # Thomas path (J <= 2) and LAPACK path (J >= 3) alike: a column's bits
        # do not depend on the batch it is solved in, which chunk invariance needs
        prop = make_propagator(make_grid(J), 2.0 ** -6, 0.5)
        batch = np.stack([_random_state(J, seed=s) for s in range(7)], axis=1)
        x = prop.solve_minus(batch)
        assert x.shape == (J, 7) and x.flags.c_contiguous
        for i in range(7):
            np.testing.assert_array_equal(prop.solve_minus(batch[:, i:i + 1])[:, 0], x[:, i])
            single = prop.solve_minus(batch[:, i])
            assert single.shape == (J,)
            np.testing.assert_array_equal(single, x[:, i])
        np.testing.assert_array_equal(prop.solve_minus(batch[:, 2:5]), x[:, 2:5])


class TestColumnNorm2:
    @pytest.mark.parametrize("J", [1, 2, 9, 17, 100])
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_rows_added_in_node_order(self, J, m):
        rng = np.random.default_rng(J * 10 + m)
        psi = rng.standard_normal((J, m)) + 1j * rng.standard_normal((J, m))
        a2 = psi.real ** 2 + psi.imag ** 2
        expected = a2[0].copy()
        for row in a2[1:]:
            expected += row
        np.testing.assert_array_equal(column_norm2(psi), expected)
        # a column's sum does not depend on how many columns come with it
        np.testing.assert_array_equal(column_norm2(psi[:, :1]), expected[:1])

    def test_flat_state_keeps_numpy_sum(self):
        psi = _random_state(100)
        assert column_norm2(psi) == (psi.real ** 2 + psi.imag ** 2).sum()


class TestStep:
    def test_zero_fixed_point(self):
        grid = make_grid(5)
        params = ModelParams(alpha=0.5, lam=1, epsilon=0.0)
        prop = make_propagator(grid, 0.01, params.alpha)
        out = step(np.zeros(5, dtype=complex), prop, params, None)
        assert np.all(out == 0.0)

    def test_midpoint_form_residual(self):
        # the one-shot update solves the midpoint relation exactly:
        # psi' - d = i tau/h^2 A (psi'+d)/2 - alpha tau (psi'+d)/2 + g, d = damped stage
        grid = make_grid(13)
        params = ModelParams(alpha=0.7, lam=-1, epsilon=1.0)
        tau = 2.0 ** -5
        prop = make_propagator(grid, tau, params.alpha)
        psi = _random_state(13, seed=6)
        rng = np.random.default_rng(8)
        g = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        nxt = step(psi, prop, params, g)
        damped = prop.damping_factor * nonlinear_step(psi, params.lam, tau)
        mid = 0.5 * (nxt + damped)
        amid = -2.0 * mid
        amid[1:] += mid[:-1]
        amid[:-1] += mid[1:]
        resid = nxt - damped - 1j * tau / grid.h ** 2 * amid + 0.5 * params.alpha * tau * mid - g
        assert np.abs(resid).max() <= 1e-12 * max(1.0, np.abs(nxt).max())

    def test_alpha_mismatch_rejected(self):
        grid = make_grid(4)
        prop = make_propagator(grid, 0.01, 0.5)
        with pytest.raises(ValueError):
            step(_random_state(4), prop, ModelParams(alpha=0.6, lam=1, epsilon=0.0), None)

    def test_forcing_shape_rejected(self):
        grid = make_grid(4)
        params = ModelParams(alpha=0.5, lam=1, epsilon=1.0)
        prop = make_propagator(grid, 0.01, 0.5)
        with pytest.raises(ValueError):
            step(_random_state(4), prop, params, np.ones(3, dtype=complex))

    def test_norm_constant_without_damping_or_noise(self):
        # alpha = 0, eps = 0: isometric linear substep + modulus-preserving rotation
        grid = make_grid(16)
        params = ModelParams(alpha=1e-300, lam=1, epsilon=0.0)  # alpha > 0 required by type
        prop = make_propagator(grid, 2.0 ** -5, params.alpha)
        psi = _random_state(16, seed=12)
        norm0 = np.linalg.norm(psi)
        for _ in range(10_000):
            psi = step(psi, prop, params, None)
        assert abs(np.linalg.norm(psi) - norm0) <= 1e-10 * norm0


class TestCutoff:
    def test_plateau_and_support(self):
        cut = CutoffFunction(R=3.0)
        assert cut.theta(0.5) == 1.0
        assert cut.theta(1.0) == 1.0
        assert cut.theta(3.0) == 0.0
        assert cut.theta(2.0) == 0.0
        mid = cut.theta(1.5)
        assert 0.0 < mid < 1.0

    def test_monotone_bridge(self):
        cut = CutoffFunction(R=1.0)
        xs = np.linspace(1.0, 2.0, 2001)
        theta = cut.theta(xs)
        assert np.all(np.diff(theta) <= 0.0)

    def test_c1_across_junctions(self):
        # centered differences of theta stay continuous through x = 1 and x = 2
        cut = CutoffFunction(R=1.0)
        d = 1e-4
        for x0 in (1.0, 2.0):
            left = (cut.theta(x0 - d) - cut.theta(x0 - 3 * d)) / (2 * d)
            right = (cut.theta(x0 + 3 * d) - cut.theta(x0 + d)) / (2 * d)
            assert abs(left) <= 1e-6 and abs(right) <= 1e-6

    def test_derivative_matches_finite_differences(self):
        cut = CutoffFunction(R=1.0)
        xs = np.linspace(1.05, 1.95, 19)
        d = 1e-6
        fd = (cut.theta(xs + d) - cut.theta(xs - d)) / (2 * d)
        np.testing.assert_allclose(cut.theta_prime(xs), fd, atol=1e-6)

    def test_rejects(self):
        with pytest.raises(ValueError):
            CutoffFunction(R=0.0)
        with pytest.raises(ValueError):
            CutoffFunction(R=1.0).theta(-0.5)


class TestTruncatedStep:
    def _setup(self, J=8, seed=0):
        grid = make_grid(J)
        params = ModelParams(alpha=0.5, lam=1, epsilon=1.0)
        prop = make_propagator(grid, 2.0 ** -6, params.alpha)
        psi = _random_state(J, seed=seed)
        rng = np.random.default_rng(seed + 50)
        g = 0.1 * (rng.standard_normal(J) + 1j * rng.standard_normal(J))
        return grid, params, prop, psi, g

    def test_bitwise_identical_inside_radius(self):
        _, params, prop, psi, g = self._setup()
        cut = CutoffFunction(R=2.0 * np.linalg.norm(psi))
        plain = step(psi, prop, params, g)
        truncated = step(psi, prop, params, g, cutoff=cut)
        assert np.array_equal(plain, truncated)

    def test_fully_suppressed_beyond_two_radii(self):
        _, params, prop, psi, g = self._setup(seed=2)
        cut = CutoffFunction(R=np.linalg.norm(psi) / 2.5)  # norm > 2R
        truncated = step(psi, prop, params, g, cutoff=cut)
        linear = prop.solve_minus(prop.apply_plus(prop.damping_factor * psi) + g)
        assert np.array_equal(truncated, linear)

    def test_huge_radius_limit(self):
        _, params, prop, psi, g = self._setup(seed=3)
        cut = CutoffFunction(R=1e300)
        truncated = step(psi, prop, params, g, cutoff=cut)
        plain = step(psi, prop, params, g)
        assert np.abs(truncated - plain).max() <= 1e-15


class TestIntegrate:
    def _base(self, J=6, eps=1.0, seed=0):
        grid = make_grid(J)
        params = ModelParams(alpha=0.5, lam=1, epsilon=eps)
        noise = _noise_spec(seed=seed)
        prop = make_propagator(grid, 2.0 ** -6, params.alpha)
        return grid, params, noise, prop

    @staticmethod
    def _stream(grid, params, noise, prop, n_steps, realization):
        # one realization's forcing rows, as the ensemble driver draws them
        weights = forcing_weights(grid, noise, params.epsilon)
        return itertools.chain.from_iterable(
            forcing_blocks(weights, noise, prop.tau, n_steps, realization))

    def test_zero_steps(self):
        grid, params, noise, prop = self._base()
        psi0 = _random_state(6)
        steps, states = integrate(psi0, prop, params, iter(()), 0)
        assert states.shape == (1, 6)
        np.testing.assert_array_equal(states[0], psi0)
        assert steps.tolist() == [0]

    def test_truncated_long_path_matches_manual_loop(self):
        # more steps than one forcing block, and fewer than the path holds
        grid, params, noise, prop = self._base(seed=5)
        psi0 = _random_state(6, seed=7)
        g_all = project_forcing(generate_path(noise, prop.tau, 700, 1),
                                forcing_weights(grid, noise, params.epsilon))
        psi = psi0.copy()
        for n in range(600):
            psi = step(psi, prop, params, g_all[n])
        steps, states = integrate(psi0, prop, params,
                                  self._stream(grid, params, noise, prop, 600, 1), 600,
                                  record_stride=300)
        np.testing.assert_array_equal(steps, [0, 300, 600])
        np.testing.assert_array_equal(states[-1], psi)

    def test_deterministic_charge_decay(self):
        grid, params, noise, prop = self._base(eps=0.0)
        psi0 = _random_state(6, seed=1)
        _, states = integrate(psi0, prop, params, itertools.repeat(None), 200)
        charges = (np.abs(states) ** 2).sum(axis=1) * grid.h
        assert np.all(np.diff(charges) <= 0.0)

    def test_bit_identical_reruns(self):
        grid, params, noise, prop = self._base()
        psi0 = _random_state(6, seed=2)
        _, s1 = integrate(psi0, prop, params, self._stream(grid, params, noise, prop, 100, 0), 100)
        _, s2 = integrate(psi0, prop, params, self._stream(grid, params, noise, prop, 100, 0), 100)
        assert np.array_equal(s1, s2)

    def test_matches_manual_loop(self):
        grid, params, noise, prop = self._base(seed=4)
        psi0 = _random_state(6, seed=3)
        weights = forcing_weights(grid, noise, params.epsilon)
        g_all = project_forcing(generate_path(noise, prop.tau, 40, 2), weights)
        psi = psi0.copy()
        for n in range(40):
            psi = step(psi, prop, params, g_all[n])
        _, states = integrate(psi0, prop, params, iter(g_all), 40)
        np.testing.assert_array_equal(states[-1], psi)

    def test_record_stride(self):
        # a (J, m) batch is recorded whole, one realization per column
        grid, params, noise, prop = self._base(eps=0.0)
        psi0 = np.stack([_random_state(6, seed=s) for s in (1, 2)], axis=1)
        steps, states = integrate(psi0, prop, params, itertools.repeat(None), 10,
                                  record_stride=4)
        np.testing.assert_array_equal(steps, [0, 4, 8, 10])
        assert states.shape == (4, 6, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_raises_with_step_index(self):
        grid, params, noise, prop = self._base(eps=0.0)
        psi0 = np.full(6, 1e200 + 0j)  # |psi|^2 overflows inside the rotation
        with pytest.raises(BlowUpError) as err:
            integrate(psi0, prop, params, itertools.repeat(None), 5)
        assert err.value.step_index == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_carries_the_last_finite_norm(self):
        # the norm of the failed column's previous state, computed without
        # overflow, and kept when a pool worker pickles the error
        import pickle

        grid, params, noise, prop = self._base(eps=0.0)
        psi0 = np.stack([_random_state(6, seed=1), np.full(6, 1e200 + 0j)], axis=1)
        with pytest.raises(BlowUpError) as err:
            integrate(psi0, prop, params, itertools.repeat(None), 5)
        assert (err.value.step_index, err.value.realization) == (1, 1)
        assert err.value.last_finite_norm == pytest.approx(1e200 * np.sqrt(6), rel=1e-15)
        clone = pickle.loads(pickle.dumps(err.value))
        assert (clone.step_index, clone.realization, clone.last_finite_norm) == (
            1, 1, err.value.last_finite_norm)
