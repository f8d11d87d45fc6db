import gc
import mmap
import os
from collections import Counter
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from dsnls.diagnostics import charge_limit_discrete, discrete_charge
from dsnls.harness import (
    ExperimentConfig,
    WorkerDied,
    charge_experiment,
    ergodic_experiment,
    jackknife_se,
    ms_error,
    order_fit,
    _chunks,
    _map_chunks,
    _sample_mean,
    _sweep,
    batch_forcing,
    resolve_initial,
    stream_noise,
)
from dsnls.integrator import BlowUpError, integrate, make_propagator, step
from dsnls.model import GridSpec, ModelParams, NoiseSpec, spectrum
from dsnls.noise import (
    FORCING_BLOCK_STEPS,
    fold_noise,
    forcing_weights,
    generate_path,
    project_forcing,
)


def _exit_in_worker(config, forcing):
    os._exit(1)


def _manual_states(cfg, prop, psi0):
    """Realization 0's states at every step, from a plain `step` loop along
    its whole path projected at once."""
    noise = stream_noise(cfg)
    g_all = project_forcing(generate_path(noise, cfg.tau, cfg.n_steps, 0),
                            forcing_weights(cfg.grid, noise, cfg.params.epsilon))
    states = [psi0]
    for g in g_all:
        states.append(step(states[-1], prop, cfg.params, g))
    return np.array(states)


def _config(**overrides):
    base = dict(
        kind="charge",
        params=ModelParams(alpha=0.5, lam=1, epsilon=1.0),
        grid=GridSpec(J=5),
        noise=NoiseSpec(P=4, eta=spectrum("power-law(6)", 4), seed=42),
        spectrum_desc="power-law(6)",
        tau=2.0 ** -6,
        T=1.0,
        M=4,
        initial="sine",
        record_stride=16,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_t_not_multiple_of_tau(self):
        with pytest.raises(ValueError):
            _config(T=1.01)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            _config(kind="banana")

    def test_unknown_observable(self):
        with pytest.raises(ValueError):
            _config(observables=("log-norm",))

    def test_error_kind_needs_nested_ladder(self):
        with pytest.raises(ValueError):
            _config(kind="error", tau=2.0 ** -8,
                    tau_ladder=(3.0 * 2.0 ** -8,), horizons=(1.0,))

    def test_error_kind_horizon_alignment(self):
        with pytest.raises(ValueError):
            _config(kind="error", tau=2.0 ** -8,
                    tau_ladder=(2.0 ** -6,), horizons=(0.7, 1.0))

    def test_ergodic_needs_positive_spectrum(self):
        with pytest.raises(ValueError):
            _config(kind="ergodic", initials=("sine",),
                    noise=NoiseSpec(P=2, eta=(1.0, 0.0), seed=1),
                    spectrum_desc="explicit: 1, 0")

    def test_valid_error_config(self):
        cfg = _config(kind="error", tau=2.0 ** -8,
                      tau_ladder=(2.0 ** -6, 2.0 ** -7), horizons=(0.5, 1.0))
        assert cfg.n_steps == 256


class TestJackknife:
    def test_single_sample(self):
        assert jackknife_se(np.array([3.0])) == 0.0

    def test_matches_classical_se_for_mean(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200)
        classical = x.std(ddof=1) / np.sqrt(x.size)
        assert jackknife_se(x) == pytest.approx(classical, rel=1e-12)

    def test_vectorized(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 3))
        out = jackknife_se(x)
        assert out.shape == (3,)
        for k in range(3):
            assert out[k] == pytest.approx(jackknife_se(x[:, k]), rel=1e-12)

    def test_equal_samples_give_their_value_and_zero(self):
        # 0.1 summed three times and divided by 3 is 0.10000000000000002
        x = np.full((3, 2), 0.1)
        x[1, 1] = 0.2
        assert _sample_mean(x).tolist() == [0.1, x[:, 1].mean()]
        assert jackknife_se(x)[0] == 0.0 and jackknife_se(x)[1] > 0.0
        assert jackknife_se(x[:, 0], transform=np.sqrt) == 0.0
        assert float(_sample_mean(x[:, 0])) == 0.1

    def test_sqrt_transform_scales_like_delta_method(self):
        rng = np.random.default_rng(2)
        x = 4.0 + 0.1 * rng.standard_normal(500)
        se_plain = jackknife_se(x)
        se_sqrt = jackknife_se(x, transform=np.sqrt)
        # delta method: d sqrt(m)/dm = 1/(2 sqrt(m)) with m ~ 4
        assert se_sqrt == pytest.approx(se_plain / 4.0, rel=0.05)

    @pytest.mark.parametrize("transform", [None, np.sqrt])
    def test_in_place_buffer_keeps_the_bits_of_the_plain_formula(self, transform):
        # the one leave-one-out buffer worked in place against the formula
        # written out with a new array per operation, on 2-D samples and on
        # each strided column, as ms_error passes them
        def plain(x):
            n = x.shape[0]
            loo = (x.sum(axis=0) - x) / (n - 1)
            if transform is not None:
                loo = transform(loo)
            out = np.sqrt((n - 1) / n * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
            return np.where((x == x[0]).all(axis=0), 0.0, out)

        rng = np.random.default_rng(3)
        x = rng.random((37, 6))
        x[:, 2] = x[0, 2]  # a column of equal samples
        assert jackknife_se(x, transform).tobytes() == plain(x).tobytes()
        for k in range(x.shape[1]):
            assert jackknife_se(x[:, k], transform) == plain(x[:, k])


class TestRunEnsemble:
    """The ensemble driver, seen through the charge experiment it feeds."""

    def test_single_realization_matches_integrate(self):
        # realization 0 of the charge ensemble, the trajectory `simulate`
        # records and a step loop fed straight from the path all agree
        cfg = _config(M=1, record_stride=8)
        h = cfg.grid.h
        rec = charge_experiment(cfg)
        prop = make_propagator(cfg.grid, cfg.tau, cfg.params.alpha)
        psi0 = resolve_initial(cfg.grid, "sine")
        _, states = integrate(psi0[:, None], prop, cfg.params, batch_forcing(cfg, range(1)),
                              cfg.n_steps, record_stride=8)
        manual = _manual_states(cfg, prop, psi0)[::8]
        np.testing.assert_array_equal(states[:, :, 0], manual)
        direct = discrete_charge(manual.T, h)
        np.testing.assert_array_equal([row[2] for row in rec.rows], direct)
        assert all(row[3] == 0.0 for row in rec.rows)

    def test_chunk_size_invariance(self):
        # J = 9: numpy sums a lone column of 8 or more nodes pairwise
        cfg = _config(M=7, grid=GridSpec(J=9))
        h = cfg.grid.h
        prop = make_propagator(cfg.grid, cfg.tau, cfg.params.alpha)
        psi0 = resolve_initial(cfg.grid, "sine")
        values = []
        for c in (None, 1, 3):
            per_realization = np.empty((cfg.M, cfg.n_steps + 1))
            for lo, hi in _chunks(cfg.M, c):
                forcing = batch_forcing(cfg, range(lo, hi))
                for n, psi, _ in _sweep(cfg, prop, psi0, forcing):
                    per_realization[lo:hi, n] = discrete_charge(psi, h)
            values.append(per_realization)
        records = [charge_experiment(cfg, chunk_size=c) for c in (None, 1, 3)]
        for other_values, other in zip(values[1:], records[1:]):
            np.testing.assert_array_equal(values[0], other_values)
            assert other.rows == records[0].rows

    def test_mc_mean_tracks_charge_law(self):
        # statistical: 4 standard errors around the discrete analogue of the
        # exponential charge relaxation
        cfg = _config(M=256, grid=GridSpec(J=4), tau=2.0 ** -8, T=0.5,
                      record_stride=32,
                      noise=NoiseSpec(P=4, eta=spectrum("power-law(6)", 4), seed=7))
        h = cfg.grid.h
        rec = charge_experiment(cfg)
        limit = charge_limit_discrete(cfg.grid, cfg.noise, cfg.params)
        psi0 = resolve_initial(cfg.grid, "sine")
        c0 = float(discrete_charge(psi0, h))
        for _, t, mean, se, _ in rec.rows[1:]:
            decay = np.exp(-2.0 * cfg.params.alpha * t)
            law = decay * c0 + limit * (1.0 - decay)
            assert abs(mean - law) <= 4.0 * se + 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_carries_realization(self):
        cfg = _config(M=3, initial="explicit: 1e200+0j, 0, 0, 0, 0")
        with pytest.raises(BlowUpError) as err:
            charge_experiment(cfg)
        assert err.value.step_index == 1
        assert err.value.realization == 0

    def test_long_run_charge_boundedness(self):
        # uniform moment bound: MC mean charge stays below
        # exp(-alpha t) * charge0 + C at every record point, with C the
        # stationary plateau plus a Monte Carlo margin k * sigma.  Ito on the
        # squared charge c gives Var(c) <= eps^2 max(eta~) E[c] / alpha at
        # stationarity (the noise's quadratic variation is at most
        # 4 eps^2 max(eta~) c), so sigma of the mean of M realizations is at
        # most sqrt(eps^2 max(eta~) plateau / (alpha M)) = 0.25.  The test
        # takes the maximum over all n record points, so k is set by a union
        # bound: each point may exceed k * sigma with the Gaussian tail of
        # 4 sigma divided by n, which holds however the points correlate.
        # With n = 161, k = 5.07 and C = 2.03 + 5.07 * 0.25.
        cfg = _config(M=64, grid=GridSpec(J=9), T=20.0, record_stride=8,
                      noise=NoiseSpec(P=100, eta=spectrum("power-law(6)", 100), seed=21))
        params = cfg.params
        plateau = charge_limit_discrete(cfg.grid, cfg.noise, params)
        eta_max = max(fold_noise(cfg.grid, cfg.noise).eta)
        sigma = np.sqrt(params.epsilon ** 2 * eta_max * plateau / (params.alpha * cfg.M))
        rec = charge_experiment(cfg)
        times = np.array([row[1] for row in rec.rows])
        means = np.array([row[2] for row in rec.rows])
        gauss = NormalDist()
        k = -gauss.inv_cdf(gauss.cdf(-4.0) / len(times))
        bound = np.exp(-params.alpha * times) * means[0] + plateau + k * sigma
        assert np.all(means <= bound)

    def test_dead_worker_fails_the_run(self, pin_cpus):
        # a worker that dies must end the run, not leave it waiting for the
        # lost chunk, with the WorkerDied that cli maps to its exit code,
        # naming the worker's pid and exit status
        pin_cpus(2)
        with pytest.raises(WorkerDied,
                           match=r"^the chunk worker process \d+ died \(exit status 1\)$"):
            _map_chunks(_exit_in_worker, [_config(M=2)], 1)

    @pytest.mark.parametrize("J", [2, 9, 1000])
    def test_integrate_equals_column_zero_of_a_batch(self, J):
        # a lone trajectory and realization 0 of a three-column batch take
        # the steps of a plain loop along the path bit for bit
        cfg = _config(M=3, grid=GridSpec(J=J), tau=2.0 ** -10, T=2.0 ** -7)
        prop = make_propagator(cfg.grid, cfg.tau, cfg.params.alpha)
        psi0 = resolve_initial(cfg.grid, "sine")
        manual = _manual_states(cfg, prop, psi0)
        _, states = integrate(psi0[:, None], prop, cfg.params,
                              batch_forcing(cfg, range(1)), cfg.n_steps)
        forcing = batch_forcing(cfg, range(cfg.M))
        batch = [psi[:, 0].copy() for _, psi, _ in _sweep(cfg, prop, psi0, forcing)]
        assert len(batch) == cfg.n_steps + 1
        np.testing.assert_array_equal(states[:, :, 0], manual)
        np.testing.assert_array_equal(np.array(batch), manual)


def _shared_mappings() -> Counter:
    """The sizes in bytes of this process's shared anonymous mappings."""
    sizes = Counter()
    for line in Path("/proc/self/maps").read_text().splitlines():
        fields = line.split()
        if fields[1] == "rw-s" and line.endswith("/dev/zero (deleted)"):
            lo, hi = (int(a, 16) for a in fields[0].split("-"))
            sizes[hi - lo] += 1
    return sizes


@pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="reads /proc/self/maps")
def test_producer_source_maps_two_blocks_until_closed(pin_cpus):
    # a lone two-block batch on two CPUs reads a producer's two shared block
    # slots, the only blocks it maps, and closing it unmaps them with the
    # collector off: nothing keeps them alive in a reference cycle
    pin_cpus(2)
    cfg = _config(T=2.0)
    assert cfg.n_steps == 2 * FORCING_BLOCK_STEPS
    nbytes = 2 * FORCING_BLOCK_STEPS * cfg.grid.J * cfg.M * np.dtype(complex).itemsize
    gc.collect()
    before = _shared_mappings()
    gc.disable()
    try:
        with batch_forcing(cfg, range(cfg.M), alone=True) as forcing:
            assert next(forcing).shape == (cfg.grid.J, cfg.M)
            assert forcing.timers()["noise"] == "producer process"
            during = _shared_mappings()
        after = _shared_mappings()
    finally:
        gc.enable()
    assert during - before == Counter([-(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE])
    assert after == before


class TestChargeExperiment:
    def test_deterministic_single_run_has_zero_se(self):
        cfg = _config(M=1, params=ModelParams(alpha=0.5, lam=1, epsilon=0.0))
        rec = charge_experiment(cfg)
        assert rec.columns == ("step", "t", "charge_mean", "charge_se", "charge_analytic")
        se = [row[3] for row in rec.rows]
        assert all(v == 0.0 for v in se)

    def test_deterministic_matches_analytic_decay_loosely(self):
        cfg = _config(M=1, params=ModelParams(alpha=0.5, lam=1, epsilon=0.0),
                      tau=2.0 ** -9, T=0.25, record_stride=128)
        rec = charge_experiment(cfg)
        last = rec.rows[-1]
        assert last[2] == pytest.approx(last[4], rel=5e-3)

    def test_bitwise_reproducible(self):
        cfg = _config(M=5)
        a = charge_experiment(cfg, chunk_size=2)
        b = charge_experiment(cfg, chunk_size=None)
        assert a.rows == b.rows


class TestErgodicExperiment:
    def _cfg(self, initials, seed=3):
        return _config(
            kind="ergodic",
            M=3,
            T=0.5,
            record_stride=8,
            initials=initials,
            observables=("exp-norm2", "sin-norm2"),
            noise=NoiseSpec(P=4, eta=spectrum("power-law(6)", 4), seed=seed),
        )

    def test_identical_profiles_identical_curves(self):
        # sine and initial(3) evaluate to the same vector, so their curves match
        rec = ergodic_experiment(self._cfg(("sine", "initial(3)")))
        by_initial = {}
        for t, initial, obs, mean, se in rec.rows:
            by_initial.setdefault(initial, []).append((t, obs, mean, se))
        assert by_initial["sine"] == by_initial["initial(3)"]

    def test_columns_and_rows(self):
        rec = ergodic_experiment(self._cfg(("initial(1)",)))
        assert rec.columns == ("t", "initial", "observable", "mean", "se")
        observables = {row[2] for row in rec.rows}
        assert observables == {"exp-norm2", "sin-norm2"}
        # running average at the first record step is (1/n) sum_{k<n} f
        first_t = min(row[0] for row in rec.rows)
        assert first_t == pytest.approx(8 * 2.0 ** -6)


class TestMsError:
    def _cfg(self, **kw):
        base = dict(
            kind="order",
            tau=2.0 ** -9,
            tau_ladder=(2.0 ** -7, 2.0 ** -8),
            T=0.25,
            M=3,
            grid=GridSpec(J=4),
            noise=NoiseSpec(P=4, eta=spectrum("power-law(6)", 4), seed=9),
        )
        base.update(kw)
        return _config(**base)

    def test_self_comparison_is_exact_zero(self):
        cfg = self._cfg(tau_ladder=(2.0 ** -9,))
        rec = ms_error(cfg)
        assert rec.rows[0][2] == 0.0

    def test_chunk_invariance(self):
        cfg = self._cfg(M=5)
        a = ms_error(cfg, chunk_size=2)
        b = ms_error(cfg)
        assert a.rows == b.rows

    def test_errors_decrease_along_ladder(self):
        cfg = self._cfg(params=ModelParams(alpha=0.5, lam=1, epsilon=0.0), M=1)
        rec = ms_error(cfg)
        errs = {row[0]: row[2] for row in rec.rows}
        assert errs[2.0 ** -8] < errs[2.0 ** -7]

    def test_coupling_matches_manual_coarse_run(self):
        # drive the coarse scheme by hand on block-summed increments of the
        # same realization stream and compare against the harness table;
        # both runs report R(tau/2) o Lie^N o R(-tau/2) at their own tau
        from dsnls.integrator import nonlinear_step

        cfg = self._cfg(M=1, tau_ladder=(2.0 ** -7,))
        grid, params, noise = cfg.grid, cfg.params, cfg.noise
        lam = params.lam
        n_fine = cfg.n_steps
        fine_increments = generate_path(noise, cfg.tau, n_fine, 0)
        weights = forcing_weights(grid, noise, params.epsilon)
        psi0 = resolve_initial(grid, "sine")

        prop_f = make_propagator(grid, cfg.tau, params.alpha)
        fine = nonlinear_step(psi0, -lam, cfg.tau / 2)
        for n in range(n_fine):
            fine = step(fine, prop_f, params, weights @ fine_increments[n])
        fine = nonlinear_step(fine, lam, cfg.tau / 2)

        coarse_increments = fine_increments.reshape(n_fine // 4, 4, noise.P).sum(axis=1)
        tau_c = 2.0 ** -7
        prop_c = make_propagator(grid, tau_c, params.alpha)
        coarse = nonlinear_step(psi0, -lam, tau_c / 2)
        for dbeta in coarse_increments:
            coarse = step(coarse, prop_c, params, weights @ dbeta)
        coarse = nonlinear_step(coarse, lam, tau_c / 2)

        expected = float(np.sqrt(grid.h * (np.abs(fine - coarse) ** 2).sum()))
        rec = ms_error(cfg)
        assert rec.rows[0][2] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_carries_realization(self):
        cfg = self._cfg(M=3, initial="explicit: 1e200+0j, 0, 0, 0")
        with pytest.raises(BlowUpError) as err:
            ms_error(cfg, chunk_size=2)
        assert err.value.step_index == 1
        assert err.value.realization == 0

    def test_horizon_table(self):
        cfg = self._cfg(kind="error", horizons=(0.125, 0.25), T=0.25)
        rec = ms_error(cfg)
        taus = sorted({row[0] for row in rec.rows})
        times = sorted({row[1] for row in rec.rows})
        assert taus == [2.0 ** -8, 2.0 ** -7]
        assert times == [0.125, 0.25]
        assert len(rec.rows) == 4


class TestIndependentReference:
    def test_processed_output_is_second_order_against_dop853(self):
        # eps = 0: the processed output R(tau/2) o Lie^N o R(-tau/2) that
        # ms_error compares must converge at order two against a reference
        # that shares no code with the scheme
        from scipy.integrate import solve_ivp

        from dsnls.integrator import nonlinear_step

        grid = GridSpec(J=9)
        params = ModelParams(alpha=0.5, lam=1, epsilon=0.0)
        h, lam = grid.h, params.lam
        psi0 = resolve_initial(grid, "sine").astype(complex)

        def rhs(t, y):
            lap = -2.0 * y
            lap[1:] += y[:-1]
            lap[:-1] += y[1:]
            return 1j * (lap / h ** 2 + 1j * params.alpha * y + lam * np.abs(y) ** 2 * y)

        ref = solve_ivp(rhs, (0.0, 1.0), psi0, method="DOP853",
                        rtol=1e-13, atol=1e-13).y[:, -1]
        errors = []
        for k in (10, 11, 12):
            tau = 2.0 ** -k
            prop = make_propagator(grid, tau, params.alpha)
            psi = nonlinear_step(psi0, -lam, tau / 2)
            for _ in range(2 ** k):
                psi = step(psi, prop, params)
            psi = nonlinear_step(psi, lam, tau / 2)
            errors.append(float(np.sqrt(h * (np.abs(psi - ref) ** 2).sum())))
        assert errors[0] / errors[1] >= 3.5
        assert errors[1] / errors[2] >= 3.5
        assert errors[2] <= 1e-5


class TestOrderFit:
    def test_exact_linear_power_law(self):
        taus = [2.0 ** -k for k in range(4, 10)]
        fit = order_fit([(t, 3.7 * t) for t in taus])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_exact_quadratic_power_law(self):
        taus = [2.0 ** -k for k in range(4, 10)]
        fit = order_fit([(t, 0.2 * t ** 2) for t in taus])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_warns_and_drops_nonpositive(self):
        taus = [2.0 ** -k for k in range(4, 8)]
        pairs = [(t, 2.0 * t) for t in taus] + [(2.0 ** -9, 0.0)]
        with pytest.warns(UserWarning):
            fit = order_fit(pairs)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            order_fit([(0.1, 0.1), (0.2, 0.2)])
