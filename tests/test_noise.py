import tracemalloc

import numpy as np
import pytest
from scipy import stats

import dsnls.noise
from dsnls.diagnostics import charge_limit_discrete
from dsnls.harness import ExperimentConfig, charge_experiment
from dsnls.model import GridSpec, ModelParams, NoiseSpec, make_grid, spectrum
from dsnls.noise import (
    fold_noise,
    forcing_blocks,
    forcing_weights,
    generate_path,
    increment_blocks,
    project_forcing,
    stream_key,
)


def _spec(P=4, seed=123):
    return NoiseSpec(P=P, eta=spectrum("power-law(6)", P), seed=seed)


class TestGeneration:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            generate_path(_spec(), 0.0, 10, 0)
        with pytest.raises(ValueError):
            generate_path(_spec(), -0.1, 10, 0)
        with pytest.raises(ValueError):
            generate_path(_spec(), 0.1, 0, 0)

    def test_bit_for_bit_determinism(self):
        a = generate_path(_spec(), 0.01, 64, realization=7)
        b = generate_path(_spec(), 0.01, 64, realization=7)
        assert a.shape == (64, 4)
        assert np.array_equal(a, b)

    def test_realizations_differ(self):
        a = generate_path(_spec(), 0.01, 16, 0)
        b = generate_path(_spec(), 0.01, 16, 1)
        assert not np.array_equal(a, b)

    def test_stream_key_mixing(self):
        keys = {stream_key(42, r) for r in range(1000)}
        assert len(keys) == 1000
        with pytest.raises(ValueError):
            stream_key(42, -1)

    def test_component_mean_within_4se(self):
        tau = 0.02
        n = 100_000
        dbeta = generate_path(_spec(P=1), tau, n, 0)
        se = np.sqrt(tau / n)
        assert abs(dbeta.real.mean()) <= 4 * se
        assert abs(dbeta.imag.mean()) <= 4 * se

    def test_second_moment_within_4se(self):
        tau = 0.02
        n = 100_000
        dbeta = generate_path(_spec(P=1), tau, n, 3)
        sq = np.abs(dbeta[:, 0]) ** 2
        se = sq.std(ddof=1) / np.sqrt(n)
        assert abs(sq.mean() - 2.0 * tau) <= 4 * se

    def test_gaussianity_ks(self):
        # documented goodness-of-fit check: KS against N(0, tau) at the 1e-3 level
        tau = 0.5
        dbeta = generate_path(_spec(P=1), tau, 100_000, 11)
        for comp in (dbeta.real.ravel(), dbeta.imag.ravel()):
            p = stats.kstest(comp / np.sqrt(tau), "norm").pvalue
            assert p > 1e-3

    def test_block_streaming_matches_path(self):
        spec = _spec(P=3, seed=9)
        dbeta = generate_path(spec, 0.125, 600, 5)
        for size in (17, 256):
            blocks = list(increment_blocks(spec, 0.125, 600, 5, block_size=size))
            assert np.array_equal(np.concatenate(blocks), dbeta)

    def test_streams_open_when_built(self, monkeypatch):
        # the stream (and numpy.random with it) is opened by the call that
        # builds the iterator, not by its first draw
        opened = []
        stream = dsnls.noise._stream

        def counted(noise, realization):
            opened.append(realization)
            return stream(noise, realization)

        monkeypatch.setattr(dsnls.noise, "_stream", counted)
        spec = _spec(P=3)
        blocks = forcing_blocks(forcing_weights(make_grid(4), spec, 1.0), spec, 0.125, 10, 5)
        assert opened == [5]
        assert next(blocks).shape == (10, 4)


class TestCoarsen:
    # a coarse run of the coupled error study consumes block sums of the
    # per-step forcing its fine reference consumed

    def test_identity(self):
        # ratio 1: the coarse run is fed the fine forcing itself, bit for bit
        spec = _spec(P=3)
        weights = forcing_weights(make_grid(4), spec, 1.0)
        g = project_forcing(generate_path(spec, 0.01, 12, 0), weights)
        assert np.array_equal(g.reshape(12, 1, 4).sum(axis=1), g)

    def test_total_sum(self):
        # the forcing is linear in the increments, so summing forcings equals
        # projecting the summed increments
        spec = _spec(P=3)
        weights = forcing_weights(make_grid(4), spec, 1.0)
        dbeta = generate_path(spec, 0.01, 12, 0)
        g = np.concatenate(list(forcing_blocks(weights, spec, 0.01, 12, 0)))
        np.testing.assert_allclose(g.sum(axis=0), weights @ dbeta.sum(axis=0),
                                   rtol=0, atol=1e-15)


class TestForcing:
    def test_epsilon_zero(self):
        grid = make_grid(3)
        spec = _spec(P=2)
        out = forcing_weights(grid, spec, 0.0) @ np.ones(2, dtype=complex)
        assert np.all(out == 0.0)

    def test_single_mode_single_node(self):
        grid = make_grid(1)  # x = 0.5
        spec = NoiseSpec(P=1, eta=(1.0,), seed=0)
        out = forcing_weights(grid, spec, 0.5) @ np.array([1.0 + 0.0j])
        assert out[0] == pytest.approx(0.5 * np.sqrt(2.0) * np.sin(np.pi * 0.5), abs=1e-15)

    def test_mean_square_matches_direct_summation(self):
        # E || eps sigma Lambda dbeta ||^2 = 2 tau eps^2 sum_j sum_k eta_k e_k(x_j)^2,
        # the target computed by an explicit python double loop
        grid = make_grid(5)
        spec = _spec(P=3, seed=77)
        eps, tau, n = 0.7, 0.05, 40_000
        target = 0.0
        for j in range(5):
            for k in range(3):
                e_k = np.sqrt(2.0) * np.sin((k + 1) * np.pi * grid.nodes[j])
                target += 2.0 * tau * eps ** 2 * spec.eta[k] * e_k ** 2
        dbeta = generate_path(spec, tau, n, 0)
        g = forcing_weights(grid, spec, eps) @ dbeta.T
        sq = (np.abs(g) ** 2).sum(axis=0)
        se = sq.std(ddof=1) / np.sqrt(n)
        assert abs(sq.mean() - target) <= 4 * se

    def test_forcing_blocks_match_direct_product(self):
        grid = make_grid(4)
        spec = _spec(P=3, seed=5)
        weights = forcing_weights(grid, spec, 0.9)
        dbeta = generate_path(spec, 0.25, 600, 6)
        blocks = list(forcing_blocks(weights, spec, 0.25, 600, 6))
        assert [len(b) for b in blocks] == [256, 256, 88]
        np.testing.assert_array_equal(np.concatenate(blocks), dbeta @ weights.T)

    def test_suspended_generators_hold_no_block(self):
        # a suspended stream must not keep its last normals and increment
        # block alive: at P = 100 those are about 0.8 MB per realization
        spec = _spec(P=100)
        weights = forcing_weights(make_grid(9), spec, 1.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            streams = [forcing_blocks(weights, spec, 0.01, 512, r) for r in range(64)]
            for stream in streams:
                next(stream)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / len(streams) < 0.1e6


class TestFold:
    # on J nodes sine mode k is +-mode m(k) <= J, or zero when k = 0 mod J+1,
    # so min(J, P) folded modes carry the whole forcing law

    @pytest.mark.parametrize("J, P", [(1, 100), (2, 100), (3, 100), (9, 100),
                                      (17, 100), (17, 5)])
    def test_covariance_matches_unfolded(self, J, P):
        grid = make_grid(J)
        spec = NoiseSpec(P=P, eta=spectrum("power-law(6)", P), seed=1)
        folded = fold_noise(grid, spec)
        assert folded.P == min(J, P)
        w = forcing_weights(grid, spec, 0.7)
        wf = forcing_weights(grid, folded, 0.7)
        cov, cov_folded = w @ w.T, wf @ wf.T
        assert np.abs(cov_folded - cov).max() <= 1e-14 * np.abs(cov).max()

    def test_aliases_sum_and_vanishing_modes_drop(self):
        # J = 2 (nodes 1/3, 2/3): k = 4 lands on -e_2, k = 3 and 6 vanish
        eta = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
        folded = fold_noise(make_grid(2), NoiseSpec(P=6, eta=eta, seed=5))
        assert folded == NoiseSpec(P=2, eta=(1.0 + 16.0, 2.0 + 8.0), seed=5)

    @pytest.mark.parametrize("J, P", [(4, 4), (9, 4), (1000, 100)])
    def test_identity_when_p_at_most_j(self, J, P):
        grid = make_grid(J)
        spec = NoiseSpec(P=P, eta=spectrum("power-law(6)", P), seed=8)
        folded = fold_noise(grid, spec)
        assert folded == spec
        assert np.array_equal(forcing_weights(grid, folded, 1.0),
                              forcing_weights(grid, spec, 1.0))
        assert np.array_equal(generate_path(folded, 0.01, 300, 2),
                              generate_path(spec, 0.01, 300, 2))

    def test_folding_twice_is_folding_once(self):
        grid = make_grid(3)
        folded = fold_noise(grid, _spec(P=100))
        assert fold_noise(grid, folded) == folded

    @pytest.mark.parametrize("J, P", [(3, 100), (9, 100), (9, 4)])
    def test_stream_draws_two_normals_per_folded_mode(self, J, P, monkeypatch, pin_cpus):
        # one CPU keeps this 320-step run's draws in this process, where they
        # are counted, rather than in a noise producer process
        pin_cpus(1)
        drawn = []
        draw = dsnls.noise._draw

        def counted(gen, n_steps, modes, root):
            drawn.append(2 * n_steps * modes)
            return draw(gen, n_steps, modes, root)

        monkeypatch.setattr(dsnls.noise, "_draw", counted)
        cfg = ExperimentConfig(
            kind="charge", params=ModelParams(alpha=0.5, lam=1, epsilon=1.0),
            grid=GridSpec(J=J), noise=NoiseSpec(P=P, eta=spectrum("power-law(6)", P), seed=4),
            spectrum_desc="power-law(6)", tau=2.0 ** -6, T=5.0, M=3)
        charge_experiment(cfg)
        assert sum(drawn) == 2 * min(J, P) * cfg.n_steps * cfg.M

    @pytest.mark.parametrize("J", [1, 2, 3, 9, 17, 1000])
    def test_charge_limit_is_folded_spectrum_total(self, J):
        # h sum_j e_k(x_j)^2 is 1 or 0, so the plateau is eps^2/alpha sum eta~_m
        grid = make_grid(J)
        spec = _spec(P=100)
        params = ModelParams(alpha=0.3, lam=1, epsilon=0.8)
        expected = params.epsilon ** 2 / params.alpha * fold_noise(grid, spec).eta_total
        assert charge_limit_discrete(grid, spec, params) == pytest.approx(expected, rel=1e-14)
