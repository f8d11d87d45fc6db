import tracemalloc

import numpy as np
import pytest
from scipy import stats

from dsnls.model import NoiseSpec, make_grid, spectrum
from dsnls.noise import (
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
        assert np.array_equal(a.increments, b.increments)

    def test_realizations_differ(self):
        a = generate_path(_spec(), 0.01, 16, 0)
        b = generate_path(_spec(), 0.01, 16, 1)
        assert not np.array_equal(a.increments, b.increments)

    def test_stream_key_mixing(self):
        keys = {stream_key(42, r) for r in range(1000)}
        assert len(keys) == 1000
        with pytest.raises(ValueError):
            stream_key(42, -1)

    def test_component_mean_within_4se(self):
        tau = 0.02
        n = 100_000
        path = generate_path(_spec(P=1), tau, n, 0)
        se = np.sqrt(tau / n)
        assert abs(path.increments.real.mean()) <= 4 * se
        assert abs(path.increments.imag.mean()) <= 4 * se

    def test_second_moment_within_4se(self):
        tau = 0.02
        n = 100_000
        path = generate_path(_spec(P=1), tau, n, 3)
        sq = np.abs(path.increments[:, 0]) ** 2
        se = sq.std(ddof=1) / np.sqrt(n)
        assert abs(sq.mean() - 2.0 * tau) <= 4 * se

    def test_gaussianity_ks(self):
        # documented goodness-of-fit check: KS against N(0, tau) at the 1e-3 level
        tau = 0.5
        path = generate_path(_spec(P=1), tau, 100_000, 11)
        for comp in (path.increments.real.ravel(), path.increments.imag.ravel()):
            p = stats.kstest(comp / np.sqrt(tau), "norm").pvalue
            assert p > 1e-3

    def test_block_streaming_matches_path(self):
        spec = _spec(P=3, seed=9)
        path = generate_path(spec, 0.125, 100, 5)
        blocks = list(increment_blocks(spec, 0.125, 100, 5, block_size=17))
        assert np.array_equal(np.concatenate(blocks), path.increments)


class TestCoarsen:
    # a coarse run of the coupled error study consumes block sums of the
    # per-step forcing its fine reference consumed

    def test_identity(self):
        # ratio 1: the coarse run is fed the fine forcing itself, bit for bit
        spec = _spec(P=3)
        weights = forcing_weights(make_grid(4), spec, 1.0)
        g = project_forcing(generate_path(spec, 0.01, 12, 0).increments, weights)
        assert np.array_equal(g.reshape(12, 1, 4).sum(axis=1), g)

    def test_total_sum(self):
        # the forcing is linear in the increments, so summing forcings equals
        # projecting the summed increments
        spec = _spec(P=3)
        weights = forcing_weights(make_grid(4), spec, 1.0)
        path = generate_path(spec, 0.01, 12, 0)
        g = np.concatenate(list(forcing_blocks(weights, spec, 0.01, 12, 0, block_size=5)))
        np.testing.assert_allclose(g.sum(axis=0), weights @ path.increments.sum(axis=0),
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
        path = generate_path(spec, tau, n, 0)
        g = forcing_weights(grid, spec, eps) @ path.increments.T
        sq = (np.abs(g) ** 2).sum(axis=0)
        se = sq.std(ddof=1) / np.sqrt(n)
        assert abs(sq.mean() - target) <= 4 * se

    def test_forcing_blocks_match_direct_product(self):
        grid = make_grid(4)
        spec = _spec(P=3, seed=5)
        weights = forcing_weights(grid, spec, 0.9)
        path = generate_path(spec, 0.25, 50, 6)
        blocks = np.concatenate(list(forcing_blocks(weights, spec, 0.25, 50, 6, block_size=16)))
        np.testing.assert_array_equal(blocks, path.increments @ weights.T)

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
