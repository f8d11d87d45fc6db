import numpy as np
import pytest

from dsnls.model import (
    ModelParams,
    NoiseSpec,
    eigenfunction_matrix,
    make_grid,
    sample_initial,
    spectrum,
)


class TestModelParams:
    def test_valid(self):
        p = ModelParams(alpha=0.5, lam=1, epsilon=1.0)
        assert p.alpha == 0.5 and p.lam == 1 and p.epsilon == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0, lam=1, epsilon=0.0),
        dict(alpha=-1.0, lam=1, epsilon=0.0),
        dict(alpha=0.5, lam=2, epsilon=0.0),
        dict(alpha=0.5, lam=0, epsilon=0.0),
        dict(alpha=0.5, lam=1, epsilon=-0.1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestGrid:
    def test_tenth_mesh_grid(self):
        grid = make_grid(9)
        assert grid.h == pytest.approx(0.1, abs=1e-16)
        assert grid.nodes[0] == pytest.approx(0.1, abs=1e-16)
        assert grid.nodes[-1] == pytest.approx(0.9, abs=1e-16)

    def test_smallest(self):
        grid = make_grid(1)
        assert grid.h == 0.5
        np.testing.assert_allclose(grid.nodes, [0.5])

    def test_j3(self):
        grid = make_grid(3)
        assert grid.h == 0.25
        np.testing.assert_allclose(grid.nodes, [0.25, 0.5, 0.75])

    def test_mesh_identity(self):
        for J in (1, 2, 7, 100):
            grid = make_grid(J)
            assert abs((J + 1) * grid.h - 1.0) <= np.finfo(float).eps
            assert np.all(np.diff(grid.nodes) > 0)
            assert grid.nodes[0] > 0 and grid.nodes[-1] < 1

    def test_rejects(self):
        with pytest.raises(ValueError):
            make_grid(0)
        with pytest.raises(ValueError):
            make_grid(-3)


class TestEigenfunctions:
    def test_single_node_values(self):
        grid = make_grid(1)  # x = 0.5
        sigma = eigenfunction_matrix(grid, 2)
        assert sigma[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert sigma[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_column_bound(self):
        # each column satisfies sum_j e_k(x_j)^2 <= 2J
        for J, P in ((5, 12), (9, 100)):
            sigma = eigenfunction_matrix(make_grid(J), P)
            col_sums = (sigma ** 2).sum(axis=0)
            assert np.all(col_sums <= 2 * J + 1e-12)

    def test_grid_orthogonality(self):
        # h sum_j sigma_jk sigma_jl = delta_kl for k, l <= J
        for J in (4, 9, 16):
            grid = make_grid(J)
            sigma = eigenfunction_matrix(grid, J)
            gram = grid.h * sigma.T @ sigma
            np.testing.assert_allclose(gram, np.eye(J), atol=1e-12)

    def test_normalization_unity_for_low_modes(self):
        grid = make_grid(50)
        sigma = eigenfunction_matrix(grid, 50)
        norms = grid.h * (sigma ** 2).sum(axis=0)
        np.testing.assert_allclose(norms, np.ones(50), atol=1e-12)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            eigenfunction_matrix(make_grid(3), 0)


class TestSpectrum:
    def test_power_law_values(self):
        eta = spectrum("power-law(6)", 3)
        assert eta == (1.0, 1.0 / 64.0, 1.0 / 729.0)

    def test_explicit_passthrough(self):
        eta = spectrum([0.0, 0.0, 1.0], 3)
        assert eta == (0.0, 0.0, 1.0)
        assert sum(eta) == 1.0

    def test_power_law_total_matches_direct_summation(self):
        # independent oracle: plain python loop
        eta = spectrum("power-law(6)", 100)
        direct = 0.0
        for k in range(1, 101):
            direct += k ** -6.0
        assert abs(sum(eta) - direct) <= 1e-15

    def test_rejects(self):
        with pytest.raises(ValueError):
            spectrum("power-law(6)", 0)
        with pytest.raises(ValueError):
            spectrum([1.0, -0.5], 2)
        with pytest.raises(ValueError):
            spectrum([1.0], 2)
        with pytest.raises(ValueError):
            spectrum("banana", 3)


class TestNoiseSpec:
    def test_eta_total(self):
        ns = NoiseSpec(P=3, eta=(1.0, 0.25, 0.05), seed=0)
        assert ns.eta_total == pytest.approx(1.3)

    def test_rejects(self):
        with pytest.raises(ValueError):
            NoiseSpec(P=0, eta=(), seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(P=2, eta=(1.0,), seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(P=1, eta=(-1.0,), seed=0)

    def test_seed_is_64_bit(self):
        # stream_key reads a seed modulo 2^64, so only [0, 2^64) is accepted
        for seed in (0, 2 ** 64 - 1):
            assert NoiseSpec(P=1, eta=(1.0,), seed=seed).seed == seed
        for seed in (-1, 2 ** 64, 2 ** 64 + 1):
            with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\^64\), got "):
                NoiseSpec(P=1, eta=(1.0,), seed=seed)


class TestInitialProfiles:
    def test_sine_on_tenth_mesh_grid(self):
        grid = make_grid(9)
        psi = sample_initial(grid, "sine")
        expected = np.sin(np.pi * np.arange(1, 10) / 10.0)
        np.testing.assert_allclose(psi.real, expected, atol=1e-15)
        np.testing.assert_allclose(psi.imag, 0.0, atol=0.0)

    def test_named_vectors_on_j100(self):
        grid = make_grid(100)
        j = np.arange(1, 101)
        one = sample_initial(grid, "initial(1)")
        assert one[0] == 1.0 and np.all(one[1:] == 0.0)
        two = sample_initial(grid, "initial(2)")
        assert two[0] == 0.0003j and np.all(two[1:] == 0.0)
        three = sample_initial(grid, "initial(3)")
        np.testing.assert_allclose(three, np.sin(j * np.pi / 101.0), atol=1e-15)
        four = sample_initial(grid, "initial(4)")
        np.testing.assert_allclose(four, (2 + 1j) / 20.0 * j, atol=1e-15)
        five = sample_initial(grid, "initial(5)")
        np.testing.assert_allclose(five, np.exp(-1j * j / 50.0), atol=1e-15)

    def test_explicit_vector(self):
        grid = make_grid(4)
        psi = sample_initial(grid, np.zeros(4))
        assert psi.dtype == complex
        assert np.all(psi == 0.0)

    def test_explicit_wrong_length(self):
        with pytest.raises(ValueError):
            sample_initial(make_grid(4), np.zeros(5))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            sample_initial(make_grid(4), "initial(9)")
