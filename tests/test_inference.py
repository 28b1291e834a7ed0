import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumecpd.errors import (
    ConfigError,
    InsufficientDataError,
    MeasurementIncompatibleError,
)
from plumecpd.inference import (
    DEFAULT_GRID,
    EmissionPosterior,
    LikelihoodConfig,
    QGrid,
    bayes_update,
    estimate_sigma_e,
    grid_integrate,
    likelihood_vector,
    posterior_mean_std,
    posterior_mode,
    uniform_prior,
)
from plumecpd.transport import ForwardModel


class TestQGrid:
    def test_default_grid_shape(self):
        assert DEFAULT_GRID.n_points == 1001
        assert DEFAULT_GRID.values[0] == 0.0
        assert DEFAULT_GRID.values[-1] == pytest.approx(5.0)

    def test_values_are_read_only(self):
        with pytest.raises(ValueError):
            DEFAULT_GRID.values[0] = 1.0

    @pytest.mark.parametrize(
        "q_min,q_max,dq",
        [(5.0, 0.0, 0.1), (0.0, 0.0, 0.1), (0.0, 5.0, 0.0), (0.0, 5.0, -0.1), (0.0, 1.0, 0.3), (0.0, 0.1, 0.1)],
    )
    def test_bad_grids_rejected(self, q_min, q_max, dq):
        with pytest.raises(ValueError):
            QGrid(q_min, q_max, dq)


class TestUniformPrior:
    def test_default_bounds_density(self):
        prior = uniform_prior(QGrid(0.0, 5.0, 0.005))
        assert np.all(prior.density == pytest.approx(0.2))

    def test_unit_span_density(self):
        prior = uniform_prior(QGrid(0.0, 1.0, 0.01))
        assert np.all(prior.density == pytest.approx(1.0))

    def test_normalization(self):
        prior = uniform_prior(QGrid(0.0, 5.0, 0.005))
        assert grid_integrate(prior.grid, prior.density) == pytest.approx(1.0, abs=1e-12)


class TestEmissionPosterior:
    def test_negative_density_rejected(self):
        grid = QGrid(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            EmissionPosterior(grid, np.array([2.0, -0.5, 2.0]))

    def test_unnormalized_density_rejected(self):
        grid = QGrid(0.0, 5.0, 0.005)
        with pytest.raises(ValueError):
            EmissionPosterior(grid, np.full(grid.n_points, 0.21))

    def test_shape_mismatch_rejected(self):
        grid = QGrid(0.0, 5.0, 0.005)
        with pytest.raises(ValueError):
            EmissionPosterior(grid, np.full(17, 0.2))


class TestLikelihoodVector:
    def test_three_point_grid_values(self, unit_fm):
        grid = QGrid(0.0, 2.0, 1.0)
        lik = likelihood_vector(1.0, grid, unit_fm, LikelihoodConfig(1.0))
        assert lik == pytest.approx([0.2420, 0.3989, 0.2420], abs=5e-5)

    def test_peak_at_matching_rate(self, unit_fm, medium_grid):
        sigma = 0.3
        lik = likelihood_vector(2.0, medium_grid, unit_fm, LikelihoodConfig(sigma))
        peak = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
        idx = int(np.argmax(lik))
        assert medium_grid.values[idx] == pytest.approx(2.0)
        assert lik[idx] == pytest.approx(peak)

    def test_huge_sigma_flattens(self, unit_fm, medium_grid):
        lik = likelihood_vector(2.0, medium_grid, unit_fm, LikelihoodConfig(5000.0))
        assert np.max(lik) / np.min(lik) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("cy", [1e160, 1.7e308])
    def test_residual_too_large_to_square_has_zero_likelihood(self, unit_fm, medium_grid, cy):
        # z * z overflows; that gives 0 without a RuntimeWarning.
        lik = likelihood_vector(np.array([2.0, cy]), medium_grid, unit_fm, LikelihoodConfig(1e-3))
        assert not lik[1].any()
        assert np.array_equal(lik[0], likelihood_vector(2.0, medium_grid, unit_fm, LikelihoodConfig(1e-3)))

    def test_negative_cy_rejected(self, unit_fm, medium_grid):
        with pytest.raises(ValueError):
            likelihood_vector(-0.1, medium_grid, unit_fm, LikelihoodConfig(1.0))
        with pytest.raises(ValueError):
            likelihood_vector(np.array([1.0, -0.1]), medium_grid, unit_fm, LikelihoodConfig(1.0))

    def test_array_of_measurements_equals_scalar_calls(self, medium_grid):
        fm = ForwardModel(2.3, 0.7)
        cfg = LikelihoodConfig(0.37)
        cys = np.array([0.0, 0.013, 0.4, 1.7, 2.2, 9.0])
        rows = likelihood_vector(cys, medium_grid, fm, cfg)
        assert rows.shape == (cys.size, medium_grid.n_points)
        for cy, row in zip(cys, rows):
            assert np.array_equal(row, likelihood_vector(float(cy), medium_grid, fm, cfg))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ConfigError):
            LikelihoodConfig(0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError):
            LikelihoodConfig(sigma)


class TestBayesUpdate:
    def test_flat_prior_gives_normalized_likelihood(self, unit_fm, medium_grid):
        cfg = LikelihoodConfig(0.4)
        prior = uniform_prior(medium_grid)
        post = bayes_update(prior, 1.7, unit_fm, cfg)
        lik = likelihood_vector(1.7, medium_grid, unit_fm, cfg)
        expected = lik / grid_integrate(medium_grid, lik)
        assert np.allclose(post.density, expected, rtol=1e-12)

    def test_repeat_update_shrinks_std_by_root_two(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        cfg = LikelihoodConfig(0.3)
        one = bayes_update(uniform_prior(grid), 2.0, unit_fm, cfg)
        two = bayes_update(one, 2.0, unit_fm, cfg)
        _, std_one = posterior_mean_std(one)
        _, std_two = posterior_mean_std(two)
        assert std_two / std_one == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)

    def test_flat_likelihood_is_identity(self, unit_fm, medium_grid):
        prior = bayes_update(
            uniform_prior(medium_grid), 1.2, unit_fm, LikelihoodConfig(0.5)
        )
        post = bayes_update(prior, 2.0, unit_fm, LikelihoodConfig(1e6))
        assert np.max(np.abs(post.density - prior.density)) < 1e-10

    def test_incompatible_measurement_raises(self, unit_fm, medium_grid):
        with pytest.raises(MeasurementIncompatibleError):
            bayes_update(
                uniform_prior(medium_grid), 5.2, unit_fm, LikelihoodConfig(1e-3)
            )

    # sigma floor keeps successive likelihoods overlapping in float range;
    # narrower scales can legitimately raise the incompatibility error.
    @given(
        cys=st.lists(st.floats(0.0, 4.5), min_size=1, max_size=6),
        sigma=st.floats(0.2, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_posterior_always_normalized(self, cys, sigma):
        fm = ForwardModel(1.0, 1.0)
        grid = QGrid(0.0, 5.0, 0.05)
        post = uniform_prior(grid)
        cfg = LikelihoodConfig(sigma)
        for cy in cys:
            post = bayes_update(post, cy, fm, cfg)
            assert grid_integrate(grid, post.density) == pytest.approx(1.0, abs=1e-8)

    @given(
        cys=st.lists(st.floats(0.5, 3.5), min_size=2, max_size=8, unique=True).flatmap(
            lambda xs: st.permutations(xs).map(lambda p: (xs, list(p)))
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_order_invariance(self, cys):
        original, shuffled = cys
        fm = ForwardModel(1.0, 1.0)
        grid = QGrid(0.0, 5.0, 0.05)
        cfg = LikelihoodConfig(0.5)
        a = uniform_prior(grid)
        b = uniform_prior(grid)
        for cy in original:
            a = bayes_update(a, cy, fm, cfg)
        for cy in shuffled:
            b = bayes_update(b, cy, fm, cfg)
        scale = np.max(a.density)
        assert np.max(np.abs(a.density - b.density)) <= 1e-10 * scale


class TestGridRefinement:
    def test_mode_stable_under_halving(self, unit_fm):
        cfg = LikelihoodConfig(0.3)
        coarse = bayes_update(uniform_prior(QGrid(0.0, 5.0, 0.02)), 1.234, unit_fm, cfg)
        fine = bayes_update(uniform_prior(QGrid(0.0, 5.0, 0.01)), 1.234, unit_fm, cfg)
        assert abs(posterior_mode(coarse) - posterior_mode(fine)) <= 0.02

    def test_moments_near_fine_reference(self, unit_fm):
        cfg = LikelihoodConfig(0.3)
        coarse = bayes_update(uniform_prior(QGrid(0.0, 5.0, 0.02)), 1.234, unit_fm, cfg)
        ref = bayes_update(uniform_prior(QGrid(0.0, 5.0, 0.002)), 1.234, unit_fm, cfg)
        mean_c, std_c = posterior_mean_std(coarse)
        mean_r, std_r = posterior_mean_std(ref)
        assert abs(mean_c - mean_r) <= 0.02**2
        assert abs(std_c - std_r) <= 0.02**2


class TestEstimateSigmaE:
    def test_zero_residuals(self, unit_fm):
        assert estimate_sigma_e([1.5, 1.5, 1.5], 1.5, unit_fm) == 0.0

    def test_plus_minus_one(self, unit_fm):
        assert estimate_sigma_e([2.0, 0.0], 1.0, unit_fm) == pytest.approx(math.sqrt(2.0))

    def test_three_small_residuals(self, unit_fm):
        cys = [1.0 + 0.01, 1.0 - 0.02, 1.0 + 0.03]
        value = estimate_sigma_e(cys, 1.0, unit_fm)
        assert value == pytest.approx(math.sqrt(0.0014 / 2.0), rel=1e-9)
        assert value == pytest.approx(0.02646, abs=5e-5)

    def test_too_few_passes(self, unit_fm):
        with pytest.raises(InsufficientDataError):
            estimate_sigma_e([1.0], 1.0, unit_fm)

    def test_per_pass_forward_models(self):
        fms = [ForwardModel(1.0, 1.0), ForwardModel(2.0, 1.0)]
        value = estimate_sigma_e([2.0, 1.5], 2.0, fms)
        assert value == pytest.approx(math.sqrt(0.0**2 + 0.5**2))

    def test_model_count_mismatch(self):
        with pytest.raises(ValueError):
            estimate_sigma_e([1.0, 2.0, 3.0], 1.0, [ForwardModel(1.0, 1.0)] * 2)


class TestPosteriorSummaries:
    def test_flat_mode_is_q_min(self):
        prior = uniform_prior(QGrid(0.5, 5.5, 0.005))
        assert posterior_mode(prior) == 0.5

    def test_peak_index_mode(self):
        grid = QGrid(0.0, 1.0, 0.1)
        density = np.full(grid.n_points, 1.0)
        density[7] = 3.0
        post = EmissionPosterior(grid, density / grid_integrate(grid, density))
        assert posterior_mode(post) == pytest.approx(grid.values[7])

    def test_mode_tracks_measurement(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        post = bayes_update(uniform_prior(grid), 1.2345, unit_fm, LikelihoodConfig(0.4))
        assert abs(posterior_mode(post) - 1.2345) <= grid.dq

    def test_mode_tracks_scaled_measurement(self):
        fm = ForwardModel(2.0, 1.0)
        grid = QGrid(0.0, 5.0, 0.005)
        post = bayes_update(uniform_prior(grid), 1.1, fm, LikelihoodConfig(0.4))
        assert abs(posterior_mode(post) - 2.2) <= grid.dq

    def test_flat_moments(self):
        grid = QGrid(0.0, 5.0, 0.005)
        mean, std = posterior_mean_std(uniform_prior(grid))
        assert abs(mean - 2.5) <= grid.dq
        assert abs(std - 5.0 / math.sqrt(12.0)) <= 2.0 * grid.dq

    def test_delta_moments(self):
        grid = QGrid(0.0, 5.0, 0.005)
        density = np.zeros(grid.n_points)
        density[300] = 1.0 / grid.dq
        post = EmissionPosterior(grid, density)
        mean, std = posterior_mean_std(post)
        assert mean == pytest.approx(grid.values[300])
        assert std <= grid.dq

    def test_two_point_moments(self):
        grid = QGrid(0.0, 5.0, 0.005)
        density = np.zeros(grid.n_points)
        density[200] = 0.5 / grid.dq
        density[600] = 0.5 / grid.dq
        post = EmissionPosterior(grid, density)
        mean, std = posterior_mean_std(post)
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)


class TestConsistency:
    def test_mode_concentrates_at_true_rate(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.01)
        sigma = 0.3
        q_true = 2.0
        n_updates = 50
        bound = 3.0 * sigma / math.sqrt(n_updates)
        cfg = LikelihoodConfig(sigma)
        rng = np.random.default_rng(20240817)
        hits = 0
        trials = 500
        for _ in range(trials):
            post = uniform_prior(grid)
            cys = np.clip(q_true + sigma * rng.standard_normal(n_updates), 0.0, None)
            for cy in cys:
                post = bayes_update(post, float(cy), unit_fm, cfg)
            if abs(posterior_mode(post) - q_true) <= bound:
                hits += 1
        assert hits / trials >= 0.99
