import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bayes_update, likelihood_vector
from plumecpd.bocd import DEFAULT_PRUNE_THRESHOLD, RunLengthState
from plumecpd.errors import (
    ConfigError,
    InsufficientDataError,
    MeasurementIncompatibleError,
)
from plumecpd.inference import (
    DEFAULT_GRID,
    MIN_SIGMA_E,
    EmissionPosterior,
    LikelihoodConfig,
    QGrid,
    conjugate_posterior,
    conjugate_terms,
    estimate_sigma_e,
    grid_integrate,
    log_grid_mass,
    posterior_mean_std,
    posterior_mode,
    uniform_prior,
)
from plumecpd.transport import ForwardModel
from stepping import posterior_of, run_core


def exact_log_mass(grid, precision, mode):
    """log of the left-Riemann sum of exp(-A (q - mode)^2 / 2), in full."""
    exponent = -0.5 * precision * (grid.values[:-1] - mode) ** 2
    peak = exponent.max()
    return peak + math.log(np.exp(exponent - peak).sum() * grid.dq)


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
    """One pass's likelihood, as the package's one-pass rate row and its
    conjugate terms."""

    def test_three_point_grid_values(self, unit_fm):
        grid = QGrid(0.0, 2.0, 1.0)
        post = posterior_of([1.0], grid, unit_fm, LikelihoodConfig(1.0))
        # The likelihood over its left-Riemann mass, phi(1) + phi(0).
        mass = (math.exp(-0.5) + 1.0) / math.sqrt(2.0 * math.pi)
        assert post.density * mass == pytest.approx([0.2420, 0.3989, 0.2420], abs=5e-5)

    def test_peak_at_matching_rate(self, unit_fm, medium_grid):
        sigma = 0.3
        post = posterior_of([2.0], medium_grid, unit_fm, LikelihoodConfig(sigma))
        peak = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
        idx = int(np.argmax(post.density))
        assert medium_grid.values[idx] == pytest.approx(2.0)
        assert post.density[idx] == pytest.approx(peak)

    def test_huge_sigma_flattens(self, unit_fm, medium_grid):
        post = posterior_of([2.0], medium_grid, unit_fm, LikelihoodConfig(5000.0))
        assert np.max(post.density) / np.min(post.density) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("cy", [1e160, 1.7e308])
    def test_residual_too_large_to_square_has_zero_likelihood(self, unit_fm, medium_grid, cy):
        # Its square would overflow; the measurement is impossible under
        # every hypothesis, without a RuntimeWarning, and the stream beside
        # it runs as it would alone.
        cfg = LikelihoodConfig(1e-3)
        state = RunLengthState(2, 1, medium_grid)
        errors = state.advance(
            np.array([[2.0], [cy]]), [unit_fm], cfg, 15.0, "marginal",
            DEFAULT_PRUNE_THRESHOLD, math.inf,
        ).errors
        assert errors == {1: "observation impossible under all run-length hypotheses"}
        alone = run_core([2.0], unit_fm, cfg, 15.0, medium_grid)
        assert np.array_equal(state.weights[0], alone.weights)

    def test_negative_cy_rejected(self, unit_fm):
        with pytest.raises(ValueError):
            conjugate_terms(-0.1, unit_fm, LikelihoodConfig(1.0))
        with pytest.raises(ValueError):
            conjugate_terms(np.array([1.0, -0.1]), unit_fm, LikelihoodConfig(1.0))

    def test_array_of_measurements_equals_scalar_calls(self):
        fm = ForwardModel(2.3, 0.7)
        cfg = LikelihoodConfig(0.37)
        cys = np.array([0.0, 0.013, 0.4, 1.7, 2.2, 9.0])
        a, b = conjugate_terms(cys, fm, cfg)
        assert b.shape == cys.shape
        for cy, b_one in zip(cys, b):
            assert conjugate_terms(float(cy), fm, cfg) == (a, b_one)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ConfigError):
            LikelihoodConfig(0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError):
            LikelihoodConfig(sigma)

    @pytest.mark.parametrize("sigma", [5e-324, 1e-160, MIN_SIGMA_E * 0.999])
    def test_sigma_whose_precision_overflows_rejected(self, sigma):
        with pytest.raises(ConfigError, match="1/sigma_e"):
            LikelihoodConfig(sigma)
        a, _ = conjugate_terms(1.0, ForwardModel(1.0, 1.0), LikelihoodConfig(MIN_SIGMA_E))
        assert math.isfinite(a)


class TestLogGridMass:
    """log Z against the exact log-sum-exp over the grid."""

    @settings(max_examples=300, deadline=None)
    @given(
        grid=st.sampled_from([DEFAULT_GRID, QGrid(1.0, 2.0, 0.01)]),
        steps=st.floats(-3.0, 4.0),
        where=st.floats(-50.0, 50.0),
        across=st.floats(0.0, 1.0),
    )
    def test_matches_exact_sum(self, grid, steps, where, across):
        # sigma_q from 1e-3 to 1e4 grid steps, the mode anywhere from 50
        # sigma_q below the grid to 50 sigma_q above it.
        width = grid.dq * 10.0**steps
        low, high = grid.q_min - 50.0 * width, grid.q_max + 50.0 * width
        mode = min(max(low + across * (high - low) + where * width, low), high)
        precision = width**-2.0
        got = float(log_grid_mass(grid, precision, mode))
        assert abs(got - exact_log_mass(grid, precision, mode)) <= 1e-11

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, QGrid(1.0, 2.0, 0.01)])
    def test_flat_row(self, grid):
        assert float(log_grid_mass(grid, 0.0, 0.0)) == pytest.approx(
            math.log(grid.q_max - grid.q_min), abs=1e-12
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", [1e155, -3e160])
    def test_mode_whose_offset_squared_overflows(self, mode):
        # A row as wide as its mode is far off the grid, past 1e154 g/s:
        # every (q - mode)^2 overflows while A (q - mode)^2 is about 1.
        precision = mode**-2.0
        got = float(log_grid_mass(DEFAULT_GRID, precision, mode))
        scaled = (DEFAULT_GRID.values[:-1] - mode) * math.sqrt(precision)
        exponent = -0.5 * scaled * scaled
        expected = exponent.max() + math.log(
            np.exp(exponent - exponent.max()).sum() * DEFAULT_GRID.dq
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_each_path_on_one_call(self):
        grid = DEFAULT_GRID
        precision = np.array([0.0, 1e8, 16.0, 16.0, 1e4, 1.0])
        mode = np.array([0.0, 2.5, 2.5, 0.3, 5.2, -3.0])
        got = log_grid_mass(grid, precision, mode)
        expected = [exact_log_mass(grid, p, m) for p, m in zip(precision, mode)]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-11)


class TestBayesUpdate:
    """The package's rate posterior, built from summed conjugate terms,
    against the oracle's grid-product chain."""

    def test_flat_prior_gives_normalized_likelihood(self, unit_fm, medium_grid):
        cfg = LikelihoodConfig(0.4)
        post = posterior_of([1.7], medium_grid, unit_fm, cfg)
        lik = likelihood_vector(1.7, medium_grid, unit_fm, cfg)
        expected = lik / grid_integrate(medium_grid, lik)
        np.testing.assert_allclose(post.density, expected, rtol=1e-12)

    def test_repeat_update_shrinks_std_by_root_two(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        cfg = LikelihoodConfig(0.3)
        _, std_one = posterior_mean_std(posterior_of([2.0], grid, unit_fm, cfg))
        _, std_two = posterior_mean_std(posterior_of([2.0, 2.0], grid, unit_fm, cfg))
        assert std_two / std_one == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)

    def test_flat_likelihood_is_identity(self, unit_fm, medium_grid):
        a1, b1 = conjugate_terms(1.2, unit_fm, LikelihoodConfig(0.5))
        a2, b2 = conjugate_terms(2.0, unit_fm, LikelihoodConfig(1e6))
        prior = conjugate_posterior(medium_grid, a1, float(b1) / a1)
        post = conjugate_posterior(medium_grid, a1 + a2, float(b1 + b2) / (a1 + a2))
        assert np.max(np.abs(post.density - prior.density)) < 1e-10

    def test_incompatible_measurement_raises(self, unit_fm, medium_grid):
        # Far above the grid and narrow: the density at q_max, which no
        # integral weights, exceeds the float range.
        with pytest.raises(MeasurementIncompatibleError, match="overflows"):
            posterior_of([5.2], medium_grid, unit_fm, LikelihoodConfig(1e-3))

    # sigma floor keeps the oracle's successive likelihoods overlapping in
    # float range, so its grid product needs no log-space fallback.
    @given(
        cys=st.lists(st.floats(0.0, 4.5), min_size=1, max_size=6),
        sigma=st.floats(0.2, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_posterior_always_normalized(self, cys, sigma):
        fm = ForwardModel(1.0, 1.0)
        grid = QGrid(0.0, 5.0, 0.05)
        cfg = LikelihoodConfig(sigma)
        chain = uniform_prior(grid)
        for n in range(1, len(cys) + 1):
            post = posterior_of(cys[:n], grid, fm, cfg)
            chain = bayes_update(chain, cys[n - 1], fm, cfg)
            assert grid_integrate(grid, post.density) == pytest.approx(1.0, abs=1e-8)
            np.testing.assert_allclose(post.density, chain.density, rtol=1e-9, atol=1e-12)

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
        a = posterior_of(original, grid, fm, cfg)
        b = posterior_of(shuffled, grid, fm, cfg)
        scale = np.max(a.density)
        assert np.max(np.abs(a.density - b.density)) <= 1e-10 * scale


class TestGridRefinement:
    def test_mode_stable_under_halving(self, unit_fm):
        cfg = LikelihoodConfig(0.3)
        coarse = posterior_of([1.234], QGrid(0.0, 5.0, 0.02), unit_fm, cfg)
        fine = posterior_of([1.234], QGrid(0.0, 5.0, 0.01), unit_fm, cfg)
        assert abs(posterior_mode(coarse) - posterior_mode(fine)) <= 0.02

    def test_moments_near_fine_reference(self, unit_fm):
        cfg = LikelihoodConfig(0.3)
        coarse = posterior_of([1.234], QGrid(0.0, 5.0, 0.02), unit_fm, cfg)
        ref = posterior_of([1.234], QGrid(0.0, 5.0, 0.002), unit_fm, cfg)
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

    def test_overflowing_estimate_raises(self, unit_fm):
        with pytest.raises(ValueError, match="sigma_e overflows"):
            estimate_sigma_e([1.5e308, 0.0], 0.0, unit_fm)

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
        post = posterior_of([1.2345], grid, unit_fm, LikelihoodConfig(0.4))
        assert abs(posterior_mode(post) - 1.2345) <= grid.dq

    def test_mode_tracks_scaled_measurement(self):
        fm = ForwardModel(2.0, 1.0)
        grid = QGrid(0.0, 5.0, 0.005)
        post = posterior_of([1.1], grid, fm, LikelihoodConfig(0.4))
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
            cys = np.clip(q_true + sigma * rng.standard_normal(n_updates), 0.0, None)
            post = posterior_of(cys, grid, unit_fm, cfg)
            if abs(posterior_mode(post) - q_true) <= bound:
                hits += 1
        assert hits / trials >= 0.99
