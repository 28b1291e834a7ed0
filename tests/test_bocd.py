import math
from unittest import mock

import numpy as np
import pytest

from oracles import brute_force_alpha
from plumecpd.bocd import (
    RunLengthState,
    bocd_step,
    changepoint_probability,
    initial_state,
    predictive_probability,
)
from plumecpd.errors import MeasurementIncompatibleError
from plumecpd.inference import (
    EmissionPosterior,
    LikelihoodConfig,
    QGrid,
    grid_integrate,
    likelihood_vector,
    uniform_prior,
)
from plumecpd.transport import ForwardModel

from oracles import gaussian_pdf


def run_stream(cys, fm, cfg, lam, grid, method="marginal", prune_threshold=1e-12):
    state = initial_state(grid)
    for cy in cys:
        state = bocd_step(
            state, cy, fm, cfg, lam, method=method, prune_threshold=prune_threshold
        )
    return state


class TestHazard:
    @staticmethod
    def first_step_cp(state, fm, lam):
        return changepoint_probability(bocd_step(state, 1.0, fm, LikelihoodConfig(0.5), lam))

    def test_paper_default(self, unit_fm, coarse_grid):
        cp = self.first_step_cp(initial_state(coarse_grid), unit_fm, 15.0)
        assert cp == pytest.approx(1.0 / 15.0)
        assert cp == pytest.approx(0.0667, abs=5e-5)

    def test_lambda_two(self, unit_fm, coarse_grid):
        assert self.first_step_cp(initial_state(coarse_grid), unit_fm, 2.0) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_memoryless(self, unit_fm, coarse_grid):
        # All mass on a long run with the same flat rate posterior: the
        # change probability equals that of a fresh state.
        k = 10**3
        weights = np.zeros(k + 1)
        weights[-1] = 1.0
        flat = uniform_prior(coarse_grid).density
        long_run = RunLengthState(coarse_grid, k, weights, 0.0, np.tile(flat, (k + 1, 1)))
        fresh = initial_state(coarse_grid)
        assert self.first_step_cp(long_run, unit_fm, 7.0) == pytest.approx(
            self.first_step_cp(fresh, unit_fm, 7.0), rel=1e-12
        )

    @pytest.mark.parametrize("lam", [1.0, 0.5, 0.0, -3.0])
    def test_lambda_must_exceed_one(self, lam, unit_fm, coarse_grid):
        with pytest.raises(ValueError):
            self.first_step_cp(initial_state(coarse_grid), unit_fm, lam)


class TestPredictiveProbability:
    def test_scaling_flat_identity_map(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        value = predictive_probability(
            uniform_prior(grid), 2.5, unit_fm, LikelihoodConfig(1.0), method="scaling"
        )
        assert value == pytest.approx(0.2)

    def test_scaling_out_of_support(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        value = predictive_probability(
            uniform_prior(grid), 6.0, unit_fm, LikelihoodConfig(1.0), method="scaling"
        )
        assert value == 0.0

    def test_scaling_interpolates_linearly(self, unit_fm):
        grid = QGrid(0.0, 2.0, 0.5)
        density = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        density = density / grid_integrate(grid, density)
        post = EmissionPosterior(grid, density)
        at_low = predictive_probability(post, 0.5, unit_fm, LikelihoodConfig(1.0), method="scaling")
        at_high = predictive_probability(post, 1.0, unit_fm, LikelihoodConfig(1.0), method="scaling")
        at_mid = predictive_probability(post, 0.75, unit_fm, LikelihoodConfig(1.0), method="scaling")
        assert at_mid == pytest.approx(0.5 * (at_low + at_high))

    def test_scaling_change_of_variables_factor(self):
        fm = ForwardModel(advection_velocity_mps=2.0, dispersion_factor_per_m=1.0)
        grid = QGrid(0.0, 5.0, 0.005)
        value = predictive_probability(
            uniform_prior(grid), 1.0, fm, LikelihoodConfig(1.0), method="scaling"
        )
        assert value == pytest.approx(0.2 * 2.0)

    def test_scaling_degenerate_transport(self):
        fm = ForwardModel(advection_velocity_mps=1.0, dispersion_factor_per_m=0.0)
        grid = QGrid(0.0, 5.0, 0.005)
        with pytest.raises(ValueError):
            predictive_probability(
                uniform_prior(grid), 1.0, fm, LikelihoodConfig(1.0), method="scaling"
            )

    def test_marginal_delta_posterior_collapses(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        density = np.zeros(grid.n_points)
        q_star_idx = 400
        density[q_star_idx] = 1.0 / grid.dq
        post = EmissionPosterior(grid, density)
        sigma = 0.4
        cy = 2.3
        value = predictive_probability(post, cy, unit_fm, LikelihoodConfig(sigma), method="marginal")
        expected = gaussian_pdf(cy, grid.values[q_star_idx], sigma)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_unknown_method_rejected(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.5)
        with pytest.raises(ValueError):
            predictive_probability(
                uniform_prior(grid), 1.0, unit_fm, LikelihoodConfig(1.0), method="exact"
            )


class TestInitialState:
    def test_fresh_state(self, coarse_grid):
        state = initial_state(coarse_grid)
        assert state.k == 0
        assert state.weights.tolist() == [1.0]
        assert np.allclose(state.posteriors[0], 0.2)
        assert state.evidence == 1.0

    def test_changepoint_probability_needs_data(self, coarse_grid):
        with pytest.raises(ValueError):
            changepoint_probability(initial_state(coarse_grid))


class TestBocdStep:
    @pytest.mark.parametrize("method", ["marginal", "scaling"])
    def test_first_step_splits_by_hazard(self, unit_fm, method):
        grid = QGrid(0.0, 5.0, 0.005)
        state = bocd_step(
            initial_state(grid),
            1.0,
            unit_fm,
            LikelihoodConfig(0.5),
            15.0,
            method=method,
        )
        assert state.weights == pytest.approx([1.0 / 15.0, 14.0 / 15.0])
        assert changepoint_probability(state) == pytest.approx(1.0 / 15.0)

    def test_entry_count_tracks_pass_count(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.5)
        lam = 15.0
        state = initial_state(coarse_grid)
        for k in range(1, 9):
            state = bocd_step(state, 2.0, unit_fm, cfg, lam)
            assert state.weights.shape == (k + 1,)
            assert state.posteriors.shape == (k + 1, coarse_grid.n_points)

    def test_weights_normalized_every_step(self, unit_fm, coarse_grid):
        rng = np.random.default_rng(11)
        cfg = LikelihoodConfig(0.4)
        lam = 15.0
        state = initial_state(coarse_grid)
        for cy in np.clip(rng.normal(2.0, 0.6, size=20), 0.0, 4.9):
            state = bocd_step(state, float(cy), unit_fm, cfg, lam)
            assert abs(float(np.sum(state.weights)) - 1.0) <= 1e-10

    def test_rows_stay_normalized(self, unit_fm, coarse_grid):
        rng = np.random.default_rng(5)
        cfg = LikelihoodConfig(0.4)
        lam = 15.0
        state = initial_state(coarse_grid)
        for cy in np.clip(rng.normal(2.0, 0.5, size=10), 0.0, 4.9):
            state = bocd_step(state, float(cy), unit_fm, cfg, lam)
            for row in state.posteriors:
                assert grid_integrate(coarse_grid, row) == pytest.approx(1.0, abs=1e-8)

    def test_constant_stream_keeps_changepoint_low(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        cfg = LikelihoodConfig(0.3)
        lam = 15.0
        state = initial_state(grid)
        for k in range(1, 13):
            state = bocd_step(state, 2.0, unit_fm, cfg, lam)
            if k >= 5:
                assert changepoint_probability(state) < 0.5 / 15.0

    def test_matches_brute_force_enumeration(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.3)
        lam = 15.0
        rng = np.random.default_rng(77)
        for _ in range(10):
            k = int(rng.integers(2, 7))
            cys = np.clip(rng.normal(2.0, 0.8, size=k), 0.0, 4.9)
            jump_at = int(rng.integers(1, k + 1))
            cys[jump_at:] *= 1.8
            cys = np.clip(cys, 0.0, 4.9)
            state = run_stream(
                [float(c) for c in cys], unit_fm, cfg, lam, coarse_grid, prune_threshold=0.0
            )
            expected = brute_force_alpha(
                [float(c) for c in cys], coarse_grid.values, coarse_grid.dq, 1.0, 0.3, 15.0
            )
            np.testing.assert_allclose(state.alpha, expected, rtol=1e-9)

    def test_changepoint_probability_matches_enumeration(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.3)
        lam = 15.0
        cys = [1.8, 2.1, 3.9, 4.2, 4.0]
        state = run_stream(cys, unit_fm, cfg, lam, coarse_grid, prune_threshold=0.0)
        expected = brute_force_alpha(cys, coarse_grid.values, coarse_grid.dq, 1.0, 0.3, 15.0)
        assert changepoint_probability(state) == pytest.approx(
            expected[0] / expected.sum(), rel=1e-9
        )

    def test_single_likelihood_evaluation_per_step(self, unit_fm, coarse_grid):
        import plumecpd.bocd as bocd_module

        cfg = LikelihoodConfig(0.4)
        lam = 15.0
        real = bocd_module.likelihood_vector
        calls = {"n": 0}

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        state = initial_state(coarse_grid)
        with mock.patch.object(bocd_module, "likelihood_vector", side_effect=counting):
            for step in range(1, 7):
                state = bocd_step(state, 2.0, unit_fm, cfg, lam)
                assert calls["n"] == step

    def test_hazard_monotonicity_on_calm_streams(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.6)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            cys = np.clip(rng.normal(2.0, 0.4, size=12), 1.0, 3.0)
            state_lo = initial_state(coarse_grid)
            state_hi = initial_state(coarse_grid)
            for cy in cys:
                state_lo = bocd_step(state_lo, float(cy), unit_fm, cfg, 8.0)
                state_hi = bocd_step(state_hi, float(cy), unit_fm, cfg, 30.0)
                assert (
                    changepoint_probability(state_lo)
                    >= changepoint_probability(state_hi) - 1e-9
                )

    def test_scale_equivariance_of_scaling_method(self):
        s = 3.7
        cys = [1.8, 2.1, 3.9, 4.2, 4.0, 3.8]
        lam = 15.0
        fm = ForwardModel(1.0, 1.0)
        base = run_stream(
            cys, fm, LikelihoodConfig(0.3), lam, QGrid(0.0, 5.0, 0.005), method="scaling"
        )
        scaled = run_stream(
            [c * s for c in cys],
            fm,
            LikelihoodConfig(0.3 * s),
            lam,
            QGrid(0.0, 5.0 * s, 0.005 * s),
            method="scaling",
        )
        np.testing.assert_allclose(scaled.weights, base.weights, rtol=1e-9)

    def test_impossible_observation_scaling(self, unit_fm, coarse_grid):
        with pytest.raises(MeasurementIncompatibleError):
            bocd_step(
                initial_state(coarse_grid),
                9.0,
                unit_fm,
                LikelihoodConfig(0.3),
                15.0,
                method="scaling",
            )

    def test_impossible_observation_marginal(self, unit_fm, coarse_grid):
        with pytest.raises(MeasurementIncompatibleError):
            bocd_step(
                initial_state(coarse_grid),
                500.0,
                unit_fm,
                LikelihoodConfig(1e-3),
                15.0,
            )

    def test_underflowed_row_is_renormalized_in_log_space(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        state = run_stream([1.0, 3.0], unit_fm, LikelihoodConfig(0.03), 15.0, grid)
        # The full-run row times the likelihood underflows on the whole
        # grid; in log space it peaks midway between the measurements.
        assert state.weights[-1] == 0.0
        assert grid.values[int(np.argmax(state.posteriors[-1]))] == 2.0
        assert grid_integrate(grid, state.posteriors[-1]) == pytest.approx(1.0, abs=1e-8)

    def test_dead_row_empty_in_log_space_is_flat(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        state = run_stream([1.0, 1.0, 3.0], unit_fm, LikelihoodConfig(0.03), 15.0, grid)
        assert state.weights[-1] == 0.0
        assert np.array_equal(state.posteriors[-1], uniform_prior(grid).density)
        assert changepoint_probability(state) == 1.0

    def test_pruning_zeroes_negligible_hypotheses(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        cfg = LikelihoodConfig(0.2)
        lam = 15.0
        cys = [2.0] * 6 + [4.5] * 6
        state = run_stream(cys, unit_fm, cfg, lam, grid)
        live = state.weights[state.weights > 0]
        assert np.all(live >= 1e-12)
        assert abs(float(np.sum(state.weights)) - 1.0) <= 1e-10

    def test_aggressive_pruning_keeps_normalization(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.4)
        lam = 15.0
        state = run_stream(
            [2.0, 2.1, 1.9, 2.2], unit_fm, cfg, lam, coarse_grid, prune_threshold=0.05
        )
        assert abs(float(np.sum(state.weights)) - 1.0) <= 1e-10
        assert np.all((state.weights == 0.0) | (state.weights >= 0.05))


class TestRowBuffer:
    """Rows kept in a reused buffer that grows by doubling."""

    @pytest.mark.parametrize("method", ["marginal", "scaling"])
    def test_growth_matches_state_rebuilt_from_posteriors(self, unit_fm, coarse_grid, method):
        # 101 steps cross the capacity boundaries at 16, 32, 64 and 128 rows.
        cfg = LikelihoodConfig(0.5)
        rng = np.random.default_rng(3)
        state = initial_state(coarse_grid)
        for cy in np.clip(rng.normal(2.0, 0.4, size=101), 0.0, 4.9):
            rebuilt = RunLengthState(
                coarse_grid,
                state.k,
                state.weights.copy(),
                state.log_evidence,
                state.posteriors.copy(),
            )
            stepped = bocd_step(state, float(cy), unit_fm, cfg, 15.0, method=method)
            expected = bocd_step(rebuilt, float(cy), unit_fm, cfg, 15.0, method=method)
            assert np.array_equal(stepped.weights, expected.weights)
            assert np.array_equal(stepped.posteriors, expected.posteriors)
            assert stepped.log_evidence == expected.log_evidence
            state = stepped
        assert state.k == 101

    def test_stepping_consumes_the_state(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.5)
        old = initial_state(coarse_grid)
        new = bocd_step(old, 2.0, unit_fm, cfg, 15.0)
        with pytest.raises(ValueError):
            old.posteriors
        with pytest.raises(ValueError):
            old.run_posterior(0)
        with pytest.raises(ValueError):
            bocd_step(old, 2.0, unit_fm, cfg, 15.0)
        assert new.run_posterior(new.k).grid == coarse_grid

    def test_failed_step_leaves_the_state_usable(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.3)
        state = bocd_step(initial_state(coarse_grid), 2.0, unit_fm, cfg, 15.0)
        before = state.posteriors.copy()
        with pytest.raises(MeasurementIncompatibleError):
            bocd_step(state, 9.0, unit_fm, cfg, 15.0, method="scaling")
        assert np.array_equal(state.posteriors, before)
        assert bocd_step(state, 2.0, unit_fm, cfg, 15.0).k == 2

    def test_posteriors_read_only_and_fresh_row_is_the_likelihood(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.5)
        state = run_stream([2.0, 2.2, 1.9], unit_fm, cfg, 15.0, coarse_grid)
        with pytest.raises(ValueError):
            state.posteriors[0, 0] = 1.0
        likelihood = likelihood_vector(1.9, coarse_grid, unit_fm, cfg)
        lik_mass = float(np.sum(likelihood[:-1]) * coarse_grid.dq)
        assert np.array_equal(state.posteriors[0], likelihood / lik_mass)
        assert not np.shares_memory(state.run_posterior(0).density, state.posteriors)


class TestChangepointProbability:
    def _state_with_weights(self, grid, weights):
        weights = np.asarray(weights, dtype=float)
        k = weights.size - 1
        flat = uniform_prior(grid).density
        return RunLengthState(
            grid=grid,
            k=k,
            weights=weights,
            log_evidence=0.0,
            posteriors=np.tile(flat, (k + 1, 1)),
        )

    def test_all_mass_on_change(self, coarse_grid):
        state = self._state_with_weights(coarse_grid, [1.0, 0.0, 0.0])
        assert changepoint_probability(state) == 1.0

    def test_no_mass_on_change(self, coarse_grid):
        state = self._state_with_weights(coarse_grid, [0.0, 0.3, 0.7])
        assert changepoint_probability(state) == 0.0
