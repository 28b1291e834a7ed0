import math
from unittest import mock

import numpy as np
import pytest

from oracles import brute_force_alpha, gaussian_pdf
from plumecpd.bocd import DEFAULT_PRUNE_THRESHOLD, advance_rows
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
from stepping import run_core


def each_pass(cys, fm, cfg, lam, grid, **kwargs):
    """The stream's state after every pass, one core step at a time from
    fresh buffers; each state's log evidence covers its own pass alone."""
    run = None
    for cy in cys:
        start = None if run is None else (run.weights, run.rows)
        run = run_core([cy], fm, cfg, lam, grid, start=start, **kwargs)
        yield run


def alpha(run):
    """Unnormalized joint weights p(r_k = i, measurements so far)."""
    return run.weights * math.exp(run.log_evidence)


def predictive_probability(posterior, cy, fm, cfg, method):
    """Predictive density of ``cy`` under one hypothesis whose rate row is
    ``posterior``, read from one core step: the growth weight times the
    step evidence, over the growth hazard."""
    lam = 2.0
    run = run_core(
        [cy],
        fm,
        cfg,
        lam,
        posterior.grid,
        method=method,
        prune_threshold=0.0,
        start=(np.ones(1), posterior.density[np.newaxis]),
    )
    return alpha(run)[1] / (1.0 - 1.0 / lam)


class TestHazard:
    @staticmethod
    def first_step_cp(grid, fm, lam, start=None):
        return run_core([1.0], fm, LikelihoodConfig(0.5), lam, grid, start=start).weights[0]

    def test_paper_default(self, unit_fm, coarse_grid):
        cp = self.first_step_cp(coarse_grid, unit_fm, 15.0)
        assert cp == pytest.approx(1.0 / 15.0)
        assert cp == pytest.approx(0.0667, abs=5e-5)

    def test_lambda_two(self, unit_fm, coarse_grid):
        assert self.first_step_cp(coarse_grid, unit_fm, 2.0) == pytest.approx(0.5, rel=1e-12)

    def test_memoryless(self, unit_fm, coarse_grid):
        # All mass on a long run with the same flat rate posterior: the
        # change probability equals that of a fresh state.
        k = 10**3
        weights = np.zeros(k + 1)
        weights[-1] = 1.0
        flat = uniform_prior(coarse_grid).density
        long_run = (weights, np.tile(flat, (k + 1, 1)))
        assert self.first_step_cp(coarse_grid, unit_fm, 7.0, long_run) == pytest.approx(
            self.first_step_cp(coarse_grid, unit_fm, 7.0), rel=1e-12
        )

    @pytest.mark.parametrize("lam", [1.0, 0.5, 0.0, -3.0])
    def test_lambda_must_exceed_one(self, lam, unit_fm, coarse_grid):
        with pytest.raises(ValueError):
            self.first_step_cp(coarse_grid, unit_fm, lam)


class TestPredictiveProbability:
    """The predictive density one hypothesis gives the next measurement."""

    def test_scaling_flat_identity_map(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        value = predictive_probability(
            uniform_prior(grid), 2.5, unit_fm, LikelihoodConfig(1.0), method="scaling"
        )
        assert value == pytest.approx(0.2)

    def test_scaling_out_of_support(self, unit_fm):
        # Every hypothesis, the fresh one included, gives it density 0.
        grid = QGrid(0.0, 5.0, 0.005)
        with pytest.raises(MeasurementIncompatibleError, match="impossible under all"):
            predictive_probability(
                uniform_prior(grid), 6.0, unit_fm, LikelihoodConfig(1.0), method="scaling"
            )

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


class TestBocdStep:
    """One stream stepped through the run-length core."""

    @pytest.mark.parametrize("method", ["marginal", "scaling"])
    def test_first_step_splits_by_hazard(self, unit_fm, method):
        grid = QGrid(0.0, 5.0, 0.005)
        run = run_core([1.0], unit_fm, LikelihoodConfig(0.5), 15.0, grid, method=method)
        assert run.weights == pytest.approx([1.0 / 15.0, 14.0 / 15.0])

    def test_entry_count_tracks_pass_count(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.5)
        lam = 15.0
        for k, run in enumerate(each_pass([2.0] * 8, unit_fm, cfg, lam, coarse_grid), 1):
            assert run.weights.shape == (k + 1,)
            assert run.rows.shape == (k + 1, coarse_grid.n_points)

    def test_weights_normalized_every_step(self, unit_fm, coarse_grid):
        rng = np.random.default_rng(11)
        cfg = LikelihoodConfig(0.4)
        lam = 15.0
        cys = np.clip(rng.normal(2.0, 0.6, size=20), 0.0, 4.9)
        for run in each_pass(cys, unit_fm, cfg, lam, coarse_grid):
            assert abs(float(np.sum(run.weights)) - 1.0) <= 1e-10

    def test_rows_stay_normalized(self, unit_fm, coarse_grid):
        rng = np.random.default_rng(5)
        cfg = LikelihoodConfig(0.4)
        lam = 15.0
        cys = np.clip(rng.normal(2.0, 0.5, size=10), 0.0, 4.9)
        for run in each_pass(cys, unit_fm, cfg, lam, coarse_grid):
            for row in run.rows:
                assert grid_integrate(coarse_grid, row) == pytest.approx(1.0, abs=1e-8)

    def test_constant_stream_keeps_changepoint_low(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        cfg = LikelihoodConfig(0.3)
        lam = 15.0
        for k, run in enumerate(each_pass([2.0] * 12, unit_fm, cfg, lam, grid), 1):
            if k >= 5:
                assert run.weights[0] < 0.5 / 15.0

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
            run = run_core(
                [float(c) for c in cys], unit_fm, cfg, lam, coarse_grid, prune_threshold=0.0
            )
            expected = brute_force_alpha(
                [float(c) for c in cys], coarse_grid.values, coarse_grid.dq, 1.0, 0.3, 15.0
            )
            np.testing.assert_allclose(alpha(run), expected, rtol=1e-9)

    def test_changepoint_probability_matches_enumeration(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.3)
        lam = 15.0
        cys = [1.8, 2.1, 3.9, 4.2, 4.0]
        run = run_core(cys, unit_fm, cfg, lam, coarse_grid, prune_threshold=0.0)
        expected = brute_force_alpha(cys, coarse_grid.values, coarse_grid.dq, 1.0, 0.3, 15.0)
        assert run.weights[0] == pytest.approx(
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

        with mock.patch.object(bocd_module, "likelihood_vector", side_effect=counting):
            for step, _ in enumerate(each_pass([2.0] * 6, unit_fm, cfg, lam, coarse_grid), 1):
                assert calls["n"] == step

    def test_hazard_monotonicity_on_calm_streams(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.6)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            cys = np.clip(rng.normal(2.0, 0.4, size=12), 1.0, 3.0)
            for run_lo, run_hi in zip(
                each_pass(cys, unit_fm, cfg, 8.0, coarse_grid),
                each_pass(cys, unit_fm, cfg, 30.0, coarse_grid),
            ):
                assert run_lo.weights[0] >= run_hi.weights[0] - 1e-9

    def test_scale_equivariance_of_scaling_method(self):
        s = 3.7
        cys = [1.8, 2.1, 3.9, 4.2, 4.0, 3.8]
        lam = 15.0
        fm = ForwardModel(1.0, 1.0)
        base = run_core(
            cys, fm, LikelihoodConfig(0.3), lam, QGrid(0.0, 5.0, 0.005), method="scaling"
        )
        scaled = run_core(
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
            run_core([9.0], unit_fm, LikelihoodConfig(0.3), 15.0, coarse_grid, method="scaling")

    def test_impossible_observation_marginal(self, unit_fm, coarse_grid):
        with pytest.raises(MeasurementIncompatibleError):
            run_core([500.0], unit_fm, LikelihoodConfig(1e-3), 15.0, coarse_grid)

    @pytest.mark.parametrize("method", ["marginal", "scaling"])
    def test_largest_float_is_impossible_without_overflow_warning(self, coarse_grid, method):
        fm = ForwardModel(advection_velocity_mps=4.0, dispersion_factor_per_m=1.0)
        with pytest.raises(MeasurementIncompatibleError, match="impossible under all"):
            run_core([2.0, 1.7e308], fm, LikelihoodConfig(0.3), 15.0, coarse_grid, method=method)

    def test_underflowed_row_is_renormalized_in_log_space(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        run = run_core([1.0, 3.0], unit_fm, LikelihoodConfig(0.03), 15.0, grid)
        # The full-run row times the likelihood underflows on the whole
        # grid; in log space it peaks midway between the measurements.
        assert run.weights[-1] == 0.0
        assert grid.values[int(np.argmax(run.rows[-1]))] == 2.0
        assert grid_integrate(grid, run.rows[-1]) == pytest.approx(1.0, abs=1e-8)

    def test_dead_row_empty_in_log_space_is_flat(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        run = run_core([1.0, 1.0, 3.0], unit_fm, LikelihoodConfig(0.03), 15.0, grid)
        assert run.weights[-1] == 0.0
        assert np.array_equal(run.rows[-1], uniform_prior(grid).density)
        assert run.weights[0] == 1.0

    def test_pruning_zeroes_negligible_hypotheses(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        cfg = LikelihoodConfig(0.2)
        lam = 15.0
        cys = [2.0] * 6 + [4.5] * 6
        weights = run_core(cys, unit_fm, cfg, lam, grid).weights
        live = weights[weights > 0]
        assert np.all(live >= 1e-12)
        assert abs(float(np.sum(weights)) - 1.0) <= 1e-10

    def test_aggressive_pruning_keeps_normalization(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.4)
        lam = 15.0
        weights = run_core(
            [2.0, 2.1, 1.9, 2.2], unit_fm, cfg, lam, coarse_grid, prune_threshold=0.05
        ).weights
        assert abs(float(np.sum(weights)) - 1.0) <= 1e-10
        assert np.all((weights == 0.0) | (weights >= 0.05))


class TestRowBuffer:
    """The row buffer and the spare buffer the core writes into."""

    @pytest.mark.parametrize("method", ["marginal", "scaling"])
    def test_growth_matches_state_rebuilt_from_posteriors(self, unit_fm, coarse_grid, method):
        # The core reads only the first k + 1 rows and writes only the
        # spare buffer, so one run through reused full-size buffers has the
        # bits of a run rebuilt into fresh buffers before every step.
        cfg = LikelihoodConfig(0.5)
        rng = np.random.default_rng(3)
        cys = np.clip(rng.normal(2.0, 0.4, size=101), 0.0, 4.9)
        whole = run_core(cys, unit_fm, cfg, 15.0, coarse_grid, method=method)
        log_evidence = 0.0
        for stepped in each_pass(cys, unit_fm, cfg, 15.0, coarse_grid, method=method):
            log_evidence += stepped.log_evidence
        assert np.array_equal(stepped.weights, whole.weights)
        assert np.array_equal(stepped.rows, whole.rows)
        assert log_evidence == whole.log_evidence
        assert whole.weights.size == 102

    def test_failed_step_leaves_the_state_usable(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.3)
        run = run_core([2.0], unit_fm, cfg, 15.0, coarse_grid)
        rows = np.empty((1, 3, coarse_grid.n_points))
        spare = np.empty_like(rows)
        rows[0, :2] = run.rows[::-1]
        before = rows[:, :2].copy()

        def step(cy, method):
            return advance_rows(
                rows,
                spare,
                run.weights[np.newaxis],
                np.array([cy]),
                coarse_grid,
                unit_fm,
                cfg,
                15.0,
                method,
                DEFAULT_PRUNE_THRESHOLD,
            )

        _, _, errors = step(9.0, "scaling")
        assert errors == {0: "observation impossible under all run-length hypotheses"}
        assert np.array_equal(rows[:, :2], before)
        weights, _, errors = step(2.0, "marginal")
        assert errors == {}
        assert weights.shape == (1, 3)

    def test_fresh_row_is_the_likelihood(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.5)
        run = run_core([2.0, 2.2, 1.9], unit_fm, cfg, 15.0, coarse_grid)
        likelihood = likelihood_vector(1.9, coarse_grid, unit_fm, cfg)
        lik_mass = float(np.sum(likelihood[:-1]) * coarse_grid.dq)
        assert np.array_equal(run.rows[0], likelihood / lik_mass)
