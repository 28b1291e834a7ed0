import math
from unittest import mock

import numpy as np
import pytest

from oracles import brute_force_alpha, direct_posterior, gaussian_pdf, likelihood_vector
from plumecpd.bocd import DEFAULT_PRUNE_THRESHOLD, PASS_BLOCK, RunLengthState
from plumecpd.errors import MeasurementIncompatibleError
from plumecpd.inference import (
    LikelihoodConfig,
    QGrid,
    closed_form_log_mass,
    grid_integrate,
    window_log_mass,
)
from plumecpd.transport import ForwardModel
from stepping import run_core


def each_pass(cys, fm, cfg, lam, grid, **kwargs):
    """The stream's state after every pass, one core step at a time from a
    state rebuilt from the last one's arrays; each state's log evidence
    covers its own pass alone."""
    run = None
    for cy in cys:
        start = None if run is None else (run.weights, run.precision, run.mode, run.log_mass)
        run = run_core([cy], fm, cfg, lam, grid, start=start, **kwargs)
        yield run


def alpha(run):
    """Unnormalized joint weights p(r_k = i, measurements so far)."""
    return run.weights * math.exp(run.log_evidence)


def predictive_probability(grid, precision, mode, cy, fm, cfg, method):
    """Predictive density of ``cy`` under one hypothesis whose rate row is
    exp(-precision (q - mode)^2 / 2) / Z, read from one core step: the
    growth weight times the step evidence, over the growth hazard."""
    lam = 2.0
    run = run_core(
        [cy],
        fm,
        cfg,
        lam,
        grid,
        method=method,
        prune_threshold=0.0,
        start=(np.ones(1), np.array([precision]), np.array([mode])),
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
        long_run = (weights, np.zeros(k + 1), np.zeros(k + 1))
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
            grid, 0.0, 0.0, 2.5, unit_fm, LikelihoodConfig(1.0), method="scaling"
        )
        assert value == pytest.approx(0.2)

    def test_scaling_out_of_support(self, unit_fm):
        # Every hypothesis, the fresh one included, gives it density 0.
        grid = QGrid(0.0, 5.0, 0.005)
        with pytest.raises(MeasurementIncompatibleError, match="impossible under all"):
            predictive_probability(
                grid, 0.0, 0.0, 6.0, unit_fm, LikelihoodConfig(1.0), method="scaling"
            )

    def test_scaling_interpolates_linearly(self, unit_fm):
        grid = QGrid(0.0, 2.0, 0.5)
        row = (grid, 1.0, 1.3)

        def at(cy):
            return predictive_probability(*row, cy, unit_fm, LikelihoodConfig(1.0), method="scaling")

        assert at(0.75) == pytest.approx(0.5 * (at(0.5) + at(1.0)))
        assert at(0.5) != pytest.approx(at(1.0))

    def test_scaling_change_of_variables_factor(self):
        fm = ForwardModel(advection_velocity_mps=2.0, dispersion_factor_per_m=1.0)
        grid = QGrid(0.0, 5.0, 0.005)
        value = predictive_probability(
            grid, 0.0, 0.0, 1.0, fm, LikelihoodConfig(1.0), method="scaling"
        )
        assert value == pytest.approx(0.2 * 2.0)

    def test_scaling_degenerate_transport(self):
        fm = ForwardModel(advection_velocity_mps=1.0, dispersion_factor_per_m=0.0)
        grid = QGrid(0.0, 5.0, 0.005)
        with pytest.raises(ValueError):
            predictive_probability(
                grid, 0.0, 0.0, 1.0, fm, LikelihoodConfig(1.0), method="scaling"
            )

    def test_marginal_delta_posterior_collapses(self, unit_fm):
        # A row far narrower than the grid step is a point mass.
        grid = QGrid(0.0, 5.0, 0.005)
        q_star = grid.values[400]
        sigma = 0.4
        cy = 2.3
        value = predictive_probability(
            grid, 1e14, q_star, cy, unit_fm, LikelihoodConfig(sigma), method="marginal"
        )
        expected = gaussian_pdf(cy, q_star, sigma)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_unknown_method_rejected(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.5)
        with pytest.raises(ValueError):
            predictive_probability(
                grid, 0.0, 0.0, 1.0, unit_fm, LikelihoodConfig(1.0), method="exact"
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
        # One log Z per hypothesis and step gives every hypothesis's
        # marginal likelihood of the new pass. A block of passes computes
        # them in one call over (passes, slots), the few slots past a pass's
        # hypotheses included, less the exact windowed sums, which each
        # pass computes for its own hypotheses.
        import plumecpd.bocd as bocd_module

        cfg = LikelihoodConfig(0.4)
        sizes, window_rows = [], []

        def counting(grid, precision, mode):
            sizes.append(np.broadcast_shapes(np.shape(precision), np.shape(mode)))
            return closed_form_log_mass(grid, precision, mode)

        def counting_window(grid, precision, mode):
            window_rows.append(mode.size)
            return window_log_mass(grid, precision, mode)

        with (
            mock.patch.object(bocd_module, "closed_form_log_mass", side_effect=counting),
            mock.patch.object(bocd_module, "window_log_mass", side_effect=counting_window),
        ):
            run_core([2.0] * 10, unit_fm, cfg, 15.0, coarse_grid)
        assert PASS_BLOCK == 8
        assert sizes == [(1, 8, 9), (1, 2, 11)]
        assert 0 < len(window_rows) <= 10
        assert all(0 < n <= 11 for n in window_rows)

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
        # grid; its log Z does not, and the row peaks midway between the
        # measurements.
        assert run.weights[-1] == 0.0
        assert grid.values[int(np.argmax(run.rows[-1]))] == 2.0
        assert grid_integrate(grid, run.rows[-1]) == pytest.approx(1.0, abs=1e-8)

    def test_dead_full_run_keeps_its_posterior(self, unit_fm):
        # The third pass kills the full-run hypothesis, whose row times the
        # likelihood is empty on the grid even in log space; the row is
        # still the posterior of all three passes.
        grid = QGrid(0.0, 5.0, 0.005)
        stream = [1.0, 1.0, 3.0]
        run = run_core(stream, unit_fm, LikelihoodConfig(0.03), 15.0, grid)
        assert run.weights[-1] == 0.0
        assert run.weights[0] == 1.0
        expected = direct_posterior(stream, grid.values, grid.dq, 1.0, 0.03)
        np.testing.assert_allclose(run.rows[-1], expected, rtol=1e-9, atol=1e-12 * expected.max())
        assert grid.values[int(np.argmax(run.rows[-1]))] == 1.665

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
    """The per-hypothesis state (weight, A, mode and log Z) that took the
    place of the run-length row buffers."""

    @pytest.mark.parametrize("method", ["marginal", "scaling"])
    def test_growth_matches_state_rebuilt_from_posteriors(self, unit_fm, coarse_grid, method):
        # The four arrays are the whole state: a run rebuilt from them before
        # every step has the bits of one run through a single state.
        cfg = LikelihoodConfig(0.5)
        rng = np.random.default_rng(3)
        cys = np.clip(rng.normal(2.0, 0.4, size=101), 0.0, 4.9)
        whole = run_core(cys, unit_fm, cfg, 15.0, coarse_grid, method=method)
        log_evidence = 0.0
        for stepped in each_pass(cys, unit_fm, cfg, 15.0, coarse_grid, method=method):
            log_evidence += stepped.log_evidence
        for field in ("weights", "precision", "mode", "log_mass"):
            assert np.array_equal(getattr(stepped, field), getattr(whole, field)), field
        assert log_evidence == pytest.approx(whole.log_evidence, rel=1e-12)
        assert whole.weights.size == 102

    def test_failed_step_leaves_the_state_usable(self, unit_fm, coarse_grid):
        # A stream whose measurement is impossible fails alone: the other
        # stream's state has the bits of a run on its own, and once the
        # failed stream is dropped the state steps on.
        cfg = LikelihoodConfig(0.3)
        state = RunLengthState(2, 3, coarse_grid)

        def step(cys, method):
            return state.advance(
                np.array(cys)[:, np.newaxis], [unit_fm], cfg, 15.0, method,
                DEFAULT_PRUNE_THRESHOLD, math.inf,
            ).errors

        assert step([2.0, 2.0], "marginal") == {}
        errors = step([2.1, 9.0], "scaling")
        assert errors == {1: "observation impossible under all run-length hypotheses"}
        alone = run_core([2.0, 2.1], unit_fm, cfg, 15.0, coarse_grid, method="scaling")
        assert np.array_equal(state.weights[0], alone.weights)
        state.select(np.array([True, False]))
        assert step([1.9], "marginal") == {}
        assert state.weights.shape == (1, 4)

    def test_fresh_row_is_the_likelihood(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.5)
        run = run_core([2.0, 2.2, 1.9], unit_fm, cfg, 15.0, coarse_grid)
        likelihood = likelihood_vector(1.9, coarse_grid, unit_fm, cfg)
        lik_mass = float(np.sum(likelihood[:-1]) * coarse_grid.dq)
        np.testing.assert_allclose(run.rows[0], likelihood / lik_mass, rtol=1e-12)
