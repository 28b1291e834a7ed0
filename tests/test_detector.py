import dataclasses
import math
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bayes_update,
    conjugate_posterior,
    direct_posterior,
    grid_integrate,
    grid_moments,
    step_oracle_detect,
    step_oracle_first_alarms,
    uniform_prior,
)
from plumecpd import bocd, inference
from plumecpd.bocd import PASS_BLOCK, RunLengthState
from plumecpd.detector import (
    DetectionEvent,
    DetectorConfig,
    PassReport,
    detect_series,
    first_alarms,
)
from plumecpd.errors import ConfigError, DetectionError
from plumecpd.inference import MIN_SIGMA_E, LikelihoodConfig, QGrid
from plumecpd.surrogate import make_surrogate_experiment, make_unit_forward_experiment
from plumecpd.synthesis import synthesize_batch
from plumecpd.inference import estimate_sigma_e
from plumecpd.transport import ForwardModel
from stepping import run_core


def assert_same_posterior(density, expected):
    """Densities on one grid agree to 1e-9 relative, up to 1e-12 of the peak."""
    np.testing.assert_allclose(density, expected, rtol=1e-9, atol=1e-12 * np.max(expected))


def retained_density(event, grid):
    """The density of an event's pre-change row, built on the grid."""
    return conjugate_posterior(grid, *event.pre_change_row).density


def assert_report_summarizes(report, expected, grid):
    """A report's mode, mean and std are those of the density ``expected``:
    the mode up to a near tie, mean and std to 1e-9 relative."""
    at = int(round((report.mode_g_per_s - grid.q_min) / grid.dq))
    assert expected[at] >= np.max(expected) * (1.0 - 1e-9)
    mean, std = grid_moments(expected, grid.values, grid.dq)
    assert report.mean_g_per_s == pytest.approx(mean, rel=1e-9, abs=1e-12)
    assert report.std_g_per_s == pytest.approx(std, rel=1e-9, abs=1e-9 * grid.dq)


def make_config(**overrides):
    defaults = dict(threshold=0.8, sigma_e_initial=0.3)
    defaults.update(overrides)
    return DetectorConfig(**defaults)


class TestDetectorConfig:
    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_strictly_inside_unit_interval(self, threshold):
        with pytest.raises(ValueError):
            make_config(threshold=threshold)

    def test_boundary_thresholds_accepted(self):
        make_config(threshold=1e-9)
        make_config(threshold=1.0 - 1e-9)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            make_config(sigma_e_initial=0.0)

    def test_sigma_whose_precision_overflows_rejected(self):
        with pytest.raises(ConfigError, match="1/sigma_e"):
            make_config(sigma_e_initial=5e-324)
        make_config(sigma_e_initial=MIN_SIGMA_E)

    def test_lambda_must_exceed_one(self):
        with pytest.raises(ValueError):
            make_config(lam=1.0)

    def test_post_factor_at_least_one(self):
        with pytest.raises(ValueError):
            make_config(sigma_e_post_factor=0.5)
        make_config(sigma_e_post_factor=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma_e_initial", math.nan),
            ("sigma_e_initial", math.inf),
            ("lam", math.nan),
            ("lam", math.inf),
            ("sigma_e_post_factor", math.nan),
            ("sigma_e_post_factor", math.inf),
        ],
    )
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            make_config(**{field: value})

    def test_widened_sigma_must_stay_finite(self):
        with pytest.raises(ValueError):
            make_config(sigma_e_initial=1e10, sigma_e_post_factor=1e300)


@pytest.fixture(scope="module")
def exp4():
    exp, fm = make_unit_forward_experiment("4", 12, 0.35, 0.083)
    sigma_e = estimate_sigma_e(list(exp.cy_series), 0.083, fm)
    return exp, fm, make_config(sigma_e_initial=sigma_e)


class TestStepChangeDetection:
    def test_seeded_instance_triggers_right_after_change(self, exp4):
        exp, fm, cfg = exp4
        series = synthesize_batch(exp, 4.0, 1, master_seed=7)[0]
        _, events = detect_series(series, fm, cfg)
        assert [e.pass_index for e in events] == [13]
        assert events[0].changepoint_probability >= 0.8
        assert events[0].regime_index == 1

    def test_detection_within_two_passes_across_instances(self, exp4):
        exp, fm, cfg = exp4
        prompt = 0
        for series in synthesize_batch(exp, 4.0, 100, master_seed=7):
            _, events = detect_series(series, fm, cfg)
            passes = [e.pass_index for e in events]
            assert not passes or min(passes) > 12
            if passes and min(passes) <= 15:
                prompt += 1
        assert prompt >= 95

    def test_constant_noiseless_stream_never_triggers(self, unit_fm):
        cfg = make_config()
        reports, events = detect_series([2.0] * 20, unit_fm, cfg)
        assert events == []
        assert len(reports) == 20

    def test_reports_read_as_rows(self, unit_fm):
        # The report columns read as the list of rows detect_series used to
        # return: by index, from the end, by slice and in order.
        reports, _ = detect_series([2.0, 2.1, 1.9, 2.05, 2.0], unit_fm, make_config())
        rows = list(reports)
        assert all(isinstance(row, PassReport) for row in rows)
        assert [row.pass_index for row in rows] == [1, 2, 3, 4, 5]
        assert [reports[i] for i in range(-5, 5)] == rows + rows
        assert list(reports[1:4]) == rows[1:4]
        assert list(reports[::-2]) == rows[::-2]
        assert reports[1:4] == reports[1:4] != reports[:3]

    def test_threshold_near_one_never_triggers(self, unit_fm):
        cfg = make_config(threshold=1.0 - 1e-9, sigma_e_initial=0.3)
        stream = [2.0] * 8 + [3.0] * 8
        _, events = detect_series(stream, unit_fm, cfg)
        assert events == []


class TestDetectorMechanics:
    def test_event_pass_indices_are_unique(self, unit_fm):
        cfg = make_config(sigma_e_initial=0.15, sigma_e_post_factor=1.0)
        stream = [1.5] * 8 + [3.2] * 8 + [0.8] * 8
        _, events = detect_series(stream, unit_fm, cfg)
        passes = [e.pass_index for e in events]
        assert len(passes) == len(set(passes))
        assert passes == sorted(passes)

    def test_regime_index_increments(self, unit_fm):
        cfg = make_config(sigma_e_initial=0.15, sigma_e_post_factor=1.0)
        stream = [1.5] * 8 + [3.2] * 8 + [0.8] * 8
        _, events = detect_series(stream, unit_fm, cfg)
        assert len(events) == 2
        assert [e.regime_index for e in events] == [1, 2]
        assert all(e.changepoint_probability >= cfg.threshold for e in events)

    def test_retained_posterior_is_previous_pass_state(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        cfg = make_config(sigma_e_initial=0.15, grid=grid)
        stream = [2.0, 2.1, 1.9, 2.05, 4.2, 4.1]
        _, events = detect_series(stream, unit_fm, cfg)
        assert len(events) == 1
        k = events[0].pass_index
        manual = direct_posterior(stream[: k - 1], grid.values, grid.dq, 1.0, cfg.sigma_e_initial)
        assert_same_posterior(retained_density(events[0], grid), manual)

    def test_report_after_event_uses_fresh_widened_prior(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        factor = 10.0
        cfg = make_config(sigma_e_initial=0.15, sigma_e_post_factor=factor, grid=grid)
        stream = [2.0, 2.1, 1.9, 2.05, 4.2, 4.1, 4.0]
        reports, events = detect_series(stream, unit_fm, cfg)
        assert len(events) == 1
        k = events[0].pass_index
        after = next(r for r in reports if r.pass_index == k + 1)
        fresh = direct_posterior([stream[k]], grid.values, grid.dq, 1.0, cfg.sigma_e_initial * factor)
        assert_report_summarizes(after, fresh, grid)

    def test_error_carries_pass_index(self, unit_fm):
        cfg = make_config(sigma_e_initial=1e-3)
        with pytest.raises(DetectionError, match=r"pass 3"):
            detect_series([2.0, 2.0, 500.0], unit_fm, cfg)

    def test_precision_overflow_is_a_detection_error(self):
        # r / sigma_e = 1e300: r^2 / sigma_e^2 overflows, without a
        # RuntimeWarning.
        fm = ForwardModel(advection_velocity_mps=1e-200, dispersion_factor_per_m=1e100)
        cfg = make_config(sigma_e_initial=1e-100, grid=QGrid(0.0, 5.0, 0.05))
        with pytest.raises(DetectionError, match="^pass 1: .*overflows the rate precision"):
            detect_series([1.0, 2.0], fm, cfg)

    def test_empty_stream_rejected(self, unit_fm):
        with pytest.raises(ValueError):
            detect_series([], unit_fm, make_config())

    def test_zero_forward_ratio_keeps_the_flat_prior(self):
        # A forward ratio of 0 says nothing about the rate: every
        # hypothesis predicts N(0, sigma_e^2), so the changepoint
        # probability stays at 1 / lambda and every report summarizes the
        # flat prior.
        grid = QGrid(0.0, 5.0, 0.05)
        cfg = make_config(grid=grid)
        reports, events = detect_series([0.1, 0.4, 0.0, 0.2], ForwardModel(1.0, 0.0), cfg)
        assert events == []
        assert len(reports) == 4
        for report in reports:
            assert report.changepoint_probability == pytest.approx(1.0 / cfg.lam, rel=1e-12)
            assert_report_summarizes(report, uniform_prior(grid).density, grid)

    def test_run_detector_keeps_measurement_indices(self, unit_fm):
        reports, _ = detect_series(
            [2.0, 2.1, 1.9], unit_fm, make_config(), pass_indices=[3, 4, 7]
        )
        assert [r.pass_index for r in reports] == [3, 4, 7]

    @pytest.mark.parametrize("indices", [[1, 2, 3], [1, 2, 3, 4, 5, 6]])
    def test_pass_index_count_mismatch(self, unit_fm, indices):
        # Five passes with three indices used to give three reports.
        with pytest.raises(ValueError, match="one pass index per pass"):
            detect_series([2.0] * 5, unit_fm, make_config(), pass_indices=indices)


class TestEstimateSeries:
    """Rate estimates in the reports of a stream that raises no alarm."""

    def test_single_pass_mode_tracks_measurement(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        reports, _ = detect_series([1.73], unit_fm, make_config(grid=grid))
        assert len(reports) == 1
        assert abs(reports[0].mode_g_per_s - 1.73) <= grid.dq
        assert reports[0].changepoint_probability == pytest.approx(1.0 / 15.0)

    def test_repeated_passes_shrink_uncertainty(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        reports, events = detect_series([2.0] * 8, unit_fm, make_config(grid=grid))
        assert events == []
        stds = [r.std_g_per_s for r in reports]
        assert all(b < a for a, b in zip(stds, stds[1:]))
        assert all(r.std_g_per_s >= 0 for r in reports)

    def test_error_carries_pass_index(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        with pytest.raises(DetectionError, match=r"pass 2"):
            detect_series([2.0, 400.0], unit_fm, make_config(sigma_e_initial=1e-3, grid=grid))


class TestUnderflowedPosterior:
    """A jump so far that the rate posterior times the likelihood underflows."""

    def test_log_space_row_keeps_report(self, unit_fm):
        reports, events = detect_series([1.0, 3.0], unit_fm, make_config(sigma_e_initial=0.03))
        assert [e.pass_index for e in events] == [2]
        last = reports[1]
        assert last.mode_g_per_s == 2.0
        assert last.mean_g_per_s == pytest.approx(2.0, rel=1e-12)
        assert last.std_g_per_s == pytest.approx(0.03 / math.sqrt(2.0), rel=1e-9)

    @pytest.mark.parametrize(
        "stream, sigma_e", [([1.0, 1.0, 3.0], 0.03), ([1.0, 1.0, 1.0, 3.0], 0.01)]
    )
    def test_jump_beyond_log_space_raises_alarm(self, unit_fm, stream, sigma_e):
        cfg = make_config(sigma_e_initial=sigma_e)
        reports, events = detect_series(stream, unit_fm, cfg)
        assert [e.pass_index for e in events] == [len(stream)]
        assert events[0].changepoint_probability == 1.0
        last = reports[-1]
        assert last.pass_index == len(stream)
        assert all(
            math.isfinite(v) for v in (last.mode_g_per_s, last.mean_g_per_s, last.std_g_per_s)
        )
        chain = uniform_prior(cfg.grid)
        for cy in stream[:-1]:
            chain = bayes_update(chain, cy, unit_fm, LikelihoodConfig(sigma_e))
        assert_same_posterior(retained_density(events[0], cfg.grid), chain.density)

    def test_alarm_pass_report_is_the_full_run_posterior(self, unit_fm):
        # The report at an alarm summarizes every pass since the last
        # reset, the alarm pass included, not the flat prior (mode 0.0,
        # mean 2.4975).
        grid = QGrid(0.0, 5.0, 0.005)
        stream = [1.0, 1.0, 3.0]
        reports, events = detect_series(stream, unit_fm, make_config(sigma_e_initial=0.03))
        assert [e.pass_index for e in events] == [3]
        expected = direct_posterior(stream, grid.values, grid.dq, 1.0, 0.03)
        assert_report_summarizes(reports[2], expected, grid)
        assert reports[2].mode_g_per_s == 1.665
        assert reports[2].mean_g_per_s == pytest.approx(5.0 / 3.0, rel=1e-9)
        assert reports[2].std_g_per_s == pytest.approx(0.03 / math.sqrt(3.0), rel=1e-9)

    def test_subnormal_norm_takes_log_space_path(self, unit_fm):
        # The full-run row times the third likelihood integrates to a
        # subnormal number; a grid product renormalized by it would
        # integrate to 0.97, while log Z keeps every row normalized.
        stream = [0.0, 0.0, 0.9453125]
        cfg = make_config(sigma_e_initial=0.02, grid=QGrid(0.0, 5.0, 0.05))
        reports, _ = detect_series(stream, unit_fm, cfg)
        assert len(reports) == len(stream)
        assert all(
            math.isfinite(v)
            for r in reports
            for v in (r.mode_g_per_s, r.mean_g_per_s, r.std_g_per_s)
        )
        for stop in range(1, len(stream) + 1):
            run = run_core(stream[:stop], unit_fm, LikelihoodConfig(0.02), cfg.lam, cfg.grid)
            row = run.rows[-1]
            assert abs(grid_integrate(cfg.grid, row) - 1.0) <= 1e-8


class TestGridTopCell:
    """Passes at or above q_max pile the rate posterior against the top of
    the grid, at a cell no integral weights."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "stream, sigma_e, grid",
        [
            ([2.27] * 6 + [5.3] * 21, 0.02, QGrid(0.0, 5.0, 0.05)),
            ([5.0, 5.0], 0.0013, QGrid(0.0, 5.0, 0.005)),
        ],
    )
    def test_finite_reports_or_a_typed_error(self, unit_fm, stream, sigma_e, grid):
        cfg = make_config(sigma_e_initial=sigma_e, grid=grid)
        try:
            reports, _ = detect_series(stream, unit_fm, cfg)
        except DetectionError:
            return
        assert len(reports) == len(stream)
        for r in reports:
            values = (r.changepoint_probability, r.mode_g_per_s, r.mean_g_per_s, r.std_g_per_s)
            assert all(math.isfinite(v) for v in values)

    def test_density_past_the_float_range_fails_the_pass(self, unit_fm):
        # A pass at q_max with noise a fortieth of the grid step: its row's
        # left-Riemann mass is about exp(-712) of its peak, so its evidence
        # is still positive while the density at q_max would be exp(715).
        cfg = make_config(sigma_e_initial=570_000**-0.5, grid=QGrid(0.0, 5.0, 0.05))
        with pytest.raises(DetectionError, match="^pass 1: rate posterior density overflows"):
            detect_series([5.0], unit_fm, cfg)
        with pytest.raises(DetectionError, match="^pass 1: rate posterior density overflows"):
            first_alarms(np.array([[5.0]]), unit_fm, cfg)


@settings(max_examples=80, deadline=None)
@given(
    cys=st.lists(st.floats(0.0, 4.9), min_size=1, max_size=10),
    sigma_e=st.sampled_from([0.02, 0.1, 0.4]),
)
def test_reports_and_events_follow_plain_bayes_chain(cys, sigma_e):
    """Reports summarize the oracle's posterior of the passes since the
    last reset, and each event keeps that posterior as of the previous
    pass, all to 1e-9 relative."""
    fm = ForwardModel(1.0, 1.0)
    grid = QGrid(0.0, 5.0, 0.05)
    cfg = make_config(sigma_e_initial=sigma_e, grid=grid)
    try:
        reports, events = detect_series(cys, fm, cfg)
    except DetectionError:
        return
    alarms = {e.pass_index: e for e in events}
    segment: list[float] = []
    sigma = sigma_e
    for report, cy in zip(reports, cys):
        before = (
            direct_posterior(segment, grid.values, grid.dq, 1.0, sigma)
            if segment
            else uniform_prior(grid).density
        )
        segment.append(cy)
        assert_report_summarizes(
            report, direct_posterior(segment, grid.values, grid.dq, 1.0, sigma), grid
        )
        event = alarms.get(report.pass_index)
        if event is not None:
            assert_same_posterior(retained_density(event, grid), before)
            segment = []
            sigma = sigma_e * cfg.sigma_e_post_factor


def built_rows(run):
    """The number of full-run rows ``run()`` builds on the grid."""
    built = []
    real = inference.conjugate_densities

    def conjugate_densities(grid, precision, *args):
        built.append(len(precision))
        return real(grid, precision, *args)

    with mock.patch.object(inference, "conjugate_densities", conjugate_densities):
        run()
    return sum(built)


class TestReportSummaries:
    """Reports of interior rows come from (A, mode, log Z); a row is built
    only where the closed form cannot stand in for it."""

    def test_stationary_stream_builds_only_its_first_rows(self):
        # A long_stream-like stream: 448 passes, 32 shuffles of one 14-pass
        # surrogate experiment. Its first 17 rows are too wide for their
        # mode to sit 8 sigma_q inside the grid; every later row is interior.
        exp, fm = make_surrogate_experiment("E1", 14, 0.5, 0.5, 30.0)
        rng = np.random.default_rng(5)
        cys = np.concatenate([rng.permutation(exp.cy_series) for _ in range(32)])
        cfg = make_config(sigma_e_initial=estimate_sigma_e(list(exp.cy_series), 0.5, fm))
        assert built_rows(lambda: detect_series(cys, fm, cfg)) == 17

    @pytest.mark.parametrize("at", [17, 20, 33])
    def test_event_after_an_interior_row_keeps_the_built_bytes(self, unit_fm, at):
        # At sigma_e 0.1 every row before the alarm is interior, so the only
        # row built for a report is the pass after it, under ten times the
        # noise. The event keeps the previous pass's row as (A, mode, log Z),
        # unbuilt, with the bits of the step oracle's. An alarm at pass 17
        # or 33 opens a block.
        cys = [2.0] * (at - 1) + [3.5, 2.0]
        cfg = make_config(sigma_e_initial=0.1)
        outcome = []
        built = built_rows(
            lambda: outcome.append(assert_steps_as_one_pass_at_a_time(cys, unit_fm, cfg))
        )
        assert built == 1
        _, events, _ = outcome[0]
        assert [e.pass_index for e in events] == [at]

    def test_built_row_whose_total_is_off_fails_its_pass(self, unit_fm):
        # As above, the only row built is the pass after the alarm at pass
        # 20, the 21st, here numbered 121. A total 2e-8 off 1 fails it.
        cys = [2.0] * 19 + [3.5, 2.0]
        cfg = make_config(sigma_e_initial=0.1)
        real = inference.conjugate_densities
        totals = []

        def conjugate_densities(*args):
            densities, peaks, total = real(*args)
            totals.append(total + 2e-8)
            return densities, peaks, totals[-1]

        with mock.patch.object(inference, "conjugate_densities", conjugate_densities):
            with pytest.raises(DetectionError) as info:
                detect_series(cys, unit_fm, cfg, pass_indices=range(101, 122))
        [[total]] = totals
        assert abs(total - 1.0) > 1e-8
        assert str(info.value) == f"pass 121: density integrates to {float(total)!r}, not 1"


def first_alarm_of(cys, fm, cfg):
    """detect_series's first event as (pass, cp), (0, 0.0) without one, or
    the message of the error it raises at or before that event."""
    for stop in range(1, len(cys) + 1):
        try:
            _, events = detect_series(cys[:stop], fm, cfg)
        except DetectionError as exc:
            return str(exc)
        if events:
            return events[0].pass_index, events[0].changepoint_probability
    return 0, 0.0


def assert_first_alarms_match(block, fm, cfg):
    expected = [first_alarm_of(row, fm, cfg) for row in block]
    failed = [i for i, e in enumerate(expected) if isinstance(e, str)]
    if failed:
        with pytest.raises(DetectionError) as info:
            first_alarms(np.array(block), fm, cfg)
        assert info.value.instance == failed[0]
        assert str(info.value) == expected[failed[0]]
    else:
        passes, cps = first_alarms(np.array(block), fm, cfg)
        assert list(zip(passes.tolist(), cps.tolist())) == expected


class TestFirstAlarms:
    def test_mixed_block_split_across_batches(self, exp4):
        # The block's streams leave the lockstep batch at different passes,
        # and some never do.
        exp, fm, cfg = exp4
        block = synthesize_batch(exp, 2.2, 12, master_seed=7)
        passes, _ = first_alarms(block, fm, cfg)
        assert {13, 24, 0} <= set(passes.tolist())
        assert_first_alarms_match(block, fm, cfg)

    def test_lowest_failing_instance_is_reported(self, unit_fm):
        cfg = make_config(sigma_e_initial=1e-3)
        block = [
            [2.0] * 6,
            [2.0, 2.0, 2.0, 2.0, 500.0, 2.0],
            [2.0, 500.0, 2.0, 2.0, 2.0, 2.0],
        ]
        with pytest.raises(DetectionError, match=r"^pass 5: ") as info:
            first_alarms(np.array(block), unit_fm, cfg)
        assert info.value.instance == 1
        assert_first_alarms_match(block, unit_fm, cfg)

    def test_failure_after_first_alarm_is_never_processed(self, unit_fm):
        # Pass 3 raises an alarm; pass 4 is impossible under the widened
        # post-alarm noise, so detect_series fails there.
        stream = [1.0, 1.0, 3.0, 500.0]
        cfg = make_config(sigma_e_initial=0.03)
        with pytest.raises(DetectionError, match=r"pass 4"):
            detect_series(stream, unit_fm, cfg)
        passes, cps = first_alarms(np.array([stream, [1.0] * 4]), unit_fm, cfg)
        assert passes.tolist() == [3, 0]
        assert cps.tolist() == [1.0, 0.0]

    def test_window_rows_beside_another_stream_keep_their_bits(self):
        # From pass 2 on the rows are narrower than 1.5 dq and take the
        # windowed sum, here in one call with the zero stream's rows. A
        # window sized by the widest row of the call gave cp ...418 at
        # pass 3, one ulp from detect_series's ...419.
        cfg = make_config(sigma_e_initial=0.1, grid=QGrid(0.0, 5.0, 0.05))
        block = [[0.0] * 4, [3.4416821976637535, 3.78922644350765, 2.75, 0.0]]
        assert_first_alarms_match(block, ForwardModel(1.0, 1.0), cfg)

    def test_stationary_streams_do_not_alarm(self, unit_fm):
        # Twenty 300-pass streams of N(2, 0.05^2) through the unit map hold
        # one rate, so any alarm is false. A predictive that read each row
        # at q* = c / r, the sigma_e -> 0 limit of the exact one, alarmed
        # on all twenty, the last at pass 63.
        cys = np.array([np.random.default_rng(seed).normal(2.0, 0.05, 300) for seed in range(20)])
        cfg = make_config(sigma_e_initial=0.05, grid=QGrid(0.0, 7.0, 0.005))
        passes, _ = first_alarms(cys, unit_fm, cfg)
        assert passes.tolist() == [0] * 20

    def test_rejected_configuration_fails_the_first_stream(self):
        # r / sigma_e = 1e300: the rate precision overflows on every stream.
        fm = ForwardModel(advection_velocity_mps=1e-200, dispersion_factor_per_m=1e100)
        cfg = make_config(sigma_e_initial=1e-100, grid=QGrid(0.0, 5.0, 0.05))
        assert_first_alarms_match([[1.0, 2.0], [1.0, 2.0]], fm, cfg)

    def test_bad_blocks_rejected(self, unit_fm):
        with pytest.raises(ValueError):
            first_alarms(np.array([1.0, 2.0]), unit_fm, make_config())
        with pytest.raises(ValueError):
            first_alarms(np.array([[1.0, -2.0]]), unit_fm, make_config())


@settings(max_examples=80, deadline=None)
@given(
    block=st.integers(1, 10).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(0.0, 4.9), min_size=n, max_size=n), min_size=1, max_size=3
        )
    ),
    sigma_e=st.sampled_from([0.02, 0.1, 0.4]),
)
def test_first_alarms_match_detect_series(block, sigma_e):
    cfg = make_config(sigma_e_initial=sigma_e, grid=QGrid(0.0, 5.0, 0.05))
    assert_first_alarms_match(block, ForwardModel(1.0, 1.0), cfg)


def detect_outcome(detect, cys, fm, cfg):
    """Reports and events, each event with its row's bytes, or the error text."""
    try:
        reports, events = detect(cys, fm, cfg)
    except DetectionError as exc:
        return str(exc)
    rows = [retained_density(e, cfg.grid).tobytes() for e in events]
    return reports, events, rows


def alarms_outcome(first, block, fm, cfg):
    try:
        passes, cps = first(np.array(block), fm, cfg)
    except DetectionError as exc:
        return str(exc), exc.instance
    return passes.tolist(), cps.tolist()


# A block's fold and the one-pass recursion agree on changepoint
# probabilities to this much, absolute.
CP_TOLERANCE = 1e-12
# A report's mean and std, from the closed form on interior rows, agree with
# the step oracle's grid sums to this much, relative. All else is equal.
MOMENT_RTOL = 1e-12


def without(items, names):
    """Reports or events with the named fields set to 0, and those fields'
    values, a list per field."""
    return (
        [dataclasses.replace(x, **dict.fromkeys(names, 0.0)) for x in items],
        [[getattr(x, name) for x in items] for name in names],
    )


def assert_same_outcome(got, expected):
    """``detect_outcome`` results agree: error text, pass indices, cy, mode
    and event row bytes equal, changepoint probabilities to
    ``CP_TOLERANCE`` and report means and stds to ``MOMENT_RTOL``."""
    if isinstance(got, str) or isinstance(expected, str):
        assert got == expected
        return
    fields = [
        ["changepoint_probability", "mean_g_per_s", "std_g_per_s"],
        ["changepoint_probability"],
    ]
    for ours, theirs, names in zip(got[:2], expected[:2], fields):
        (ours, ours_values), (theirs, theirs_values) = without(ours, names), without(theirs, names)
        assert ours == theirs
        (ours_cp, *ours_moments), (theirs_cp, *theirs_moments) = ours_values, theirs_values
        np.testing.assert_allclose(ours_cp, theirs_cp, rtol=0, atol=CP_TOLERANCE)
        np.testing.assert_allclose(ours_moments, theirs_moments, rtol=MOMENT_RTOL, atol=0)
    assert got[2] == expected[2]


def assert_same_alarms(got, expected):
    """``alarms_outcome`` results agree: passes, error text and failing
    instance equal, changepoint probabilities to ``CP_TOLERANCE``."""
    if isinstance(got[0], str) or isinstance(expected[0], str):
        assert got == expected
        return
    assert got[0] == expected[0]
    np.testing.assert_allclose(got[1], expected[1], rtol=0, atol=CP_TOLERANCE)


def assert_steps_as_one_pass_at_a_time(cys, fm, cfg, block=None):
    """``detect_series`` and ``first_alarms`` give what one pass at a time
    through the step oracle gives."""
    got = detect_outcome(detect_series, cys, fm, cfg)
    assert_same_outcome(got, detect_outcome(step_oracle_detect, cys, fm, cfg))
    if block is not None:
        assert_same_alarms(
            alarms_outcome(first_alarms, block, fm, cfg),
            alarms_outcome(step_oracle_first_alarms, block, fm, cfg),
        )
    return got


# Stream lengths up to 50 passes, and each event at every pass of them, so
# at every offset within a block: one stream takes blocks of 8, 8, 16 and
# 18 passes.
LONGEST = 6 * PASS_BLOCK + 2


class TestBlockStep:
    @pytest.mark.parametrize("at", range(2, LONGEST + 1))
    def test_alarm_at_every_pass(self, unit_fm, at):
        cys = [1.0] * (at - 1) + [3.0] * (LONGEST - at + 1)
        cfg = make_config(sigma_e_initial=0.03)
        block = [cys, [1.0] * LONGEST, cys[::-1]]
        _, events, _ = assert_steps_as_one_pass_at_a_time(cys, unit_fm, cfg, block)
        assert events[0].pass_index == at

    @pytest.mark.parametrize("at", range(1, LONGEST + 1))
    def test_impossible_measurement_at_every_pass(self, unit_fm, at):
        cys = [1.0] * LONGEST
        cys[at - 1] = 1e3
        cfg = make_config(sigma_e_initial=0.03)
        block = [[1.0] * LONGEST, cys]
        got = assert_steps_as_one_pass_at_a_time(cys, unit_fm, cfg, block)
        assert got == f"pass {at}: observation impossible under all run-length hypotheses"

    @pytest.mark.parametrize(
        "cys, precision, at",
        [
            # The prefix sum of b passes the float range at pass 2, A does not.
            ([4.99] * 12, 3e307, 2),
            ([2.0] * 12, 5e307, 2),
            ([4.99] * 3, 3e307, 2),
            # A passes it at pass 4, the prefix sum does not.
            ([0.5] * 12, 5e307, 4),
            # Rows about 1e-154 wide: a predictive at pass 4 passes the
            # float range.
            ([1.0] * 12, 2.0**1021, 4),
        ],
    )
    def test_terms_past_the_float_range_fail_their_pass(self, unit_fm, cys, precision, at):
        # A full-run row past the float range fails the pass into it, with
        # no warning, in both drivers; its NaN mode used to be cast to a
        # grid index later in the block.
        cfg = make_config(threshold=0.999999999, sigma_e_initial=1 / math.sqrt(precision))
        message = f"^pass {at}: observation impossible under all run-length hypotheses$"
        with pytest.raises(DetectionError, match=message):
            detect_series(cys, unit_fm, cfg)
        with pytest.raises(DetectionError, match=message):
            first_alarms(np.array([cys]), unit_fm, cfg)

    @pytest.mark.parametrize("at", range(1, LONGEST + 1))
    def test_top_of_grid_overflow_at_every_pass(self, unit_fm, at):
        # The full-run row at q_max has precision at / sigma_e^2 = 570000
        # at pass ``at``, past the float range, and less before it.
        cfg = make_config(sigma_e_initial=(at / 570_000) ** 0.5, grid=QGrid(0.0, 5.0, 0.05))
        cys = [5.0] * LONGEST
        got = assert_steps_as_one_pass_at_a_time(cys, unit_fm, cfg, [cys, cys])
        assert got == f"pass {at}: rate posterior density overflows at the top of the grid"

    @pytest.mark.parametrize("at", range(1, LONGEST + 1))
    def test_rejected_pass_inside_a_block(self, unit_fm, at):
        # A negative measurement fails its own pass, not the block's first,
        # unless a pass before it has failed; an alarm before it does not
        # keep the stream from reaching it.
        cfg = make_config(sigma_e_initial=0.03)
        cys = [1.0] * LONGEST
        cys[at - 1] = -1.0
        got = assert_steps_as_one_pass_at_a_time(cys, unit_fm, cfg)
        assert got == f"pass {at}: integrated concentration must be non-negative"
        if at + 2 <= LONGEST:
            impossible = [1.0] * LONGEST
            impossible[at - 1], impossible[at + 1] = 1e3, -1.0
            got = assert_steps_as_one_pass_at_a_time(impossible, unit_fm, cfg)
            assert got == f"pass {at}: observation impossible under all run-length hypotheses"
        if at > 2:
            # Pass 2 alarms and resets the state, and the blocks after it
            # start from pass 3.
            reset = [1.0] + [3.0] * (LONGEST - 1)
            assert [e.pass_index for e in detect_series(reset[: at - 1], unit_fm, cfg)[1]] == [2]
            reset[at - 1] = -1.0
            got = assert_steps_as_one_pass_at_a_time(reset, unit_fm, cfg)
            assert got == f"pass {at}: integrated concentration must be non-negative"

    @pytest.mark.parametrize("sigma_e", [0.03, 0.1])
    def test_far_pass_fails_at_itself(self, sigma_e):
        # Pass 4 is so far above the grid that every predictive is 0. The
        # fold is causal, so it fails at pass 4 and leaves the passes before
        # it with the bits they have without it. first_alarms stops the
        # stream at its alarm at pass 2, before the far pass.
        fm = ForwardModel(1.0, 0.9)
        cfg = make_config(sigma_e_initial=sigma_e)
        cys = [0.0, 1.0, 0.0, 1000.0]
        got = assert_steps_as_one_pass_at_a_time(cys, fm, cfg, [cys, [0.0] * 4])
        assert got == "pass 4: observation impossible under all run-length hypotheses"
        assert first_alarms(np.array([cys]), fm, cfg)[0].tolist() == [2]

        def advance(block):
            state = RunLengthState(1, len(block), cfg.grid, fm, LikelihoodConfig(sigma_e))
            return state.advance(np.array([block]), cfg.lam, math.inf)

        steps, before = advance(cys), advance(cys[:3])
        assert steps.done.tolist() == [4]
        assert steps.errors == {0: "observation impossible under all run-length hypotheses"}
        assert np.array_equal(steps.cp[0, :3], before.cp[0])

    def test_fine_noise_takes_the_window_path(self, unit_fm):
        # Rows narrower than 1.5 dq take the exact windowed sum, a block's
        # rows in one call: the reports still equal the one-pass step's.
        cys = 2.0 + np.random.default_rng(60).normal(0.0, 0.004, 60)
        cfg = make_config(sigma_e_initial=0.004, grid=QGrid(0.0, 5.0, 0.05))
        with (
            mock.patch.object(bocd, "log_mass_by_count", wraps=bocd.log_mass_by_count) as blocks,
            mock.patch.object(
                inference, "window_log_mass", wraps=inference.window_log_mass
            ) as window,
        ):
            detect_series(cys, unit_fm, cfg)
        # Each block's one log Z call sends rows to the window path.
        assert window.call_count == blocks.call_count > 0
        reports, events, _ = assert_steps_as_one_pass_at_a_time(cys, unit_fm, cfg)
        assert len(reports) == 60 and events == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lookahead_after_an_alarm_never_fails(self, unit_fm):
        # Stream 0 alarms at pass 2 and reads 1e300 at pass 3, inside the
        # block that computes passes 1 to 8 together; stream 1 runs on.
        cfg = make_config(sigma_e_initial=0.03, threshold=0.5)
        alarmed = [1.0, 3.0, 1e300] + [1.0] * 5
        passes, cps = first_alarms(np.array([alarmed, [1.0] * 8]), unit_fm, cfg)
        assert passes.tolist() == [2, 0]
        assert cps[0] >= 0.5
        assert_same_alarms(
            alarms_outcome(first_alarms, [alarmed, [1.0] * 8], unit_fm, cfg),
            alarms_outcome(step_oracle_first_alarms, [alarmed, [1.0] * 8], unit_fm, cfg),
        )


# Few enough slots that blocks past the first shrink: one stream at k = 16
# takes 9 passes, not 16, and three streams keep to 8.
SMALL_SLOTS = 2**8


class TestSmallBlockStep(TestBlockStep):
    """The block step's cases again with ``BLOCK_SLOTS`` small."""

    @pytest.fixture(autouse=True)
    def small_blocks(self):
        with mock.patch.object(bocd, "BLOCK_SLOTS", SMALL_SLOTS):
            yield


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, LONGEST),
    sigma_e=st.sampled_from([0.0013, 0.004, 0.03, 0.1, 0.4]),
    threshold=st.sampled_from([0.3, 0.8, 0.99]),
    grid=st.sampled_from([QGrid(0.0, 5.0, 0.05), QGrid(0.0, 5.0, 0.01)]),
    slots=st.sampled_from([bocd.BLOCK_SLOTS, SMALL_SLOTS]),
)
def test_block_step_equals_one_pass_at_a_time(data, n, sigma_e, threshold, grid, slots):
    """Reports, events and error text (pass index included) of
    ``detect_series``, and the passes, changepoint probabilities and failing
    instance of ``first_alarms``, equal a pass-at-a-time loop over the step
    oracle, with alarms, impossible passes and rows at q_max anywhere in a
    block, forward ratios of 0 and near 1, and blocks that grow with the
    run or shrink to fit ``slots``."""
    cy = st.one_of(
        st.floats(0.0, 4.9), st.sampled_from([0.0, 5.0, 5.3, 1e3, 1e300]), st.floats(0.0, 6.0)
    )
    cys = data.draw(st.lists(cy, min_size=n, max_size=n), label="cys")
    fm = ForwardModel(1.0, data.draw(st.sampled_from([0.0, 0.9, 1.0, 1.1]), label="ratio"))
    cfg = make_config(sigma_e_initial=sigma_e, threshold=threshold, grid=grid)
    block = data.draw(
        st.lists(st.lists(cy, min_size=n, max_size=n), min_size=1, max_size=3), label="block"
    )
    with mock.patch.object(bocd, "BLOCK_SLOTS", slots):
        assert_steps_as_one_pass_at_a_time(cys, fm, cfg)
        assert_steps_as_one_pass_at_a_time(cys, ForwardModel(1.0, 1.0), cfg, block)


def advance_calls(run):
    """(k before, passes given, any alarm) of each ``RunLengthState.advance``
    call that ``run()`` makes."""
    calls = []
    real = RunLengthState.advance

    def advance(state, cys, *args):
        k = state.k
        steps = real(state, cys, *args)
        calls.append((k, cys.shape[1], bool(steps.alarm.any())))
        return steps

    with mock.patch.object(RunLengthState, "advance", advance):
        run()
    return calls


class TestBlockSizes:
    def test_stationary_stream_takes_few_calls(self, unit_fm):
        cys = np.random.default_rng(448).normal(2.0, 0.03, 448)
        cfg = make_config(sigma_e_initial=0.03)
        calls = advance_calls(lambda: detect_series(cys, unit_fm, cfg))
        assert not any(alarm for _, _, alarm in calls)
        assert [n for _, n, _ in calls] == [8, 8, 16, 32, 64, 78, 61, 51, 45, 40, 37, 8]

    def test_block_after_an_alarm_is_the_minimum(self, unit_fm):
        cys = [1.0] * 100 + [3.0] * 40
        cfg = make_config(sigma_e_initial=0.03)
        calls = advance_calls(lambda: detect_series(cys, unit_fm, cfg))
        at = next(i for i, (_, _, alarm) in enumerate(calls) if alarm)
        assert calls[at][1] > PASS_BLOCK
        assert calls[at + 1][:2] == (0, PASS_BLOCK)

    def test_lockstep_blocks_shrink_with_the_streams(self, unit_fm):
        # 1000 streams stay at the minimum; a few grow their blocks.
        cfg = make_config(sigma_e_initial=0.03)
        for streams, sizes in [(1000, [8] * 5), (3, [8, 8, 16, 8])]:
            calls = advance_calls(lambda: first_alarms(np.ones((streams, 40)), unit_fm, cfg))
            assert [n for _, n, _ in calls] == sizes


def test_threads_at_once_give_the_bytes_of_each_alone(unit_fm):
    # Each thread keeps its own block arrays: detect_series on a stream with
    # an alarm and first_alarms on a block of streams, run in more threads
    # than cores at once, with a short switch interval, several times over,
    # give the bytes each gives alone.
    rng = np.random.default_rng(31)
    stream = np.concatenate([rng.normal(1.0, 0.05, 150), rng.normal(2.5, 0.05, 150)])
    block = rng.normal(2.0, 0.1, (30, 40))
    block[::2, 25:] *= 1.5
    runs = [
        lambda: repr(detect_series(stream, unit_fm, make_config(sigma_e_initial=0.05))).encode(),
        lambda: b"".join(
            a.tobytes() for a in first_alarms(block, unit_fm, make_config(sigma_e_initial=0.1))
        ),
    ]
    alone = [run() for run in runs]
    assert b"DetectionEvent" in alone[0]
    n_threads = min((os.cpu_count() or 2) + 1, 9)
    start = threading.Barrier(n_threads)
    got = [[] for _ in range(n_threads)]

    def repeat(i):
        start.wait()
        for _ in range(4):
            got[i].append(runs[i % 2]())

    threads = [threading.Thread(target=repeat, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[alone[i % 2]] * 4 for i in range(n_threads)]
