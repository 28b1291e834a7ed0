import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumecpd.detector import (
    DetectionEvent,
    DetectorConfig,
    PassReport,
    batch_size,
    detect_series,
    first_alarms,
)
from plumecpd.errors import DetectionError, MeasurementIncompatibleError
from plumecpd.inference import (
    LikelihoodConfig,
    QGrid,
    bayes_update,
    bayes_update_from_likelihood,
    grid_integrate,
    likelihood_vector,
    posterior_mean_std,
    posterior_mode,
    uniform_prior,
)
from plumecpd.surrogate import make_unit_forward_experiment
from plumecpd.synthesis import synthesize_batch
from plumecpd.inference import estimate_sigma_e
from plumecpd.transport import ForwardModel
from stepping import run_core


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

    def test_unknown_predictive_method_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            make_config(predictive_method="bogus")
        make_config(predictive_method="scaling")


@pytest.fixture(scope="module")
def exp4():
    exp, fm = make_unit_forward_experiment("4", 12, 0.35, 0.083)
    sigma_e = estimate_sigma_e(list(exp.cy_series), 0.083, fm)
    return exp, fm, make_config(sigma_e_initial=sigma_e)


class TestStepChangeDetection:
    def test_seeded_instance_triggers_right_after_change(self, exp4):
        exp, fm, cfg = exp4
        inst = synthesize_batch(exp, 4.0, 1, master_seed=7)[0]
        _, events = detect_series(inst.series, fm, cfg)
        assert [e.pass_index for e in events] == [13]
        assert events[0].changepoint_probability >= 0.8
        assert events[0].regime_index == 1

    def test_detection_within_two_passes_across_instances(self, exp4):
        exp, fm, cfg = exp4
        prompt = 0
        for inst in synthesize_batch(exp, 4.0, 100, master_seed=7):
            _, events = detect_series(inst.series, fm, cfg)
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
        lik_cfg = LikelihoodConfig(cfg.sigma_e_initial)
        manual = uniform_prior(grid)
        for cy in stream[: k - 1]:
            manual = bayes_update_from_likelihood(
                manual, likelihood_vector(cy, grid, unit_fm, lik_cfg)
            )
        assert np.array_equal(events[0].pre_change_posterior.density, manual.density)

    def test_report_after_event_uses_fresh_widened_prior(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        factor = 10.0
        cfg = make_config(sigma_e_initial=0.15, sigma_e_post_factor=factor, grid=grid)
        stream = [2.0, 2.1, 1.9, 2.05, 4.2, 4.1, 4.0]
        reports, events = detect_series(stream, unit_fm, cfg)
        assert len(events) == 1
        k = events[0].pass_index
        after = next(r for r in reports if r.pass_index == k + 1)
        post_cfg = LikelihoodConfig(cfg.sigma_e_initial * factor)
        fresh = bayes_update_from_likelihood(
            uniform_prior(grid),
            likelihood_vector(stream[k], grid, unit_fm, post_cfg),
        )
        mean, std = posterior_mean_std(fresh)
        assert after.mode_g_per_s == posterior_mode(fresh)
        assert after.mean_g_per_s == mean
        assert after.std_g_per_s == std

    def test_error_carries_pass_index(self, unit_fm):
        cfg = make_config(sigma_e_initial=1e-3)
        with pytest.raises(DetectionError, match=r"pass 3"):
            detect_series([2.0, 2.0, 500.0], unit_fm, cfg)

    def test_empty_stream_rejected(self, unit_fm):
        with pytest.raises(ValueError):
            detect_series([], unit_fm, make_config())

    def test_forward_model_count_mismatch(self, unit_fm):
        with pytest.raises(ValueError):
            detect_series([2.0, 2.0], [unit_fm] * 3, make_config())

    def test_run_detector_keeps_measurement_indices(self, unit_fm):
        reports, _ = detect_series(
            [2.0, 2.1, 1.9], unit_fm, make_config(), pass_indices=[3, 4, 7]
        )
        assert [r.pass_index for r in reports] == [3, 4, 7]


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
        assert (last.mode_g_per_s, last.mean_g_per_s, last.std_g_per_s) == (
            2.0,
            1.9999999999999996,
            0.021213203435540163,
        )

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
        assert np.array_equal(events[0].pre_change_posterior.density, chain.density)

    def test_subnormal_norm_takes_log_space_path(self, unit_fm):
        # The full-run row times the third likelihood integrates to a
        # subnormal number; dividing by it would leave a row that
        # integrates to 0.97.
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


@settings(max_examples=80, deadline=None)
@given(
    cys=st.lists(st.floats(0.0, 4.9), min_size=1, max_size=10),
    sigma_e=st.sampled_from([0.02, 0.1, 0.4]),
    method=st.sampled_from(["marginal", "scaling"]),
)
def test_reports_and_events_follow_plain_bayes_chain(cys, sigma_e, method):
    """Reports summarize the plain bayes_update chain since the last reset,
    and each event keeps that chain as of the previous pass."""
    fm = ForwardModel(1.0, 1.0)
    cfg = make_config(
        sigma_e_initial=sigma_e, grid=QGrid(0.0, 5.0, 0.05), predictive_method=method
    )
    try:
        reports, events = detect_series(cys, fm, cfg)
    except DetectionError:
        return
    alarms = {e.pass_index: e for e in events}
    chain = uniform_prior(cfg.grid)
    lik_cfg = LikelihoodConfig(sigma_e)
    for report, cy in zip(reports, cys):
        event = alarms.get(report.pass_index)
        try:
            updated = bayes_update(chain, cy, fm, lik_cfg)
        except MeasurementIncompatibleError:
            if event is None:
                return
        else:
            mean, std = posterior_mean_std(updated)
            assert report.mode_g_per_s == posterior_mode(updated)
            assert report.mean_g_per_s == mean
            assert report.std_g_per_s == std
        if event is None:
            chain = updated
        else:
            assert np.array_equal(event.pre_change_posterior.density, chain.density)
            chain = uniform_prior(cfg.grid)
            lik_cfg = LikelihoodConfig(sigma_e * cfg.sigma_e_post_factor)


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
        exp, fm, cfg = exp4
        block = np.stack([i.series for i in synthesize_batch(exp, 2.2, 12, master_seed=7)])
        assert len(block) % batch_size(block.shape[1], cfg.grid.n_points) != 0
        passes, _ = first_alarms(block, fm, cfg)
        assert {13, 24, 0} <= set(passes.tolist())
        assert_first_alarms_match(block, fm, cfg)

    def test_batch_size_follows_stream_length_and_grid(self):
        assert batch_size(28, 1001) == 4
        assert batch_size(28, 101) == 44
        assert batch_size(10_000, 1001) == 1

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

    def test_rejected_configuration_fails_the_first_stream(self):
        cfg = make_config(predictive_method="scaling")
        assert_first_alarms_match([[1.0, 2.0], [1.0, 2.0]], ForwardModel(1.0, 0.0), cfg)

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
    method=st.sampled_from(["marginal", "scaling"]),
)
def test_first_alarms_match_detect_series(block, sigma_e, method):
    cfg = make_config(
        sigma_e_initial=sigma_e, grid=QGrid(0.0, 5.0, 0.05), predictive_method=method
    )
    assert_first_alarms_match(block, ForwardModel(1.0, 1.0), cfg)
