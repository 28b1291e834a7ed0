import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bayes_update,
    direct_posterior,
    grid_moments,
    step_oracle_detect,
    step_oracle_first_alarms,
)
from plumecpd.bocd import PASS_BLOCK
from plumecpd.detector import (
    DetectionEvent,
    DetectorConfig,
    PassReport,
    detect_series,
    first_alarms,
)
from plumecpd.errors import ConfigError, DetectionError
from plumecpd.inference import (
    MIN_SIGMA_E,
    LikelihoodConfig,
    QGrid,
    grid_integrate,
    uniform_prior,
)
from plumecpd.surrogate import make_unit_forward_experiment
from plumecpd.synthesis import synthesize_batch
from plumecpd.inference import estimate_sigma_e
from plumecpd.transport import ForwardModel
from stepping import run_core


def assert_same_posterior(density, expected):
    """Densities on one grid agree to 1e-9 relative, up to 1e-12 of the peak."""
    np.testing.assert_allclose(density, expected, rtol=1e-9, atol=1e-12 * np.max(expected))


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
        manual = direct_posterior(stream[: k - 1], grid.values, grid.dq, 1.0, cfg.sigma_e_initial)
        assert_same_posterior(events[0].pre_change_posterior.density, manual)

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

    def test_forward_model_count_mismatch(self, unit_fm):
        with pytest.raises(ValueError):
            detect_series([2.0, 2.0], [unit_fm] * 3, make_config())

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
        assert_same_posterior(events[0].pre_change_posterior.density, chain.density)

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
    method=st.sampled_from(["marginal", "scaling"]),
)
def test_reports_and_events_follow_plain_bayes_chain(cys, sigma_e, method):
    """Reports summarize the oracle's posterior of the passes since the
    last reset, and each event keeps that posterior as of the previous
    pass, all to 1e-9 relative."""
    fm = ForwardModel(1.0, 1.0)
    grid = QGrid(0.0, 5.0, 0.05)
    cfg = make_config(sigma_e_initial=sigma_e, grid=grid, predictive_method=method)
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
            assert_same_posterior(event.pre_change_posterior.density, before)
            segment = []
            sigma = sigma_e * cfg.sigma_e_post_factor


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
        block = np.stack([i.series for i in synthesize_batch(exp, 2.2, 12, master_seed=7)])
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


def detect_outcome(detect, cys, fms, cfg):
    """Reports and events, each event with its row's bytes, or the error text."""
    try:
        reports, events = detect(cys, fms, cfg)
    except DetectionError as exc:
        return str(exc)
    rows = [e.pre_change_posterior.density.tobytes() for e in events]
    return reports, events, rows


def alarms_outcome(first, block, fm, cfg):
    try:
        passes, cps = first(np.array(block), fm, cfg)
    except DetectionError as exc:
        return str(exc), exc.instance
    return passes.tolist(), cps.tolist()


def assert_steps_as_one_pass_at_a_time(cys, fms, cfg, block=None):
    """``detect_series`` and ``first_alarms`` give what one pass at a time
    through the step oracle gives, compared with ``==``."""
    got = detect_outcome(detect_series, cys, fms, cfg)
    assert got == detect_outcome(step_oracle_detect, cys, fms, cfg)
    if block is not None:
        fm = fms if isinstance(fms, ForwardModel) else fms[0]
        assert alarms_outcome(first_alarms, block, fm, cfg) == alarms_outcome(
            step_oracle_first_alarms, block, fm, cfg
        )
    return got


# Stream lengths up to three blocks and one pass, and each event at every
# pass of them, so at every offset within a block.
LONGEST = 3 * PASS_BLOCK + 1


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

    @pytest.mark.parametrize("at", range(1, LONGEST + 1))
    def test_top_of_grid_overflow_at_every_pass(self, unit_fm, at):
        # The full-run row at q_max has precision at / sigma_e^2 = 570000
        # at pass ``at``, past the float range, and less before it.
        cfg = make_config(sigma_e_initial=(at / 570_000) ** 0.5, grid=QGrid(0.0, 5.0, 0.05))
        cys = [5.0] * LONGEST
        got = assert_steps_as_one_pass_at_a_time(cys, unit_fm, cfg, [cys, cys])
        assert got == f"pass {at}: rate posterior density overflows at the top of the grid"

    @pytest.mark.parametrize("at", range(1, PASS_BLOCK + 2))
    def test_rejected_pass_inside_a_block(self, at):
        # A forward model whose ratio overflows the precision, or a negative
        # measurement, fails its own pass, not the block's first.
        fms = [ForwardModel(1.0, 1.0)] * (PASS_BLOCK + 2)
        cfg = make_config(sigma_e_initial=0.03)
        cys = [1.0] * len(fms)
        cys[at - 1] = -1.0
        got = assert_steps_as_one_pass_at_a_time(cys, fms, cfg)
        assert got == f"pass {at}: integrated concentration must be non-negative"
        fms = list(fms)
        fms[at - 1] = ForwardModel(1e-300, 1e10)
        got = assert_steps_as_one_pass_at_a_time([1.0] * len(fms), fms, cfg)
        assert got == f"pass {at}: forward ratio over sigma_e overflows the rate precision"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lookahead_after_an_alarm_never_fails(self, unit_fm):
        # Stream 0 alarms at pass 2 and reads 1e300 at pass 3, inside the
        # block that computes passes 1 to 8 together; stream 1 runs on.
        cfg = make_config(sigma_e_initial=0.03, threshold=0.5)
        alarmed = [1.0, 3.0, 1e300] + [1.0] * 5
        passes, cps = first_alarms(np.array([alarmed, [1.0] * 8]), unit_fm, cfg)
        assert passes.tolist() == [2, 0]
        assert cps[0] >= 0.5
        assert alarms_outcome(first_alarms, [alarmed, [1.0] * 8], unit_fm, cfg) == (
            alarms_outcome(step_oracle_first_alarms, [alarmed, [1.0] * 8], unit_fm, cfg)
        )


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, LONGEST),
    sigma_e=st.sampled_from([0.0013, 0.004, 0.03, 0.1, 0.4]),
    method=st.sampled_from(["marginal", "scaling"]),
    threshold=st.sampled_from([0.3, 0.8, 0.99]),
    grid=st.sampled_from([QGrid(0.0, 5.0, 0.05), QGrid(0.0, 5.0, 0.01)]),
)
def test_block_step_equals_one_pass_at_a_time(data, n, sigma_e, method, threshold, grid):
    """Reports, events and error text (pass index included) of
    ``detect_series``, and the passes, changepoint probabilities and failing
    instance of ``first_alarms``, equal a pass-at-a-time loop over the step
    oracle, with alarms, impossible passes and rows at q_max anywhere in a
    block and forward models that change from pass to pass."""
    cy = st.one_of(
        st.floats(0.0, 4.9), st.sampled_from([0.0, 5.0, 5.3, 1e3, 1e300]), st.floats(0.0, 6.0)
    )
    cys = data.draw(st.lists(cy, min_size=n, max_size=n), label="cys")
    ratios = data.draw(
        st.lists(st.sampled_from([0.9, 1.0, 1.1]), min_size=n, max_size=n), label="ratios"
    )
    fms = [ForwardModel(1.0, r) for r in ratios]
    cfg = make_config(
        sigma_e_initial=sigma_e, threshold=threshold, grid=grid, predictive_method=method
    )
    block = data.draw(
        st.lists(st.lists(cy, min_size=n, max_size=n), min_size=1, max_size=3), label="block"
    )
    assert_steps_as_one_pass_at_a_time(cys, fms, cfg)
    assert_steps_as_one_pass_at_a_time(cys, ForwardModel(1.0, 1.0), cfg, block)
