import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import OutcomeLabel, classify_outcome, compute_metrics, label_first_alarms
from plumecpd import metrics
from plumecpd.detector import DetectorConfig
from plumecpd.errors import DetectionError
from plumecpd.inference import QGrid
from plumecpd.metrics import bootstrap_ci, evaluate_cell, score_first_alarms
from plumecpd.surrogate import make_unit_forward_experiment


def _alarms(n, tp=0, dtp=0, fn=0, fp=0):
    """First alarms of a 2n-pass batch: TPs at n + 1, DTPs at n + 2, FPs
    at n and FNs at 0."""
    return np.array([n + 1] * tp + [n + 2] * dtp + [0] * fn + [n] * fp)


class TestClassifyOutcome:
    """The label rules on the first alarm of a 24-pass stream whose change
    follows pass 12; the multi-event cases pin the reference labeler."""

    def test_event_right_after_change_is_tp(self):
        assert score_first_alarms([13], 12) == (1.0, 1.0, 0.0, 1.0)

    def test_late_first_event_is_dtp(self):
        assert score_first_alarms([15], 12) == (0.0, 1.0, 0.0, 3.0)

    def test_premature_event_is_fp_even_with_later_hit(self):
        assert classify_outcome([9, 13], 12, 24) is OutcomeLabel.FP

    def test_no_events_is_fn(self):
        assert score_first_alarms([0], 12) == (0.0, 0.0, 0.0, None)

    def test_event_exactly_at_change_is_fp(self):
        assert score_first_alarms([12, 0], 12) == (0.0, 0.0, 0.5, None)

    def test_trailing_events_ignored_after_first(self):
        assert classify_outcome([13, 20, 24], 12, 24) is OutcomeLabel.TP

    @pytest.mark.parametrize("true_cp", [0, 24, 30])
    def test_change_must_lie_inside_stream(self, true_cp):
        with pytest.raises(ValueError):
            classify_outcome([13], true_cp, 24)

    @pytest.mark.parametrize("pass_index", [0, -1, 25])
    def test_event_must_lie_inside_stream(self, pass_index):
        with pytest.raises(ValueError):
            classify_outcome([pass_index], 12, 24)

    @pytest.mark.parametrize("pass_index", [-1, 25])
    def test_alarm_must_lie_inside_stream(self, pass_index):
        with pytest.raises(ValueError, match="outside the stream"):
            score_first_alarms([13, pass_index], 12)


class TestComputeMetrics:
    def test_mixed_batch(self):
        assert score_first_alarms(_alarms(12, tp=700, dtp=200, fn=100), 12) == (
            0.7, 0.9, 0.0, None
        )

    def test_all_false_positives_is_undefined(self):
        with pytest.raises(ValueError, match="recall undefined"):
            score_first_alarms(_alarms(12, fp=1000), 12)

    def test_delay_with_full_detection(self):
        recall, detection_recall, _, delay = score_first_alarms([13, 13, 14, 16], 12)
        assert delay == 2.0
        assert recall == 0.5
        assert detection_recall == 1.0

    def test_fp_count_feeds_rate_only(self):
        recall, _, fpr, _ = score_first_alarms(_alarms(12, tp=3, fn=1, fp=4), 12)
        assert recall == 3 / 4
        assert fpr == 4 / 8

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="no instances to score"):
            score_first_alarms(np.array([], dtype=int), 12)

    def test_delay_count_must_match_detected(self):
        with pytest.raises(ValueError):
            compute_metrics([OutcomeLabel.TP] * 2, delays=[1.0])

    def test_order_invariant(self):
        alarms = _alarms(12, tp=5, dtp=3, fn=2, fp=1)
        shuffled = np.random.default_rng(3).permutation(alarms)
        assert score_first_alarms(alarms, 12) == score_first_alarms(shuffled, 12)

    def test_recall_never_exceeds_detection_recall(self):
        for tp, dtp, fn in [(1, 0, 0), (3, 4, 2), (0, 5, 5), (0, 0, 7)]:
            recall, detection_recall, _, _ = score_first_alarms(_alarms(12, tp, dtp, fn), 12)
            assert 0.0 <= recall <= detection_recall <= 1.0


@st.composite
def alarm_batches(draw):
    n = draw(st.integers(1, 30))
    return draw(st.lists(st.integers(0, 2 * n), max_size=60)), n


@settings(max_examples=300, deadline=None)
@given(alarm_batches())
def test_score_first_alarms_matches_label_oracle(batch):
    """Any alarms over [0, 2N] score exactly as one label per instance
    counted by the reference ``compute_metrics``, or both raise alike."""
    alarms, n = batch
    alarms = np.array(alarms, dtype=int)
    try:
        want = label_first_alarms(alarms, n)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            score_first_alarms(alarms, n)
        return
    assert score_first_alarms(alarms, n) == (
        want.recall, want.detection_recall, want.false_positive_rate, want.detection_delay
    )


class TestBootstrapCi:
    def test_constant_sample_collapses(self):
        assert bootstrap_ci([0.8] * 10) == (0.8, 0.8)

    def test_two_point_sample(self):
        lo, hi = bootstrap_ci([0.0, 1.0], rng=np.random.default_rng(1))
        assert 0.0 <= lo <= 0.5 <= hi <= 1.0

    def test_three_point_sample(self):
        values = [0.7, 0.8, 0.9]
        lo, hi = bootstrap_ci(values, rng=np.random.default_rng(0))
        assert lo <= 0.8 <= hi
        # resampled means can undershoot min(values) by one rounding ulp
        assert min(values) - 1e-12 <= lo <= hi <= max(values) + 1e-12
        assert hi - lo <= 0.2 + 1e-9

    def test_bounds_stay_within_data_range(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0.2, 0.9, size=30)
        lo, hi = bootstrap_ci(values, rng=np.random.default_rng(4), n_boot=2000)
        assert values.min() <= lo <= hi <= values.max()

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])


class TestEvaluateCell:
    def _setup(self, cv, q_true=2.0, n=12, exp_id="m1"):
        exp, fm = make_unit_forward_experiment(exp_id, n, cv, q_true)
        sigma_e = cv * q_true
        return exp, fm, sigma_e

    def test_smoke_report_is_well_formed(self):
        exp, fm, sigma_e = self._setup(0.4, q_true=0.5)
        cfg = DetectorConfig(threshold=0.8, sigma_e_initial=sigma_e)
        report = evaluate_cell(
            exp, 3.0, cfg, n_instances=10, n_repetitions=3, master_seed=1, fm=fm, n_boot=200
        )
        for rate in (report.recall, report.detection_recall, report.false_positive_rate):
            assert 0.0 <= rate <= 1.0
        assert report.recall <= report.detection_recall
        assert report.recall_ci is not None
        assert report.detection_recall_ci is not None
        assert report.false_positive_rate_ci is not None

    def test_no_change_cell_stays_quiet(self):
        exp, fm, sigma_e = self._setup(0.3)
        cfg = DetectorConfig(threshold=0.8, sigma_e_initial=sigma_e)
        report = evaluate_cell(
            exp, 1.0, cfg, n_instances=50, n_repetitions=2, master_seed=2, fm=fm, n_boot=200
        )
        assert report.recall <= 0.05
        assert report.false_positive_rate <= 0.05

    def test_large_jump_always_detected(self):
        exp, fm, sigma_e = self._setup(0.4, q_true=0.3)
        cfg = DetectorConfig(threshold=0.8, sigma_e_initial=sigma_e)
        report = evaluate_cell(
            exp, 7.5, cfg, n_instances=50, n_repetitions=2, master_seed=3, fm=fm, n_boot=200
        )
        assert report.detection_recall == 1.0
        assert report.detection_delay is not None
        assert report.detection_delay >= 1.0

    def test_deterministic_given_seed(self):
        exp, fm, sigma_e = self._setup(0.4, q_true=0.5)
        cfg = DetectorConfig(threshold=0.8, sigma_e_initial=sigma_e)
        kwargs = dict(n_instances=8, n_repetitions=2, master_seed=5, fm=fm, n_boot=100)
        assert evaluate_cell(exp, 2.5, cfg, **kwargs) == evaluate_cell(exp, 2.5, cfg, **kwargs)

    def test_repetition_of_only_false_positives_leaves_no_recall(self):
        # Repetition 0 has every instance alarm before its change: it
        # counts fpr 1, and the cell has no recall. Its fpr averages the
        # two repetitions.
        exp, fm, sigma_e = self._setup(0.4, n=12)
        cfg = DetectorConfig(threshold=0.8, sigma_e_initial=sigma_e)
        reps = [(np.array([3, 12]), None), (np.array([13, 5]), None)]
        with mock.patch.object(metrics, "first_alarms", side_effect=reps):
            report = evaluate_cell(exp, 3.0, cfg, fm, n_instances=2, n_repetitions=2, n_boot=50)
        assert report.false_positive_rate == 0.75
        assert 0.5 <= report.false_positive_rate_ci[0] <= report.false_positive_rate_ci[1] <= 1.0
        assert report.recall is report.recall_ci is None
        assert report.detection_recall is report.detection_recall_ci is None
        assert report.detection_delay is None

    def test_error_reports_cell_coordinates(self):
        exp, fm, _ = self._setup(0.3, exp_id="bad")
        cfg = DetectorConfig(
            threshold=0.8, sigma_e_initial=1e-6, grid=QGrid(0.0, 5.0, 0.005)
        )
        with pytest.raises(DetectionError, match=r"experiment 'bad' lrr 4.0 repetition 0 instance"):
            evaluate_cell(exp, 4.0, cfg, n_instances=2, n_repetitions=1, master_seed=0, fm=fm)

    def test_fpr_monotone_in_threshold(self):
        exp, fm, sigma_e = self._setup(0.6)
        rates = []
        for threshold in (0.5, 0.65, 0.8, 0.95):
            cfg = DetectorConfig(threshold=threshold, sigma_e_initial=sigma_e)
            report = evaluate_cell(
                exp, 1.0, cfg, n_instances=120, n_repetitions=1, master_seed=11, fm=fm, n_boot=50
            )
            rates.append(report.false_positive_rate)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
