import numpy as np
import pytest

from plumecpd.detector import DetectorConfig
from plumecpd.errors import DetectionError
from plumecpd.inference import QGrid
from plumecpd.metrics import (
    OutcomeLabel,
    bootstrap_ci,
    classify_outcome,
    compute_metrics,
    evaluate_cell,
)
from plumecpd.surrogate import make_unit_forward_experiment


class TestClassifyOutcome:
    def test_event_right_after_change_is_tp(self):
        assert classify_outcome([13], 12, 24) is OutcomeLabel.TP

    def test_late_first_event_is_dtp(self):
        assert classify_outcome([15], 12, 24) is OutcomeLabel.DTP

    def test_premature_event_is_fp_even_with_later_hit(self):
        assert classify_outcome([9, 13], 12, 24) is OutcomeLabel.FP

    def test_no_events_is_fn(self):
        assert classify_outcome([], 12, 24) is OutcomeLabel.FN

    def test_event_exactly_at_change_is_fp(self):
        assert classify_outcome([12], 12, 24) is OutcomeLabel.FP

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


class TestComputeMetrics:
    def _labels(self, tp=0, dtp=0, fn=0, fp=0):
        return (
            [OutcomeLabel.TP] * tp
            + [OutcomeLabel.DTP] * dtp
            + [OutcomeLabel.FN] * fn
            + [OutcomeLabel.FP] * fp
        )

    def test_mixed_batch(self):
        labels = self._labels(tp=700, dtp=200, fn=100)
        report = compute_metrics(labels, delays=[1.0] * 900)
        assert report.recall == pytest.approx(0.7)
        assert report.detection_recall == pytest.approx(0.9)
        assert report.false_positive_rate == 0.0
        assert report.detection_delay is None

    def test_all_false_positives_is_undefined(self):
        with pytest.raises(ValueError, match="recall undefined"):
            compute_metrics(self._labels(fp=1000))

    def test_delay_with_full_detection(self):
        labels = self._labels(tp=2, dtp=2)
        report = compute_metrics(labels, delays=[1, 1, 2, 4])
        assert report.detection_delay == pytest.approx(2.0)
        assert report.recall == pytest.approx(0.5)
        assert report.detection_recall == 1.0

    def test_fp_count_feeds_rate_only(self):
        labels = self._labels(tp=3, fn=1, fp=4)
        report = compute_metrics(labels, delays=[1, 1, 1])
        assert report.recall == pytest.approx(3 / 4)
        assert report.false_positive_rate == pytest.approx(4 / 8)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])

    def test_delay_count_must_match_detected(self):
        with pytest.raises(ValueError):
            compute_metrics(self._labels(tp=2), delays=[1.0])

    def test_order_invariant(self):
        labels = self._labels(tp=5, dtp=3, fn=2, fp=1)
        rng = np.random.default_rng(3)
        shuffled = list(rng.permutation(labels))
        a = compute_metrics(labels, delays=[1] * 8)
        b = compute_metrics(shuffled, delays=[1] * 8)
        assert a == b

    def test_recall_never_exceeds_detection_recall(self):
        for tp, dtp, fn in [(1, 0, 0), (3, 4, 2), (0, 5, 5), (0, 0, 7)]:
            report = compute_metrics(self._labels(tp=tp, dtp=dtp, fn=fn), delays=[1] * (tp + dtp))
            assert 0.0 <= report.recall <= report.detection_recall <= 1.0


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

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5])
    def test_bad_level_rejected(self, level):
        with pytest.raises(ValueError):
            bootstrap_ci([0.5, 0.6], level=level)


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
        assert report.tp + report.dtp + report.fn + report.fp == 30
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
        assert report.detection_delay_ci is not None

    def test_deterministic_given_seed(self):
        exp, fm, sigma_e = self._setup(0.4, q_true=0.5)
        cfg = DetectorConfig(threshold=0.8, sigma_e_initial=sigma_e)
        kwargs = dict(n_instances=8, n_repetitions=2, master_seed=5, fm=fm, n_boot=100)
        assert evaluate_cell(exp, 2.5, cfg, **kwargs) == evaluate_cell(exp, 2.5, cfg, **kwargs)

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
