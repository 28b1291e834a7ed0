import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumecpd.errors import InsufficientDataError
from plumecpd.surrogate import (
    make_surrogate_experiment,
    make_unit_forward_experiment,
    stratified_lognormal_series,
)
from plumecpd.synthesis import (
    ExperimentRecord,
    SynthesizedInstance,
    instance_rng,
    signal_stats,
    synthesize_batch,
    synthesize_instance,
)


def make_exp(series, experiment_id="e1"):
    return ExperimentRecord(experiment_id, 30.0, np.asarray(series, dtype=float))


class TestExperimentRecord:
    def test_requires_two_passes(self):
        with pytest.raises(InsufficientDataError):
            make_exp([1.0])

    def test_rejects_negative_concentrations(self):
        with pytest.raises(ValueError):
            make_exp([1.0, -0.2])

    def test_rejects_nonpositive_fetch(self):
        with pytest.raises(ValueError):
            ExperimentRecord("e1", 0.0, np.array([1.0, 2.0]))

    def test_series_is_frozen(self):
        exp = make_exp([1.0, 2.0])
        with pytest.raises(ValueError):
            exp.cy_series[0] = 5.0


class TestSynthesizeInstance:
    def test_identity_scaling_preserves_multiset(self):
        exp = make_exp([1.0, 2.0, 3.0])
        inst = synthesize_instance(exp, 1.0, instance_rng(0, "e1", 1.0, 0))
        assert sorted(inst.series[:3]) == [1.0, 2.0, 3.0]
        assert sorted(inst.series[3:]) == [1.0, 2.0, 3.0]

    def test_scaled_half_is_permutation_of_scaled_values(self):
        exp = make_exp([1.0, 2.0])
        inst = synthesize_instance(exp, 4.0, instance_rng(0, "e1", 4.0, 0))
        assert sorted(inst.series[:2]) == [1.0, 2.0]
        assert sorted(inst.series[2:]) == [4.0, 8.0]
        assert np.mean(inst.series[2:]) / np.mean(inst.series[:2]) == pytest.approx(4.0)

    def test_twelve_pass_experiment_doubles(self):
        exp = make_exp(np.linspace(0.5, 2.0, 12), experiment_id="4")
        inst = synthesize_instance(exp, 4.0, instance_rng(0, "4", 4.0, 0))
        assert inst.series.size == 24
        assert inst.true_cp_index == 12
        assert inst.lrr == 4.0

    def test_nonpositive_lrr_rejected(self):
        exp = make_exp([1.0, 2.0])
        with pytest.raises(ValueError):
            synthesize_instance(exp, 0.0, instance_rng(0, "e1", 0.0, 0))

    @pytest.mark.parametrize("lrr", [math.nan, math.inf])
    def test_non_finite_lrr_rejected(self, lrr):
        exp = make_exp([1.0, 2.0])
        with pytest.raises(ValueError):
            synthesize_instance(exp, lrr, instance_rng(0, "e1", lrr, 0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaled_pass_past_the_float_range_rejected(self):
        exp = make_exp([1.0, 1e308])
        with pytest.raises(ValueError, match="overflows"):
            synthesize_instance(exp, 2.0, instance_rng(0, "e1", 2.0, 0))

    def test_series_length_invariant_enforced(self):
        with pytest.raises(ValueError):
            SynthesizedInstance(series=np.ones(5), true_cp_index=3, lrr=2.0)

    @given(
        values=st.lists(st.floats(0.01, 50.0), min_size=2, max_size=16),
        lrr=st.floats(0.5, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_half_mean_ratio_equals_lrr(self, values, lrr, seed):
        exp = make_exp(values)
        inst = synthesize_instance(exp, lrr, instance_rng(seed, "e1", lrr, 0))
        n = exp.n_passes
        assert sorted(inst.series[:n]) == sorted(values)
        np.testing.assert_allclose(sorted(inst.series[n:]), sorted(np.array(values) * lrr))
        ratio = np.mean(inst.series[n:]) / np.mean(inst.series[:n])
        assert ratio == pytest.approx(lrr, rel=1e-9)


class TestSynthesizeBatch:
    def test_thousand_instances(self):
        exp = make_exp(np.linspace(0.5, 2.0, 12))
        batch = synthesize_batch(exp, 2.0, 1000, master_seed=3)
        assert len(batch) == 1000

    def test_same_seed_reproduces_batch(self):
        exp = make_exp(np.linspace(0.5, 2.0, 12))
        a = synthesize_batch(exp, 2.0, 20, master_seed=9)
        b = synthesize_batch(exp, 2.0, 20, master_seed=9)
        assert all(np.array_equal(x.series, y.series) for x, y in zip(a, b))

    def test_singleton_batch(self):
        exp = make_exp([1.0, 2.0, 3.0])
        assert len(synthesize_batch(exp, 2.0, 1, master_seed=0)) == 1

    def test_empty_batch_rejected(self):
        exp = make_exp([1.0, 2.0])
        with pytest.raises(ValueError):
            synthesize_batch(exp, 2.0, 0, master_seed=0)

    def test_start_index_slices_the_same_stream(self):
        exp = make_exp(np.linspace(0.5, 2.0, 12))
        whole = synthesize_batch(exp, 3.0, 10, master_seed=4)
        part = synthesize_batch(exp, 3.0, 4, master_seed=4, start_index=6)
        for x, y in zip(whole[6:], part):
            assert np.array_equal(x.series, y.series)

    def test_distinct_seeds_differ(self):
        exp = make_exp(np.linspace(0.5, 2.0, 12))
        differing = 0
        for seed in range(100):
            a = synthesize_batch(exp, 2.0, 1, master_seed=seed)[0]
            b = synthesize_batch(exp, 2.0, 1, master_seed=seed + 100)[0]
            if not np.array_equal(a.series, b.series):
                differing += 1
        assert differing == 100


class TestInstanceRng:
    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError):
            instance_rng(-1, "e1", 1.0, 0)

    def test_deterministic_stream(self):
        a = instance_rng(5, "e1", 2.0, 3).integers(0, 10**9, size=4)
        b = instance_rng(5, "e1", 2.0, 3).integers(0, 10**9, size=4)
        assert np.array_equal(a, b)

    def test_lrr_enters_via_bit_pattern(self):
        a = instance_rng(5, "e1", 2.0, 3).integers(0, 10**9, size=4)
        b = instance_rng(5, "e1", 2.0000000001, 3).integers(0, 10**9, size=4)
        assert not np.array_equal(a, b)


class TestSignalStats:
    def test_exact_cv_gives_exact_jnr(self):
        series = stratified_lognormal_series(12, 1.0, 0.5)
        stats = signal_stats(series, 4.0)
        assert stats.cv == pytest.approx(0.5, rel=1e-12)
        assert stats.jnr == pytest.approx(6.0, rel=1e-9)

    def test_hand_computed_sample(self):
        stats = signal_stats(np.array([1.0, 2.0, 3.0, 4.0]), 4.0)
        assert stats.mean == pytest.approx(2.5)
        assert stats.std == pytest.approx(1.2910, abs=5e-5)
        assert stats.cv == pytest.approx(0.5164, abs=5e-5)
        assert stats.value_range == pytest.approx(3.0)
        assert stats.jnr == pytest.approx(3.0 / stats.cv)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            signal_stats(np.array([2.0, 2.0, 2.0]), 4.0)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            signal_stats(np.array([0.0, 0.0]), 4.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("series", [[1.7e308, 1.7e308], [0.0, 1e155], [1e308, 1e308, 0.0]])
    def test_moments_past_the_float_range_rejected(self, series):
        with pytest.raises(ValueError, match="overflows"):
            signal_stats(np.array(series), 4.0)

    def test_too_short_series_rejected(self):
        with pytest.raises(InsufficientDataError):
            signal_stats(np.array([1.0]), 4.0)

    def test_jnr_from_instance_halves_matches_identity(self):
        series = stratified_lognormal_series(14, 2.0, 0.4)
        exp = make_exp(series)
        lrr = 3.5
        inst = synthesize_instance(exp, lrr, instance_rng(1, "e1", lrr, 0))
        n = exp.n_passes
        mu1 = float(np.mean(inst.series[:n]))
        mu2 = float(np.mean(inst.series[n:]))
        sigma1 = float(np.std(inst.series[:n], ddof=1))
        jnr_direct = (mu2 - mu1) / sigma1
        assert jnr_direct == pytest.approx(signal_stats(series, lrr).jnr, rel=1e-9)


class TestSurrogates:
    def test_exact_sample_statistics(self):
        series = stratified_lognormal_series(12, 0.35, 0.6)
        assert float(np.mean(series)) == pytest.approx(0.35, rel=1e-12)
        assert float(np.std(series, ddof=1) / np.mean(series)) == pytest.approx(0.6, rel=1e-12)
        assert np.all(series > 0)

    def test_series_is_skewed_like_a_lognormal(self):
        series = stratified_lognormal_series(15, 1.0, 0.5)
        assert np.median(series) < np.mean(series)

    def test_needs_two_passes(self):
        with pytest.raises(ValueError):
            stratified_lognormal_series(1, 1.0, 0.5)

    def test_extreme_cv_rejected(self):
        with pytest.raises(ValueError):
            stratified_lognormal_series(4, 1.0, 5.0)

    def test_unit_forward_experiment_centers_on_rate(self):
        exp, fm = make_unit_forward_experiment("u", 12, 0.5, 2.0)
        assert fm.advection_velocity_mps == 1.0
        assert fm.dispersion_factor_per_m == 1.0
        assert float(np.mean(exp.cy_series)) == pytest.approx(2.0, rel=1e-12)

    def test_surrogate_experiment_matches_forward_model(self):
        exp, fm = make_surrogate_experiment("s", 14, 0.4, 0.083, fetch_m=30.0)
        predicted = 0.083 * fm.dispersion_factor_per_m / fm.advection_velocity_mps
        assert float(np.mean(exp.cy_series)) == pytest.approx(predicted, rel=1e-12)
        assert exp.met is not None
        assert exp.n_passes == 14
