import math
import struct

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
from oracles import synthesize_instances
from plumecpd.synthesis import ExperimentRecord, instance_rng, signal_stats, synthesize_batch


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

    @pytest.mark.parametrize(
        "fetch, series, message",
        [
            (math.nan, [1.0, 2.0], "fetch must be positive and finite"),
            (math.inf, [1.0, 2.0], "fetch must be positive and finite"),
            (1.0, [math.nan, 1.0], "integrated concentrations must be finite"),
            (1.0, [1.0, math.inf], "integrated concentrations must be finite"),
        ],
    )
    def test_rejects_non_finite_values(self, fetch, series, message):
        with pytest.raises(ValueError, match=message):
            ExperimentRecord("e", fetch, series)

    def test_series_is_frozen(self):
        exp = make_exp([1.0, 2.0])
        with pytest.raises(ValueError):
            exp.cy_series[0] = 5.0


def one_instance(exp, lrr, seed=0):
    """Instance 0 of a batch, one row of ``synthesize_batch``."""
    return synthesize_batch(exp, lrr, 1, master_seed=seed)[0]


class TestSynthesizeInstance:
    def test_identity_scaling_preserves_multiset(self):
        exp = make_exp([1.0, 2.0, 3.0])
        series = one_instance(exp, 1.0)
        assert sorted(series[:3]) == [1.0, 2.0, 3.0]
        assert sorted(series[3:]) == [1.0, 2.0, 3.0]

    def test_scaled_half_is_permutation_of_scaled_values(self):
        exp = make_exp([1.0, 2.0])
        series = one_instance(exp, 4.0)
        assert sorted(series[:2]) == [1.0, 2.0]
        assert sorted(series[2:]) == [4.0, 8.0]
        assert np.mean(series[2:]) / np.mean(series[:2]) == pytest.approx(4.0)

    def test_twelve_pass_experiment_doubles(self):
        values = np.linspace(0.5, 2.0, 12)
        exp = make_exp(values, experiment_id="4")
        batch = synthesize_batch(exp, 4.0, 1, master_seed=0)
        assert batch.shape == (1, 24)
        assert sorted(batch[0, :12]) == sorted(values)
        assert sorted(batch[0, 12:]) == sorted(values * 4.0)

    def test_nonpositive_lrr_rejected(self):
        exp = make_exp([1.0, 2.0])
        with pytest.raises(ValueError):
            one_instance(exp, 0.0)

    @pytest.mark.parametrize("lrr", [math.nan, math.inf])
    def test_non_finite_lrr_rejected(self, lrr):
        exp = make_exp([1.0, 2.0])
        with pytest.raises(ValueError):
            one_instance(exp, lrr)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaled_pass_past_the_float_range_rejected(self):
        exp = make_exp([1.0, 1e308])
        with pytest.raises(ValueError, match="overflows"):
            one_instance(exp, 2.0)

    @given(
        values=st.lists(st.floats(0.01, 50.0), min_size=2, max_size=16),
        lrr=st.floats(0.5, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_half_mean_ratio_equals_lrr(self, values, lrr, seed):
        exp = make_exp(values)
        series = one_instance(exp, lrr, seed)
        n = exp.n_passes
        assert sorted(series[:n]) == sorted(values)
        np.testing.assert_allclose(sorted(series[n:]), sorted(np.array(values) * lrr))
        ratio = np.mean(series[n:]) / np.mean(series[:n])
        assert ratio == pytest.approx(lrr, rel=1e-9)


class TestSynthesizeBatch:
    def test_thousand_instances(self):
        exp = make_exp(np.linspace(0.5, 2.0, 12))
        batch = synthesize_batch(exp, 2.0, 1000, master_seed=3)
        assert batch.shape == (1000, 24)

    def test_same_seed_reproduces_batch(self):
        exp = make_exp(np.linspace(0.5, 2.0, 12))
        a = synthesize_batch(exp, 2.0, 20, master_seed=9)
        b = synthesize_batch(exp, 2.0, 20, master_seed=9)
        assert np.array_equal(a, b)

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
        assert np.array_equal(whole[6:], part)

    def test_distinct_seeds_differ(self):
        exp = make_exp(np.linspace(0.5, 2.0, 12))
        differing = 0
        for seed in range(100):
            a = synthesize_batch(exp, 2.0, 1, master_seed=seed)[0]
            b = synthesize_batch(exp, 2.0, 1, master_seed=seed + 100)[0]
            if not np.array_equal(a, b):
                differing += 1
        assert differing == 100

    @given(
        values=st.lists(
            st.floats(0.0, 1e6, allow_subnormal=True), min_size=2, max_size=20
        ),
        lrr=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**63),
        start=st.integers(0, 2**40),
        n_instances=st.integers(1, 8),
        experiment_id=st.text(max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_instances_built_one_at_a_time(
        self, values, lrr, seed, start, n_instances, experiment_id
    ):
        exp = make_exp(values, experiment_id)
        got = synthesize_batch(exp, lrr, n_instances, seed, start_index=start)
        expected = synthesize_instances(exp, lrr, n_instances, seed, start_index=start)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def numpy_rng(seed, experiment_id, lrr, i):
    """Instance i's generator, built by numpy's own SeedSequence and PCG64."""
    lrr_bits = struct.unpack("<Q", struct.pack("<d", lrr))[0]
    id_bits = int.from_bytes(experiment_id.encode("utf-8"), "little")
    entropy = np.random.SeedSequence([seed, id_bits, lrr_bits, i])
    return np.random.Generator(np.random.PCG64(entropy))


# Start indices on either side of 2^32 and 2^64, where the index takes one
# more 32-bit word, so that one batch may hold indices of two lengths.
START_INDICES = st.one_of(
    st.integers(0, 2**40),
    st.integers(2**32 - 6, 2**32 + 1),
    st.integers(2**64 - 6, 2**64 + 1),
    st.integers(0, 2**100),
)
EXPERIMENT_IDS = st.one_of(st.sampled_from(["", "E1", "\u00f1\u00e9\u6f22\u5b57", "a\x00"]), st.text(max_size=12))
# Subnormal lrr values from 5e-324 up: the smallest have bit patterns of one
# 32-bit word.
SUBNORMALS = st.integers(1, 2**52 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


class TestSeeding:
    """Every generator state is numpy's own, however it is derived."""

    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**130)),
        experiment_id=EXPERIMENT_IDS,
        lrr=st.one_of(st.sampled_from([5e-324, 1.0, 3.0]), SUBNORMALS, st.floats(1e-300, 1e300)),
        start=START_INDICES,
        n_instances=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_rows_equal_rows_from_numpys_seeding(
        self, seed, experiment_id, lrr, start, n_instances
    ):
        exp = make_exp([0.5, 1.0, 2.0, 4.0, 8.0], experiment_id)
        got = synthesize_batch(exp, lrr, n_instances, seed, start_index=start)
        series = exp.cy_series
        for row, i in zip(got, range(start, start + n_instances)):
            rng = numpy_rng(seed, experiment_id, lrr, i)
            first, second = rng.permutation(series.size), rng.permutation(series.size)
            expected = np.concatenate([series[first], (series * lrr)[second]])
            assert row.tobytes() == expected.tobytes()

    @given(
        seed=st.integers(0, 2**70),
        experiment_id=EXPERIMENT_IDS,
        lrr=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, math.inf, math.nan]), SUBNORMALS, st.floats()),
        index=START_INDICES,
    )
    @settings(max_examples=200, deadline=None)
    def test_instance_rng_state_is_numpys(self, seed, experiment_id, lrr, index):
        got = instance_rng(seed, experiment_id, lrr, index).bit_generator.state
        assert got == numpy_rng(seed, experiment_id, lrr, index).bit_generator.state

    def test_negative_seed_or_index_rejected(self):
        exp = make_exp([1.0, 2.0])
        for seed, start in [(-1, 0), (0, -1)]:
            with pytest.raises(ValueError, match="must be non-negative"):
                synthesize_batch(exp, 2.0, 3, seed, start_index=start)
            with pytest.raises(ValueError, match="must be non-negative"):
                instance_rng(seed, "e1", 2.0, start)


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
        inst = one_instance(exp, lrr, seed=1)
        n = exp.n_passes
        mu1 = float(np.mean(inst[:n]))
        mu2 = float(np.mean(inst[n:]))
        sigma1 = float(np.std(inst[:n], ddof=1))
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
        assert exp.n_passes == 14
