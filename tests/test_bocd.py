import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    MeasurementIncompatibleError,
    brute_force_alpha,
    direct_posterior,
    gaussian_pdf,
    grid_integrate,
    likelihood_vector,
)
from plumecpd import bocd
from plumecpd.bocd import (
    BLOCK_SLOTS,
    FAR_SIGMAS,
    PASS_BLOCK,
    RunLengthState,
    _marginal_density,
    block_passes,
    slot_counts,
)
from plumecpd.detector import DetectorConfig, detect_series
from plumecpd.inference import (
    LikelihoodConfig,
    QGrid,
    conjugate_terms,
    log_grid_mass,
    log_mass_by_count,
)
from plumecpd.transport import ForwardModel
from stepping import run_core


def each_pass(cys, fm, cfg, lam, grid, **kwargs):
    """The stream's state after every pass, one core step at a time from a
    state rebuilt from the last one's arrays; each state's log evidence
    covers its own pass alone."""
    run = None
    for cy in cys:
        start = None if run is None else (run.weights, run.sums, run.errs, run.log_mass)
        run = run_core([cy], fm, cfg, lam, grid, start=start, **kwargs)
        yield run


def alpha(run):
    """Unnormalized joint weights p(r_k = i, measurements so far)."""
    return run.weights * math.exp(run.log_evidence)


def predictive_probability(grid, precision, mode, cy, fm, cfg):
    """Predictive density of ``cy`` under one hypothesis whose rate row is
    exp(-precision (q - mode)^2 / 2) / Z, by the block step's marginal
    density of the (A, mode, log Z) rows before and after the pass."""
    a, b = conjugate_terms(cy, fm, cfg)
    after = precision + a
    new_mode = (precision * mode + b) / after
    pis = _marginal_density(
        np.asarray(cy),
        fm.ratio,
        cfg.sigma_e,
        np.array([mode]),
        log_grid_mass(grid, precision, [mode]),
        log_grid_mass(grid, after, [new_mode]),
        np.array([0.5 * precision / after]),
        out=(np.empty(1), np.empty(1)),
    )
    return float(pis[0])


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

    def test_memoryless(self, coarse_grid):
        # A forward ratio of 0 keeps every rate posterior at the flat prior.
        # All mass on a run 1000 passes long with that posterior: the change
        # probability equals that of a fresh state.
        flat = ForwardModel(1.0, 0.0)
        k = 10**3
        run = run_core([1.0] * k, flat, LikelihoodConfig(0.5), 7.0, coarse_grid)
        assert not run.precision.any()
        weights = np.zeros(k + 1)
        weights[-1] = 1.0
        long_run = (weights, run.sums, run.errs, run.log_mass)
        fresh = self.first_step_cp(coarse_grid, flat, 7.0)
        assert self.first_step_cp(coarse_grid, flat, 7.0, long_run) == pytest.approx(fresh, rel=1e-12)
        assert fresh == pytest.approx(1.0 / 7.0, rel=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 0.5, 0.0, -3.0])
    def test_lambda_must_exceed_one(self, lam, unit_fm, coarse_grid):
        with pytest.raises(ValueError):
            self.first_step_cp(coarse_grid, unit_fm, lam)


class TestPredictiveProbability:
    """The predictive density one hypothesis gives the next measurement."""

    def test_marginal_delta_posterior_collapses(self, unit_fm):
        # A row far narrower than the grid step is a point mass. No state
        # reaches A = 1e14 in one pass, so the row is given directly.
        grid = QGrid(0.0, 5.0, 0.005)
        q_star = grid.values[400]
        sigma = 0.4
        cy = 2.3
        value = predictive_probability(
            grid, 1e14, q_star, cy, unit_fm, LikelihoodConfig(sigma)
        )
        expected = gaussian_pdf(cy, q_star, sigma)
        assert value == pytest.approx(expected, rel=1e-12)

class TestBocdStep:
    """One stream stepped through the run-length core."""

    def test_first_step_splits_by_hazard(self, unit_fm):
        grid = QGrid(0.0, 5.0, 0.005)
        run = run_core([1.0], unit_fm, LikelihoodConfig(0.5), 15.0, grid)
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
            run = run_core([float(c) for c in cys], unit_fm, cfg, lam, coarse_grid)
            expected = brute_force_alpha(
                [float(c) for c in cys], coarse_grid.values, coarse_grid.dq, 1.0, 0.3, 15.0
            )
            np.testing.assert_allclose(alpha(run), expected, rtol=1e-9)

    def test_changepoint_probability_matches_enumeration(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.3)
        lam = 15.0
        cys = [1.8, 2.1, 3.9, 4.2, 4.0]
        run = run_core(cys, unit_fm, cfg, lam, coarse_grid)
        expected = brute_force_alpha(cys, coarse_grid.values, coarse_grid.dq, 1.0, 0.3, 15.0)
        assert run.weights[0] == pytest.approx(
            expected[0] / expected.sum(), rel=1e-9
        )

    def test_single_likelihood_evaluation_per_step(self, unit_fm, coarse_grid):
        # One log Z per hypothesis and step gives every hypothesis's
        # marginal likelihood of the new pass. A block of passes computes
        # them, every path of the sum, in one call over (streams, passes,
        # slots), the few slots past a pass's hypotheses included.
        import plumecpd.bocd as bocd_module

        cfg = LikelihoodConfig(0.4)
        sizes = []

        def counting(grid, terms, counts, mode, out, scratch):
            sizes.append(out.shape)
            return log_mass_by_count(grid, terms, counts, mode, out, scratch)

        with mock.patch.object(bocd_module, "log_mass_by_count", side_effect=counting):
            run_core([2.0] * 10, unit_fm, cfg, 15.0, coarse_grid)
        assert PASS_BLOCK == 8
        assert sizes == [(1, 8, 9), (1, 2, 11)]

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

    def test_scale_equivariance(self):
        s = 3.7
        cys = [1.8, 2.1, 3.9, 4.2, 4.0, 3.8]
        lam = 15.0
        fm = ForwardModel(1.0, 1.0)
        base = run_core(cys, fm, LikelihoodConfig(0.3), lam, QGrid(0.0, 5.0, 0.005))
        scaled = run_core(
            [c * s for c in cys],
            fm,
            LikelihoodConfig(0.3 * s),
            lam,
            QGrid(0.0, 5.0 * s, 0.005 * s),
        )
        np.testing.assert_allclose(scaled.weights, base.weights, rtol=1e-9)

    def test_impossible_observation_marginal(self, unit_fm, coarse_grid):
        with pytest.raises(MeasurementIncompatibleError):
            run_core([500.0], unit_fm, LikelihoodConfig(1e-3), 15.0, coarse_grid)

    def test_largest_float_is_impossible_without_overflow_warning(self, coarse_grid):
        fm = ForwardModel(advection_velocity_mps=4.0, dispersion_factor_per_m=1.0)
        with pytest.raises(MeasurementIncompatibleError, match="impossible under all"):
            run_core([2.0, 1.7e308], fm, LikelihoodConfig(0.3), 15.0, coarse_grid)

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

    def test_long_stream_keeps_a_distribution(self, unit_fm):
        # Nothing prunes the hypotheses: after 400 passes, with changes, the
        # weights are still a probability distribution.
        grid = QGrid(0.0, 5.0, 0.005)
        rng = np.random.default_rng(400)
        cys = np.clip(rng.normal(np.repeat([2.0, 4.5, 1.0, 3.0], 100), 0.2), 0.0, 4.9)
        weights = run_core(cys, unit_fm, LikelihoodConfig(0.2), 15.0, grid).weights
        assert weights.size == 401
        assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
        assert abs(float(np.sum(weights)) - 1.0) <= 1e-12


class TestModeAccuracy:
    def test_modes_are_within_two_ulps_of_their_exact_window(self, unit_fm):
        # Every mode a block computes, full run or not, is its window of b
        # summed exactly, over its precision, within 2 ulps; a mode updated
        # pass by pass as (A mode + b) / A' drifted up to 34 ulps away.
        grid = QGrid(0.0, 5.0, 0.005)
        cfg = LikelihoodConfig(0.3)
        rng = np.random.default_rng(2000)
        cys = rng.lognormal(math.log(2.0), 0.3, 2000)
        b = conjugate_terms(cys, unit_fm, cfg)[1].tolist()
        windows = []

        def sampling(grid, terms, counts, mode, out, scratch):
            # Rows and slots of the block's passes that hold a pass; slot 0
            # holds all k passes so far.
            rows, slots = np.nonzero(counts > 0)
            for i in rng.choice(rows.size, min(rows.size, 80), replace=False):
                p, s = rows[i], slots[i]
                k, c = int(counts[p, 0]), int(counts[p, s])
                windows.append((k, c, float(mode[0, p, s]), float(terms.precision[c])))
            return log_mass_by_count(grid, terms, counts, mode, out, scratch)

        with mock.patch.object(bocd, "log_mass_by_count", side_effect=sampling):
            run_core(cys, unit_fm, cfg, 15.0, grid)
        assert len(windows) >= 10_000
        for k, c, mode, precision in windows:
            exact = float(Fraction(math.fsum(b[k - c : k])) / Fraction(precision))
            assert abs(mode - exact) <= 2 * math.ulp(exact), (k, c, mode, exact)


class TestBlockPasses:
    @settings(max_examples=500, deadline=None)
    @given(n_streams=st.integers(1, 5000), k=st.integers(0, 10_000))
    def test_largest_block_within_the_slots(self, n_streams, k):
        n = block_passes(n_streams, k)
        assert PASS_BLOCK <= n <= max(PASS_BLOCK, k)
        if n > PASS_BLOCK:
            assert n_streams * n * (k + n + 1) <= BLOCK_SLOTS
        if n < k:
            assert n_streams * (n + 1) * (k + n + 2) > BLOCK_SLOTS

    def test_grows_with_the_run(self):
        # One stream: k passes while k (2 k + 1) fits in 2^14 slots, to k = 90.
        assert [block_passes(1, k) for k in range(91)] == [max(PASS_BLOCK, k) for k in range(91)]
        assert [block_passes(1, k) for k in (91, 128, 448)] == [90, 78, 33]
        assert [block_passes(40, k) for k in (0, 8, 16)] == [8, 8, 13]
        assert all(block_passes(1000, k) == PASS_BLOCK for k in range(0, 1000))


class TestRowBuffer:
    """The per-hypothesis state (weight and log Z, with A by pass count and
    the mode read off the stream's prefix sums) that took the place of the
    run-length row buffers."""

    def test_growth_matches_state_rebuilt_from_posteriors(self, unit_fm, coarse_grid):
        # The four arrays are the whole state: a run rebuilt from them before
        # every step has the rows of one run through a single state, and its
        # weights to 1e-12, since a block folds its passes' weights together.
        cfg = LikelihoodConfig(0.5)
        rng = np.random.default_rng(3)
        cys = np.clip(rng.normal(2.0, 0.4, size=101), 0.0, 4.9)
        whole = run_core(cys, unit_fm, cfg, 15.0, coarse_grid)
        log_evidence = 0.0
        for stepped in each_pass(cys, unit_fm, cfg, 15.0, coarse_grid):
            log_evidence += stepped.log_evidence
        np.testing.assert_allclose(stepped.weights, whole.weights, rtol=0, atol=1e-12)
        for field in ("precision", "mode", "log_mass", "sums", "errs"):
            assert np.array_equal(getattr(stepped, field), getattr(whole, field)), field
        assert log_evidence == pytest.approx(whole.log_evidence, rel=1e-12)
        assert whole.weights.size == 102

    def test_failed_step_leaves_the_state_usable(self, unit_fm, coarse_grid):
        # A stream whose measurement is impossible fails alone: the other
        # stream's state has the bits of a run on its own, and once the
        # failed stream is dropped the state steps on.
        cfg = LikelihoodConfig(0.3)
        state = RunLengthState(2, 3, coarse_grid, unit_fm, cfg)

        def step(cys):
            return state.advance(np.array(cys)[:, np.newaxis], 15.0, math.inf).errors

        # More than FAR_SIGMAS noise scales above every prediction on the grid.
        impossible = coarse_grid.q_max + FAR_SIGMAS * cfg.sigma_e + 1.0
        assert step([2.0, 2.0]) == {}
        errors = step([2.1, impossible])
        assert errors == {1: "observation impossible under all run-length hypotheses"}
        alone = run_core([2.0, 2.1], unit_fm, cfg, 15.0, coarse_grid)
        assert np.array_equal(state.weights[0], alone.weights)
        state.select(np.array([True, False]))
        assert step([1.9]) == {}
        assert state.weights.shape == (1, 4)

    def test_fresh_row_is_the_likelihood(self, unit_fm, coarse_grid):
        cfg = LikelihoodConfig(0.5)
        run = run_core([2.0, 2.2, 1.9], unit_fm, cfg, 15.0, coarse_grid)
        likelihood = likelihood_vector(1.9, coarse_grid, unit_fm, cfg)
        lik_mass = float(np.sum(likelihood[:-1]) * coarse_grid.dq)
        np.testing.assert_allclose(run.rows[0], likelihood / lik_mass, rtol=1e-12)


def sequential_sums(a, k, n_slots):
    """Each slot's precision after k passes of precision a, summed one
    pass after another: every pass adds a to slots 0 .. k + 1 of the
    state before it."""
    sums = np.zeros(n_slots)
    for taken in range(k):
        sums[: taken + 2] += a
    return sums


class TestPrecisionByCount:
    """A state holds its precision as one table by pass count."""

    @settings(max_examples=60, deadline=None)
    @given(
        ratio=st.floats(0.01, 100.0),
        noise=st.floats(0.001, 0.1),
        lengths=st.lists(st.integers(1, 30), min_size=1, max_size=5),
        slots=st.sampled_from([BLOCK_SLOTS, 2**8]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_slots_hold_their_sequential_sums(self, ratio, noise, lengths, slots, seed):
        # Blocks of random lengths, two streams and then one after
        # ``select``, and the states ``detect_series`` builds before and
        # after a reset with the widened sigma_e: A by slot, and each
        # pass's full-run A, have the bits of summing a pass at a time.
        grid = QGrid(0.0, 5.0, 0.05)
        fm = ForwardModel(1.0, ratio)
        cfg = LikelihoodConfig(ratio * noise)
        a = conjugate_terms(0.0, fm, cfg)[0]
        rng = np.random.default_rng(seed)
        n = sum(lengths)
        with mock.patch.object(bocd, "BLOCK_SLOTS", slots):
            state = RunLengthState(2, n, grid, fm, cfg)
            for i, length in enumerate(lengths):
                k0 = state.k
                cys = ratio * rng.uniform(0.5, 4.5, (state.weights.shape[0], length))
                steps = state.advance(cys, 15.0, math.inf)
                assert steps.done.tolist() == [length] * cys.shape[0]
                full = [sequential_sums(a, k0 + p + 1, 1)[0] for p in range(length)]
                assert steps.precision.tobytes() == np.array(full).tobytes()
                by_slot = state.terms.precision[slot_counts(state.k, n + 2)]
                assert by_slot.tobytes() == sequential_sums(a, state.k, n + 2).tobytes()
                if i == 0:
                    state.select(np.array([True, False]))

            # A jump of 3 in the rate, 30 noise scales or more, alarms.
            states = []
            real = RunLengthState.advance

            def advance(state, *args):
                states.append(state)
                return real(state, *args)

            cys = ratio * np.repeat([1.0, 4.0], [n + 1, n + 1])
            config = DetectorConfig(threshold=0.8, sigma_e_initial=cfg.sigma_e, grid=grid)
            with mock.patch.object(RunLengthState, "advance", advance):
                events = detect_series(cys, fm, config)[1]
        assert events
        fresh = list(dict.fromkeys(states))
        assert len(fresh) >= 2
        assert fresh[1].cfg.sigma_e == cfg.sigma_e * config.sigma_e_post_factor
        for state in fresh:
            a = conjugate_terms(0.0, fm, state.cfg)[0]
            by_slot = state.terms.precision[slot_counts(state.k, cys.size + 2)]
            assert by_slot.tobytes() == sequential_sums(a, state.k, cys.size + 2).tobytes()


class TestBlockBuffers:
    """A block's arrays are views into buffers each thread reuses."""

    def test_alternate_states_keep_their_arrays(self, unit_fm, coarse_grid):
        # Two states of different sizes advanced in turn in one thread: a
        # call leaves the Steps of the call before it, and the other
        # state, as they were, and each state steps as it does alone.
        rng = np.random.default_rng(12)
        runs = [
            (rng.uniform(1.0, 3.0, (1, 24)), LikelihoodConfig(0.3)),
            (rng.uniform(1.0, 3.0, (3, 24)), LikelihoodConfig(0.1)),
        ]
        cuts = [0, 8, 11, 24]

        def state_arrays(state):
            return [state.sums, state.errs, state.log_mass, state.weights, state.log_evidence]

        def step_arrays(steps):
            return [steps.done, steps.alarm, steps.cp, steps.precision, steps.mode, steps.log_mass]

        def copies(arrays):
            return [array.copy() for array in arrays]

        def same(arrays, expected):
            return all(np.array_equal(x, y) for x, y in zip(arrays, expected, strict=True))

        def fresh(stream, cfg):
            return RunLengthState(stream.shape[0], 24, coarse_grid, unit_fm, cfg)

        states = [fresh(*run) for run in runs]
        steps = [[], []]
        for lo, hi in zip(cuts, cuts[1:]):
            for i, (stream, _) in enumerate(runs):
                other = state_arrays(states[1 - i])
                before = [copies(other)] + [copies(step_arrays(s)) for s in steps[1 - i][-1:]]
                steps[i].append(states[i].advance(stream[:, lo:hi], 15.0, math.inf))
                assert same(other, before[0])
                if len(before) > 1:
                    assert same(step_arrays(steps[1 - i][-1]), before[1])

        for i, run in enumerate(runs):
            alone = fresh(*run)
            for lo, hi, got in zip(cuts, cuts[1:], steps[i]):
                assert same(step_arrays(got), step_arrays(alone.advance(run[0][:, lo:hi], 15.0, math.inf)))
            assert same(state_arrays(states[i]), state_arrays(alone))
