import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumecpd.errors import InputDataError
from plumecpd.transport import (
    ForwardModel,
    Geometry,
    MetSummary,
    ambient_baseline,
    build_forward_model,
    cross_plume_integrate,
    forward_concentration,
    ppm_to_mass_concentration,
    vertical_factor,
)


def make_met(u=1.0, sigma_w=1.0, temperature=293.15):
    return MetSummary(
        mean_velocity_mps=u,
        sigma_u_mps=0.4 * u,
        sigma_w_mps=sigma_w,
        friction_velocity_mps=0.2,
        temperature_k=temperature,
    )


class TestAmbientBaseline:
    def test_twenty_samples_uses_lowest(self):
        series = list(range(20, 0, -1))
        assert ambient_baseline(series) == 1

    def test_hundred_samples_uses_fifth_lowest(self):
        series = list(range(100, 0, -1))
        assert ambient_baseline(series) == 5

    def test_single_sample(self):
        assert ambient_baseline([3.7]) == 3.7

    def test_empty_series_rejected(self):
        with pytest.raises(InputDataError):
            ambient_baseline([])

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_never_exceeds_median(self, series):
        assert ambient_baseline(series) <= float(np.median(series))


class TestPpmConversion:
    def test_zero_ppm(self):
        assert ppm_to_mass_concentration(0.0, 298.15, 101325.0) == 0.0

    def test_one_ppm_room_temperature(self):
        value = ppm_to_mass_concentration(1.0, 298.15, 101325.0)
        assert value == pytest.approx(6.556e-4, rel=1e-3)

    def test_one_ppm_freezing(self):
        value = ppm_to_mass_concentration(1.0, 273.15, 101325.0)
        assert value == pytest.approx(7.156e-4, rel=1e-3)

    def test_linear_in_ppm(self):
        one = ppm_to_mass_concentration(1.0, 290.0, 101325.0)
        assert ppm_to_mass_concentration(7.5, 290.0, 101325.0) == pytest.approx(7.5 * one)

    @given(
        st.floats(200.0, 330.0),
        st.floats(200.0, 330.0),
        st.floats(0.001, 100.0),
    )
    def test_monotone_decreasing_in_temperature(self, t1, t2, ppm):
        lo, hi = sorted((t1, t2))
        # non-strict: temperatures a few ulps apart round to the same quotient
        assert ppm_to_mass_concentration(ppm, hi, 101325.0) <= ppm_to_mass_concentration(
            ppm, lo, 101325.0
        )
        if hi - lo > 1e-6:
            assert ppm_to_mass_concentration(ppm, hi, 101325.0) < ppm_to_mass_concentration(
                ppm, lo, 101325.0
            )

    @pytest.mark.parametrize("temperature,pressure", [(0.0, 101325.0), (-1.0, 101325.0), (290.0, 0.0)])
    def test_nonpositive_state_rejected(self, temperature, pressure):
        with pytest.raises(ValueError):
            ppm_to_mass_concentration(1.0, temperature, pressure)

    @pytest.mark.parametrize(
        "temperature,pressure",
        [(math.nan, 101325.0), (math.inf, 101325.0), (290.0, math.nan), (290.0, math.inf)],
    )
    def test_non_finite_state_rejected(self, temperature, pressure):
        with pytest.raises(ValueError, match="finite"):
            ppm_to_mass_concentration(1.0, temperature, pressure)

    @given(st.lists(st.floats(0, 1e4), max_size=30), st.floats(200.0, 330.0), st.floats(5e4, 2e5))
    def test_array_equals_scalar_calls(self, ppm, temperature, pressure):
        converted = ppm_to_mass_concentration(np.array(ppm), temperature, pressure)
        assert converted.tolist() == [
            ppm_to_mass_concentration(p, temperature, pressure) for p in ppm
        ]

    def test_negative_element_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ppm_to_mass_concentration(np.array([1.0, -0.5]), 290.0)


def integrate(samples):
    """cross_plume_integrate over (conc, dt, speed, angle) sample tuples of one pass."""
    columns = list(zip(*samples)) or [[], [], [], []]
    return float(cross_plume_integrate(*columns, [len(samples)])[0])


def running_sum(samples):
    total = 0.0
    for conc, dt, speed, angle in samples:
        total += conc * dt * speed * math.sin(math.radians(angle))
    return total


SAMPLE = st.tuples(
    st.one_of(st.floats(0, 10), st.just(-0.0)),
    st.floats(0.01, 2),
    st.floats(0.1, 30),
    st.floats(1, 90),
)


class TestCrossPlumeIntegrate:
    def test_constant_integrand(self):
        samples = [(1.0, 0.1, 2.0, 90.0)] * 10
        assert integrate(samples) == pytest.approx(2.0)

    def test_oblique_crossing_halves(self):
        samples = [(1.0, 0.1, 2.0, 30.0)] * 10
        assert integrate(samples) == pytest.approx(1.0)

    def test_empty_pass(self):
        assert integrate([]) == 0.0

    @pytest.mark.parametrize("angle", [0.0, -5.0, 90.5, 180.0, math.nan])
    def test_bad_road_angle_rejected(self, angle):
        with pytest.raises(ValueError):
            integrate([(1.0, 0.1, 2.0, angle)])

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            integrate([(1.0, 0.0, 2.0, 90.0)])

    def test_nan_dt_rejected(self):
        with pytest.raises(ValueError, match="spacing"):
            integrate([(1.0, 0.1, 2.0, 90.0), (1.0, math.nan, 2.0, 90.0)])

    @pytest.mark.parametrize("speed", [0.0, -2.0, math.nan])
    def test_nonpositive_speed_rejected(self, speed):
        with pytest.raises(ValueError, match="vehicle speed"):
            integrate([(1.0, 0.1, speed, 90.0)])

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            cross_plume_integrate([1.0, 1.0], [0.1], [2.0, 2.0], [90.0, 90.0], [2])

    @pytest.mark.parametrize("lengths", [[1], [3], [2, -1, 1], [[2]]])
    def test_pass_lengths_must_cover_the_samples(self, lengths):
        with pytest.raises(ValueError, match="pass lengths"):
            cross_plume_integrate([1.0, 1.0], [0.1, 0.1], [2.0, 2.0], [90.0, 90.0], lengths)

    def test_overflow_gives_inf_or_nan_without_a_warning(self):
        cys = cross_plume_integrate(
            [1e300, 0.0, 1.0], [1e300, math.inf, 0.1], [1.0, 1.0, 1.0], [90.0, 90.0, 90.0], [1, 1, 1]
        )
        assert math.isinf(cys[0]) and math.isnan(cys[1]) and cys[2] == 0.1

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 10),
                st.floats(0.01, 2),
                st.floats(0.1, 30),
                st.floats(1, 90),
            ),
            min_size=2,
            max_size=40,
        ),
        st.integers(1, 39),
    )
    def test_additive_over_partitions(self, samples, cut):
        cut = min(cut, len(samples) - 1)
        whole = integrate(samples)
        parts = integrate(samples[:cut]) + integrate(samples[cut:])
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)

    @given(st.lists(SAMPLE, min_size=1, max_size=40))
    def test_equals_a_running_sum(self, samples):
        assert repr(integrate(samples)) == repr(running_sum(samples))

    @given(st.lists(st.one_of(st.lists(SAMPLE, max_size=5), st.lists(SAMPLE, max_size=70)), max_size=8))
    def test_each_pass_equals_its_own_running_sum(self, passes):
        """Passes of uneven lengths integrated together: each gives the
        bits it gives alone."""
        columns = list(zip(*(s for samples in passes for s in samples))) or [[], [], [], []]
        cys = cross_plume_integrate(*columns, [len(samples) for samples in passes])
        assert [repr(cy) for cy in cys.tolist()] == [repr(running_sum(samples)) for samples in passes]


class TestDispersion:
    def test_ground_reflection_doubles_peak(self):
        met = make_met(u=1.0, sigma_w=1.0)
        geom = Geometry(fetch_m=1.0, sensor_height_m=0.0, source_height_m=0.0)
        assert vertical_factor(met, geom) == pytest.approx(2.0 / math.sqrt(2 * math.pi))

    def test_vertical_profile_integrates_to_one(self):
        met = make_met(u=2.0, sigma_w=0.4)
        sigma_z = 0.4 * 30.0 / 2.0
        z = np.linspace(0.0, 10.0 * (0.05 + 5 * sigma_z), 200_001)
        values = [
            vertical_factor(met, Geometry(30.0, sensor_height_m=float(zi), source_height_m=0.05))
            for zi in z[:: len(z) // 2000]
        ]
        z_sub = z[:: len(z) // 2000]
        integral = np.trapezoid(values, z_sub)
        assert integral == pytest.approx(1.0, abs=1e-4)
        assert min(values) >= 0.0

    def test_doubling_fetch_halves_centered_peak(self):
        met = make_met(u=1.0, sigma_w=1.0)
        near = vertical_factor(met, Geometry(1.0, sensor_height_m=0.0, source_height_m=0.0))
        far = vertical_factor(met, Geometry(2.0, sensor_height_m=0.0, source_height_m=0.0))
        assert far == pytest.approx(near / 2.0)

    def test_infinite_spread_is_degenerate(self):
        # sigma_w * fetch overflows to inf.
        with pytest.raises(ValueError, match="degenerate vertical spread"):
            vertical_factor(make_met(sigma_w=10.0), Geometry(1e308))

    # A height whose square overflows; a spread whose square underflows to 0.
    @pytest.mark.parametrize("fetch, height", [(30.0, 1e200), (1e-170, 1.3)])
    def test_geometry_past_the_float_range_is_a_value_error(self, fetch, height):
        geom = Geometry(fetch, sensor_height_m=height)
        with pytest.raises(ValueError, match="leave the float range"):
            vertical_factor(make_met(), geom)


class TestGeometry:
    @pytest.mark.parametrize("fetch", [0.0, -1.0, math.nan, math.inf])
    def test_fetch_must_be_positive_and_finite(self, fetch):
        with pytest.raises(ValueError, match="fetch must be positive and finite"):
            Geometry(fetch)

    @pytest.mark.parametrize("height", [-0.1, math.nan, math.inf])
    @pytest.mark.parametrize("which", ["sensor_height_m", "source_height_m"])
    def test_heights_must_be_non_negative_and_finite(self, which, height):
        with pytest.raises(ValueError, match="heights must be non-negative and finite"):
            Geometry(30.0, **{which: height})


class TestForwardModel:
    def test_zero_rate(self, unit_fm):
        assert forward_concentration(0.0, unit_fm) == 0.0

    def test_reference_rate(self):
        fm = ForwardModel(advection_velocity_mps=2.72, dispersion_factor_per_m=1.0)
        assert forward_concentration(0.083, fm) == pytest.approx(0.03051, rel=1e-3)

    # rate floor keeps products normal; doubling only commutes with float
    # rounding outside the subnormal range (q=0 is covered above)
    @given(st.floats(1e-200, 100), st.floats(0.1, 20), st.floats(1e-4, 5))
    def test_exactly_linear(self, q, u, d):
        fm = ForwardModel(u, d)
        assert forward_concentration(2.0 * q, fm) == 2.0 * forward_concentration(q, fm)

    def test_vectorized_over_rates(self, unit_fm):
        out = forward_concentration(np.array([0.0, 1.0, 2.5]), unit_fm)
        assert np.allclose(out, [0.0, 1.0, 2.5])

    def test_negative_rate_rejected(self, unit_fm):
        with pytest.raises(ValueError):
            forward_concentration(-0.1, unit_fm)

    def test_nonpositive_velocity_rejected(self):
        with pytest.raises(ValueError):
            ForwardModel(0.0, 1.0)

    @pytest.mark.parametrize(
        "velocity, factor, message",
        [
            (math.inf, 1.0, "advection velocity must be positive and finite"),
            (math.nan, 1.0, "advection velocity must be positive and finite"),
            (1.0, math.inf, "dispersion factor must be non-negative and finite"),
            (1.0, math.nan, "dispersion factor must be non-negative and finite"),
            (1.0, -1.0, "dispersion factor must be non-negative and finite"),
        ],
    )
    def test_non_finite_or_out_of_range_fields_rejected(self, velocity, factor, message):
        # An infinite velocity once built a model whose detector reported
        # the flat prior on every pass, and NaN fields failed later with a
        # message about the rate precision.
        with pytest.raises(ValueError, match=message):
            ForwardModel(velocity, factor)

    def test_build_from_met_and_geometry(self):
        met = make_met(u=2.0, sigma_w=0.5)
        fm = build_forward_model(met, Geometry(20.0, sensor_height_m=0.0, source_height_m=0.0))
        assert fm.advection_velocity_mps == 2.0
        sigma_z = 0.5 * 20.0 / 2.0
        assert fm.dispersion_factor_per_m == pytest.approx(2.0 / (math.sqrt(2 * math.pi) * sigma_z))


class TestMetSummary:
    @pytest.mark.parametrize(
        "field",
        [
            "mean_velocity_mps",
            "sigma_u_mps",
            "sigma_w_mps",
            "friction_velocity_mps",
            "temperature_k",
            "turbulent_intensity",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, field, value):
        fields = dict(
            mean_velocity_mps=2.0,
            sigma_u_mps=0.5,
            sigma_w_mps=0.2,
            friction_velocity_mps=0.2,
            temperature_k=290.0,
        )
        fields[field] = value
        with pytest.raises(ValueError):
            MetSummary(**fields)

    def test_inconsistent_turbulent_intensity_rejected(self):
        with pytest.raises(ValueError):
            MetSummary(
                mean_velocity_mps=2.0,
                sigma_u_mps=0.5,
                sigma_w_mps=0.2,
                friction_velocity_mps=0.2,
                temperature_k=290.0,
                turbulent_intensity=0.9,
            )

    def test_consistent_turbulent_intensity_accepted(self):
        MetSummary(
            mean_velocity_mps=2.0,
            sigma_u_mps=0.5,
            sigma_w_mps=0.2,
            friction_velocity_mps=0.2,
            temperature_k=290.0,
            turbulent_intensity=0.25,
        )
