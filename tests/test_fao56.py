"""Physics-chain tests, checked against the frozen independent oracle."""

import math

import numpy as np
import pytest

from etoforge import fao56
from etoforge.errors import DomainError, RangeError

EXACT = dict(rel=1e-12, abs=1e-12)


def _inputs_from_point(p):
    return fao56.Et0Inputs(
        temp_max=p["temp_max"], temp_min=p["temp_min"], wind_2m=p["wind_2m"],
        solar_rad=p["solar_rad_mj"], latitude=p["latitude_rad"],
        elevation=p["elevation_m"], day_of_year=p["day_of_year"],
        humidity_mode=p["humidity_mode"], rh_max=p["rh_max"],
        rh_min=p["rh_min"], rh_avg=p["rh_avg"])


# --- saturation vapour pressure ----------------------------------------------

def test_svp_at_zero_is_the_coefficient():
    assert fao56.saturation_vapor_pressure(0.0) == 0.6108


def test_svp_frozen_value(oracle_fixture):
    expected = oracle_fixture["scalar_checks"]["svp_at_20c"]
    assert fao56.saturation_vapor_pressure(20.0) == pytest.approx(expected, **EXACT)
    assert round(expected, 3) == 2.338


def test_svp_strictly_increasing():
    values = [fao56.saturation_vapor_pressure(t) for t in range(-20, 51, 5)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert fao56.saturation_vapor_pressure(35.0) > fao56.saturation_vapor_pressure(20.0)


@pytest.mark.parametrize("t", [-237.3, -240.0, -300.0])
def test_svp_domain_error(t):
    with pytest.raises(DomainError):
        fao56.saturation_vapor_pressure(t)
    with pytest.raises(DomainError):
        fao56.svp_slope(t)


# --- slope of the curve -------------------------------------------------------

def test_slope_frozen_value(oracle_fixture):
    expected = oracle_fixture["scalar_checks"]["svp_slope_at_20c"]
    assert fao56.svp_slope(20.0) == pytest.approx(expected, **EXACT)
    assert round(expected, 3) == 0.145


def test_slope_matches_finite_difference_across_grid():
    # the published slope constant 4098 is 17.27*237.3 rounded, which sits
    # 4.2e-5 (relative) away from the true derivative; 1e-4 is as tight as
    # the formula itself allows
    h = 1e-4
    for t in range(-20, 51):
        numeric = (fao56.saturation_vapor_pressure(t + h)
                   - fao56.saturation_vapor_pressure(t - h)) / (2.0 * h)
        analytic = fao56.svp_slope(t)
        assert abs(analytic - numeric) / analytic < 1e-4


def test_slope_convexity():
    assert fao56.svp_slope(30.0) > fao56.svp_slope(20.0)


# --- pressure and psychrometric constant -------------------------------------

def test_pressure_sea_level():
    assert fao56.atmospheric_pressure(0.0) == 101.3


def test_pressure_monotone_and_frozen(oracle_fixture):
    expected = oracle_fixture["scalar_checks"]["pressure_at_1800m"]
    assert fao56.atmospheric_pressure(1800.0) == pytest.approx(expected, **EXACT)
    assert fao56.atmospheric_pressure(1800.0) < 101.3


def test_pressure_domain_error():
    with pytest.raises(DomainError):
        fao56.atmospheric_pressure(45000.0)


def test_psychrometric_constant(oracle_fixture):
    expected = oracle_fixture["scalar_checks"]["gamma_at_101_3_kpa"]
    assert fao56.psychrometric_constant(101.3) == pytest.approx(expected, **EXACT)
    assert round(expected, 4) == 0.0674


# --- actual vapour pressure ---------------------------------------------------

def test_ea_saturated_air_reaches_es():
    es = (fao56.saturation_vapor_pressure(25.0)
          + fao56.saturation_vapor_pressure(15.0)) / 2.0
    ea = fao56.actual_vapor_pressure(25.0, 15.0, rh_avg=100.0, mode="average")
    assert ea == es


def test_ea_dry_air_is_zero():
    assert fao56.actual_vapor_pressure(25.0, 15.0, rh_avg=0.0, mode="average") == 0.0


def test_ea_mean_mode_frozen(oracle_fixture):
    expected = oracle_fixture["scalar_checks"]["ea_mean_tmax25_tmin15_rh60"]
    ea = fao56.actual_vapor_pressure(25.0, 15.0, rh_avg=60.0, mode="average")
    assert ea == pytest.approx(expected, **EXACT)


@pytest.mark.parametrize("kwargs", [
    {"rh_avg": 120.0, "mode": "average"},
    {"rh_avg": -5.0, "mode": "average"},
    {"rh_max": 101.0, "rh_min": 40.0, "mode": "extremes"},
    {"rh_max": 80.0, "rh_min": None, "mode": "extremes"},
])
def test_ea_range_errors(kwargs):
    with pytest.raises(RangeError):
        fao56.actual_vapor_pressure(25.0, 15.0, **kwargs)


def test_ea_never_exceeds_es():
    import random
    rng = random.Random(42)
    for _ in range(200):
        tmin = rng.uniform(-5, 25)
        tmax = tmin + rng.uniform(1, 15)
        es = (fao56.saturation_vapor_pressure(tmax)
              + fao56.saturation_vapor_pressure(tmin)) / 2.0
        if rng.random() < 0.5:
            rh_min = rng.uniform(0, 80)
            rh_max = rng.uniform(rh_min, 100)
            ea = fao56.actual_vapor_pressure(tmax, tmin, rh_max=rh_max,
                                             rh_min=rh_min, mode="extremes")
        else:
            ea = fao56.actual_vapor_pressure(tmax, tmin,
                                             rh_avg=rng.uniform(0, 100),
                                             mode="average")
        assert 0.0 <= ea <= es


# --- extraterrestrial radiation -----------------------------------------------

def test_ra_equator_equinox(oracle_fixture):
    expected = oracle_fixture["scalar_checks"]["ra_equator_doy80"]
    got = fao56.extraterrestrial_radiation(0.0, 80)
    assert got == pytest.approx(expected, **EXACT)
    assert abs(got - 37.6) < 0.5


def test_ra_polar_winter_is_zero():
    assert fao56.extraterrestrial_radiation(math.radians(80.0), 355) == 0.0


def test_ra_hemispheric_symmetry_near_equinox():
    # half-year shift must round to a whole day; take the better rounding.
    # Away from the equinoxes the inverse-distance term breaks the 2%
    # claim, so the grid stays within the shoulder seasons.
    for deg in (10.0, 25.0, 45.0, 60.0):
        for j in (74, 91, 108, 257, 274, 291):
            a = fao56.extraterrestrial_radiation(math.radians(deg), j)
            rel = min(
                abs(a - fao56.extraterrestrial_radiation(
                    math.radians(-deg), ((j - 1 + shift) % 365) + 1)) / a
                for shift in (182, 183))
            assert rel < 0.02


def test_ra_symmetry_full_year_after_distance_normalization():
    for deg in (10.0, 25.0, 45.0, 60.0):
        for j in range(15, 366, 30):
            j2 = ((j - 1 + 183) % 365) + 1
            dr1 = 1 + 0.033 * math.cos(2 * math.pi * j / 365)
            dr2 = 1 + 0.033 * math.cos(2 * math.pi * j2 / 365)
            a = fao56.extraterrestrial_radiation(math.radians(deg), j) / dr1
            b = fao56.extraterrestrial_radiation(math.radians(-deg), j2) / dr2
            assert abs(a - b) / max(a, b, 1e-9) < 0.02


def test_ra_nonnegative_everywhere():
    for deg in range(-90, 91, 15):
        for j in range(1, 366, 14):
            assert fao56.extraterrestrial_radiation(math.radians(deg), j) >= 0.0


# --- net radiation --------------------------------------------------------------

def test_net_radiation_zero_shortwave():
    rad = fao56.net_radiation(0.0, 30.0, 1.5, 25.0, 15.0, 50.0)
    assert rad.rns == 0.0


def test_net_radiation_shortwave_linearity():
    base = fao56.net_radiation(8.0, 30.0, 1.5, 25.0, 15.0, 50.0)
    double = fao56.net_radiation(16.0, 30.0, 1.5, 25.0, 15.0, 50.0)
    assert double.rns == 2.0 * base.rns


def test_net_radiation_division_guard():
    with pytest.raises(DomainError):
        fao56.net_radiation(5.0, 0.0, 1.5, 25.0, 15.0, 50.0)


def test_net_radiation_polar_night_defaults_clear():
    rad = fao56.net_radiation(0.0, 0.0, 0.4, -5.0, -15.0, 50.0)
    assert rad.rns == 0.0 and rad.rnl > 0.0 and rad.rn < 0.0


def test_net_radiation_matches_oracle_point(oracle_fixture):
    p = oracle_fixture["et0_points"][0]
    rad = fao56.net_radiation(
        p["solar_rad_mj"], p["expected"]["ra"], p["expected"]["ea"],
        p["temp_max"], p["temp_min"], p["elevation_m"])
    assert abs(rad.rn - p["expected"]["rn"]) <= 0.05
    assert abs(rad.rnl - p["expected"]["rnl"]) <= 0.05


# --- wind profile ----------------------------------------------------------------

def test_wind_to_2m_frozen(oracle_fixture):
    expected = oracle_fixture["scalar_checks"]["wind2m_from_3ms_at_10m"]
    assert fao56.wind_to_2m(3.0, 10.0) == pytest.approx(expected, **EXACT)


def test_wind_zero_stays_zero():
    assert fao56.wind_to_2m(0.0, 10.0) == 0.0
    assert fao56.wind_to_2m(0.0, 2.0) == 0.0


def test_wind_factor_at_2m_is_nearly_identity(oracle_fixture):
    factor = fao56.wind_to_2m(1.0, 2.0)
    assert abs(factor - 1.0) < 3e-4
    assert factor == pytest.approx(
        oracle_fixture["scalar_checks"]["wind2m_factor_at_2m"], **EXACT)


def test_wind_domain_error():
    with pytest.raises(DomainError):
        fao56.wind_to_2m(3.0, 0.05)
    with pytest.raises(RangeError):
        fao56.wind_to_2m(-1.0, 10.0)


# --- the full equation -------------------------------------------------------------

def test_et0_matches_oracle_on_every_fixture_point(oracle_fixture):
    for p in oracle_fixture["et0_points"]:
        result = fao56.et0_fao56pm(_inputs_from_point(p))
        assert abs(result.et0 - p["expected_et0"]) <= 0.01, p["name"]
        inter = result.intermediates
        assert inter["ea"] <= inter["es"]
        for name in ("delta", "gamma", "es", "ea", "ra", "rns", "rnl", "rn"):
            assert math.isfinite(inter[name])


def test_et0_zero_when_numerator_terms_vanish():
    # saturated air kills the aerodynamic deficit exactly; the shortwave
    # level is bisected to the radiation-balance zero crossing
    def raw_et0(solar):
        return fao56.et0_fao56pm(fao56.Et0Inputs(
            temp_max=5.0, temp_min=5.0, wind_2m=0.0, solar_rad=solar,
            latitude=math.radians(55.0), elevation=0.0, day_of_year=355,
            humidity_mode="average", rh_avg=100.0))

    probe = raw_et0(0.0)
    assert probe.intermediates["es"] == probe.intermediates["ea"]
    lo, hi = 0.0, probe.intermediates["rso"]
    assert raw_et0(lo).intermediates["rn"] > 0.0 > raw_et0(hi).intermediates["rn"]
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if raw_et0(mid).intermediates["rn"] > 0.0:
            lo = mid
        else:
            hi = mid
    result = raw_et0(lo)
    assert abs(result.intermediates["rn"]) < 1e-10
    assert result.et0 == pytest.approx(0.0, abs=1e-10)


def test_et0_monotone_in_solar_radiation():
    def et0(solar):
        return fao56.et0_fao56pm(fao56.Et0Inputs(
            temp_max=28.0, temp_min=16.0, wind_2m=2.0, solar_rad=solar,
            latitude=math.radians(40.0), elevation=100.0, day_of_year=180,
            humidity_mode="average", rh_avg=55.0)).et0

    values = [et0(s) for s in [0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0]]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_et0_bit_identical_on_repeat(oracle_fixture):
    p = oracle_fixture["et0_points"][1]
    first = fao56.et0_fao56pm(_inputs_from_point(p))
    second = fao56.et0_fao56pm(_inputs_from_point(p))
    assert first.et0 == second.et0
    assert first.intermediates == second.intermediates


def test_et0_latitude_sign_symmetry():
    def et0(lat_deg, doy):
        return fao56.et0_fao56pm(fao56.Et0Inputs(
            temp_max=24.0, temp_min=14.0, wind_2m=2.0, solar_rad=16.0,
            latitude=math.radians(lat_deg), elevation=50.0, day_of_year=doy,
            humidity_mode="average", rh_avg=60.0)).et0

    for deg in (10.0, 25.0, 45.0):
        for j in (74, 91, 108, 257, 274, 291):
            a = et0(deg, j)
            rel = min(abs(a - et0(-deg, ((j - 1 + shift) % 365) + 1)) / a
                      for shift in (182, 183))
            assert rel < 0.02


def test_et0_clamps_negative_raw_value():
    # polar night, saturated still air: radiation balance is negative
    result = fao56.et0_fao56pm(fao56.Et0Inputs(
        temp_max=-2.0, temp_min=-8.0, wind_2m=0.0, solar_rad=0.0,
        latitude=math.radians(80.0), elevation=10.0, day_of_year=355,
        humidity_mode="average", rh_avg=95.0))
    assert result.et0 == 0.0
    assert result.clamped
    assert result.intermediates["et0_raw"] < 0.0


def test_et0_input_validation():
    with pytest.raises(RangeError):
        fao56.Et0Inputs(temp_max=10.0, temp_min=15.0, wind_2m=1.0, solar_rad=10.0,
                        latitude=0.5, elevation=0.0, day_of_year=100,
                        humidity_mode="average", rh_avg=50.0)
    with pytest.raises(RangeError):
        fao56.Et0Inputs(temp_max=20.0, temp_min=15.0, wind_2m=1.0, solar_rad=10.0,
                        latitude=0.5, elevation=0.0, day_of_year=367,
                        humidity_mode="average", rh_avg=50.0)
    with pytest.raises(RangeError):
        fao56.Et0Inputs(temp_max=20.0, temp_min=15.0, wind_2m=1.0, solar_rad=10.0,
                        latitude=2.0, elevation=0.0, day_of_year=100,
                        humidity_mode="average", rh_avg=50.0)
    with pytest.raises(RangeError):
        fao56.Et0Inputs(temp_max=20.0, temp_min=15.0, wind_2m=1.0, solar_rad=10.0,
                        latitude=0.5, elevation=0.0, day_of_year=100,
                        humidity_mode="extremes", rh_avg=50.0)


def _random_days(n, mode, seed=5):
    rng = np.random.default_rng(seed)
    temp_min = rng.uniform(-15.0, 30.0, n)
    rh_min = rng.uniform(0.0, 90.0, n)
    return dict(
        temp_max=temp_min + rng.uniform(0.0, 18.0, n), temp_min=temp_min,
        wind_2m=rng.uniform(0.0, 8.0, n), solar_rad=rng.uniform(0.0, 32.0, n),
        latitude=rng.uniform(-1.1, 1.1, n), elevation=rng.uniform(0.0, 3000.0, n),
        day_of_year=rng.integers(1, 367, n), humidity_mode=mode,
        rh_max=rh_min + rng.uniform(0.0, 10.0, n), rh_min=rh_min,
        rh_avg=rng.uniform(0.0, 100.0, n))


@pytest.mark.parametrize("mode", fao56.HUMIDITY_MODES)
def test_et0_on_many_days_equals_each_day_alone(mode):
    # the batch-composition contract: a day's result, and every
    # intermediate, does not depend on the batch it is computed in
    days = _random_days(400, mode)
    batch = fao56.et0_fao56pm(fao56.Et0Inputs(**days))
    assert batch.et0.shape == (400,)
    for i in range(400):
        alone = fao56.et0_fao56pm(fao56.Et0Inputs(**{
            k: v if isinstance(v, str) else v[i].item() for k, v in days.items()}))
        assert alone.et0 == batch.et0[i]
        assert alone.intermediates == {k: v[i] for k, v in batch.intermediates.items()}


@pytest.mark.parametrize("field, bad", [
    ("temp_min", 40.0),       # above temp_max
    ("rh_avg", 101.0),
    ("day_of_year", 0),
    ("solar_rad", -1.0),
])
def test_array_checks_name_the_first_bad_row(field, bad):
    days = _random_days(10, "average")
    days[field][[6, 3]] = bad
    with pytest.raises(RangeError) as err:
        fao56.Et0Inputs(**days)
    assert err.value.row == 3 and str(err.value).startswith("row 3: ")


def test_scalar_helpers_accept_arrays():
    t = np.array([-5.0, 0.0, 20.0])
    assert np.array_equal(fao56.saturation_vapor_pressure(t),
                          [fao56.saturation_vapor_pressure(v) for v in t.tolist()])
    with pytest.raises(DomainError) as err:
        fao56.wind_to_2m(np.array([1.0, 2.0]), np.array([10.0, 0.05]))
    assert err.value.row == 1


# --- crop scaling and unit bridge ----------------------------------------------

def test_crop_et_identity_and_zero():
    assert fao56.crop_et(4.0, 1.0) == 4.0
    assert fao56.crop_et(4.0, 0.0) == 0.0


def test_crop_et_hand_value():
    assert fao56.crop_et(3.2, 0.85) == pytest.approx(2.72, rel=1e-12)


def test_crop_et_rejects_negative_kc():
    with pytest.raises(RangeError):
        fao56.crop_et(4.0, -0.1)


def test_sr_conversion():
    assert fao56.sr_wm2_to_mj(0.0) == 0.0
    assert fao56.sr_wm2_to_mj(1000.0 / 86.4) == pytest.approx(1.0, rel=1e-12)
    assert fao56.sr_wm2_to_mj(250.0) == pytest.approx(21.6, rel=1e-12)
    with pytest.raises(RangeError):
        fao56.sr_wm2_to_mj(-1.0)
