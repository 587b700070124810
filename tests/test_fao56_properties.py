"""Property checks of the array physics against the independent scalar oracle."""

import math

import numpy as np
import pytest

from etoforge import fao56

from . import fao56_oracle as oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_day = st.tuples(
    st.floats(-20.0, 35.0),          # temp_min
    st.floats(0.0, 20.0),            # temp_max - temp_min
    st.floats(0.0, 100.0),           # rh_min (extremes) / rh_avg (average)
    st.floats(0.0, 1.0),             # rh_max as a share of (100 - rh_min) above rh_min
    st.floats(0.0, 10.0),            # wind at 2 m
    st.floats(0.0, 40.0),            # shortwave, MJ m-2 day-1
    st.floats(-1.1, 1.1),            # latitude, rad (no polar night)
    st.floats(0.0, 4000.0),          # elevation, m
    st.integers(1, 366),             # day of year
)


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(days=st.lists(_day, min_size=1, max_size=40),
                  mode=st.sampled_from(fao56.HUMIDITY_MODES))
def test_array_physics_matches_scalar_oracle(days, mode):
    cols = [np.array(c) for c in zip(*days)]
    tmin, spread, rh_low, rh_share, wind, solar, lat, elev, doy = cols
    tmax = tmin + spread
    rh_high = rh_low + rh_share * (100.0 - rh_low)
    result = fao56.et0_fao56pm(fao56.Et0Inputs(
        temp_max=tmax, temp_min=tmin, wind_2m=wind, solar_rad=solar,
        latitude=lat, elevation=elev, day_of_year=doy.astype(int),
        humidity_mode=mode, rh_max=rh_high, rh_min=rh_low, rh_avg=rh_low))

    raw = result.intermediates["et0_raw"]
    assert np.all(result.et0 >= 0.0)
    assert np.array_equal(result.clamped, raw < 0.0)
    assert np.array_equal(result.et0, np.maximum(raw, 0.0))
    for i in range(len(days)):
        args = (tmax[i], tmin[i])
        ea = (oracle.ea_from_extremes(*args, rh_high[i], rh_low[i]) if mode == "extremes"
              else oracle.ea_from_mean(*args, rh_low[i]))
        expected, inter = oracle.reference_et0(
            tmax[i], tmin[i], ea, wind[i], solar[i], lat[i], elev[i], int(doy[i]))
        assert math.isclose(result.et0[i], expected, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(raw[i], inter["et0_raw"], rel_tol=1e-12, abs_tol=1e-12)


def _et0(day, solar, mode):
    tmin, spread, rh_low, rh_share, wind, _, lat, elev, doy = day
    return fao56.et0_fao56pm(fao56.Et0Inputs(
        temp_max=tmin + spread, temp_min=tmin, wind_2m=wind, solar_rad=solar,
        latitude=lat, elevation=elev, day_of_year=doy, humidity_mode=mode,
        rh_max=rh_low + rh_share * (100.0 - rh_low), rh_min=rh_low, rh_avg=rh_low))


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(day=_day, above=st.floats(0.0, 20.0), step=st.floats(0.0, 20.0),
                  mode=st.sampled_from(fao56.HUMIDITY_MODES))
def test_et0_non_decreasing_in_shortwave_at_or_above_clear_sky(day, above, step, mode):
    rso = _et0(day, 0.0, mode).intermediates["rso"]
    result = _et0(day, np.array([rso + above, rso + above + step]), mode)
    raw = result.intermediates["et0_raw"]
    assert raw[1] >= raw[0]
    assert result.et0[1] >= result.et0[0]


def test_et0_can_fall_as_shortwave_rises_below_clear_sky():
    # FAO-56's net longwave loss scales with 1.35 * Rs/Rso - 0.35, so below Rso it
    # grows with Rs. With a small Rso (1.75 MJ m-2 day-1, 64.5 N in November) it
    # grows faster than the absorbed shortwave 0.77 * Rs, and raw ET0 falls.
    day = (0.0, 8.0, 80.0, 0.0, 2.0, None, math.radians(64.5), 0.0, 317)
    result = _et0(day, np.array([0.09, 1.73]), "average")
    assert result.intermediates["rso"][0] == pytest.approx(1.7526, abs=1e-4)
    raw = result.intermediates["et0_raw"]
    assert raw[1] < raw[0] - 0.9
