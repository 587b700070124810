"""Property checks of horizon alignment against a sort-based reference."""

import datetime as dt

import pytest

from etoforge.weather import (PROVIDERS, DailyObservation, ForecastRecord,
                              align_horizons)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

START = dt.date(2022, 6, 1)

# (provider, target day offset, horizon, temp_max); temp_max tells records apart
_key = st.tuples(st.sampled_from(PROVIDERS), st.integers(0, 20), st.integers(0, 3),
                 st.integers(0, 30))


def _obs(offset):
    return DailyObservation(
        date=START + dt.timedelta(days=offset), temp_max=25.0, temp_min=15.0,
        temp_avg=20.0, rh_max=90.0, rh_min=40.0, rh_avg=65.0, wind_avg=2.0,
        sr_avg=220.0)


def _fc(provider, offset, horizon, temp_max):
    target = START + dt.timedelta(days=offset)
    return ForecastRecord(provider=provider, target_date=target,
                          issue_date=target - dt.timedelta(days=horizon),
                          temp_max=float(temp_max), temp_min=0.0)


def _reference(observations, forecasts, horizon):
    """Stable sort by (target, provider, issue date); the first record per date wins."""
    chosen = {}
    for fc in sorted((f for f in forecasts if f.horizon == horizon),
                     key=lambda f: (f.target_date, f.provider, f.issue_date)):
        chosen.setdefault(fc.target_date, fc)
    return [(o.date, o, chosen[o.date])
            for o in sorted(observations, key=lambda o: o.date) if o.date in chosen]


_settings = hypothesis.settings(max_examples=150, deadline=None, database=None)


@_settings
@hypothesis.given(days=st.sets(st.integers(0, 20)),
                  keys=st.lists(_key, max_size=60),
                  horizon=st.integers(0, 3))
def test_align_equals_sort_reference(days, keys, horizon):
    """Repeated keys included: the first record in input order wins in both."""
    observations = [_obs(d) for d in sorted(days)]
    forecasts = [_fc(*k) for k in keys]
    result = align_horizons(observations, forecasts, horizon)
    expected = _reference(observations, forecasts, horizon)
    assert [(p.date, p.observed, p.forecast) for p in result.pairs] == expected
    assert result.matched == len(expected)
    assert result.total_observed == len(observations)


@_settings
@hypothesis.given(days=st.sets(st.integers(0, 20)),
                  keys=st.lists(_key, max_size=60, unique_by=lambda k: k[:3]),
                  horizon=st.integers(0, 3), data=st.data())
def test_align_does_not_depend_on_input_order(days, keys, horizon, data):
    observations = [_obs(d) for d in days]
    forecasts = [_fc(*k) for k in keys]
    result = align_horizons(observations, forecasts, horizon)
    shuffled = align_horizons(data.draw(st.permutations(observations)),
                              data.draw(st.permutations(forecasts)), horizon)
    assert shuffled == result
