"""Station CSV, unit conversion, record invariants, providers, alignment."""

import datetime as dt
import gc
import hashlib
import io
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from etoforge.errors import (AuthError, CacheMiss, DuplicateColumn, DuplicateDate,
                             MissingColumn, ProviderSchemaError, RangeError,
                             RateLimited, UnitError)
from etoforge.synthetic import (synthetic_forecasts, synthetic_observations, synthetic_site,
                                write_synthetic_cache)
from etoforge.weather import (AlignedPair, DailyObservation, ForecastCache,
                              ForecastRecord, ForecastTable, SiteMetadata, WsSchema,
                              align_horizons, by_date, fetch_forecasts,
                              load_provider_mapping, load_ws_schema,
                              normalize_payload, parse_ws_csv,
                              providers, records_from_jsonl, records_from_npz,
                              records_to_jsonl, records_to_npz, serialize_ws_csv,
                              splice_runs, units, ws_schema_text)

D = dt.date


def _obs(day, **kw):
    base = dict(temp_max=25.0, temp_min=15.0, temp_avg=20.0, rh_max=90.0,
                rh_min=40.0, rh_avg=65.0, wind_avg=2.0, sr_avg=220.0,
                precip=0.0)
    base.update(kw)
    return DailyObservation(date=day, **base)


def _fc(day, horizon=0, provider="VC", **kw):
    base = dict(temp_max=25.0, temp_min=15.0, rh_avg=65.0, wind_avg=2.0)
    base.update(kw)
    return ForecastRecord(provider=provider, target_date=day,
                          issue_date=day - dt.timedelta(days=horizon), **base)


# --- record invariants ---------------------------------------------------------

def test_observation_temperature_ordering():
    with pytest.raises(RangeError):
        _obs(D(2022, 6, 1), temp_min=21.0, temp_avg=20.0)
    with pytest.raises(RangeError):
        _obs(D(2022, 6, 1), temp_avg=26.0)


def test_observation_humidity_bounds():
    with pytest.raises(RangeError):
        _obs(D(2022, 6, 1), rh_avg=120.0, rh_max=120.0)
    with pytest.raises(RangeError):
        _obs(D(2022, 6, 1), rh_min=70.0, rh_avg=65.0)


def test_observation_nonnegative_fields():
    with pytest.raises(RangeError):
        _obs(D(2022, 6, 1), wind_avg=-0.1)
    with pytest.raises(RangeError):
        _obs(D(2022, 6, 1), sr_avg=-5.0)
    with pytest.raises(RangeError):
        _obs(D(2022, 6, 1), precip=-1.0)


def test_forecast_horizon_derived_and_bounded():
    record = _fc(D(2022, 6, 10), horizon=3)
    assert record.horizon == 3
    with pytest.raises(RangeError):
        _fc(D(2022, 6, 10), horizon=16)
    with pytest.raises(RangeError):
        _fc(D(2022, 6, 10), horizon=-1)


def test_forecast_provider_enum():
    with pytest.raises(RangeError):
        _fc(D(2022, 6, 10), provider="NOAA")


def test_site_metadata_invariants():
    with pytest.raises(RangeError):
        SiteMetadata("x", latitude=95.0, longitude=0.0, elevation=0.0,
                     wind_sensor_height=2.0)
    with pytest.raises(RangeError):
        SiteMetadata("x", latitude=10.0, longitude=0.0, elevation=0.0,
                     wind_sensor_height=0.0)
    site = SiteMetadata("x", latitude=37.0, longitude=-8.0, elevation=10.0,
                        wind_sensor_height=2.0)
    assert site.solar_tz_offset_hours == pytest.approx(-8.0 / 15.0)


def test_aligned_pair_date_agreement():
    obs = _obs(D(2022, 6, 1))
    with pytest.raises(RangeError):
        AlignedPair(date=D(2022, 6, 2), observed=obs, forecast=_fc(D(2022, 6, 2)))


# --- units -----------------------------------------------------------------------

def test_canonical_units_are_identity():
    for field_name, quantity in units.FIELD_QUANTITY.items():
        canonical = units.CANONICAL[quantity]
        assert units.converter(quantity, canonical)(12.5) == 12.5


def test_common_conversions():
    assert units.converter("temp", "degF")(77.0) == 25.0
    assert units.converter("temp", "K")(300.65) == pytest.approx(27.5)
    assert units.converter("wind", "km/h")(36.0) == 10.0
    assert units.converter("rh", "fraction")(0.55) == pytest.approx(55.0)
    assert units.converter("precip", "in")(1.0) == 25.4
    assert units.converter("pressure", "hPa")(1013.0) == 101.3


def test_unknown_unit_rejected():
    with pytest.raises(UnitError):
        units.converter("temp", "furlongs")
    with pytest.raises(UnitError):
        units.converter("wind", "degC")


# --- station CSV -----------------------------------------------------------------

CUSTOM_HEADER = ("day,tmax,tmin,tavg,hmax,hmin,havg,wind,solar,rain\n")
CUSTOM_COLUMNS = {
    "date": "day", "temp_max": "tmax", "temp_min": "tmin", "temp_avg": "tavg",
    "rh_max": "hmax", "rh_min": "hmin", "rh_avg": "havg",
    "wind_avg": "wind", "sr_avg": "solar", "precip": "rain",
}
CUSTOM_UNITS = {
    "tmax": "degF", "tmin": "degF", "tavg": "degF",
    "hmax": "percent", "hmin": "percent", "havg": "percent",
    "wind": "km/h", "solar": "W/m2", "rain": "mm",
}


def test_parse_fahrenheit_row():
    csv_text = CUSTOM_HEADER + "2022-06-01,77.0,59.0,68.0,90,40,65,7.2,220,0\n"
    schema = WsSchema(units=CUSTOM_UNITS, columns=CUSTOM_COLUMNS)
    rows = parse_ws_csv(io.BytesIO(csv_text.encode()), schema)
    assert len(rows) == 1
    assert rows[0].temp_max == 25.0
    assert rows[0].temp_min == 15.0
    assert rows[0].wind_avg == 2.0


def test_parse_rh_out_of_range_reports_row():
    csv_text = CUSTOM_HEADER + "2022-06-01,77.0,59.0,68.0,90,40,120,7.2,220,0\n"
    schema = WsSchema(units=CUSTOM_UNITS, columns=CUSTOM_COLUMNS)
    with pytest.raises(RangeError) as err:
        parse_ws_csv(io.BytesIO(csv_text.encode()), schema)
    assert "row 1" in str(err.value)


def test_non_utf8_stream_is_a_range_error():
    with pytest.raises(RangeError, match="not UTF-8"):
        parse_ws_csv(io.BytesIO(b"date,temp_max\n\xff\xfe"), WsSchema.canonical())


def test_parse_two_year_synthetic_file(synth):
    _, observations, _ = synth
    text = serialize_ws_csv(observations)
    parsed = parse_ws_csv(io.BytesIO(text.encode()), WsSchema.canonical())
    assert len(parsed) == 730
    assert all(b.date > a.date for a, b in zip(parsed, parsed[1:]))


def test_round_trip_is_bit_exact(synth):
    _, observations, _ = synth
    sample = list(observations[:40])
    sample.append(_obs(observations[-1].date + dt.timedelta(days=1),
                       sr_max=None, pressure_avg=None))
    parsed = parse_ws_csv(io.BytesIO(serialize_ws_csv(sample).encode()),
                          WsSchema.canonical())
    assert list(parsed) == sorted(sample, key=lambda o: o.date)


def test_missing_column():
    schema = WsSchema(units=CUSTOM_UNITS,
                      columns=dict(CUSTOM_COLUMNS, rh_avg="Hum"))
    csv_text = CUSTOM_HEADER + "2022-06-01,77,59,68,90,40,65,7.2,220,0\n"
    with pytest.raises(MissingColumn):
        parse_ws_csv(io.BytesIO(csv_text.encode()), schema)


def test_undeclared_and_unknown_units():
    no_unit = dict(CUSTOM_UNITS)
    del no_unit["wind"]
    csv_text = CUSTOM_HEADER + "2022-06-01,77,59,68,90,40,65,7.2,220,0\n"
    with pytest.raises(UnitError):
        parse_ws_csv(io.BytesIO(csv_text.encode()),
                     WsSchema(units=no_unit, columns=CUSTOM_COLUMNS))
    bad_unit = dict(CUSTOM_UNITS, wind="stadia")
    with pytest.raises(UnitError):
        parse_ws_csv(io.BytesIO(csv_text.encode()),
                     WsSchema(units=bad_unit, columns=CUSTOM_COLUMNS))


@pytest.mark.parametrize("rows", ["", "2022-06-01,77,59,68,90,40,65,7.2,220,0\n"],
                         ids=["header-only", "one-row"])
def test_wrong_quantity_unit_fails_before_any_row(rows):
    schema = WsSchema(units=dict(CUSTOM_UNITS, wind="degC"), columns=CUSTOM_COLUMNS)
    with pytest.raises(UnitError, match="unit 'degC' is not a wind unit"):
        parse_ws_csv(io.BytesIO((CUSTOM_HEADER + rows).encode()), schema)


def test_missing_column_is_reported_before_a_missing_unit():
    no_unit = dict(CUSTOM_UNITS)
    del no_unit["wind"]
    schema = WsSchema(units=no_unit, columns=dict(CUSTOM_COLUMNS, rh_avg="Hum"))
    csv_text = CUSTOM_HEADER + "2022-06-01,77,59,68,90,40,65,7.2,220,0\n"
    with pytest.raises(MissingColumn, match="'Hum'"):
        parse_ws_csv(io.BytesIO(csv_text.encode()), schema)


def test_duplicate_date_rejected():
    csv_text = (CUSTOM_HEADER
                + "2022-06-01,77,59,68,90,40,65,7.2,220,0\n"
                + "2022-06-01,78,60,69,90,40,65,7.2,220,0\n")
    with pytest.raises(DuplicateDate):
        parse_ws_csv(io.BytesIO(csv_text.encode()),
                     WsSchema(units=CUSTOM_UNITS, columns=CUSTOM_COLUMNS))


def test_rows_sorted_regardless_of_file_order():
    csv_text = (CUSTOM_HEADER
                + "2022-06-03,77,59,68,90,40,65,7.2,220,0\n"
                + "2022-06-01,77,59,68,90,40,65,7.2,220,0\n"
                + "2022-06-02,77,59,68,90,40,65,7.2,220,0\n")
    rows = parse_ws_csv(io.BytesIO(csv_text.encode()),
                        WsSchema(units=CUSTOM_UNITS, columns=CUSTOM_COLUMNS))
    assert [r.date.day for r in rows] == [1, 2, 3]


def test_by_date_keeps_the_order_of_rows_of_one_date():
    rows = [_obs(D(2022, 6, 2)), _obs(D(2022, 6, 1), temp_max=26.0), _obs(D(2022, 6, 2), precip=1.0),
            _obs(D(2022, 6, 1), temp_max=27.0)]
    assert list(by_date(rows)) == [rows[1], rows[3], rows[0], rows[2]]


def test_sidecar_round_trip(tmp_path):
    path = tmp_path / "ws.schema"
    path.write_text(ws_schema_text())
    schema = load_ws_schema(path)
    assert schema.units == WsSchema.canonical().units


def test_sidecar_declaring_a_column_twice_names_the_line(tmp_path):
    path = tmp_path / "ws.schema"
    path.write_text("# units\ntemp_max=degC\nrh_avg=percent\ntemp_max = degF\n")
    with pytest.raises(UnitError, match=rf"^{path}:4: column 'temp_max' is declared twice$"):
        load_ws_schema(path)


@pytest.mark.parametrize("declared", [CUSTOM_UNITS, {}], ids=["units", "no-units"])
def test_repeated_mapped_header_is_rejected_before_units_and_rows(declared):
    # a dict per row would take the last `tmax` cell (95 degF), an index the first
    text = CUSTOM_HEADER.rstrip("\n") + ",tmax\n2022-06-01,77,59,68,90,40,120,7.2,220,0,95\n"
    with pytest.raises(DuplicateColumn, match=r"^column 'tmax' \(for temp_max\) appears 2 times"):
        parse_ws_csv(io.StringIO(text), WsSchema(units=declared, columns=CUSTOM_COLUMNS))


def test_repeated_unmapped_header_is_ignored():
    text = "note," + CUSTOM_HEADER.rstrip("\n") + ",note\nx,2022-06-01,77,59,68,90,40,65,7.2,220,0,y\n"
    table = parse_ws_csv(io.StringIO(text), WsSchema(units=CUSTOM_UNITS, columns=CUSTOM_COLUMNS))
    assert table[0].temp_max == 25.0 and len(table) == 1


def test_station_parse_adds_fewer_gc_objects_than_rows(synth):
    site, _, _ = synth
    text = serialize_ws_csv(synthetic_observations(site, n_days=1460, seed=11))
    gc.collect()
    before = len(gc.get_objects())
    table = parse_ws_csv(io.StringIO(text), WsSchema.canonical())
    added = len(gc.get_objects()) - before
    assert len(table) == 1460 and added < len(table)


# --- alignment -------------------------------------------------------------------

def test_align_basic_coverage():
    days = [D(2022, 6, 1) + dt.timedelta(days=i) for i in range(10)]
    observations = [_obs(d) for d in days]
    forecasts = [_fc(d, horizon=3) for d in days[:7]]
    result = align_horizons(observations, forecasts, 3)
    assert result.matched == 7
    assert result.coverage == 0.7
    assert [p.date for p in result.pairs] == days[:7]


def test_align_disjoint_ranges():
    observations = [_obs(D(2022, 6, 1))]
    forecasts = [_fc(D(2023, 6, 1), horizon=2)]
    result = align_horizons(observations, forecasts, 2)
    assert result.pairs == [] and result.coverage == 0.0


def test_align_three_month_hole():
    # observations lose Jun-Aug; forecasts cover the whole year at d2
    all_days = [D(2022, 1, 1) + dt.timedelta(days=i) for i in range(365)]
    hole = {d for d in all_days if d.month in (6, 7, 8)}
    observations = [_obs(d) for d in all_days if d not in hole]
    forecasts = [_fc(d, horizon=2) for d in all_days]
    result = align_horizons(observations, forecasts, 2)
    assert result.matched == 365 - len(hole) == 273
    assert result.coverage == 1.0
    assert not any(p.date in hole for p in result.pairs)

    # mirrored: the forecast side has the hole instead
    flipped = align_horizons([_obs(d) for d in all_days],
                             [_fc(d, horizon=2) for d in all_days if d not in hole],
                             2)
    assert flipped.matched == 273
    assert flipped.coverage == pytest.approx(273 / 365)


def test_align_output_independent_of_input_order():
    days = [D(2022, 6, 1) + dt.timedelta(days=i) for i in range(8)]
    observations = [_obs(d) for d in days]
    forecasts = [_fc(d, horizon=1) for d in days]
    forward = align_horizons(observations, forecasts, 1)
    shuffled = align_horizons(list(reversed(observations)),
                              list(reversed(forecasts)), 1)
    assert forward == shuffled


def test_align_pairs_match_horizon_and_date():
    days = [D(2022, 6, 1) + dt.timedelta(days=i) for i in range(6)]
    observations = [_obs(d) for d in days]
    forecasts = [_fc(d, horizon=h) for d in days for h in (0, 2, 5)]
    result = align_horizons(observations, forecasts, 2)
    for pair in result.pairs:
        assert pair.forecast.horizon == 2
        assert pair.forecast.target_date == pair.date == pair.observed.date


def test_align_shares_no_records_between_horizons():
    days = [D(2022, 6, 1) + dt.timedelta(days=i) for i in range(6)]
    observations = [_obs(d) for d in days]
    forecasts = [_fc(d, horizon=h) for d in days for h in range(6)]
    def keys(horizon):
        return {(p.forecast.target_date, p.forecast.issue_date)
                for p in align_horizons(observations, forecasts, horizon).pairs}
    at2, at5 = keys(2), keys(5)
    assert at2 and at5 and not (at2 & at5)


def test_align_takes_first_provider_in_name_order():
    days = [D(2022, 6, 1), D(2022, 6, 2)]
    vc = [_fc(d, horizon=2, provider="VC") for d in days]
    owm = [_fc(days[1], horizon=2, provider="OWM")]
    result = align_horizons([_obs(d) for d in days], vc + owm, 2)
    assert [p.forecast for p in result.pairs] == [vc[0], owm[0]]


def test_align_rejects_bad_horizon():
    with pytest.raises(RangeError):
        align_horizons([], [], 16)


# --- provider ingestion -------------------------------------------------------------

VC_BODY_ONE_DAY = json.dumps({
    "days": [{"datetime": "2022-06-01", "tempmax": 27.5, "tempmin": 16.0,
              "humidity": 58.0, "windspeed": 14.4, "precip": 0.0,
              "uvindex": 8}],
    "queryCost": 1,
})


def test_offline_single_payload_identity_replay(tmp_path):
    cache = ForecastCache(tmp_path)
    cache.write("VC", D(2022, 6, 1), VC_BODY_ONE_DAY)
    site = synthetic_site()
    records = fetch_forecasts("VC", site, (D(2022, 6, 1), D(2022, 6, 1)),
                              cache_dir=tmp_path, offline=True)
    assert len(records) == 1
    rec = records[0]
    assert rec.horizon == 0
    assert rec.temp_max == 27.5
    assert rec.wind_avg == pytest.approx(4.0)   # 14.4 km/h
    assert rec.extras["uvindex"] == 8


def test_offline_sixteen_horizons_for_one_date(tmp_path):
    site = synthetic_site()
    day = D(2022, 6, 16)
    observations = [_obs(day)]
    forecasts = synthetic_forecasts(observations, "VC", seed=5,
                                    noise_base=0.0, noise_slope=0.0)
    write_synthetic_cache(forecasts, tmp_path)
    records = fetch_forecasts("VC", site, (day, day),
                              cache_dir=tmp_path, offline=True)
    assert len(records) == 16
    assert sorted(r.horizon for r in records) == list(range(16))


def test_offline_empty_cache_raises(tmp_path):
    with pytest.raises(CacheMiss):
        fetch_forecasts("VC", synthetic_site(), (D(2022, 6, 1), D(2022, 6, 2)),
                        cache_dir=tmp_path, offline=True)


def test_online_requires_credentials(tmp_path, monkeypatch):
    monkeypatch.delenv("ETOFORGE_VC_API_KEY", raising=False)
    with pytest.raises(AuthError):
        fetch_forecasts("VC", synthetic_site(), (D(2022, 6, 1), D(2022, 6, 1)),
                        cache_dir=tmp_path, offline=False)


def test_online_invalid_key(tmp_path):
    def reject(url, params):
        return 401, {}, "unauthorized"

    with pytest.raises(AuthError):
        fetch_forecasts("VC", synthetic_site(), (D(2022, 6, 1), D(2022, 6, 1)),
                        credentials="bad-key", cache_dir=tmp_path,
                        offline=False, http_get=reject)


def test_online_rate_limited(tmp_path):
    def throttle(url, params):
        return 429, {"Retry-After": "30"}, ""

    with pytest.raises(RateLimited) as err:
        fetch_forecasts("OWM", synthetic_site(), (D(2022, 6, 1), D(2022, 6, 1)),
                        credentials="key", cache_dir=tmp_path,
                        offline=False, http_get=throttle)
    assert err.value.retry_after == 30.0


def test_online_caches_verbatim_before_normalizing(tmp_path):
    day = D(2022, 6, 1)
    seen = []

    def serve(url, params):
        seen.append(url)
        return 200, {}, VC_BODY_ONE_DAY

    records = fetch_forecasts("VC", synthetic_site(), (day, day),
                              credentials="key", cache_dir=tmp_path,
                              offline=False, http_get=serve)
    cache = ForecastCache(tmp_path)
    assert cache.read("VC", day) == VC_BODY_ONE_DAY
    assert len(seen) == 16   # one request per issue date in the window
    assert any(r.horizon == 0 for r in records)

    # replay: already-cached issue dates are not re-fetched
    seen.clear()
    fetch_forecasts("VC", synthetic_site(), (day, day), credentials="key",
                    cache_dir=tmp_path, offline=False, http_get=serve)
    assert seen == []


def test_malformed_entry_skipped_not_fatal(tmp_path, caplog):
    body = json.dumps({"days": [
        {"datetime": "2022-06-01", "tempmax": 27.5, "tempmin": 16.0,
         "humidity": 58.0, "windspeed": 14.4},
        {"datetime": "2022-06-02", "tempmin": 16.0, "humidity": 58.0,
         "windspeed": 14.4},
    ]})
    mapping = load_provider_mapping("VC")
    with caplog.at_level("WARNING"):
        records = normalize_payload(body, D(2022, 6, 1), mapping)
    assert [r.target_date for r in records] == [D(2022, 6, 1)]
    assert "skipping" in caplog.text


@pytest.mark.parametrize("body", [VC_BODY_ONE_DAY[:40], "", json.dumps({"queryCost": 1})],
                         ids=["truncated", "empty", "no-entry-list"])
def test_unreadable_payload_names_provider_and_issue_date(body):
    with pytest.raises(ProviderSchemaError, match="VC issued 2022-06-01"):
        normalize_payload(body, D(2022, 6, 1), load_provider_mapping("VC"))


_ABSENT = object()


def _vc_day(day, **changes):
    """One VC payload entry; a field set to _ABSENT is left out."""
    entry = {"datetime": day.isoformat(), "tempmax": 27.5, "tempmin": 16.0,
             "humidity": 58.0, "windspeed": 14.4, "precip": 0.5, "uvindex": 8}
    entry.update(changes)
    return {k: v for k, v in entry.items() if v is not _ABSENT}


def test_skip_path_keeps_the_good_rows_and_explains_each_bad_one(caplog):
    issued = D(2022, 6, 1)
    day = [issued + dt.timedelta(days=i) for i in range(18)]
    entries = [
        _vc_day(day[0]),
        _vc_day(day[1], tempmax=_ABSENT),              # a required field missing
        _vc_day(day[2], humidity="hot"),               # a text value
        _vc_day(day[3], windspeed=float("nan")),       # a JSON NaN
        _vc_day(day[4], uvindex="kept", precip=_ABSENT),
        _vc_day(day[5], humidity=120),                 # humidity above 100
        _vc_day(day[6], tempmin=30.0),                 # temp_min > temp_max
        _vc_day(day[7], datetime="2022-06-31"),        # a date that does not parse
        _vc_day(day[16]),                              # horizon 16: dropped silently
        _vc_day(day[8], humidity=58, precip=1, tempmax=29),    # integers
        _vc_day(day[9], tempmax="29.5"),                       # a numeric text value
    ]
    with caplog.at_level("WARNING"):
        rows = list(normalize_payload(json.dumps({"days": entries}), issued,
                                      load_provider_mapping("VC")))
    assert [(r.target_date, r.temp_max, r.rh_avg, r.precip, r.extras) for r in rows] == [
        (day[0], 27.5, 58.0, 0.5, {"uvindex": 8}),
        (day[4], 27.5, 58.0, None, {"uvindex": "kept"}),
        (day[8], 29.0, 58.0, 1.0, {"uvindex": 8})]
    assert rows[0].wind_avg == 14.4 / 3.6
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping VC entry issued 2022-06-01: {reason}" for reason in (
            "VC 2022-06-01->2022-06-02: missing 'tempmax'",
            "'humidity'='hot' is not a number",
            "wind_avg=nan is not a finite number",
            "rh_avg=120.0 above 100.0",
            "temp_min=30.0 > temp_max=27.5",
            "day is out of range for month",
            "'tempmax'='29.5' is not a number")]


_OWM_NOON = dt.datetime(2022, 6, 2, 12, tzinfo=dt.timezone.utc).timestamp()


_MAPS = Path(units.__file__).parent.parent / "provider_maps"


@pytest.mark.parametrize("provider, temp_unit, bad_entry", [
    ("VC", "degC", '{"datetime": "2022-06-02", "tempmax": 1%s, "tempmin": 16.0, '
                   '"humidity": 58.0, "windspeed": 14.4}' % ("0" * 400)),
    ("VC", "degC", '{"datetime": "2022-06-02", "tempmax": 27.5, "tempmin": 16.0, '
                   '"humidity": 58.0, "windspeed": 14.4, "precip": 1%s}' % ("0" * 400)),
    ("VC", "degF", '{"datetime": "2022-06-02", "tempmax": 1e308, "tempmin": 60.8, '
                   '"humidity": 58.0, "windspeed": 14.4}'),
    ("OWM", "degC", '{"dt": 1e20, "temp": {"min": 16.0, "max": 27.0}, "humidity": 60.0, '
                    '"speed": 3.0}'),
    ("OWM", "degC", '{"dt": 1e999, "temp": {"min": 16.0, "max": 27.0}, "humidity": 60.0, '
                    '"speed": 3.0}'),
], ids=["vc-integer-beyond-float", "vc-optional-integer-beyond-float",
        "vc-degf-conversion-overflows", "owm-dt-1e20", "owm-dt-1e999"])
def test_oversized_number_skips_the_entry(provider, temp_unit, bad_entry, tmp_path, caplog):
    doc = json.loads((_MAPS / f"{provider.lower()}.json").read_text())
    for name in ("temp_max", "temp_min"):
        doc["fields"][name]["unit"] = temp_unit
    (tmp_path / "map.json").write_text(json.dumps(doc))
    good = (json.dumps(_vc_day(D(2022, 6, 1))) if provider == "VC" else json.dumps(
        {"dt": _OWM_NOON, "temp": {"min": 16.0, "max": 27.0}, "humidity": 60.0, "speed": 3.0}))
    body = '{"%s": [%s, %s]}' % ("days" if provider == "VC" else "list", good, bad_entry)
    with caplog.at_level("WARNING"), warnings.catch_warnings():
        warnings.simplefilter("error")   # an overflow warning must not stand in for the skip
        rows = normalize_payload(body, D(2022, 6, 1),
                                 load_provider_mapping(provider, tmp_path / "map.json"))
    assert len(rows) == 1
    assert [r.getMessage().startswith(f"skipping {provider} entry issued 2022-06-01: ")
            for r in caplog.records] == [True]


def test_concat_keeps_one_kind_of_source():
    ingested = normalize_payload(json.dumps({"days": [_vc_day(D(2022, 6, 1))]}),
                                 D(2022, 6, 1), load_provider_mapping("VC"))
    joined = ForecastTable.concat([ingested, ingested])
    assert [r.extras for r in joined] == [{"uvindex": 8}] * 2
    other = ForecastRecord("OWM", D(2022, 6, 2), D(2022, 6, 1), 25.0, 15.0,
                           extras={"pop": 0.5, "clouds": {"all": 20}})
    parsed = records_from_jsonl(records_to_jsonl([other]))
    mixed = ForecastTable.concat([ingested, parsed])
    assert mixed.extras.tolist() == ['{"uvindex": 8}', '{"clouds": {"all": 20}, "pop": 0.5}']
    assert [r.extras for r in mixed] == [{"uvindex": 8}, {"clouds": {"all": 20}, "pop": 0.5}]


@pytest.mark.parametrize("code", [-1, 5])
def test_from_json_names_a_provider_code_out_of_range(code):
    day = D(2022, 6, 1).toordinal()
    fields = {"temp_max": [25.0], "temp_min": [15.0], "rh_avg": [None], "wind_avg": [None],
              "precip": [None]}
    with pytest.raises(RangeError, match=f"provider code {code} outside 0..1") as err:
        ForecastTable.from_json([code], [day], [day], fields, ["{}"], [7])
    assert err.value.row == 7


def test_mapping_is_compiled_at_load():
    from etoforge.weather.normalize import _mapping_from_dict

    doc = json.loads((_MAPS / "vc.json").read_text())
    mapping = _mapping_from_dict(doc)
    assert mapping.fields["temp_max"].keys == ("tempmax",)
    assert mapping.fields["wind_avg"].convert(36.0) == 10.0
    assert mapping.consumed == {"datetime", "tempmax", "tempmin", "humidity", "windspeed",
                                "precip"}
    with pytest.raises(UnitError):
        _mapping_from_dict({**doc, "fields": {"temp_max": {"path": "t", "unit": "furlongs"}}})
    with pytest.raises(ProviderSchemaError):
        _mapping_from_dict({**doc, "target_date": {"path": "datetime", "kind": "julian"}})
    with pytest.raises(ProviderSchemaError):
        _mapping_from_dict({**doc, "fields": {"sr_avg": {"path": "sr", "unit": "W/m2"}}})


def test_owm_epoch_dates_respect_tz_offset():
    stamp = dt.datetime(2022, 6, 1, 23, 30, tzinfo=dt.timezone.utc).timestamp()
    body = json.dumps({"list": [{
        "dt": stamp, "temp": {"min": 16.0, "max": 27.0},
        "humidity": 60.0, "speed": 3.0, "rain": 0.0}]})
    mapping = load_provider_mapping("OWM")
    west = normalize_payload(body, D(2022, 6, 1), mapping, tz_offset_hours=-1.0)
    east = normalize_payload(body, D(2022, 6, 2), mapping, tz_offset_hours=2.0)
    assert west[0].target_date == D(2022, 6, 1)
    assert east[0].target_date == D(2022, 6, 2)


def test_payload_keys_hash_the_normalizing_sources_only():
    """The context of a payload's key covers the offset, the package version and the
    sources the rows depend on: the normalizing module, `records`, `units` and the
    bundled mappings. The fetch, cache and store code (`providers`) is not among them."""
    import etoforge
    from etoforge.weather import normalize, records
    maps = Path(etoforge.__file__).parent / "provider_maps"
    sources = [Path(normalize.__file__), Path(records.__file__), Path(units.__file__),
               maps / "vc.json", maps / "owm.json"]
    text = repr((2.5, etoforge.__version__)).encode() + b"".join(p.read_bytes() for p in sources)
    assert providers._payload_context(2.5) == hashlib.sha256(text).digest()
    assert providers._payload_context(2.5) != providers._payload_context(-2.5)


@pytest.mark.parametrize("offset", [float("nan"), float("inf"), 1e20, 100.0, -24.5])
def test_bad_tz_offset_is_a_range_error(tmp_path, offset):
    with pytest.raises(RangeError, match="tz_offset_hours"):
        normalize_payload('{"list": []}', D(2022, 6, 1), load_provider_mapping("OWM"), offset)
    ForecastCache(tmp_path).write("VC", D(2022, 6, 1), VC_BODY_ONE_DAY)
    with pytest.raises(RangeError, match="tz_offset_hours"):
        fetch_forecasts("VC", synthetic_site(), (D(2022, 6, 1), D(2022, 6, 1)),
                        cache_dir=tmp_path, offline=True, tz_offset_hours=offset)


def test_fetch_checks_tz_offset_before_reading_any_payload(tmp_path):
    """A bad offset fails as RangeError on an empty cache, and online fetches nothing."""
    with pytest.raises(RangeError, match="tz_offset_hours=nan outside"):
        fetch_forecasts("OWM", synthetic_site(), (D(2022, 6, 1), D(2022, 6, 1)),
                        cache_dir=tmp_path, offline=True, tz_offset_hours=float("nan"))
    seen = []

    def serve(url, params):
        seen.append(url)
        return 200, {}, VC_BODY_ONE_DAY

    with pytest.raises(RangeError, match="tz_offset_hours=30.0 outside"):
        fetch_forecasts("VC", synthetic_site(), (D(2022, 6, 1), D(2022, 6, 1)),
                        credentials="key", cache_dir=tmp_path, offline=False,
                        http_get=serve, tz_offset_hours=30.0)
    assert seen == [] and not any(tmp_path.iterdir())


def test_mapping_format_version_checked(tmp_path):
    bad = tmp_path / "map.json"
    bad.write_text(json.dumps({"format_version": 99, "provider": "VC",
                               "list_path": "days",
                               "target_date": {"path": "datetime", "kind": "iso"},
                               "fields": {}}))
    with pytest.raises(ProviderSchemaError):
        load_provider_mapping("VC", path=bad)


def test_normalizing_canonical_record_changes_nothing():
    # canonical-unit payload fields survive normalization unchanged
    mapping = load_provider_mapping("OWM")   # OWM mapping is all-canonical units
    body = json.dumps({"list": [{
        "dt": dt.datetime(2022, 6, 3, 12, tzinfo=dt.timezone.utc).timestamp(),
        "temp": {"min": 16.25, "max": 27.125}, "humidity": 58.5,
        "speed": 3.75, "rain": 1.5}]})
    rec = normalize_payload(body, D(2022, 6, 1), mapping, tz_offset_hours=0.0)[0]
    assert (rec.temp_max, rec.temp_min, rec.rh_avg, rec.wind_avg, rec.precip) \
        == (27.125, 16.25, 58.5, 3.75, 1.5)


def test_jsonl_store_round_trip(synth):
    _, _, forecasts = synth
    sample = forecasts["VC"][:50] + forecasts["OWM"][:50]
    again = records_from_jsonl(records_to_jsonl(sample))
    assert sorted(again, key=lambda r: (r.provider, r.target_date, r.issue_date)) \
        == sorted(sample, key=lambda r: (r.provider, r.target_date, r.issue_date))


def _store_lines():
    """Three stored records as store lines, one of them after a blank line."""
    days = [D(2022, 6, d) for d in (1, 2, 3)]
    lines = records_to_jsonl([_fc(d, horizon=1) for d in days]).splitlines()
    return [lines[0], "", lines[1], lines[2]]


def _unordered_temperatures(line):
    doc = json.loads(line)
    doc["temp_min"] = doc["temp_max"] + 1.0
    return json.dumps(doc)


def _with(**changes):
    """A corruption that overwrites fields of a stored line."""
    return lambda line: json.dumps({**json.loads(line), **changes})


@pytest.mark.parametrize("corrupt", [
    lambda line: line + " x",
    lambda line: line + " " + line,
    lambda line: "[]",
    lambda line: "1",
    _unordered_temperatures,
    _with(rh_avg=float("nan")),
    _with(wind_avg=float("inf")),
    _with(precip=float("nan")),
    _with(temp_max="25.0"),
    _with(temp_max=10 ** 400),
    _with(wind_avg=2 ** 1024 - 2 ** 971 + 1),
    _with(provider="XX"),
    _with(issue_date="2022-05-01"),
], ids=["trailing-text", "two-objects", "array", "number", "temp-min-above-max",
        "nan-humidity", "infinite-wind", "nan-precip", "text-temperature",
        "integer-beyond-float", "integer-rounding-to-float-max", "unknown-provider",
        "horizon-above-15"])
def test_store_bad_line_names_its_physical_line(corrupt):
    lines = _store_lines()
    assert len(records_from_jsonl("\n".join(lines))) == 3
    lines[3] = corrupt(lines[3])
    with pytest.raises(RangeError) as err:
        records_from_jsonl("\n".join(lines))
    assert err.value.row == 4


def test_store_bad_line_after_a_bad_record_names_the_record():
    lines = _store_lines()
    lines[0] = _with(rh_avg=float("nan"))(lines[0])
    lines[3] = lines[3][:20]
    with pytest.raises(RangeError) as err:
        records_from_jsonl("\n".join(lines))
    assert err.value.row == 1


def test_store_absent_optional_field_reads_back_as_none():
    lines = _store_lines()
    doc = json.loads(lines[2])
    del doc["rh_avg"]
    lines[2] = json.dumps(doc)
    table = records_from_jsonl("\n".join(lines))
    assert table.present["rh_avg"].tolist() == [True, False, True]
    assert table[1].rh_avg is None and table[1].wind_avg == 2.0
    assert table[0].precip is None and not table.present["precip"].any()


def test_store_repeated_key_keeps_the_first_record():
    lines = [line for line in _store_lines() if line]
    repeat = _with(temp_max=30.0)(lines[1])
    for text, first in (([*lines, repeat], 25.0), ([repeat, *lines], 30.0)):
        table = records_from_jsonl("\n".join(text))
        assert len(table) == 4
        rows = table.cell("VC", 1)
        assert [table[r].target_date for r in rows] == [D(2022, 6, d) for d in (1, 2, 3)]
        assert table[rows[1]].temp_max == first


def _shifted(record, days):
    later = dt.timedelta(days=days)
    return replace(record, target_date=record.target_date + later,
                   issue_date=record.issue_date + later)


SPLICE_EDITS = {   # an edit of a list of records, given a random generator
    "drop-rows": lambda recs, rng: [r for r in recs if rng.random() > 0.1],
    "value": lambda recs, rng: [replace(r, temp_max=r.temp_max + 0.5) if rng.random() < 0.05
                                else r for r in recs],
    "zero-to-negative-zero": lambda recs, rng: [replace(r, precip=-0.0) if r.precip == 0.0
                                                and rng.random() < 0.3 else r for r in recs],
    "absent-value": lambda recs, rng: [replace(r, rh_avg=None) if rng.random() < 0.05
                                       else r for r in recs],
    "non-ascii-extras": lambda recs, rng: [replace(r, extras={"conditions": "pluie légère"})
                                           if rng.random() < 0.05 else r for r in recs],
    "new-dates": lambda recs, rng: recs + [_shifted(r, 400) for r in recs[:40]],
    "repeated-rows": lambda recs, rng: recs + recs[:7],
    "all-rows": lambda recs, rng: [_shifted(r, 1) for r in recs],
    "no-rows": lambda recs, rng: [],
}


@pytest.mark.parametrize("edit", SPLICE_EDITS)
def test_splice_store_gives_the_formatted_store(synth, monkeypatch, edit):
    """splice_runs over a store and its sidecar's table joins to the bytes
    records_to_jsonl gives for any edit of the rows, in any input order, and
    formats only the rows whose line the store lacks."""
    _, _, forecasts = synth
    base = [replace(r, precip=0.0) if i % 3 == 0 else r for i, r in
            enumerate(forecasts["VC"][:160] + forecasts["OWM"][:160])]
    digest = bytes(range(32))
    store = records_to_jsonl(base).encode("utf-8")
    stored = records_from_npz(io.BytesIO(records_to_npz(base, digest)), digest)
    formatted, format_store = [], providers.store_chunks
    monkeypatch.setattr(providers, "store_chunks",
                        lambda table: formatted.append(len(table)) or format_store(table))
    rng = np.random.default_rng(3)
    for _ in range(5):
        records = SPLICE_EDITS[edit](base, rng)
        records = [records[i] for i in rng.permutation(len(records))]
        want = b"".join(format_store(records))
        formatted.clear()
        assert b"".join(splice_runs(records, stored, store)) == want
        lines = set(store.splitlines(keepends=True))
        fresh = sum(line not in lines for line in want.splitlines(keepends=True)) * bool(records)
        assert formatted == ([fresh] if fresh or not records else [])
    runs = splice_runs(base[::-1], stored, store)
    assert len(runs) == 1 and runs[0] is store


def test_store_load_adds_fewer_gc_objects_than_records(synth):
    _, _, forecasts = synth
    text = records_to_jsonl(forecasts["VC"])
    gc.collect()
    before = len(gc.get_objects())
    table = records_from_jsonl(text)
    added = len(gc.get_objects()) - before
    assert len(table) == len(forecasts["VC"]) and added < len(table)


def test_ingest_adds_fewer_gc_objects_than_records(tmp_path, synth):
    site, observations, forecasts = synth
    write_synthetic_cache(forecasts["VC"], tmp_path)
    days = (observations[0].date, observations[-1].date)
    fetch_forecasts("VC", site, days, cache_dir=tmp_path, offline=True)
    gc.collect()
    before = len(gc.get_objects())
    table = fetch_forecasts("VC", site, days, cache_dir=tmp_path, offline=True)
    added = len(gc.get_objects()) - before
    assert len(table) == len(forecasts["VC"]) and added < len(table)


def test_cache_write_is_atomic_no_temp_left(tmp_path):
    cache = ForecastCache(tmp_path)
    cache.write("VC", D(2022, 6, 1), "{}")
    leftovers = [p for p in tmp_path.rglob("*.tmp")]
    assert leftovers == []
    assert cache.read("VC", D(2022, 6, 1)) == "{}"


def test_cache_read_misses_where_no_payload_file_is(tmp_path):
    """No payload file, a directory in its place, or a file in place of the
    provider's directory is a CacheMiss; a payload that is not UTF-8 raises
    ProviderSchemaError naming it; line ends read as text mode reads them."""
    cache = ForecastCache(tmp_path)
    with pytest.raises(CacheMiss, match="no cached payload for VC issued 2022-06-01"):
        cache.read("VC", D(2022, 6, 1))
    Path(cache.path("VC", D(2022, 6, 1))).mkdir(parents=True)
    with pytest.raises(CacheMiss, match="no cached payload for VC issued 2022-06-01"):
        cache.read("VC", D(2022, 6, 1))
    (tmp_path / "owm").write_text("{}")
    with pytest.raises(CacheMiss, match="no cached payload for OWM issued 2022-06-01"):
        cache.read("OWM", D(2022, 6, 1))
    Path(cache.path("VC", D(2022, 6, 2))).write_bytes(b'{"days": "\xff"}')
    with pytest.raises(ProviderSchemaError, match=r"payload is not UTF-8 \(VC issued 2022-06-02\)"):
        cache.read("VC", D(2022, 6, 2))
    Path(cache.path("VC", D(2022, 6, 3))).write_bytes(b'{\r\n}\r')
    assert cache.read("VC", D(2022, 6, 3)) == "{\n}\n"

