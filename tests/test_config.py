"""Config keys: each is one RunConfig field, parsed and checked as documented."""

import dataclasses
import datetime as dt
import re
from pathlib import Path

import pytest

from etoforge.config import ConfigError, RunConfig, build_config
from etoforge.regressor import TrainConfig
from etoforge.weather.station_csv import CSV_FIELDS

README = Path(__file__).resolve().parents[1] / "README.md"
KEYS = {f.name for f in dataclasses.fields(RunConfig) if f.metadata}

# one representative raw value per key and the typed value it has always parsed to
PARSED = {
    "site_id": ("Vale do Lobo", "Vale do Lobo"),
    "latitude": ("37.05", 37.05),
    "longitude": ("-8.07", -8.07),
    "elevation": ("12", 12.0),
    "wind_sensor_height": ("10", 10.0),
    "ws_csv": ("data/ws.csv", Path("data/ws.csv")),
    "ws_schema": ("data/ws.schema", Path("data/ws.schema")),
    "forecast_cache": ("cache", Path("cache")),
    "out_dir": ("runs/out", Path("runs/out")),
    "providers": (" vc , owm", ("VC", "OWM")),
    "start_date": ("2020-01-01", dt.date(2020, 1, 1)),
    "end_date": ("2020-12-31", dt.date(2020, 12, 31)),
    "horizons": ("0-3, 7,3", (0, 1, 2, 3, 7)),
    "features": ("temp_max, ra", ("temp_max", "ra")),
    "r2_threshold": ("0.8", 0.8),
    "mape_threshold": ("20", 20.0),
    "seed": ("7", 7),
    "epochs": ("300", 300),
    "batch_size": ("16", 16),
    "learning_rate": ("5e-4", 5e-4),
    "optimizer": ("sgd", "sgd"),
    "validation_fraction": ("0.25", 0.25),
    "patience": ("300", 300),
    "hidden": ("16, 8", (16, 8)),
    "activation": ("tanh", "tanh"),
    "holdout_fraction": ("0.3", 0.3),
    "humidity_mode": ("average", "average"),
    "forecast_wind_height": ("10", 10.0),
    "tz_offset_hours": ("-1.5", -1.5),
    "offline": ("Yes", True),
}

# config errors whose wording predates the one-declaration RunConfig, word for word
MESSAGES = [
    ({"nope": "1"}, "unknown config key 'nope'"),
    ({"ws_columns": "x"}, "unknown config key 'ws_columns'"),
    ({"latitude": "abc"}, "bad value for latitude: 'abc' (could not convert string to float: 'abc')"),
    ({"latitude": "91"}, "latitude=91.0 outside +/- 90 degrees"),
    ({"elevation": "inf"}, "elevation must be finite"),
    ({"wind_sensor_height": "0"}, "wind_sensor_height=0.0 must be finite and above 0.0947 m"),
    ({"providers": "VC,XX"}, "unknown provider 'XX'; expected ('VC', 'OWM')"),
    ({"start_date": "2020-13-01"}, "bad value for start_date: '2020-13-01' (month must be in 1..12)"),
    ({"horizons": "0-16"}, "horizons '0-16' outside 0..15"),
    ({"features": "temp_max,bogus"}, "unknown feature(s) ['bogus']; available: ('temp_max', "
                                     "'temp_min', 'rh_avg', 'wind_avg', 'doy_sin', 'doy_cos', 'ra')"),
    ({"patience": "0"}, "epochs, batch_size and patience must be positive"),
    ({"learning_rate": "0"}, "learning_rate must be positive"),
    ({"optimizer": "rmsprop"}, "unknown optimizer 'rmsprop'"),
    ({"validation_fraction": "1"}, "validation_fraction must be in (0, 1)"),
    ({"holdout_fraction": "1"}, "holdout_fraction must be in (0, 1)"),
    ({"humidity_mode": "mean"}, "humidity_mode must be extremes or average, got 'mean'"),
    ({"forecast_wind_height": "0"}, "forecast_wind_height=0.0 must be finite and above 0.0947 m"),
    ({"tz_offset_hours": "25"}, "tz_offset_hours=25.0 outside +/- 24 hours"),
    ({"offline": "maybe"}, "bad value for offline: 'maybe' ('maybe')"),
    # above 0 but below the height the log wind profile holds at
    ({"wind_sensor_height": "0.05"}, "wind_sensor_height=0.05 must be finite and above 0.0947 m"),
    ({"forecast_wind_height": "0.05"},
     "forecast_wind_height=0.05 must be finite and above 0.0947 m"),
]


def _message_id(overrides):
    """A MESSAGES case's test id: the key it sets, with the value for a 0.05 m
    wind height (the key alone names that key's `0` case)."""
    (key, value), = overrides.items()
    return f"{key}={value}" if value == "0.05" else key


def test_every_key_parses_to_its_typed_value():
    assert set(PARSED) == KEYS
    for key, (raw, want) in PARSED.items():
        got = getattr(build_config(None, {key: raw}), key)
        assert got == want and type(got) is type(want), key
    assert build_config(None, {"hidden": ""}).hidden == ()   # a linear model


def test_ws_column_keys_take_station_csv_fields():
    cfg = build_config(None, {f"ws_column_{name}": name.upper() for name in CSV_FIELDS})
    assert cfg.ws_columns == {name: name.upper() for name in CSV_FIELDS}


@pytest.mark.parametrize("overrides, message", MESSAGES,
                         ids=[_message_id(o) for o, _ in MESSAGES])
def test_config_error_messages_are_stable(overrides, message):
    with pytest.raises(ConfigError) as err:
        build_config(None, overrides)
    assert str(err.value) == message


def test_repeated_features_are_a_config_error():
    # a name given twice would feed one model input from another feature's column
    with pytest.raises(ConfigError, match=re.escape(
            "features repeat a name: ['temp_max', 'temp_max', 'ra']")):
        build_config(None, {"features": "temp_max,temp_max,ra"})


def test_training_defaults_are_train_configs():
    assert RunConfig().train_config() == TrainConfig()


def test_readme_config_table_lists_every_key():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Config keys"):].split("\n## ")[0]
    documented = set()
    for row in section.splitlines():
        if row.startswith("| `"):
            documented.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    assert documented == KEYS | {"ws_column_<field>"}
