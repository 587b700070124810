"""Run configuration: a flat key=value file plus command-line overrides.

The config file holds one `key = value` pair per line; `#` starts a
comment. Flags always win over file values. Each key is declared once,
as a `RunConfig` field that holds its default and its parser; the README
documents them. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import EtoforgeError
from .fao56 import HUMIDITY_MODES, wind_profile_holds
from .pipelines import FEATURE_NAMES
from .regressor import ACTIVATIONS, TrainConfig
from .weather.normalize import tz_shift
from .weather.records import MAX_HORIZON, PROVIDERS, SiteMetadata
from .weather.station_csv import CSV_FIELDS


class ConfigError(EtoforgeError):
    """Bad or missing configuration; maps to exit code 2."""


def parse_kv_file(path) -> dict:
    """Parse `key = value` lines; later keys override earlier ones."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_horizons(text: str):
    """Accept "0-15" spans and comma lists like "0,3,7"."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, _, hi = part.partition("-")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    if not out or any(h < 0 or h > MAX_HORIZON for h in out):
        raise ConfigError(f"horizons {text!r} outside 0..{MAX_HORIZON}")
    return tuple(sorted(set(out)))


def _items(text: str) -> tuple:
    """The stripped entries of a comma list that must name at least one."""
    items = tuple(item.strip() for item in text.split(",") if item.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _widths(text: str) -> tuple:
    """Hidden layer widths, e.g. "32,32"; none at all is a linear model."""
    widths = tuple(int(x) for x in text.split(",") if x.strip())
    if min(widths, default=1) < 1:
        raise ValueError("layer widths must be at least 1")
    return widths


_BOOL = {"true": True, "yes": True, "1": True,
         "false": False, "no": False, "0": False}


def _key(default, parse):
    """A config key: its default and the parser of its raw text."""
    return field(default=default, metadata={"parse": parse})


@dataclass
class RunConfig:
    """Everything a pipeline command needs, resolved and typed: each field but
    `ws_columns` is the config key of its name. Site and training keys bear the
    names of the SiteMetadata and TrainConfig fields they fill."""

    site_id: str = _key("site", str)
    latitude: float = _key(0.0, float)
    longitude: float = _key(0.0, float)
    elevation: float = _key(0.0, float)
    wind_sensor_height: float = _key(2.0, float)

    ws_csv: Path | None = _key(None, Path)
    ws_schema: Path | None = _key(None, Path)
    forecast_cache: Path | None = _key(None, Path)
    out_dir: Path = _key(Path("out"), Path)

    providers: tuple = _key(PROVIDERS, lambda s: tuple(p.upper() for p in _items(s)))
    start_date: dt.date | None = _key(None, dt.date.fromisoformat)
    end_date: dt.date | None = _key(None, dt.date.fromisoformat)
    horizons: tuple = _key(tuple(range(MAX_HORIZON + 1)), _parse_horizons)
    features: tuple = _key(FEATURE_NAMES, _items)

    r2_threshold: float = _key(0.7, float)
    mape_threshold: float = _key(25.0, float)

    seed: int = _key(TrainConfig.seed, int)
    epochs: int = _key(TrainConfig.epochs, int)
    batch_size: int = _key(TrainConfig.batch_size, int)
    learning_rate: float = _key(TrainConfig.learning_rate, float)
    optimizer: str = _key(TrainConfig.optimizer, str)
    validation_fraction: float = _key(TrainConfig.validation_fraction, float)
    patience: int = _key(TrainConfig.patience, int)
    hidden: tuple = _key((32, 32), _widths)
    activation: str = _key("relu", str)
    holdout_fraction: float = _key(0.2, float)

    humidity_mode: str = _key("extremes", str)
    forecast_wind_height: float | None = _key(None, float)
    tz_offset_hours: float | None = _key(None, float)
    offline: bool = _key(False, lambda s: _BOOL[s.strip().lower()])
    ws_columns: dict = field(default_factory=dict)  # the ws_column_<field> keys

    def site(self) -> SiteMetadata:
        return SiteMetadata(**{f.name: getattr(self, f.name) for f in fields(SiteMetadata)})

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def require_paths(self, *names) -> None:
        """Fail with ConfigError unless every named path is set and is a file."""
        for name in names:
            value = getattr(self, name)
            if value is None:
                raise ConfigError(f"config key {name} is required for this command")
            if not Path(value).exists():
                raise ConfigError(f"{name} path does not exist: {value}")
            if not Path(value).is_file():
                raise ConfigError(f"{name} path is not a file: {value}")


def build_config(config_path=None, overrides=None) -> RunConfig:
    """Merge file values and override values into a validated RunConfig."""
    merged = {}
    if config_path is not None:
        merged.update(parse_kv_file(config_path))
    merged.update(overrides or {})

    cfg = RunConfig()
    parsers = {f.name: f.metadata["parse"] for f in fields(RunConfig) if f.metadata}
    for key, raw in merged.items():
        column = key.removeprefix("ws_column_")
        if column != key and column in CSV_FIELDS:
            cfg.ws_columns[column] = raw
            continue
        if key not in parsers:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            value = parsers[key](raw)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
        setattr(cfg, key, value)

    for provider in cfg.providers:
        if provider not in PROVIDERS:
            raise ConfigError(f"unknown provider {provider!r}; expected {PROVIDERS}")
    if len(set(cfg.providers)) != len(cfg.providers):
        raise ConfigError(f"providers repeat a name: {list(cfg.providers)}")
    unknown = [f for f in cfg.features if f not in FEATURE_NAMES]
    if unknown:
        raise ConfigError(f"unknown feature(s) {unknown}; available: {FEATURE_NAMES}")
    if len(set(cfg.features)) != len(cfg.features):
        raise ConfigError(f"features repeat a name: {list(cfg.features)}")
    if cfg.humidity_mode not in HUMIDITY_MODES:
        raise ConfigError(f"humidity_mode must be {' or '.join(HUMIDITY_MODES)}, "
                          f"got {cfg.humidity_mode!r}")
    if cfg.activation not in ACTIVATIONS:
        raise ConfigError(f"activation must be {' or '.join(ACTIVATIONS)}, got {cfg.activation!r}")
    if not 0.0 < cfg.holdout_fraction < 1.0:
        raise ConfigError("holdout_fraction must be in (0, 1)")
    if not math.isfinite(cfg.r2_threshold):
        raise ConfigError(f"r2_threshold={cfg.r2_threshold} must be finite")
    if not cfg.mape_threshold >= 0.0:
        raise ConfigError(f"mape_threshold={cfg.mape_threshold} must be >= 0")
    if cfg.start_date and cfg.end_date and cfg.start_date > cfg.end_date:
        raise ConfigError(f"start_date={cfg.start_date} is after end_date={cfg.end_date}")
    if cfg.forecast_wind_height is not None and not wind_profile_holds(cfg.forecast_wind_height):
        raise ConfigError(f"forecast_wind_height={cfg.forecast_wind_height} "
                          "must be finite and above 0.0947 m")
    try:
        if cfg.tz_offset_hours is not None:
            tz_shift(cfg.tz_offset_hours)
        cfg.site()
        cfg.train_config()
    except EtoforgeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg
