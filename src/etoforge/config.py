"""Run configuration: a flat key=value file plus command-line overrides.

The config file holds one `key = value` pair per line; `#` starts a
comment. Flags always win over file values. Keys are documented in the
README; unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EtoforgeError
from .pipelines import FEATURE_NAMES
from .regressor import TrainConfig
from .weather.records import MAX_HORIZON, PROVIDERS, SiteMetadata


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


_BOOL = {"true": True, "yes": True, "1": True,
         "false": False, "no": False, "0": False}


@dataclass
class RunConfig:
    """Everything a pipeline command needs, resolved and typed."""

    site_id: str = "site"
    latitude: float = 0.0
    longitude: float = 0.0
    elevation: float = 0.0
    wind_sensor_height: float = 2.0

    ws_csv: Path | None = None
    ws_schema: Path | None = None
    forecast_cache: Path | None = None
    out_dir: Path = Path("out")

    providers: tuple = PROVIDERS
    start_date: dt.date | None = None
    end_date: dt.date | None = None
    horizons: tuple = tuple(range(MAX_HORIZON + 1))
    features: tuple = FEATURE_NAMES

    r2_threshold: float = 0.7
    mape_threshold: float = 25.0

    seed: int = 0
    epochs: int = 400
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    validation_fraction: float = 0.2
    patience: int = 50
    hidden: tuple = (32, 32)
    activation: str = "relu"
    holdout_fraction: float = 0.2

    humidity_mode: str = "extremes"
    forecast_wind_height: float | None = None
    tz_offset_hours: float | None = None
    offline: bool = False
    ws_columns: dict = field(default_factory=dict)

    def site(self) -> SiteMetadata:
        return SiteMetadata(site_id=self.site_id, latitude=self.latitude,
                            longitude=self.longitude, elevation=self.elevation,
                            wind_sensor_height=self.wind_sensor_height)

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           learning_rate=self.learning_rate,
                           optimizer=self.optimizer, seed=self.seed,
                           validation_fraction=self.validation_fraction,
                           patience=self.patience)

    def require_paths(self, *names) -> None:
        """Fail with ConfigError unless every named path is set and exists."""
        for name in names:
            value = getattr(self, name)
            if value is None:
                raise ConfigError(f"config key {name} is required for this command")
            if not Path(value).exists():
                raise ConfigError(f"{name} path does not exist: {value}")


_PARSERS = {
    "site_id": str,
    "latitude": float,
    "longitude": float,
    "elevation": float,
    "wind_sensor_height": float,
    "ws_csv": Path,
    "ws_schema": Path,
    "forecast_cache": Path,
    "out_dir": Path,
    "providers": lambda s: tuple(p.strip().upper() for p in s.split(",") if p.strip()),
    "start_date": dt.date.fromisoformat,
    "end_date": dt.date.fromisoformat,
    "horizons": _parse_horizons,
    "features": lambda s: tuple(f.strip() for f in s.split(",") if f.strip()),
    "r2_threshold": float,
    "mape_threshold": float,
    "seed": int,
    "epochs": int,
    "batch_size": int,
    "learning_rate": float,
    "optimizer": str,
    "validation_fraction": float,
    "patience": int,
    "hidden": lambda s: tuple(int(x) for x in s.split(",") if x.strip()),
    "activation": str,
    "holdout_fraction": float,
    "humidity_mode": str,
    "forecast_wind_height": float,
    "tz_offset_hours": float,
    "offline": lambda s: _BOOL[s.strip().lower()],
}


def build_config(config_path=None, overrides=None) -> RunConfig:
    """Merge file values and override values into a validated RunConfig."""
    merged = {}
    if config_path is not None:
        merged.update(parse_kv_file(config_path))
    merged.update(overrides or {})

    cfg = RunConfig()
    for key, raw in merged.items():
        if key.startswith("ws_column_"):
            cfg.ws_columns[key[len("ws_column_"):]] = raw
            continue
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            value = _PARSERS[key](raw)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
        setattr(cfg, key, value)

    for provider in cfg.providers:
        if provider not in PROVIDERS:
            raise ConfigError(f"unknown provider {provider!r}; expected {PROVIDERS}")
    unknown = [f for f in cfg.features if f not in FEATURE_NAMES]
    if unknown:
        raise ConfigError(f"unknown feature(s) {unknown}; available: {FEATURE_NAMES}")
    if cfg.humidity_mode not in ("extremes", "average"):
        raise ConfigError(f"humidity_mode must be extremes or average, "
                          f"got {cfg.humidity_mode!r}")
    if not 0.0 < cfg.holdout_fraction < 1.0:
        raise ConfigError("holdout_fraction must be in (0, 1)")
    if cfg.tz_offset_hours is not None and not -24.0 <= cfg.tz_offset_hours <= 24.0:
        raise ConfigError(f"tz_offset_hours={cfg.tz_offset_hours} outside +/- 24 hours")
    if cfg.forecast_wind_height is not None and not 0.0 < cfg.forecast_wind_height < math.inf:
        raise ConfigError(f"forecast_wind_height={cfg.forecast_wind_height} "
                          f"must be finite and > 0")
    try:
        cfg.site()
        cfg.train_config()
    except EtoforgeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg
