"""Weather data model: canonical records, station CSV, providers, alignment."""

from .records import (MAX_HORIZON, PROVIDERS, AlignedPair, AlignResult,
                      DailyObservation, DayTable, ForecastRecord, ForecastTable,
                      ObservationTable, SiteMetadata, align_horizons, by_date, decode_utf8,
                      read_text)
from .station_csv import (WsSchema, load_ws_schema, parse_ws_csv,
                          serialize_ws_csv, ws_schema_text)
from .normalize import FieldMap, ProviderMapping, load_provider_mapping, normalize_payload
from .providers import (ENV_KEYS, ForecastCache, ForecastSidecar, fetch_forecasts,
                        records_from_jsonl, records_to_jsonl, records_to_npz, splice_runs,
                        store_chunks)
from . import units

__all__ = [
    "MAX_HORIZON", "PROVIDERS", "AlignedPair", "AlignResult",
    "DailyObservation", "DayTable", "ForecastRecord", "ForecastTable", "ObservationTable",
    "SiteMetadata", "align_horizons", "by_date", "decode_utf8", "read_text", "WsSchema",
    "load_ws_schema",
    "parse_ws_csv", "serialize_ws_csv", "ws_schema_text", "ENV_KEYS", "FieldMap",
    "ForecastCache",
    "ForecastSidecar", "ProviderMapping", "fetch_forecasts", "load_provider_mapping",
    "normalize_payload", "records_from_jsonl", "records_to_jsonl",
    "records_to_npz", "splice_runs", "store_chunks", "units",
]
