"""Provider payloads to canonical forecast rows: the mappings and the normalizing code.

What each provider calls its fields, where the per-day entries live in the
payload, and which units they arrive in is described by a versioned
mapping table (JSON, shipped under ``etoforge/provider_maps/`` and
overridable per call) rather than by code, since provider schemas drift. A
mapping is compiled once, at load: key tuples for its paths, one unit
converter per field and one target-date parser.

The rows a payload gives depend only on its text, its issue date, the
local-time offset, the mapping and the source of this module, ``records``
and ``units``; the ingest's payload keys hash exactly those.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import ProviderSchemaError, RangeError
from . import units
from .records import (FORECAST_FIELDS, MAX_HORIZON, PROVIDERS, ForecastTable,
                      check_forecast_values, sorted_json)

log = logging.getLogger(__name__)

MAPPING_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FieldMap:
    keys: tuple          # the dotted path, split
    convert: Callable    # a float in the declared unit -> canonical
    optional: bool = False


@dataclass(frozen=True)
class ProviderMapping:
    """How to pull canonical fields out of one provider's payload, compiled at load.

    `parse_date(raw, local-time shift)` gives a target date ordinal; entry
    keys outside `consumed` ride along as `extras`.
    """

    provider: str
    list_path: tuple
    target_date_path: tuple
    parse_date: Callable
    fields: dict         # canonical field name -> FieldMap
    consumed: frozenset


_DATE_PARSERS = {  # (raw target date, local-time shift) -> date ordinal
    "iso": lambda raw, shift: dt.date.fromisoformat(str(raw)[:10]).toordinal(),
    "epoch": lambda raw, shift: (dt.datetime.fromtimestamp(float(raw), tz=dt.timezone.utc)
                                 + shift).date().toordinal(),
}
# what skips one payload entry with a warning
_ENTRY_ERRORS = (ProviderSchemaError, RangeError, ValueError, TypeError, OverflowError)
# the exact types a payload field may hold: a bool or a numeric string is no number
_NUMBER_OR_NULL = (int, float, type(None))


def _mapping_from_dict(doc: dict) -> ProviderMapping:
    if doc.get("format_version") != MAPPING_FORMAT_VERSION:
        raise ProviderSchemaError(
            f"mapping format_version {doc.get('format_version')!r} unsupported")
    kind, unknown = doc["target_date"]["kind"], set(doc["fields"]) - set(FORECAST_FIELDS)
    if doc["provider"] not in PROVIDERS or kind not in _DATE_PARSERS or unknown:
        raise ProviderSchemaError(f"mapping has an unknown provider, date kind or field: "
                                  f"{doc['provider']!r}, {kind!r}, {sorted(unknown)}")
    fields = {name: FieldMap(tuple(spec["path"].split(".")),
                             units.converter(units.FIELD_QUANTITY[name], spec["unit"]),
                             bool(spec.get("optional", False)))
              for name, spec in doc["fields"].items()}
    date_keys = tuple(doc["target_date"]["path"].split("."))
    return ProviderMapping(doc["provider"], tuple(doc["list_path"].split(".")), date_keys,
                           _DATE_PARSERS[kind], fields,
                           frozenset([date_keys[0], *(fm.keys[0] for fm in fields.values())]))


def load_provider_mapping(provider: str, path=None) -> ProviderMapping:
    """Load the bundled mapping for a provider, or a mapping file override."""
    if path is not None:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    else:
        if provider not in PROVIDERS:
            raise RangeError(f"unknown provider {provider!r}")
        ref = resources.files("etoforge").joinpath(f"provider_maps/{provider.lower()}.json")
        doc = json.loads(ref.read_text(encoding="utf-8"))
    return _mapping_from_dict(doc)


def _walk(node, keys):
    """The value at `keys` under `node`, None where the path breaks."""
    for key in keys:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node


def tz_shift(tz_offset_hours: float) -> dt.timedelta:
    """A payload's local-time offset as a timedelta; RangeError unless within +/- 24 hours."""
    if not -24.0 <= tz_offset_hours <= 24.0:
        raise RangeError(f"tz_offset_hours={tz_offset_hours} outside +/- 24 hours")
    return dt.timedelta(hours=tz_offset_hours)


def normalize_payload(body: str, issue_date: dt.date, mapping: ProviderMapping,
                      tz_offset_hours: float = 0.0) -> ForecastTable:
    """Turn one raw response body into a ForecastTable of canonical records.

    A body that is not JSON or has no entry list raises ProviderSchemaError
    naming the provider and issue date. Entries whose horizon falls outside
    0..MAX_HORIZON are dropped silently (providers may include the previous
    local day); any other entry a ForecastRecord would reject, or with a value
    that is not a JSON number (a boolean or numeric string included) or not one
    a float holds, is skipped with a warning.
    Unmapped entry keys are kept as `extras` JSON text; the table's `skipped` counts
    the skipped entries. A `tz_offset_hours` not within +/- 24 hours raises RangeError.
    """
    try:
        doc = json.loads(body)
    except ValueError as exc:
        raise ProviderSchemaError(
            f"payload is not JSON ({mapping.provider} issued {issue_date}): {exc}") from exc
    entries = _walk(doc, mapping.list_path)
    if not isinstance(entries, list):
        raise ProviderSchemaError(
            f"payload has no list at {'.'.join(mapping.list_path)!r} "
            f"({mapping.provider} issued {issue_date})")
    shift, issued = tz_shift(tz_offset_hours), issue_date.toordinal()
    target, extras, columns = [], [], {name: [] for name in FORECAST_FIELDS}
    skipped = 0
    for entry in entries:
        try:
            raw = _walk(entry, mapping.target_date_path)
            if raw is None:
                raise ProviderSchemaError(
                    f"entry lacks target date at {'.'.join(mapping.target_date_path)!r}")
            day = mapping.parse_date(raw, shift)
            if not 0 <= day - issued <= MAX_HORIZON:
                continue
            values = {}
            for name, fm in mapping.fields.items():
                raw = _walk(entry, fm.keys)
                if raw is None and not fm.optional:
                    raise ProviderSchemaError(
                        f"{mapping.provider} {issue_date}->{dt.date.fromordinal(day)}: "
                        f"missing {'.'.join(fm.keys)!r}")
                if type(raw) not in _NUMBER_OR_NULL:
                    raise TypeError(f"{'.'.join(fm.keys)!r}={raw!r} is not a number")
                values[name] = None if raw is None else fm.convert(float(raw))
            check_forecast_values(**values)
        except _ENTRY_ERRORS as exc:
            log.warning("skipping %s entry issued %s: %s", mapping.provider, issue_date, exc)
            skipped += 1
            continue
        target.append(day)
        for name, column in columns.items():
            column.append(values.get(name))
        extras.append(sorted_json({k: v for k, v in entry.items() if k not in mapping.consumed}))
    x = np.array(list(columns.values()), dtype=np.float64)   # absent (None) -> NaN
    held = ~np.isnan(x)   # a kept value is finite, so NaN only marks an absent one
    table = ForecastTable(np.full(len(target), PROVIDERS.index(mapping.provider)),
                          np.array(target, dtype=np.int64), np.full(len(target), issued),
                          dict(zip(FORECAST_FIELDS, np.where(held, x, 0.0))),
                          dict(zip(FORECAST_FIELDS, held)),
                          np.array(extras, dtype=object))
    table.skipped = skipped
    return table
