"""Forecast-service ingestion: fetch, cache, and normalize provider payloads.

Two services are wired in: Visual Crossing ("VC") and OpenWeatherMap
("OWM"). What each provider calls its fields, where the per-day entries
live in the payload, and which units they arrive in is described by a
versioned mapping table (JSON, shipped under ``etoforge/provider_maps/``
and overridable per call) rather than by code, since provider schemas
drift.

Every raw response body is written to the cache directory, one file per
(provider, issue date) at ``<provider>/<issue-date>.json``, before any
normalization happens, so a run can always be replayed offline from the
cache. Horizons are derived from issue/target date arithmetic; d0 means
the forecast issued at local midnight of the target date, where "local"
defaults to the site's solar time (longitude / 15h) and can be
overridden.

API keys come from the ``ETOFORGE_VC_API_KEY`` / ``ETOFORGE_OWM_API_KEY``
environment variables when not passed explicitly. Note that OWM's public
endpoint only serves the forecast issued "now": ranged backfills of past
issue dates are only possible from an accumulated cache (VC accepts a
basis date parameter).
"""

from __future__ import annotations

import datetime as dt
import functools
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..errors import (AuthError, CacheMiss, ProviderSchemaError, RangeError,
                      RateLimited)
from . import units
from .records import (FORECAST_FIELDS, MAX_HORIZON, PROVIDERS, ForecastRecord,
                      ForecastTable, SiteMetadata)

log = logging.getLogger(__name__)

ENV_KEYS = {"VC": "ETOFORGE_VC_API_KEY", "OWM": "ETOFORGE_OWM_API_KEY"}

_ENDPOINTS = {
    "VC": "https://weather.visualcrossing.com/VisualCrossingWebServices/rest/services/timeline",
    "OWM": "https://api.openweathermap.org/data/2.5/forecast/daily",
}

MAPPING_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FieldMap:
    path: str
    unit: str
    optional: bool = False


@dataclass(frozen=True)
class ProviderMapping:
    """How to pull canonical fields out of one provider's payload."""

    provider: str
    list_path: str
    target_date_path: str
    target_date_kind: str  # "iso" | "epoch"
    fields: dict


def _mapping_from_dict(doc: dict) -> ProviderMapping:
    if doc.get("format_version") != MAPPING_FORMAT_VERSION:
        raise ProviderSchemaError(
            f"mapping format_version {doc.get('format_version')!r} unsupported")
    fields = {
        name: FieldMap(path=spec["path"], unit=spec["unit"],
                       optional=bool(spec.get("optional", False)))
        for name, spec in doc["fields"].items()
    }
    return ProviderMapping(
        provider=doc["provider"],
        list_path=doc["list_path"],
        target_date_path=doc["target_date"]["path"],
        target_date_kind=doc["target_date"]["kind"],
        fields=fields,
    )


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


class ForecastCache:
    """Raw provider responses on disk, one file per (provider, issue date)."""

    def __init__(self, root):
        self.root = Path(root)

    def path(self, provider: str, issue_date: dt.date) -> Path:
        return self.root / provider.lower() / f"{issue_date.isoformat()}.json"

    def has(self, provider: str, issue_date: dt.date) -> bool:
        return self.path(provider, issue_date).is_file()

    def read(self, provider: str, issue_date: dt.date) -> str:
        p = self.path(provider, issue_date)
        if not p.is_file():
            raise CacheMiss(f"no cached payload for {provider} issued {issue_date}")
        try:
            return p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ProviderSchemaError(
                f"payload is not UTF-8 ({provider} issued {issue_date}): {exc}") from exc

    def write(self, provider: str, issue_date: dt.date, body: str) -> Path:
        """Atomic write: temp file in the same directory, then rename."""
        p = self.path(provider, issue_date)
        p.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=p.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(body)
            os.replace(tmp, p)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return p


def _walk(entry: dict, dotted: str):
    node = entry
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _entry_target_date(entry, mapping, tz_offset_hours):
    raw = _walk(entry, mapping.target_date_path)
    if raw is None:
        raise ProviderSchemaError(f"entry lacks target date at {mapping.target_date_path!r}")
    if mapping.target_date_kind == "iso":
        return dt.date.fromisoformat(str(raw)[:10])
    if mapping.target_date_kind == "epoch":
        stamp = dt.datetime.fromtimestamp(float(raw), tz=dt.timezone.utc)
        return (stamp + dt.timedelta(hours=tz_offset_hours)).date()
    raise ProviderSchemaError(f"unknown target date kind {mapping.target_date_kind!r}")


def normalize_payload(body: str, issue_date: dt.date, mapping: ProviderMapping,
                      tz_offset_hours: float = 0.0) -> list:
    """Turn one raw response body into canonical ForecastRecords.

    A body that is not JSON (a truncated cache file) or has no entry list
    raises ProviderSchemaError naming the provider and issue date.
    Entries missing a required field (or failing record invariants) are
    skipped with a warning rather than failing the whole payload; entries
    whose derived horizon falls outside 0..MAX_HORIZON are dropped
    silently (providers may include the previous local day).
    """
    try:
        doc = json.loads(body)
    except ValueError as exc:
        raise ProviderSchemaError(
            f"payload is not JSON ({mapping.provider} issued {issue_date}): {exc}") from exc
    entries = _walk(doc, mapping.list_path)
    if not isinstance(entries, list):
        raise ProviderSchemaError(
            f"payload has no list at {mapping.list_path!r} "
            f"({mapping.provider} issued {issue_date})")
    consumed = {fm.path.split(".")[0] for fm in mapping.fields.values()}
    consumed.add(mapping.target_date_path.split(".")[0])

    records = []
    for entry in entries:
        try:
            target = _entry_target_date(entry, mapping, tz_offset_hours)
            horizon = (target - issue_date).days
            if not 0 <= horizon <= MAX_HORIZON:
                continue
            values = {}
            for name, fm in mapping.fields.items():
                raw = _walk(entry, fm.path)
                if raw is None:
                    if fm.optional:
                        values[name] = None
                        continue
                    raise ProviderSchemaError(
                        f"{mapping.provider} {issue_date}->{target}: missing {fm.path!r}")
                values[name] = units.convert_field(name, float(raw), fm.unit)
            extras = {k: v for k, v in entry.items() if k not in consumed}
            records.append(ForecastRecord(
                provider=mapping.provider, target_date=target,
                issue_date=issue_date, extras=extras, **values))
        except (ProviderSchemaError, RangeError, ValueError, TypeError) as exc:
            log.warning("skipping %s entry issued %s: %s",
                        mapping.provider, issue_date, exc)
    return records


def records_to_jsonl(records) -> str:
    """Serialize forecast records as the canonical one-object-per-line store."""
    lines = []
    for r in sorted(records, key=lambda r: (r.provider, r.target_date, r.issue_date)):
        lines.append(json.dumps({
            "provider": r.provider,
            "target_date": r.target_date.isoformat(),
            "issue_date": r.issue_date.isoformat(),
            "temp_max": r.temp_max,
            "temp_min": r.temp_min,
            "rh_avg": r.rh_avg,
            "wind_avg": r.wind_avg,
            "precip": r.precip,
            "extras": r.extras,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


def records_from_jsonl(text: str) -> ForecastTable:
    """Parse a store written by :func:`records_to_jsonl` into one ForecastTable.

    Each line is decoded once: its keys and fields go onto columns, the
    line itself becomes the row's source, and the decoded object is
    dropped. The record checks then run on whole columns. A line that is
    not one valid stored record (a truncated or hand-edited store, text
    after the object, a record failing its checks) raises RangeError
    naming the first such line.
    """
    decode = json.JSONDecoder().raw_decode
    codes = {provider: i for i, provider in enumerate(PROVIDERS)}
    ordinal = functools.cache(lambda iso: dt.date.fromisoformat(iso).toordinal())
    rows, lines, provider, target, issue = [], [], [], [], []
    fields = {name: [] for name in FORECAST_FIELDS}
    failure = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc, end = decode(line)
            if end != len(line):
                raise ValueError(f"text after the record at column {end + 1}")
            code = codes.get(doc["provider"])
            if code is None:
                raise ValueError(f"unknown provider {doc['provider']!r}")
            days = ordinal(doc["target_date"]), ordinal(doc["issue_date"])
        except (ValueError, KeyError, TypeError) as exc:
            failure = lineno, exc
            break
        rows.append(lineno)
        lines.append(line)
        provider.append(code)
        target.append(days[0])
        issue.append(days[1])
        for name, column in fields.items():
            column.append(doc.get(name))
    table = ForecastTable.from_json(provider, target, issue, fields, lines, rows)
    if failure is not None:
        lineno, exc = failure
        raise RangeError(f"not a stored forecast record: {exc!r}", row=lineno) from exc
    return table


def _default_http_get(url, params):
    import requests

    resp = requests.get(url, params=params, timeout=30)
    return resp.status_code, dict(resp.headers), resp.text


def _build_request(provider, site, issue_date, credentials):
    if provider == "VC":
        loc = f"{site.latitude},{site.longitude}"
        span_end = issue_date + dt.timedelta(days=MAX_HORIZON)
        url = f"{_ENDPOINTS['VC']}/{loc}/{issue_date.isoformat()}/{span_end.isoformat()}"
        params = {
            "unitGroup": "metric",
            "include": "days",
            "forecastBasisDate": issue_date.isoformat(),
            "key": credentials,
        }
    else:
        url = _ENDPOINTS["OWM"]
        params = {
            "lat": site.latitude,
            "lon": site.longitude,
            "cnt": MAX_HORIZON + 1,
            "units": "metric",
            "appid": credentials,
        }
    return url, params


def _fetch_one(provider, site, issue_date, credentials, cache, http_get):
    url, params = _build_request(provider, site, issue_date, credentials)
    status, headers, body = http_get(url, params)
    if status in (401, 403):
        raise AuthError(f"{provider} rejected the API key (HTTP {status})")
    if status == 429:
        retry = headers.get("Retry-After")
        raise RateLimited(f"{provider} rate limit hit",
                          retry_after=float(retry) if retry else None)
    if status != 200:
        raise ProviderSchemaError(f"{provider} returned HTTP {status} for {issue_date}")
    cache.write(provider, issue_date, body)
    return body


def fetch_forecasts(provider: str, site: SiteMetadata, date_range,
                    credentials: str | None = None, *,
                    cache_dir, offline: bool = False, http_get=None,
                    tz_offset_hours: float | None = None) -> list:
    """Forecast records covering every target date in `date_range` (inclusive).

    For each target date you get up to ``MAX_HORIZON + 1`` records (d0 up
    to d15) depending on what the provider supplied. Each issue date's
    payload is replayed from the cache when it is there; otherwise it is
    skipped in offline mode, and in online mode fetched and cached
    verbatim before normalization. Offline, CacheMiss is raised only when
    the whole issue-date window has nothing to replay.
    """
    if provider not in PROVIDERS:
        raise RangeError(f"unknown provider {provider!r}; expected one of {PROVIDERS}")
    start, end = date_range
    if start > end:
        raise RangeError(f"date range {start}..{end} is reversed")
    cache = ForecastCache(cache_dir)
    mapping = load_provider_mapping(provider)
    if tz_offset_hours is None:
        tz_offset_hours = site.solar_tz_offset_hours
    if not offline:
        credentials = credentials or os.environ.get(ENV_KEYS[provider], "")
        if not credentials:
            raise AuthError(
                f"online mode needs credentials ({ENV_KEYS[provider]} unset)")
        http_get = http_get or _default_http_get

    first_issue = start - dt.timedelta(days=MAX_HORIZON)
    bodies = {}
    for i in range((end - first_issue).days + 1):
        issued = first_issue + dt.timedelta(days=i)
        if cache.has(provider, issued):
            bodies[issued] = cache.read(provider, issued)
        elif not offline:
            bodies[issued] = _fetch_one(provider, site, issued, credentials, cache, http_get)
    if not bodies:
        raise CacheMiss(
            f"offline mode: no cached {provider} payloads issued "
            f"{first_issue}..{end} under {cache.root}")
    # Every payload is read before any is normalized: interleaving the two
    # fragmented the heap and raised the peak RSS of a later `evaluate` in
    # the same process by about 8 MB (1,460 synthetic days).
    records = [rec for issued, body in bodies.items()
               for rec in normalize_payload(body, issued, mapping, tz_offset_hours)
               if start <= rec.target_date <= end]
    records.sort(key=lambda r: (r.target_date, r.horizon))
    return records
