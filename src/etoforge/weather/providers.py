"""Forecast-service ingestion: fetch, cache, and normalize provider payloads.

Two services are wired in: Visual Crossing ("VC") and OpenWeatherMap
("OWM"). What each provider calls its fields, where the per-day entries
live in the payload, and which units they arrive in is described by a
versioned mapping table (JSON, shipped under ``etoforge/provider_maps/``
and overridable per call) rather than by code, since provider schemas
drift. A mapping is compiled once, at load: key tuples for its paths,
one unit converter per field and one target-date parser.

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
import hashlib
import io
import json
import logging
import os
import tempfile
import zipfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import (AuthError, CacheMiss, ProviderSchemaError, RangeError,
                      RateLimited)
from . import records, units
from .records import (FORECAST_FIELDS, MAX_HORIZON, PROVIDERS, ForecastTable,
                      SiteMetadata, as_table, check_forecast_values, rejected_rows,
                      sorted_json)

log = logging.getLogger(__name__)

ENV_KEYS = {"VC": "ETOFORGE_VC_API_KEY", "OWM": "ETOFORGE_OWM_API_KEY"}

_ENDPOINTS = {
    "VC": "https://weather.visualcrossing.com/VisualCrossingWebServices/rest/services/timeline",
    "OWM": "https://api.openweathermap.org/data/2.5/forecast/daily",
}

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


class ForecastCache:
    """Raw provider responses on disk, one file per (provider, issue date)."""

    def __init__(self, root):
        self.root = Path(root)

    def path(self, provider: str, issue_date: dt.date) -> str:
        return os.path.join(self.root, provider.lower(), f"{issue_date.isoformat()}.json")

    def read(self, provider: str, issue_date: dt.date) -> str:
        """The cached body; CacheMiss where no file is there (a directory included)."""
        try:
            with open(self.path(provider, issue_date), encoding="utf-8") as fh:
                return fh.read()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            raise CacheMiss(f"no cached payload for {provider} issued {issue_date}") from None
        except UnicodeDecodeError as exc:
            raise ProviderSchemaError(
                f"payload is not UTF-8 ({provider} issued {issue_date}): {exc}") from exc

    def write(self, provider: str, issue_date: dt.date, body: str) -> str:
        """Atomic write: temp file in the same directory, then rename."""
        p = self.path(provider, issue_date)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(p), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(body)
            os.replace(tmp, p)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return p


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


_STORE_LINE = ('{"extras": %s, "issue_date": "%s", "precip": %s, "provider": "%s", '
               '"rh_avg": %s, "target_date": "%s", "temp_max": %s, "temp_min": %s, '
               '"wind_avg": %s}\n')
_NAME_RANK = np.argsort(np.argsort(PROVIDERS))   # provider code -> place in name order


def store_chunks(records):
    """Serialize forecasts (a ForecastTable or records) as the canonical store,
    yielding its UTF-8 bytes a bounded chunk at a time.

    One line per record, sorted by (provider, target date, issue date): the
    text `json.dumps(record, sort_keys=True)` gives, formatted from the
    columns 1,024 lines to a chunk (`%s` of a float is its repr, as in JSON).
    No records give one empty line, the one chunk b"\\n".
    """
    table = as_table(records)
    days, at = np.unique(np.concatenate([table.target, table.issue]), return_inverse=True)
    iso = np.array([dt.date.fromordinal(d).isoformat() for d in days.tolist()], dtype=object)
    target, issue = np.split(iso[at], 2)
    names = np.array(PROVIDERS, dtype=object)[table.provider]
    order = _store_order(table)
    # the text of 1,024 lines at a time keeps the write's peak below half the store's size
    for rows in np.split(order, range(1024, len(order), 1024)):
        x = {}
        for name in FORECAST_FIELDS:
            column = x[name] = table.values[name][rows].astype(object)
            column[~table.present[name][rows]] = "null"
        yield "".join([_STORE_LINE % line for line in zip(
            table.extras[rows], issue[rows], x["precip"], names[rows], x["rh_avg"],
            target[rows], x["temp_max"], x["temp_min"], x["wind_avg"])]).encode("utf-8") or b"\n"


def records_to_jsonl(records) -> str:
    """The canonical store of `records` as text: the joined :func:`store_chunks`."""
    return b"".join(store_chunks(records)).decode("utf-8")


def _store_order(table: ForecastTable) -> np.ndarray:
    """The store's row order: by (provider name, target date, issue date), stably."""
    return np.lexsort((table.issue, table.target, _NAME_RANK[table.provider]))


def splice_runs(records, stored: ForecastTable, store: bytes):
    """Buffers whose concatenation is the UTF-8 of `records_to_jsonl(records)`, formatting
    only the rows `stored` lacks.

    `stored` is the table of the column sidecar of `store` (:func:`records_from_npz`),
    so line i of `store` is the text of its row i. A row that `stored` holds with the
    same provider, dates, extras text, `present` masks and present values bit for bit
    (-0.0 == 0.0, but their texts differ) takes that line; lines back to back in
    `store` are copied as one run, a memoryview of it. One `store_chunks` call
    formats the other rows. When every line is kept in place, this is `[store]`; when
    no line can be copied (no rows, or `stored` does not match `store`'s lines), it is
    `store_chunks(records)`.
    """
    table = as_table(records)
    ends = _line_ends(store)
    if not len(table) or not len(stored) or ends.size != len(stored):
        return store_chunks(table)
    order = _store_order(table)

    def key(t):   # store order is the order of these keys
        return (_NAME_RANK[t.provider] << 44) | (t.target << 22) | t.issue

    new_key, old_key = key(table)[order], key(stored)
    src = np.minimum(np.searchsorted(old_key, new_key), len(stored) - 1)
    kept = (old_key[src] == new_key) & (stored.extras[src] == table.extras[order])
    for name in FORECAST_FIELDS:
        present = table.present[name][order]
        kept &= (stored.present[name][src] == present) & (
            ~present | (stored.values[name][src].view(np.uint64)
                        == table.values[name][order].view(np.uint64)))
    fresh = np.flatnonzero(~kept)
    text = b"".join(store_chunks(table.take(order[fresh]))) if fresh.size else b""
    # each row's line is lo:hi of `store` if kept, of `text` if fresh
    hi, text_ends = ends[src], _line_ends(text)
    lo = hi - np.diff(ends, prepend=0)[src]
    hi[fresh], lo[fresh] = text_ends, text_ends - np.diff(text_ends, prepend=0)
    edges = np.flatnonzero((lo[1:] != hi[:-1]) | (kept[1:] != kept[:-1])) + 1
    if edges.size == 0 and kept[0] and lo[0] == 0 and hi[-1] == len(store):
        return [store]
    views = memoryview(store), memoryview(text)
    runs = zip([0, *edges.tolist()], [*edges.tolist(), len(order)])
    return [views[0 if kept[a] else 1][lo[a]:hi[b - 1]] for a, b in runs]


def _line_ends(data: bytes) -> np.ndarray:
    """The offset just past each newline of `data`."""
    return np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n")) + 1


_COLUMN_KEYS = ("store_sha256", "provider", "target", "issue", "values", "present",
                "extras", "extras_index")


def records_to_npz(records, store_sha256: bytes, **members) -> bytes:
    """The column sidecar of the store `records_to_jsonl(records)`, its SHA-256 `store_sha256`.

    An `.npz` archive holding, in store row order, the `provider`,
    `target` and `issue` columns, the field `values` and their `present`
    masks (one row per field of FORECAST_FIELDS), and each row's extras
    text as `extras_index` into `extras`, the UTF-8 JSON array of the
    distinct texts; `store_sha256` holds the digest, any `members` (arrays)
    sit beside. The same records give the same bytes: the archive's members
    carry no timestamp.
    """
    table = as_table(records)
    order = _store_order(table)
    distinct = {}
    index = [distinct.setdefault(text, len(distinct)) for text in table.extras[order]]
    out = io.BytesIO()
    np.savez(out, store_sha256=np.frombuffer(store_sha256, dtype=np.uint8),
             provider=table.provider[order], target=table.target[order],
             issue=table.issue[order],
             values=np.array([table.values[name][order] for name in FORECAST_FIELDS]),
             present=np.array([table.present[name][order] for name in FORECAST_FIELDS]),
             extras=np.frombuffer(json.dumps(list(distinct)).encode("utf-8"), dtype=np.uint8),
             extras_index=np.array(index, dtype=np.int64), **members)
    return out.getvalue()


def records_from_npz(path, store_sha256: bytes) -> ForecastTable | None:
    """The table a column sidecar at `path` holds, if it is valid for the store
    whose SHA-256 digest is `store_sha256`.

    Valid means: it is the sidecar :func:`records_to_npz` writes, every
    member passes its CRC check, its `store_sha256` is that digest, its
    dates are date ordinals, each extras text is a JSON object, and its
    columns pass the checks :meth:`ForecastTable.from_json` runs. The
    sidecar `ingest forecast` wrote for a store then gives the table
    `records_from_jsonl(store text)` gives, column for column and
    extras text for extras text. Otherwise, a missing, stale, truncated or
    garbled file included, this returns None and never raises. The hash
    covers the store, not the columns: a sidecar re-packed by hand with
    other values that pass these checks is read.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            member = {key: np.lib.format.read_array(
                io.BytesIO(archive.read(key + ".npy")), allow_pickle=False)
                for key in _COLUMN_KEYS}
        texts = json.loads(member["extras"].tobytes().decode("utf-8"))
        extras = [json.loads(text) for text in texts]
    except Exception:  # any unreadable sidecar only means the store text is parsed
        return None
    provider, target, issue, index = (member[key] for key in
                                      ("provider", "target", "issue", "extras_index"))
    columns = (member["values"], member["present"])
    n = target.size
    if (member["store_sha256"].tobytes() != store_sha256
            or any(a.dtype != np.int64 or a.shape != (n,)
                   for a in (provider, target, issue, index))
            or [a.dtype for a in columns] != [np.float64, np.bool_]
            or any(a.shape != (len(FORECAST_FIELDS), n) for a in columns)
            or not (isinstance(texts, list) and all(isinstance(e, dict) for e in extras))
            or (n and not 0 <= index.min() <= index.max() < len(texts))
            or (n and not (1 <= min(target.min(), issue.min())
                           and max(target.max(), issue.max()) <= dt.date.max.toordinal()))):
        return None
    values, present = (dict(zip(FORECAST_FIELDS, a)) for a in columns)
    if rejected_rows(provider, target - issue, values, present).any() \
            or (member["values"][~member["present"]] != 0.0).any():
        return None
    return ForecastTable(provider, target, issue, values, present,
                         np.array(texts, dtype=object)[index])


def records_from_jsonl(text: str) -> ForecastTable:
    """Parse a store written by :func:`records_to_jsonl` into one ForecastTable.

    Each line is decoded once: its fields go onto columns, its `extras`
    object is re-encoded as the sorted-key text the store was written from,
    and the record checks then run on whole columns. A line that is not one
    valid stored record (a truncated or hand-edited store, text after the
    object, `extras` that is not an object, a record failing its checks)
    raises RangeError naming the first such line.
    """
    decode = json.JSONDecoder().raw_decode
    codes = {provider: i for i, provider in enumerate(PROVIDERS)}
    ordinal = functools.cache(lambda iso: dt.date.fromisoformat(iso).toordinal())
    rows, extras, provider, target, issue = [], [], [], [], []
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
            more = doc.get("extras", {})
            if not isinstance(more, dict):
                raise ValueError(f"extras is a JSON {type(more).__name__}, not an object")
        except (ValueError, KeyError, TypeError) as exc:
            failure = lineno, exc
            break
        rows.append(lineno)
        extras.append(sorted_json(more))
        provider.append(code)
        target.append(days[0])
        issue.append(days[1])
        for name, column in fields.items():
            column.append(doc.get(name))
    table = ForecastTable.from_json(provider, target, issue, fields, extras, rows)
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


class PayloadMemo:
    """Payload rows to reuse: `digests` maps (provider code, issue ordinal) to the key
    (SHA-256 of :func:`_payload_context` and the text) of the payload whose rows the
    tables in `rows` hold. :func:`fetch_forecasts` records this run's: in `clean` the
    key of each payload whose normalization skipped no entry, in `spill` their rows
    outside the date range."""

    def __init__(self):
        self.digests, self.rows, self.clean, self.spill = {}, [], {}, []

    @classmethod
    def read(cls, path, stored, store_sha256: bytes) -> "PayloadMemo":
        """The memo at `path` with the rows of `stored`, the column sidecar's table of
        the store of SHA-256 `store_sha256`; empty unless `stored` is a table and the
        memo is valid (:func:`records_from_npz`) for that store. Never raises."""
        memo = cls()
        if stored is None:
            return memo
        try:
            with np.load(path) as member:
                digests = dict(zip(map(tuple, member["payloads"].tolist()),
                                   map(bytes, member["payload_sha256"])))
        except Exception:  # any unreadable memo only means every payload is normalized
            return memo
        spill = records_from_npz(path, store_sha256)
        if spill is not None:
            memo.digests, memo.rows = digests, [stored, spill]
        return memo

    def to_npz(self, store_sha256: bytes) -> bytes:
        """This run's memo, beside the store of SHA-256 `store_sha256`: `spill` and `clean`."""
        keys = sorted(self.clean)
        return records_to_npz(
            ForecastTable.concat(self.spill), store_sha256,
            payloads=np.array(keys, dtype=np.int64).reshape(-1, 2),
            payload_sha256=np.array([list(self.clean[k]) for k in keys], np.uint8).reshape(-1, 32))


def _payload_context(tz_offset_hours: float) -> bytes:
    """SHA-256 of what rows depend on besides the payload: offset, version, mappings, code."""
    from .. import __version__
    context = hashlib.sha256(repr((float(tz_offset_hours), __version__)).encode("utf-8"))
    maps = resources.files("etoforge").joinpath("provider_maps")
    for source in (Path(__file__), Path(records.__file__), Path(units.__file__),
                   *(maps.joinpath(f"{provider.lower()}.json") for provider in PROVIDERS)):
        context.update(source.read_bytes())
    return context.digest()


def fetch_forecasts(provider: str, site: SiteMetadata, date_range,
                    credentials: str | None = None, *,
                    cache_dir, offline: bool = False, http_get=None,
                    tz_offset_hours: float | None = None, memo=None) -> ForecastTable:
    """Forecasts covering every target date in `date_range` (inclusive), as one table.

    For each target date you get up to ``MAX_HORIZON + 1`` rows (d0 up
    to d15) depending on what the provider supplied, sorted by (target
    date, horizon) and otherwise in payload order. Each issue date's
    payload is replayed from the cache when it is there; otherwise it is
    skipped in offline mode, and in online mode fetched and cached
    verbatim before normalization. Offline, CacheMiss is raised only when
    the whole issue-date window has nothing to replay. The rows `memo` (a
    :class:`PayloadMemo`) holds for a payload's key are reused, not normalized.
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
    tz_shift(tz_offset_hours)  # a bad offset fails before any payload is read or fetched
    if not offline:
        credentials = credentials or os.environ.get(ENV_KEYS[provider], "")
        if not credentials:
            raise AuthError(
                f"online mode needs credentials ({ENV_KEYS[provider]} unset)")
        http_get = http_get or _default_http_get
    code, memo = PROVIDERS.index(provider), memo or PayloadMemo()
    context = _payload_context(tz_offset_hours)

    first_issue = start - dt.timedelta(days=MAX_HORIZON)
    bodies = {}
    for i in range((end - first_issue).days + 1):
        issued = first_issue + dt.timedelta(days=i)
        try:
            bodies[issued] = cache.read(provider, issued)
        except CacheMiss:
            if not offline:
                bodies[issued] = _fetch_one(provider, site, issued, credentials, cache,
                                            http_get)
    if not bodies:
        raise CacheMiss(
            f"offline mode: no cached {provider} payloads issued "
            f"{first_issue}..{end} under {cache.root}")
    # Every payload is read before any is normalized: interleaving the two
    # fragmented the heap and raised the peak RSS of a later `evaluate` in
    # the same process by about 8 MB (1,460 synthetic days).
    keys = {issued: hashlib.sha256(context + body.encode("utf-8")).digest()
            for issued, body in bodies.items()}
    fresh = {issued: normalize_payload(body, issued, mapping, tz_offset_hours) for issued, body
             in bodies.items() if memo.digests.get((code, issued.toordinal())) != keys[issued]}
    reused = [issued.toordinal() for issued in bodies if issued not in fresh]
    table = ForecastTable.concat([*fresh.values(), *(rows.take(np.flatnonzero(
        (rows.provider == code) & np.isin(rows.issue, reused))) for rows in memo.rows)])
    clean = {issued.toordinal(): keys[issued] for issued in bodies
             if issued not in fresh or not fresh[issued].skipped}
    memo.clean.update(((code, day), key) for day, key in clean.items())
    inside = (table.target >= start.toordinal()) & (table.target <= end.toordinal())
    memo.spill.append(table.take(np.flatnonzero(~inside & np.isin(table.issue, list(clean)))))
    rows = np.flatnonzero(inside)
    return table.take(rows[np.lexsort((table.horizon[rows], table.target[rows]))])
