"""Forecast-service ingestion: fetch, cache, and normalize provider payloads.

Two services are wired in: Visual Crossing ("VC") and OpenWeatherMap
("OWM"); how their payloads map to canonical fields is in
:mod:`etoforge.weather.normalize`.

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

import contextlib
import datetime as dt
import functools
import hashlib
import io
import json
import os
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from ..errors import (AuthError, CacheMiss, ProviderSchemaError, RangeError,
                      RateLimited)
from . import normalize, records, units
from .normalize import load_provider_mapping, normalize_payload, tz_shift
from .records import (FORECAST_FIELDS, MAX_HORIZON, PROVIDERS, ForecastTable,
                      SiteMetadata, as_table, rejected_rows, sorted_json)

ENV_KEYS = {"VC": "ETOFORGE_VC_API_KEY", "OWM": "ETOFORGE_OWM_API_KEY"}

_ENDPOINTS = {
    "VC": "https://weather.visualcrossing.com/VisualCrossingWebServices/rest/services/timeline",
    "OWM": "https://api.openweathermap.org/data/2.5/forecast/daily",
}


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
        with np.load(path) as archive:
            return _sidecar_table(archive, store_sha256)
    except Exception:  # any unreadable sidecar only means the store text is parsed
        return None


def _sidecar_table(archive, store_sha256) -> ForecastTable | None:
    """:func:`records_from_npz` of the open sidecar `archive`; raises where it does not read."""
    texts = json.loads(archive["extras"].tobytes().decode("utf-8"))
    extras = [json.loads(text) for text in texts]
    provider, target, issue, index = (archive[key] for key in
                                      ("provider", "target", "issue", "extras_index"))
    columns = (archive["values"], archive["present"])
    n = target.size
    if (archive["store_sha256"].tobytes() != store_sha256
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
            or (columns[0][~columns[1]] != 0.0).any():
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
    """The column sidecar at `path`, read once: what :func:`fetch_forecasts` may reuse.

    `named` is the store digest the sidecar names; `stored` its table if
    :func:`records_from_npz` accepts it for that digest, else no rows. `digests` maps
    each (provider code, issue ordinal) of `payloads` (int64, (n, 2)) to its key in
    `payload_sha256` (uint8, (n, 32)), the SHA-256 of :func:`_payload_context` and the
    payload's text; `stored` holds all their rows inside its target dates. Keys of
    other dtypes or shapes, or without rows, are left out. Never raises. `clean` gets
    the key of each payload the ingest reads whose normalization skipped no entry.
    """

    def __init__(self, path):
        self.named, self.stored, self.digests, self.clean = None, ForecastTable.concat([]), {}, {}
        # an unreadable sidecar, table or key member leaves out what it would give
        with contextlib.suppress(Exception), np.load(path) as archive:
            self.named = archive["store_sha256"].tobytes()
            self.stored = _sidecar_table(archive, self.named) or self.stored
            days, sha = archive["payloads"], archive["payload_sha256"]
            if (len(self.stored) and (days.dtype, sha.dtype) == (np.int64, np.uint8)
                    and days.shape[1:] == (2,) and sha.shape == (len(days), 32)):
                self.digests = dict(zip(map(tuple, days.tolist()), map(bytes, sha)))

    def members(self) -> dict:
        """`clean` as the sidecar's `payloads` and `payload_sha256` members."""
        keys = sorted(self.clean)
        return {"payloads": np.array(keys, dtype=np.int64).reshape(-1, 2),
                "payload_sha256": np.array([list(self.clean[k]) for k in keys],
                                           np.uint8).reshape(-1, 32)}


def _payload_context(tz_offset_hours: float) -> bytes:
    """SHA-256 of what rows depend on besides the payload: offset, version, mappings, code."""
    from .. import __version__
    context = hashlib.sha256(repr((float(tz_offset_hours), __version__)).encode("utf-8"))
    maps = resources.files("etoforge").joinpath("provider_maps")
    for source in (Path(normalize.__file__), Path(records.__file__), Path(units.__file__),
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
    the whole issue-date window has nothing to replay. A payload whose key `memo`
    (a :class:`PayloadMemo`) holds is not normalized when the days it gives rows for
    inside `date_range` lie within `memo.stored`'s target dates: its rows come from there.
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
    code, memo = PROVIDERS.index(provider), memo or PayloadMemo(None)
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
    first, last, stored = start.toordinal(), end.toordinal(), memo.stored
    low, high = (stored.target.min(), stored.target.max()) if len(stored) else (1, 0)
    # a payload issued on `day` gives rows for day..day + MAX_HORIZON only
    fresh = {issued: normalize_payload(body, issued, mapping, tz_offset_hours)
             for issued, body in bodies.items()
             if memo.digests.get((code, day := issued.toordinal())) != keys[issued]
             or not low <= max(day, first) <= min(day + MAX_HORIZON, last) <= high}
    reused = [issued.toordinal() for issued in bodies if issued not in fresh]
    table = ForecastTable.concat([*fresh.values(), stored.take(np.flatnonzero(
        (stored.provider == code) & np.isin(stored.issue, reused)))])
    memo.clean.update(((code, issued.toordinal()), keys[issued]) for issued in bodies
                      if issued not in fresh or not fresh[issued].skipped)
    rows = np.flatnonzero((table.target >= first) & (table.target <= last))
    return table.take(rows[np.lexsort((table.horizon[rows], table.target[rows]))])
