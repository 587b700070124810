"""The store writer is byte-identical to one sorted-key json.dumps per record."""

import dataclasses
import datetime as dt
import hashlib
import io
import json

import pytest

from etoforge.weather import (ForecastRecord, ForecastSidecar, ForecastTable,
                              load_provider_mapping, normalize_payload, records_from_jsonl,
                              records_to_jsonl, records_to_npz, store_chunks)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_MAPPED = {"datetime", "tempmax", "tempmin", "humidity", "windspeed", "precip",
           "dt", "temp", "speed", "rain"}
_ABSENT = "absent"
_SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, 1e308])
_temp = st.floats(-1e308, 1e308) | st.integers(-60, 60) | _SPECIAL
_nonneg = st.floats(0.0, 1e308) | st.integers(0, 10 ** 6) | _SPECIAL
_rh = st.floats(0.0, 100.0) | st.integers(0, 100)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_extras = st.dictionaries(st.text(max_size=6).filter(lambda k: k not in _MAPPED), _json,
                          max_size=3)
_row = st.tuples(st.sampled_from(["VC", "OWM"]), st.integers(0, 3), st.integers(0, 15),
                 _temp, _temp, _rh, _nonneg, st.just(_ABSENT) | st.none() | _nonneg,
                 _extras, st.booleans())
_FIRST_ISSUE = dt.date(2022, 6, 1)


def _oracle(records) -> str:
    """The store as one json.dumps(sort_keys=True) per record, sorted stably."""
    lines = [json.dumps({
        "provider": r.provider,
        "target_date": r.target_date.isoformat(),
        "issue_date": r.issue_date.isoformat(),
        "temp_max": r.temp_max,
        "temp_min": r.temp_min,
        "rh_avg": r.rh_avg,
        "wind_avg": r.wind_avg,
        "precip": r.precip,
        "extras": r.extras,
    }, sort_keys=True) for r in sorted(records, key=lambda r: (r.provider, r.target_date,
                                                               r.issue_date))]
    return "\n".join(lines) + "\n"


def _entry(provider, target, high, low, rh, wind, precip, extras):
    if provider == "VC":
        entry = {"datetime": target.isoformat(), "tempmax": high, "tempmin": low,
                 "humidity": rh, "windspeed": wind, "precip": precip}
    else:
        noon = dt.datetime(target.year, target.month, target.day, 12, tzinfo=dt.timezone.utc)
        entry = {"dt": noon.timestamp(), "temp": {"max": high, "min": low},
                 "humidity": rh, "speed": wind, "rain": precip}
    return {**{k: v for k, v in entry.items() if v is not _ABSENT}, **extras}


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(rows=st.lists(_row, min_size=1, max_size=12))
def test_store_writer_is_byte_identical_to_json_dumps(rows):
    payloads, expected = {}, {}
    for provider, issue_day, horizon, a, b, rh, wind, precip, extras, blank in rows:
        low, high = sorted([a, b], key=float)
        issued = _FIRST_ISSUE + dt.timedelta(days=issue_day)
        target = issued + dt.timedelta(days=horizon)
        payloads.setdefault((provider, issued), []).append(
            _entry(provider, target, high, low, rh, wind, precip, extras))
        expected.setdefault((provider, issued), []).append(ForecastRecord(
            provider=provider, target_date=target, issue_date=issued,
            temp_max=float(high), temp_min=float(low), rh_avg=float(rh),
            wind_avg=float(wind) / 3.6 if provider == "VC" else float(wind),
            precip=None if precip in (_ABSENT, None) else float(precip), extras=extras))
    mappings = {p: load_provider_mapping(p) for p in ("VC", "OWM")}
    table = ForecastTable.concat([
        normalize_payload(json.dumps({"days" if p == "VC" else "list": entries}), issued,
                          mappings[p])
        for (p, issued), entries in payloads.items()])
    records = [r for group in expected.values() for r in group]
    store = records_to_jsonl(table)
    assert store == _oracle(records)

    # a parsed store's extras re-encode to the ingested texts, through the text and the sidecar
    assert records_to_jsonl(records_from_jsonl(store)) == store
    data = store.encode("utf-8")
    digest = hashlib.sha256(data).digest()
    loaded = ForecastSidecar(io.BytesIO(records_to_npz(table, digest))).table
    in_store_order = sorted(range(len(table)), key=lambda i: (
        table[i].provider, table.target[i], table.issue[i]))
    assert loaded.extras.tolist() == table.extras[in_store_order].tolist()

    # the same records as a list, some without humidity and wind, in reverse order
    records = [ForecastRecord(**{**vars(r), "rh_avg": None, "wind_avg": None})
               if row[-1] else r for r, row in zip(records, rows)][::-1]
    assert records_to_jsonl(records) == _oracle(records)


@pytest.mark.parametrize("n", [0, 1, 4096, 4097])
def test_store_chunks_join_to_the_store(synth, n):
    """The UTF-8 chunks `store_chunks` yields, 1,024 lines each but the last, join to
    the store text: one json.dumps per record, also for -0.0, absent fields and
    non-ASCII extras. No records give the one line "\\n"."""
    _, _, forecasts = synth
    records = [dataclasses.replace(
        r, precip=-0.0 if i % 3 == 0 else r.precip, rh_avg=None if i % 5 == 0 else r.rh_avg,
        wind_avg=None if i % 5 == 0 else r.wind_avg,
        extras={"conditions": "pluie légère", "index": i} if i % 7 == 0 else r.extras)
        for i, r in enumerate((forecasts["VC"] + forecasts["OWM"])[:n])]
    chunks = list(store_chunks(records))
    assert all(type(chunk) is bytes for chunk in chunks)
    assert [chunk.count(b"\n") for chunk in chunks] == (
        [1024] * (n // 1024) + [n % 1024] * bool(n % 1024) or [1])
    store = b"".join(chunks).decode("utf-8")
    assert store == _oracle(records) == records_to_jsonl(records)
    # json.dumps escapes non-ASCII text
    assert ('"precip": -0.0' in store, '"rh_avg": null' in store,
            '"pluie l\\u00e9g\\u00e8re"' in store) == (n > 0,) * 3
