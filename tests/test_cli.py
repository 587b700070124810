"""Command-line contract: exit codes, outputs, determinism, calculator."""

import collections
import dataclasses
import datetime as dt
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

import etoforge
from etoforge import cli, evalkit, regressor
from etoforge.cli import main
from etoforge.synthetic import (synthetic_dataset, synthetic_forecasts,
                                write_synthetic_cache)
from etoforge.weather import (MAX_HORIZON, ForecastTable, providers, records_from_jsonl,
                              records_from_npz, records_to_jsonl, records_to_npz,
                              serialize_ws_csv, store_chunks, ws_schema_text)
from etoforge.weather.records import as_table

from .test_pipelines import _polar_night, _zero_model


def _write_inputs(root, observations, forecasts):
    (root / "ws.csv").write_text(serialize_ws_csv(observations))
    (root / "ws.schema").write_text(ws_schema_text())
    write_synthetic_cache(forecasts, root / "cache")


def _config(root, out_dir, site, **extra):
    lines = {
        "site_id": site.site_id,
        "latitude": site.latitude,
        "longitude": site.longitude,
        "elevation": site.elevation,
        "wind_sensor_height": site.wind_sensor_height,
        "ws_csv": root / "ws.csv",
        "ws_schema": root / "ws.schema",
        "forecast_cache": root / "cache",
        "out_dir": out_dir,
        "seed": 7,
        "epochs": 150,
        "humidity_mode": "average",
    }
    lines.update(extra)
    path = root / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


@pytest.fixture(scope="module")
def big_ws(tmp_path_factory, synth):
    """730-day workspace, fully ingested and trained once."""
    site, observations, forecasts = synth
    root = tmp_path_factory.mktemp("cli-big")
    _write_inputs(root, observations, forecasts["VC"] + forecasts["OWM"])
    cfg = _config(root, root / "out", site, epochs=400)
    assert main(["ingest", "ws", "--config", str(cfg)]) == 0
    assert main(["ingest", "forecast", "--config", str(cfg), "--offline"]) == 0
    assert main(["train", "--config", str(cfg), "--target", "et0"]) == 0
    assert main(["train", "--config", str(cfg), "--target", "sr"]) == 0
    return {"root": root, "cfg": cfg, "out": root / "out", "site": site}


def test_ingest_ws_reports_count(big_ws, capsys):
    assert main(["ingest", "ws", "--config", str(big_ws["cfg"])]) == 0
    out = capsys.readouterr().out
    assert "730 observations" in out


def test_ingest_ws_missing_schema(tmp_path, synth, capsys):
    site, observations, _ = synth
    (tmp_path / "ws.csv").write_text(serialize_ws_csv(observations[:5]))
    cfg = _config(tmp_path, tmp_path / "out", site)
    assert main(["ingest", "ws", "--config", str(cfg)]) == 2
    assert "ws_schema" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["140.0", "nan", "inf", "humid", ""],
                         ids=["out-of-range", "nan", "inf", "non-numeric", "empty"])
def test_ingest_ws_bad_row_is_data_error(tmp_path, synth, capsys, cell):
    site, observations, _ = synth
    text = serialize_ws_csv(observations[:5])
    lines = text.splitlines()
    parts = lines[3].split(",")
    parts[6] = cell                          # rh_avg on data row 3
    lines[3] = ",".join(parts)
    (tmp_path / "ws.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "ws.schema").write_text(ws_schema_text())
    cfg = _config(tmp_path, tmp_path / "out", site)
    assert main(["ingest", "ws", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: row 3: ") and "Traceback" not in err


def test_ingest_ws_header_only_is_data_error(tmp_path, synth, capsys):
    site, _, _ = synth
    _write_inputs(tmp_path, [], [])
    cfg = _config(tmp_path, tmp_path / "out", site)
    assert main(["ingest", "ws", "--config", str(cfg)]) == 3
    assert "no data rows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_config_key(tmp_path, synth, capsys):
    site, observations, _ = synth
    _write_inputs(tmp_path, observations[:5], [])
    cfg = _config(tmp_path, tmp_path / "out", site, typo_key="1")
    assert main(["ingest", "ws", "--config", str(cfg)]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_non_utf8_config_is_usage_error(tmp_path, synth, capsys):
    site, observations, _ = synth
    cfg = _config(tmp_path, tmp_path / "out", site)
    cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
    assert main(["ingest", "ws", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "cannot read config file" in err and "Traceback" not in err


def test_flags_override_config(tmp_path, synth):
    site, observations, _ = synth
    _write_inputs(tmp_path, observations[:20], [])
    cfg = _config(tmp_path, tmp_path / "out-a", site)
    assert main(["ingest", "ws", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out-b")]) == 0
    assert (tmp_path / "out-b" / "observations.csv").is_file()
    assert not (tmp_path / "out-a").exists()


def test_ingest_forecast_reports_horizons(big_ws, capsys):
    assert main(["ingest", "forecast", "--config", str(big_ws["cfg"]),
                 "--offline"]) == 0
    out = capsys.readouterr().out
    assert "16 horizons per date" in out
    assert "VC:" in out and "OWM:" in out


def test_ingest_forecast_reports_horizon_range(tmp_path, synth, capsys):
    site, observations, forecasts = synth
    _write_inputs(tmp_path, observations[:40], forecasts["VC"][:640])
    (tmp_path / "cache" / "vc" / "2020-01-10.json").unlink()   # d0..d15 of Jan 10-25
    cfg = _config(tmp_path, tmp_path / "out", site, providers="VC",
                  start_date="2020-01-01", end_date="2020-02-09")
    assert main(["ingest", "forecast", "--config", str(cfg), "--offline"]) == 0
    assert ("VC: 624 forecast records across 40 target dates, "
            "15-16 horizons per date") in capsys.readouterr().out


def _run_cli(argv):
    """`etoforge argv` in a fresh interpreter, as a user runs it, with its output as text."""
    env = {**os.environ, "PYTHONPATH": str(Path(etoforge.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "etoforge.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_oversized_numbers_in_cached_payloads_are_skipped(tmp_path, synth):
    site, observations, forecasts = synth
    _write_inputs(tmp_path, observations[:20], forecasts["VC"][:320] + forecasts["OWM"][:320])
    issued = observations[5].date.isoformat()
    for provider, key, value in (("vc", "tempmax", "1" + "0" * 400), ("owm", "dt", "1e999")):
        path = tmp_path / "cache" / provider / f"{issued}.json"
        doc = json.loads(path.read_text())
        doc["days" if provider == "vc" else "list"][0][key] = "OVERSIZED"
        path.write_text(json.dumps(doc).replace('"OVERSIZED"', value))
    cfg = _config(tmp_path, tmp_path / "out", site, start_date=observations[0].date,
                  end_date=observations[19].date)
    done = _run_cli(["ingest", "forecast", "--offline", "--config", str(cfg)])
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert f"skipping VC entry issued {issued}: int too large to convert to float" \
        in done.stderr
    assert f"skipping OWM entry issued {issued}: " in done.stderr
    assert "VC: 319 forecast records" in done.stdout and "OWM: 319 forecast records" in done.stdout
    assert len((tmp_path / "out" / "forecasts.jsonl").read_text().splitlines()) == 638


BAD_CONFIG_VALUES = [
    ("longitude", "nan"), ("tz_offset_hours", "nan"), ("longitude", "1e30"),
    ("tz_offset_hours", "1e20"), ("longitude", "500"),
    ("wind_sensor_height", "inf"), ("wind_sensor_height", "nan"),
    ("forecast_wind_height", "nan"), ("forecast_wind_height", "inf"),
    ("forecast_wind_height", "0"), ("forecast_wind_height", "-2"),
    ("seed", "-1"), ("hidden", "-3"), ("hidden", "0"), ("hidden", "32,0"),
    ("features", ""), ("providers", ""), ("activation", "sigmoid"),
    ("learning_rate", "nan"), ("learning_rate", "inf"), ("ws_column_tempmax", "X"),
    ("r2_threshold", "nan"), ("r2_threshold", "inf"), ("r2_threshold", "-inf"),
    ("mape_threshold", "-1"), ("mape_threshold", "nan"),
    # reversed against the configured end_date / start_date
    ("start_date", "2021-06-01"), ("end_date", "2019-12-01"),
]


@pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES,
                         ids=[f"{key}={value}" for key, value in BAD_CONFIG_VALUES])
def test_bad_site_time_setting_is_usage_error(tmp_path, synth, capsys, key, value):
    """The config row of the fault matrix: every command resolves the config
    first, so a bad value is one `error:` line naming its key, exit 2."""
    site, observations, forecasts = synth
    _write_inputs(tmp_path, observations[:20], forecasts["VC"][:320])
    cfg = _config(tmp_path, tmp_path / "out", site, providers="VC",
                  start_date=observations[0].date, end_date=observations[19].date)
    assert main(["ingest", "forecast", "--offline", "--config", str(cfg),
                 "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_ingest_forecast_empty_cache(tmp_path, synth, capsys):
    site, observations, _ = synth
    _write_inputs(tmp_path, observations[:10], [])
    (tmp_path / "cache").mkdir(exist_ok=True)
    cfg = _config(tmp_path, tmp_path / "out", site,
                  start_date="2020-01-01", end_date="2020-01-05")
    assert main(["ingest", "forecast", "--config", str(cfg), "--offline"]) == 3
    assert "no cached" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["sr", "et0"])
def test_train_prints_heldout_quality(big_ws, capsys, target):
    assert main(["train", "--config", str(big_ws["cfg"]),
                 "--target", target]) == 0
    out = capsys.readouterr().out
    match = re.search(r"held-out R2 = ([0-9.]+)", out)
    assert match and float(match.group(1)) >= 0.95


def test_train_is_byte_deterministic(tmp_path, synth):
    site, observations, _ = synth
    _write_inputs(tmp_path, observations[:200], [])
    digests = []
    for name in ("run-a", "run-b"):
        cfg = _config(tmp_path, tmp_path / name, site)
        assert main(["ingest", "ws", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg), "--target", "et0"]) == 0
        digests.append(hashlib.sha256(
            (tmp_path / name / "model_et0.json").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_evaluate_writes_reports_and_prints_usable(big_ws, capsys):
    assert main(["evaluate", "--config", str(big_ws["cfg"])]) == 0
    out = capsys.readouterr().out
    for name in ("sweep.csv", "fidelity.csv", "distributions.csv",
                 "usable_horizons.csv", "manifest.json"):
        assert (big_ws["out"] / name).is_file()
    lines = [l for l in out.splitlines() if l.startswith("usable horizon")]
    assert len(lines) == 12    # 2 criteria x 2 providers x 3 estimators
    assert all(re.search(r"-> d(-1|\d+)$", l) for l in lines)
    sweep_lines = (big_ws["out"] / "sweep.csv").read_text().strip().splitlines()
    assert len(sweep_lines) == 1 + 96


def test_evaluate_perfect_provider_usable_15(tmp_path, capsys):
    site, observations, _ = synthetic_dataset(seed=11, n_days=120)
    perfect = (synthetic_forecasts(observations, "VC", noise_base=0.0, noise_slope=0.0)
               + synthetic_forecasts(observations, "OWM", noise_base=0.0,
                                     noise_slope=0.0))
    _write_inputs(tmp_path, observations, perfect)
    cfg = _config(tmp_path, tmp_path / "out", site)
    for argv in (["ingest", "ws"], ["ingest", "forecast", "--offline"],
                 ["train", "--target", "et0"], ["train", "--target", "sr"],
                 ["evaluate"]):
        assert main(argv[:1] + argv[1:] + ["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines()
             if l.startswith("usable horizon (r2>=0.7)")]
    assert len(lines) == 6 and all(l.endswith("-> d15") for l in lines)


def test_evaluate_missing_sr_model(tmp_path, synth, capsys):
    site, observations, forecasts = synth
    _write_inputs(tmp_path, observations[:40], forecasts["VC"][:640])
    cfg = _config(tmp_path, tmp_path / "out", site, epochs=30, providers="VC")
    assert main(["ingest", "ws", "--config", str(cfg)]) == 0
    assert main(["ingest", "forecast", "--config", str(cfg), "--offline"]) == 0
    assert main(["train", "--config", str(cfg), "--target", "et0"]) == 0
    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert "model_sr.json" in capsys.readouterr().err


def test_predict_forecast_source_with_horizon(big_ws):
    assert main(["predict", "--config", str(big_ws["cfg"]),
                 "--estimator", "et0_hyb", "--source", "vc",
                 "--horizon", "3"]) == 0
    path = big_ws["out"] / "predictions_et0_hyb_vc_d3.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "date,source,horizon,estimator,value,clamped"
    assert len(lines) == 1 + 730
    assert all(l.split(",")[1] == "VC" and l.split(",")[2] == "3"
               for l in lines[1:])


def test_predict_ws_source_rejects_a_horizon(big_ws, capsys):
    assert main(["predict", "--config", str(big_ws["cfg"]), "--estimator", "et0_ann",
                 "--source", "ws", "--horizon", "3"]) == 2
    assert "--horizon" in capsys.readouterr().err
    assert not (big_ws["out"] / "predictions_et0_ann_ws_d3.csv").exists()


def test_sr_ann_does_not_need_the_hybrid_physics(tmp_path, capsys):
    site, observations, _ = _polar_night()
    _write_inputs(tmp_path, observations, [])
    cfg = _config(tmp_path, tmp_path / "out", site)
    assert main(["ingest", "ws", "--config", str(cfg)]) == 0
    regressor.save(_zero_model("SR", 5.0), tmp_path / "out" / "model_sr.json")
    predict = ["predict", "--config", str(cfg), "--source", "ws", "--estimator"]
    assert main(predict + ["sr_ann"]) == 0
    lines = (tmp_path / "out" / "predictions_sr_ann_ws.csv").read_text().splitlines()
    assert [line.split(",")[4] for line in lines[1:]] == ["5.0", "5.0"]
    capsys.readouterr()
    assert main(predict + ["et0_hyb"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: 2022-12-20: ") and "Traceback" not in err


@pytest.fixture(scope="module")
def small_ws(tmp_path_factory, synth):
    """A 40-day VC-only workspace, ingested and trained, to copy and corrupt."""
    site, observations, forecasts = synth
    root = tmp_path_factory.mktemp("cli-small")
    _write_inputs(root, observations[:40], forecasts["VC"][:640])
    cfg = _config(root, root / "out", site, epochs=30, providers="VC")
    for argv in (["ingest", "ws"], ["ingest", "forecast", "--offline"],
                 ["train", "--target", "et0"], ["train", "--target", "sr"]):
        assert main(argv + ["--config", str(cfg)]) == 0
    return {"cfg": cfg, "root": root}


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _non_utf8(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2] + b"\xff\xfe" + data[len(data) // 2:])


def _copy_argv(small_ws, root, command):
    """`command` with every input and output path moved to the copy at `root`."""
    return command + ["--config", str(small_ws["cfg"]), "--out-dir", str(root / "out"),
                      "--set", f"forecast_cache={root / 'cache'}",
                      "--set", f"ws_csv={root / 'ws.csv'}",
                      "--set", f"ws_schema={root / 'ws.schema'}"]


def _run_in_copy(small_ws, root, command):
    """`command`, run in this process in the copy at `root`; its exit code."""
    return main(_copy_argv(small_ws, root, command))


def _file_bytes(directory):
    return {p: p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def _assert_typed_failure(small_ws, root, command, message, capsys):
    """`command`, run in the copy at `root`, exits 3 with one `error:` line
    holding `message`, no traceback, and leaves `out/` byte for byte as it was."""
    before = _file_bytes(root / "out")
    capsys.readouterr()
    assert _run_in_copy(small_ws, root, command) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert message in err and "Traceback" not in err
    assert _file_bytes(root / "out") == before


def _edit_lines(edit):
    """A corruption that rewrites a file's list of lines (line ends kept) with `edit`."""
    def corrupt(path):
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(edit(lines)))
    return corrupt


def _set_cell(row, column, value):
    def edit(lines):
        cells = lines[row].split(b",")
        cells[column] = value(lines)
        return lines[:row] + [b",".join(cells)] + lines[row + 1:]
    return _edit_lines(edit)


STATION_CSV_FAULTS = {
    # data row 3 cut after its temp_min cell
    "truncated": (_edit_lines(lambda lines: lines[:3] + [b",".join(lines[3].split(b",")[:3])]),
                  "empty value for temp_avg"),
    "empty": (lambda path: path.write_bytes(b""), "not in file header"),
    "header-only": (_edit_lines(lambda lines: lines[:1]), "has no data rows"),
    "text": (_set_cell(3, 6, lambda lines: b"humid"), "is not a number"),
    "nan": (_set_cell(3, 6, lambda lines: b"nan"), "is not a finite number"),
    "non-utf8": (_non_utf8, "is not UTF-8 text"),
    "duplicate-date": (_set_cell(3, 0, lambda lines: lines[2].split(b",")[0]),
                       "appears in rows 2 and 3"),
}
STATION_SCHEMA_FAULTS = {
    "truncated": (_truncate, "expected column=unit"),
    "empty": (lambda path: path.write_bytes(b""), "no unit declared for column"),
    "no-equals": (_edit_lines(lambda lines: lines + [b"temp_max degC\n"]),
                  "expected column=unit"),
    "non-utf8": (_non_utf8, "is not UTF-8 text"),
}
STATION_READERS = {
    "ingest-ws": ["ingest", "ws"],
    "train": ["train", "--target", "et0"],
    "evaluate": ["evaluate"],
    "predict-ws": ["predict", "--estimator", "et0_ann", "--source", "ws"],
    # no dates configured, so the range is read from the ingested observations
    "ingest-forecast": ["ingest", "forecast", "--offline"],
}
STATION_CASES = (
    [("ingest-ws", "ws.csv", fault) for fault in STATION_CSV_FAULTS]
    + [("ingest-ws", "ws.schema", fault) for fault in STATION_SCHEMA_FAULTS]
    + [(reader, "out/observations.csv", fault)
       for reader in ("train", "evaluate", "predict-ws", "ingest-forecast")
       for fault in STATION_CSV_FAULTS])


@pytest.mark.parametrize("reader, artifact, fault", STATION_CASES,
                         ids=[f"{r}-{Path(a).name}-{f}" for r, a, f in STATION_CASES])
def test_station_fault_is_a_typed_data_error(small_ws, tmp_path, capsys,
                                             reader, artifact, fault):
    """The station rows of the fault matrix: each command that reads a station
    file fails on a broken one with one `error:` line, exit 3, and writes nothing."""
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)
    faults = STATION_SCHEMA_FAULTS if artifact.endswith(".schema") else STATION_CSV_FAULTS
    corrupt, message = faults[fault]
    corrupt(root / artifact)
    _assert_typed_failure(small_ws, root, STATION_READERS[reader], message, capsys)


def _sub_line(lineno, pattern, replacement):
    """A corruption that rewrites the first match of `pattern` in line `lineno` (1-based)."""
    def edit(lines):
        line = re.sub(pattern, replacement, lines[lineno - 1], count=1)
        return lines[:lineno - 1] + [line] + lines[lineno:]
    return _edit_lines(edit)


def _once(corrupt):
    """A sidecar fault applied once: the generator form every SIDECAR_FAULTS entry has."""
    def faults(path):
        corrupt(path)
        yield
    return faults


def _repacked(path, edit):
    """Re-pack the sidecar at `path` after `edit(members)`: its store hash
    still matches the store."""
    with np.load(path) as archive:
        members = dict(archive)
    edit(members)
    with path.open("wb") as fh:
        np.savez(fh, **members)


def _repack(keys, index, value):
    """A re-packed sidecar with each member named in `keys` set to
    `value(members)` at `index`."""
    def edit(members):
        for key in keys.split():
            members[key][index] = value(members)
    return _once(lambda path: _repacked(path, edit))


@_once
def _extras_not_objects(path):
    """A re-packed sidecar whose every distinct extras text is `[]`, not a JSON object."""
    def edit(members):
        count = len(json.loads(members["extras"].tobytes()))
        members["extras"] = np.frombuffer(json.dumps(["[]"] * count).encode(), dtype=np.uint8)
    _repacked(path, edit)


@_once
def _stale_sidecar(path):
    """The sidecar of another store: every temp_max half a degree warmer."""
    table = records_from_jsonl((path.parent / "forecasts.jsonl").read_text())
    warmer = [dataclasses.replace(r, temp_max=r.temp_max + 0.5) for r in table]
    path.write_bytes(records_to_npz(warmer, hashlib.sha256(records_to_jsonl(warmer).encode())
                                    .digest()))


def _flip_bytes(path):
    """The sidecar with a byte flipped at each of 64 evenly spaced offsets in turn."""
    data = path.read_bytes()
    for offset in np.linspace(0, len(data) - 1, 64).astype(int).tolist():
        path.write_bytes(data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1:])
        yield


STORE_FAULTS = {
    "truncated": (_truncate, "not a stored forecast record"),
    "emptied": (lambda path: path.write_bytes(b""), "has no records"),
    "wrong-type": (_sub_line(3, rb'"temp_max": [^,]+', b'"temp_max": "hot"'),
                   "row 3: not a stored forecast record: TypeError"),
    "nan": (_sub_line(3, rb'"rh_avg": [^,]+', b'"rh_avg": NaN'),
            "row 3: not a stored forecast record: RangeError('rh_avg=nan is not a finite"),
    "true": (_sub_line(3, rb'"temp_max": [^,]+', b'"temp_max": true'),
             "row 3: not a stored forecast record: RangeError('temp_max=True is not a finite"),
    "non-utf8": (_non_utf8, "is not UTF-8 text"),
    "extras-not-object": (_sub_line(3, rb'^\{"extras": \{.*?\}, "issue_date"',
                                    b'{"extras": [], "issue_date"'),
                          "row 3: not a stored forecast record: ValueError('extras is a JSON "
                          "list, not an object')"),
}
SIDECAR_FAULTS = {
    "missing": _once(lambda path: path.unlink()),
    "truncated": _once(_truncate),
    "empty": _once(lambda path: path.write_bytes(b"")),
    "random-bytes": _once(lambda path: path.write_bytes(
        random.Random(5).randbytes(path.stat().st_size))),
    "stale": _stale_sidecar,
    "flipped-bytes": _flip_bytes,
    "out-of-range": _repack("values", (2, 0), lambda m: 150.0),   # rh_avg of row 0
    "horizon-16": _repack("issue", 0, lambda m: m["target"][0] - 16),
    "target-0": _repack("target issue", 0, lambda m: 0),        # horizon 0, no date
    "extras-not-object": _extras_not_objects,
}
STORE_READERS = {
    "evaluate": ["evaluate"],
    "predict-vc": ["predict", "--estimator", "et0_hyb", "--source", "vc"],
}
STORE_CASES = (
    [(reader, "store", fault, sidecar) for reader in STORE_READERS for fault in STORE_FAULTS
     for sidecar in ("stale-sidecar", "no-sidecar")]
    + [(reader, "sidecar", fault, None) for reader in STORE_READERS for fault in SIDECAR_FAULTS])


def _command_outputs(small_ws, root, command, capsys):
    """(exit code, stdout, stderr, out/ files, manifest) of `command` run in the copy
    at `root`, with the copy's path written as ROOT and the sidecar left out."""
    capsys.readouterr()
    code = _run_in_copy(small_ws, root, command)
    out, err = (text.replace(str(root), "ROOT") for text in capsys.readouterr())
    files = {p.name: p.read_bytes() for p in (root / "out").iterdir()
             if p.name not in ("forecasts.npz", "manifest.json")}
    manifest = json.loads((root / "out" / "manifest.json").read_text())
    manifest["files"].pop("forecasts.npz", None)
    return code, out, err, files, manifest


@pytest.mark.parametrize(
    "reader, artifact, fault, sidecar", STORE_CASES,
    ids=["-".join(filter(None, case)) for case in STORE_CASES])
def test_forecast_store_fault_matrix(small_ws, tmp_path, capsys,
                                     reader, artifact, fault, sidecar):
    """The forecast-store rows of the fault matrix. A broken store fails each
    reader with one `error:` line, exit 3, writing nothing, whether its (now
    stale) sidecar is there or not. A broken sidecar beside a valid store is
    never read: the command exits 0 with the outputs it gives without one."""
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)
    command = STORE_READERS[reader]
    if artifact == "store":
        corrupt, message = STORE_FAULTS[fault]
        if sidecar == "no-sidecar":
            (root / "out" / "forecasts.npz").unlink()
        corrupt(root / "out" / "forecasts.jsonl")
        _assert_typed_failure(small_ws, root, command, message, capsys)
        return
    base = tmp_path / "base"
    shutil.copytree(small_ws["root"], base)
    (base / "out" / "forecasts.npz").unlink()
    expected = _command_outputs(small_ws, base, command, capsys)
    assert expected[0] == 0, expected[2]
    for _ in SIDECAR_FAULTS[fault](root / "out" / "forecasts.npz"):
        assert _command_outputs(small_ws, root, command, capsys) == expected


@pytest.mark.parametrize("fault", ["out-of-range", "horizon-16", "target-0", "extras-not-object"])
def test_repacked_sidecar_is_not_read(small_ws, tmp_path, fault):
    """A sidecar re-packed with a value the store parse would reject is not read,
    though its hash still matches the store."""
    sidecar = tmp_path / "forecasts.npz"
    shutil.copy(small_ws["root"] / "out" / "forecasts.npz", sidecar)
    store = (small_ws["root"] / "out" / "forecasts.jsonl").read_bytes()
    digest = hashlib.sha256(store).digest()
    assert records_from_npz(sidecar, digest) is not None
    for _ in SIDECAR_FAULTS[fault](sidecar):
        assert records_from_npz(sidecar, digest) is None


def _sub(pattern, replacement):
    """A corruption that rewrites the first match of `pattern` in a file."""
    def corrupt(path):
        path.write_bytes(re.sub(pattern, replacement, path.read_bytes(), count=1))
    return corrupt


MODEL_FAULTS = {
    "truncated": (_truncate, "model document is not valid JSON"),
    "empty": (lambda path: path.write_bytes(b""), "model document is not valid JSON"),
    "wrong-type": (_sub(rb'"target_mean": ("[^"]*")', rb'"target_mean": [\1]'),
                   "malformed model document: float() argument"),
    "nan-target-std": (_sub(rb'"target_std": "[^"]*"', b'"target_std": NaN'),
                       "target stats are invalid: mean"),
    "layer-size-1e400": (_sub(rb'"layer_sizes": \[\s*\d+', b'"layer_sizes": [1e400'),
                         "malformed model document: cannot convert float infinity"),
    "non-utf8": (_non_utf8, "model document is not valid JSON"),
}
MODEL_READERS = {
    "model_et0.json": {"evaluate": ["evaluate"],
                       "predict-et0_ann": ["predict", "--estimator", "et0_ann",
                                           "--source", "ws"]},
    "model_sr.json": {"evaluate": ["evaluate"],
                      "predict-sr_ann": ["predict", "--estimator", "sr_ann", "--source", "ws"],
                      "predict-et0_hyb": ["predict", "--estimator", "et0_hyb",
                                          "--source", "vc"]},
}
MODEL_CASES = [(reader, model, fault) for model, readers in MODEL_READERS.items()
               for reader in readers for fault in MODEL_FAULTS]


@pytest.mark.parametrize("reader, model, fault", MODEL_CASES,
                         ids=["-".join(case) for case in MODEL_CASES])
def test_model_file_fault_matrix(small_ws, tmp_path, capsys, reader, model, fault):
    """The model-file rows of the fault matrix: each command that reads a model
    fails on a broken one with one `error:` line, exit 3, and writes nothing."""
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)
    corrupt, message = MODEL_FAULTS[fault]
    corrupt(root / "out" / model)
    _assert_typed_failure(small_ws, root, MODEL_READERS[model][reader], f"{model}: {message}",
                          capsys)


def test_repeated_feature_names_are_refused(small_ws, tmp_path, capsys):
    """A feature named twice is a usage error in the config (exit 2) and a data
    error in a model file (exit 3): it would feed inputs from the wrong columns."""
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)
    capsys.readouterr()
    assert _run_in_copy(small_ws, root, ["train", "--target", "sr", "--set",
                                         "features=temp_max,temp_max,ra"]) == 2
    assert "features repeat a name" in capsys.readouterr().err
    path = root / "out" / "model_sr.json"
    doc = json.loads(path.read_text())
    doc["scaler"]["feature_names"] = ["temp_max"] * len(doc["scaler"]["feature_names"])
    path.write_text(json.dumps(doc))
    _assert_typed_failure(small_ws, root, MODEL_READERS["model_sr.json"]["predict-et0_hyb"],
                          "feature names repeat", capsys)


@pytest.fixture(scope="module")
def payload_ws(tmp_path_factory, synth):
    """A 20-day workspace with VC and OWM payloads cached and ingested, to copy and corrupt."""
    site, observations, forecasts = synth
    root = tmp_path_factory.mktemp("cli-payload")
    _write_inputs(root, observations[:20], forecasts["VC"][:320] + forecasts["OWM"][:320])
    cfg = _config(root, root / "out", site)
    for argv in (["ingest", "ws"], ["ingest", "forecast", "--offline"]):
        assert main(argv + ["--config", str(cfg)]) == 0
    return {"cfg": cfg, "root": root, "issued": observations[5].date.isoformat()}


PAYLOAD_FAULTS = {   # the whole payload: (corruption, error message)
    "truncated": (_truncate, "payload is not JSON"),
    "empty": (lambda path: path.write_bytes(b""), "payload is not JSON"),
    "non-utf8": (_non_utf8, "payload is not UTF-8"),
}
ENTRY_FAULTS = {     # the first entry's temp_max: (value, skip reason)
    "wrong-type": ("hot", "='hot' is not a number"),
    "nan": (float("nan"), "temp_max=nan is not a finite number"),
    "true": (True, "=True is not a number"),
    "numeric-string": ("12.5", "='12.5' is not a number"),
}
PAYLOAD_CASES = [(provider, fault) for provider in ("vc", "owm")
                 for fault in [*PAYLOAD_FAULTS, *ENTRY_FAULTS]]


@pytest.mark.parametrize("provider, fault", PAYLOAD_CASES,
                         ids=["-".join(case) for case in PAYLOAD_CASES])
def test_cache_payload_fault_matrix(payload_ws, tmp_path, capsys, provider, fault):
    """The cache-payload rows of the fault matrix, under `ingest forecast --offline`.
    A payload that does not decode fails the ingest with one `error:` line naming
    its provider and issue date, exit 3, and writes nothing. A bad value in one
    entry skips that entry alone, with one warning line, and the ingest exits 0."""
    root = tmp_path / "ws"
    shutil.copytree(payload_ws["root"], root)
    name, issued = provider.upper(), payload_ws["issued"]
    payload = root / "cache" / provider / f"{issued}.json"
    command = ["ingest", "forecast", "--offline"]
    if fault in PAYLOAD_FAULTS:
        corrupt, message = PAYLOAD_FAULTS[fault]
        corrupt(payload)
        _assert_typed_failure(payload_ws, root, command, f"{message} ({name} issued {issued})",
                              capsys)
        return
    value, reason = ENTRY_FAULTS[fault]
    doc = json.loads(payload.read_text())
    if provider == "vc":
        doc["days"][0]["tempmax"] = value
    else:
        doc["list"][0]["temp"]["max"] = value
    payload.write_text(json.dumps(doc))
    store = (root / "out" / "forecasts.jsonl").read_text().splitlines()
    done = _run_cli(_copy_argv(payload_ws, root, command))
    assert done.returncode == 0, done.stderr
    (warning,) = done.stderr.splitlines()
    assert warning.startswith(f"skipping {name} entry issued {issued}: ") and reason in warning
    # the entry issued on its own target date, d0, is the one store line lost
    lost = [line for line in store if f'"issue_date": "{issued}", ' in line
            and f'"provider": "{name}", ' in line and f'"target_date": "{issued}", ' in line]
    assert len(lost) == 1
    kept = [line for line in store if line != lost[0]]
    assert (root / "out" / "forecasts.jsonl").read_text().splitlines() == kept


INGEST = ["ingest", "forecast", "--offline"]


def _ingest_outputs(ws, root, capsys, monkeypatch, *options):
    """(exit code, stdout, stderr, out/ files by name, payloads normalized) of
    `ingest forecast --offline` run in this process in the copy at `root`,
    with the copy's path written as ROOT."""
    normalized = []
    normalize = providers.normalize_payload

    def counting(body, issue_date, mapping, *args):
        normalized.append((mapping.provider, issue_date))
        return normalize(body, issue_date, mapping, *args)

    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(providers, "normalize_payload", counting)
        code = _run_in_copy(ws, root, INGEST + list(options))
    out, err = (text.replace(str(root), "ROOT") for text in capsys.readouterr())
    files = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    return code, out, err, files, normalized


def _cold_copy(ws, root, edit=None):
    """A copy of `ws` at `root` without its column sidecar, after `edit(root)`."""
    shutil.copytree(ws["root"], root)
    (root / "out" / cli.FORECAST_COLUMNS).unlink()
    if edit is not None:
        edit(root)


def _on_sidecar(fault):
    """`fault` applied to the column sidecar of the workspace copy at `root`."""
    return lambda ws, root: fault(root / "out" / cli.FORECAST_COLUMNS)


def _other_tz(ws, root):
    """The store and sidecar of an ingest under another local-time offset, under
    which the OWM payloads give other target dates."""
    store = (root / "out" / "forecasts.jsonl").read_bytes()
    assert _run_in_copy(ws, root, INGEST + ["--set", "tz_offset_hours=13"]) == 0
    assert (root / "out" / "forecasts.jsonl").read_bytes() != store
    yield


def _bad_keys(path):
    """The sidecar with broken payload keys, one way after another: a key member
    failing its CRC check, of another dtype or shape, or left out. Its table stays
    valid for the store."""
    data = path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("payloads.npy")
    # a byte past the member's local header (30 bytes, its name, its extra field) and
    # its .npy header
    at = info.header_offset + 30 + len(info.filename) + len(info.extra) + 200
    path.write_bytes(data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:])
    yield
    path.write_bytes(data)
    with np.load(path) as archive:
        keys = {name: archive[name] for name in ("payloads", "payload_sha256")}
    days, sha = keys.values()
    for broken in ({"payloads": days.astype(np.int32)}, {"payload_sha256": sha.astype(np.int64)},
                   {"payloads": days.T.copy()}, {"payload_sha256": sha[:-1]},
                   {"payloads": days.ravel()}, {"payloads": None}, {"payload_sha256": None}):
        def edit(members, broken=broken):
            members.update(keys, **broken)
            for name in [name for name, value in broken.items() if value is None]:
                del members[name]
        _repacked(path, edit)
        yield


@_once
def _other_store(path):
    """The sidecar re-packed to name another store than the one beside it."""
    _repacked(path, lambda members: members.update(store_sha256=np.frombuffer(
        hashlib.sha256(b"another store").digest(), dtype=np.uint8)))


PAYLOAD_KEY_FAULTS = {
    "truncated": _on_sidecar(_once(_truncate)),
    "crc": _on_sidecar(_flip_bytes),
    "garbage": _on_sidecar(SIDECAR_FAULTS["random-bytes"]),
    "empty": _on_sidecar(SIDECAR_FAULTS["empty"]),
    "other-tz": _other_tz,
    "bad-keys": _on_sidecar(_bad_keys),
    "other-store": _on_sidecar(_other_store),
    "no-sidecar": _on_sidecar(SIDECAR_FAULTS["missing"]),
}


@pytest.mark.parametrize("fault", PAYLOAD_KEY_FAULTS)
def test_payload_memo_fault_matrix(payload_ws, tmp_path, capsys, monkeypatch, fault):
    """The payload-key rows of the fault matrix: a missing or broken sidecar, one
    written under another offset, one naming another store, or one whose payload keys
    are broken but whose table is valid is never an error; `ingest forecast` gives
    the exit code, output and `out/` bytes of a run without a sidecar, and normalizes
    every payload unless the sidecar's table and keys are intact. Broken keys beside
    a valid table leave the table in use: the unchanged store is not formatted. A
    sidecar naming another store keeps its table and keys, so no payload is
    normalized, but the store on disk is formatted again."""
    _cold_copy(payload_ws, tmp_path / "base")
    expected = _ingest_outputs(payload_ws, tmp_path / "base", capsys, monkeypatch)
    assert expected[0] == 0 and expected[4], expected[2]
    root = tmp_path / "ws"
    shutil.copytree(payload_ws["root"], root)
    calls = _formatting(monkeypatch)
    for _ in PAYLOAD_KEY_FAULTS[fault](payload_ws, root):
        calls.clear()
        got = _ingest_outputs(payload_ws, root, capsys, monkeypatch)
        assert got[:4] == expected[:4]
        if fault == "other-store":
            assert got[4] == [] and calls
        elif fault != "crc":   # a flip in a field the zip reader ignores leaves the sidecar valid
            assert got[4] == expected[4]
        if fault == "bad-keys":
            assert calls == []


def _edit_payload(provider, issued, edit):
    """An edit of the cached payload of `provider` issued on `issued`: `edit(its entries)`."""
    def change(root):
        path = root / "cache" / provider / f"{issued}.json"
        doc = json.loads(path.read_text())
        edit(doc["days"] if provider == "vc" else doc["list"])
        path.write_text(json.dumps(doc))
    return change


def test_warm_ingest_normalizes_only_the_changed_payload(payload_ws, tmp_path, capsys,
                                                         monkeypatch):
    """A warm `ingest forecast` after one cached payload changed normalizes that
    payload alone, and writes the bytes a run without a sidecar writes."""
    issued = payload_ws["issued"]
    edit = _edit_payload("vc", issued, lambda days: days[1].update(tempmax=days[1]["tempmax"] + 1))
    _cold_copy(payload_ws, tmp_path / "cold", edit)
    expected = _ingest_outputs(payload_ws, tmp_path / "cold", capsys, monkeypatch)
    root = tmp_path / "warm"
    shutil.copytree(payload_ws["root"], root)
    edit(root)
    got = _ingest_outputs(payload_ws, root, capsys, monkeypatch)
    assert got[4] == [("VC", dt.date.fromisoformat(issued))]
    assert got[:4] == expected[:4] and expected[0] == 0
    assert got[3]["forecasts.jsonl"] != (payload_ws["root"] / "out" /
                                         "forecasts.jsonl").read_bytes()


def test_warm_ingest_of_a_later_end_date_gives_the_cold_bytes(payload_ws, tmp_path, capsys,
                                                              monkeypatch):
    """After an ingest up to the day before, an ingest up to the last observed day
    normalizes again the payloads with rows on that day, the 16 per provider issued
    on it or up to 15 days before, reuses the others and writes the bytes a run
    without a sidecar writes."""
    _cold_copy(payload_ws, tmp_path / "cold")
    expected = _ingest_outputs(payload_ws, tmp_path / "cold", capsys, monkeypatch)
    last = max(issued for _, issued in expected[4])
    root = tmp_path / "warm"
    shutil.copytree(payload_ws["root"], root)
    earlier = _ingest_outputs(payload_ws, root, capsys, monkeypatch,
                              "--set", f"end_date={last - dt.timedelta(days=1)}")
    assert earlier[0] == 0
    assert f'"target_date": "{last}"' not in earlier[3]["forecasts.jsonl"].decode()
    got = _ingest_outputs(payload_ws, root, capsys, monkeypatch)
    assert got[:4] == expected[:4] and expected[0] == 0
    reaching = last - dt.timedelta(days=MAX_HORIZON)
    assert got[4] == [(provider, issued) for provider, issued in expected[4] if issued >= reaching]
    assert len(got[4]) == 32


def test_skip_warnings_replay_on_a_warm_ingest(payload_ws, tmp_path):
    """A payload that had an entry skipped gets no key in the sidecar: a warm run
    prints the cold run's warnings and writes its bytes, the sidecar's included."""
    root = tmp_path / "ws"
    _cold_copy(payload_ws, root, _edit_payload(
        "owm", payload_ws["issued"], lambda days: days[0]["temp"].update(max="hot")))
    runs = []
    for _ in range(2):
        done = _run_cli(_copy_argv(payload_ws, root, INGEST))
        runs.append((done.returncode, done.stdout, done.stderr, _file_bytes(root / "out")))
    assert runs[0] == runs[1] and runs[0][0] == 0
    (warning,) = runs[0][2].splitlines()
    assert warning.startswith(f"skipping OWM entry issued {payload_ws['issued']}: ")
    with np.load(root / "out" / cli.FORECAST_COLUMNS) as sidecar:
        keys = sidecar["payloads"].tolist()
    skipped = [1, dt.date.fromisoformat(payload_ws["issued"]).toordinal()]
    assert skipped not in keys and [0, skipped[1]] in keys


def test_payload_memo_is_the_same_after_a_cold_and_a_warm_ingest(payload_ws, tmp_path):
    """The payload keys are a function of the payloads read: a cold and a warm run
    write the same sidecar bytes, with a key for each payload."""
    root = tmp_path / "ws"
    _cold_copy(payload_ws, root)
    sidecars = []
    for _ in range(2):
        assert _run_in_copy(payload_ws, root, INGEST) == 0
        sidecars.append((root / "out" / cli.FORECAST_COLUMNS).read_bytes())
    assert sidecars[0] == sidecars[1]
    assert sidecars[0] == (payload_ws["root"] / "out" / cli.FORECAST_COLUMNS).read_bytes()
    with np.load(root / "out" / cli.FORECAST_COLUMNS) as sidecar:
        keys, digests = sidecar["payloads"], sidecar["payload_sha256"]
    payloads = sorted((root / "cache").rglob("*.json"))
    assert keys.shape == (len(payloads), 2) and digests.shape == (len(payloads), 32)


def test_a_repeated_provider_leaves_no_memo_to_reuse(payload_ws, tmp_path, capsys, monkeypatch):
    """A provider listed twice puts its rows in the sidecar twice, so that run
    neither reuses nor records a payload, and the next run normalizes them all."""
    _cold_copy(payload_ws, tmp_path / "cold")
    expected = _ingest_outputs(payload_ws, tmp_path / "cold", capsys, monkeypatch)
    root = tmp_path / "ws"
    shutil.copytree(payload_ws["root"], root)
    twice = _ingest_outputs(payload_ws, root, capsys, monkeypatch,
                            "--set", "providers=VC,OWM,VC")
    assert twice[0] == 0 and len(twice[4]) == len(expected[4]) + len(expected[4]) // 2
    assert _ingest_outputs(payload_ws, root, capsys, monkeypatch)[3:] == expected[3:]


_SHA256 = hashlib.sha256


def _store_bytes_hashed(monkeypatch, store: bytes):
    """A function that gives how many bytes the SHA-256 hashers made from now took in,
    through `hashlib.sha256(...)` or `update`, summed over the hashers whose digest is
    that of `store`: its size when the store was hashed once."""
    hashers, want = [], _SHA256(store).digest()

    class Counting:
        def __init__(self, data=b""):
            self.hasher, self.size = _SHA256(), 0
            hashers.append(self)
            self.update(data)

        def update(self, data):
            self.size += memoryview(data).nbytes
            self.hasher.update(data)

        def digest(self):
            return self.hasher.digest()

        def hexdigest(self):
            return self.hasher.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", Counting)
    return lambda: sum(h.size for h in hashers if h.digest() == want)


@pytest.mark.parametrize("keys", [True, False], ids=["warm", "cold"])
def test_ingest_forecast_hashes_the_store_once(payload_ws, tmp_path, monkeypatch, keys):
    """`ingest forecast` over unchanged payloads, reused or (without payload keys in
    the sidecar) all normalized, hashes the store once: the bytes on disk, which it
    keeps, for the sidecar and the manifest."""
    root = tmp_path / "ws"
    shutil.copytree(payload_ws["root"], root)
    if not keys:
        _repacked(root / "out" / cli.FORECAST_COLUMNS,
                  lambda members: [members.pop("payloads"), members.pop("payload_sha256")])
    store = (root / "out" / "forecasts.jsonl").read_bytes()
    hashed = _store_bytes_hashed(monkeypatch, store)
    assert _run_in_copy(payload_ws, root, INGEST) == 0
    assert (root / "out" / "forecasts.jsonl").read_bytes() == store
    assert hashed() == len(store) > 0
    manifest = json.loads((root / "out" / "manifest.json").read_text())
    assert manifest["files"]["forecasts.jsonl"] == _SHA256(store).hexdigest()


REUSE_CASES = ([("store", fault, sidecar) for fault in STORE_FAULTS
                for sidecar in ("sidecar", "no-sidecar")]
               + [("sidecar", fault, None) for fault in SIDECAR_FAULTS])


@pytest.mark.parametrize("artifact, fault, sidecar", REUSE_CASES,
                         ids=["-".join(filter(None, case)) for case in REUSE_CASES])
def test_store_reuse_fault_matrix(payload_ws, tmp_path, capsys, monkeypatch,
                                  artifact, fault, sidecar):
    """The store-reuse rows of the fault matrix: after a broken store (its sidecar
    kept or deleted) or a broken sidecar beside a valid store, a warm `ingest
    forecast` gives the exit code, output and `out/` bytes of a run whose store and
    sidecar were deleted first. A broken store is written again, never kept. A kept
    sidecar names another store than the one on disk, but its table and payload
    keys are still its own, so no payload is normalized; without a valid sidecar
    every payload is."""
    base = tmp_path / "base"
    shutil.copytree(payload_ws["root"], base)
    for name in (cli.FORECAST_STORE, cli.FORECAST_COLUMNS):
        (base / "out" / name).unlink()
    expected = _ingest_outputs(payload_ws, base, capsys, monkeypatch)
    assert expected[0] == 0, expected[2]
    assert expected[3][cli.FORECAST_STORE] == (payload_ws["root"] / "out" /
                                               cli.FORECAST_STORE).read_bytes()
    root = tmp_path / "ws"
    shutil.copytree(payload_ws["root"], root)
    if artifact == "store":
        if sidecar == "no-sidecar":
            (root / "out" / cli.FORECAST_COLUMNS).unlink()
        faults = _once(STORE_FAULTS[fault][0])(root / "out" / cli.FORECAST_STORE)
    else:
        faults = SIDECAR_FAULTS[fault](root / "out" / cli.FORECAST_COLUMNS)
    for _ in faults:
        got = _ingest_outputs(payload_ws, root, capsys, monkeypatch)
        assert got[:4] == expected[:4]
        if fault != "flipped-bytes":   # a flip in a field the zip reader ignores
            assert got[4] == ([] if sidecar == "sidecar" else expected[4])


def _formatting(monkeypatch):
    """The list of the row counts of the `store_chunks` calls made from now, by `cli`
    or by `splice_runs`."""
    calls = []
    format_store = providers.store_chunks

    def counting(table):
        calls.append(len(table))
        return format_store(table)

    monkeypatch.setattr(cli, "store_chunks", counting)
    monkeypatch.setattr(providers, "store_chunks", counting)
    return calls


def test_store_write_peaks_below_half_the_store(synth, tmp_path):
    """Writing a store of 23,360 rows (5.5 MB) as `store_chunks` formats it holds
    less than half the store's size at its peak."""
    _, _, forecasts = synth
    table = as_table(forecasts["VC"] + forecasts["OWM"])
    tracemalloc.start()
    try:
        digest = cli._write(tmp_path, cli.FORECAST_STORE, store_chunks(table))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store = (tmp_path / cli.FORECAST_STORE).read_bytes()
    assert store == records_to_jsonl(table).encode("utf-8")
    assert digest == hashlib.sha256(store).digest()
    assert len(table) == 23360 and 0 < peak < len(store) / 2


UNWRITABLE_COMMANDS = {
    "ingest-ws": ["ingest", "ws"],
    "ingest-forecast": ["ingest", "forecast", "--offline",
                        "--set", "start_date=2020-01-20", "--set", "end_date=2020-02-09"],
    "evaluate": ["evaluate"],
}


@pytest.mark.parametrize("command", ["ingest-ws", "ingest-forecast"])
def test_out_dir_that_is_a_file_is_a_config_error(small_ws, tmp_path, capsys, command):
    """An out_dir that is a regular file ends in exit 2 and one error line naming it."""
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)
    out_file = root / "out.txt"
    out_file.write_text("not a directory\n")
    capsys.readouterr()
    argv = _copy_argv(small_ws, root, UNWRITABLE_COMMANDS[command]) + ["--out-dir", str(out_file)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: out_dir {out_file} is not a directory\n"
    assert out_file.read_text() == "not a directory\n"


@pytest.mark.parametrize("command, blocked", [
    ("ingest-ws", cli.OBS_STORE), ("ingest-ws", "manifest.json"),
    ("ingest-forecast", cli.FORECAST_STORE), ("ingest-forecast", cli.FORECAST_COLUMNS),
    ("evaluate", "distributions.csv"),
], ids=lambda value: value.replace(".", "-"))
def test_unwritable_output_is_a_typed_failure(small_ws, tmp_path, capsys, command, blocked):
    """An output path that is a directory ends in exit 3 and one error line naming it."""
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)
    path = root / "out" / blocked
    if path.exists():
        path.unlink()
    path.mkdir()
    capsys.readouterr()
    assert _run_in_copy(small_ws, root, UNWRITABLE_COMMANDS[command]) == 3
    err = capsys.readouterr().err
    assert err == f"error: cannot write {path}: Is a directory\n"


class _Interrupted(Exception):
    pass


CUT_WRITES = {   # (the file a command is cut writing: its command, the formatter cut, set-up)
    "forecasts-jsonl-splice": ("ingest-forecast", cli, "_store_chunks", []),
    "forecasts-jsonl-cold": ("ingest-forecast", cli, "_store_chunks", [cli.FORECAST_COLUMNS]),
    "distributions-csv": ("evaluate", evalkit, "distribution_chunks", []),
}


@pytest.mark.parametrize("case", CUT_WRITES)
def test_a_write_cut_part_way_leaves_the_old_files(small_ws, tmp_path, monkeypatch, case):
    """A command whose chunks stop coming part-way (a timeout, a MemoryError) leaves
    the file it was writing, the store's sidecar and every other `out/` file as they
    were, and no temporary file. The ingest's dates differ from the workspace's, so
    its store is formatted: spliced from the old one, or whole without a sidecar."""
    command, module, formatter, deleted = CUT_WRITES[case]
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)
    for name in deleted:
        (root / "out" / name).unlink()
    argv = UNWRITABLE_COMMANDS[command]
    if command == "evaluate":
        assert _run_in_copy(small_ws, root, argv) == 0
    before = _file_bytes(root / "out")
    format_chunks = getattr(module, formatter)

    def cut(*args):
        yield next(iter(format_chunks(*args)))
        raise _Interrupted

    monkeypatch.setattr(module, formatter, cut)
    with pytest.raises(_Interrupted):
        _run_in_copy(small_ws, root, argv)
    assert _file_bytes(root / "out") == before


def test_manifest_leaves_out_a_killed_write_s_part_file(small_ws, tmp_path):
    """A part file left by a write that was killed (SIGKILL skips its clean-up) is not
    listed by the next command's manifest; other files, `.part` or not, are."""
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)
    (root / "out" / ".distributions.csv.part").write_bytes(b"criterion,")
    (root / "out" / "notes.part").write_bytes(b"kept\n")
    assert _run_in_copy(small_ws, root, ["ingest", "ws"]) == 0
    files = json.loads((root / "out" / "manifest.json").read_text())["files"]
    assert ".distributions.csv.part" not in files
    assert {"notes.part", cli.OBS_STORE, cli.FORECAST_STORE} <= set(files)


def test_unchanged_warm_ingest_formats_no_store(payload_ws, tmp_path, capsys, monkeypatch):
    """A warm `ingest forecast` over unchanged payloads normalizes none, formats no
    store text and leaves every `out/` file as it was."""
    root = tmp_path / "ws"
    shutil.copytree(payload_ws["root"], root)
    before = _file_bytes(root / "out")
    calls = _formatting(monkeypatch)
    got = _ingest_outputs(payload_ws, root, capsys, monkeypatch)
    assert got[0] == 0 and got[4] == [] and calls == []
    assert _file_bytes(root / "out") == before


STORE_CHANGES = {   # runs of (values set in a VC entry, options); the last run is counted
    "value": [({"tempmax": 30.5}, [])],
    "earlier-end-date": [(None, ["--set", "end_date={issued}"])],
    # the night after the last observed day: end_date moves one day on
    "new-observed-day": [(None, ["--set", "end_date={before_last}"]), (None, [])],
    "extras-only": [({"conditions": "rain"}, [])],
    # -0.0 == 0.0, but the store writes them as "-0.0" and "0.0"
    "zero-to-negative-zero": [({"precip": 0.0}, []), ({"precip": -0.0}, [])],
}


def _store_lines(store: bytes) -> collections.Counter:
    return collections.Counter(store.splitlines(keepends=True))


@pytest.mark.parametrize("change", STORE_CHANGES)
def test_changed_rows_format_only_their_lines(payload_ws, tmp_path, capsys, monkeypatch,
                                              change):
    """A warm `ingest forecast` whose rows differ from the sidecar's, in one value, its
    date range, one entry's extras alone or the sign of a zero, formats in one call
    only the lines the store on disk lacks, copies the others, and writes the bytes
    of a run without a store or sidecar."""
    issued = payload_ws["issued"]
    last = max(json.loads(line)["target_date"] for line in
               (payload_ws["root"] / "out" / cli.FORECAST_STORE).read_text().splitlines())
    before_last = (dt.date.fromisoformat(last) - dt.timedelta(days=1)).isoformat()
    runs = [(values and _edit_payload("vc", issued, lambda days, v=values: days[1].update(v)),
             [option.format(issued=issued, before_last=before_last) for option in options])
            for values, options in STORE_CHANGES[change]]
    cold = tmp_path / "cold"
    shutil.copytree(payload_ws["root"], cold)
    for edit, _ in runs:
        if edit:
            edit(cold)
    for name in (cli.FORECAST_STORE, cli.FORECAST_COLUMNS):
        (cold / "out" / name).unlink()
    expected = _ingest_outputs(payload_ws, cold, capsys, monkeypatch, *runs[-1][1])
    assert expected[0] == 0, expected[2]
    root = tmp_path / "warm"
    shutil.copytree(payload_ws["root"], root)
    calls = _formatting(monkeypatch)
    for edit, options in runs:
        calls.clear()
        prior = (root / "out" / cli.FORECAST_STORE).read_bytes()
        if edit:
            edit(root)
        got = _ingest_outputs(payload_ws, root, capsys, monkeypatch, *options)
    assert got[:4] == expected[:4]
    store = got[3][cli.FORECAST_STORE]
    assert store != prior
    new_lines = sum((_store_lines(store) - _store_lines(prior)).values())
    assert calls == ([new_lines] if new_lines else [])
    assert new_lines == {"value": 1, "earlier-end-date": 0, "new-observed-day": 32,
                         "extras-only": 1, "zero-to-negative-zero": 1}[change]
    if change == "zero-to-negative-zero":
        assert b'"precip": -0.0, ' in store


def test_forecast_sidecar_is_byte_stable(small_ws, tmp_path):
    """Two ingests more than the 2 s resolution of a zip timestamp apart write
    the same sidecar bytes."""
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)
    sidecars = []
    for pause in (2.1, 0):
        assert _run_in_copy(small_ws, root, ["ingest", "forecast", "--offline"]) == 0
        sidecars.append((root / "out" / "forecasts.npz").read_bytes())
        time.sleep(pause)
    assert sidecars[0] == sidecars[1]
    assert sidecars[0] == (small_ws["root"] / "out" / "forecasts.npz").read_bytes()


def test_sidecar_table_equals_the_store_parse(big_ws):
    """The sidecar gives the table the store text parses to, bit for bit."""
    store = (big_ws["out"] / "forecasts.jsonl").read_bytes()
    parsed = records_from_jsonl(store.decode("utf-8"))
    loaded = records_from_npz(big_ws["out"] / "forecasts.npz", hashlib.sha256(store).digest())
    assert loaded is not None and len(loaded) == len(parsed) > 0
    for name in ("provider", "target", "issue", "horizon"):
        a, b = getattr(loaded, name), getattr(parsed, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in parsed.values:
        for columns in ("values", "present"):
            a, b = getattr(loaded, columns)[name], getattr(parsed, columns)[name]
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (columns, name)
    assert loaded.extras.tolist() == parsed.extras.tolist()
    assert list(loaded) == list(parsed)


def test_valid_sidecar_skips_the_store_parse(small_ws, tmp_path, monkeypatch):
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)

    def unused(text):
        raise AssertionError("the store text was parsed")

    monkeypatch.setattr(cli, "records_from_jsonl", unused)
    for command in STORE_READERS.values():
        assert _run_in_copy(small_ws, root, command) == 0


@pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no-sidecar"])
def test_evaluate_hashes_the_forecast_store_once(small_ws, tmp_path, monkeypatch, sidecar):
    """`evaluate` hashes the store's bytes once: to check the sidecar and for the manifest."""
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)
    if not sidecar:
        (root / "out" / "forecasts.npz").unlink()
    store = (root / "out" / "forecasts.jsonl").read_bytes()
    hashed = _store_bytes_hashed(monkeypatch, store)
    assert _run_in_copy(small_ws, root, ["evaluate"]) == 0
    assert hashed() == len(store) > 0
    manifest = json.loads((root / "out" / "manifest.json").read_text())
    assert manifest["files"]["forecasts.jsonl"] == _SHA256(store).hexdigest()


@pytest.mark.parametrize("key, value, message", [
    ("start_date", "2030-01-01", "start_date=2030-01-01 is after the last observed date "
                                 "2020-02-09"),
    ("end_date", "2019-06-01", "end_date=2019-06-01 is before the first observed date "
                               "2020-01-01"),
], ids=["start_date", "end_date"])
def test_range_reversed_against_the_observations_is_usage_error(small_ws, tmp_path, capsys,
                                                                 key, value, message):
    """One end of the range configured, the other taken from the ingested
    observations: a reversed range is a config error naming both."""
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)
    before = _file_bytes(root / "out")
    capsys.readouterr()
    assert _run_in_copy(small_ws, root, ["ingest", "forecast", "--offline",
                                         "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert _file_bytes(root / "out") == before


def test_evaluate_builds_the_forecast_index_once(small_ws, tmp_path, monkeypatch):
    root = tmp_path / "ws"
    shutil.copytree(small_ws["root"], root)
    built = []
    build_index = ForecastTable._build_index

    def counting(table):
        built.append(len(table))
        return build_index(table)

    monkeypatch.setattr(ForecastTable, "_build_index", counting)
    assert main(["evaluate", "--config", str(small_ws["cfg"]),
                 "--out-dir", str(root / "out")]) == 0
    assert built == [640]


def test_predict_ws_source(big_ws):
    assert main(["predict", "--config", str(big_ws["cfg"]),
                 "--estimator", "sr_ann", "--source", "ws"]) == 0
    lines = (big_ws["out"] / "predictions_sr_ann_ws.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 730
    assert all(l.split(",")[1] == "WS" for l in lines[1:])


def test_manifest_lists_correct_hashes(big_ws):
    manifest = json.loads((big_ws["out"] / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["files"]
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256((big_ws["out"] / name).read_bytes()).hexdigest()
        assert actual == digest


def test_fao56_subcommand_matches_oracle(oracle_fixture, capsys):
    p = oracle_fixture["et0_points"][0]   # temperate-summer, extremes mode
    import math
    argv = ["fao56",
            "--temp-max", str(p["temp_max"]), "--temp-min", str(p["temp_min"]),
            "--rh-max", str(p["rh_max"]), "--rh-min", str(p["rh_min"]),
            "--wind", str(p["wind_2m"]), "--wind-height", "2.0",
            "--solar-rad-mj", str(p["solar_rad_mj"]),
            "--latitude", str(math.degrees(p["latitude_rad"])),
            "--elevation", str(p["elevation_m"]),
            "--day-of-year", str(p["day_of_year"])]
    assert main(argv) == 0
    first = capsys.readouterr().out
    value = float(re.search(r"et0 = ([0-9.]+)", first).group(1))
    # the CLI re-normalizes 2 m wind through the log profile (factor 1.0002)
    assert abs(value - p["expected_et0"]) <= 0.01
    assert "ra =" in first and "rnl =" in first
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_fao56_zero_day(capsys):
    assert main(["fao56", "--temp-max", "-2", "--temp-min", "-8",
                 "--rh-avg", "95", "--wind", "0", "--solar-rad-wm2", "0",
                 "--latitude", "80", "--elevation", "10",
                 "--day-of-year", "355"]) == 0
    out = capsys.readouterr().out
    assert "et0 = 0.000000" in out


def test_fao56_requires_humidity(capsys):
    assert main(["fao56", "--temp-max", "20", "--temp-min", "10",
                 "--wind", "2", "--solar-rad-mj", "15",
                 "--latitude", "40", "--elevation", "0",
                 "--day-of-year", "100"]) == 2
    assert "humidity" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["train", "--bogus"]) == 2
