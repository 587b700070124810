"""Spans around the program's public functions, recorded from outside.

The tracer wraps each function listed in TARGETS at every name an
etoforge module binds it to. `evalkit` imports `align_horizons` by name
and `cli` imports `records_from_jsonl` and `parse_ws_csv` by name, so
replacing only the defining module's attribute would miss those calls.

Spans live in flat typed arrays (about 40 bytes each) and are written
once, when the run ends. A span's self time is its duration minus the
durations of its direct children; calls are strictly nested in one
thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

NO_OP = -1
SETUP_OP = 0  # op id of the traced set-up; timed ops count from 1


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _out_dir_bytes(args, kwargs, result):
    out_dir = Path(_arg(args, kwargs, 0, "out_dir"))
    return sum(p.stat().st_size for p in out_dir.rglob("*")
               if p.is_file() and p.name != "manifest.json")


# span name -> (defining module, attribute, count taken from (args, kwargs, result))
TARGETS = {
    "fao56.et0_fao56pm": ("etoforge.fao56", "et0_fao56pm", None),
    "pipelines.make_features": ("etoforge.pipelines", "make_features", None),
    "pipelines.feature_matrix": ("etoforge.pipelines", "feature_matrix", None),
    "pipelines.build_et0_target": ("etoforge.pipelines", "build_et0_target",
                                   lambda a, k, r: len(r.values)),
    "pipelines.et0_hybrid_predict": ("etoforge.pipelines", "et0_hybrid_predict", None),
    "regressor.predict_batch": ("etoforge.regressor", "predict_batch",
                                lambda a, k, r: len(r)),
    "regressor.forward": ("etoforge.regressor", "forward", None),
    "regressor.train": ("etoforge.regressor", "train",
                        lambda a, k, r: r.training_meta["epochs_run"]),
    "regressor.save": ("etoforge.regressor", "save", None),
    "regressor.load": ("etoforge.regressor", "load", None),
    "weather.normalize_payload": ("etoforge.weather.providers", "normalize_payload",
                                  lambda a, k, r: len(r)),
    "weather.fetch_forecasts": ("etoforge.weather.providers", "fetch_forecasts", None),
    "weather.records_to_jsonl": ("etoforge.weather.providers", "records_to_jsonl", None),
    "weather.records_from_jsonl": ("etoforge.weather.providers", "records_from_jsonl",
                                   lambda a, k, r: len(r)),
    "weather.align_horizons": ("etoforge.weather.records", "align_horizons",
                               lambda a, k, r: len(_arg(a, k, 1, "forecasts"))),
    "weather.parse_ws_csv": ("etoforge.weather.station_csv", "parse_ws_csv",
                             lambda a, k, r: len(r)),
    "evalkit.horizon_sweep": ("etoforge.evalkit", "horizon_sweep", None),
    "evalkit.error_distribution": ("etoforge.evalkit", "error_distribution", None),
    "evalkit.compare_forecast_fidelity": ("etoforge.evalkit",
                                          "compare_forecast_fidelity", None),
    "evalkit.metrics": ("etoforge.evalkit", "metrics", lambda a, k, r: r.n),
    "evalkit.emit_report": ("etoforge.evalkit", "emit_report", None),
    "cli.write_manifest": ("etoforge.cli", "_write_manifest", _out_dir_bytes),
}


class Tracer:
    """In-memory span recorder; `install` patches the program, `uninstall` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.count = array("q")
        self._stack = [-1]
        self.op_id = NO_OP
        self._patched: list = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.count.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op_id: int | None = None):
        """A span opened from outside the program; `op_id` marks a timed op."""
        if op_id is not None:
            self.op_id = op_id
        idx = self.open(self.name_index(name))
        try:
            yield
        finally:
            self.close(idx)
            if op_id is not None:
                self.op_id = NO_OP

    def _wrap(self, fn, name, counter):
        name_id = self.name_index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.count[idx] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for name, (module, attr, counter) in TARGETS.items():
            fn = getattr(importlib.import_module(module), attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name, counter))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "etoforge" and not mod_name.startswith("etoforge."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and value is hit[0]:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, station_days: int) -> dict:
        """Layer metrics per traced op (op id >= 1); training metrics per traced set-up.

        Training runs only at set-up, so `regressor.train.*`, `regressor.save.self_s`
        and `pipelines.feature_matrix.self_s` are taken from the traced set-up.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        self_s = dur - np.bincount(a["parent"][child], weights=dur[child],
                                   minlength=dur.size)
        in_op = a["op"] >= 1
        n_ops = max(len(set(a["op"][in_op].tolist())), 1)
        in_setup = a["op"] == SETUP_OP

        def select(name, setup=False):
            if name not in self._ids:
                return np.zeros(dur.size, dtype=bool)
            return (in_setup if setup else in_op) & (a["name_id"] == self._ids[name])

        def calls(name):
            return int(select(name).sum()) / n_ops

        def self_time(name, setup=False):
            return float(self_s[select(name, setup)].sum()) / (1 if setup else n_ops)

        def counted(name, setup=False):
            return int(a["count"][select(name, setup)].sum()) / (1 if setup else n_ops)

        def ratio(num, den):
            return num / den if den else 0.0

        sweep_ids = np.flatnonzero(select("evalkit.horizon_sweep"))
        scored = select("evalkit.metrics") & np.isin(a["parent"], sweep_ids)
        scored_rows = int(a["count"][scored].sum()) / n_ops

        m = {}
        for name in ("fao56.et0_fao56pm", "pipelines.make_features",
                     "pipelines.et0_hybrid_predict"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_time(name)

        m["pipelines.build_et0_target.calls"] = calls("pipelines.build_et0_target")
        m["pipelines.build_et0_target.rows"] = counted("pipelines.build_et0_target")
        m["pipelines.build_et0_target.self_s"] = self_time("pipelines.build_et0_target")
        m["pipelines.build_et0_target.station_days"] = station_days
        m["pipelines.build_et0_target.rows_per_station_day"] = ratio(
            m["pipelines.build_et0_target.rows"], station_days)
        m["pipelines.feature_matrix.self_s"] = self_time("pipelines.feature_matrix",
                                                         setup=True)

        m["regressor.predict_batch.calls"] = calls("regressor.predict_batch")
        m["regressor.predict_batch.rows"] = counted("regressor.predict_batch")
        m["regressor.predict_batch.rows_per_call"] = ratio(
            m["regressor.predict_batch.rows"], m["regressor.predict_batch.calls"])
        m["regressor.predict_batch.self_s"] = self_time("regressor.predict_batch")
        m["regressor.forward.calls"] = calls("regressor.forward")
        m["regressor.train.self_s"] = self_time("regressor.train", setup=True)
        m["regressor.train.epochs_run"] = counted("regressor.train", setup=True)
        m["regressor.train.s_per_epoch"] = ratio(
            float(dur[select("regressor.train", setup=True)].sum()),
            m["regressor.train.epochs_run"])
        m["regressor.save.self_s"] = self_time("regressor.save", setup=True)
        m["regressor.load.self_s"] = self_time("regressor.load")

        m["weather.normalize_payload.calls"] = calls("weather.normalize_payload")
        m["weather.normalize_payload.records_out"] = counted("weather.normalize_payload")
        m["weather.normalize_payload.self_s"] = self_time("weather.normalize_payload")
        m["weather.fetch_forecasts.self_s"] = self_time("weather.fetch_forecasts")
        m["weather.records_to_jsonl.self_s"] = self_time("weather.records_to_jsonl")
        m["weather.records_from_jsonl.records"] = counted("weather.records_from_jsonl")
        m["weather.records_from_jsonl.self_s"] = self_time("weather.records_from_jsonl")
        m["weather.align_horizons.calls"] = calls("weather.align_horizons")
        m["weather.align_horizons.records_scanned"] = counted("weather.align_horizons")
        m["weather.align_horizons.scans_per_record"] = ratio(
            m["weather.align_horizons.records_scanned"],
            m["weather.records_from_jsonl.records"])
        m["weather.align_horizons.self_s"] = self_time("weather.align_horizons")
        m["weather.parse_ws_csv.calls"] = calls("weather.parse_ws_csv")
        m["weather.parse_ws_csv.self_s"] = self_time("weather.parse_ws_csv")

        for name in ("evalkit.horizon_sweep", "evalkit.error_distribution",
                     "evalkit.compare_forecast_fidelity", "evalkit.emit_report"):
            m[f"{name}.self_s"] = self_time(name)
        m["evalkit.metrics.calls"] = calls("evalkit.metrics")
        m["evalkit.metrics.self_s"] = self_time("evalkit.metrics")
        m["evalkit.scored_rows"] = scored_rows
        m["evalkit.predictions_per_scored_row"] = ratio(
            m["regressor.predict_batch.rows"], scored_rows)

        m["cli.ingest_forecast.self_s"] = self_time("cli.ingest_forecast")
        m["cli.evaluate.self_s"] = self_time("cli.evaluate")
        m["cli.write_manifest.self_s"] = self_time("cli.write_manifest")
        m["cli.out_dir.bytes_hashed"] = counted("cli.write_manifest")
        m["trace.spans_per_op"] = int(in_op.sum()) / n_ops
        return m


def overhead_metrics(untraced_op_s: list, traced_op_s: list) -> dict:
    untraced = statistics.median(untraced_op_s)
    traced = statistics.median(traced_op_s)
    return {
        "trace.untraced_op_s": untraced,
        "trace.traced_op_s": traced,
        "trace.overhead_s": traced - untraced,
    }
