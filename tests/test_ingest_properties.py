"""A warm `ingest forecast` writes what a cold one would, whatever came before it.

A state machine edits the cached payloads, the ingest's settings and the
ingest's own artifacts of a small two-provider site, and runs `ingest
forecast --offline` in between: as a rule of its own, and after any edit
whose `then_ingest` is drawn true, so that most edits meet an ingest.
After each run, the exit code, stdout, stderr (paths written as OUT) and
`out/` bytes equal those of the same ingest into a fresh `out/` that holds
only the ingested observations. A run that fails leaves `out/` as it was.
"""

import contextlib
import datetime as dt
import hashlib
import io
import json
import logging
import math
import shutil
import tempfile
from pathlib import Path

import pytest

from etoforge.cli import main
from etoforge.synthetic import synthetic_dataset, write_synthetic_cache
from etoforge.weather import serialize_ws_csv, ws_schema_text

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
stateful = pytest.importorskip("hypothesis.stateful")

OBSERVED_DAYS = 12
# forecasts reach four days past the last observation, so a later end_date finds rows
FORECAST_DAYS = OBSERVED_DAYS + 4
FIRST = dt.date(2020, 1, 1)   # synthetic_dataset's first day
ISSUES = FORECAST_DAYS + 15    # issue dates from FIRST - 15 days
WS_FILES = ("observations.csv", "observations.schema")
INGEST = ["ingest", "forecast", "--offline"]


def _day(offset):
    return (FIRST + dt.timedelta(days=offset)).isoformat()


STARTS = [None, _day(2), _day(5)]
ENDS = [None, _day(OBSERVED_DAYS - 5), _day(OBSERVED_DAYS - 2), _day(OBSERVED_DAYS + 2)]
SETTINGS = (   # (config key, value or None to clear it)
    # OWM stamps its entries at 12:00 UTC, so +/-13 h moves their target dates
    [("tz_offset_hours", hours) for hours in (None, 0.0, 13.0, -13.0)]
    + [("providers", names) for names in ("VC,OWM", "OWM,VC", "VC", "OWM", "VC,OWM,VC")])


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """A site with VC and OWM payloads cached, its observations and forecasts ingested."""
    site, observations, forecasts = synthetic_dataset(seed=5, n_days=FORECAST_DAYS)
    assert observations[0].date == FIRST
    root = tmp_path_factory.mktemp("ingest-props")
    (root / "ws.csv").write_text(serialize_ws_csv(observations[:OBSERVED_DAYS]))
    (root / "ws.schema").write_text(ws_schema_text())
    assert write_synthetic_cache(forecasts["VC"] + forecasts["OWM"], root / "cache") == 2 * ISSUES
    (root / "run.cfg").write_text(
        f"site_id = {site.site_id}\nlatitude = {site.latitude}\nlongitude = {site.longitude}\n"
        f"elevation = {site.elevation}\nwind_sensor_height = {site.wind_sensor_height}\n"
        f"ws_csv = {root / 'ws.csv'}\nws_schema = {root / 'ws.schema'}\n"
        f"forecast_cache = {root / 'cache'}\nout_dir = {root / 'out'}\n")
    for argv in (["ingest", "ws"], INGEST):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--config", str(root / "run.cfg")]) == 0
    return root


def _ingest(root: Path, cache: Path, out: Path, options: dict):
    """(exit code, stdout and stderr with `out` written as OUT, out/ bytes by name) of
    `ingest forecast --offline` run in this process. Log records go to stderr, as
    Python's last-resort handler writes them when no logging is configured."""
    argv = INGEST + ["--config", str(root / "run.cfg"), "--out-dir", str(out),
                     "--set", f"forecast_cache={cache}"]
    for key, value in sorted(options.items()):
        argv += ["--set", f"{key}={value}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(stderr)
    logger = logging.getLogger("etoforge")
    logger.addHandler(handler)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        logger.removeHandler(handler)
    texts = (text.getvalue().replace(str(out), "OUT") for text in (stdout, stderr))
    return (code, *texts, {p.name: p.read_bytes() for p in out.iterdir()})


class WarmIngest(stateful.RuleBasedStateMachine):
    """One workspace copy per example; `template` and `cold_runs` are set by the test."""

    template: Path
    cold_runs: dict   # (settings, cache digest) -> the outputs of a cold ingest

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="warm-ingest-"))
        self.root = self.tmp / "ws"
        shutil.copytree(self.template, self.root)
        self.cache, self.out = self.root / "cache", self.root / "out"
        self.originals = {p: p.read_bytes() for p in self.cache.rglob("*.json")}
        self.options = {}

    def teardown(self):
        shutil.rmtree(self.tmp)

    def _payload(self, provider, issue):
        return self.cache / provider / f"{_day(issue - 15)}.json"

    @stateful.rule(provider=st.sampled_from(["vc", "owm"]), issue=st.integers(0, ISSUES - 1),
                   entry=st.integers(0, 15),
                   edit=st.sampled_from(["value", "zero", "text", "delete", "restore"]),
                   then_ingest=st.booleans())
    def edit_payload(self, provider, issue, entry, edit, then_ingest):
        """Warm one entry's temp_max by 0.5, flip the sign of every zero precip (with
        none, make the entry's 0.0) or write text for the entry's temp_max, which skips
        it with a warning; or delete the payload, or restore it as first cached."""
        path = self._payload(provider, issue)
        if edit == "restore":
            path.write_bytes(self.originals[path])
        elif edit == "delete":
            path.unlink(missing_ok=True)
        elif path.exists():
            self._edit_entry(path, provider, entry, edit)
        if then_ingest:
            self.ingest()

    def _edit_entry(self, path, provider, entry, edit):
        doc = json.loads(path.read_text())
        entries = doc["days"] if provider == "vc" else doc["list"]
        if not entries:
            return
        item = entries[entry % len(entries)]
        holder, key = (item, "tempmax") if provider == "vc" else (item["temp"], "max")
        if edit == "value" and type(holder[key]) is float:
            holder[key] += 0.5
        elif edit == "zero":   # -0.0 == 0.0, but the store writes them apart
            rain = "precip" if provider == "vc" else "rain"
            zeros = [e for e in entries if e[rain] == 0.0]
            for e in zeros:
                e[rain] = -e[rain]
            if not zeros:
                item[rain] = 0.0
        elif edit == "text":
            holder[key] = "hot"
        path.write_text(json.dumps(doc))

    @stateful.rule(start=st.sampled_from(STARTS), end=st.sampled_from(ENDS),
                   then_ingest=st.booleans())
    def move_range(self, start, end, then_ingest):
        """Set or clear start_date and end_date: unset, they come from the observations."""
        self._set(("start_date", start), ("end_date", end), then_ingest=then_ingest)

    @stateful.rule(setting=st.sampled_from(SETTINGS), then_ingest=st.booleans())
    def configure(self, setting, then_ingest):
        """Set the offset or the providers, or clear the offset (None)."""
        self._set(setting, then_ingest=then_ingest)

    def _set(self, *settings, then_ingest):
        for key, value in settings:
            self.options.pop(key, None)
            if value is not None:
                self.options[key] = value
        if then_ingest:
            self.ingest()

    @stateful.rule(artifact=st.integers(0, 2), damage=st.sampled_from(["delete", "truncate",
                                                                       "flip"]),
                   where=st.floats(0.0, 1.0), then_ingest=st.booleans())
    def damage_artifact(self, artifact, damage, where, then_ingest):
        """Delete, halve or flip one byte of one of the ingest's artifacts there are."""
        artifacts = sorted(p for p in self.out.iterdir() if p.name.startswith("forecast"))
        if artifacts:
            path = artifacts[artifact % len(artifacts)]
            data = path.read_bytes()
            if damage == "delete":
                path.unlink()
            elif damage == "truncate":
                path.write_bytes(data[:len(data) // 2])
            elif data:
                at = math.floor(where * (len(data) - 1))
                path.write_bytes(data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:])
        if then_ingest:
            self.ingest()

    @stateful.rule()
    def ingest(self):
        """Run the ingest in the workspace and check it against a cold one."""
        before = {p.name: p.read_bytes() for p in self.out.iterdir()}
        warm = _ingest(self.root, self.cache, self.out, self.options)
        cache = hashlib.sha256()
        for path in sorted(self.cache.rglob("*.json")):
            cache.update(str(path.relative_to(self.cache)).encode() + b"\0" + path.read_bytes())
        key = (tuple(sorted(self.options.items())), cache.digest())
        if key not in self.cold_runs:
            fresh = self.tmp / f"cold-{len(self.cold_runs)}"
            fresh.mkdir()
            for name in WS_FILES:
                shutil.copy(self.template / "out" / name, fresh / name)
            self.cold_runs[key] = _ingest(self.root, self.cache, fresh, self.options)
        cold = self.cold_runs[key]
        assert warm[:3] == cold[:3]
        if cold[0] == 0:
            assert warm[3] == cold[3]
        else:   # a failed ingest writes nothing
            assert warm[3] == before


def test_warm_ingest_writes_what_a_cold_ingest_writes(template):
    WarmIngest.template, WarmIngest.cold_runs = template, {}
    stateful.run_state_machine_as_test(WarmIngest, settings=hypothesis.settings(
        max_examples=25, stateful_step_count=12, deadline=None, database=None))
