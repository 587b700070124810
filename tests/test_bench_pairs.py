"""`scripts/bench_pairs.py` refuses two checkouts used unevenly, before any run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trace", [".perfbench", ".pytest_cache", ".hypothesis",
                                   "src/pkg/__pycache__"])
@pytest.mark.parametrize("side", ["parent", "change"])
def test_uneven_checkouts_exit_2_naming_the_path(bench_pairs, tmp_path, capsys, trace, side):
    checkouts = {name: tmp_path / name for name in ("parent", "change")}
    for root in checkouts.values():
        (root / "src" / "pkg").mkdir(parents=True)
    (checkouts[side] / trace).mkdir()
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "skill_study"]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(checkouts[side] / trace) in err


def test_checkouts_used_alike_hold_the_same_traces(bench_pairs, tmp_path):
    for name in ("parent", "change"):
        (tmp_path / name / "src" / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / name / ".perfbench").mkdir()
    assert bench_pairs.use_traces(tmp_path / "parent") == bench_pairs.use_traces(
        tmp_path / "change") == {".perfbench", "src/pkg/__pycache__"}
