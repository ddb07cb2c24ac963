"""The suite's own configuration reports failures instead of crashing on them,
the benchmark's tracer still finds every function it wraps, importing the CLI
leaves out the modules only some commands need, PyYAML loads at the first
scenario-file read, the window search stays within the memory the benchmark
allows, the committed bench files are whole, and the README's scenario schema
matches the code."""

import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml

import eochain.cli
from eochain.model import validate_scenario
from eochain.orbit import constellation_windows
from eochain.presets import iride_heo
from eochain.scenario_io import scenario_from_dict

from conftest import numeric_fields

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(n):
    assert n != n
'''


def test_failing_property_test_reports_its_example(tmp_path):
    # Run under the repo's pytest settings, which turn warnings into errors.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    # Exit 1 is "tests failed"; 3 would be an internal error of the session.
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout


def test_tracer_finds_every_wrapped_function(tmp_path, monkeypatch):
    # bench/tracer.py wraps eochain functions by module and name; a name that
    # is gone would read 0 in every traced benchmark run.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    modules = [m for name, m in sys.modules.items() if name == "eochain" or name.startswith("eochain.")]
    saved = [(module, dict(vars(module))) for module in modules]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        code = eochain.cli.main(["compare", "--preset", "iride-heo", "--baseline", "effis-like",
                                 "--duration", "21600", "--out", str(tmp_path / "out")])
    finally:
        for module, names in saved:
            for name, value in names.items():
                setattr(module, name, value)
    assert tracer.missing == []
    assert code == 0
    summary = tracer.summary()
    assert summary["engine.run.calls"] == 3
    assert summary["metrics.compare_architectures.calls"] == 1


def _run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports eochain from this tree."""
    src = str(Path(eochain.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


# PyYAML loads at a scenario file's first read or write, numpy.random (about
# 9 ms) at a run's first rng stream, the process pool only for ``sweep --jobs
# N``, and the csv module only to read an event trace.
@pytest.mark.parametrize("module", ["yaml", "numpy.random", "concurrent.futures", "csv"])
def test_cli_import_leaves_out(module):
    result = _run_fresh(f"import sys, eochain.cli; sys.exit({module!r} in sys.modules)")
    assert result.returncode == 0, result.stderr


# Run where no test module has imported PyYAML first: the loader built at the
# first read still reads a committed file, and still names where a key repeats.
FIRST_READ = '''
import sys
import eochain.cli
from eochain.model import ValidationError
from eochain.presets import iride_heo
from eochain.scenario_io import load_scenario

committed, repeated = sys.argv[1:]
assert "yaml" not in sys.modules
assert load_scenario(committed) == iride_heo()
try:
    load_scenario(repeated)
except ValidationError as exc:
    assert str(exc) == f"{repeated}:4:1: duplicate key 'seed'", exc
else:
    raise AssertionError("a repeated key was read without an error")
assert "yaml" in sys.modules
'''


def test_first_scenario_read_loads_yaml(tmp_path):
    committed = ROOT / "scenarios" / "iride_heo.yaml"
    text = committed.read_text()
    assert text.splitlines()[2] == "seed: 0"
    repeated = tmp_path / "repeated.yaml"
    repeated.write_text(text.replace("seed: 0\n", "seed: 0\nseed: 0\n", 1))
    result = _run_fresh(FIRST_READ, str(committed), str(repeated))
    assert result.returncode == 0, result.stderr


# The traced peak of the search before its three-level block proof, 1,095.8
# KiB with numpy 2.4.6, on the second call in a process (the first one also
# allocates numpy's own caches).
SEARCH_PEAK_BYTES = 1_122_120


def test_window_search_peak_memory_does_not_grow():
    # The 7-day iride-heo geometry, whose coarse grid alone is 473 KiB.
    s = iride_heo()
    geometry = (s.satellites, s.stations, s.aois, (0.0, s.horizon_s))
    constellation_windows(*geometry)
    tracemalloc.start()
    try:
        constellation_windows(*geometry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SEARCH_PEAK_BYTES


def test_bench_files_are_well_formed():
    # A bench file is named after the short id of the src/ tree it measured,
    # and each of its summary rows rests on enough pairs whose runs all
    # succeeded and printed the parent's digests.
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text())
        short = re.fullmatch(r"BENCH_([0-9a-f]{7,40})\.json", path.name).group(1)
        assert bench["measures"]["head_src_tree"].startswith(short), path.name
        assert bench["summary"], path.name
        for row, summary in bench["summary"].items():
            assert summary["pairs"] >= 10, (path.name, row)
            assert summary["digests_equal_in_every_pair"] is True, (path.name, row)
            assert summary["failed_operations"] == 0, (path.name, row)


def test_readme_schema_validates_and_states_each_declared_interval():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```yaml\n(schema_version:.*?)```", readme, re.S).group(1)
    assert validate_scenario(scenario_from_dict(yaml.safe_load(block))) == []
    declared = {name.split(".")[1]: f.metadata["interval"]
                for name, f in numeric_fields().items() if "interval" in f.metadata}
    # A line "key: value  # [lo, hi] ..." states the interval of field ``key``.
    stated = re.findall(r"^\s*(?:- )?(\w+):[^#\n]*#\s*([\[(][^\])\n]*[\])])", block, re.M)
    assert stated and all(declared.get(key) == interval for key, interval in stated), stated
    assert {key for key, _ in stated} == set(declared)
