"""The suite's own configuration reports failures instead of crashing on them,
and the benchmark's tracer still finds every function it wraps."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import eochain.cli

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
