import json
import math
import time

import pytest

from eochain import orbit
from eochain.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, MAX_SEED, main
from eochain.presets import iride_heo
from eochain.scenario_io import save_scenario, scenario_to_dict

import yaml

DAY = "86400"


def write_trace(path):
    path.write_text(
        "id,lat,lon,start_s,area_ha\n"
        "ev-1,42.0,13.0,3600.0,50.0\n"
        "ev-2,45.4,8.2,7200.0,25.0\n"
    )
    return path


class TestRun:
    def test_run_preset_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--preset", "iride-heo", "--seed", "3",
                     "--duration", DAY, "--out", str(out)])
        assert code == EXIT_OK
        for name in ("run_report.json", "run_report.csv", "events.csv",
                     "plan.json", "transfers.csv", "marketplace.jsonl"):
            assert (out / name).exists(), name
        doc = json.loads((out / "run_report.json").read_text())
        assert doc["scenario"]["seed"] == 3

    def test_format_selects_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--preset", "iride-heo", "--seed", "1",
                     "--duration", DAY, "--out", str(out), "--format", "json"])
        assert code == EXIT_OK
        assert (out / "run_report.json").exists()
        assert not (out / "run_report.csv").exists()

    def test_run_scenario_file(self, tmp_path):
        scenario_path = tmp_path / "s.yaml"
        save_scenario(iride_heo(), scenario_path)
        code = main(["run", "--scenario", str(scenario_path), "--seed", "1",
                     "--duration", DAY, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK

    def test_run_with_injected_events(self, tmp_path):
        trace = write_trace(tmp_path / "events.csv")
        out = tmp_path / "out"
        code = main(["run", "--preset", "iride-heo", "--duration", DAY,
                     "--out", str(out), "--events", str(trace)])
        assert code == EXIT_OK
        lines = (out / "events.csv").read_text().splitlines()
        assert len(lines) == 3  # header + the two injected events

    @pytest.mark.parametrize("column, value", [("start_s", "abc"), ("area_ha", "nan")])
    def test_bad_event_trace_value_is_one_line_error(self, tmp_path, capsys, column, value):
        row = {"id": "ev-1", "lat": "42.0", "lon": "13.0", "start_s": "3600.0", "area_ha": "50.0"}
        row[column] = value
        trace = tmp_path / "events.csv"
        trace.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        code = main(["run", "--preset", "effis-like", "--duration", DAY,
                     "--out", str(tmp_path / "out"), "--events", str(trace)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "ev-1" in err

    @pytest.mark.parametrize("duration", ["inf", "nan"])
    def test_non_finite_duration_is_one_line_error(self, tmp_path, capsys, duration):
        code = main(["run", "--preset", "effis-like", "--duration", duration,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "horizon_s" in err

    def test_horizon_over_sample_budget_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_track(sat, t):
            raise AssertionError("track sampled for an invalid horizon")

        monkeypatch.setattr(orbit, "subsatellite_track", no_track)
        start = time.perf_counter()
        code = main(["run", "--preset", "effis-like", "--duration", "1e12",
                     "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "horizon_s" in err
        assert not (tmp_path / "out").exists()

    def test_missing_source_is_usage_error(self, tmp_path):
        assert main(["run", "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "nope", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_VALIDATION


class TestCompare:
    def test_compare_writes_report(self, tmp_path):
        out = tmp_path / "out"
        code = main(["compare", "--preset", "iride-heo", "--seed", "2",
                     "--duration", DAY, "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "compare_report.json").read_text())
        assert "hybrid" in doc and "raw_only" in doc

    def test_compare_with_baseline(self, tmp_path):
        out = tmp_path / "out"
        code = main(["compare", "--preset", "iride-heo", "--baseline", "effis-like",
                     "--seed", "2", "--duration", DAY, "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "compare_report.json").read_text())
        assert "baseline" in doc


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["run", "--preset", "effis-like", "--seed", "7",
                         "--duration", DAY, "--out", str(out)])
            assert code == EXIT_OK
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]


class TestSweep:
    def test_sweep_writes_per_seed_files(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--preset", "iride-heo", "--seed", "5", "--runs", "2",
                     "--duration", DAY, "--out", str(out), "--format", "json"])
        assert code == EXIT_OK
        assert (out / "run_report_seed5.json").exists()
        assert (out / "run_report_seed6.json").exists()

    def test_worker_processes_write_same_bytes(self, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            code = main(["sweep", "--preset", "effis-like", "--seed", "3", "--runs", "2",
                         "--jobs", jobs, "--duration", DAY, "--out", str(out)])
            assert code == EXIT_OK
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]

    def test_bad_run_count(self, tmp_path):
        assert main(["sweep", "--preset", "iride-heo", "--runs", "0",
                     "--out", str(tmp_path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("args", [
        ["--seed", str(MAX_SEED), "--runs", "2"],
        ["--seed", str(MAX_SEED - 2), "--runs", "4"],
        ["--jobs", "0"],
    ], ids=["last-seed-over", "range-over", "no-jobs"])
    def test_bad_range_fails_before_any_run(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        code = main(["sweep", "--preset", "effis-like", "--duration", DAY, "--out", str(out), *args])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()


class TestValidate:
    @pytest.mark.parametrize("preset", ["iride-heo", "effis-like"])
    def test_valid_preset(self, preset):
        assert main(["validate", "--preset", preset]) == EXIT_OK

    def test_invalid_scenario_file_lists_violations(self, tmp_path, capsys):
        doc = scenario_to_dict(iride_heo())
        doc["satellites"][0]["gsd_m"] = 0.0
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["validate", "--scenario", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "satellites[0].gsd_m" in err

    @pytest.mark.parametrize("section, field, value", [
        ("archetype", "triggering", "Crisis"),
        ("satellites", "altitude_km", "high"),
        # Unknown keys: a top-level typo, a nested typo and each removed field.
        (None, "horizon", 5),
        ("archetype", "gsd_mm", 3.0),
        ("archetype", "name", "iride-heo"),
        ("archetype", "gsd_m", 3.0),
        ("latencies", "periodic_cycle_s", 86400.0),
        # Non-finite numbers.
        ("stations", "xband_rate_mbit_s", math.inf),
        ("stations", "location", {"lat": 40.65, "lon": math.nan}),
        ("satellites", "bands", math.inf),
        # Bool, int, float and str fields take no conversion.
        ("stations", "sband_available", "false"),
        ("satellites", "bands", 3.7),
        ("satellites", "altitude_km", "550"),
        ("archetype", "mmu_ha", True),
        ("stations", "id", 5),
        # A removed field, listed last so the index-based ids above stay put.
        ("detection", "fp_rate_per_scene", 0.05),
    ])
    def test_bad_value_is_one_line_error(self, tmp_path, capsys, section, field, value):
        doc = scenario_to_dict(iride_heo())
        target = doc if section is None else doc[section]
        where = field if section is None else f"{section}.{field}"
        if isinstance(target, list):
            target, where = target[0], f"{section}[0].{field}"
        target[field] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and where in err

    @pytest.mark.parametrize("text, where", [
        (b"name: [unclosed\n", ":2:1: "),
        (b"name: test\nstations:\n\t- id: gs-a\n", ":3:1: "),
        (b"name: \xff\xfe\n", ": "),
        (b"? [name]\n: test\n", ":1:3: "),
    ], ids=["unclosed-flow-sequence", "tab-indent", "not-utf8", "unhashable-key"])
    def test_malformed_yaml_is_one_line_error(self, tmp_path, capsys, text, where):
        path = tmp_path / "bad.yaml"
        path.write_bytes(text)
        assert main(["validate", "--scenario", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}{where}invalid YAML: ")

    @pytest.mark.parametrize("section, key", [(None, "seed"), ("detection", "chip_margin")])
    def test_duplicate_key_is_one_line_error(self, tmp_path, capsys, section, key):
        lines = yaml.safe_dump(scenario_to_dict(iride_heo()), sort_keys=False).splitlines()
        # Give the key once more at the head of its mapping: the original is then the repeat.
        indent = "" if section is None else "  "
        at = 0 if section is None else lines.index(f"{section}:") + 1
        lines.insert(at, f"{indent}{key}: 1")
        repeat = next(i for i in range(at + 1, len(lines)) if lines[i].startswith(f"{indent}{key}:"))
        path = tmp_path / "dup.yaml"
        path.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--scenario", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: {path}:{repeat + 1}:{len(indent) + 1}: duplicate key '{key}'\n"

    def test_unreadable_file_is_io_error(self, tmp_path):
        assert main(["validate", "--scenario", str(tmp_path / "missing.yaml")]) == EXIT_IO


class TestPresets:
    def test_lists_builtins(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "iride-heo" in out
        assert "effis-like" in out
        assert "Hybrid" in out and "Ground" in out
