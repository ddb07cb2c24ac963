import csv
import functools
import json
import math
import operator
import shutil
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eochain import cli, orbit
from eochain.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, MAX_SEED, main
from eochain.downlink import TransferRecord
from eochain.engine import run
from eochain.presets import get_preset, iride_heo
from eochain.scenario_io import load_scenario, save_scenario, scenario_to_dict

import yaml

from conftest import NO_SHRINK

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

    def test_summary_line_shows_a_missing_median_as_none(self, tmp_path, capsys):
        code = main(["run", "--preset", "iride-heo", "--duration", "5", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "iride-heo seed=0: 0 events, 0 deliveries, ttfi p50=none never=0"

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
        def no_track(elements, t):
            raise AssertionError("track sampled for an invalid horizon")

        monkeypatch.setattr(orbit, "_ground_vector", no_track)
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


def reference_transfer_log(trace, path):
    """The transfer log written one row at a time."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["product_id", "station_id", "start_s", "end_s", "bits"])
        for r in trace.transfer_records:
            w.writerow([r.product_id, r.station_id, f"{r.start:.3f}", f"{r.end:.3f}", r.bits_moved])


STRESS = Path(__file__).resolve().parents[1] / "scenarios" / "iride_heo_stress.yaml"
EFFIS = STRESS.with_name("effis_like.yaml")


class TestTransferLog:
    @pytest.mark.parametrize("scenario", [lambda: load_scenario(STRESS), lambda: get_preset("iride-heo"),
                                          lambda: get_preset("effis-like")], ids=["stress", "iride-heo", "effis-like"])
    def test_equals_row_at_a_time_writer(self, scenario, tmp_path):
        trace = run(scenario())
        assert trace.transfer_records
        reference_transfer_log(trace, tmp_path / "reference.csv")
        cli._write_transfer_log(trace, tmp_path / "transfers.csv")
        assert (tmp_path / "transfers.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(ids=st.lists(st.text(max_size=6) | st.sampled_from([",", '"', "\r", "\n", 'a,"b"\r\n', "é"]),
                        min_size=2, max_size=7),
           n=st.sampled_from([0, 1, 255, 256, 257, 600]))
    def test_odd_ids_equal_row_at_a_time_writer(self, tmp_path_factory, ids, n):
        records = [TransferRecord(ids[i % len(ids)], ids[(i + 1) % len(ids)], i * 1.2345, i * 1.2345 + 0.5, i * 7)
                   for i in range(n)]
        trace = types.SimpleNamespace(transfer_records=records)
        out = tmp_path_factory.mktemp("log")
        reference_transfer_log(trace, out / "reference.csv")
        cli._write_transfer_log(trace, out / "transfers.csv")
        assert (out / "transfers.csv").read_bytes() == (out / "reference.csv").read_bytes()


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

    def test_summary_line_shows_missing_values_as_none(self, tmp_path, capsys):
        code = main(["compare", "--scenario", str(EFFIS), "--baseline", "iride-heo", "--duration", "5",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (capsys.readouterr().out.splitlines()[-1]
                == "effis-like seed=0: hybrid p50=none raw p50=none volume ratio=none")

    def test_baseline_runs_over_the_scenario_horizon(self, tmp_path):
        # A scenario file with a 1-day horizon and the preset cut to 1 day by
        # --duration are the same scenario, so they get the same baseline.
        path = tmp_path / "day.yaml"
        save_scenario(get_preset("iride-heo", horizon_s=float(DAY)), path)
        for name, source in (("file", ["--scenario", str(path)]),
                             ("preset", ["--preset", "iride-heo", "--duration", DAY])):
            assert main(["compare", *source, "--baseline", "effis-like",
                         "--format", "json", "--out", str(tmp_path / name)]) == EXIT_OK
        assert ((tmp_path / "file" / "compare_report.json").read_bytes()
                == (tmp_path / "preset" / "compare_report.json").read_bytes())


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

    def test_lines_show_a_missing_median_as_none(self, tmp_path, capsys):
        code = main(["sweep", "--preset", "iride-heo", "--runs", "2", "--duration", "5", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["seed 0: ttfi p50=none", "seed 1: ttfi p50=none"]

    def test_worker_processes_write_same_bytes(self, tmp_path, capsys):
        # Two runs over two workers, more workers than runs, and three runs in uneven blocks.
        for runs, jobs in ((2, 2), (2, 3), (3, 2)):
            outputs, lines = [], []
            for j in (1, jobs):
                out = tmp_path / f"runs{runs}-jobs{j}"
                code = main(["sweep", "--preset", "effis-like", "--seed", "3", "--runs", str(runs),
                             "--jobs", str(j), "--duration", DAY, "--out", str(out)])
                assert code == EXIT_OK
                outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
                lines.append(capsys.readouterr().out.splitlines())
            assert len(outputs[0]) == 2 * runs
            assert outputs[0] == outputs[1]
            assert [line.split(":")[0] for line in lines[1]] == [f"seed {3 + k}" for k in range(runs)]
            assert lines[0] == lines[1]

    def test_bad_run_count(self, tmp_path):
        assert main(["sweep", "--preset", "iride-heo", "--runs", "0",
                     "--out", str(tmp_path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("args", [
        ["--seed", str(MAX_SEED), "--runs", "2"],
        ["--seed", str(MAX_SEED - 2), "--runs", "4"],
        ["--jobs", "0"],
        ["--duration", "-5", "--jobs", "2"],
    ], ids=["last-seed-over", "range-over", "no-jobs", "bad-duration"])
    def test_bad_range_fails_before_any_run(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        code = main(["sweep", "--preset", "effis-like", "--duration", DAY, "--out", str(out), *args])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()

    def test_range_past_the_last_seed_names_the_last_seed(self, tmp_path, capsys):
        # A first seed inside the limit is valid; only the range runs past it.
        argv = ["sweep", "--preset", "effis-like", "--duration", DAY, "--seed", str(MAX_SEED), "--runs", "2",
                "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: the last seed of the sweep must fit in an unsigned 64-bit integer\n"


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
        # Values over a budget: an AOI wider than half the Earth's
        # circumference, and more expected events than MAX_EVENTS.
        ("aois", "radius_km", 1e300),
        ("event_model", "rate_per_aoi_per_day", 1e30),
        ("event_model", "rate_per_aoi_per_day", 1e300),
        # An AOI whose area underflows to 0.
        ("aois", "radius_km", 1e-200),
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


class TestScenarioSeed:
    def test_file_seed_applies_without_the_flag(self, tmp_path):
        path = tmp_path / "s.yaml"
        save_scenario(get_preset("effis-like", seed=7, horizon_s=float(DAY)), path)
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "file")]) == EXIT_OK
        assert main(["run", "--scenario", str(path), "--seed", "7", "--out", str(tmp_path / "flag")]) == EXIT_OK
        events = [(tmp_path / run / "events.csv").read_bytes() for run in ("file", "flag")]
        assert events[0] == events[1]

    def test_negative_file_seed_is_one_line_error(self, tmp_path, capsys):
        doc = scenario_to_dict(get_preset("effis-like", horizon_s=float(DAY)))
        doc["seed"] = -1
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "seed" in err

    @pytest.mark.parametrize("seed", ["-1", str(MAX_SEED + 1)])
    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    def test_out_of_range_flag_seed_is_one_line_error(self, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        argv = [command, "--preset", "effis-like", "--duration", DAY, "--seed", seed, "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(MAX_SEED + 1)])
    def test_out_of_range_flag_seed_reads_alike_from_every_command(self, tmp_path, capsys, seed):
        errors = []
        for command in ("run", "compare", "sweep"):
            main([command, "--preset", "effis-like", "--duration", DAY, "--seed", seed, "--out", str(tmp_path)])
            errors.append(capsys.readouterr().err)
        assert errors == ["error: invalid scenario: seed: must be in [0, 18446744073709551616)\n"] * 3


# Each numeric leaf of a preset is set to each of these in turn.
MUTATION_VALUES = (0, -1, 1e-200, 1e300, 10**30, -800.0, 800.0)


def _numeric_leaves(node, path="", keys=()):
    """(field path, key chain) of every int or float leaf of a scenario document.

    Only the first entry of a list is visited: every entry is checked alike.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, f"{path}.{key}" if path else key, (*keys, key))
    elif isinstance(node, list):
        if node:
            yield from _numeric_leaves(node[0], f"{path}[0]", (*keys, 0))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, keys


def _refuse_constant(name):
    raise ValueError(f"the report holds {name}, which is not JSON")


class TestNoTraceback:
    """Every single-leaf mutation of a preset exits 0 with finite outputs, or
    exits 1 with one ``error:`` line that names the leaf."""

    # The presets share their stations and AOIs, so iride-heo leaves them to effis-like.
    @pytest.mark.parametrize("preset, horizon_s, skipped", [
        ("effis-like", 3 * 86400.0, {"schema_version"}),
        ("iride-heo", 86400.0, {"schema_version", "stations", "aois"}),
    ])
    def test_numeric_leaf_mutations(self, tmp_path, capsys, preset, horizon_s, skipped):
        doc = scenario_to_dict(get_preset(preset, horizon_s=horizon_s))
        shared = scenario_to_dict(get_preset("effis-like"))
        assert all(doc[section] == shared[section] for section in skipped)
        scenario_path, out = tmp_path / "s.yaml", tmp_path / "out"
        failures = []
        for path, keys in _numeric_leaves({k: v for k, v in doc.items() if k not in skipped}):
            parent = functools.reduce(operator.getitem, keys[:-1], doc)
            original = parent[keys[-1]]
            for value in MUTATION_VALUES:
                # 800 events/AOI/day is a valid load far from any bound; it
                # would take most of this test's time.
                if path == "event_model.rate_per_aoi_per_day" and value == 800.0:
                    continue
                parent[keys[-1]] = value
                scenario_path.write_text(yaml.dump(doc, Dumper=yaml.CSafeDumper))
                shutil.rmtree(out, ignore_errors=True)
                case = f"{path} = {value!r}"
                try:
                    code = main(["run", "--scenario", str(scenario_path), "--out", str(out), "--format", "json"])
                except Exception as exc:
                    failures.append(f"{case}: raised {exc!r}")
                    capsys.readouterr()
                    continue
                err = capsys.readouterr().err
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                if "Traceback" in err or code not in (EXIT_OK, EXIT_VALIDATION):
                    failures.append(f"{case}: exit {code}: {err.strip()}")
                elif code == EXIT_VALIDATION and not (len(errors) == 1 and path in errors[0]):
                    failures.append(f"{case}: {err.strip()}")
                elif code == EXIT_OK:
                    try:
                        json.loads((out / "run_report.json").read_text(), parse_constant=_refuse_constant)
                    except ValueError as exc:
                        failures.append(f"{case}: {exc}")
            parent[keys[-1]] = original
        assert not failures, "\n".join(failures)
