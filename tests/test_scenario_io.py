import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from eochain.model import FireEvent, GeoPoint, Scenario, ValidationError, validate_scenario
from eochain.presets import effis_like, get_preset, iride_heo
from eochain.scenario_io import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from conftest import make_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# A scenario with a fixed event list, listed out of (start, id) order.
WITH_EVENTS = dataclasses.replace(make_scenario(), events=(
    FireEvent("ev-2", GeoPoint(44.5, 9.0), 7200.0, 25.0),
    FireEvent("ev-1", GeoPoint(42.0, 13.0), 3600.5, 50.0),
))


class TestRoundTrip:
    @pytest.mark.parametrize("scenario", [iride_heo(), effis_like(), make_scenario(), WITH_EVENTS,
                                          dataclasses.replace(make_scenario(), events=())])
    def test_dict_round_trip(self, scenario):
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_file_round_trip(self, tmp_path):
        scenario = dataclasses.replace(iride_heo(), seed=42)
        path = tmp_path / "scenario.yaml"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_file_round_trip_keeps_the_event_list(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        save_scenario(WITH_EVENTS, path)
        loaded = load_scenario(path)
        assert loaded == WITH_EVENTS
        assert all(type(e) is FireEvent for e in loaded.events)

    def test_saved_file_validates(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        save_scenario(effis_like(), path)
        assert validate_scenario(load_scenario(path)) == []

    def test_loader_runs_on_libyaml(self, tmp_path, monkeypatch):
        loaders = []
        load = yaml.load
        monkeypatch.setattr(yaml, "load", lambda stream, Loader: loaders.append(Loader) or load(stream, Loader))
        path = tmp_path / "scenario.yaml"
        save_scenario(iride_heo(), path)
        assert load_scenario(path) == iride_heo()
        assert yaml.__with_libyaml__
        assert len(loaders) == 1 and issubclass(loaders[0], yaml.cyaml.CParser)

    def test_merge_keys_are_not_duplicates(self, tmp_path):
        # Two merges into one mapping, one of whose keys is then set again
        # explicitly: YAML allows both, so neither is a repeated key.
        text = (SCENARIOS / "iride_heo.yaml").read_text()
        plain = "latencies:\n  pdgs_raw_s: 7200.0\n  pdgs_mask_s: 600.0\n"
        merged = ("latencies:\n  <<: {pdgs_raw_s: 1.0}\n  <<: {pdgs_mask_s: 600.0}\n"
                  "  pdgs_raw_s: 7200.0\n")
        assert plain in text
        path = tmp_path / "merged.yaml"
        path.write_text(text.replace(plain, merged))
        assert load_scenario(path) == iride_heo()


class TestCommittedFiles:
    @pytest.mark.parametrize("preset", [iride_heo, effis_like], ids=["iride_heo", "effis_like"])
    def test_file_equals_preset_and_validates(self, preset):
        scenario = load_scenario(SCENARIOS / f"{preset.__name__}.yaml")
        assert scenario == preset()
        assert validate_scenario(scenario) == []

    @pytest.mark.parametrize("name", ["iride-heo", "effis-like"])
    def test_file_is_the_saved_preset(self, tmp_path, name):
        path = tmp_path / "s.yaml"
        save_scenario(get_preset(name), path)
        assert path.read_bytes() == (SCENARIOS / f"{name.replace('-', '_')}.yaml").read_bytes()

    def test_stress_file_is_the_saved_stress_variant(self, tmp_path):
        # iride-heo at 50 events/AOI/day over two days, as the benchmark builds it.
        base = iride_heo()
        stress = dataclasses.replace(base, horizon_s=172800.0,
                                     event_model=dataclasses.replace(base.event_model, rate_per_aoi_per_day=50.0))
        path = tmp_path / "s.yaml"
        save_scenario(stress, path)
        assert path.read_bytes() == (SCENARIOS / "iride_heo_stress.yaml").read_bytes()


def test_presets_differ_only_in_name_satellites_and_archetype():
    heo, effis = iride_heo(), effis_like()
    differing = {f.name for f in dataclasses.fields(Scenario) if getattr(heo, f.name) != getattr(effis, f.name)}
    assert differing == {"name", "satellites", "archetype"}


class TestErrors:
    def test_wrong_schema_version(self):
        doc = scenario_to_dict(iride_heo())
        doc["schema_version"] = 99
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    def test_missing_field(self):
        doc = scenario_to_dict(iride_heo())
        del doc["satellites"][0]["altitude_km"]
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    def test_missing_event_field_names_its_path(self):
        doc = scenario_to_dict(WITH_EVENTS)
        del doc["events"][0]["area_ha"]
        with pytest.raises(ValidationError, match=re.escape("events[0].area_ha is missing")):
            scenario_from_dict(doc)

    def test_non_mapping_document(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ValidationError):
            load_scenario(path)

    def test_invalid_enum_value(self):
        doc = scenario_to_dict(iride_heo())
        doc["archetype"]["processing_location"] = "Orbital"
        with pytest.raises(ValueError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("section, field, value", [
        ("stations", "sband_available", "false"),
        ("stations", "sband_available", 0),
        ("satellites", "bands", 3.7),
        ("satellites", "bands", 3.0),
        ("satellites", "bands", True),
        ("satellites", "bit_depth", "12"),
        (None, "seed", 1.5),
    ])
    def test_bool_and_int_fields_are_not_converted(self, section, field, value):
        doc = scenario_to_dict(iride_heo())
        target = doc if section is None else doc[section][0]
        where = field if section is None else f"{section}[0].{field}"
        target[field] = value
        with pytest.raises(ValidationError, match=re.escape(where)):
            scenario_from_dict(doc)

    def test_nested_bool_field_is_not_converted(self):
        doc = scenario_to_dict(iride_heo())
        doc["satellites"][1]["processor"]["enabled"] = "no"
        with pytest.raises(ValidationError, match=re.escape("satellites[1].processor.enabled")):
            scenario_from_dict(doc)
