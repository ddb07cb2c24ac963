import dataclasses
import functools
import importlib
import math
import operator
import pkgutil
import random
import re
import sys
import typing
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eochain
from eochain import model
from eochain.model import (
    DEFAULT_COARSE_STEP_S,
    EARTH_RADIUS_KM,
    MAX_EVENTS,
    MAX_GRID_SAMPLES,
    FireEvent,
    GeoPoint,
    Scenario,
    Triggering,
    ValidationError,
    mask_volume,
    pixel_count,
    scene_volume,
    validate_scenario,
)
from eochain.presets import effis_like, iride_heo
from eochain.scenario_io import scenario_from_dict, scenario_to_dict

from conftest import RECORD_TYPES, make_archetype, make_processor, make_satellite, make_scenario, numeric_fields


class TestGeoPoint:
    def test_lon_normalized_on_construction(self):
        assert GeoPoint(0.0, 190.0).lon == -170.0
        assert GeoPoint(0.0, -180.0).lon == -180.0
        assert GeoPoint(0.0, 180.0).lon == -180.0
        assert GeoPoint(0.0, 540.0).lon == pytest.approx(180.0 - 360.0)

    def test_lat_passed_through(self):
        assert GeoPoint(45.5, 10.0).lat == 45.5


class TestSceneVolume:
    def test_high_res_scene(self):
        # Independent arithmetic: ceil(100e6 / 3^2) pixels, 4 bands x 12 bit.
        expected = math.ceil(100.0 * 1e6 / 9.0) * 48
        assert expected == 533_333_376
        assert scene_volume(100.0, 3.0, 4, 12) == expected

    def test_single_pixel(self):
        # One gsd x gsd pixel at 1 band x 1 bit is exactly one bit.
        assert scene_volume(9.0e-6, 3.0, 1, 1) == 1

    def test_medium_res_scene(self):
        # Same oracle at 20 m: medium-res scenes are ~44x lighter.
        assert scene_volume(100.0, 20.0, 4, 12) == 12_000_000

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            scene_volume(0.0, 3.0, 4, 12)
        with pytest.raises(ValidationError):
            scene_volume(100.0, -3.0, 4, 12)
        with pytest.raises(ValidationError):
            scene_volume(100.0, 3.0, 0, 12)
        with pytest.raises(ValidationError):
            scene_volume(100.0, 3.0, 4, 0)

    def test_monotonicity(self):
        rng = random.Random(7)
        for _ in range(200):
            area = rng.uniform(0.1, 5000.0)
            gsd = rng.uniform(0.5, 50.0)
            bands = rng.randint(1, 12)
            depth = rng.randint(1, 16)
            base = scene_volume(area, gsd, bands, depth)
            assert scene_volume(area * 1.5, gsd, bands, depth) >= base
            assert scene_volume(area, gsd * 1.5, bands, depth) <= base
            assert scene_volume(area, gsd, bands + 1, depth) > base
            assert scene_volume(area, gsd, bands, depth + 1) > base


class TestMaskVolume:
    def test_uncompressed_mask_is_one_bit_per_pixel(self):
        pixels = math.ceil(100.0 * 1e6 / 9.0)
        assert mask_volume(100.0, 3.0, 1.0) == pixels
        assert scene_volume(100.0, 3.0, 4, 12) / mask_volume(100.0, 3.0, 1.0) == 48.0

    def test_compressed_mask_ratio(self):
        raw = scene_volume(100.0, 3.0, 4, 12)
        mask = mask_volume(100.0, 3.0, 10.0)
        ratio = raw / mask
        # 48 x 10 up to ceiling rounding on the mask.
        assert 480.0 * (1 - 1e-6) <= ratio <= 480.0

    def test_floor_is_one_bit(self):
        assert mask_volume(1e-12, 3.0, 5.0) == 1

    def test_rejects_bad_compression(self):
        with pytest.raises(ValidationError):
            mask_volume(100.0, 3.0, 0.5)

    def test_exact_48_ratio_for_any_area(self):
        rng = random.Random(11)
        for _ in range(100):
            area = rng.uniform(1e-6, 1e5)
            raw = scene_volume(area, 3.0, 4, 12)
            mask = mask_volume(area, 3.0, 1.0)
            assert raw == 48 * mask

    def test_mask_strictly_smaller_than_scene(self):
        rng = random.Random(13)
        for _ in range(100):
            area = rng.uniform(0.5, 1e4)
            gsd = rng.uniform(1.0, 30.0)
            assert mask_volume(area, gsd, 1.0) < scene_volume(area, gsd, 2, 1)


class TestPixelCount:
    def test_matches_direct_formula(self):
        assert pixel_count(100.0, 3.0) == math.ceil(100.0e6 / 9.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            pixel_count(-1.0, 3.0)


class TestValidateScenario:
    def test_builtin_presets_are_valid(self):
        assert validate_scenario(iride_heo()) == []
        assert validate_scenario(effis_like()) == []

    def test_zero_gsd_yields_one_violation_naming_field(self):
        s = make_scenario()
        bad = dataclasses.replace(s.satellites[0], gsd_m=0.0)
        s = dataclasses.replace(s, satellites=(bad,) + s.satellites[1:])
        violations = validate_scenario(s)
        assert len(violations) == 1
        assert violations[0].path == "satellites[0].gsd_m"

    def test_mask_latency_exceeding_raw_is_a_violation(self):
        s = make_scenario(pdgs_raw=600.0, pdgs_mask=7200.0)
        violations = validate_scenario(s)
        assert len(violations) == 1
        assert violations[0].path == "latencies.pdgs_mask_s"

    def test_violations_sorted_by_path(self):
        s = make_scenario()
        bad_sat = dataclasses.replace(s.satellites[0], gsd_m=0.0, swath_km=-1.0)
        s = dataclasses.replace(
            s,
            satellites=(bad_sat,) + s.satellites[1:],
            monitoring_delay_s=-5.0,
        )
        violations = validate_scenario(s)
        paths = [v.path for v in violations]
        assert paths == sorted(paths)
        assert len(paths) == 3

    def test_every_non_finite_float_is_reported_at_its_path(self):
        def float_leaves(node, path):
            """(container, key, field path) of every float in a scenario document."""
            for key, value in node.items() if isinstance(node, dict) else enumerate(node):
                sub = f"{path}[{key}]" if isinstance(node, list) else f"{path}.{key}" if path else key
                if isinstance(value, (dict, list)):
                    yield from float_leaves(value, sub)
                elif isinstance(value, float):
                    yield node, key, sub

        doc = scenario_to_dict(make_scenario())
        leaves = list(float_leaves(doc, ""))
        paths = {path for _, _, path in leaves}
        assert {"horizon_s", "stations[0].location.lon", "detection.accuracy_p"} <= paths
        for node, key, path in leaves:
            good = node[key]
            for bad in (math.inf, -math.inf, math.nan):
                node[key] = bad
                violations = validate_scenario(scenario_from_dict(doc))
                assert path in {v.path for v in violations}, (path, bad)
            node[key] = good
        assert validate_scenario(scenario_from_dict(doc)) == []
        # A field its own check already flags is not reported twice.
        s = dataclasses.replace(make_scenario(), horizon_s=math.inf)
        assert [str(v) for v in validate_scenario(s)] == [
            "horizon_s: horizon must be finite and positive"
        ]

    def test_horizon_within_sample_budget(self):
        longest = MAX_GRID_SAMPLES * DEFAULT_COARSE_STEP_S
        assert validate_scenario(dataclasses.replace(make_scenario(), horizon_s=longest)) == []
        for horizon in (longest * (1 + 1e-12), 1e12):
            violations = validate_scenario(dataclasses.replace(make_scenario(), horizon_s=horizon))
            assert [v.path for v in violations] == ["horizon_s"]
            assert "samples" in violations[0].message

    def test_expected_events_within_budget(self):
        s = make_scenario(horizon=2 * 86400.0)  # two AOIs over two days
        at_budget = MAX_EVENTS / 4
        assert validate_scenario(dataclasses.replace(
            s, event_model=dataclasses.replace(s.event_model, rate_per_aoi_per_day=at_budget))) == []
        for rate in (at_budget * (1 + 1e-12), 1e30, 1e300, sys.float_info.max):
            bad = dataclasses.replace(s, event_model=dataclasses.replace(s.event_model, rate_per_aoi_per_day=rate))
            violations = validate_scenario(bad)
            assert [v.path for v in violations] == ["event_model.rate_per_aoi_per_day"]
            assert "events" in violations[0].message

    def test_aoi_radius_at_most_half_the_circumference(self):
        s = make_scenario()
        longest = math.pi * EARTH_RADIUS_KM
        aoi = dataclasses.replace(s.aois[0], radius_km=longest)
        assert validate_scenario(dataclasses.replace(s, aois=(aoi, s.aois[1]))) == []
        for radius in (longest * (1 + 1e-12), 1e300, 0.0):
            aoi = dataclasses.replace(s.aois[0], radius_km=radius)
            violations = validate_scenario(dataclasses.replace(s, aois=(aoi, s.aois[1])))
            assert [v.path for v in violations] == ["aois[0].radius_km"]

    def test_empty_asset_lists_flagged(self):
        s = make_scenario()
        s = dataclasses.replace(s, stations=())
        assert any(v.path == "stations" for v in validate_scenario(s))

    @pytest.mark.parametrize("name, item_type", [
        ("satellites", "SatelliteSpec"), ("stations", "GroundStationSpec"),
        ("aois", "AreaOfInterest"), ("events", "FireEvent"),
    ])
    def test_collection_must_be_a_tuple_of_its_item_type(self, name, item_type):
        s = make_scenario()
        # Each item is invalid in its own fields, so a walk into it would add violations.
        bad_item = {
            "satellites": dataclasses.replace(s.satellites[0], altitude_km=math.nan, gsd_m=-3.0),
            "stations": dataclasses.replace(s.stations[0], xband_rate_mbit_s=-1.0),
            "aois": dataclasses.replace(s.aois[0], radius_km=0.0),
            "events": FireEvent("ev", GeoPoint(95.0, 0.0), -1.0, 5.0),
        }[name]
        for value in ([bad_item], (None,), (bad_item, None), 5, bad_item):
            violations = validate_scenario(dataclasses.replace(s, **{name: value}))
            assert [str(v) for v in violations] == [f"{name}: must be a tuple of {item_type}"], value
        violations = validate_scenario(dataclasses.replace(s, **{name: (bad_item,)}))
        assert violations and all(v.path.startswith(f"{name}[0].") for v in violations)

    def test_only_events_may_be_none(self):
        s = make_scenario()
        assert validate_scenario(dataclasses.replace(s, events=None)) == []
        for name in ("satellites", "stations", "aois"):
            assert [v.path for v in validate_scenario(dataclasses.replace(s, **{name: None}))] == [name]

    def test_duplicate_aoi_ids_flagged(self):
        s = make_scenario()
        dup = dataclasses.replace(s.aois[0], id=s.aois[1].id)
        s = dataclasses.replace(s, aois=(dup, s.aois[1]))
        assert any(v.path == "aois[1].id" for v in validate_scenario(s))

    def test_periodic_cycle_requirements(self):
        from eochain.model import Triggering
        s = make_scenario()
        arch = dataclasses.replace(s.archetype, triggering=Triggering.PERIODIC, periodic_cycle_s=None)
        s2 = dataclasses.replace(s, archetype=arch)
        assert any(v.path == "archetype.periodic_cycle_s" for v in validate_scenario(s2))
        arch = dataclasses.replace(s.archetype, periodic_cycle_s=86400.0)
        s3 = dataclasses.replace(s, archetype=arch)
        assert any(v.path == "archetype.periodic_cycle_s" for v in validate_scenario(s3))

    @pytest.mark.parametrize("keys, lowest, too_small", [
        (("archetype", "periodic_cycle_s"), 1.0, 1e-305),
        (("satellites", 0, "processor", "preprocess_rate_mpx_s"), 1e-6, 1e-305),
        (("satellites", 0, "processor", "inference_rate_mpx_s"), 1e-6, 1e-305),
    ])
    def test_divisors_have_a_floor(self, keys, lowest, too_small):
        # A time divided by the cycle, or a pixel count by a rate, overflowed
        # to infinity: a traceback or an Infinity in the report.
        periodic = make_archetype(triggering=Triggering.PERIODIC, cycle=86400.0)
        doc = scenario_to_dict(make_scenario(archetype=periodic))
        holder = functools.reduce(operator.getitem, keys[:-1], doc)
        holder[keys[-1]] = lowest
        assert validate_scenario(scenario_from_dict(doc)) == []
        holder[keys[-1]] = too_small
        path = re.sub(r"\.(\d+)", r"[\1]", ".".join(map(str, keys)))
        assert [v.path for v in validate_scenario(scenario_from_dict(doc))] == [path]

    def test_disabled_processor_needs_no_rates(self):
        from conftest import make_processor
        sat = make_satellite(processor=make_processor(enabled=False, pre=-1.0, inf=-1.0))
        s = make_scenario(satellites=(sat,))
        assert validate_scenario(s) == []

    @pytest.mark.parametrize("raw, mask, path", [
        (-5.0, 600.0, "latencies.pdgs_raw_s"),
        (math.nan, 600.0, "latencies.pdgs_raw_s"),
        (7200.0, math.nan, "latencies.pdgs_mask_s"),
    ])
    def test_cross_field_rule_is_judged_only_on_fields_within_bounds(self, raw, mask, path):
        # pdgs_mask_s <= pdgs_raw_s says nothing when either side already failed its
        # own interval; the failed field is the one violation.
        violations = validate_scenario(make_scenario(pdgs_raw=raw, pdgs_mask=mask))
        assert [v.path for v in violations] == [path]


def bounded_leaves(record, keys=()):
    """(document keys, field) of every field with a declared interval inside a scenario value."""
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, tuple):
            for i, item in enumerate(value):
                yield from bounded_leaves(item, keys + (f.name, i))
        elif dataclasses.is_dataclass(value):
            yield from bounded_leaves(value, keys + (f.name,))
        elif "interval" in f.metadata:
            yield keys + (f.name,), f


class TestDeclaredIntervals:
    def test_every_number_declares_its_interval(self):
        fields = numeric_fields()
        unbounded = {name for name, f in fields.items() if "interval" not in f.metadata}
        # Angles that wrap, and the horizon, whose two checks are written out by hand.
        assert unbounded == {"SatelliteSpec.raan_deg", "SatelliteSpec.initial_arg_lat_deg",
                             "GeoPoint.lon", "Scenario.horizon_s"}
        # The fields with no finite upper end; each still rejects infinity.
        no_upper_end = {name for name, f in fields.items()
                        if "interval" in f.metadata and f.metadata["hi"] == math.inf}
        assert no_upper_end == {
            "SatelliteSpec.swath_km", "SatelliteSpec.bands", "SatelliteSpec.bit_depth",
            "OnboardProcessorSpec.preprocess_rate_mpx_s", "OnboardProcessorSpec.inference_rate_mpx_s",
            "ServiceArchetype.mmu_ha", "ServiceArchetype.periodic_cycle_s",
            "EventModel.rate_per_aoi_per_day", "GroundLatencySpec.pdgs_raw_s",
            "GroundLatencySpec.pdgs_mask_s", "Scenario.monitoring_delay_s", "DetectionSpec.mask_compression",
            "FireEvent.start", "FireEvent.area_ha",
        }
        assert all(fields[name].metadata["ends"][1] == ")" for name in no_upper_end)

    def test_each_end_is_where_the_declaration_puts_it(self):
        # Periodic, so the cycle is bounded; a mask latency of 0, so the raw one
        # may go down to its own lower end; one fixed event, so its fields are probed.
        base = dataclasses.replace(
            make_scenario(archetype=make_archetype(triggering=Triggering.PERIODIC, cycle=86400.0), pdgs_mask=0.0),
            events=(FireEvent("ev-1", GeoPoint(42.0, 13.0), 3600.0, 50.0),))
        assert validate_scenario(base) == []
        doc = scenario_to_dict(base)
        checked = 0
        for keys, f in bounded_leaves(base):
            holder = functools.reduce(operator.getitem, keys[:-1], doc)
            good = holder[keys[-1]]
            path = re.sub(r"\.(\d+)", r"[\1]", ".".join(map(str, keys)))
            m = f.metadata
            for end, outward, is_open in ((m["lo"], -1, m["ends"][0] == "("), (m["hi"], 1, m["ends"][1] == ")")):
                if math.isinf(end):
                    # An open end at infinity; an int field cannot hold it.
                    values = {} if isinstance(good, int) else {end: [path]}
                elif isinstance(end, int):
                    values = {end - outward: [], end: [path]} if is_open else {end: [], end + outward: [path]}
                else:
                    before, after = (math.nextafter(end, d * math.inf) for d in (-outward, outward))
                    values = {before: [], end: [path]} if is_open else {end: [], after: [path]}
                for value, expected in values.items():
                    holder[keys[-1]] = value
                    found = [v.path for v in validate_scenario(scenario_from_dict(doc))]
                    assert found == expected, (path, value)
                    checked += 1
            holder[keys[-1]] = good
        assert checked > 100


def reference_leaf_violations(record, path, out):
    """The walk of every field by ``dataclasses.fields``: the oracle of ``model._leaf_violations``,
    which reads each type's checks from a plan built once."""
    for f in dataclasses.fields(record):
        value, m = getattr(record, f.name), f.metadata
        sub = f"{path}.{f.name}" if path else f.name
        if isinstance(value, tuple):
            for i, item in enumerate(value):
                reference_leaf_violations(item, f"{sub}[{i}]", out)
        elif dataclasses.is_dataclass(value):
            reference_leaf_violations(value, sub, out)
        elif sub in out or value is None:
            continue
        elif m and (m["when"] is None or getattr(record, m["when"])):
            if not ((m["lo"] < value if m["ends"][0] == "(" else m["lo"] <= value)
                    and (value < m["hi"] if m["ends"][1] == ")" else value <= m["hi"])):
                out[sub] = f"must be in {m['interval']}"
        elif isinstance(value, float) and not math.isfinite(value):
            out[sub] = "must be finite"


def number_leaves(record, keys=()):
    """(document keys, field) of every int or float field inside a scenario value."""
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, tuple):
            for i, item in enumerate(value):
                yield from number_leaves(item, keys + (f.name, i))
        elif dataclasses.is_dataclass(value):
            yield from number_leaves(value, keys + (f.name,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield keys + (f.name,), f


PRESET_LEAVES = {preset: list(number_leaves(preset())) for preset in (iride_heo, effis_like)}
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def near_ends(f, value):
    """Values at and just beside each finite end of the field's interval, of the value's type."""
    m = f.metadata
    ends = [end for end in (m.get("lo"), m.get("hi")) if end is not None and math.isfinite(end)]
    if isinstance(value, int):
        return [int(end) + d for end in ends for d in (-1, 0, 1)] or [0, -1]
    return [math.nan, math.inf, -math.inf, 0.0, -0.0,
            *(x for end in ends for x in (math.nextafter(end, -math.inf), float(end), math.nextafter(end, math.inf)))]


@st.composite
def broken_presets(draw):
    """A preset scenario with some numbers set out of range, to NaN or infinity, some processors
    disabled with bad rates (the ``when`` rule), and some field paths already flagged."""
    preset = draw(st.sampled_from(sorted(PRESET_LEAVES, key=lambda p: p.__name__)))
    doc = scenario_to_dict(preset())
    chosen = draw(st.lists(st.sampled_from(PRESET_LEAVES[preset]), max_size=8, unique_by=lambda leaf: leaf[0]))
    for keys, f in chosen:
        holder = functools.reduce(operator.getitem, keys[:-1], doc)
        value = holder[keys[-1]]
        spread = st.integers(-2**70, 2**70) if isinstance(value, int) else ANY_FLOAT
        holder[keys[-1]] = draw(st.sampled_from(near_ends(f, value)) | spread)
    for i in draw(st.sets(st.integers(0, len(doc["satellites"]) - 1), max_size=3)):
        processor = doc["satellites"][i]["processor"]
        processor["enabled"] = False
        processor["inference_rate_mpx_s"] = draw(st.sampled_from([-1.0, 0.0, math.nan, -math.inf]) | ANY_FLOAT)
    paths = [re.sub(r"\.(\d+)", r"[\1]", ".".join(map(str, keys))) for keys, _ in chosen]
    flagged = draw(st.sets(st.sampled_from(paths), max_size=2)) if paths else set()
    return scenario_from_dict(doc), {path: "flagged before the walk" for path in sorted(flagged)}


class TestFieldChecks:
    @settings(max_examples=150, deadline=None)
    @given(case=broken_presets())
    def test_per_type_plan_equals_field_walk(self, case):
        scenario, flagged = case
        planned, walked = dict(flagged), dict(flagged)
        model._leaf_violations(scenario, (), planned)
        reference_leaf_violations(scenario, "", walked)
        assert list(planned.items()) == list(walked.items())

    def test_disabled_processor_rates_follow_the_when_rule(self):
        sat = make_satellite(processor=make_processor(enabled=False, pre=math.nan, inf=-1.0))
        # While disabled, a rate need not be in its interval, but it must still be finite.
        out = {}
        model._leaf_violations(make_scenario(satellites=(sat,)), (), out)
        assert out == {"satellites[0].processor.preprocess_rate_mpx_s": "must be finite"}
        sat = make_satellite(processor=make_processor(enabled=True, pre=math.nan, inf=-1.0))
        out = {}
        model._leaf_violations(make_scenario(satellites=(sat,)), (), out)
        assert out == {"satellites[0].processor.preprocess_rate_mpx_s": "must be in [1e-06, inf)",
                       "satellites[0].processor.inference_rate_mpx_s": "must be in [1e-06, inf)"}


def hint_types(hint):
    """``hint`` and every type argument inside it, at any depth: ``Optional[tuple[X, ...]]`` reaches X."""
    yield hint
    for arg in typing.get_args(hint):
        yield from hint_types(arg)


def scenario_types():
    """``Scenario`` and every eochain type that its field annotations reach."""
    found, todo = set(), [Scenario]
    while todo:
        tp = todo.pop()
        found.add(tp)
        for hint in typing.get_type_hints(tp).values():
            for arg in hint_types(hint):
                if (isinstance(arg, type) and arg.__module__.startswith("eochain.")
                        and not issubclass(arg, Enum) and arg not in found):
                    todo.append(arg)
    return found


def defined_types():
    """Every class that an eochain module defines at its top level."""
    modules = [importlib.import_module(f"eochain.{m.name}") for m in pkgutil.iter_modules(eochain.__path__)]
    return {value for module in modules for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__}


class TestTypeRule:
    """Scenario types are dataclasses; what a run builds is a NamedTuple."""

    def test_scenario_types_are_dataclasses(self):
        # Validation and the scenario loader read a tuple value as a list of records.
        types = scenario_types()
        assert len(types) == 12
        assert [tp.__name__ for tp in types if not dataclasses.is_dataclass(tp) or issubclass(tp, tuple)] == []
        # Frozen: a scenario value is changed with ``dataclasses.replace``, never in place.
        assert [tp.__name__ for tp in types if not tp.__dataclass_params__.frozen] == []

    def test_only_scenario_types_are_dataclasses(self):
        defined = defined_types()
        expected = {tp.__name__ for tp in scenario_types()}
        assert {tp.__name__ for tp in defined if dataclasses.is_dataclass(tp)} == expected
        assert {tp for tp in defined if issubclass(tp, tuple)} == set(RECORD_TYPES)
