import dataclasses
from collections import Counter

import numpy as np
import pytest

from eochain import orbit
from eochain.engine import SimEventKind, geometry_tables, rng_stream, run
from eochain.model import (
    AcquisitionMode,
    FireEvent,
    GeoPoint,
    ProcessingLocation,
    Triggering,
    ValidationError,
)

from conftest import make_aoi, make_archetype, make_satellite, make_scenario, make_station

DAY = 86400.0


def with_processing(scenario, location):
    arch = dataclasses.replace(scenario.archetype, processing_location=location)
    return dataclasses.replace(scenario, archetype=arch)


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = rng_stream(42, "events", "aoi-1").uniform(size=16)
        b = rng_stream(42, "events", "aoi-1").uniform(size=16)
        assert np.array_equal(a, b)

    def test_different_labels_differ(self):
        a = rng_stream(42, "events", "aoi-1").uniform(size=16)
        b = rng_stream(42, "clouds", "aoi-1").uniform(size=16)
        assert not np.array_equal(a, b)

    def test_different_entities_differ(self):
        a = rng_stream(42, "events", "aoi-1").uniform(size=16)
        b = rng_stream(42, "events", "aoi-2").uniform(size=16)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = rng_stream(1, "events", "aoi-1").uniform(size=16)
        b = rng_stream(2, "events", "aoi-1").uniform(size=16)
        assert not np.array_equal(a, b)

    def test_cross_domain_correlation_sane(self):
        a = rng_stream(7, "detection", "scn-1").uniform(size=4000)
        b = rng_stream(7, "fp", "scn-1").uniform(size=4000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


class TestRunBasics:
    def test_invalid_scenario_rejected_before_simulation(self):
        s = make_scenario()
        bad = dataclasses.replace(s, monitoring_delay_s=-1.0)
        with pytest.raises(ValidationError):
            run(bad)

    def test_zero_events_event_driven_yields_zero_products(self):
        trace = run(make_scenario(rate=0.0))
        assert trace.fire_events == ()
        assert trace.products == {}
        assert trace.marketplace == ()
        assert len(trace.acquisitions) > 0  # systematic imaging continues

    def test_identical_runs_are_bit_identical(self):
        s = make_scenario(seed=7, rate=1.5)
        a, b = run(s), run(s)
        assert a.fire_events == b.fire_events
        assert a.timeline == b.timeline
        assert a.marketplace == b.marketplace
        assert a.transfer_records == b.transfer_records
        assert a.residual_bits() == b.residual_bits()

    def test_timeline_strictly_ordered_and_bounded(self):
        trace = run(make_scenario(seed=3))
        keys = [(e.time, e.seq) for e in trace.timeline]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for e in trace.timeline:
            assert 0.0 <= e.time <= trace.horizon_s

    def test_sim_end_is_final_event(self):
        trace = run(make_scenario(seed=3))
        assert trace.timeline[-1].kind is SimEventKind.SIM_END
        assert trace.timeline[-1].time == trace.horizon_s
        assert sum(1 for e in trace.timeline if e.kind is SimEventKind.SIM_END) == 1

    def test_injected_events_replace_generated(self):
        ev = FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        trace = run(make_scenario(seed=11), injected_events=[ev])
        assert trace.fire_events == (ev,)

    def test_injected_validation(self):
        s = make_scenario()
        late = FireEvent("x", GeoPoint(42.0, 13.0), s.horizon_s + 1.0, 5.0)
        with pytest.raises(ValidationError):
            run(s, injected_events=[late])
        dup = FireEvent("d", GeoPoint(42.0, 13.0), 0.0, 5.0)
        with pytest.raises(ValidationError):
            run(s, injected_events=[dup, dup])
        for bad in (
            FireEvent("nan-area", GeoPoint(42.0, 13.0), 0.0, float("nan")),
            FireEvent("nan-lat", GeoPoint(float("nan"), 13.0), 0.0, 5.0),
            FireEvent("lat-95", GeoPoint(95.0, 13.0), 0.0, 5.0),
        ):
            with pytest.raises(ValidationError, match=bad.id):
                run(s, injected_events=[bad])

    def test_event_outside_every_aoi_is_dropped(self):
        inside = FireEvent("inside", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        lost = FireEvent("lost", GeoPoint(-30.0, 120.0), 3600.0, 50.0)
        trace = run(make_scenario(horizon=DAY), injected_events=[inside, lost])
        assert trace.dropped_event_ids == ("lost",)
        assert [r.event_ids for r in trace.requests] == [frozenset({"inside"})]


class TestChainSemantics:
    def test_event_driven_processes_only_triggered_scenes(self):
        ev = FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        trace = run(make_scenario(seed=5), injected_events=[ev])
        triggered = {f"scn-{i:05d}" for i, a in enumerate(trace.acquisitions) if a.triggered}
        assert set(trace.detections) == triggered
        assert {p.scene_id for p in trace.products.values()} <= triggered

    def test_periodic_processes_every_scene(self):
        arch = make_archetype(
            processing=ProcessingLocation.GROUND,
            triggering=Triggering.PERIODIC,
            cycle=DAY,
        )
        trace = run(make_scenario(seed=5, archetype=arch, rate=0.5))
        assert set(trace.detections) == set(trace.scenes)
        assert len(trace.products) == len(trace.scenes)
        assert trace.mode is ProcessingLocation.GROUND

    def test_on_demand_images_only_planned_windows(self):
        arch = make_archetype(acquisition=AcquisitionMode.ON_DEMAND)
        ev = FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        trace = run(make_scenario(seed=5, archetype=arch), injected_events=[ev])
        assert all(a.triggered for a in trace.acquisitions)
        assert len(trace.acquisitions) == len(trace.plan.assignments)

    def test_hybrid_event_gets_mask_delivery(self):
        ev = FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        trace = run(make_scenario(seed=5), injected_events=[ev])
        covering = [r for r in trace.marketplace if "inj-1" in r.event_ids]
        assert covering, "expected at least one delivered product covering the event"

    def test_causality_chain(self):
        ev = FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        trace = run(make_scenario(seed=5), injected_events=[ev])
        for rec in trace.marketplace:
            p = trace.products[rec.product_id]
            scene = trace.scenes[p.scene_id]
            downlink = trace.downlink_completions[p.id]
            assert rec.delivered >= downlink >= p.created >= scene.acquired
            for eid in rec.event_ids:
                assert scene.acquired >= trace.events_by_id[eid].start

    def test_conservation_exact(self):
        trace = run(make_scenario(seed=13, rate=2.0))
        moved = {pid: 0 for pid in trace.products}
        for r in trace.transfer_records:
            moved[r.product_id] += r.bits_moved
        residual_by_product = trace.residual_bits()
        for pid, p in trace.products.items():
            assert 0 <= moved[pid] <= p.volume_bits
            assert (pid in trace.downlink_completions) == (moved[pid] == p.volume_bits)
            assert residual_by_product.get(pid, 0) == p.volume_bits - moved[pid]
        total_generated = trace.generated_bits()
        total_moved = trace.transferred_bits()
        residual = sum(trace.residual_bits().values())
        assert total_moved + residual == total_generated


class TestStreamIsolation:
    def test_mode_toggle_leaves_common_randomness_intact(self):
        s = make_scenario(seed=21, rate=1.0)
        hybrid = run(with_processing(s, ProcessingLocation.HYBRID))
        raw = run(with_processing(s, ProcessingLocation.GROUND))
        assert hybrid.fire_events == raw.fire_events
        assert [(a.key, a.triggered) for a in hybrid.acquisitions] == [
            (a.key, a.triggered) for a in raw.acquisitions
        ]
        clouds_h = [hybrid.scenes[k].cloud_fraction for k in sorted(hybrid.scenes)]
        clouds_r = [raw.scenes[k].cloud_fraction for k in sorted(raw.scenes)]
        assert clouds_h == clouds_r

    def test_modes_differ_in_products_not_acquisitions(self):
        ev = FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        s = make_scenario(seed=21)
        hybrid = run(with_processing(s, ProcessingLocation.HYBRID), injected_events=[ev])
        raw = run(with_processing(s, ProcessingLocation.GROUND), injected_events=[ev])
        kinds_h = {p.kind.value for p in hybrid.products.values()}
        kinds_r = {p.kind.value for p in raw.products.values()}
        assert kinds_r <= {"RawScene"}
        if hybrid.products:
            assert "ThematicMask" in kinds_h


def table_contents(tables):
    contact, access = tables
    return dict(contact), dict(access)


class TestGeometryTables:
    def test_shared_across_seeds_and_processing_locations(self):
        s = make_scenario(horizon=DAY)
        tables = geometry_tables(s)
        assert geometry_tables(dataclasses.replace(s, seed=99)) is tables
        assert geometry_tables(with_processing(s, ProcessingLocation.GROUND)) is tables

    @pytest.mark.parametrize(
        "change",
        [
            lambda s: dataclasses.replace(
                s, satellites=(s.satellites[0], make_satellite("sat-b", raan=90.0, arg_lat=90.0))
            ),
            lambda s: dataclasses.replace(s, stations=(make_station(min_el=15.0),)),
            lambda s: dataclasses.replace(s, aois=(s.aois[0], make_aoi("aoi-b", 44.5, 9.0, radius=400.0))),
            lambda s: dataclasses.replace(s, horizon_s=DAY / 2),
        ],
        ids=["satellite", "station", "aoi", "horizon"],
    )
    def test_any_geometry_change_gives_new_tables(self, change):
        s = make_scenario(horizon=DAY)
        changed = change(s)
        assert table_contents(geometry_tables(changed)) != table_contents(geometry_tables(s))

    def test_tables_cannot_be_mutated(self):
        contact, access = geometry_tables(make_scenario(horizon=DAY))
        for table in (contact, access):
            key = next(iter(table))
            with pytest.raises(TypeError):
                table[key] = ()
            with pytest.raises(TypeError):
                del table[key]
            assert all(isinstance(windows, tuple) for windows in table.values())

    def test_second_run_computes_no_track(self, monkeypatch):
        sizes = []
        calls = Counter()
        track = orbit.subsatellite_track

        def counting_track(sat, t):
            sizes.append(np.size(t))
            calls[sat.id] += 1
            return track(sat, t)

        monkeypatch.setattr(orbit, "subsatellite_track", counting_track)
        # A horizon no other test uses, so the first run finds nothing cached.
        horizon = 2 * DAY + 5.0
        s = make_scenario(horizon=horizon)
        run(s)
        # The 10 s grid: multiples of the step in [0, horizon), then the horizon.
        grid = len(np.arange(0.0, horizon, 10.0)) + 1
        blocks = -(-grid // orbit.BLOCK)
        pairs = len(s.satellites) * (len(s.stations) + len(s.aois))
        # No call samples the whole grid.  Each satellite's search samples the
        # track at the block centres once, at its targets' samples once, and
        # once per bisection step.
        assert max(sizes) < grid
        assert sizes.count(blocks) == len(s.satellites)
        assert sum(sizes) < 0.1 * pairs * grid
        first_calls = dict(calls)
        sizes.clear()
        run(dataclasses.replace(s, seed=1))
        run(with_processing(s, ProcessingLocation.GROUND))
        assert sizes == []
        # More AOIs, far apart, share each satellite's track and bisection.
        calls.clear()
        far = (make_aoi("aoi-c", -33.9, 151.2), make_aoi("aoi-d", 64.1, -21.9), make_aoi("aoi-e", 1.3, 103.8))
        geometry_tables(dataclasses.replace(s, aois=s.aois + far))
        assert calls.keys() == first_calls.keys()
        assert all(calls[sid] <= first_calls[sid] for sid in calls)
