import dataclasses
import hashlib
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eochain import cli, downlink, engine, model, onboard, orbit, tasking
from eochain.engine import SimEventKind, SimulationTrace, geometry_tables, rng_stream, rng_streams, run, with_processing
from eochain.ground import pdgs_done
from eochain.model import (
    AcquisitionMode,
    DetectionSpec,
    FireEvent,
    GeoPoint,
    ProcessingLocation,
    ProductKind,
    Triggering,
    ValidationError,
)
from eochain.onboard import classify_scene, draw_cloud_fraction
from eochain.presets import get_preset
from eochain.scenario_io import load_scenario

from conftest import (
    NO_SHRINK,
    make_aoi,
    make_archetype,
    make_processor,
    make_satellite,
    make_scenario,
    make_station,
)

DAY = 86400.0


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

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5])
    def test_entropy_matches_list_form(self, seed):
        # numpy turns the list [seed, *words] into the seed's 32-bit words,
        # low first, then the four digest words; the stream must not change.
        digest = hashlib.sha256(b"clouds/scn-00001").digest()
        words = [int.from_bytes(digest[i : i + 4], "little") for i in (0, 4, 8, 12)]
        expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *words])))
        actual = rng_stream(seed, "clouds", "scn-00001")
        assert actual.bit_generator.state == expected.bit_generator.state
        assert np.array_equal(actual.uniform(size=8), expected.uniform(size=8))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**128 - 1),
        label=st.text(max_size=12),
        ids=st.lists(st.text(max_size=12), max_size=64),
    )
    def test_batched_streams_match_numpy(self, seed, label, ids):
        streams = list(rng_streams(seed, label, ids))
        assert len(streams) == len(ids)
        for entity_id, stream in zip(ids, streams):
            digest = hashlib.sha256(f"{label}/{entity_id}".encode()).digest()
            words = [int.from_bytes(digest[i : i + 4], "little") for i in (0, 4, 8, 12)]
            expected = np.random.PCG64(np.random.SeedSequence([seed, *words]))
            assert stream.bit_generator.state == expected.state
            # A row does not depend on the rows beside it.
            assert rng_stream(seed, label, entity_id).bit_generator.state == expected.state


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
        assert len(trace.scenes) > 0  # systematic imaging continues

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
            assert 0.0 <= e.time <= trace.scenario.horizon_s

    def test_timeline_is_assembled_on_first_read(self):
        # The digest of (time, seq, kind, ref) of every entry was taken when
        # ``run`` still assembled the timeline itself.
        path = Path(__file__).resolve().parents[1] / "scenarios" / "iride_heo_stress.yaml"
        trace = run(dataclasses.replace(load_scenario(path), horizon_s=DAY))
        assert "timeline" not in SimulationTrace._fields
        text = "\n".join(f"{e.time.hex()} {e.seq} {e.kind.value} {e.ref}" for e in trace.timeline)
        assert len(trace.timeline) == 2653
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a34dfdaf0593f60749b87a8df8e8d3ab48719eba9faa495636c4136ead573621"
        )

    def test_pdgs_entries_are_the_downlinked_products_finished_inside_the_horizon(self):
        # With 40,000 s of PDGS time the products of the first downlink pass finish inside the day,
        # those of the second after it.
        aois = (make_aoi("aoi-a", 42.0, 13.0, radius=300.0), make_aoi("aoi-b", 44.5, 9.0, radius=300.0))
        s = make_scenario(seed=1, horizon=DAY, aois=aois, rate=8.0, pdgs_raw=40_000.0, pdgs_mask=40_000.0)
        trace = run(s)
        finished = {pid: pdgs_done(trace.products[pid], done, s.latencies)
                    for pid, done in trace.downlink_completions.items()}
        inside = {pid: t for pid, t in sorted(finished.items()) if t <= s.horizon_s}
        assert inside and len(inside) < len(finished)
        entries = sorted((e for e in trace.timeline if e.kind is SimEventKind.PDGS_DONE), key=lambda e: e.seq)
        assert [(e.ref, e.time) for e in entries] == list(inside.items())

    def test_sim_end_is_final_event(self):
        trace = run(make_scenario(seed=3))
        assert trace.timeline[-1].kind is SimEventKind.SIM_END
        assert trace.timeline[-1].time == trace.scenario.horizon_s
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


    def test_each_event_aoi_distance_computed_once(self, monkeypatch):
        # Each distance is one ``arc_km`` call, and each point's terms one ``sphere_terms`` call.
        calls = Counter()

        def counted(original):
            def wrapper(*args):
                calls[original.__name__] += 1
                return original(*args)
            return wrapper

        for original in (model.arc_km, model.sphere_terms):
            for name, module in list(sys.modules.items()):
                if name.startswith("eochain") and getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, counted(original))
        scenario = make_scenario(horizon=DAY, rate=20.0)
        trace = run(scenario)
        assert len(trace.scenes) > 0 and len(trace.fire_events) > 0
        assert calls == {"arc_km": len(trace.fire_events) * len(scenario.aois),
                         "sphere_terms": len(trace.fire_events) + len(scenario.aois)}


class TestChainSemantics:
    def test_event_driven_processes_only_triggered_scenes(self):
        ev = FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        trace = run(make_scenario(seed=5), injected_events=[ev])
        triggered = {scene.id for scene in trace.scenes.values() if scene.triggered}
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
        assert trace.scenario.archetype.processing_location is ProcessingLocation.GROUND

    @pytest.mark.parametrize("triggering", [Triggering.EVENT_DRIVEN, Triggering.PERIODIC])
    def test_only_processed_scenes_draw_clouds(self, triggering):
        arch = make_archetype(triggering=triggering, cycle=DAY if triggering is Triggering.PERIODIC else None)
        s = make_scenario(seed=5, archetype=arch, cloud_mean=0.4)
        ev = FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        trace = run(s, injected_events=[ev])
        assert trace.detections
        for scene_id, scene in trace.scenes.items():
            if scene_id in trace.detections:
                stream = rng_stream(s.seed, "clouds", scene_id)
                assert scene.cloud_fraction == draw_cloud_fraction(s.cloud_model, stream)
            else:
                assert scene.cloud_fraction is None
        unprocessed = len(trace.scenes) - len(trace.detections)
        assert unprocessed == 0 if triggering is Triggering.PERIODIC else unprocessed > 0

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        days=st.sampled_from([1, 2]),
        triggering=st.sampled_from(list(Triggering)),
        acquisition=st.sampled_from(list(AcquisitionMode)),
        rate=st.floats(0.0, 12.0),
        cloud_mean=st.floats(0.05, 0.95),
        accuracy_p=st.floats(0.2, 0.8),
    )
    def test_every_processed_scene_draws_from_its_own_streams(
        self, seed, days, triggering, acquisition, rate, cloud_mean, accuracy_p
    ):
        # Clouds and detection share one seed pass, and a scene with no event
        # present builds no detection stream: each processed scene must still
        # draw exactly what its own (label, scene id) streams give.
        periodic = triggering is Triggering.PERIODIC
        arch = make_archetype(mmu=1.0, acquisition=acquisition, triggering=triggering,
                              cycle=DAY if periodic else None)
        s = make_scenario(seed=seed, horizon=days * DAY, archetype=arch, rate=rate, cloud_mean=cloud_mean,
                          detection=DetectionSpec(accuracy_p=accuracy_p))
        trace = run(s)
        assert set(trace.detections) == {i for i, scene in trace.scenes.items() if periodic or scene.triggered}
        for scene_id, scene in trace.scenes.items():
            if scene_id not in trace.detections:
                assert scene.cloud_fraction is None
                continue
            assert scene.cloud_fraction == draw_cloud_fraction(s.cloud_model, rng_stream(seed, "clouds", scene_id))
            assert trace.detections[scene_id] == classify_scene(
                scene, trace.events_by_id, arch.mmu_ha, accuracy_p, rng_stream(seed, "detection", scene_id))

    def test_a_run_seeds_its_streams_in_two_passes(self, monkeypatch):
        passes, detectors = [], []
        seed_states, classify = engine._seed_states, onboard.classify_scene

        def counted_pass(master_seed, labels, entity_ids):
            passes.append((labels, len(entity_ids)))
            return seed_states(master_seed, labels, entity_ids)

        def counted_classify(scene, *args):
            detectors.append(scene.id)
            return classify(scene, *args)

        monkeypatch.setattr(engine, "_seed_states", counted_pass)
        monkeypatch.setattr(onboard, "classify_scene", counted_classify)
        arch = make_archetype(triggering=Triggering.PERIODIC, cycle=DAY)
        s = make_scenario(seed=3, archetype=arch, rate=2.0)
        trace = run(s)
        assert passes == [(("events",), len(s.aois)), (("clouds", "detection"), len(trace.scenes))]
        # Only a scene with an event present draws detections.
        assert detectors == [i for i, scene in trace.scenes.items() if scene.event_ids_present]
        assert 0 < len(detectors) < len(trace.scenes)
        assert all(trace.detections[i] == frozenset() for i in trace.scenes if i not in detectors)

    def test_on_demand_images_only_planned_windows(self):
        arch = make_archetype(acquisition=AcquisitionMode.ON_DEMAND)
        ev = FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        trace = run(make_scenario(seed=5, archetype=arch), injected_events=[ev])
        assert all(scene.triggered for scene in trace.scenes.values())
        assert len(trace.scenes) == len(trace.plan.assignments)

    def test_acquisitions_are_entries_of_the_systematic_order(self):
        # Three events in each AOI over the first day, so the planner assigns several windows.
        centers = [(42.0, 13.0), (44.5, 9.0)] * 3
        evs = [FireEvent(f"inj-{k}", GeoPoint(*c), 3600.0 * (k + 1), 50.0) for k, c in enumerate(centers)]
        for mode in AcquisitionMode:
            s = make_scenario(seed=5, archetype=make_archetype(acquisition=mode))
            trace = run(s, injected_events=evs)
            aoi_of = {r.id: r.aoi_id for r in trace.requests}
            assigned = {(a.satellite_id, aoi_of[a.request_id], a.window.start) for a in trace.plan.assignments}
            systematic = [(sat_id, aoi_id, w.start) for sat_id, aoi_id, w in
                          tasking.periodic_acquisitions(geometry_tables(s)[1])]
            scenes = [((sc.satellite_id, sc.aoi_id, sc.acquired), sc.triggered) for sc in trace.scenes.values()]
            if mode is AcquisitionMode.ON_DEMAND:
                assert len(assigned) == len(trace.plan.assignments) >= 3
                assert len({(sat_id, aoi_id) for sat_id, aoi_id, _ in assigned}) > 1
                assert scenes == [(key, True) for key in sorted(assigned, key=lambda k: (k[2], k[0], k[1]))]
            else:
                assert assigned and scenes == [(key, key in assigned) for key in systematic]

    def test_hybrid_event_gets_mask_delivery(self):
        ev = FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        trace = run(make_scenario(seed=5), injected_events=[ev])
        covering = [r for r in trace.marketplace if "inj-1" in r.event_ids]
        assert covering, "expected at least one delivered product covering the event"

    def test_disabled_processor_sends_its_scenes_to_ground(self):
        s = make_scenario(
            satellites=(make_satellite("sat-a", raan=0.0),
                        make_satellite("sat-b", raan=180.0, arg_lat=90.0, processor=make_processor(enabled=False))),
            aois=(make_aoi("aoi-a", 42.0, 13.0, radius=300.0), make_aoi("aoi-b", 44.5, 9.0, radius=300.0)),
            rate=4.0,
        )
        trace = run(s)
        by_sat = {"sat-a": [], "sat-b": []}
        for p in trace.products.values():
            by_sat[trace.scenes[p.scene_id].satellite_id].append(p)
        assert by_sat["sat-a"] and by_sat["sat-b"]
        for p in by_sat["sat-b"]:
            assert p.kind is ProductKind.RAW_SCENE
            assert p.created == trace.scenes[p.scene_id].acquired
        assert any(p.kind is ProductKind.THEMATIC_MASK for p in by_sat["sat-a"])

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
        total_moved = sum(r.bits_moved for r in trace.transfer_records)
        residual = sum(trace.residual_bits().values())
        assert total_moved + residual == total_generated

    @settings(max_examples=100, deadline=None, phases=NO_SHRINK)
    @given(
        seed=st.integers(0, 2**64 - 1),
        hours=st.integers(6, 36),
        location=st.sampled_from(list(ProcessingLocation)),
        triggering=st.sampled_from(list(Triggering)),
        event_rate=st.floats(0.0, 12.0),
        link_rates=st.lists(st.floats(5.0, 800.0), min_size=1, max_size=2),
    )
    def test_records_fit_their_link_and_conserve_bits(self, seed, hours, location, triggering, event_rate, link_rates):
        # Slow links leave products part-sent at the horizon, so records that bank
        # partial progress, and residual bits, come up in many examples.
        periodic = triggering is Triggering.PERIODIC
        arch = make_archetype(processing=location, triggering=triggering, cycle=3 * 3600.0 if periodic else None)
        stations = [make_station(f"gs-{i}", lat, lon, rate=r)
                    for i, ((lat, lon), r) in enumerate(zip([(40.6, 16.7), (60.0, 10.0)], link_rates))]
        s = make_scenario(seed=seed, horizon=hours * 3600.0, stations=stations, archetype=arch, rate=event_rate)
        trace = run(s)
        rate_bps = {stn.id: stn.xband_rate_mbit_s * 1e6 for stn in s.stations}
        moved = dict.fromkeys(trace.products, 0)
        for r in trace.transfer_records:
            moved[r.product_id] += r.bits_moved
            # ε: the scheduler's 1e-9 bit, and the bits of two units in the last place of the
            # end time, which a completing record's end is rounded to.
            eps = 1e-9 + 2 * rate_bps[r.station_id] * math.ulp(r.end)
            assert 0 < r.bits_moved <= math.floor(rate_bps[r.station_id] * (r.end - r.start) + eps)
        residual = trace.residual_bits()
        for pid, p in trace.products.items():
            assert moved[pid] + residual.get(pid, 0) == p.volume_bits
            assert (pid in trace.downlink_completions) == (moved[pid] == p.volume_bits)
        assert sum(moved.values()) + sum(residual.values()) == trace.generated_bits()


class TestStreamIsolation:
    def test_mode_toggle_leaves_common_randomness_intact(self):
        # With a nonzero cloud mean every processed scene draws from its cloud stream.
        s = make_scenario(seed=21, rate=1.0, cloud_mean=0.3)
        hybrid = run(with_processing(s, ProcessingLocation.HYBRID))
        raw = run(with_processing(s, ProcessingLocation.GROUND))
        assert any(0.0 < (scene.cloud_fraction or 0.0) < 1.0 for scene in hybrid.scenes.values())
        assert hybrid.scenes is not raw.scenes
        assert hybrid.fire_events == raw.fire_events
        assert hybrid.scenes == raw.scenes

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
        memo = {}
        run(s, memo=memo)
        _, geometry = memo["geometry"]
        for variant in (dataclasses.replace(s, seed=99), with_processing(s, ProcessingLocation.GROUND)):
            run(variant, memo=memo)
            assert memo["geometry"][1].tables is geometry.tables

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
        track = orbit._ground_vector

        def counted(elements, t):
            sizes.append(np.size(t))
            return track(elements, t)

        monkeypatch.setattr(orbit, "_ground_vector", counted)
        horizon = 2 * DAY + 5.0
        s = make_scenario(horizon=horizon)
        memo = {}
        run(s, memo=memo)
        # The 10 s grid: multiples of the step in [0, horizon), then the horizon.
        grid = len(np.arange(0.0, horizon, 10.0)) + 1
        blocks = -(-grid // orbit.LEVELS[0])
        pairs = len(s.satellites) * (len(s.stations) + len(s.aois))
        # Halving a 10 s bracket down to the bisection tolerance.
        steps = math.ceil(math.log2(10.0 / orbit.BISECTION_TOL_S))
        # No call samples the whole grid.  Each satellite's scan samples the
        # track once per level, at every first-level block first, and once at
        # its open samples; each bisection step samples it once for the
        # whole constellation.
        scan = len(orbit.LEVELS) + 1
        assert max(sizes) < grid
        assert sizes[: scan * len(s.satellites) : scan] == [blocks] * len(s.satellites)
        assert len(sizes) == scan * len(s.satellites) + steps
        assert sum(sizes) < 0.02 * pairs * grid
        first_calls = len(sizes)
        sizes.clear()
        run(dataclasses.replace(s, seed=1), memo=memo)
        run(with_processing(s, ProcessingLocation.GROUND), memo=memo)
        assert sizes == []
        # More AOIs, far apart, share each satellite's scan and the one bisection.
        far = (make_aoi("aoi-c", -33.9, 151.2), make_aoi("aoi-d", 64.1, -21.9), make_aoi("aoi-e", 1.3, 103.8))
        geometry_tables(dataclasses.replace(s, aois=s.aois + far))
        assert len(sizes) == first_calls

    def test_plain_runs_share_nothing(self, monkeypatch, tmp_path):
        # Without a memo every run searches the whole geometry, and no command
        # leaves anything behind for the next run.
        sizes = []
        track = orbit._ground_vector

        def counted(elements, t):
            sizes.append(np.size(t))
            return track(elements, t)

        monkeypatch.setattr(orbit, "_ground_vector", counted)
        s = get_preset("effis-like", horizon_s=DAY)
        run(s)
        search = len(sizes)
        assert search > 0
        run(s)
        assert len(sizes) == 2 * search
        # The runs of a sweep share one memo, so the sweep searches once.
        assert cli.main(["sweep", "--preset", "effis-like", "--runs", "2", "--duration", str(DAY),
                         "--out", str(tmp_path)]) == 0
        assert len(sizes) == 3 * search
        run(s)
        assert len(sizes) == 4 * search

    def test_second_run_derives_nothing_from_the_tables(self, monkeypatch):
        calls = Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(downlink, "exclusive_link_intervals")
        counted(tasking, "periodic_acquisitions")
        counted(tasking, "opportunities")
        s = make_scenario(horizon=DAY)
        memo = {}
        run(s, memo=memo)
        assert calls == {"exclusive_link_intervals": len(s.satellites), "periodic_acquisitions": 1,
                         "opportunities": 1}
        calls.clear()
        run(dataclasses.replace(s, seed=1), memo=memo)
        run(with_processing(s, ProcessingLocation.GROUND), memo=memo)
        assert calls == {}


# Each axis a memo key must tell apart, with two values: a variant of the
# small scenario takes one value per axis.
MEMO_AXES = {
    "seed": (0, 7),
    "location": (ProcessingLocation.HYBRID, ProcessingLocation.GROUND),
    "gsd_m": (3.0, 6.0),
    "xband_rate": (400.0, 40.0),
    "processor": (True, False),
    "horizon": (DAY, 0.75 * DAY),
    "injected": (False, True),
}


def memo_variant(values):
    """The scenario and injected events of one choice of ``MEMO_AXES`` values."""
    v = {axis: options[i] for (axis, options), i in zip(MEMO_AXES.items(), values)}
    processor = make_processor(enabled=v["processor"])
    satellites = (make_satellite("sat-a", gsd=v["gsd_m"], processor=processor),
                  make_satellite("sat-b", raan=180.0, arg_lat=90.0, gsd=v["gsd_m"], processor=processor))
    aois = (make_aoi("aoi-a", 42.0, 13.0, radius=300.0), make_aoi("aoi-b", 44.5, 9.0, radius=300.0))
    s = make_scenario(seed=v["seed"], horizon=v["horizon"], satellites=satellites,
                      stations=(make_station(rate=v["xband_rate"]),), aois=aois,
                      archetype=make_archetype(processing=v["location"]), rate=2.0)
    injected = [FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)] if v["injected"] else None
    return s, injected


class TestMemo:
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    @given(
        first=st.tuples(*(st.integers(0, 1) for _ in MEMO_AXES)),
        flips=st.lists(st.sets(st.integers(0, len(MEMO_AXES) - 1), max_size=2), min_size=1, max_size=3),
    )
    def test_key_is_complete(self, first, flips):
        # Each variant differs from the one before it in at most two axes, so
        # a key that missed an axis would hand a run its predecessor's result.
        variants = [list(first)]
        for flip in flips:
            variants.append([1 - x if i in flip else x for i, x in enumerate(variants[-1])])
        memo = {}
        for values in variants:
            s, injected = memo_variant(values)
            assert run(s, injected, memo=memo) == run(s, injected)
