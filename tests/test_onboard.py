import math

import pytest

from eochain.downlink import DOWNLINK_PRIORITY
from eochain.engine import rng_stream
from eochain.events import aoi_membership
from eochain.model import (
    CloudModel,
    FireEvent,
    GeoPoint,
    PrecisionMode,
    ProcessingLocation,
    ProductKind,
    scene_volume,
)
from eochain.onboard import (
    Scene,
    acquire_scene,
    build_products,
    classify_scene,
    draw_cloud_fraction,
    pipeline_latency,
)
from eochain.orbit import Window

from conftest import make_aoi, make_processor, make_satellite

CLEAR = CloudModel(mean_fraction=0.0, onboard_threshold=0.5)


def make_scene(area_km2=900.0, gsd=3.0, bands=4, bit_depth=12, cloud=0.0,
               present=frozenset(), acquired=1000.0, scene_id="scn-test"):
    return Scene(
        id=scene_id,
        satellite_id="sat-a",
        aoi_id="aoi-a",
        acquired=acquired,
        triggered=False,
        area_km2=area_km2,
        cloud_fraction=cloud,
        event_ids_present=present,
        gsd_m=gsd,
        bands=bands,
        bit_depth=bit_depth,
    )


def make_events(*specs):
    """specs: (id, area_ha) pairs placed at the test AOI center."""
    return {eid: FireEvent(eid, GeoPoint(42.0, 13.0), 0.0, area) for eid, area in specs}


class TestAcquireScene:
    AOI = make_aoi("aoi-a", 42.0, 13.0, radius=100.0)
    SAT = make_satellite()
    WINDOW = Window(5000.0, 5400.0)

    def events(self, *starts):
        return [
            FireEvent(f"ev-{i}", GeoPoint(42.0, 13.0), start, 10.0)
            for i, start in enumerate(starts)
        ]

    def acquire(self, evs, cloud_model=CLEAR, seed=0):
        """Scene of the test AOI, given all events of the run in (start, id) order."""
        members = aoi_membership(evs, [self.AOI])[0][self.AOI.id]
        return acquire_scene("s1", self.SAT, self.AOI, self.WINDOW, False, members,
                             draw_cloud_fraction(cloud_model, rng_stream(seed, "clouds", "s1")))

    def test_alignment_and_area(self):
        scene = self.acquire([])
        assert scene.acquired == 5000.0
        assert scene.area_km2 == pytest.approx(math.pi * 100.0**2)
        assert scene.gsd_m == self.SAT.gsd_m

    def test_future_event_excluded(self):
        scene = self.acquire(self.events(4000.0, 6000.0))
        assert scene.event_ids_present == frozenset({"ev-0"})

    def test_event_starting_at_acquisition_present(self):
        scene = self.acquire(self.events(0.0, 5000.0, 5000.0, 5000.5))
        assert scene.event_ids_present == frozenset({"ev-0", "ev-1", "ev-2"})

    def test_event_outside_aoi_excluded(self):
        far = FireEvent("far", GeoPoint(10.0, 100.0), 0.0, 10.0)
        scene = self.acquire([far])
        assert scene.event_ids_present == frozenset()

    def test_zero_mean_cloud_is_always_clear(self):
        for k in range(20):
            assert draw_cloud_fraction(CLEAR, rng_stream(k, "clouds", "x")) == 0.0

    def test_cloud_mean_calibration(self):
        model = CloudModel(mean_fraction=0.3, onboard_threshold=0.5)
        draws = [
            draw_cloud_fraction(model, rng_stream(k, "clouds", "x")) for k in range(4000)
        ]
        assert sum(draws) / len(draws) == pytest.approx(0.3, abs=0.02)

    def test_deterministic(self):
        evs = self.events(0.0)
        a = self.acquire(evs, CloudModel(0.4, 0.5), seed=7)
        b = self.acquire(evs, CloudModel(0.4, 0.5), seed=7)
        assert a == b


class TestPipelineLatency:
    def test_reference_throughput(self):
        # 900 km2 at 3 m is exactly 1e8 pixels; 100 Mpx/s per stage -> 2 s.
        scene = make_scene(area_km2=900.0, gsd=3.0)
        assert pipeline_latency(scene, make_processor()) == pytest.approx(2.0)

    def test_int8_doubles_inference(self):
        scene = make_scene(area_km2=900.0, gsd=3.0)
        proc = make_processor(mode=PrecisionMode.INT8)
        assert pipeline_latency(scene, proc) == pytest.approx(1.5)

    def test_fast_processor_limit(self):
        scene = make_scene()
        fast = make_processor(pre=1e9, inf=1e9)
        assert pipeline_latency(scene, fast) < 1e-4

    def test_halving_inference_rate_increases_latency(self):
        scene = make_scene()
        base = pipeline_latency(scene, make_processor(inf=100.0))
        slower = pipeline_latency(scene, make_processor(inf=50.0))
        assert slower > base


class TestClassifyScene:
    def test_certain_detection(self):
        events = make_events(("ev-1", 5.0))
        scene = make_scene(present=frozenset(events))
        out = classify_scene(scene, events, 3.0, 1.0, rng_stream(0, "detection", "s"))
        assert out == frozenset({"ev-1"})

    def test_sub_mmu_event_never_detected(self):
        events = make_events(("small", 2.0))
        scene = make_scene(present=frozenset(events))
        for seed in range(50):
            out = classify_scene(scene, events, 3.0, 1.0, rng_stream(seed, "detection", "s"))
            assert out == frozenset()

    def test_detection_frequency_calibrated(self):
        events = make_events(("ev-1", 9.0))
        scene = make_scene(present=frozenset(events))
        hits = sum(
            "ev-1" in classify_scene(scene, events, 3.0, 0.95, rng_stream(seed, "detection", "s"))
            for seed in range(2000)
        )
        se = math.sqrt(0.95 * 0.05 / 2000)
        assert abs(hits / 2000 - 0.95) < 4 * se

    def test_detected_subset_antitone_in_mmu(self):
        events = make_events(("a", 2.0), ("b", 4.0), ("c", 8.0), ("d", 15.0), ("e", 40.0))
        scene = make_scene(present=frozenset(events))
        for seed in range(50):
            coarse = classify_scene(scene, events, 10.0, 0.7, rng_stream(seed, "detection", "s"))
            fine = classify_scene(scene, events, 3.0, 0.7, rng_stream(seed, "detection", "s"))
            assert coarse <= fine

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_two_uniforms_per_present_event(self, n):
        # The detector reads the first of each event's pair of uniforms, in
        # id order, and leaves the stream after the last pair.
        events = make_events(*((f"ev-{k}", 5.0) for k in range(n)))
        scene = make_scene(present=frozenset(events))
        rng = rng_stream(3, "detection", "s")
        out = classify_scene(scene, events, 3.0, 0.5, rng)
        reference = rng_stream(3, "detection", "s")
        firsts = {eid: reference.uniform(size=2)[0] for eid in sorted(events)}
        assert out == {eid for eid, u in firsts.items() if u < 0.5}
        assert rng.uniform() == reference.uniform()


class TestBuildProducts:
    def test_raw_only_single_product(self):
        events = make_events(("ev-1", 5.0))
        scene = make_scene(present=frozenset(events))
        products = build_products(scene, frozenset({"ev-1"}), events,
                                  ProcessingLocation.GROUND, CLEAR, make_processor(), 10.0, 2.0)
        assert len(products) == 1
        raw = products[0]
        assert raw.kind is ProductKind.RAW_SCENE
        assert raw.volume_bits == scene_volume(scene.area_km2, 3.0, 4, 12)
        assert raw.created == scene.acquired
        assert DOWNLINK_PRIORITY[raw.kind] == 2

    def test_hybrid_mask_plus_chip(self):
        events = make_events(("ev-1", 5.0))
        scene = make_scene(present=frozenset(events))
        products = build_products(scene, frozenset({"ev-1"}), events,
                                  ProcessingLocation.HYBRID, CLEAR, make_processor(), 10.0, 2.0)
        assert [p.kind for p in products] == [ProductKind.THEMATIC_MASK, ProductKind.ROI_CHIP]
        mask, chip = products
        assert DOWNLINK_PRIORITY[mask.kind] == 0 and DOWNLINK_PRIORITY[chip.kind] == 1
        done = scene.acquired + pipeline_latency(scene, make_processor())
        assert mask.created == pytest.approx(done)
        assert chip.created == pytest.approx(done)
        # Chip covers the event area with a 2x linear margin at full radiometry.
        assert chip.volume_bits == scene_volume(5.0 * 0.01 * 4.0, 3.0, 4, 12)
        assert chip.event_ids == frozenset({"ev-1"})

    def test_cloud_deferral_falls_back_to_raw(self):
        events = make_events(("ev-1", 5.0))
        scene = make_scene(present=frozenset(events), cloud=0.9)
        products = build_products(scene, frozenset({"ev-1"}), events,
                                  ProcessingLocation.HYBRID,
                                  CloudModel(mean_fraction=0.5, onboard_threshold=0.5),
                                  make_processor(), 10.0, 2.0)
        assert len(products) == 1
        assert products[0].kind is ProductKind.RAW_SCENE

    def test_volume_ratio_against_model(self):
        scene = make_scene()
        raw = build_products(scene, frozenset(), {},
                             ProcessingLocation.GROUND, CLEAR, make_processor(), 10.0, 2.0)
        hybrid = build_products(scene, frozenset(), {},
                                ProcessingLocation.HYBRID, CLEAR, make_processor(), 10.0, 2.0)
        ratio = raw[0].volume_bits / hybrid[0].volume_bits
        assert 480.0 * (1 - 1e-6) <= ratio <= 480.0

    def test_hybrid_volume_below_raw_for_small_chips(self):
        events = make_events(*[(f"ev-{k}", 20.0) for k in range(5)])
        scene = make_scene(present=frozenset(events))
        hybrid = build_products(scene, frozenset(events), events,
                                ProcessingLocation.HYBRID, CLEAR, make_processor(), 10.0, 2.0)
        raw = scene_volume(scene.area_km2, scene.gsd_m, scene.bands, scene.bit_depth)
        chip_area = sum(e.area_ha * 0.01 * 4.0 for e in events.values())
        assert chip_area < scene.area_km2 * (1.0 - 1.0 / (4 * 12 * 10.0))
        assert sum(p.volume_bits for p in hybrid) <= raw

    def test_completion_ordering(self):
        events = make_events(("ev-1", 5.0))
        scene = make_scene(present=frozenset(events))
        hybrid = build_products(scene, frozenset({"ev-1"}), events,
                                ProcessingLocation.HYBRID, CLEAR, make_processor(), 10.0, 2.0)
        for p in hybrid:
            assert p.created >= scene.acquired + pipeline_latency(scene, make_processor()) - 1e-9
