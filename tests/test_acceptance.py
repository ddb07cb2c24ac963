"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Runtime budgets are asserted where the criterion states one.
"""

import dataclasses
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from eochain import metrics
from eochain.cli import main as cli_main
from eochain.engine import rng_stream, rng_streams, run
from eochain.events import generate_fire_events, read_event_trace
from eochain.model import (
    CloudModel,
    EventModel,
    FireEvent,
    GeoPoint,
    ProcessingLocation,
    Triggering,
    mask_volume,
    scene_volume,
)
from eochain.onboard import classify_scene
from eochain.orbit import contact_windows, elevation_angle, orbital_period, subsatellite_track
from eochain.presets import effis_like, iride_heo

from conftest import (
    make_aoi,
    make_archetype,
    make_satellite,
    make_scenario,
    make_station,
)
from test_onboard import make_scene

DAY = 86400.0
TRACE_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "acceptance_trace.csv"


def _ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE PASS criterion {n}: {text}")


def test_criterion_1_orbit_oracle():
    t0 = time.monotonic()
    assert abs(orbital_period(550.0) - 5730.0) <= 1.0

    rng = random.Random(1)
    total = 0
    for _ in range(1000):
        sat = make_satellite(
            altitude=rng.uniform(300.0, 2000.0),
            inclination=rng.uniform(0.0, 180.0),
            raan=rng.uniform(0.0, 360.0),
            arg_lat=rng.uniform(0.0, 360.0),
        )
        times = np.asarray([rng.uniform(0.0, 30 * DAY) for _ in range(1000)])
        lat, _ = subsatellite_track(sat, times)
        bound = min(sat.inclination_deg, 180.0 - sat.inclination_deg)
        assert np.all(np.abs(lat) <= bound + 1e-9)
        total += len(times)
    elapsed = time.monotonic() - t0
    assert total == 1_000_000
    assert elapsed < 5.0
    _ok(1, f"period oracle and latitude bound over 1e6 samples in {elapsed:.2f}s")


def test_criterion_2_window_correctness():
    t0 = time.monotonic()
    rng = random.Random(2)
    checked_boundaries = 0
    for k in range(200):
        sat = make_satellite(
            sid=f"sat-{k}",
            altitude=rng.uniform(350.0, 1200.0),
            inclination=rng.uniform(10.0, 170.0),
            raan=rng.uniform(0.0, 360.0),
            arg_lat=rng.uniform(0.0, 360.0),
        )
        mask = rng.uniform(1.0, 15.0)
        station = make_station(
            sid=f"gs-{k}",
            lat=rng.uniform(-75.0, 75.0),
            lon=rng.uniform(-180.0, 180.0),
            min_el=mask,
        )
        windows = contact_windows(sat, station, (0.0, DAY))
        for a, b in zip(windows, windows[1:]):
            assert a.end < b.start  # disjoint and sorted
        for w in windows:
            assert 0.0 <= w.start < w.end <= DAY
            for t in (w.start, w.end):
                if t in (0.0, DAY):
                    continue  # clamped at the horizon, not an elevation crossing
                assert abs(elevation_angle(sat, station, t) - mask) < 0.05
                checked_boundaries += 1
        # Shrinking the mask by one degree yields supersets.
        loose = dataclasses.replace(station, min_elevation_deg=mask - 1.0)
        loose_windows = contact_windows(sat, loose, (0.0, DAY))
        for w in windows:
            assert any(
                lw.start <= w.start + 1e-6 and w.end <= lw.end + 1e-6 for lw in loose_windows
            )
    elapsed = time.monotonic() - t0
    assert checked_boundaries > 100
    assert elapsed < 30.0
    _ok(2, f"{checked_boundaries} window boundaries within 0.05 deg in {elapsed:.1f}s")


def _random_scenario(seed: int):
    rng = random.Random(seed)
    n_sats = rng.randint(1, 2)
    sats = tuple(
        make_satellite(
            sid=f"sat-{k}",
            altitude=rng.uniform(400.0, 900.0),
            inclination=rng.uniform(30.0, 110.0),
            raan=rng.uniform(0.0, 360.0),
            arg_lat=rng.uniform(0.0, 360.0),
            swath=rng.uniform(30.0, 120.0),
        )
        for k in range(n_sats)
    )
    stations = tuple(
        make_station(sid=f"gs-{k}", lat=rng.uniform(-60, 60), lon=rng.uniform(-180, 180),
                     rate=rng.uniform(50.0, 800.0))
        for k in range(rng.randint(1, 2))
    )
    aois = tuple(
        make_aoi(f"aoi-{k}", rng.uniform(-55, 55), rng.uniform(-180, 180),
                 radius=rng.uniform(80.0, 250.0))
        for k in range(rng.randint(2, 3))
    )
    if rng.random() < 0.5:
        archetype = make_archetype()
    else:
        archetype = make_archetype(
            processing=ProcessingLocation.GROUND, triggering=Triggering.PERIODIC, cycle=DAY
        )
    return make_scenario(
        seed=seed,
        horizon=7 * DAY,
        satellites=sats,
        stations=stations,
        aois=aois,
        archetype=archetype,
        rate=rng.uniform(0.3, 1.5),
        cloud_mean=rng.uniform(0.0, 0.4),
    )


def test_criterion_3_conservation():
    t0 = time.monotonic()
    for seed in range(100):
        scenario = _random_scenario(seed)
        trace = run(scenario)
        rate_bps = {stn.id: stn.xband_rate_mbit_s * 1e6 for stn in scenario.stations}
        moved = {pid: 0 for pid in trace.products}
        for r in trace.transfer_records:
            moved[r.product_id] += r.bits_moved
            # Each record's bits against its station's rate over its span: a record that leaves its
            # product incomplete moves every whole bit of the span, and a completing one no more.
            capacity = rate_bps[r.station_id] * (r.end - r.start)
            if moved[r.product_id] < trace.products[r.product_id].volume_bits:
                assert r.bits_moved == math.floor(capacity + 1e-9)
            else:
                assert r.bits_moved <= capacity + 1
        residual = trace.residual_bits()
        generated = delivered = partial = never = 0
        for pid, p in trace.products.items():
            assert 0 <= moved[pid] <= p.volume_bits
            assert (pid in trace.downlink_completions) == (moved[pid] == p.volume_bits)
            assert residual.get(pid, 0) == p.volume_bits - moved[pid]  # per product, exact
            generated += p.volume_bits
            if pid in trace.downlink_completions:
                delivered += p.volume_bits
            elif moved[pid] > 0:
                partial += moved[pid]
                never += p.volume_bits - moved[pid]
            else:
                never += p.volume_bits
        assert generated == delivered + partial + never  # aggregate, exact
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _ok(3, f"bit conservation exact over 100 seeded 7-day scenarios in {elapsed:.1f}s")


def _tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_criterion_4_cli_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli_main(["run", "--preset", "iride-heo", "--seed", "42", "--out", str(out)]) == 0
    assert _tree_bytes(out_a) == _tree_bytes(out_b)

    cmp_a, cmp_b = tmp_path / "ca", tmp_path / "cb"
    for out in (cmp_a, cmp_b):
        assert cli_main(["compare", "--preset", "iride-heo", "--seed", "42", "--out", str(out)]) == 0
    assert _tree_bytes(cmp_a) == _tree_bytes(cmp_b)
    _ok(4, "run and compare outputs byte-identical across repeated invocations")


@pytest.fixture(scope="module")
def table_comparison():
    injected = read_event_trace(TRACE_PATH)
    assert len(injected) == 20
    return metrics.compare_architectures(
        iride_heo(seed=42),
        injected_events=injected,
        baseline_scenario=effis_like(seed=42),
    )


def test_criterion_5_timeliness_class_ordering(table_comparison):
    t0 = time.monotonic()
    s = table_comparison.summary
    hybrid_median = s["ttfi_median_hybrid_s"]
    baseline_median = s["ttfi_median_baseline_s"]
    assert hybrid_median is not None and 60.0 <= hybrid_median <= 21600.0
    assert baseline_median is not None and baseline_median >= 86400.0
    fraction = s["hybrid_faster_fraction"]
    assert s["comparable_count"] == 20
    assert fraction >= 0.9
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok(
        5,
        f"hybrid median {hybrid_median:.0f}s in [60, 21600], baseline median "
        f"{baseline_median:.0f}s >= 86400, hybrid faster for {fraction:.0%} of events",
    )


def test_criterion_6_volume_reduction():
    injected = read_event_trace(TRACE_PATH)
    clear = dataclasses.replace(
        iride_heo(seed=42), cloud_model=CloudModel(mean_fraction=0.0, onboard_threshold=0.5)
    )
    report = metrics.compare_architectures(clear, injected_events=injected)
    ratio = report.summary["transfer_ratio"]
    assert ratio is not None and ratio <= 0.1

    # Mask-only arithmetic: 4 bands x 12 bit x 10:1 compression = 480.
    area = clear.aois[0].area_km2
    model_ratio = scene_volume(area, 3.0, 4, 12) / mask_volume(area, 3.0, 10.0)
    assert 480.0 * (1 - 1e-9) <= model_ratio <= 480.0
    _ok(6, f"downlinked-bits ratio {ratio:.4f} <= 0.1; mask:raw = 1/{model_ratio:.4f}")


def test_criterion_7_mmu_antitonicity():
    aois = (make_aoi("aoi-a", 42.0, 13.0, 150.0),)
    model = EventModel(rate_per_aoi_per_day=2.0, area_log_mean=math.log(5.0), area_log_sd=1.0)
    checked = 0
    for seed in range(50):
        events = generate_fire_events(
            model, aois, 7 * DAY, rng_streams(seed, "events", [aoi.id for aoi in aois])
        )
        if not events:
            continue
        events_by_id = {e.id: e for e in events}
        scene = make_scene(present=frozenset(events_by_id))
        coarse = classify_scene(scene, events_by_id, 10.0, 0.95, rng_stream(seed, "detection", scene.id))
        fine = classify_scene(scene, events_by_id, 3.0, 0.95, rng_stream(seed, "detection", scene.id))
        assert coarse <= fine
        checked += 1
    assert checked >= 45
    _ok(7, f"detected set at 10 ha MMU is a subset of 3 ha MMU over {checked} seeds")


def test_criterion_8_statistical_calibration():
    # Detection frequency at p = 0.95 over 1e4 seeded trials.
    events_by_id = {"ev": FireEvent("ev", GeoPoint(42.0, 13.0), 0.0, 9.0)}
    scene = make_scene(present=frozenset(events_by_id))
    trials = 10_000
    hits = sum(
        "ev"
        in classify_scene(scene, events_by_id, 3.0, 0.95, rng_stream(seed, "detection", scene.id))
        for seed in range(trials)
    )
    freq = hits / trials
    se = math.sqrt(0.95 * 0.05 / trials)
    assert abs(freq - 0.95) <= 3 * se

    # Poisson event-count mean over 1000 seeds.
    aois = (make_aoi("aoi-a"), make_aoi("aoi-b", 44.0, 9.0), make_aoi("aoi-c", 38.5, 16.0))
    model = EventModel(rate_per_aoi_per_day=0.5, area_log_mean=math.log(5.0), area_log_sd=1.0)
    runs = 1000
    counts = [
        len(generate_fire_events(model, aois, 7 * DAY,
                                 rng_streams(seed, "events", [aoi.id for aoi in aois])))
        for seed in range(runs)
    ]
    expected = 0.5 * len(aois) * 7
    se_count = math.sqrt(expected / runs)
    assert abs(np.mean(counts) - expected) <= 3 * se_count
    _ok(
        8,
        f"detection frequency {freq:.4f} within 0.95 +/- 3se; "
        f"event-count mean {np.mean(counts):.2f} within {expected} +/- 3se",
    )


def test_criterion_9_stream_isolation(table_comparison):
    # Each arm computes its observation afresh, so the streams, not a shared memo, must agree.
    scenario = iride_heo(seed=42, horizon_s=2 * DAY)
    hybrid = run(scenario)
    raw = run(
        dataclasses.replace(
            scenario,
            archetype=dataclasses.replace(
                scenario.archetype, processing_location=ProcessingLocation.GROUND
            ),
        )
    )
    assert hybrid.scenes is not raw.scenes
    assert hybrid.fire_events == raw.fire_events
    # A scene carries its acquisition (satellite, AOI, time, trigger) and its cloud draw.
    assert hybrid.scenes == raw.scenes
    _ok(9, "architecture toggle leaves fire events, acquisitions and clouds bit-identical")
