import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eochain.engine import _ground_truth, rng_streams
from eochain.events import (
    _destination,
    aoi_membership,
    generate_fire_events,
    is_detectable,
    monitoring_detection_time,
    read_event_trace,
    write_event_trace,
)
from eochain.model import EventModel, FireEvent, GeoPoint, ValidationError, arc_km, sphere_terms
from eochain.onboard import acquire_scene
from eochain.orbit import Window

from conftest import NO_SHRINK, make_aoi, make_satellite, make_scenario

DAY = 86400.0


def streams(seed):
    return rng_streams(seed, "events", [aoi.id for aoi in AOIS])


MODEL = EventModel(rate_per_aoi_per_day=1.0, area_log_mean=math.log(5.0), area_log_sd=1.0)
AOIS = (make_aoi("aoi-a", 42.0, 13.0, 150.0), make_aoi("aoi-b", 44.0, 9.0, 120.0))


class TestAoiMembership:
    EQ_AOI = make_aoi("eq-aoi", 0.0, 30.0, radius=100.0)

    def home(self, point, aois):
        return aoi_membership([FireEvent("ev", point, 0.0, 5.0)], aois)[1]["ev"]

    def test_inside(self):
        assert self.home(GeoPoint(0.0, 30.2), [self.EQ_AOI]) == "eq-aoi"

    def test_outside(self):
        assert self.home(GeoPoint(40.0, 30.0), [self.EQ_AOI]) is None

    def test_nearest_center_wins(self):
        near = make_aoi("near", 0.0, 30.0, radius=150.0)
        far = make_aoi("far", 1.0, 30.0, radius=300.0)
        assert self.home(GeoPoint(0.0, 30.1), [far, near]) == "near"

    def test_tie_broken_by_id(self):
        twins = [make_aoi(aid, 0.0, 30.0, radius=100.0) for aid in ("twin-b", "twin-a", "twin-c")]
        assert self.home(GeoPoint(0.0, 30.1), twins) == "twin-a"

    def test_members_of_every_containing_disc_in_given_order(self):
        wide = make_aoi("wide", 0.0, 31.0, radius=300.0)
        evs = [FireEvent(f"ev-{k}", GeoPoint(0.0, 30.0 + k), 10.0 * k, 5.0) for k in range(5)]
        members, home = aoi_membership(evs, [self.EQ_AOI, wide])
        assert [e.id for e in members["eq-aoi"]] == ["ev-0"]
        assert [e.id for e in members["wide"]] == ["ev-0", "ev-1", "ev-2", "ev-3"]
        assert home == {"ev-0": "eq-aoi", "ev-1": "wide", "ev-2": "wide", "ev-3": "wide", "ev-4": None}


# Overlapping discs around one point; a repeated center gives exact ties.
CENTERS = [GeoPoint(42.0, 13.0), GeoPoint(42.5, 13.5), GeoPoint(41.5, 12.0), GeoPoint(42.0, 14.5)]
# Acquisition times; events start on them as well as between them.
ACQUIRED = [0.0, 600.0, 1800.0, 3600.0]


@st.composite
def membership_cases(draw):
    n_aois = draw(st.integers(1, 4))
    aois = [
        make_aoi(f"aoi-{k}", c.lat, c.lon, draw(st.sampled_from([40.0, 90.0, 150.0, 250.0])))
        for k, c in enumerate(draw(st.lists(st.sampled_from(CENTERS), min_size=n_aois, max_size=n_aois)))
    ]
    events = []
    for j in range(draw(st.integers(0, 25))):
        aoi = draw(st.sampled_from(aois))
        bearing = draw(st.floats(0.0, 2.0 * math.pi))
        # Next to a disc edge half of the time, anywhere near the discs otherwise.
        if draw(st.booleans()):
            dist = aoi.radius_km * (1.0 + draw(st.sampled_from([-1e-9, -1e-12, 0.0, 1e-12, 1e-9])))
        else:
            dist = draw(st.floats(0.0, 1.5 * aoi.radius_km))
        start = draw(st.sampled_from(ACQUIRED) | st.floats(0.0, 3600.0))
        events.append(FireEvent(f"ev-{j:02d}", _destination(aoi.center, bearing, dist), start, 5.0))
    return aois, events


class TestMembershipMatchesBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(case=membership_cases())
    def test_present_sets_home_aois_and_dropped_ids(self, case):
        aois, events = case
        scenario = make_scenario(horizon=DAY, aois=aois)
        fire_events, members, home, dropped, _ = _ground_truth(scenario, events)

        def distance(e, aoi):
            return arc_km(sphere_terms(e.location), sphere_terms(aoi.center))

        def inside(e, aoi):
            return distance(e, aoi) <= aoi.radius_km

        sat = make_satellite()
        for aoi in aois:
            for t in ACQUIRED:
                scene = acquire_scene("s", sat, aoi, Window(t, t + 60.0), False, members[aoi.id], None)
                expected = {e.id for e in events if e.start <= t and inside(e, aoi)}
                assert scene.event_ids_present == expected
        for e in events:
            containing = [(distance(e, a), a.id) for a in aois if inside(e, a)]
            assert home[e.id] == (min(containing)[1] if containing else None)
        assert dropped == tuple(e.id for e in fire_events if not any(inside(e, a) for a in aois))


class TestGeneration:
    def test_zero_rate_gives_no_events(self):
        model = EventModel(rate_per_aoi_per_day=0.0, area_log_mean=1.0, area_log_sd=1.0)
        assert generate_fire_events(model, AOIS, 7 * DAY, streams(0)) == []

    def test_same_seed_same_events(self):
        a = generate_fire_events(MODEL, AOIS, 7 * DAY, streams(123))
        b = generate_fire_events(MODEL, AOIS, 7 * DAY, streams(123))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_fire_events(MODEL, AOIS, 7 * DAY, streams(1))
        b = generate_fire_events(MODEL, AOIS, 7 * DAY, streams(2))
        assert a != b

    def test_sorted_by_start(self):
        evs = generate_fire_events(MODEL, AOIS, 7 * DAY, streams(5))
        starts = [e.start for e in evs]
        assert starts == sorted(starts)

    def test_events_inside_their_aoi(self):
        aois_by_prefix = {a.id: a for a in AOIS}
        for seed in range(5):
            for e in generate_fire_events(MODEL, AOIS, 7 * DAY, streams(seed)):
                aoi = aois_by_prefix[e.id.split("-", 1)[1].rsplit("-", 1)[0]]
                assert arc_km(sphere_terms(e.location), sphere_terms(aoi.center)) <= aoi.radius_km + 1e-6

    def test_events_within_horizon_and_positive_area(self):
        for seed in range(5):
            for e in generate_fire_events(MODEL, AOIS, 3 * DAY, streams(seed)):
                assert 0.0 <= e.start < 3 * DAY
                assert e.area_ha > 0

    def test_mean_count_tracks_rate(self):
        # Loose statistical check; the calibrated one lives in acceptance.
        expected = MODEL.rate_per_aoi_per_day * len(AOIS) * 7
        counts = [
            len(generate_fire_events(MODEL, AOIS, 7 * DAY, streams(seed)))
            for seed in range(300)
        ]
        se = math.sqrt(expected / len(counts))
        assert abs(np.mean(counts) - expected) < 4 * se


class TestMonitoring:
    def test_zero_delay(self):
        e = FireEvent("f", GeoPoint(42.0, 13.0), 1000.0, 5.0)
        assert monitoring_detection_time(e, 0.0) == 1000.0

    def test_fixed_delay(self):
        e = FireEvent("f", GeoPoint(42.0, 13.0), 1000.0, 5.0)
        assert monitoring_detection_time(e, 900.0) == 1900.0

    def test_ordering_preserved(self):
        early = FireEvent("a", GeoPoint(42.0, 13.0), 100.0, 5.0)
        late = FireEvent("b", GeoPoint(42.0, 13.0), 200.0, 5.0)
        assert monitoring_detection_time(early, 600.0) < monitoring_detection_time(late, 600.0)


class TestDetectability:
    def test_mmu_is_inclusive(self):
        assert is_detectable(3.0, 3.0)

    def test_below_mmu(self):
        assert not is_detectable(2.9, 3.0)

    def test_mmu_sensitivity(self):
        # The same 5 ha scar maps at a 3 ha unit but not at a 10 ha one.
        assert is_detectable(5.0, 3.0)
        assert not is_detectable(5.0, 10.0)

    def test_antitone_in_mmu(self):
        for area in (1.0, 3.0, 5.0, 9.0, 20.0):
            if is_detectable(area, 10.0):
                assert is_detectable(area, 3.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            is_detectable(0.0, 3.0)
        with pytest.raises(ValidationError):
            is_detectable(3.0, 0.0)


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        events = generate_fire_events(MODEL, AOIS, 7 * DAY, streams(9))
        path = tmp_path / "trace.csv"
        write_event_trace(path, events)
        loaded = read_event_trace(path)
        assert len(loaded) == len(events)
        for a, b in zip(events, loaded):
            assert a.id == b.id
            assert a.start == pytest.approx(b.start, abs=1e-3)
            assert a.area_ha == pytest.approx(b.area_ha, rel=1e-4)
            assert a.location.lat == pytest.approx(b.location.lat, abs=1e-5)

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(ids=st.lists(st.text(max_size=6) | st.sampled_from([",", '"', "\r", "\n", 'a,"b"\r\n', "é"]),
                        min_size=1, max_size=7),
           n=st.sampled_from([0, 1, 255, 256, 257, 600]))
    def test_odd_ids_equal_csv_writer(self, tmp_path_factory, ids, n):
        events = [FireEvent(ids[i % len(ids)] + str(i), GeoPoint(-89.5 + i / 7, 179.9 - i / 3), i * 3.7, 1.0 + i / 9)
                  for i in range(n)]
        path = tmp_path_factory.mktemp("trace") / "events.csv"
        # A generator: the writer takes any iterable of events.
        write_event_trace(path, (e for e in events))
        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        w.writerow(["id", "lat", "lon", "start_s", "area_ha"])
        for e in events:
            w.writerow([e.id, f"{e.location.lat:.6f}", f"{e.location.lon:.6f}", f"{e.start:.3f}", f"{e.area_ha:.4f}"])
        assert path.read_bytes() == expected.getvalue().encode()
        assert [e.id for e in read_event_trace(path)] == [e.id for e in sorted(events, key=lambda e: (e.start, e.id))]

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,lat,lon\nx,1,2\n")
        with pytest.raises(ValidationError):
            read_event_trace(path)
