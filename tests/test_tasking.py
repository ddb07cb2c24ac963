import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eochain.engine import geometry_tables
from eochain.events import aoi_membership, monitoring_detection_time
from eochain.model import FireEvent, GeoPoint, Triggering
from eochain.orbit import Window, access_windows
from eochain.tasking import (
    Assignment,
    ObservationRequest,
    TaskingPlan,
    build_requests,
    opportunities,
    periodic_acquisitions,
    plan,
)

from conftest import make_aoi, make_archetype, make_satellite, make_scenario, make_station

DAY = 86400.0

# Equatorial construction with known window times: the ground track laps the
# equator every ~6138 s; the AOI sits 30 deg ahead and the telecommand
# station 30 deg behind, so the first reachable access follows the first
# full contact.
EQ_SAT = make_satellite(sid="sat-a", inclination=0.0, raan=0.0, arg_lat=0.0, swath=40.0)
EQ_AOI = make_aoi("eq-aoi", 0.0, 30.0, radius=100.0)
EQ_STATION = make_station(sid="gs-eq", lat=0.0, lon=-30.0)


def eq_event(eid="ev-1", start=0.0, area=20.0):
    return FireEvent(eid, GeoPoint(0.0, 30.0), start, area)


def tables(satellites=(EQ_SAT,), stations=(EQ_STATION,), aois=(EQ_AOI,), horizon=DAY):
    """(contact, access) window tables from the engine's geometry stage."""
    scenario = dataclasses.replace(
        make_scenario(horizon=horizon),
        satellites=tuple(satellites), stations=tuple(stations), aois=tuple(aois),
    )
    return geometry_tables(scenario)


def eq_requests(evs, monitoring_delay, archetype, aois=(EQ_AOI,)):
    """Requests for the events, each for its home AOI among ``aois``."""
    detection_times = {e.id: monitoring_detection_time(e, monitoring_delay) for e in evs}
    return build_requests(evs, aoi_membership(evs, aois)[1], detection_times, archetype)


def plan_over(requests, satellites, stations, contact_table, access_table):
    """``plan`` over the opportunities of the window tables."""
    return plan(requests, opportunities(satellites, stations, contact_table, periodic_acquisitions(access_table)))


def plan_eq(requests, satellites=(EQ_SAT,), stations=(EQ_STATION,)):
    """Plan over the equatorial AOI for one day."""
    return plan_over(requests, satellites, stations, *tables(satellites, stations))


class TestBuildRequests:
    def test_single_event_single_request(self):
        requests = eq_requests([eq_event()], 1800.0, make_archetype())
        assert len(requests) == 1
        req = requests[0]
        assert req.issued == 1800.0
        assert req.id == "req-ev-1"
        assert req.aoi_id == "eq-aoi"
        assert req.event_id == "ev-1"

    def test_periodic_archetype_builds_nothing(self):
        arch = make_archetype(triggering=Triggering.PERIODIC, cycle=86400.0)
        requests = eq_requests([eq_event()], 1800.0, arch)
        assert requests == ()

    def test_two_events_two_requests_no_dedup(self):
        evs = [eq_event("ev-1", 0.0), eq_event("ev-2", 10.0)]
        requests = eq_requests(evs, 1800.0, make_archetype())
        assert len(requests) == 2

    def test_event_outside_every_aoi_dropped(self):
        lost = FireEvent("lost", GeoPoint(45.0, 120.0), 0.0, 20.0)
        requests = eq_requests([lost, eq_event()], 0.0, make_archetype())
        assert len(requests) == 1
        assert requests[0].event_id == "ev-1"

    def test_event_in_two_discs_gets_one_request_for_its_home_aoi(self):
        wide = make_aoi("wide", 0.0, 31.0, radius=300.0)
        requests = eq_requests([eq_event()], 0.0, make_archetype(), aois=(wide, EQ_AOI))
        assert [r.aoi_id for r in requests] == ["eq-aoi"]

    def test_requests_sorted_by_issue_time(self):
        evs = [eq_event("ev-b", 500.0), eq_event("ev-a", 100.0)]
        requests = eq_requests(evs, 0.0, make_archetype())
        assert [r.issued for r in requests] == [100.0, 500.0]


class TestPlan:
    def test_assignment_follows_first_full_contact(self):
        requests = eq_requests([eq_event(start=0.0)], 0.0, make_archetype())
        result = plan_eq(requests)
        assert result.unmet_request_ids == ()
        a = result.assignments[0]
        # First contact ends ~5942 s; the access at ~493 s is unreachable, the
        # next lap (~6631 s) is the earliest feasible one.
        assert a.uplink_time == pytest.approx(5942.0, abs=5.0)
        assert a.window.start == pytest.approx(6631.0, abs=5.0)
        assert a.uplink_time < a.window.start
        assert a.uplink_time >= requests[0].issued

    def test_no_sband_contact_means_unmet(self):
        xband_only = make_station(sid="gs-x", lat=0.0, lon=-30.0, sband=False)
        requests = eq_requests([eq_event()], 0.0, make_archetype())
        result = plan_eq(requests, stations=[xband_only])
        assert result.assignments == ()
        assert result.unmet_request_ids == (requests[0].id,)

    def test_tie_between_satellites_breaks_by_id(self):
        twin_b = make_satellite(sid="sat-b", inclination=0.0, raan=0.0, arg_lat=0.0, swath=40.0)
        requests = eq_requests([eq_event()], 0.0, make_archetype())
        result = plan_eq(requests, satellites=[twin_b, EQ_SAT])
        assert result.assignments[0].satellite_id == "sat-a"

    def test_no_overlapping_windows_per_satellite(self):
        evs = [eq_event("ev-1", 0.0), eq_event("ev-2", 1.0)]
        requests = eq_requests(evs, 0.0, make_archetype())
        result = plan_eq(requests)
        assert len(result.assignments) == 2
        w1, w2 = (a.window for a in result.assignments)
        assert w1.end <= w2.start or w2.end <= w1.start

    def test_request_after_last_contact_unmet(self):
        requests = eq_requests([eq_event(start=DAY - 100.0)], 0.0, make_archetype())
        result = plan_eq(requests)
        assert result.unmet_request_ids == (requests[0].id,)

    def test_deterministic(self):
        evs = [eq_event(f"ev-{k}", 100.0 * k) for k in range(5)]
        requests = eq_requests(evs, 0.0, make_archetype())
        args = (requests, [EQ_SAT], [EQ_STATION], *tables())
        assert plan_over(*args) == plan_over(*args)


def _reference_plan(requests, satellites, stations, contact_table, access_table):
    """``plan`` by linear scans: every contact and window from the start of its table."""
    stations_by_id = {s.id: s for s in stations}
    contacts_per_sat = {sat.id: {} for sat in satellites}
    for (sat_id, stn_id), windows in contact_table.items():
        contacts_per_sat.setdefault(sat_id, {})[stn_id] = windows

    def first_sband_contact_end(contacts, after):
        best = None
        for stn_id, windows in contacts.items():
            if not stations_by_id[stn_id].sband_available:
                continue
            for w in windows:
                if w.start >= after:
                    key = (w.start, stn_id, w.end)
                    if best is None or key < best:
                        best = key
                    break
        return best[2] if best else None

    busy = {sat.id: [] for sat in satellites}
    assignments = []
    unmet = []
    for req in sorted(requests, key=lambda r: (r.issued, r.id)):
        best = None
        for sat in sorted(satellites, key=lambda s: s.id):
            uplink = first_sband_contact_end(contacts_per_sat.get(sat.id, {}), req.issued)
            if uplink is None:
                continue
            for w in access_table.get((sat.id, req.aoi_id), []):
                if w.start <= uplink:
                    continue
                if any(w.start < b.end and b.start < w.end for b in busy[sat.id]):
                    continue
                if best is None or (w.start, sat.id) < (best[0], best[1]):
                    best = (w.start, sat.id, w, uplink)
                break
        if best is None:
            unmet.append(req.id)
        else:
            _, sat_id, window, uplink = best
            busy[sat_id].append(window)
            assignments.append(
                Assignment(request_id=req.id, satellite_id=sat_id, window=window, uplink_time=uplink)
            )
    return TaskingPlan(assignments=tuple(assignments), unmet_request_ids=tuple(unmet))


# Every time is a multiple of 10 s below 160 s, so contacts of two stations
# share starts, requests fall on contact starts and uplinks end on access starts.
GRID = st.integers(0, 15).map(lambda k: 10.0 * k)


@st.composite
def windows(draw):
    """Disjoint windows of positive length, in start order."""
    edges = sorted(draw(st.sets(GRID, max_size=8)))
    return tuple(Window(a, b) for a, b in zip(edges[::2], edges[1::2]))


@st.composite
def planner_cases(draw):
    sat_ids = draw(st.permutations("abc"))[:draw(st.integers(1, 3))]
    satellites = [make_satellite(sid=f"sat-{k}") for k in sat_ids]
    stations = [
        make_station(sid=f"gs-{k}", sband=draw(st.booleans())) for k in range(draw(st.integers(1, 3)))
    ]
    aoi_ids = [f"aoi-{k}" for k in range(draw(st.integers(1, 3)))]
    contact_table = {(sat.id, stn.id): draw(windows()) for sat in satellites for stn in stations}
    # One satellite's windows over two AOIs are drawn independently, so they may overlap.
    access_table = {(sat.id, aoi_id): draw(windows()) for sat in satellites for aoi_id in aoi_ids}
    requests = [
        ObservationRequest(f"req-{k:02d}", draw(st.sampled_from(aoi_ids)), f"ev-{k:02d}", draw(GRID))
        for k in range(draw(st.integers(0, 15)))
    ]
    return requests, satellites, stations, contact_table, access_table


def one_aoi_case(accesses, contacts, issued):
    """A planner case over one S-band station and AOI ``aoi-0``, with one
    request issued at ``issued``: ``accesses`` and ``contacts`` map each
    satellite id, in the order the satellites are passed, to its windows."""
    station = make_station(sid="gs-0")
    satellites = [make_satellite(sid=sat_id) for sat_id in accesses]
    contact_table = {(sat_id, station.id): windows for sat_id, windows in contacts.items()}
    access_table = {(sat_id, "aoi-0"): windows for sat_id, windows in accesses.items()}
    requests = [ObservationRequest("req-00", "aoi-0", "ev-00", issued)]
    return requests, satellites, [station], contact_table, access_table


class TestPlanMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(case=planner_cases())
    # Equal access starts, the satellites passed against id order: the lower id wins.
    @example(case=one_aoi_case(
        {"sat-b": (Window(20.0, 30.0),), "sat-a": (Window(20.0, 30.0),)},
        {"sat-b": (Window(0.0, 10.0),), "sat-a": (Window(0.0, 10.0),)}, 0.0,
    ))
    # sat-a's earlier window is passed over: it has no S-band contact at or after the request.
    @example(case=one_aoi_case(
        {"sat-a": (Window(30.0, 40.0),), "sat-b": (Window(50.0, 60.0),)},
        {"sat-a": (Window(0.0, 10.0),), "sat-b": (Window(20.0, 30.0),)}, 20.0,
    ))
    # Issued after the AOI's last window start: unmet, though an uplink follows.
    @example(case=one_aoi_case(
        {"sat-a": (Window(20.0, 30.0), Window(120.0, 130.0))},
        {"sat-a": (Window(100.0, 110.0), Window(140.0, 150.0))}, 130.0,
    ))
    def test_same_assignments_and_unmet_ids(self, case):
        assert plan_over(*case) == _reference_plan(*case)

    def test_windows_touching_a_busy_window_are_free(self):
        # Over two AOIs, one satellite's windows meet a busy one end to start on either side.
        sat, station = make_satellite(), make_station()
        contact_table = {(sat.id, station.id): (Window(0.0, 5.0),)}
        access_table = {
            (sat.id, "aoi-0"): (Window(20.0, 30.0),),
            (sat.id, "aoi-1"): (Window(10.0, 20.0), Window(30.0, 40.0)),
        }
        requests = [
            ObservationRequest(f"req-{k}", aoi_id, f"ev-{k}", 0.0)
            for k, aoi_id in enumerate(["aoi-0", "aoi-1", "aoi-1"])
        ]
        args = (requests, [sat], [station], contact_table, access_table)
        result = plan_over(*args)
        assert [(a.window.start, a.window.end) for a in result.assignments] == [
            (20.0, 30.0), (10.0, 20.0), (30.0, 40.0)
        ]
        assert result == _reference_plan(*args)


class TestPeriodicAcquisitions:
    def test_zero_aois(self):
        assert periodic_acquisitions(tables(aois=())[1]) == []

    def test_matches_access_windows_exactly(self):
        out = periodic_acquisitions(tables()[1])
        expected = access_windows(EQ_SAT, EQ_AOI, (0.0, DAY))
        assert [w for (_, _, w) in out] == expected
        assert all(sid == "sat-a" and aid == "eq-aoi" for (sid, aid, _) in out)

    def test_ordering_and_horizon_growth(self):
        short = periodic_acquisitions(tables(horizon=DAY / 2)[1])
        full = periodic_acquisitions(tables()[1])
        starts = [w.start for (_, _, w) in full]
        assert starts == sorted(starts)
        # Doubling the horizon never removes an opportunity.
        kept = [w for (_, _, w) in short if w.end < DAY / 2]
        full_starts = {round(w.start, 1) for (_, _, w) in full}
        for w in kept:
            assert round(w.start, 1) in full_starts
