"""Central-planner tasking: observation requests, uplink-constrained assignment.

Detected events become observation requests; a greedy planner assigns each
request to the earliest nominal access opportunity that can be reached
after a full telecommand (S-band) contact.  Event-driven requests never
retask orbits: the planner only selects among nominal access windows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Mapping, NamedTuple, Optional, Sequence

from .model import (
    FireEvent,
    GroundStationSpec,
    SatelliteSpec,
    ServiceArchetype,
    Triggering,
)
from .orbit import Window


class ObservationRequest(NamedTuple):
    id: str
    aoi_id: str
    event_id: str
    issued: float


class Assignment(NamedTuple):
    request_id: str
    satellite_id: str
    window: Window
    uplink_time: float


class TaskingPlan(NamedTuple):
    assignments: tuple[Assignment, ...]
    unmet_request_ids: tuple[str, ...]


def build_requests(
    fire_events: Sequence[FireEvent],
    home_aoi: Mapping[str, Optional[str]],
    detection_times: Mapping[str, float],
    archetype: ServiceArchetype,
) -> tuple[ObservationRequest, ...]:
    """One request per monitored event for event-driven service archetypes.

    Periodic archetypes issue no event requests: their acquisitions ride the
    systematic cycle.  Each request is for the event's home AOI
    (``events.aoi_membership``) and is issued at the event's monitoring
    detection time; events outside every AOI get no request.  No
    deduplication is performed: two events in one AOI yield two requests.
    """
    if archetype.triggering is Triggering.PERIODIC:
        return ()
    requests = [
        ObservationRequest(f"req-{ev.id}", home_aoi[ev.id], ev.id, detection_times[ev.id])
        for ev in fire_events
        if home_aoi[ev.id] is not None
    ]
    requests.sort(key=lambda r: (r.issued, r.id))
    return tuple(requests)


class Opportunities(NamedTuple):
    """The planner's index of the window tables, which depends on the
    geometry alone: the starts and ends of each satellite's S-band contacts,
    sorted by (start, station id, end); and each AOI's access windows as
    (satellite id, window) in (start, satellite id) order, with their starts."""

    contacts: Mapping[str, tuple[list[float], list[float]]]
    accesses: Mapping[str, tuple[list[tuple[str, Window]], list[float]]]


def opportunities(
    satellites: Sequence[SatelliteSpec],
    stations: Sequence[GroundStationSpec],
    contact_table: Mapping[tuple[str, str], Sequence[Window]],
    systematic: Sequence[tuple[str, str, Window]],
) -> Opportunities:
    """The ``Opportunities`` of the contact table and the ``periodic_acquisitions`` order."""
    sband = {s.id for s in stations if s.sband_available}
    contacts: dict[str, list[tuple[float, str, float]]] = {sat.id: [] for sat in satellites}
    for (sat_id, stn_id), windows in contact_table.items():
        if stn_id in sband:
            contacts[sat_id] += ((w.start, stn_id, w.end) for w in windows)
    for entries in contacts.values():
        entries.sort()
    accesses: dict[str, list[tuple[str, Window]]] = {}
    for sat_id, aoi_id, w in systematic:
        accesses.setdefault(aoi_id, []).append((sat_id, w))
    return Opportunities(
        {sat_id: ([c[0] for c in entries], [c[2] for c in entries]) for sat_id, entries in contacts.items()},
        {aoi_id: (windows, [w.start for _, w in windows]) for aoi_id, windows in accesses.items()},
    )


def plan(requests: Sequence[ObservationRequest], opportunities: Opportunities) -> TaskingPlan:
    """Greedy assignment of requests to access windows.

    Requests are processed in (issued, id) order.  A request is
    assigned the first access window over its AOI, in (start, satellite id)
    order, whose start strictly exceeds that satellite's uplink time (the end
    of the first S-band contact starting at or after the request was issued).
    Windows already assigned on a satellite are never reused or overlapped.
    A contact ends after it starts, so every uplink ends after the issue
    time: the walk starts at the first window starting after it.
    """
    contacts, accesses = opportunities.contacts, opportunities.accesses
    # The windows assigned on each satellite are disjoint, so in start order
    # their ends are in order too.
    busy: dict[str, tuple[list[float], list[float]]] = {sat_id: ([], []) for sat_id in contacts}
    assignments: list[Assignment] = []
    unmet: list[str] = []

    for req in sorted(requests, key=lambda r: (r.issued, r.id)):
        windows, starts = accesses.get(req.aoi_id, ((), ()))
        uplinks: dict[str, Optional[float]] = {}
        for j in range(bisect_right(starts, req.issued), len(windows)):
            sat_id, w = windows[j]
            if sat_id not in uplinks:
                contact_starts, contact_ends = contacts[sat_id]
                i = bisect_left(contact_starts, req.issued)
                uplinks[sat_id] = contact_ends[i] if i < len(contact_starts) else None
            uplink = uplinks[sat_id]
            if uplink is None or w.start <= uplink:
                continue
            # Of the busy windows starting before this one ends, the last ends latest: only it
            # can overlap.  If it does not, they all start before this one, which goes in at k.
            busy_starts, busy_ends = busy[sat_id]
            k = bisect_left(busy_starts, w.end)
            if k and busy_ends[k - 1] > w.start:
                continue
            busy_starts.insert(k, w.start)
            busy_ends.insert(k, w.end)
            assignments.append(Assignment(request_id=req.id, satellite_id=sat_id, window=w, uplink_time=uplink))
            break
        else:
            unmet.append(req.id)
    return TaskingPlan(assignments=tuple(assignments), unmet_request_ids=tuple(unmet))


def periodic_acquisitions(
    access_table: Mapping[tuple[str, str], Sequence[Window]],
) -> list[tuple[str, str, Window]]:
    """Every access window, as (satellite id, AOI id, window), is a systematic
    acquisition opportunity; ordered by (start, satellite, AOI)."""
    out = [
        (sat_id, aoi_id, w) for (sat_id, aoi_id), windows in access_table.items() for w in windows
    ]
    out.sort(key=lambda x: (x[2].start, x[0], x[1]))
    return out
