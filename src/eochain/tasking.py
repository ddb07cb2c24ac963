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
    event_ids: frozenset[str]
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
        ObservationRequest(f"req-{ev.id}", home_aoi[ev.id], frozenset({ev.id}), detection_times[ev.id])
        for ev in fire_events
        if home_aoi[ev.id] is not None
    ]
    requests.sort(key=lambda r: (r.issued, r.id))
    return tuple(requests)


class Opportunities(NamedTuple):
    """The planner's index of the window tables, which depends on the
    geometry alone: the satellite ids in order; the starts and ends of each
    satellite's S-band contacts, sorted by (start, station id, end); and the
    access windows of each (satellite id, AOI id) with their starts."""

    satellite_ids: tuple[str, ...]
    contacts: Mapping[str, tuple[list[float], list[float]]]
    accesses: Mapping[tuple[str, str], tuple[Sequence[Window], list[float]]]


def opportunities(
    satellites: Sequence[SatelliteSpec],
    stations: Sequence[GroundStationSpec],
    contact_table: Mapping[tuple[str, str], Sequence[Window]],
    access_table: Mapping[tuple[str, str], Sequence[Window]],
) -> Opportunities:
    """The ``Opportunities`` of window tables keyed by (satellite id, station
    id) and (satellite id, AOI id)."""
    sband = {s.id for s in stations if s.sband_available}
    sat_ids = tuple(sorted(sat.id for sat in satellites))
    contacts: dict[str, list[tuple[float, str, float]]] = {sat_id: [] for sat_id in sat_ids}
    for (sat_id, stn_id), windows in contact_table.items():
        if stn_id in sband:
            contacts.setdefault(sat_id, []).extend((w.start, stn_id, w.end) for w in windows)
    for entries in contacts.values():
        entries.sort()
    return Opportunities(
        sat_ids,
        {sat_id: ([c[0] for c in entries], [c[2] for c in entries]) for sat_id, entries in contacts.items()},
        {key: (windows, [w.start for w in windows]) for key, windows in access_table.items()},
    )


def plan(requests: Sequence[ObservationRequest], opportunities: Opportunities) -> TaskingPlan:
    """Greedy assignment of requests to access windows.

    Requests are processed in (issued, id) order.  A request is
    assigned the earliest access window over its AOI, across all satellites,
    whose start strictly exceeds that satellite's uplink time (the end of
    the first S-band contact starting at or after the request was issued).
    Windows already assigned on a satellite are never reused or overlapped.
    Ties between satellites break by ascending satellite id.
    """
    sat_ids, contacts, accesses = opportunities.satellite_ids, opportunities.contacts, opportunities.accesses
    # The windows assigned on each satellite are disjoint, so in start order
    # their ends are in order too.
    busy: dict[str, tuple[list[float], list[float]]] = {sat_id: ([], []) for sat_id in sat_ids}
    assignments: list[Assignment] = []
    unmet: list[str] = []

    for req in sorted(requests, key=lambda r: (r.issued, r.id)):
        best: Optional[tuple[Window, str, float]] = None
        for sat_id in sat_ids:
            # The uplink ends the first S-band contact starting at or after the issue time.
            contact_starts, contact_ends = contacts[sat_id]
            i = bisect_left(contact_starts, req.issued)
            if i == len(contact_starts):
                continue
            uplink = contact_ends[i]
            windows, starts = accesses.get((sat_id, req.aoi_id), ((), ()))
            busy_starts, busy_ends = busy[sat_id]
            for j in range(bisect_right(starts, uplink), len(windows)):
                w = windows[j]
                # Of the busy windows starting before this one ends, the last
                # ends latest: only it can overlap.
                k = bisect_left(busy_starts, w.end)
                if k and busy_ends[k - 1] > w.start:
                    continue
                # Satellites come in id order, so a tie keeps the lower id.
                if best is None or w.start < best[0].start:
                    best = (w, sat_id, uplink)
                break
        if best is None:
            unmet.append(req.id)
        else:
            window, sat_id, uplink = best
            busy_starts, busy_ends = busy[sat_id]
            k = bisect_left(busy_starts, window.start)
            busy_starts.insert(k, window.start)
            busy_ends.insert(k, window.end)
            assignments.append(
                Assignment(request_id=req.id, satellite_id=sat_id, window=window, uplink_time=uplink)
            )
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
