"""Central-planner tasking: observation requests, uplink-constrained assignment.

Detected events become observation requests; a greedy planner assigns each
request to the earliest nominal access opportunity that can be reached
after a full telecommand (S-band) contact.  Event-driven requests never
retask orbits: the planner only selects among nominal access windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .model import (
    AcquisitionMode,
    FireEvent,
    GroundStationSpec,
    SatelliteSpec,
    ServiceArchetype,
    Triggering,
    ValidationError,
)
from .orbit import Window


@dataclass(frozen=True)
class ObservationRequest:
    id: str
    aoi_id: str
    event_ids: frozenset[str]
    issued: float


@dataclass(frozen=True)
class Assignment:
    request_id: str
    satellite_id: str
    window: Window
    uplink_time: float


@dataclass(frozen=True)
class TaskingPlan:
    assignments: tuple[Assignment, ...]
    unmet_request_ids: tuple[str, ...]


def build_requests(
    fire_events: Sequence[FireEvent],
    home_aoi: Mapping[str, Optional[str]],
    monitoring_delay_s: float,
    archetype: ServiceArchetype,
) -> tuple[ObservationRequest, ...]:
    """One request per monitored event for event-driven service archetypes.

    Periodic archetypes issue no event requests: their acquisitions ride the
    systematic cycle.  Each request is for the event's home AOI
    (``events.aoi_membership``); events outside every AOI get no request.
    No deduplication is performed: two events in one AOI yield two requests.
    """
    if archetype.triggering is Triggering.PERIODIC:
        return ()
    requests: list[ObservationRequest] = []
    for ev in fire_events:
        aoi_id = home_aoi[ev.id]
        if aoi_id is None:
            continue
        requests.append(
            ObservationRequest(
                id=f"req-{ev.id}",
                aoi_id=aoi_id,
                event_ids=frozenset({ev.id}),
                issued=ev.start + monitoring_delay_s,
            )
        )
    requests.sort(key=lambda r: (r.issued, r.id))
    return tuple(requests)


def _first_sband_contact_end(
    contacts: Mapping[str, Sequence[Window]],
    stations_by_id: dict[str, GroundStationSpec],
    after: float,
) -> Optional[float]:
    """End of the first full S-band contact starting at or after ``after``."""
    best: Optional[tuple[float, str, float]] = None
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


def plan(
    requests: Sequence[ObservationRequest],
    satellites: Sequence[SatelliteSpec],
    stations: Sequence[GroundStationSpec],
    contact_table: Mapping[tuple[str, str], Sequence[Window]],
    access_table: Mapping[tuple[str, str], Sequence[Window]],
) -> TaskingPlan:
    """Greedy assignment of requests to access windows.

    Requests are processed in (issued, id) order.  A request is
    assigned the earliest access window over its AOI, across all satellites,
    whose start strictly exceeds that satellite's uplink time (the end of
    the first S-band contact after the request was issued).  Windows already
    assigned on a satellite are never reused or overlapped.  Ties between
    satellites break by ascending satellite id.  The window tables are keyed
    by (satellite id, station id) and (satellite id, AOI id).
    """
    stations_by_id = {s.id: s for s in stations}
    contacts_per_sat: dict[str, dict[str, Sequence[Window]]] = {sat.id: {} for sat in satellites}
    for (sat_id, stn_id), windows in contact_table.items():
        contacts_per_sat.setdefault(sat_id, {})[stn_id] = windows

    busy: dict[str, list[Window]] = {sat.id: [] for sat in satellites}
    assignments: list[Assignment] = []
    unmet: list[str] = []

    for req in sorted(requests, key=lambda r: (r.issued, r.id)):
        best: Optional[tuple[float, str, Window, float]] = None
        for sat in sorted(satellites, key=lambda s: s.id):
            uplink = _first_sband_contact_end(
                contacts_per_sat.get(sat.id, {}), stations_by_id, req.issued
            )
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


def periodic_acquisitions(
    archetype: ServiceArchetype,
    access_table: Mapping[tuple[str, str], Sequence[Window]],
) -> list[tuple[str, str, Window]]:
    """Every access window, as (satellite id, AOI id, window), becomes a
    systematic acquisition opportunity; ordered by (start, satellite, AOI)."""
    if archetype.acquisition_mode is not AcquisitionMode.SYSTEMATIC:
        raise ValidationError("periodic acquisitions require a systematic archetype")
    out = [
        (sat_id, aoi_id, w) for (sat_id, aoi_id), windows in access_table.items() for w in windows
    ]
    out.sort(key=lambda x: (x[2].start, x[0], x[1]))
    return out
