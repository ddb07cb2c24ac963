"""Fire-event ground truth and the external monitoring chain.

Events are generated as independent per-AOI Poisson processes and placed
uniformly inside each AOI disc; burn areas are log-normal.  Events are
static discs: the simulator studies information latency, not fire spread.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import (
    EARTH_RADIUS_KM,
    SECONDS_PER_DAY,
    AreaOfInterest,
    EventModel,
    FireEvent,
    GeoPoint,
    ValidationError,
    arc_km,
    sphere_terms,
)

EVENT_TRACE_FIELDS = ["id", "lat", "lon", "start_s", "area_ha"]


def _destination(origin: GeoPoint, bearing_rad: float, distance_km: float) -> GeoPoint:
    """Great-circle destination point on the spherical Earth."""
    delta = distance_km / EARTH_RADIUS_KM
    lat1 = math.radians(origin.lat)
    lon1 = math.radians(origin.lon)
    lat2 = math.asin(
        math.sin(lat1) * math.cos(delta)
        + math.cos(lat1) * math.sin(delta) * math.cos(bearing_rad)
    )
    lon2 = lon1 + math.atan2(
        math.sin(bearing_rad) * math.sin(delta) * math.cos(lat1),
        math.cos(delta) - math.sin(lat1) * math.sin(lat2),
    )
    return GeoPoint(math.degrees(lat2), math.degrees(lon2))


def generate_fire_events(
    model: EventModel,
    aois: Sequence[AreaOfInterest],
    horizon_s: float,
    streams: Iterable[np.random.Generator],
) -> list[FireEvent]:
    """Draw ground-truth events; fully determined by the per-AOI streams.

    ``streams`` yields one independent generator per AOI, in the order of
    ``aois``, so that the events of one AOI never depend on how many were
    drawn for another.  The engine seeds the streams of all the AOIs in one
    seed-sequence pass (``engine.rng_streams``), from digest words that a
    sweep's runs share; an AOI whose Poisson count is 0 draws nothing more.
    ``validate_scenario`` checks that ``horizon_s`` is finite and positive.
    """
    out: list[FireEvent] = []
    lam_per_aoi = model.rate_per_aoi_per_day * horizon_s / SECONDS_PER_DAY
    for aoi, rng in zip(aois, streams, strict=True):
        n = int(rng.poisson(lam_per_aoi))
        if not n:
            continue
        starts = np.sort(rng.uniform(0.0, horizon_s, size=n))
        for j, start in enumerate(starts):
            # random() is the double uniform() draws, as uniform(0, 2 pi) is 2 pi times it.
            bearing = 2.0 * math.pi * rng.random()
            dist = aoi.radius_km * math.sqrt(rng.random())
            area = float(rng.lognormal(model.area_log_mean, model.area_log_sd))
            out.append(
                FireEvent(
                    id=f"fire-{aoi.id}-{j:03d}",
                    location=_destination(aoi.center, bearing, dist),
                    start=float(start),
                    area_ha=area,
                )
            )
    out.sort(key=lambda e: (e.start, e.id))
    return out


def aoi_membership(
    fire_events: Sequence[FireEvent], aois: Sequence[AreaOfInterest]
) -> tuple[dict[str, tuple[FireEvent, ...]], dict[str, Optional[str]]]:
    """Each AOI's member events, in the given order, and each event's home AOI id.

    An event is a member of every AOI whose disc contains it.  Its home is the
    nearest of those discs, ties broken by id, or None outside all of them.
    """
    members: dict[str, list[FireEvent]] = {aoi.id: [] for aoi in aois}
    home: dict[str, Optional[str]] = {}
    centers = [(sphere_terms(a.center), a.radius_km, a.id) for a in aois]
    for e in fire_events:
        point = sphere_terms(e.location)
        inside = [(d, aoi_id) for center, radius, aoi_id in centers if (d := arc_km(point, center)) <= radius]
        for _, aoi_id in inside:
            members[aoi_id].append(e)
        home[e.id] = min(inside)[1] if inside else None
    return {aoi_id: tuple(evs) for aoi_id, evs in members.items()}, home


def monitoring_detection_time(event: FireEvent, monitoring_delay_s: float) -> float:
    """Instant at which the external monitoring chain can report the event; the
    delay is non-negative, as ``validate_scenario`` checks."""
    return event.start + monitoring_delay_s


def is_detectable(area_ha: float, mmu_ha: float) -> bool:
    """An event can be mapped iff its area reaches the minimum mapping unit."""
    if area_ha <= 0 or mmu_ha <= 0:
        raise ValidationError("area and mmu must be positive")
    return area_ha >= mmu_ha


def write_event_trace(path: str | Path, fire_events: Iterable[FireEvent]) -> None:
    """Write a fixed event trace (CSV: id, lat, lon, start_s, area_ha), a block of events at a time."""
    from .metrics import _blocks, _csv_quoted, _csv_text

    with open(path, "w", newline="") as f:
        f.write(",".join(EVENT_TRACE_FIELDS) + "\r\n")
        for block in _blocks(fire_events):
            # Numbers need no quotes, so the numbers of a row are one piece.
            f.write(_csv_text([_csv_quoted([e.id for e in block]), [
                "%.6f,%.6f,%.3f,%.4f" % (e.location.lat, e.location.lon, e.start, e.area_ha) for e in block]]))


def _trace_number(row: dict, column: str) -> float:
    try:
        return float(row[column])
    except (TypeError, ValueError):
        raise ValidationError(
            f"event trace row {row['id']!r}: {column} is not a number: {row[column]!r}"
        ) from None


def read_event_trace(path: str | Path) -> list[FireEvent]:
    """Read a fixed event trace for injection into a simulation run."""
    import csv

    out: list[FireEvent] = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = set(EVENT_TRACE_FIELDS) - set(reader.fieldnames or [])
        if missing:
            raise ValidationError(f"event trace missing columns: {sorted(missing)}")
        for row in reader:
            out.append(
                FireEvent(
                    id=row["id"],
                    location=GeoPoint(_trace_number(row, "lat"), _trace_number(row, "lon")),
                    start=_trace_number(row, "start_s"),
                    area_ha=_trace_number(row, "area_ha"),
                )
            )
    out.sort(key=lambda e: (e.start, e.id))
    return out
