"""Two-body circular orbits over a rotating spherical Earth.

Propagation is closed-form: a satellite moves on a circle of radius
R + h at constant angular rate while the Earth rotates underneath it.
Visibility windows (station contacts and AOI access) are found by coarse
sampling followed by bisection of the boundary crossings.  Each margin is a
function of the ground track, and the track on the coarse grid is sampled
once per satellite and horizon: every contact and access search of that
satellite reuses it, and only the bisection midpoints evaluate the track
afresh.  ``engine.geometry_tables`` in turn reuses whole tables across
seeds and A/B arms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import (
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_S,
    MU_EARTH_M3_S2,
    AreaOfInterest,
    GeoPoint,
    GroundStationSpec,
    SatelliteSpec,
    ValidationError,
)

DEFAULT_COARSE_STEP_S = 10.0
BISECTION_TOL_S = 0.1


@dataclass(frozen=True)
class Window:
    """Half-open interval of time during which a geometric condition holds."""

    start: float
    end: float
    peak_elevation_deg: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def orbital_period(altitude_km: float) -> float:
    """Circular-orbit period in seconds from Kepler's third law."""
    if not 300.0 <= altitude_km <= 2000.0:
        raise ValidationError("altitude must be in [300, 2000] km")
    a_m = (EARTH_RADIUS_KM + altitude_km) * 1e3
    return 2.0 * math.pi * math.sqrt(a_m**3 / MU_EARTH_M3_S2)


def subsatellite_track(sat: SatelliteSpec, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ground-track latitude/longitude in degrees for an array of times."""
    period = orbital_period(sat.altitude_km)
    u = math.radians(sat.initial_arg_lat_deg) + 2.0 * math.pi * np.asarray(t, dtype=float) / period
    inc = math.radians(sat.inclination_deg)
    lat = np.arcsin(np.clip(math.sin(inc) * np.sin(u), -1.0, 1.0))
    lon_inertial = math.radians(sat.raan_deg) + np.arctan2(math.cos(inc) * np.sin(u), np.cos(u))
    lon = lon_inertial - EARTH_ROTATION_RAD_S * np.asarray(t, dtype=float)
    lon = (np.degrees(lon) + 180.0) % 360.0 - 180.0
    return np.degrees(lat), lon


def subsatellite_point(sat: SatelliteSpec, t: float) -> GeoPoint:
    """Point on the Earth directly below the satellite at time ``t``."""
    lat, lon = subsatellite_track(sat, np.array([t], dtype=float))
    return GeoPoint(float(lat[0]), float(lon[0]))


def _central_angle(lat1: np.ndarray, lon1: np.ndarray, lat2: float, lon2: float) -> np.ndarray:
    """Great-circle central angle (radians) between track points and a fixed point."""
    p1, p2 = np.radians(lat1), math.radians(lat2)
    dlon = np.radians(lon1) - math.radians(lon2)
    cos_psi = np.sin(p1) * math.sin(p2) + np.cos(p1) * math.cos(p2) * np.cos(dlon)
    return np.arccos(np.clip(cos_psi, -1.0, 1.0))


def _track_elevation(
    lat: np.ndarray, lon: np.ndarray, station: GroundStationSpec, altitude_km: float
) -> np.ndarray:
    """Elevation (degrees) above the station's horizon of a satellite at ``altitude_km``
    over the track points."""
    psi = _central_angle(lat, lon, station.location.lat, station.location.lon)
    k = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + altitude_km)
    return np.degrees(np.arctan2(np.cos(psi) - k, np.sin(psi)))


def elevation_angle(sat: SatelliteSpec, station: GroundStationSpec, t: float | np.ndarray) -> float | np.ndarray:
    """Elevation of the satellite above the station's local horizon, degrees."""
    lat, lon = subsatellite_track(sat, np.atleast_1d(np.asarray(t, dtype=float)))
    el = _track_elevation(lat, lon, station, sat.altitude_km)
    return float(el[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else el


def _coarse_grid(t0: float, t1: float, step: float) -> np.ndarray:
    """Sample times: multiples of ``step`` anchored at absolute zero, plus endpoints.

    Anchoring to absolute multiples makes window extraction invariant under
    subdivision of the horizon at grid-aligned points.
    """
    interior = np.arange(math.ceil(t0 / step) * step, t1, step)
    # Keep only multiples strictly inside the horizon: t0 may itself be a
    # multiple, and rounding can put the first or last one past an endpoint.
    interior = interior[(interior > t0) & (interior < t1)]
    return np.concatenate(([t0], interior, [t1]))


@functools.lru_cache(maxsize=1)
def _grid_track(
    sat: SatelliteSpec, t0: float, t1: float, step: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coarse grid of a horizon and the satellite's track on it, read-only.

    Callers search one satellite's stations and AOIs in a row, so one cached
    track serves them all.  Each track held costs about 1.5 MB per week of
    horizon, so only the last one is kept.
    """
    grid = _coarse_grid(t0, t1, step)
    lat, lon = subsatellite_track(sat, grid)
    for a in (grid, lat, lon):
        a.flags.writeable = False
    return grid, lat, lon


def _bisect_crossings(
    margin: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, lo_inside: np.ndarray
) -> np.ndarray:
    """Refine the sign change of ``margin`` inside each [lo, hi] to BISECTION_TOL_S.

    All brackets are halved in lockstep; a bracket stops moving once it is
    no wider than the tolerance, so each one follows the midpoints of a
    scalar bisection.  ``lo_inside`` is ``margin >= 0`` at each ``lo``.
    """
    active = hi - lo > BISECTION_TOL_S
    while active.any():
        mid = 0.5 * (lo + hi)
        same = (margin(mid) >= 0.0) == lo_inside
        lo = np.where(active & same, mid, lo)
        hi = np.where(active & ~same, mid, hi)
        active = hi - lo > BISECTION_TOL_S
    return 0.5 * (lo + hi)


def _find_windows(
    sat: SatelliteSpec,
    margin: Callable[[np.ndarray, np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    coarse_step: float,
) -> list[tuple[float, float, float]]:
    """Maximal intervals where margin(lat, lon) >= 0 along the satellite's
    track; returns (start, end, peak margin).

    A run of coarse samples with margin >= 0 is a window; its edges are the
    horizon ends or the refined sign changes next to the run, and its peak
    is the largest margin sampled inside it.
    """
    if t0 >= t1:
        raise ValidationError("horizon must satisfy t0 < t1")
    if coarse_step <= 0:
        raise ValidationError("coarse step must be positive")
    grid, lat, lon = _grid_track(sat, t0, t1, coarse_step)
    m = margin(lat, lon)
    inside = m >= 0.0
    # The sign changes between grid[c] and grid[c + 1] for each c in change.
    change = np.flatnonzero(np.diff(inside))
    crossings = _bisect_crossings(
        lambda t: margin(*subsatellite_track(sat, t)), grid[change], grid[change + 1], inside[change]
    )
    # Window edges in time order alternate start, end: t0 when the first
    # sample is inside, every crossing, t1 when the last sample is inside.
    edges = np.concatenate((grid[:1][inside[:1]], crossings, grid[-1:][inside[-1:]]))
    run_first = np.concatenate((np.flatnonzero(inside[:1]), change[~inside[change]] + 1))
    peaks = np.maximum.reduceat(np.where(inside, m, -np.inf), run_first)
    return [
        (float(start), float(end), float(peak))
        for start, end, peak in zip(edges[0::2], edges[1::2], peaks)
        if end > start
    ]


def contact_windows(
    sat: SatelliteSpec,
    station: GroundStationSpec,
    horizon: tuple[float, float],
    coarse_step: float = DEFAULT_COARSE_STEP_S,
) -> list[Window]:
    """Intervals where the satellite sits above the station's elevation mask.

    Boundaries are refined by bisection to 0.1 s; windows are sorted,
    disjoint and clipped to the horizon.  Passes shorter than the coarse
    step can be missed; at LEO altitudes with the default 10 s step no
    pass above a practical mask is short enough for that to happen.
    """
    t0, t1 = horizon
    mask = station.min_elevation_deg

    def margin(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        return _track_elevation(lat, lon, station, sat.altitude_km) - mask

    return [
        Window(start, end, peak_elevation_deg=peak + mask)
        for start, end, peak in _find_windows(sat, margin, t0, t1, coarse_step)
    ]


def access_windows(
    sat: SatelliteSpec,
    aoi: AreaOfInterest,
    horizon: tuple[float, float],
    coarse_step: float = DEFAULT_COARSE_STEP_S,
) -> list[Window]:
    """Intervals where the AOI is within reach of the imaging swath.

    Access is all-or-nothing: the AOI is reachable when the subsatellite
    point lies within swath/2 + AOI radius of its center.
    """
    t0, t1 = horizon
    reach = sat.swath_km / 2.0 + aoi.radius_km

    def margin(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        return reach - EARTH_RADIUS_KM * _central_angle(lat, lon, aoi.center.lat, aoi.center.lon)

    return [Window(start, end) for start, end, _ in _find_windows(sat, margin, t0, t1, coarse_step)]
