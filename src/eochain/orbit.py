"""Two-body circular orbits over a rotating spherical Earth.

Propagation is closed-form: a satellite moves on a circle of radius
R + h at constant angular rate while the Earth rotates underneath it.
Visibility windows (station contacts and AOI access) are found by coarse
sampling followed by bisection of the boundary crossings.

Each margin is a function of the central angle psi between the
subsatellite point and the target, and holds exactly while psi is at most a
limit: reach / R for access, and for a contact above mask E,
``acos(k cos E) - E`` with k = R / (R + h).  The subsatellite point moves
over the Earth at an angular rate of at most n + w_E (mean motion plus the
Earth's rotation), so psi changes no faster than that.  The coarse grid is
cut into blocks of ``BLOCK`` samples, and the track at the block centres is
sampled once per satellite and horizon: a block whose centre is further
beyond the limit than psi can travel to its farthest sample holds no
window, and neither its track nor its margin is computed (after Alfano,
Negron & Moore, "Rapid Determination of Satellite Visibility Periods",
J. Astronaut. Sci. 40(2), 1992).  Every other sample and every bisection
midpoint is evaluated exactly as on the full grid, so the windows are the
ones the full grid gives.  ``engine.geometry_tables`` in turn reuses whole
tables across seeds and A/B arms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import (
    DEFAULT_COARSE_STEP_S,
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_S,
    MU_EARTH_M3_S2,
    AreaOfInterest,
    GeoPoint,
    GroundStationSpec,
    SatelliteSpec,
    ValidationError,
)

BISECTION_TOL_S = 0.1
# Coarse samples per block of the window search.
BLOCK = 32
# Allowance for rounding in the computed central angle (radians, about 6 m on
# the ground).  The worst case is acos near 0 or pi, about 2e-8 rad.
PROOF_SLACK_RAD = 1e-6


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


def _elevation(psi: np.ndarray, altitude_km: float) -> np.ndarray:
    """Elevation (degrees) above a ground point's horizon of a satellite at
    ``altitude_km`` whose subsatellite point is the central angle ``psi`` away."""
    k = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + altitude_km)
    return np.degrees(np.arctan2(np.cos(psi) - k, np.sin(psi)))


def _contact_limit(altitude_km: float, min_elevation_deg: float) -> float:
    """Largest central angle at which the elevation is at least ``min_elevation_deg``.

    Elevation falls as psi grows.  In the triangle of the Earth's centre, the
    ground point and the satellite, the angles are psi, 90 deg + E and the
    nadir angle asin(k cos E), which sum to 180 deg.
    """
    k = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + altitude_km)
    mask = math.radians(min_elevation_deg)
    return math.acos(k * math.cos(mask)) - mask


def elevation_angle(sat: SatelliteSpec, station: GroundStationSpec, t: float | np.ndarray) -> float | np.ndarray:
    """Elevation of the satellite above the station's local horizon, degrees."""
    lat, lon = subsatellite_track(sat, np.atleast_1d(np.asarray(t, dtype=float)))
    el = _elevation(_central_angle(lat, lon, station.location.lat, station.location.lon), sat.altitude_km)
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
def _block_track(
    sat: SatelliteSpec, t0: float, t1: float, step: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The coarse grid of a horizon and, for each block of ``BLOCK``
    consecutive samples, its half-width in time and the satellite's track at
    its centre; read-only.

    Callers search one satellite's stations and AOIs in a row, so one cached
    entry serves them all.  It holds 8 bytes per grid sample (about 0.5 MB per
    week of horizon) and 24 per block.
    """
    grid = _coarse_grid(t0, t1, step)
    first = grid[::BLOCK]
    last = grid[np.minimum(np.arange(1, first.size + 1) * BLOCK, grid.size) - 1]
    half = 0.5 * (last - first)
    lat, lon = subsatellite_track(sat, 0.5 * (first + last))
    for a in (grid, half, lat, lon):
        a.flags.writeable = False
    return grid, half, lat, lon


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
    target: GeoPoint,
    psi_limit: float,
    margin: Callable[[np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    coarse_step: float,
) -> list[tuple[float, float, float]]:
    """Maximal intervals where margin(psi) >= 0, psi being the central angle
    from the satellite's subsatellite point to ``target``; returns (start,
    end, peak margin).  The margin must be negative wherever psi > psi_limit.

    A run of coarse samples with margin >= 0 is a window; its edges are the
    horizon ends or the refined sign changes next to the run, and its peak
    is the largest margin sampled inside it.  Blocks proven to hold no such
    sample are skipped: this changes no window.
    """
    if t0 >= t1:
        raise ValidationError("horizon must satisfy t0 < t1")
    if coarse_step <= 0:
        raise ValidationError("coarse step must be positive")
    grid, half, lat_c, lon_c = _block_track(sat, t0, t1, coarse_step)

    def psi(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        return _central_angle(lat, lon, target.lat, target.lon)

    # A block is proven empty when psi at its centre exceeds the limit by more
    # than psi can change on the way to the block's farthest sample.
    rate = 2.0 * math.pi / orbital_period(sat.altitude_km) + EARTH_ROTATION_RAD_S
    proven_empty = psi(lat_c, lon_c) - psi_limit > rate * half + PROOF_SLACK_RAD
    unproven = np.repeat(~proven_empty, BLOCK)[: grid.size]
    # Unproven samples and the proven sample on either side of each run of
    # them: every sign change then lies between two neighbouring evaluated
    # samples, and the windows are those of the full grid.
    evaluated = unproven.copy()
    evaluated[1:] |= unproven[:-1]
    evaluated[:-1] |= unproven[1:]
    times = grid[evaluated]
    m = margin(psi(*subsatellite_track(sat, times)))
    inside = m >= 0.0
    # The sign changes between times[c] and times[c + 1] for each c in change.
    change = np.flatnonzero(np.diff(inside))
    crossings = _bisect_crossings(
        lambda t: margin(psi(*subsatellite_track(sat, t))), times[change], times[change + 1], inside[change]
    )
    # Window edges in time order alternate start, end: t0 when the first
    # sample is inside, every crossing, t1 when the last sample is inside.
    edges = np.concatenate((times[:1][inside[:1]], crossings, times[-1:][inside[-1:]]))
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

    def margin(psi: np.ndarray) -> np.ndarray:
        return _elevation(psi, sat.altitude_km) - mask

    limit = _contact_limit(sat.altitude_km, mask)
    return [
        Window(start, end, peak_elevation_deg=peak + mask)
        for start, end, peak in _find_windows(sat, station.location, limit, margin, t0, t1, coarse_step)
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

    def margin(psi: np.ndarray) -> np.ndarray:
        return reach - EARTH_RADIUS_KM * psi

    limit = reach / EARTH_RADIUS_KM
    return [
        Window(start, end)
        for start, end, _ in _find_windows(sat, aoi.center, limit, margin, t0, t1, coarse_step)
    ]
