"""Two-body circular orbits over a rotating spherical Earth.

Propagation is closed-form: a satellite moves on a circle of radius
R + h at constant angular rate while the Earth rotates underneath it.
Visibility windows (station contacts and AOI access) are found by coarse
sampling followed by bisection of the boundary crossings, in one search
per satellite over all of its stations and AOIs.

A target is visible while the central angle psi between the subsatellite
point and the target is at most a limit: reach / R for access, and for a
contact above mask E, ``acos(k cos E) - E`` with k = R / (R + h), since
elevation falls strictly as psi grows.  This one test serves the block
proof, the coarse samples and every bisection midpoint.  The subsatellite
point moves over the Earth at an angular rate of at most n + w_E (mean
motion plus the Earth's rotation), so psi changes no faster than that.  The
coarse grid is cut into blocks of ``BLOCK`` samples, and the search samples
the track at the block centres once: a block whose centre is further beyond
a target's limit than psi can travel to its farthest sample holds no window
of that target, and its samples are not tested (after Alfano, Negron &
Moore, "Rapid Determination of Satellite Visibility Periods", J. Astronaut.
Sci. 40(2), 1992).  The track is then computed once on the union of the
samples the targets evaluate, and each target is tested on its own samples;
every bisection step evaluates the track once for the crossings of all
targets.  Every sample and midpoint is evaluated exactly as on the full
grid, so the windows are the ones the full grid gives, whatever other
targets share the search.  No track is kept between searches;
``engine.geometry_tables`` reuses whole tables across seeds and A/B arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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

FloatOrArray = float | np.ndarray


@dataclass(frozen=True)
class Window:
    """Half-open interval of time during which a geometric condition holds."""

    start: float
    end: float

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
    sin_u = np.sin(u)
    lat = np.arcsin(np.clip(math.sin(inc) * sin_u, -1.0, 1.0))
    lon_inertial = math.radians(sat.raan_deg) + np.arctan2(math.cos(inc) * sin_u, np.cos(u))
    lon = lon_inertial - EARTH_ROTATION_RAD_S * np.asarray(t, dtype=float)
    lon = (np.degrees(lon) + 180.0) % 360.0 - 180.0
    return np.degrees(lat), lon


def subsatellite_point(sat: SatelliteSpec, t: float) -> GeoPoint:
    """Point on the Earth directly below the satellite at time ``t``."""
    lat, lon = subsatellite_track(sat, np.array([t], dtype=float))
    return GeoPoint(float(lat[0]), float(lon[0]))


def _track_angles(lat: np.ndarray, lon: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sine and cosine of the latitude and the longitude in radians of track
    points given in degrees."""
    p = np.radians(lat)
    return np.sin(p), np.cos(p), np.radians(lon)


def _target_angles(lat: float, lon: float) -> tuple[float, float, float]:
    """Sine and cosine of a target's latitude and its longitude in radians."""
    p = math.radians(lat)
    return math.sin(p), math.cos(p), math.radians(lon)


def _central_angle(track: tuple[np.ndarray, ...], target: tuple[FloatOrArray, ...]) -> np.ndarray:
    """Great-circle central angle (radians) between track points given by
    ``_track_angles`` and targets given by ``_target_angles``: one target, or
    one per point."""
    sin_lat1, cos_lat1, lon1 = track
    sin_lat2, cos_lat2, lon2 = target
    cos_psi = sin_lat1 * sin_lat2 + cos_lat1 * cos_lat2 * np.cos(lon1 - lon2)
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
    target = _target_angles(station.location.lat, station.location.lon)
    el = _elevation(_central_angle(_track_angles(lat, lon), target), sat.altitude_km)
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


def _bisect_crossings(
    visible: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, lo_inside: np.ndarray
) -> np.ndarray:
    """Refine the change of ``visible`` inside each [lo, hi] to BISECTION_TOL_S.

    All brackets are halved in lockstep; a bracket stops moving once it is
    no wider than the tolerance, so each one follows the midpoints of a
    scalar bisection.  ``lo_inside`` is ``visible`` at each ``lo``.
    """
    active = hi - lo > BISECTION_TOL_S
    while active.any():
        mid = 0.5 * (lo + hi)
        same = visible(mid) == lo_inside
        lo = np.where(active & same, mid, lo)
        hi = np.where(active & ~same, mid, hi)
        active = hi - lo > BISECTION_TOL_S
    return 0.5 * (lo + hi)


def _evaluated(unproven: np.ndarray, size: int) -> np.ndarray:
    """The samples of the unproven blocks and the proven sample on either
    side of each run of them, as a mask over a grid of ``size`` samples:
    every visibility change then lies between two neighbouring evaluated
    samples, and the windows are those of the full grid."""
    samples = np.repeat(unproven, BLOCK)[:size]
    evaluated = samples.copy()
    evaluated[1:] |= samples[:-1]
    evaluated[:-1] |= samples[1:]
    return evaluated


def _find_windows(
    sat: SatelliteSpec, targets: Sequence[tuple[tuple[float, float, float], float]], t0: float, t1: float,
    coarse_step: float,
) -> list[list[tuple[float, float]]]:
    """For each target, the maximal (start, end) intervals where it is
    visible.  A target is (angles from ``_target_angles``, limit), and it is
    visible while psi is at most its limit.

    A run of visible coarse samples is a window; its edges are the horizon
    ends or the refined visibility changes next to the run.  Blocks proven
    to hold no visible sample for a target are skipped for it: this changes
    no window.  The track is computed once on the samples some target
    evaluates, and once per bisection step for all targets' crossings
    together; each target reads only its own samples, so its windows do not
    depend on the others.
    """
    if t0 >= t1:
        raise ValidationError("horizon must satisfy t0 < t1")
    if coarse_step <= 0:
        raise ValidationError("coarse step must be positive")
    if not targets:
        return []
    grid = _coarse_grid(t0, t1, coarse_step)
    first = grid[::BLOCK]
    last = grid[np.minimum(np.arange(1, first.size + 1) * BLOCK, grid.size) - 1]
    half = 0.5 * (last - first)
    centres = _track_angles(*subsatellite_track(sat, 0.5 * (first + last)))

    # A block is proven empty when psi at its centre exceeds the limit by more
    # than psi can change on the way to the block's farthest sample.
    rate = 2.0 * math.pi / orbital_period(sat.altitude_km) + EARTH_ROTATION_RAD_S
    travel = rate * half + PROOF_SLACK_RAD
    unproven = [~(_central_angle(centres, angles) - limit > travel) for angles, limit in targets]
    # The evaluated samples of the union of the unproven blocks are the union
    # of every target's evaluated samples.  The full grid, which ``first``
    # views, is freed before the track is computed on them.
    size = grid.size
    evaluated = _evaluated(np.logical_or.reduce(unproven), size)
    times = grid[evaluated]
    del grid, first, last
    track = _track_angles(*subsatellite_track(sat, times))

    runs, lo, hi, lo_inside = [], [], [], []
    for (angles, limit), blocks in zip(targets, unproven):
        own = np.flatnonzero(_evaluated(blocks, size)[evaluated])
        t = times[own]
        inside = _central_angle(tuple(a[own] for a in track), angles) <= limit
        # Visibility changes between t[c] and t[c + 1] for each c in change.
        change = np.flatnonzero(np.diff(inside))
        lo.append(t[change])
        hi.append(t[change + 1])
        lo_inside.append(inside[change])
        # t0 when the first sample is inside, t1 when the last one is.
        runs.append((t[:1][inside[:1]], t[-1:][inside[-1:]]))
    # Only per-crossing arrays are needed from here on.
    del evaluated, times, track

    # Every target's crossings in one bisection: each crossing carries its
    # target's angles and limit.
    counts = [c.size for c in lo]
    *angles_x, limit_x = np.repeat(np.array([(*angles, limit) for angles, limit in targets]), counts, axis=0).T

    def visible(t: np.ndarray) -> np.ndarray:
        return _central_angle(_track_angles(*subsatellite_track(sat, t)), angles_x) <= limit_x

    crossings = _bisect_crossings(visible, np.concatenate(lo), np.concatenate(hi), np.concatenate(lo_inside))
    found = []
    for (head, tail), stop, count in zip(runs, np.cumsum(counts), counts):
        # Window edges in time order alternate start, end.
        edges = np.concatenate((head, crossings[stop - count : stop], tail))
        found.append([(float(start), float(end)) for start, end in zip(edges[0::2], edges[1::2]) if end > start])
    return found


def satellite_windows(
    sat: SatelliteSpec,
    stations: Sequence[GroundStationSpec],
    aois: Sequence[AreaOfInterest],
    horizon: tuple[float, float],
    coarse_step: float = DEFAULT_COARSE_STEP_S,
) -> tuple[list[list[Window]], list[list[Window]]]:
    """The contact windows of each station and the access windows of each
    AOI, in their order, from one search over the satellite's track.

    A station is visible while psi is at most ``_contact_limit`` of its mask,
    an AOI while psi is at most its reach over R.  Each list is what
    ``contact_windows`` or ``access_windows`` gives for that target alone.
    """
    targets = [
        (_target_angles(s.location.lat, s.location.lon), _contact_limit(sat.altitude_km, s.min_elevation_deg))
        for s in stations
    ] + [
        (_target_angles(a.center.lat, a.center.lon), (sat.swath_km / 2.0 + a.radius_km) / EARTH_RADIUS_KM)
        for a in aois
    ]
    found = [[Window(*w) for w in windows] for windows in _find_windows(sat, targets, *horizon, coarse_step)]
    return found[: len(stations)], found[len(stations) :]


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
    return satellite_windows(sat, (station,), (), horizon, coarse_step)[0][0]


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
    return satellite_windows(sat, (), (aoi,), horizon, coarse_step)[1][0]
