"""Two-body circular orbits over a rotating spherical Earth.

Propagation is closed-form: a satellite moves on a circle of radius
R + h at constant angular rate while the Earth rotates underneath it.
Visibility windows (station contacts and AOI access) are found by coarse
sampling followed by bisection of the boundary crossings: each satellite
scans the coarse grid for all of its stations and AOIs, and the crossings
of the whole constellation are bisected together.

A target is visible while the central angle psi between the subsatellite
point and the target is at most a limit: reach / R for access, and for a
contact above mask E, ``acos(k cos E) - E`` with k = R / (R + h), since
elevation falls strictly as psi grows.  Psi is the arc cosine of the dot
product of two Earth-fixed unit vectors (``_ground_vector``,
``_target_vector``, ``_psi``), and ``psi <= limit`` is the one test that
decides every coarse sample and bisection midpoint; ``subsatellite_track``
and ``elevation_angle`` read the same vectors.

The subsatellite point moves over the Earth at an angular rate of at most
n + w_E (mean motion plus the Earth's rotation), so psi changes no faster
than that.  A block of coarse samples whose centre is further from a
target's limit than psi can travel to the block's farthest sample, plus
``PROOF_SLACK_RAD`` for the rounding of the computed psi, is on one side of
the limit at every sample: proven empty beyond it, proven full within it
(after Alfano, Negron & Moore, "Rapid Determination of Satellite Visibility
Periods", J. Astronaut. Sci. 40(2), 1992).  The search proves blocks of
``LEVELS`` samples, 128, then 32, then 8: each level tests only the
children of the blocks still open, and only the samples of the 8-sample
blocks still open are evaluated.  Every sample and midpoint reads what the
full grid reads, so the windows are the ones the full grid gives, whatever
other targets and satellites share the search; README "How a run works"
gives the work this takes on the presets.
No track is kept between searches; only the runs that share one memo
(``engine.run``) reuse whole tables, across seeds and A/B arms.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (
    DEFAULT_COARSE_STEP_S,
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_S,
    MU_EARTH_M3_S2,
    AreaOfInterest,
    GroundStationSpec,
    SatelliteSpec,
    ValidationError,
)

BISECTION_TOL_S = 0.1
# Coarse samples per block at each level of the window search, largest first;
# each size divides the one before it.
LEVELS = (128, 32, 8)
# Allowance for rounding in the computed central angle (radians, about 6 m on
# the ground).  The worst case is acos near 0 or pi, about 3e-8 rad.
PROOF_SLACK_RAD = 1e-6

FloatOrArray = float | np.ndarray


class Window(NamedTuple):
    """Half-open interval of time during which a geometric condition holds."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def orbital_period(altitude_km: float) -> float:
    """Circular-orbit period in seconds from Kepler's third law, for an altitude in
    ``SatelliteSpec.altitude_km``'s interval, which ``validate_scenario`` checks."""
    a_m = (EARTH_RADIUS_KM + altitude_km) * 1e3
    return 2.0 * math.pi * math.sqrt(a_m**3 / MU_EARTH_M3_S2)


OrbitElements = tuple[FloatOrArray, FloatOrArray, FloatOrArray, FloatOrArray, FloatOrArray]


def _elements(sat: SatelliteSpec) -> OrbitElements:
    """What the ground track needs of a satellite: its period (s), the argument
    of latitude at t = 0 and the RAAN in radians, and the sine and cosine of
    its inclination."""
    inc = math.radians(sat.inclination_deg)
    return (orbital_period(sat.altitude_km), math.radians(sat.initial_arg_lat_deg), math.sin(inc),
            math.cos(inc), math.radians(sat.raan_deg))


def _ground_vector(elements: OrbitElements, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Earth-fixed unit vector of the subsatellite point at times ``t``, for one
    satellite's elements or for one satellite's elements per time: the point at
    argument of latitude u on a circle inclined at i to the equator, whose
    ascending node is at Earth-fixed longitude N = RAAN - w_E t."""
    period, u0, sin_inc, cos_inc, raan = elements
    u = u0 + 2.0 * math.pi * t / period
    node = raan - EARTH_ROTATION_RAD_S * t
    cos_u, sin_u, cos_node, sin_node = np.cos(u), np.sin(u), np.cos(node), np.sin(node)
    across = cos_inc * sin_u
    return cos_u * cos_node - across * sin_node, cos_u * sin_node + across * cos_node, sin_inc * sin_u


def _target_vector(lat: float, lon: float) -> tuple[float, float, float]:
    """Earth-fixed unit vector of a target at latitude/longitude in degrees."""
    p, lon = math.radians(lat), math.radians(lon)
    cos_lat = math.cos(p)
    return cos_lat * math.cos(lon), cos_lat * math.sin(lon), math.sin(p)


def _psi(track: tuple[np.ndarray, ...], target: tuple[FloatOrArray, ...]) -> np.ndarray:
    """Central angle (radians) between unit vectors: track points given by
    ``_ground_vector`` and targets, one target or one per point."""
    dot = track[0] * target[0]
    dot += track[1] * target[1]
    dot += track[2] * target[2]
    return np.arccos(np.clip(dot, -1.0, 1.0, out=dot), out=dot)


def subsatellite_track(sat: SatelliteSpec, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ground-track latitude/longitude in degrees for an array of times."""
    x, y, z = _ground_vector(_elements(sat), np.asarray(t, dtype=float))
    return np.degrees(np.arcsin(np.clip(z, -1.0, 1.0))), (np.degrees(np.arctan2(y, x)) + 180.0) % 360.0 - 180.0


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
    track = _ground_vector(_elements(sat), np.atleast_1d(np.asarray(t, dtype=float)))
    el = _elevation(_psi(track, _target_vector(station.location.lat, station.location.lon)), sat.altitude_km)
    return float(el[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else el


def _coarse_grid(t0: float, t1: float, step: float) -> np.ndarray:
    """Sample times: multiples of ``step`` anchored at absolute zero, plus endpoints.

    Anchoring to absolute multiples makes window extraction invariant under
    subdivision of the horizon at grid-aligned points.  The multiples hold
    ``np.arange``'s values, start + i * ((start + step) - start), in one array with the endpoints.
    """
    start = math.ceil(t0 / step) * step
    grid = np.arange(-1.0, max(math.ceil((t1 - start) / step), 0) + 1.0)
    grid *= (start + step) - start
    grid += start
    # Keep only the ascending run of multiples strictly inside the horizon: t0 may
    # itself be a multiple, and rounding can put the first or last one past an endpoint.
    grid = grid[grid[1:-1].searchsorted(t0, "right"):grid[1:-1].searchsorted(t1) + 2]
    grid[0], grid[-1] = t0, t1
    return grid


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


def _block_bounds(grid: np.ndarray, size: int, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre time and half-width of the given blocks of ``size`` samples."""
    first = blocks * size
    last = grid[np.minimum(first + size, grid.size) - 1]
    first = grid[first]
    return 0.5 * (first + last), 0.5 * (last - first)


def _scan(
    elements: OrbitElements, vectors: tuple[np.ndarray, ...], limits: np.ndarray, grid: np.ndarray,
    top: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One satellite's search on the coarse ``grid`` over targets given by
    their unit ``vectors`` (``_target_vector`` as arrays) and ``limits``, each
    visible while psi is at most its limit; ``top`` is ``_block_bounds`` of
    the first level's blocks, as one row.  For each target, whether its first
    and its last sample are visible and its number of visibility changes;
    then every change of every target, in target order, as a bracket (lo, hi)
    of neighbouring grid samples with the visibility at lo.

    Each target's grid is a list of blocks [lo, hi) in time order, each
    proven empty, proven full or open, and a run of blocks proven alike is
    one block.  Each level cuts the open blocks into blocks of its size and
    tests their centres; then the samples of the blocks still open are read.
    The track is computed once per level, at the children of the distinct
    open blocks of all targets.  Every sample's visibility is then known,
    so every change lies between two neighbouring samples.
    """
    n, count = grid.size, limits.size
    rate = 2.0 * math.pi / elements[0] + EARTH_ROTATION_RAD_S
    # Each target's list starts as one open block of the whole grid.
    parent = LEVELS[0] * top[0].size
    target, lo, hi = np.arange(count), np.zeros(count, int), np.full(count, n)
    unproven, visible = np.ones(count, bool), np.zeros(count, bool)
    for size in LEVELS + (1,):
        # Psi at the children of each open block, one row per block; a child
        # past the grid's end repeats its last block.
        ratio, rows = parent // size, np.flatnonzero(unproven)
        up, own = lo[rows] // parent, target[rows]
        needed = np.zeros(-(-n // parent), bool)
        needed[up] = True
        distinct = np.flatnonzero(needed)
        blocks = np.minimum(distinct[:, None] * ratio + np.arange(ratio), (n - 1) // size)
        centre, half = top if size == LEVELS[0] else _block_bounds(grid, size, blocks)
        track = _ground_vector(elements, centre.ravel())
        where = np.zeros(needed.size, int)
        where[distinct] = np.arange(distinct.size)
        where = where[up]
        psi = _psi(tuple(a.reshape(-1, ratio)[where] for a in track), tuple(a[own, None] for a in vectors))
        if size == 1:
            break
        margin = np.subtract(psi, limits[own, None], out=psi)
        # A child is proven full (empty) when psi at its centre is within
        # (beyond) the limit by at least as far as psi can travel to its
        # farthest sample.
        travel = rate * half[where] + PROOF_SLACK_RAD
        # A child lies inside the grid unless its first sample, capped at n, is n.
        inside = (np.minimum(lo[rows, None] + np.arange(ratio) * size, n) - n).astype(bool)
        full, open_ = (margin <= -travel)[inside], ((margin > -travel) & (margin < travel))[inside]
        parts = np.where(unproven, -(-(hi - lo) // size), 1)
        which = np.repeat(np.arange(parts.size), parts)
        lo = lo[which] + (np.arange(which.size) - np.repeat(np.cumsum(parts) - parts, parts)) * size
        target, hi, unproven, visible = target[which], hi[which], unproven[which], visible[which]
        hi = np.where(unproven, np.minimum(lo + size, hi), hi)
        fresh = np.flatnonzero(unproven)
        visible[fresh], unproven[fresh] = full, open_
        # lo is 0 only at a target's first block.
        alike = ~(unproven[1:] | unproven[:-1]) & (visible[1:] == visible[:-1]) & lo[1:].astype(bool)
        keep = np.flatnonzero(np.append(True, ~alike))
        hi = hi[np.append(keep[1:], lo.size) - 1]
        target, lo, unproven, visible = target[keep], lo[keep], unproven[keep], visible[keep]
        parent = size
        # Free this level's arrays before the next level builds its own.
        del psi, margin, travel, which, fresh, keep

    # Each block's samples in a row: a proven block's state, an open block's
    # samples read exactly.  A change just before a row's first sample is a
    # change from the last sample of the block before it.
    samples = np.repeat(visible, ratio).reshape(-1, ratio)
    samples[rows] = psi <= limits[own, None]
    flat, first = samples.ravel(), ~lo.astype(bool)
    step = np.append(False, flat[1:] != flat[:-1]).reshape(-1, ratio)
    step[:, 0] &= ~first
    block, sample = np.nonzero(step)
    change = block * ratio + sample
    sample += lo[block]
    return (samples[first, 0], samples[np.append(first[1:], True), -1], np.bincount(target[block], minlength=count),
            grid[sample - 1], grid[sample], flat[change - 1])


def constellation_windows(
    satellites: Sequence[SatelliteSpec],
    stations: Sequence[GroundStationSpec],
    aois: Sequence[AreaOfInterest],
    horizon: tuple[float, float],
    coarse_step: float = DEFAULT_COARSE_STEP_S,
) -> list[tuple[list[list[Window]], list[list[Window]]]]:
    """For each satellite, the contact windows of each station and the access
    windows of each AOI, in their order, from one search of the whole
    constellation.  Each list is what ``contact_windows`` or
    ``access_windows`` gives for that satellite and target alone.

    A station is visible while psi is at most ``_contact_limit`` of its mask,
    an AOI while psi is at most its reach over R.  A run of visible coarse
    samples is a window; its edges are the horizon ends or the refined
    visibility changes next to the run.  The coarse grid and its first-level
    blocks are built once, each satellite is scanned on them, and no grid
    outlives the scans.  Then the crossings of every satellite and target
    are bisected together, each one carrying its satellite's elements and
    its target's unit vector and limit, so the track is evaluated
    once per bisection step for the whole constellation and every crossing
    follows the midpoints it would follow alone.
    """
    t0, t1 = horizon
    if t0 >= t1:
        raise ValidationError("horizon must satisfy t0 < t1")
    if coarse_step <= 0:
        raise ValidationError("coarse step must be positive")
    if not (satellites and (stations or aois)):
        return [([], []) for _ in satellites]
    grid = _coarse_grid(t0, t1, coarse_step)
    top = _block_bounds(grid, LEVELS[0], np.arange(-(-grid.size // LEVELS[0]))[None, :])
    units = [_target_vector(s.location.lat, s.location.lon) for s in stations]
    units += [_target_vector(a.center.lat, a.center.lon) for a in aois]
    vectors = tuple(np.array(a) for a in zip(*units))
    heads, tails, counts, rows, brackets = [], [], [], [], []
    for sat in satellites:
        elements = _elements(sat)
        limits = np.array([_contact_limit(sat.altitude_km, s.min_elevation_deg) for s in stations]
                          + [(sat.swath_km / 2.0 + a.radius_km) / EARTH_RADIUS_KM for a in aois])
        head, tail, count, *found = _scan(elements, vectors, limits, grid, top)
        heads += head.tolist()
        tails += tail.tolist()
        counts += count.tolist()
        brackets.append(found)
        rows += [(*elements, *v, limit) for v, limit in zip(units, limits.tolist())]
    del grid, top
    lo, hi, lo_inside = (np.concatenate(b) for b in zip(*brackets))
    del brackets
    columns = np.repeat(np.array(rows), counts, axis=0).T
    elements_x, vectors_x, limit_x = tuple(columns[:5]), tuple(columns[5:8]), columns[8]

    def visible(t: np.ndarray) -> np.ndarray:
        return _psi(_ground_vector(elements_x, t), vectors_x) <= limit_x

    crossings = _bisect_crossings(visible, lo, hi, lo_inside).tolist()
    found, stop = [], 0
    for head, tail, count in zip(heads, tails, counts):
        # Window edges in time order alternate start, end.
        edges = [t0] * head + crossings[stop : stop + count] + [t1] * tail
        stop += count
        found.append([Window(start, end) for start, end in zip(edges[0::2], edges[1::2]) if end > start])
    windows = iter(found)
    return [([next(windows) for _ in stations], [next(windows) for _ in aois]) for _ in satellites]


def contact_windows(
    sat: SatelliteSpec,
    station: GroundStationSpec,
    horizon: tuple[float, float],
    coarse_step: float = DEFAULT_COARSE_STEP_S,
) -> list[Window]:
    """Intervals where the satellite sits above the station's elevation mask.

    Boundaries are refined by bisection to 0.1 s; windows are sorted,
    disjoint and clipped to the horizon.  A pass shorter than the coarse
    step, such as a grazing pass that barely clears the mask, can fall
    between two samples and be missed.
    """
    return constellation_windows((sat,), (station,), (), horizon, coarse_step)[0][0][0]


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
    return constellation_windows((sat,), (), (aoi,), horizon, coarse_step)[0][1][0]
