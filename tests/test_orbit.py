import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eochain import orbit
from eochain.model import (
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_S,
    MU_EARTH_M3_S2,
    GeoPoint,
    ValidationError,
    arc_km,
    sphere_terms,
)
from eochain.orbit import (
    Window,
    access_windows,
    constellation_windows,
    contact_windows,
    elevation_angle,
    orbital_period,
    subsatellite_track,
)
from eochain.presets import effis_like, iride_heo

from conftest import make_aoi, make_satellite, make_station

DAY = 86400.0


def random_satellite(rng, sid="sat-r"):
    return make_satellite(
        sid=sid,
        altitude=rng.uniform(400.0, 900.0),
        inclination=rng.uniform(20.0, 110.0),
        raan=rng.uniform(0.0, 360.0),
        arg_lat=rng.uniform(0.0, 360.0),
        swath=rng.uniform(20.0, 200.0),
    )


def track_point(sat, t):
    """The subsatellite point at one time ``t``."""
    lat, lon = subsatellite_track(sat, np.array([t]))
    return GeoPoint(float(lat[0]), float(lon[0]))


# An oracle that shares no code with orbit: the subsatellite point by its
# latitude and longitude, and psi by the spherical law of cosines.
def oracle_track(sat, t):
    """Ground-track latitude/longitude in degrees at times ``t``."""
    inc = math.radians(sat.inclination_deg)
    t = np.asarray(t, dtype=float)
    period = 2.0 * math.pi * math.sqrt(((EARTH_RADIUS_KM + sat.altitude_km) * 1e3) ** 3 / MU_EARTH_M3_S2)
    u = math.radians(sat.initial_arg_lat_deg) + 2.0 * math.pi * t / period
    sin_u = np.sin(u)
    lat = np.arcsin(np.clip(math.sin(inc) * sin_u, -1.0, 1.0))
    lon = math.radians(sat.raan_deg) + np.arctan2(math.cos(inc) * sin_u, np.cos(u)) - EARTH_ROTATION_RAD_S * t
    return np.degrees(lat), (np.degrees(lon) + 180.0) % 360.0 - 180.0


def oracle_psi(track_lat, track_lon, lat, lon):
    """Central angle (radians) between track points and one target, all in degrees."""
    p1, p2 = np.radians(track_lat), math.radians(lat)
    dlon = np.radians(track_lon) - math.radians(lon)
    cos_psi = np.sin(p1) * math.sin(p2) + np.cos(p1) * math.cos(p2) * np.cos(dlon)
    return np.arccos(np.clip(cos_psi, -1.0, 1.0))


def oracle_elevation(sat, lat, lon, t):
    """Elevation (degrees) of the satellite above the horizon of the point (lat, lon)."""
    k = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + sat.altitude_km)
    psi = oracle_psi(*oracle_track(sat, t), lat, lon)
    return np.degrees(np.arctan2(np.cos(psi) - k, np.sin(psi)))


def reference_grid(t0, t1, step):
    """The coarse grid as it was built: ``np.arange``, a masked copy and a concatenation."""
    interior = np.arange(math.ceil(t0 / step) * step, t1, step)
    interior = interior[(interior > t0) & (interior < t1)]
    return np.concatenate(([t0], interior, [t1]))


class TestCoarseGrid:
    @settings(max_examples=400, deadline=None)
    @given(step=st.floats(0.01, 200.0) | st.sampled_from([0.1, 0.3, 1 / 3, 7.7, 10.0, 29.999, 60.0]),
           k=st.integers(-10**6, 10**6),
           offset=st.sampled_from([0.0, 1e-9, -1e-9, 5e-324, -5e-324]) | st.floats(-1.0, 1.0),
           span=st.floats(0.0, 5000.0) | st.integers(0, 300), at_step=st.booleans())
    def test_equals_arange_mask_and_concatenate(self, step, k, offset, span, at_step):
        # t0 on or beside a multiple of the step; t1 a whole number of steps
        # later, where rounding can put the last multiple on or past it.
        t0 = k * step + offset * step
        t1 = t0 + (span * step if at_step else float(span))
        expected, grid = reference_grid(t0, t1, step), orbit._coarse_grid(t0, t1, step)
        assert grid.dtype == expected.dtype and grid.shape == expected.shape
        assert grid.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("days", [2, 7])
    def test_peak_is_the_grid(self, days):
        orbit._coarse_grid(0.0, days * DAY, orbit.DEFAULT_COARSE_STEP_S)
        tracemalloc.start()
        try:
            grid = orbit._coarse_grid(0.0, days * DAY, orbit.DEFAULT_COARSE_STEP_S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grid.nbytes + 64 * 1024


class TestOrbitalPeriod:
    def test_reference_altitude(self):
        # Kepler's third law, hand-evaluated: a = 6921 km -> ~5730 s.
        assert orbital_period(550.0) == pytest.approx(5730.0, abs=1.0)

    def test_direct_formula(self):
        a = (EARTH_RADIUS_KM + 700.0) * 1e3
        assert orbital_period(700.0) == pytest.approx(2 * math.pi * math.sqrt(a**3 / MU_EARTH_M3_S2))

    def test_monotone_in_altitude(self):
        assert orbital_period(500.0) < orbital_period(600.0)
        rng = random.Random(3)
        for _ in range(50):
            a1 = rng.uniform(300.0, 1999.0)
            a2 = rng.uniform(a1 + 0.5, 2000.0)
            assert orbital_period(a1) < orbital_period(a2)


class TestSubsatellitePoint:
    def test_equatorial_orbit_stays_on_equator(self):
        sat = make_satellite(inclination=0.0)
        lat, _ = subsatellite_track(sat, np.array([0.0, 1234.5, 50000.0]))
        assert lat == pytest.approx(0.0, abs=1e-9)

    def test_epoch_alignment(self):
        sat = make_satellite(inclination=53.0, raan=0.0, arg_lat=0.0)
        p = track_point(sat, 0.0)
        assert p.lat == pytest.approx(0.0, abs=1e-9)
        assert p.lon == pytest.approx(0.0, abs=1e-9)

    def test_polar_orbit_closure_after_one_period(self):
        sat = make_satellite(inclination=90.0, raan=0.0, arg_lat=20.0)
        period = orbital_period(sat.altitude_km)
        p0 = track_point(sat, 0.0)
        p1 = track_point(sat, period)
        assert p1.lat == pytest.approx(p0.lat, abs=1e-6)
        # Longitude shifted west by one rotation-period's worth of Earth spin.
        expected_shift = math.degrees(EARTH_ROTATION_RAD_S * period)
        diff = (p0.lon - p1.lon) % 360.0
        assert diff == pytest.approx(expected_shift, abs=1e-6)

    def test_latitude_bounded_by_inclination(self):
        rng = random.Random(5)
        for _ in range(100):
            sat = random_satellite(rng)
            times = np.asarray([rng.uniform(0, 10 * DAY) for _ in range(64)])
            lat, _ = subsatellite_track(sat, times)
            bound = min(sat.inclination_deg, 180.0 - sat.inclination_deg)
            assert np.all(np.abs(lat) <= bound + 1e-9)

    def test_scalar_and_vector_paths_agree(self):
        rng = random.Random(17)
        for _ in range(20):
            sat = random_satellite(rng)
            t = rng.uniform(0, DAY)
            lat, lon = subsatellite_track(sat, t)
            p = track_point(sat, t)
            assert p.lat == pytest.approx(float(lat), abs=1e-9)
            assert p.lon == pytest.approx(float(lon), abs=1e-9)

    def test_track_and_elevation_equal_latitude_longitude_oracle(self):
        # Random satellites, stations and times over 400 days: the track and
        # the elevation, both read from unit vectors, against the oracle.
        # Longitude is compared away from the poles, where it is ill-defined.
        rng = random.Random(47)
        for _ in range(200):
            sat = random_satellite(rng)
            lat, lon = rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)
            station = make_station(lat=lat, lon=lon)
            times = np.array([rng.uniform(0.0, 400.0 * DAY) for _ in range(500)])
            track_lat, track_lon = subsatellite_track(sat, times)
            expected_lat, expected_lon = oracle_track(sat, times)
            assert np.array_equal(track_lat, expected_lat)
            off_pole = np.abs(expected_lat) <= 89.9
            lon_error = (track_lon - expected_lon + 180.0) % 360.0 - 180.0
            assert np.all(np.abs(lon_error[off_pole]) <= 1e-9)
            elevation = elevation_angle(sat, station, times)
            assert np.all(np.abs(elevation - oracle_elevation(sat, lat, lon, times)) <= 1e-8)


class TestElevationAngle:
    def test_directly_overhead(self):
        sat = make_satellite(inclination=0.0)
        station = make_station(lat=0.0, lon=0.0)
        assert elevation_angle(sat, station, 0.0) == pytest.approx(90.0, abs=1e-6)

    def test_quarter_circle_away_is_deep_below_horizon(self):
        sat = make_satellite(inclination=0.0)
        station = make_station(lat=0.0, lon=90.0)
        assert elevation_angle(sat, station, 0.0) < -30.0

    @pytest.mark.parametrize("altitude", [300.0, 2000.0])
    @pytest.mark.parametrize("mask", [0.0, 30.0, 60.0, 89.0])
    def test_contact_limit_is_where_elevation_equals_mask(self, altitude, mask):
        limit = orbit._contact_limit(altitude, mask)
        assert 0.0 < limit < math.pi / 2
        assert orbit._elevation(np.array([limit]), altitude)[0] == pytest.approx(mask, abs=1e-9)

    def test_zero_elevation_at_horizon_angle(self):
        # elevation = 0 exactly where cos(psi) = R / (R + h).
        sat = make_satellite(inclination=0.0, altitude=550.0)
        psi = math.degrees(math.acos(EARTH_RADIUS_KM / (EARTH_RADIUS_KM + 550.0)))
        station = make_station(lat=0.0, lon=psi)
        assert elevation_angle(sat, station, 0.0) == pytest.approx(0.0, abs=1e-9)


class TestContactWindows:
    def test_pole_never_sees_equatorial_orbit(self):
        sat = make_satellite(inclination=0.0)
        station = make_station(lat=89.0, lon=0.0)
        assert contact_windows(sat, station, (0.0, DAY)) == []

    def test_polar_orbit_over_polar_station_every_revolution(self):
        sat = make_satellite(inclination=90.0)
        station = make_station(lat=89.0, lon=0.0, min_el=5.0)
        windows = contact_windows(sat, station, (0.0, DAY))
        revolutions = DAY / orbital_period(sat.altitude_km)
        assert len(windows) >= int(revolutions) - 1

    def test_boundary_elevations_match_mask(self):
        rng = random.Random(21)
        for _ in range(20):
            sat = random_satellite(rng)
            station = make_station(lat=rng.uniform(-70, 70), lon=rng.uniform(-180, 180),
                                   min_el=rng.uniform(0.0, 15.0))
            for w in contact_windows(sat, station, (0.0, DAY)):
                for t in (w.start, w.end):
                    if t in (0.0, DAY):
                        continue  # clamped at the horizon edge, not a crossing
                    el = elevation_angle(sat, station, t)
                    assert abs(el - station.min_elevation_deg) < 0.05

    def test_windows_disjoint_sorted_contained(self):
        rng = random.Random(23)
        for _ in range(10):
            sat = random_satellite(rng)
            station = make_station(lat=rng.uniform(-60, 60), lon=rng.uniform(-180, 180))
            windows = contact_windows(sat, station, (1000.0, DAY))
            for w in windows:
                assert 1000.0 <= w.start < w.end <= DAY
            for a, b in zip(windows, windows[1:]):
                assert a.end < b.start

    def test_shrinking_mask_grows_windows(self):
        rng = random.Random(29)
        for _ in range(10):
            sat = random_satellite(rng)
            lat, lon = rng.uniform(-60, 60), rng.uniform(-180, 180)
            tight = make_station(lat=lat, lon=lon, min_el=8.0)
            loose = make_station(lat=lat, lon=lon, min_el=7.0)
            tight_windows = contact_windows(sat, tight, (0.0, DAY))
            loose_windows = contact_windows(sat, loose, (0.0, DAY))
            for w in tight_windows:
                assert any(
                    lw.start <= w.start + 1e-6 and w.end <= lw.end + 1e-6
                    for lw in loose_windows
                )

    def test_invariant_under_grid_aligned_subdivision(self):
        rng = random.Random(31)
        sat = random_satellite(rng)
        station = make_station(lat=45.0, lon=10.0)
        full = contact_windows(sat, station, (0.0, DAY))
        split = 43200.0  # multiple of the 10 s coarse step
        parts = contact_windows(sat, station, (0.0, split)) + contact_windows(
            sat, station, (split, DAY)
        )
        survives = [w for w in full if not (w.start < split < w.end)]
        matched = [w for w in parts if not (abs(w.end - split) < 1e-9 or abs(w.start - split) < 1e-9)]
        assert len(survives) == len(matched)
        for a, b in zip(survives, matched):
            assert a.start == pytest.approx(b.start, abs=1e-9)
            assert a.end == pytest.approx(b.end, abs=1e-9)

    @pytest.mark.parametrize("horizon", [(0.9, 5.0), (2241.9, 2244.9)])
    def test_windows_clipped_to_horizon_off_grid_step(self, horizon):
        # Rounding puts a multiple of 0.3 s just outside each horizon; a
        # station that always sees the satellite must still get exactly it.
        station = make_station(min_el=-90.0)
        windows = contact_windows(make_satellite(), station, horizon, coarse_step=0.3)
        assert [(w.start, w.end) for w in windows] == [horizon]

    def test_bad_horizon_rejected(self):
        sat = make_satellite()
        station = make_station()
        with pytest.raises(ValidationError):
            contact_windows(sat, station, (100.0, 100.0))
        with pytest.raises(ValidationError):
            contact_windows(sat, station, (0.0, DAY), coarse_step=0.0)


class TestAccessWindows:
    def test_aoi_under_track_is_accessed(self):
        rng = random.Random(37)
        for _ in range(10):
            sat = random_satellite(rng)
            t = rng.uniform(1000.0, DAY - 1000.0)
            point = track_point(sat, t)
            aoi = make_aoi("under", point.lat, point.lon, radius=50.0)
            windows = access_windows(sat, aoi, (0.0, DAY))
            assert any(w.start <= t <= w.end for w in windows)

    def test_vanishing_swath_and_radius_yield_nothing(self):
        sat = make_satellite(swath=1e-6)
        aoi = make_aoi("speck", 40.0, 15.0, radius=1e-6)
        assert access_windows(sat, aoi, (0.0, DAY)) == []

    def test_doubling_swath_never_removes_a_window(self):
        rng = random.Random(41)
        for _ in range(10):
            sat = random_satellite(rng)
            wide = make_satellite(sid=sat.id, altitude=sat.altitude_km,
                                  inclination=sat.inclination_deg, raan=sat.raan_deg,
                                  arg_lat=sat.initial_arg_lat_deg, swath=2 * sat.swath_km)
            aoi = make_aoi("cell", rng.uniform(-55, 55), rng.uniform(-180, 180),
                           radius=rng.uniform(50, 200))
            narrow_windows = access_windows(sat, aoi, (0.0, DAY))
            wide_windows = access_windows(wide, aoi, (0.0, DAY))
            for w in narrow_windows:
                assert any(
                    ww.start <= w.start + 1e-6 and w.end <= ww.end + 1e-6
                    for ww in wide_windows
                )

    def test_boundary_distances_match_reach(self):
        # Ground speed <= 8 km/s times the 0.05 s half-bracket bounds the error.
        rng = random.Random(43)
        boundaries = 0
        for _ in range(60):
            sat = random_satellite(rng)
            aoi = make_aoi("cell", rng.uniform(-60, 60), rng.uniform(-180, 180),
                           radius=rng.uniform(100, 500))
            reach = sat.swath_km / 2.0 + aoi.radius_km
            for w in access_windows(sat, aoi, (0.0, DAY)):
                for t in (w.start, w.end):
                    if t in (0.0, DAY):
                        continue  # clamped at the horizon edge, not a crossing
                    distance = arc_km(sphere_terms(track_point(sat, t)), sphere_terms(aoi.center))
                    assert abs(distance - reach) < 0.5
                    boundaries += 1
        assert boundaries > 0


def reference_windows(margin, horizon, step):
    """(start, end) of each window of ``margin(times)``: the margin of the
    grid, a sample-by-sample scan for runs and one scalar bisection per
    crossing."""
    t0, t1 = horizon

    def crossing(lo, hi, lo_inside):
        while hi - lo > orbit.BISECTION_TOL_S:
            mid = 0.5 * (lo + hi)
            if (margin(np.array([mid]))[0] >= 0.0) == lo_inside:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    grid = orbit._coarse_grid(t0, t1, step)
    windows, start = [], None
    for i, value in enumerate(margin(grid)):
        if value >= 0.0:
            if start is None:
                start = t0 if i == 0 else crossing(grid[i - 1], grid[i], False)
        elif start is not None:
            windows.append((start, crossing(grid[i - 1], grid[i], True)))
            start = None
    if start is not None:
        windows.append((start, t1))
    return [Window(float(a), float(b)) for a, b in windows if b > a]


# The reference margins evaluate a fresh track on the full grid at every
# call: the elevation above the mask and the reach less the ground distance,
# read from the search's own unit-vector kernel, so the windows check the
# block proofs and the bisection and not the rounding of another kernel.
def reference_contacts(sat, station, horizon, step):
    mask = station.min_elevation_deg

    def margin(times):
        return elevation_angle(sat, station, times) - mask

    return reference_windows(margin, horizon, step)


def reference_access(sat, aoi, horizon, step):
    reach = sat.swath_km / 2.0 + aoi.radius_km
    target = orbit._target_vector(aoi.center.lat, aoi.center.lon)

    def margin(times):
        return reach - EARTH_RADIUS_KM * orbit._psi(orbit._ground_vector(orbit._elements(sat), times), target)

    return reference_windows(margin, horizon, step)


satellites = st.builds(
    make_satellite,
    altitude=st.floats(400.0, 900.0),
    inclination=st.floats(0.0, 180.0),
    raan=st.floats(0.0, 360.0),
    arg_lat=st.floats(0.0, 360.0),
    swath=st.floats(1.0, 200.0),
)
stations = st.builds(make_station, lat=st.floats(-80.0, 80.0), lon=st.floats(-180.0, 180.0),
                     min_el=st.floats(-20.0, 30.0))
aois = st.builds(make_aoi, lat=st.floats(-80.0, 80.0), lon=st.floats(-180.0, 180.0),
                 radius=st.floats(10.0, 3000.0))


@st.composite
def horizons(draw):
    """(horizon, step): a grid-aligned or off-grid start and a 10 s or 0.3 s step."""
    step = draw(st.sampled_from([10.0, 0.3]))
    if draw(st.booleans()):
        t0 = draw(st.integers(0, 20000)) * step
    else:
        t0 = draw(st.floats(0.0, 86400.0))
    length = draw(st.floats(2.0 * step, 8640.0 * step))
    return (t0, t0 + length), step


class TestSharedTrack:
    @settings(max_examples=100, deadline=None)
    @given(sat_a=satellites, sat_b=satellites, station=stations, aoi=aois, horizon_step=horizons())
    def test_windows_equal_fresh_track_reference(self, sat_a, sat_b, station, aoi, horizon_step):
        # Interleaving A, B, A: no search reads a track another one computed.
        horizon, step = horizon_step
        for sat in (sat_a, sat_b, sat_a):
            assert contact_windows(sat, station, horizon, step) == reference_contacts(sat, station, horizon, step)
            assert access_windows(sat, aoi, horizon, step) == reference_access(sat, aoi, horizon, step)


# The block search: the whole altitude range, masks up to 89 deg, AOIs whose
# reach covers the globe (no block is provable), and horizons shorter than
# one block.
block_satellites = st.builds(
    make_satellite,
    altitude=st.sampled_from([300.0, 2000.0]) | st.floats(300.0, 2000.0),
    inclination=st.floats(0.0, 180.0),
    raan=st.floats(0.0, 360.0),
    arg_lat=st.floats(0.0, 360.0),
    swath=st.floats(1.0, 200.0),
)
block_stations = st.builds(make_station, lat=st.floats(-80.0, 80.0), lon=st.floats(-180.0, 180.0),
                           min_el=st.sampled_from([0.0, 89.0]) | st.floats(0.0, 89.0))
block_aois = st.builds(make_aoi, lat=st.floats(-80.0, 80.0), lon=st.floats(-180.0, 180.0),
                       radius=st.floats(10.0, 3000.0) | st.floats(math.pi * EARTH_RADIUS_KM, 25000.0))


@st.composite
def block_horizons(draw):
    """(horizon, step): t0 and t1 on or off the grid, and a length shorter than
    the smallest block, between two block sizes or longer than the largest."""
    step = draw(st.sampled_from([10.0, 0.3]))
    if draw(st.booleans()):
        t0 = draw(st.integers(0, 20000)) * step
    else:
        t0 = draw(st.floats(0.0, 86400.0))
    bounds = (0.01, *(size * step for size in sorted(orbit.LEVELS)), 8640.0 * step)
    shortest = draw(st.integers(0, len(bounds) - 2))
    length = draw(st.floats(bounds[shortest], bounds[shortest + 1]))
    return (t0, t0 + length), step


def equator_aoi(sat, aid, start, end):
    """An AOI on the equator that a retrograde equatorial satellite, whose
    subsatellite point moves west at the full rate n + w_E, reaches over
    exactly [start, end] from its first revolution."""
    rate = 2.0 * math.pi / orbital_period(sat.altitude_km) + EARTH_ROTATION_RAD_S
    radius = rate * (end - start) / 2.0 * EARTH_RADIUS_KM - sat.swath_km / 2.0
    return make_aoi(aid, 0.0, -math.degrees(rate * (start + end) / 2.0), radius=radius)


class TestBlockSearch:
    @settings(max_examples=150, deadline=None)
    @given(sat=block_satellites, station=block_stations, aoi=block_aois, horizon_step=block_horizons())
    def test_windows_equal_full_grid_reference(self, sat, station, aoi, horizon_step):
        horizon, step = horizon_step
        assert contact_windows(sat, station, horizon, step) == reference_contacts(sat, station, horizon, step)
        assert access_windows(sat, aoi, horizon, step) == reference_access(sat, aoi, horizon, step)

    @pytest.mark.parametrize("start, end", [(283.0, 315.0), (315.0, 347.0)])
    def test_window_edge_beside_proven_block(self, start, end):
        # A window edge at 315 s lies between grid samples 31 and 32, on the
        # boundary of the first two 32-sample blocks, and the block on its
        # far side is proven empty.
        sat = make_satellite(inclination=180.0, swath=40.0)
        aoi = equator_aoi(sat, "equator", start, end)
        windows = access_windows(sat, aoi, (0.0, 2000.0))
        assert windows == reference_access(sat, aoi, (0.0, 2000.0), 10.0)
        assert len(windows) == 1
        assert windows[0].start == pytest.approx(start, abs=orbit.BISECTION_TOL_S)
        assert windows[0].end == pytest.approx(end, abs=orbit.BISECTION_TOL_S)

    @pytest.mark.parametrize("size, blocks", [(8, 1), (32, 1), (128, 1), (128, 3)])
    def test_full_blocks_beside_empty_blocks(self, size, blocks):
        # The window's edges lie halfway between the samples at both ends of
        # the run of blocks [size, (1 + blocks) * size), which is proven full;
        # the blocks on either side of it are proven empty.  The last case is
        # a pass longer than a first-level block.
        sat = make_satellite(inclination=180.0, swath=40.0)
        start, end = (size - 0.5) * 10.0, ((1 + blocks) * size - 0.5) * 10.0
        aoi = equator_aoi(sat, "wide", start, end)
        horizon = (0.0, (2 + blocks) * size * 10.0 + 100.0)
        windows = access_windows(sat, aoi, horizon)
        assert windows == reference_access(sat, aoi, horizon, 10.0)
        assert len(windows) == 1
        assert (windows[0].start, windows[0].end) == pytest.approx((start, end), abs=orbit.BISECTION_TOL_S)

    def test_window_to_the_end_of_a_partial_last_block(self):
        # The horizon ends 275 s into the second first-level block: a partial
        # block that lies wholly inside the window and is proven full.
        sat = make_satellite(inclination=180.0, swath=40.0)
        aoi = equator_aoi(sat, "tail", 1275.0, 2555.0)
        windows = access_windows(sat, aoi, (0.0, 1555.0))
        assert windows == reference_access(sat, aoi, (0.0, 1555.0), 10.0)
        assert len(windows) == 1
        assert windows[0].start == pytest.approx(1275.0, abs=orbit.BISECTION_TOL_S)
        assert windows[0].end == 1555.0

    def test_full_proof_allows_for_rounding(self):
        # The window starts 2.5e-6 s after sample 8 (80 s), the first of its
        # block of 8 samples, and its centre is 5e-6 s after the block's.  Psi
        # at the block's centre, about 6e-9 rad, computes as 0, so without
        # the slack the block would be proven full, sample 8 included.
        sat = make_satellite(inclination=180.0, swath=40.0)
        aoi = equator_aoi(sat, "edge", 80.0 + 2.5e-6, 150.0 + 7.5e-6)
        windows = access_windows(sat, aoi, (0.0, 2000.0))
        assert windows == reference_access(sat, aoi, (0.0, 2000.0), 10.0)
        assert windows[0].start == pytest.approx(80.0, abs=orbit.BISECTION_TOL_S)

    @settings(max_examples=300, deadline=None)
    @given(sat=block_satellites, lat=st.floats(-90.0, 90.0), lon=st.floats(-180.0, 180.0),
           t=st.floats(0.0, 400.0 * DAY), dt=st.floats(0.0, 6000.0))
    def test_central_angle_rate_bounded_by_mean_motion_plus_earth_rotation(self, sat, lat, lon, t, dt):
        rate = 2.0 * math.pi / orbital_period(sat.altitude_km) + EARTH_ROTATION_RAD_S
        track = orbit._ground_vector(orbit._elements(sat), np.array([t, t + dt]))
        psi = orbit._psi(track, orbit._target_vector(lat, lon))
        # Rounding in psi is what the proof slack allows for.
        assert abs(psi[1] - psi[0]) <= rate * dt + orbit.PROOF_SLACK_RAD / 2


class TestVectorKernel:
    @settings(max_examples=300, deadline=None)
    @given(sat=block_satellites, t=st.floats(0.0, 400.0 * DAY),
           place=st.sampled_from(["anywhere", "below", "antipode"]), lat=st.floats(-90.0, 90.0),
           lon=st.floats(-180.0, 180.0), nudge=st.sampled_from([0.0]) | st.floats(-1e-6, 1e-6))
    def test_psi_equals_latitude_longitude_kernel(self, sat, t, place, lat, lon, nudge):
        # The search's psi, from unit vectors, against the latitude/longitude
        # oracle, for any target and for the subsatellite point itself, its
        # antipode and points a hair from either.  Both take acos of a cosine
        # a few ulps from its true value, which near cos psi = +-1 is off by
        # up to sqrt(2 * 4 ulps), 3e-8 rad; elsewhere the two agree to about
        # 1e-12 rad.
        times = np.array([t])
        track_lat, track_lon = oracle_track(sat, times)
        if place == "below":
            lat, lon = track_lat[0] + nudge, track_lon[0] + nudge
        elif place == "antipode":
            lat, lon = nudge - track_lat[0], track_lon[0] + 180.0 + nudge
        reference = oracle_psi(track_lat, track_lon, lat, lon)[0]
        psi = orbit._psi(orbit._ground_vector(orbit._elements(sat), times), orbit._target_vector(lat, lon))[0]
        assert abs(psi - reference) < orbit.PROOF_SLACK_RAD / 20
        if 1e-3 < reference < math.pi - 1e-3:
            assert abs(psi - reference) < orbit.PROOF_SLACK_RAD / 100


class TestSatelliteSearch:
    @settings(max_examples=60, deadline=None)
    @given(sat=block_satellites, stations=st.lists(block_stations, min_size=2, max_size=4),
           aois=st.lists(block_aois, min_size=2, max_size=4), horizon_step=block_horizons())
    def test_each_target_equals_its_full_grid_reference(self, sat, stations, aois, horizon_step):
        # Targets scattered over the globe need different samples and
        # crossings; each must get the windows it would get alone.
        horizon, step = horizon_step
        contacts, accesses = constellation_windows((sat,), stations, aois, horizon, step)[0]
        assert contacts == [reference_contacts(sat, station, horizon, step) for station in stations]
        assert accesses == [reference_access(sat, aoi, horizon, step) for aoi in aois]

    @pytest.mark.parametrize("start, end, other", [(283.0, 315.0, (400.0, 500.0)), (315.0, 347.0, (100.0, 200.0))])
    def test_edge_beside_own_proven_block_that_another_target_needs(self, start, end, other):
        # The geometry of TestBlockSearch.test_window_edge_beside_proven_block,
        # with a second AOI whose window lies in the block the first AOI's
        # proof skips: the shared samples hold that block, and the first AOI
        # must still read only its own.
        sat = make_satellite(inclination=180.0, swath=40.0)
        aois = (equator_aoi(sat, "edge", start, end), equator_aoi(sat, "other", *other))
        _, accesses = constellation_windows((sat,), (), aois, (0.0, 2000.0))[0]
        assert accesses == [reference_access(sat, aoi, (0.0, 2000.0), 10.0) for aoi in aois]
        assert [len(windows) for windows in accesses] == [1, 1]
        window = accesses[0][0]
        assert (window.start, window.end) == pytest.approx((start, end), abs=orbit.BISECTION_TOL_S)

    def test_no_targets_find_nothing(self):
        assert constellation_windows((make_satellite(),), (), (), (0.0, DAY))[0] == ([], [])


class TestConstellationSearch:
    @settings(max_examples=40, deadline=None)
    @given(sats=st.lists(block_satellites, min_size=1, max_size=4),
           stations=st.lists(block_stations, min_size=1, max_size=3),
           aois=st.lists(block_aois, min_size=1, max_size=3), horizon_step=block_horizons())
    def test_each_satellite_equals_its_search_alone(self, sats, stations, aois, horizon_step):
        # All the satellites' crossings share one bisection; each crossing
        # must follow its own satellite's track and reach the bit-identical
        # edge it reaches when its satellite is searched alone.
        horizon, step = horizon_step
        found = constellation_windows(sats, stations, aois, horizon, step)
        assert len(found) == len(sats)
        for sat, windows in zip(sats, found):
            reference = (
                [reference_contacts(sat, station, horizon, step) for station in stations],
                [reference_access(sat, aoi, horizon, step) for aoi in aois],
            )
            assert repr(windows) == repr(constellation_windows((sat,), stations, aois, horizon, step)[0])
            assert repr(windows) == repr(reference)

    def test_no_satellites_find_nothing(self):
        assert constellation_windows((), (make_station(),), (make_aoi(),), (0.0, DAY)) == []


def analytic_access_fraction(inclination_deg, lat_deg, reach_rad, nodes=20000):
    """Long-run fraction of time that a point at latitude ``lat_deg`` lies
    within central angle ``reach_rad`` of the subsatellite point of a circular
    orbit.  The argument of latitude u is uniform in time, and over many
    revolutions the Earth's rotation makes the longitude difference uniform
    and independent of u.  At subsatellite latitude beta, sin beta = sin i sin u,
    the point is within reach over a longitude width dlon(beta); the fraction
    is the mean over u of dlon / 2 pi, by the midpoint rule."""
    u = (np.arange(nodes) + 0.5) * (2.0 * math.pi / nodes)
    sin_beta = math.sin(math.radians(inclination_deg)) * np.sin(u)
    cos_beta = np.sqrt(1.0 - sin_beta**2)
    phi = math.radians(lat_deg)
    cos_dlon = (math.cos(reach_rad) - sin_beta * math.sin(phi)) / (cos_beta * math.cos(phi))
    dlon = 2.0 * np.arccos(np.clip(cos_dlon, -1.0, 1.0))
    return float(np.mean(dlon) / (2.0 * math.pi))


class TestAnalyticAccessFraction:
    @pytest.mark.parametrize("preset", [iride_heo, effis_like], ids=["iride-heo", "effis-like"])
    def test_400_day_access_fraction_matches_quadrature(self, preset):
        # The quadrature shares no code with orbit.  Over 400 days each
        # (satellite, AOI) pair has hundreds of passes, so its fraction
        # settles within a few percent of the long-run one, and the sum over
        # pairs within one percent.
        s = preset()
        horizon = 400.0 * DAY
        found = constellation_windows(s.satellites, (), s.aois, (0.0, horizon))
        simulated, analytic = [], []
        for sat, (_, accesses) in zip(s.satellites, found):
            for aoi, windows in zip(s.aois, accesses):
                simulated.append(sum(w.duration for w in windows) / horizon)
                reach = (sat.swath_km / 2.0 + aoi.radius_km) / EARTH_RADIUS_KM
                analytic.append(analytic_access_fraction(sat.inclination_deg, aoi.center.lat, reach))
        ratios = np.array(simulated) / np.array(analytic)
        assert sum(simulated) / sum(analytic) == pytest.approx(1.0, abs=0.01)
        assert np.all(np.abs(ratios - 1.0) <= 0.05), ratios
