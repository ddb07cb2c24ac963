import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eochain import orbit
from eochain.model import (
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_S,
    MU_EARTH_M3_S2,
    ValidationError,
    great_circle_km,
)
from eochain.orbit import (
    Window,
    access_windows,
    contact_windows,
    elevation_angle,
    orbital_period,
    satellite_windows,
    subsatellite_point,
    subsatellite_track,
)

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

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            orbital_period(250.0)
        with pytest.raises(ValidationError):
            orbital_period(2500.0)


class TestSubsatellitePoint:
    def test_equatorial_orbit_stays_on_equator(self):
        sat = make_satellite(inclination=0.0)
        for t in (0.0, 1234.5, 50000.0):
            assert subsatellite_point(sat, t).lat == pytest.approx(0.0, abs=1e-9)

    def test_epoch_alignment(self):
        sat = make_satellite(inclination=53.0, raan=0.0, arg_lat=0.0)
        p = subsatellite_point(sat, 0.0)
        assert p.lat == pytest.approx(0.0, abs=1e-9)
        assert p.lon == pytest.approx(0.0, abs=1e-9)

    def test_polar_orbit_closure_after_one_period(self):
        sat = make_satellite(inclination=90.0, raan=0.0, arg_lat=20.0)
        period = orbital_period(sat.altitude_km)
        p0 = subsatellite_point(sat, 0.0)
        p1 = subsatellite_point(sat, period)
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
            p = subsatellite_point(sat, t)
            lat, lon = subsatellite_track(sat, np.asarray([t]))
            assert p.lat == pytest.approx(float(lat[0]), abs=1e-9)
            assert p.lon == pytest.approx(float(lon[0]), abs=1e-9)


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
            point = subsatellite_point(sat, t)
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
                    distance = great_circle_km(subsatellite_point(sat, t), aoi.center)
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


# The reference margins evaluate a fresh track at every call: the elevation
# above the mask and the reach less the ground distance, independent of the
# search's psi <= limit test.
def reference_contacts(sat, station, horizon, step):
    mask = station.min_elevation_deg

    def margin(times):
        return elevation_angle(sat, station, times) - mask

    return reference_windows(margin, horizon, step)


def reference_access(sat, aoi, horizon, step):
    reach = sat.swath_km / 2.0 + aoi.radius_km
    target = orbit._target_angles(aoi.center.lat, aoi.center.lon)

    def margin(times):
        lat, lon = subsatellite_track(sat, times)
        return reach - EARTH_RADIUS_KM * orbit._central_angle(orbit._track_angles(lat, lon), target)

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
    """(horizon, step): t0 and t1 on or off the grid, shorter or longer than one block."""
    step = draw(st.sampled_from([10.0, 0.3]))
    if draw(st.booleans()):
        t0 = draw(st.integers(0, 20000)) * step
    else:
        t0 = draw(st.floats(0.0, 86400.0))
    if draw(st.booleans()):
        length = draw(st.floats(0.01, orbit.BLOCK * step))
    else:
        length = draw(st.floats(orbit.BLOCK * step, 8640.0 * step))
    return (t0, t0 + length), step


class TestBlockSearch:
    @settings(max_examples=150, deadline=None)
    @given(sat=block_satellites, station=block_stations, aoi=block_aois, horizon_step=block_horizons())
    def test_windows_equal_full_grid_reference(self, sat, station, aoi, horizon_step):
        horizon, step = horizon_step
        assert contact_windows(sat, station, horizon, step) == reference_contacts(sat, station, horizon, step)
        assert access_windows(sat, aoi, horizon, step) == reference_access(sat, aoi, horizon, step)

    @pytest.mark.parametrize("start, end", [(283.0, 315.0), (315.0, 347.0)])
    def test_window_edge_beside_proven_block(self, start, end):
        # A retrograde equatorial orbit moves the subsatellite point along the
        # equator at the full rate n + w_E.  A window edge at 315 s lies
        # between grid samples 31 and 32, the first block boundary, and the
        # block on its far side is proven empty.
        sat = make_satellite(inclination=180.0, swath=40.0)
        rate = 2.0 * math.pi / orbital_period(sat.altitude_km) + EARTH_ROTATION_RAD_S
        centre_lon = -math.degrees(rate * (start + end) / 2.0)
        aoi = make_aoi("equator", 0.0, centre_lon, radius=rate * (end - start) / 2.0 * EARTH_RADIUS_KM - 20.0)
        windows = access_windows(sat, aoi, (0.0, 2000.0))
        assert windows == reference_access(sat, aoi, (0.0, 2000.0), 10.0)
        assert len(windows) == 1
        assert windows[0].start == pytest.approx(start, abs=orbit.BISECTION_TOL_S)
        assert windows[0].end == pytest.approx(end, abs=orbit.BISECTION_TOL_S)

    @settings(max_examples=300, deadline=None)
    @given(sat=block_satellites, lat=st.floats(-90.0, 90.0), lon=st.floats(-180.0, 180.0),
           t=st.floats(0.0, 400.0 * DAY), dt=st.floats(0.0, 6000.0))
    def test_central_angle_rate_bounded_by_mean_motion_plus_earth_rotation(self, sat, lat, lon, t, dt):
        rate = 2.0 * math.pi / orbital_period(sat.altitude_km) + EARTH_ROTATION_RAD_S
        track_lat, track_lon = subsatellite_track(sat, np.array([t, t + dt]))
        psi = orbit._central_angle(orbit._track_angles(track_lat, track_lon), orbit._target_angles(lat, lon))
        # Rounding in psi is what the proof slack allows for.
        assert abs(psi[1] - psi[0]) <= rate * dt + orbit.PROOF_SLACK_RAD / 2


class TestSatelliteSearch:
    @settings(max_examples=60, deadline=None)
    @given(sat=block_satellites, stations=st.lists(block_stations, min_size=2, max_size=4),
           aois=st.lists(block_aois, min_size=2, max_size=4), horizon_step=block_horizons())
    def test_each_target_equals_its_full_grid_reference(self, sat, stations, aois, horizon_step):
        # Targets scattered over the globe need different samples and
        # crossings; each must get the windows it would get alone.
        horizon, step = horizon_step
        contacts, accesses = satellite_windows(sat, stations, aois, horizon, step)
        assert contacts == [reference_contacts(sat, station, horizon, step) for station in stations]
        assert accesses == [reference_access(sat, aoi, horizon, step) for aoi in aois]

    @pytest.mark.parametrize("start, end, other", [(283.0, 315.0, (400.0, 500.0)), (315.0, 347.0, (100.0, 200.0))])
    def test_edge_beside_own_proven_block_that_another_target_needs(self, start, end, other):
        # The geometry of TestBlockSearch.test_window_edge_beside_proven_block,
        # with a second AOI whose window lies in the block the first AOI's
        # proof skips: the shared samples hold that block, and the first AOI
        # must still read only its own.
        sat = make_satellite(inclination=180.0, swath=40.0)
        rate = 2.0 * math.pi / orbital_period(sat.altitude_km) + EARTH_ROTATION_RAD_S

        def equator_aoi(aid, a, b):
            radius = rate * (b - a) / 2.0 * EARTH_RADIUS_KM - sat.swath_km / 2.0
            return make_aoi(aid, 0.0, -math.degrees(rate * (a + b) / 2.0), radius=radius)

        aois = (equator_aoi("edge", start, end), equator_aoi("other", *other))
        _, accesses = satellite_windows(sat, (), aois, (0.0, 2000.0))
        assert accesses == [reference_access(sat, aoi, (0.0, 2000.0), 10.0) for aoi in aois]
        assert [len(windows) for windows in accesses] == [1, 1]
        window = accesses[0][0]
        assert (window.start, window.end) == pytest.approx((start, end), abs=orbit.BISECTION_TOL_S)

    def test_no_targets_find_nothing(self):
        assert satellite_windows(make_satellite(), (), (), (0.0, DAY)) == ([], [])
