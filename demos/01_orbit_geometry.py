"""Ground tracks, station contacts and AOI access windows.

Walks through the geometry layer: propagate a satellite, look at its
ground track, then compute when a ground station can see it and when a
monitoring cell falls inside its imaging reach.
"""

import numpy as np

from eochain.model import AreaOfInterest, GeoPoint, GroundStationSpec, OnboardProcessorSpec, SatelliteSpec
from eochain.orbit import (
    access_windows,
    contact_windows,
    elevation_angle,
    orbital_period,
    subsatellite_point,
    subsatellite_track,
)

DAY = 86400.0

sat = SatelliteSpec(
    id="demo-sat",
    altitude_km=550.0,
    inclination_deg=53.0,
    raan_deg=0.0,
    initial_arg_lat_deg=0.0,
    swath_km=40.0,
    gsd_m=3.0,
    bands=4,
    bit_depth=12,
    processor=OnboardProcessorSpec(100.0, 100.0),
)

period = orbital_period(sat.altitude_km)
print(f"Orbital period at {sat.altitude_km:.0f} km: {period:.1f} s "
      f"({period / 60:.1f} min, {DAY / period:.1f} revolutions/day)")

print("\nGround track over one revolution (every 1/8 period):")
for k in range(9):
    p = subsatellite_point(sat, k * period / 8)
    print(f"  t = {k * period / 8:7.0f} s   lat = {p.lat:+7.2f}  lon = {p.lon:+8.2f}")

lats, _ = subsatellite_track(sat, np.linspace(0, 10 * period, 5000))
print(f"\nLatitude excursion over 10 revolutions: [{lats.min():+.2f}, {lats.max():+.2f}] "
      f"(bounded by the {sat.inclination_deg:.0f} deg inclination)")

station = GroundStationSpec(
    id="demo-station", location=GeoPoint(40.65, 16.70),
    min_elevation_deg=5.0, xband_rate_mbit_s=400.0,
)
contacts = contact_windows(sat, station, (0.0, DAY))
print(f"\nContacts with a station at ({station.location.lat}, {station.location.lon}) "
      f"over 24 h: {len(contacts)}")
for w in contacts:
    # The peak elevation, sampled at 1 s across the pass.
    peak = elevation_angle(sat, station, np.linspace(w.start, w.end, int(w.duration) + 2)).max()
    print(f"  {w.start:8.1f} .. {w.end:8.1f} s  ({w.duration:5.1f} s, "
          f"peak elevation {peak:5.1f} deg)")

aoi = AreaOfInterest(id="demo-cell", center=GeoPoint(42.0, 13.0), radius_km=180.0)
accesses = access_windows(sat, aoi, (0.0, DAY))
print(f"\nImaging opportunities over the {aoi.radius_km:.0f} km monitoring cell "
      f"in 24 h: {len(accesses)}")
for w in accesses:
    print(f"  {w.start:8.1f} .. {w.end:8.1f} s  ({w.duration:5.1f} s)")
