"""Built-in scenario presets.

Two service archetypes are shipped: a high-resolution hybrid
onboard/ground constellation over national-scale monitoring cells
(``iride-heo``) and a medium-resolution, ground-only, daily-batch service
in the mold of continental burnt-area mapping (``effis-like``).  Both are
built by ``_service``, which holds the segment they share (seed, horizon,
monitoring cells, stations, event model, ground latencies, monitoring delay,
cloud model, detection), so they differ only in name, satellites and
archetype, and runs on a common seed or a common fixed event list are
directly comparable.  The presets take no parameters: a variant is
``dataclasses.replace(get_preset(name), seed=..., horizon_s=...)``.

Where the underlying system leaves parameters open (constellation size,
inclination, swath of the medium-res platform, station network, link rate)
the values below are declared defaults, chosen so each preset lands in its
intended timeliness class; every one of them is an ordinary scenario knob.
"""

from __future__ import annotations

from .model import (
    AcquisitionMode,
    AreaOfInterest,
    CloudModel,
    EventModel,
    GeoPoint,
    GroundLatencySpec,
    GroundStationSpec,
    OnboardProcessorSpec,
    ProcessingLocation,
    SatelliteSpec,
    Scenario,
    ServiceArchetype,
    Triggering,
)

# Circular monitoring cells tiling a national territory (Italy-like extent).
_MONITORING_CELLS = (
    AreaOfInterest("aoi-nw", GeoPoint(45.4, 8.2), 180.0),
    AreaOfInterest("aoi-ne", GeoPoint(45.6, 12.6), 180.0),
    AreaOfInterest("aoi-center-north", GeoPoint(43.4, 11.2), 180.0),
    AreaOfInterest("aoi-center-south", GeoPoint(41.9, 14.1), 180.0),
    AreaOfInterest("aoi-south", GeoPoint(40.4, 16.3), 180.0),
    AreaOfInterest("aoi-calabria-sicily", GeoPoint(38.2, 15.3), 180.0),
    AreaOfInterest("aoi-sardinia", GeoPoint(40.1, 9.0), 180.0),
)

# X-band capable network with S-band telecommand at each site.
_STATIONS = (
    GroundStationSpec("gs-matera", GeoPoint(40.65, 16.70), 5.0, 400.0),
    GroundStationSpec("gs-wallops", GeoPoint(37.94, -75.47), 5.0, 400.0),
    GroundStationSpec("gs-malindi", GeoPoint(-2.99, 40.19), 5.0, 400.0),
)


def _service(name: str, satellites: tuple[SatelliteSpec, ...], archetype: ServiceArchetype) -> Scenario:
    """A service with the given platform and archetype over the segment every preset shares."""
    return Scenario(
        name=name,
        seed=0,
        horizon_s=7 * 86400.0,
        satellites=satellites,
        stations=_STATIONS,
        aois=_MONITORING_CELLS,
        archetype=archetype,
        event_model=EventModel(rate_per_aoi_per_day=0.2, area_log_mean=1.6094379124341003, area_log_sd=1.0),
        latencies=GroundLatencySpec(pdgs_raw_s=7200.0, pdgs_mask_s=600.0),
        monitoring_delay_s=1800.0,
        cloud_model=CloudModel(mean_fraction=0.1, onboard_threshold=0.5),
    )


def iride_heo() -> Scenario:
    """High-resolution hybrid service: systematic imaging, event-driven products.

    A mid-inclination micro-constellation: 53 degrees keeps every pass near
    the monitored mid-latitude band, which is what drives sub-day revisit
    without agile pointing.
    """
    n = 12
    processor = OnboardProcessorSpec(preprocess_rate_mpx_s=100.0, inference_rate_mpx_s=100.0)
    satellites = tuple(
        SatelliteSpec(
            id=f"heo-{k:02d}",
            altitude_km=550.0,
            inclination_deg=53.0,
            raan_deg=(k * 360.0 / n) % 360.0,
            initial_arg_lat_deg=(k * 137.0) % 360.0,
            swath_km=40.0,
            gsd_m=3.0,
            bands=4,
            bit_depth=12,
            processor=processor,
        )
        for k in range(n)
    )
    return _service("iride-heo", satellites, ServiceArchetype(
        processing_location=ProcessingLocation.HYBRID,
        mmu_ha=3.0,
        acquisition_mode=AcquisitionMode.SYSTEMATIC,
        triggering=Triggering.EVENT_DRIVEN,
    ))


def effis_like() -> Scenario:
    """Medium-resolution ground-only service with daily batch production."""
    platform = SatelliteSpec(
        id="medres-01",
        altitude_km=786.0,
        inclination_deg=98.6,
        raan_deg=0.0,
        initial_arg_lat_deg=0.0,
        swath_km=290.0,
        gsd_m=20.0,
        bands=4,
        bit_depth=12,
        processor=OnboardProcessorSpec(preprocess_rate_mpx_s=100.0, inference_rate_mpx_s=100.0, enabled=False),
    )
    return _service("effis-like", (platform,), ServiceArchetype(
        processing_location=ProcessingLocation.GROUND,
        mmu_ha=10.0,
        acquisition_mode=AcquisitionMode.SYSTEMATIC,
        triggering=Triggering.PERIODIC,
        periodic_cycle_s=86400.0,
    ))


BUILTIN_PRESETS = {
    "iride-heo": iride_heo,
    "effis-like": effis_like,
}


def get_preset(name: str) -> Scenario:
    if name not in BUILTIN_PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(BUILTIN_PRESETS)}")
    return BUILTIN_PRESETS[name]()
