import dataclasses
import math
import typing

import pytest
from hypothesis import Phase

from eochain import downlink, engine, ground, metrics, model, onboard, orbit, tasking
from eochain.model import (
    AcquisitionMode,
    AreaOfInterest,
    CloudModel,
    DetectionSpec,
    EventModel,
    GeoPoint,
    GroundLatencySpec,
    GroundStationSpec,
    OnboardProcessorSpec,
    PrecisionMode,
    ProcessingLocation,
    SatelliteSpec,
    Scenario,
    ServiceArchetype,
    Triggering,
)

# Hypothesis phases without shrinking, for property tests whose examples
# reach hundreds of rows: shrinking one of them takes minutes, while the
# unshrunk falsifying example is reported at once.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)

# The record types a run builds, each a NamedTuple.
RECORD_TYPES = (
    orbit.Window, downlink.LinkInterval, downlink.TransferRecord, downlink.TransferResult,
    ground.MarketplaceRecord, model.DataProduct, model.Violation, onboard.Scene,
    tasking.ObservationRequest, tasking.Assignment, tasking.TaskingPlan, tasking.Opportunities,
    engine.SimEvent, engine.SimulationTrace, engine.Geometry, metrics.ServiceReport,
    metrics.ComparisonReport, metrics.Table,
)


def make_processor(enabled=True, pre=100.0, inf=100.0, mode=PrecisionMode.FP16):
    return OnboardProcessorSpec(
        preprocess_rate_mpx_s=pre,
        inference_rate_mpx_s=inf,
        precision_mode=mode,
        enabled=enabled,
    )


def make_satellite(sid="sat-a", altitude=550.0, inclination=53.0, raan=0.0,
                   arg_lat=0.0, swath=40.0, gsd=3.0, bands=4, bit_depth=12,
                   processor=None):
    return SatelliteSpec(
        id=sid,
        altitude_km=altitude,
        inclination_deg=inclination,
        raan_deg=raan,
        initial_arg_lat_deg=arg_lat,
        swath_km=swath,
        gsd_m=gsd,
        bands=bands,
        bit_depth=bit_depth,
        processor=processor or make_processor(),
    )


def make_station(sid="gs-a", lat=40.6, lon=16.7, min_el=5.0, rate=400.0, sband=True):
    return GroundStationSpec(
        id=sid,
        location=GeoPoint(lat, lon),
        min_elevation_deg=min_el,
        xband_rate_mbit_s=rate,
        sband_available=sband,
    )


def make_aoi(aid="aoi-a", lat=42.0, lon=13.0, radius=150.0):
    return AreaOfInterest(id=aid, center=GeoPoint(lat, lon), radius_km=radius)


def make_archetype(processing=ProcessingLocation.HYBRID, mmu=3.0,
                   acquisition=AcquisitionMode.SYSTEMATIC,
                   triggering=Triggering.EVENT_DRIVEN, cycle=None):
    return ServiceArchetype(
        processing_location=processing,
        mmu_ha=mmu,
        acquisition_mode=acquisition,
        triggering=triggering,
        periodic_cycle_s=cycle,
    )


def make_scenario(seed=0, horizon=2 * 86400.0, satellites=None, stations=None,
                  aois=None, archetype=None, rate=1.0, monitoring_delay=1800.0,
                  cloud_mean=0.0, cloud_threshold=0.5, detection=None,
                  pdgs_raw=7200.0, pdgs_mask=600.0):
    return Scenario(
        name="test-scenario",
        seed=seed,
        horizon_s=horizon,
        satellites=tuple(satellites or (make_satellite("sat-a", raan=0.0),
                                        make_satellite("sat-b", raan=180.0, arg_lat=90.0))),
        stations=tuple(stations or (make_station(),)),
        aois=tuple(aois or (make_aoi("aoi-a", 42.0, 13.0), make_aoi("aoi-b", 44.5, 9.0))),
        archetype=archetype or make_archetype(),
        event_model=EventModel(rate_per_aoi_per_day=rate, area_log_mean=math.log(5.0), area_log_sd=1.0),
        latencies=GroundLatencySpec(pdgs_raw_s=pdgs_raw, pdgs_mask_s=pdgs_mask),
        monitoring_delay_s=monitoring_delay,
        cloud_model=CloudModel(mean_fraction=cloud_mean, onboard_threshold=cloud_threshold),
        detection=detection or DetectionSpec(),
    )


def numeric_fields(record_type=Scenario):
    """``{"Record.field": field}`` for every int or float field reachable from a scenario record type."""
    found = {}
    hints = typing.get_type_hints(record_type)
    for f in dataclasses.fields(record_type):
        tp = hints[f.name]
        while typing.get_origin(tp) in (tuple, typing.Union):
            tp = typing.get_args(tp)[0]  # the item of a tuple[X, ...], the X of an Optional[X], at any depth
        if dataclasses.is_dataclass(tp):
            found.update(numeric_fields(tp))
        elif tp in (int, float):
            found[f"{record_type.__name__}.{f.name}"] = f
    return found


@pytest.fixture
def small_scenario():
    return make_scenario()
