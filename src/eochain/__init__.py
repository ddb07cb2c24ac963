"""Deterministic discrete-event simulator of Earth-observation service chains.

Quantifies, under identical event traces, the service-level difference
between remote-only (downlink-first) processing and hybrid onboard/ground
processing for an event-driven burnt-area mapping service.
"""

from .engine import SimulationTrace, rng_stream, run
from .metrics import (
    ComparisonReport,
    ServiceReport,
    build_service_report,
    compare_architectures,
    end_to_end_latency,
    time_to_first_info,
)
from .model import (
    AreaOfInterest,
    CloudModel,
    DataProduct,
    DetectionSpec,
    EventModel,
    FireEvent,
    GeoPoint,
    GroundLatencySpec,
    GroundStationSpec,
    OnboardProcessorSpec,
    ProductKind,
    SatelliteSpec,
    Scenario,
    ServiceArchetype,
    ValidationError,
    mask_volume,
    scene_volume,
    validate_scenario,
)
from .presets import effis_like, get_preset, iride_heo
from .scenario_io import load_scenario, save_scenario

__version__ = "0.1.0"

__all__ = [
    "AreaOfInterest",
    "CloudModel",
    "ComparisonReport",
    "DataProduct",
    "DetectionSpec",
    "EventModel",
    "FireEvent",
    "GeoPoint",
    "GroundLatencySpec",
    "GroundStationSpec",
    "OnboardProcessorSpec",
    "ProductKind",
    "SatelliteSpec",
    "Scenario",
    "ServiceArchetype",
    "ServiceReport",
    "SimulationTrace",
    "ValidationError",
    "build_service_report",
    "compare_architectures",
    "effis_like",
    "end_to_end_latency",
    "get_preset",
    "iride_heo",
    "load_scenario",
    "mask_volume",
    "rng_stream",
    "run",
    "save_scenario",
    "scene_volume",
    "time_to_first_info",
    "validate_scenario",
]
