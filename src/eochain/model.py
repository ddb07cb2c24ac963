"""Domain model: value types, physical constants, data-volume arithmetic, validation.

Every quantity that flows through the simulator is defined here.  Data
volumes are tracked in whole bits so that conservation checks can be
exact; times are seconds from the scenario epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Iterator, Optional

# Spherical-Earth constants used throughout.
EARTH_RADIUS_KM = 6371.0
MU_EARTH_M3_S2 = 3.986004418e14
EARTH_ROTATION_RAD_S = 7.2921159e-5

KM2_PER_HA = 0.01
SECONDS_PER_DAY = 86400.0

# Window search: the coarse sampling step, and the most samples a horizon may
# span at that step (2**22 samples of 10 s: about 485 days).
DEFAULT_COARSE_STEP_S = 10.0
MAX_GRID_SAMPLES = 2**22

# The most fire events a scenario may expect over its horizon (rate x AOIs x
# days); the stress scenario expects about 650.
MAX_EVENTS = 10**5


class ValidationError(ValueError):
    """Raised when an operation receives arguments outside its contract."""


class ProcessingLocation(str, Enum):
    GROUND = "Ground"
    HYBRID = "Hybrid"


class AcquisitionMode(str, Enum):
    SYSTEMATIC = "Systematic"
    ON_DEMAND = "OnDemand"


class Triggering(str, Enum):
    PERIODIC = "Periodic"
    EVENT_DRIVEN = "EventDriven"


class PrecisionMode(str, Enum):
    INT8 = "INT8"
    FP16 = "FP16"


class ProductKind(str, Enum):
    RAW_SCENE = "RawScene"
    THEMATIC_MASK = "ThematicMask"
    ROI_CHIP = "RoiChip"


@dataclass(frozen=True)
class GeoPoint:
    """Geographic point; longitude is normalized into [-180, 180) on construction."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lon", (self.lon + 180.0) % 360.0 - 180.0)


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points on the spherical Earth."""
    p1, p2 = math.radians(a.lat), math.radians(b.lat)
    dlon = math.radians(a.lon - b.lon)
    cos_psi = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dlon)
    return EARTH_RADIUS_KM * math.acos(min(1.0, max(-1.0, cos_psi)))


@dataclass(frozen=True)
class AreaOfInterest:
    id: str
    center: GeoPoint
    radius_km: float

    @property
    def area_km2(self) -> float:
        return math.pi * self.radius_km**2


@dataclass(frozen=True)
class OnboardProcessorSpec:
    """Parametric throughput budget of the onboard compute chain."""

    preprocess_rate_mpx_s: float
    inference_rate_mpx_s: float
    precision_mode: PrecisionMode = PrecisionMode.FP16
    enabled: bool = True


# Relative inference speed-up by arithmetic precision; a declared assumption,
# applied multiplicatively to the inference rate.
PRECISION_RATE_FACTOR = {PrecisionMode.FP16: 1.0, PrecisionMode.INT8: 2.0}


@dataclass(frozen=True)
class SatelliteSpec:
    id: str
    altitude_km: float
    inclination_deg: float
    raan_deg: float
    initial_arg_lat_deg: float
    swath_km: float
    gsd_m: float
    bands: int
    bit_depth: int
    processor: OnboardProcessorSpec


@dataclass(frozen=True)
class GroundStationSpec:
    id: str
    location: GeoPoint
    min_elevation_deg: float
    xband_rate_mbit_s: float
    sband_available: bool = True


@dataclass(frozen=True)
class FireEvent:
    id: str
    location: GeoPoint
    start: float
    area_ha: float


@dataclass(frozen=True)
class ServiceArchetype:
    """Service-level character of a product line (one Table-style column)."""

    processing_location: ProcessingLocation
    mmu_ha: float
    acquisition_mode: AcquisitionMode
    triggering: Triggering
    periodic_cycle_s: Optional[float] = None


@dataclass(frozen=True)
class EventModel:
    rate_per_aoi_per_day: float
    area_log_mean: float
    area_log_sd: float


@dataclass(frozen=True)
class GroundLatencySpec:
    pdgs_raw_s: float
    pdgs_mask_s: float


@dataclass(frozen=True)
class CloudModel:
    mean_fraction: float
    onboard_threshold: float


@dataclass(frozen=True)
class DetectionSpec:
    """Statistical detection and product-shaping knobs."""

    accuracy_p: float = 0.95
    chip_margin: float = 2.0
    mask_compression: float = 10.0


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    horizon_s: float
    satellites: tuple[SatelliteSpec, ...]
    stations: tuple[GroundStationSpec, ...]
    aois: tuple[AreaOfInterest, ...]
    archetype: ServiceArchetype
    event_model: EventModel
    latencies: GroundLatencySpec
    monitoring_delay_s: float
    cloud_model: CloudModel
    detection: DetectionSpec = field(default_factory=DetectionSpec)


@dataclass(frozen=True)
class DataProduct:
    """One unit of data moving through the chain; its progress lives in the transfer records."""

    id: str
    kind: ProductKind
    scene_id: str
    event_ids: frozenset[str]
    volume_bits: int
    created: float


def pixel_count(area_km2: float, gsd_m: float) -> int:
    """Whole pixels needed to image ``area_km2`` at ``gsd_m`` resolution."""
    if area_km2 <= 0 or gsd_m <= 0:
        raise ValidationError("area and gsd must be positive")
    return math.ceil(area_km2 * 1e6 / gsd_m**2)


def scene_volume(area_km2: float, gsd_m: float, bands: int, bit_depth: int) -> int:
    """Full-radiometry scene volume in bits."""
    if bands <= 0 or bit_depth <= 0:
        raise ValidationError("bands and bit_depth must be positive")
    return pixel_count(area_km2, gsd_m) * bands * bit_depth


def mask_volume(area_km2: float, gsd_m: float, compression: float) -> int:
    """Binary per-pixel mask volume in bits (1 bit/pixel before compression)."""
    if compression < 1:
        raise ValidationError("compression ratio must be >= 1")
    return math.ceil(pixel_count(area_km2, gsd_m) / compression)


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def _check(out: list[Violation], ok: bool, path: str, message: str) -> None:
    if not ok:
        out.append(Violation(path, message))


def _check_point(out: list[Violation], p: GeoPoint, path: str) -> None:
    _check(out, -90.0 <= p.lat <= 90.0, f"{path}.lat", "latitude must be in [-90, 90]")


def _non_finite_paths(value: object, path: str) -> Iterator[str]:
    """Field path of every non-finite float inside a scenario value."""
    if is_dataclass(value):
        for f in fields(value):
            yield from _non_finite_paths(getattr(value, f.name), f"{path}.{f.name}" if path else f.name)
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _non_finite_paths(item, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield path


def validate_scenario(s: Scenario) -> list[Violation]:
    """Check every type invariant; returns violations sorted by field path."""
    v: list[Violation] = []
    _check(v, 0 <= s.seed < 2**64, "seed", "seed must fit in an unsigned 64-bit integer")
    _check(v, math.isfinite(s.horizon_s) and s.horizon_s > 0, "horizon_s",
           "horizon must be finite and positive")
    _check(v, not math.isfinite(s.horizon_s) or s.horizon_s / DEFAULT_COARSE_STEP_S <= MAX_GRID_SAMPLES,
           "horizon_s", f"horizon must span at most {MAX_GRID_SAMPLES} samples of "
           f"{DEFAULT_COARSE_STEP_S:g} s (about 485 days)")
    _check(v, len(s.satellites) >= 1, "satellites", "at least one satellite required")
    _check(v, len(s.stations) >= 1, "stations", "at least one ground station required")
    _check(v, len(s.aois) >= 1, "aois", "at least one AOI required")

    seen_ids: set[str] = set()
    for i, sat in enumerate(s.satellites):
        p = f"satellites[{i}]"
        _check(v, sat.id not in seen_ids, f"{p}.id", "duplicate identifier")
        seen_ids.add(sat.id)
        _check(v, 300.0 <= sat.altitude_km <= 2000.0, f"{p}.altitude_km",
               "altitude must be in [300, 2000] km")
        _check(v, 0.0 <= sat.inclination_deg <= 180.0, f"{p}.inclination_deg",
               "inclination must be in [0, 180] degrees")
        _check(v, sat.swath_km > 0, f"{p}.swath_km", "swath must be positive")
        _check(v, 0.01 <= sat.gsd_m <= 1e4, f"{p}.gsd_m", "gsd must be in [0.01, 10000] m")
        _check(v, sat.bands >= 1, f"{p}.bands", "at least one band required")
        _check(v, sat.bit_depth >= 1, f"{p}.bit_depth", "bit depth must be >= 1")
        if sat.processor.enabled:
            # At least one pixel per second, so a pipeline latency stays finite.
            _check(v, sat.processor.preprocess_rate_mpx_s >= 1e-6,
                   f"{p}.processor.preprocess_rate_mpx_s",
                   "preprocess rate must be at least 1e-6 Mpx/s when enabled")
            _check(v, sat.processor.inference_rate_mpx_s >= 1e-6,
                   f"{p}.processor.inference_rate_mpx_s",
                   "inference rate must be at least 1e-6 Mpx/s when enabled")

    seen_ids = set()
    for i, stn in enumerate(s.stations):
        p = f"stations[{i}]"
        _check(v, stn.id not in seen_ids, f"{p}.id", "duplicate identifier")
        seen_ids.add(stn.id)
        _check_point(v, stn.location, f"{p}.location")
        _check(v, 0.0 <= stn.min_elevation_deg < 90.0, f"{p}.min_elevation_deg",
               "minimum elevation must be in [0, 90) degrees")
        _check(v, 0 < stn.xband_rate_mbit_s <= 1e6, f"{p}.xband_rate_mbit_s",
               "X-band rate must be positive and at most 1e6 Mbit/s")

    seen_ids = set()
    for i, aoi in enumerate(s.aois):
        p = f"aois[{i}]"
        _check(v, aoi.id not in seen_ids, f"{p}.id", "duplicate identifier")
        seen_ids.add(aoi.id)
        _check_point(v, aoi.center, f"{p}.center")
        # At least 1 m, so the disc's area does not underflow to 0.
        _check(v, 1e-3 <= aoi.radius_km <= math.pi * EARTH_RADIUS_KM, f"{p}.radius_km",
               f"radius must be at least 0.001 km and at most half the Earth's circumference "
               f"({math.pi * EARTH_RADIUS_KM:.0f} km)")

    a = s.archetype
    _check(v, a.mmu_ha > 0, "archetype.mmu_ha", "minimum mapping unit must be positive")
    if a.triggering is Triggering.PERIODIC:
        # At least 1 s, so a delivery time over the cycle stays finite.
        _check(v, a.periodic_cycle_s is not None and a.periodic_cycle_s >= 1.0,
               "archetype.periodic_cycle_s",
               "periodic triggering requires a periodic cycle of at least 1 s")
    else:
        _check(v, a.periodic_cycle_s is None, "archetype.periodic_cycle_s",
               "periodic cycle is only meaningful for periodic triggering")

    em = s.event_model
    _check(v, em.rate_per_aoi_per_day >= 0, "event_model.rate_per_aoi_per_day",
           "event rate must be non-negative")
    # The event budget is judged against a horizon that passed its own checks.
    if math.isfinite(em.rate_per_aoi_per_day) and all(x.path != "horizon_s" for x in v):
        _check(v, em.rate_per_aoi_per_day * len(s.aois) * s.horizon_s / SECONDS_PER_DAY <= MAX_EVENTS,
               "event_model.rate_per_aoi_per_day",
               f"rate x AOIs x horizon days must expect at most {MAX_EVENTS} events")
    # Burn areas exp(mean + sd * z) then stay positive and finite, chips included,
    # for any normal draw |z| < 100.
    _check(v, -20.0 <= em.area_log_mean <= 20.0, "event_model.area_log_mean",
           "log-area mean must be in [-20, 20]")
    _check(v, 0 < em.area_log_sd <= 5.0, "event_model.area_log_sd",
           "log-area spread must be in (0, 5]")

    lat = s.latencies
    _check(v, lat.pdgs_raw_s >= 0, "latencies.pdgs_raw_s", "must be non-negative")
    _check(v, lat.pdgs_mask_s >= 0, "latencies.pdgs_mask_s", "must be non-negative")
    _check(v, lat.pdgs_mask_s <= lat.pdgs_raw_s, "latencies.pdgs_mask_s",
           "mask validation cannot take longer than latencies.pdgs_raw_s")

    _check(v, s.monitoring_delay_s >= 0, "monitoring_delay_s", "must be non-negative")

    cm = s.cloud_model
    _check(v, 0.0 <= cm.mean_fraction <= 1.0, "cloud_model.mean_fraction",
           "mean cloud fraction must be in [0, 1]")
    _check(v, 0.0 <= cm.onboard_threshold <= 1.0, "cloud_model.onboard_threshold",
           "onboard cloud threshold must be in [0, 1]")

    det = s.detection
    _check(v, 0.0 < det.accuracy_p <= 1.0, "detection.accuracy_p",
           "detection probability must be in (0, 1]")
    _check(v, 1.0 <= det.chip_margin <= 100.0, "detection.chip_margin",
           "chip margin must be in [1, 100]")
    _check(v, det.mask_compression >= 1.0, "detection.mask_compression",
           "mask compression must be >= 1")

    # Every float must be finite; a field its own check already flagged is not
    # reported twice.
    flagged = {x.path for x in v}
    v.extend(Violation(p, "must be finite") for p in _non_finite_paths(s, "") if p not in flagged)
    return sorted(v, key=lambda x: x.path)
