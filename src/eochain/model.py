"""Domain model: value types, physical constants, data-volume arithmetic, validation.

Every quantity that flows through the simulator is defined here.  Data
volumes are tracked in whole bits so that conservation checks can be
exact; times are seconds from the scenario epoch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from typing import Any, NamedTuple, Optional

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


def within(lo: float, hi: float, ends: str = "[]", when: Optional[str] = None, **kwargs: Any) -> Any:
    """A dataclass field that ``validate_scenario`` bounds to the interval from ``lo`` to ``hi``, with
    ``ends`` its brackets, ``[ ]`` closed and ``( )`` open; if ``when`` names a bool field of the record,
    only while that is true.  ``kwargs`` go to ``dataclasses.field``."""
    interval = "{}{}, {}{}".format(ends[0], *(repr(x).removesuffix(".0") for x in (lo, hi)), ends[1])
    return field(metadata={"lo": lo, "hi": hi, "ends": ends, "interval": interval, "when": when}, **kwargs)


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

    lat: float = within(-90.0, 90.0)
    lon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lon", (self.lon + 180.0) % 360.0 - 180.0)


def sphere_terms(p: GeoPoint) -> tuple[float, float, float]:
    """A point's sine and cosine of latitude and its longitude, computed once per point for ``arc_km``."""
    lat = math.radians(p.lat)
    return math.sin(lat), math.cos(lat), p.lon


def arc_km(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    """Great-circle distance between two points given by their ``sphere_terms``."""
    (s1, c1, lon1), (s2, c2, lon2) = a, b
    cos_psi = s1 * s2 + c1 * c2 * math.cos(math.radians(lon1 - lon2))
    return EARTH_RADIUS_KM * math.acos(min(1.0, max(-1.0, cos_psi)))


@dataclass(frozen=True)
class AreaOfInterest:
    """A monitored disc on the Earth's surface."""

    id: str
    center: GeoPoint
    # At least 1 m, so the disc's area does not underflow to 0; at most half the
    # Earth's circumference.
    radius_km: float = within(1e-3, math.pi * EARTH_RADIUS_KM)

    @property
    def area_km2(self) -> float:
        return math.pi * self.radius_km**2


@dataclass(frozen=True)
class OnboardProcessorSpec:
    """Parametric throughput budget of the onboard compute chain."""

    # At least one pixel per second, so a pipeline latency stays finite.
    preprocess_rate_mpx_s: float = within(1e-6, math.inf, "[)", when="enabled")
    inference_rate_mpx_s: float = within(1e-6, math.inf, "[)", when="enabled")
    precision_mode: PrecisionMode = PrecisionMode.FP16
    enabled: bool = True


# Relative inference speed-up by arithmetic precision; a declared assumption,
# applied multiplicatively to the inference rate.
PRECISION_RATE_FACTOR = {PrecisionMode.FP16: 1.0, PrecisionMode.INT8: 2.0}


@dataclass(frozen=True)
class SatelliteSpec:
    """One satellite: its circular orbit, its imager and its onboard processor."""

    id: str
    altitude_km: float = within(300.0, 2000.0)
    inclination_deg: float = within(0.0, 180.0)
    raan_deg: float
    initial_arg_lat_deg: float
    swath_km: float = within(0.0, math.inf, "()")
    gsd_m: float = within(0.01, 1e4)
    bands: int = within(1, math.inf, "[)")
    bit_depth: int = within(1, math.inf, "[)")
    processor: OnboardProcessorSpec


@dataclass(frozen=True)
class GroundStationSpec:
    """One ground station: its X-band downlink, and S-band uplink if available."""

    id: str
    location: GeoPoint
    min_elevation_deg: float = within(0.0, 90.0, "[)")
    xband_rate_mbit_s: float = within(0.0, 1e6, "(]")
    sband_available: bool = True


@dataclass(frozen=True)
class FireEvent:
    """One fire: where and when it starts, and the area it burns."""

    id: str
    location: GeoPoint
    start: float = within(0.0, math.inf, "[)")
    area_ha: float = within(0.0, math.inf, "()")


@dataclass(frozen=True)
class ServiceArchetype:
    """Service-level character of a product line (one Table-style column)."""

    processing_location: ProcessingLocation
    mmu_ha: float = within(0.0, math.inf, "()")
    acquisition_mode: AcquisitionMode
    triggering: Triggering
    # At least 1 s, so a delivery time over the cycle stays finite.
    periodic_cycle_s: Optional[float] = within(1.0, math.inf, "[)", default=None)


@dataclass(frozen=True)
class EventModel:
    """Poisson fire starts per AOI, with log-normal burn areas."""

    rate_per_aoi_per_day: float = within(0.0, math.inf, "[)")
    # Burn areas exp(mean + sd * z) then stay positive and finite, chips included,
    # for any normal draw |z| < 100.
    area_log_mean: float = within(-20.0, 20.0)
    area_log_sd: float = within(0.0, 5.0, "(]")


@dataclass(frozen=True)
class GroundLatencySpec:
    """Payload-data ground segment (PDGS) processing time per product kind, seconds."""

    pdgs_raw_s: float = within(0.0, math.inf, "[)")
    pdgs_mask_s: float = within(0.0, math.inf, "[)")


@dataclass(frozen=True)
class CloudModel:
    """Mean cloud fraction of a scene, and the fraction above which a scene goes to ground raw."""

    mean_fraction: float = within(0.0, 1.0)
    onboard_threshold: float = within(0.0, 1.0)


@dataclass(frozen=True)
class DetectionSpec:
    """Statistical detection and product-shaping knobs."""

    accuracy_p: float = within(0.0, 1.0, "(]", default=0.95)
    chip_margin: float = within(1.0, 100.0, default=2.0)
    mask_compression: float = within(1.0, math.inf, "[)", default=10.0)


@dataclass(frozen=True)
class Scenario:
    """One simulated service: constellation, stations, AOIs, service and event models, seed, horizon,
    and its fire events: drawn from ``event_model`` if ``events`` is None, else exactly those listed."""

    name: str
    seed: int = within(0, 2**64, "[)")
    horizon_s: float
    satellites: tuple[SatelliteSpec, ...]
    stations: tuple[GroundStationSpec, ...]
    aois: tuple[AreaOfInterest, ...]
    archetype: ServiceArchetype
    event_model: EventModel
    latencies: GroundLatencySpec
    monitoring_delay_s: float = within(0.0, math.inf, "[)")
    cloud_model: CloudModel
    detection: DetectionSpec = field(default_factory=DetectionSpec)
    events: Optional[tuple[FireEvent, ...]] = None


class DataProduct(NamedTuple):
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


class Violation(NamedTuple):
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@functools.cache
def _checks(record_type: type) -> tuple[tuple[str, Optional[tuple]], ...]:
    """The checks of a scenario dataclass's fields in field order, read once per type: each field's
    name and, if it declares an interval, (lo, hi, lo open, hi open, ``when``, the interval's text)."""
    return tuple(
        (f.name, (m["lo"], m["hi"], m["ends"][0] == "(", m["ends"][1] == ")", m["when"], m["interval"])
         if (m := f.metadata) else None)
        for f in fields(record_type)
    )


def _path(keys: tuple[Any, ...]) -> str:
    """The field path of document keys: ``("satellites", 0, "gsd_m")`` is ``satellites[0].gsd_m``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


def _leaf_violations(record: object, keys: tuple[Any, ...], out: dict[str, str]) -> None:
    """Flag each number inside ``record``, at document ``keys``, outside its field's interval or, with
    no interval that applies, not finite; a path already in ``out`` is not flagged again."""
    for name, bounds in _checks(type(record)):
        value = getattr(record, name)
        if isinstance(value, tuple):
            for i, item in enumerate(value):
                _leaf_violations(item, (*keys, name, i), out)
        elif is_dataclass(value):
            _leaf_violations(value, (*keys, name), out)
        elif value is None:
            continue
        elif bounds is not None and (bounds[4] is None or getattr(record, bounds[4])):
            lo, hi, lo_open, hi_open, _, interval = bounds
            if not ((lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi)):
                out.setdefault(_path((*keys, name)), f"must be in {interval}")
        elif isinstance(value, float) and not math.isfinite(value):
            out.setdefault(_path((*keys, name)), "must be finite")


def validate_scenario(s: Scenario) -> list[Violation]:
    """Check every type invariant; returns one violation per flagged field path, sorted by path."""
    out: dict[str, str] = {}
    if not (math.isfinite(s.horizon_s) and s.horizon_s > 0):
        out["horizon_s"] = "horizon must be finite and positive"
    elif s.horizon_s / DEFAULT_COARSE_STEP_S > MAX_GRID_SAMPLES:
        out["horizon_s"] = (f"horizon must span at most {MAX_GRID_SAMPLES} samples of "
                            f"{DEFAULT_COARSE_STEP_S:g} s (about 485 days)")
    # Each collection must be a tuple of its item type (events may be None), else it is
    # flagged once and its items are neither read nor walked.
    misfits: dict[str, tuple] = {}
    for name, item_type in (("satellites", SatelliteSpec), ("stations", GroundStationSpec),
                            ("aois", AreaOfInterest), ("events", FireEvent)):
        items = getattr(s, name)
        if items is None and name == "events":
            continue
        if not (isinstance(items, tuple) and all(isinstance(item, item_type) for item in items)):
            out[name] = f"must be a tuple of {item_type.__name__}"
            misfits[name] = ()
            continue
        if not items and name != "events":
            out[name] = "must not be empty"
        seen: set[str] = set()
        for i, item in enumerate(items):
            if item.id in seen:
                out[f"{name}[{i}].id"] = "duplicate identifier"
            seen.add(item.id)
    cycle_given = s.archetype.periodic_cycle_s is not None
    if (s.archetype.triggering is Triggering.PERIODIC) != cycle_given:
        out["archetype.periodic_cycle_s"] = ("periodic cycle is only meaningful for periodic triggering"
                                             if cycle_given else "periodic triggering requires a periodic cycle")
    _leaf_violations(replace(s, **misfits) if misfits else s, (), out)
    # A rule across fields is judged only when each of its fields passed its own checks.
    lat, rate = s.latencies, s.event_model.rate_per_aoi_per_day
    if not {"latencies.pdgs_raw_s", "latencies.pdgs_mask_s"} & out.keys() and lat.pdgs_mask_s > lat.pdgs_raw_s:
        out["latencies.pdgs_mask_s"] = "mask validation cannot take longer than latencies.pdgs_raw_s"
    if (not {"horizon_s", "aois", "event_model.rate_per_aoi_per_day"} & out.keys()
            and rate * len(s.aois) * s.horizon_s / SECONDS_PER_DAY > MAX_EVENTS):
        out["event_model.rate_per_aoi_per_day"] = (
            f"rate x AOIs x horizon days must expect at most {MAX_EVENTS} events")
    if not {"horizon_s", "events"} & out.keys():
        for i, e in enumerate(s.events or ()):
            if f"events[{i}].start" not in out and e.start > s.horizon_s:
                out[f"events[{i}].start"] = "must be at most horizon_s"
    return [Violation(path, message) for path, message in sorted(out.items())]
