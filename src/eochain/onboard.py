"""Onboard segment: acquisition, parametric processing budget, detection, products.

No imagery exists anywhere in the simulator.  Detection is a statistical
model calibrated by a per-event success probability; the onboard processor
is a throughput budget, not an inference engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import (
    KM2_PER_HA,
    PRECISION_RATE_FACTOR,
    AreaOfInterest,
    CloudModel,
    DataProduct,
    FireEvent,
    OnboardProcessorSpec,
    ProcessingLocation,
    ProductKind,
    SatelliteSpec,
    ValidationError,
    great_circle_km,
    mask_volume,
    scene_volume,
)
from .events import is_detectable
from .orbit import Window

@dataclass(frozen=True)
class Scene:
    """One acquisition of an AOI, with its sensor geometry frozen in."""

    id: str
    satellite_id: str
    aoi_id: str
    acquired: float
    area_km2: float
    cloud_fraction: float
    event_ids_present: frozenset[str]
    gsd_m: float
    bands: int
    bit_depth: int

    @property
    def pixels(self) -> float:
        return self.area_km2 * 1e6 / self.gsd_m**2


def draw_cloud_fraction(cloud_model: CloudModel, rng: np.random.Generator) -> float:
    """Beta-distributed cloud fraction shaped to the configured mean."""
    m = cloud_model.mean_fraction
    if m <= 0.0:
        return 0.0
    if m >= 1.0:
        return 1.0
    # Beta(2, b) with b chosen so the mean is exactly m.
    return float(rng.beta(2.0, 2.0 * (1.0 - m) / m))


def acquire_scene(
    scene_id: str,
    sat: SatelliteSpec,
    aoi: AreaOfInterest,
    window: Window,
    fire_events: Sequence[FireEvent],
    cloud_model: CloudModel,
    rng: np.random.Generator,
) -> Scene:
    """Image the AOI at the window start; ground truth is causally filtered."""
    acquired = window.start
    present = frozenset(
        e.id
        for e in fire_events
        if e.start <= acquired and great_circle_km(e.location, aoi.center) <= aoi.radius_km
    )
    return Scene(
        id=scene_id,
        satellite_id=sat.id,
        aoi_id=aoi.id,
        acquired=acquired,
        area_km2=aoi.area_km2,
        cloud_fraction=draw_cloud_fraction(cloud_model, rng),
        event_ids_present=present,
        gsd_m=sat.gsd_m,
        bands=sat.bands,
        bit_depth=sat.bit_depth,
    )


def pipeline_latency(scene: Scene, processor: OnboardProcessorSpec) -> float:
    """Time to push the scene through preprocessing and inference, seconds."""
    if not processor.enabled:
        raise ValidationError("onboard processor is disabled on this platform")
    pixels = scene.pixels
    inference_rate = processor.inference_rate_mpx_s * PRECISION_RATE_FACTOR[processor.precision_mode]
    return pixels / (processor.preprocess_rate_mpx_s * 1e6) + pixels / (inference_rate * 1e6)


def classify_scene(
    scene: Scene,
    events_by_id: Mapping[str, FireEvent],
    mmu_ha: float,
    accuracy_p: float,
    rng: np.random.Generator,
) -> frozenset[str]:
    """Ids of the present events that the statistical detector finds.

    Two uniforms are consumed for every present event in id order, whether
    or not it clears the minimum mapping unit; this makes the detected set
    antitone in the MMU for a fixed stream.  Only the first decides the
    detection; the second is discarded, which keeps the layout of the
    detection stream, and with it every pinned artifact digest, fixed.
    """
    if not 0.0 < accuracy_p <= 1.0:
        raise ValidationError("accuracy probability must be in (0, 1]")
    detected: set[str] = set()
    for event_id in sorted(scene.event_ids_present):
        u, _ = rng.uniform(size=2)
        if is_detectable(events_by_id[event_id].area_ha, mmu_ha) and u < accuracy_p:
            detected.add(event_id)
    return frozenset(detected)


def build_products(
    scene: Scene,
    detected: frozenset[str],
    events_by_id: Mapping[str, FireEvent],
    location: ProcessingLocation,
    cloud_model: CloudModel,
    processor: OnboardProcessorSpec,
    compression: float,
    chip_margin: float,
) -> list[DataProduct]:
    """Turn a processed scene into downlinkable products.

    Ground (remote-only) processing emits the full raw scene at acquisition.
    Hybrid processing emits a thematic mask plus one region-of-interest chip
    per detection, completed after the onboard pipeline; when the cloud
    fraction exceeds the onboard threshold the scene is deferred to ground
    as a raw product.
    """
    raw_bits = scene_volume(scene.area_km2, scene.gsd_m, scene.bands, scene.bit_depth)
    deferred = scene.cloud_fraction > cloud_model.onboard_threshold
    if location is ProcessingLocation.GROUND or deferred:
        return [
            DataProduct(
                id=f"{scene.id}-raw",
                kind=ProductKind.RAW_SCENE,
                scene_id=scene.id,
                event_ids=detected,
                volume_bits=raw_bits,
                created=scene.acquired,
            )
        ]

    done = scene.acquired + pipeline_latency(scene, processor)
    products = [
        DataProduct(
            id=f"{scene.id}-mask",
            kind=ProductKind.THEMATIC_MASK,
            scene_id=scene.id,
            event_ids=detected,
            volume_bits=mask_volume(scene.area_km2, scene.gsd_m, compression),
            created=done,
        )
    ]
    for event_id in sorted(detected):
        chip_area_km2 = events_by_id[event_id].area_ha * KM2_PER_HA * chip_margin**2
        products.append(
            DataProduct(
                id=f"{scene.id}-chip-{event_id}",
                kind=ProductKind.ROI_CHIP,
                scene_id=scene.id,
                event_ids=frozenset({event_id}),
                volume_bits=scene_volume(chip_area_km2, scene.gsd_m, scene.bands, scene.bit_depth),
                created=done,
            )
        )
    return products
