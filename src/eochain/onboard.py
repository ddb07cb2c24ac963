"""Onboard segment: acquisition, parametric processing budget, detection, products.

No imagery exists anywhere in the simulator.  Detection is a statistical
model calibrated by a per-event success probability; the onboard processor
is a throughput budget, not an inference engine.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Mapping, NamedTuple, Optional, Sequence

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
    mask_volume,
    scene_volume,
)
from .events import is_detectable
from .orbit import Window

class Scene(NamedTuple):
    """One acquisition of an AOI, with its sensor geometry frozen in; ``triggered`` if planned for an
    event.  Only a processed scene draws its ``cloud_fraction``; any other's is ``None``."""

    id: str
    satellite_id: str
    aoi_id: str
    acquired: float
    triggered: bool
    area_km2: float
    cloud_fraction: Optional[float]
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
    triggered: bool,
    members: Sequence[FireEvent],
    cloud_fraction: Optional[float],
) -> Scene:
    """Image the AOI at the window start; ground truth is causally filtered.

    ``members`` are the events inside the AOI's disc in (start, id) order
    (``events.aoi_membership``), so those burning at acquisition are a prefix.
    """
    acquired = window.start
    present = members[: bisect_right(members, acquired, key=lambda e: e.start)]
    return Scene(
        id=scene_id,
        satellite_id=sat.id,
        aoi_id=aoi.id,
        acquired=acquired,
        triggered=triggered,
        area_km2=aoi.area_km2,
        cloud_fraction=cloud_fraction,
        event_ids_present=frozenset(e.id for e in present),
        gsd_m=sat.gsd_m,
        bands=sat.bands,
        bit_depth=sat.bit_depth,
    )


def pipeline_latency(scene: Scene, processor: OnboardProcessorSpec) -> float:
    """Time to push the scene through an enabled processor's preprocessing and inference,
    seconds; ``engine._products`` sends the scenes of a disabled processor to ground."""
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

    Two uniforms are drawn for every present event in id order, in one
    call, whether or not it clears the minimum mapping unit; this makes the
    detected set antitone in the MMU for a fixed stream.  Only the first
    decides the detection; the second is discarded, which keeps the layout
    of the detection stream, and with it every pinned artifact digest, fixed.
    ``validate_scenario`` checks that ``accuracy_p`` lies in (0, 1].
    """
    present = sorted(scene.event_ids_present)
    draws = rng.random((len(present), 2))
    return frozenset(
        event_id
        for event_id, u in zip(present, draws[:, 0])
        if is_detectable(events_by_id[event_id].area_ha, mmu_ha) and u < accuracy_p
    )


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
    scene_id, gsd_m, bands, bit_depth = scene.id, scene.gsd_m, scene.bands, scene.bit_depth
    if location is ProcessingLocation.GROUND or scene.cloud_fraction > cloud_model.onboard_threshold:
        raw_bits = scene_volume(scene.area_km2, gsd_m, bands, bit_depth)
        return [DataProduct(f"{scene_id}-raw", ProductKind.RAW_SCENE, scene_id, detected, raw_bits, scene.acquired)]

    done = scene.acquired + pipeline_latency(scene, processor)
    mask_bits = mask_volume(scene.area_km2, gsd_m, compression)
    margin_sq, chip = chip_margin**2, ProductKind.ROI_CHIP
    return [DataProduct(f"{scene_id}-mask", ProductKind.THEMATIC_MASK, scene_id, detected, mask_bits, done)] + [
        DataProduct(f"{scene_id}-chip-{event_id}", chip, scene_id, frozenset((event_id,)),
                    scene_volume(events_by_id[event_id].area_ha * KM2_PER_HA * margin_sq, gsd_m, bands, bit_depth), done)
        for event_id in sorted(detected)
    ]
