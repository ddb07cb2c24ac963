"""Ground segment: payload-data processing latency and marketplace delivery."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .model import (
    DataProduct,
    GroundLatencySpec,
    ProductKind,
    ServiceArchetype,
    Triggering,
    ValidationError,
)


@dataclass(frozen=True)
class MarketplaceRecord:
    product_id: str
    event_ids: frozenset[str]
    delivered: float


def pdgs_done(product: DataProduct, downlink_complete: float, latencies: GroundLatencySpec) -> float:
    """Time the PDGS finishes a fully downlinked product.

    Raw scenes take the full processing latency; onboard masks and chips
    only need validation.
    """
    if product.kind is ProductKind.RAW_SCENE:
        return downlink_complete + latencies.pdgs_raw_s
    return downlink_complete + latencies.pdgs_mask_s


def pdgs_process(
    product: DataProduct,
    downlink_complete: float,
    latencies: GroundLatencySpec,
    archetype: ServiceArchetype,
) -> float:
    """Delivery time of a fully downlinked product.

    Delivery follows PDGS completion (``pdgs_done``).  Periodic archetypes
    batch their output, so delivery additionally aligns to the next
    production-cycle boundary.
    """
    t = pdgs_done(product, downlink_complete, latencies)
    if archetype.triggering is Triggering.PERIODIC:
        cycle = archetype.periodic_cycle_s
        if cycle is None or cycle <= 0:
            raise ValidationError("periodic archetype without a positive cycle")
        t = math.ceil(t / cycle) * cycle
    return t


# One encoder for every record; ``json.dumps`` would build one per call.
_ENCODER = json.JSONEncoder(sort_keys=True)


def write_marketplace_dump(path: str | Path, records: Iterable[MarketplaceRecord]) -> None:
    """JSON-lines dump, one delivery per line."""
    with open(path, "w") as f:
        for r in records:
            record = {
                "product_id": r.product_id,
                "event_ids": sorted(r.event_ids),
                "delivered_s": round(r.delivered, 3),
            }
            f.write(_ENCODER.encode(record) + "\n")
