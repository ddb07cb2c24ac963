"""Ground segment: payload-data processing latency and marketplace delivery."""

from __future__ import annotations

import json
import math
from itertools import islice
from pathlib import Path
from typing import Iterable, NamedTuple

from .model import (
    DataProduct,
    GroundLatencySpec,
    ProductKind,
    ServiceArchetype,
    Triggering,
    ValidationError,
)


class MarketplaceRecord(NamedTuple):
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
    """Delivery time of a fully downlinked product: ``delivery_time`` of its ``pdgs_done``."""
    return delivery_time(pdgs_done(product, downlink_complete, latencies), archetype)


def delivery_time(pdgs: float, archetype: ServiceArchetype) -> float:
    """Delivery time of a product the PDGS finished at ``pdgs``.

    Periodic archetypes batch their output, so delivery aligns to the next
    production-cycle boundary; event-driven ones deliver at once.
    """
    if archetype.triggering is Triggering.PERIODIC:
        cycle = archetype.periodic_cycle_s
        if cycle is None or cycle <= 0:
            raise ValidationError("periodic archetype without a positive cycle")
        return math.ceil(pdgs / cycle) * cycle
    return pdgs


# One encoder for every record; ``json.dumps`` would build one per call.
_ENCODER = json.JSONEncoder(sort_keys=True)
# In an encoded block this text occurs only between records: a quote inside a
# string is escaped, and a string's closing quote is never followed by a
# letter, so the quote opens the first sorted key of the next record.
_RECORD_BOUNDARY = '}, {"delivered_s": '
_BLOCK_RECORDS = 256


def write_marketplace_dump(path: str | Path, records: Iterable[MarketplaceRecord]) -> None:
    """JSON-lines dump, one delivery per line, one encoder call per block of records."""
    records = iter(records)
    with open(path, "w") as f:
        while block := [
            {"product_id": r.product_id, "event_ids": sorted(r.event_ids), "delivered_s": round(r.delivered, 3)}
            for r in islice(records, _BLOCK_RECORDS)
        ]:
            f.write(_ENCODER.encode(block)[1:-1].replace(_RECORD_BOUNDARY, '}\n{"delivered_s": ') + "\n")
