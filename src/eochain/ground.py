"""Ground segment: payload-data processing latency and marketplace delivery."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path
from typing import Iterable, NamedTuple

from .model import (
    DataProduct,
    GroundLatencySpec,
    ProductKind,
    ServiceArchetype,
    Triggering,
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
    production-cycle boundary, of at least 1 s as ``validate_scenario`` checks;
    event-driven ones deliver at once.
    """
    if archetype.triggering is Triggering.PERIODIC:
        cycle = archetype.periodic_cycle_s
        return math.ceil(pdgs / cycle) * cycle
    return pdgs


# A record as ``json.dumps(..., sort_keys=True)`` writes it, its keys in sorted order.
_RECORD = '{"delivered_s": %s, "event_ids": [%s], "product_id": %s}\n'
# Below this many seconds every 3-decimal value is its own double, so the shortest
# text of a time rounded to 3 decimals is its "%.3f" text without trailing zeros.
_EXACT_3DP_S = 2.0**43


def _time_text(x: float) -> str:
    """``repr(round(x, 3))`` of a finite time, formatted once below ``_EXACT_3DP_S``."""
    if -_EXACT_3DP_S < x < _EXACT_3DP_S:
        t = ("%.3f" % x).rstrip("0")
        return t + "0" if t[-1] == "." else t
    return float.__repr__(round(x, 3))


def write_marketplace_dump(path: str | Path, records: Iterable[MarketplaceRecord]) -> None:
    """JSON-lines dump, one delivery per line, written one block of records at a time."""
    from .metrics import _blocks

    with open(path, "w") as f:
        for block in _blocks(records):
            f.write("".join([_RECORD % (_time_text(r.delivered), ", ".join(map(_string, sorted(r.event_ids))),
                                        _string(r.product_id)) for r in block]))
