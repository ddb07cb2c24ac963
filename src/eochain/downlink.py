"""Contact-constrained, priority-ordered, resumable downlink scheduling.

Each satellite owns one transmitter and one store-and-forward queue ordered
by (priority, creation time, id), where the priority follows the product
kind.  Transfers drain the head of the queue at the station's X-band rate
inside contact windows, pause at window ends and resume later with progress
conserved exactly (integer bits).  The products are never written: progress
is local to one call, and the transfer records are its only output.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping, NamedTuple, Sequence

from .model import DataProduct, ProductKind, ValidationError
from .orbit import Window

_TIME_EPS = 1e-9

# Queue order by product kind: the mask first, then its chips, then raw scenes.
DOWNLINK_PRIORITY = {ProductKind.THEMATIC_MASK: 0, ProductKind.ROI_CHIP: 1, ProductKind.RAW_SCENE: 2}


class TransferRecord(NamedTuple):
    product_id: str
    station_id: str
    start: float
    end: float
    bits_moved: int


class LinkInterval(NamedTuple):
    """Exclusive use of one station's window by the satellite's transmitter."""

    start: float
    end: float
    station_id: str


class TransferResult(NamedTuple):
    records: tuple[TransferRecord, ...]
    completion_times: dict[str, float]


def exclusive_link_intervals(windows_by_station: Mapping[str, Sequence[Window]]) -> list[LinkInterval]:
    """Resolve overlapping contacts: earliest window start wins, ties by station id.

    The winning window is used exclusively until it ends; later-starting
    overlapping windows contribute only their remainder.
    """
    opens = sorted(
        (w.start, stn_id, w.end)
        for stn_id, windows in windows_by_station.items()
        for w in windows
    )
    out: list[LinkInterval] = []
    busy_until = -math.inf
    for start, stn_id, end in opens:
        usable_start = max(start, busy_until)
        if usable_start < end:
            out.append(LinkInterval(usable_start, end, stn_id))
            busy_until = end
    return out


def link_schedule(contact_table: Mapping[tuple[str, str], Sequence[Window]]) -> dict[str, tuple[LinkInterval, ...]]:
    """Each satellite's ``exclusive_link_intervals`` over its contact windows,
    from a table keyed by (satellite id, station id)."""
    by_satellite: dict[str, dict[str, Sequence[Window]]] = {}
    for (sat_id, stn_id), windows in contact_table.items():
        by_satellite.setdefault(sat_id, {})[stn_id] = windows
    return {sat_id: tuple(exclusive_link_intervals(windows)) for sat_id, windows in by_satellite.items()}


def _drain_interval(
    interval: LinkInterval,
    rate_bps: float,
    arrivals: list[tuple[float, int, tuple[int, float, str]]],
    ready: list[tuple[int, float, str]],
    left: dict[str, int],
    records: list[TransferRecord],
    completions: dict[str, float],
) -> None:
    t = interval.start
    while t < interval.end - _TIME_EPS:
        while arrivals and arrivals[0][0] <= t + _TIME_EPS:
            heapq.heappush(ready, heapq.heappop(arrivals)[2])
        if not ready:
            if not arrivals or arrivals[0][0] >= interval.end - _TIME_EPS:
                return
            t = arrivals[0][0]
            continue
        pid = ready[0][2]
        remaining = left[pid]
        span = interval.end - t
        bits_possible = math.floor(rate_bps * span + _TIME_EPS)
        if bits_possible >= remaining:
            end = min(t + remaining / rate_bps, interval.end)
            records.append(TransferRecord(pid, interval.station_id, t, end, remaining))
            completions[pid] = end
            heapq.heappop(ready)
            t = end
        else:
            # Window exhausted mid-product: bank the partial progress.
            if bits_possible > 0:
                left[pid] -= bits_possible
                records.append(
                    TransferRecord(pid, interval.station_id, t, interval.end, bits_possible)
                )
            return


def simulate_transfers(
    queues: Mapping[str, Sequence[DataProduct]],
    links: Mapping[str, Sequence[LinkInterval]],
    rates_mbit_s: Mapping[str, float],
) -> TransferResult:
    """Run every satellite's queue through its link schedule.

    ``queues`` maps each satellite to the products it stores, in any order;
    product ids must be unique within a satellite.  ``links`` maps each
    satellite to its ``link_schedule``; a satellite without one never
    transmits.  Products become eligible at their creation time; within an
    interval the eligible queue minimum, by (kind priority, creation time,
    id), drains non-preemptively until it completes or the interval closes.
    Bit accounting is exact: partial progress persists across intervals and
    a product completes precisely when its whole volume has moved.
    """
    records: list[TransferRecord] = []
    completions: dict[str, float] = {}
    for sat_id in sorted(queues):
        queue = queues[sat_id]
        left = {p.id: p.volume_bits for p in queue}
        if len(left) < len(queue):
            raise ValidationError(f"duplicate product id in the queue of {sat_id}")
        # Each product's queue key, built once and carried through both heaps.
        keys = sorted([(DOWNLINK_PRIORITY[p.kind], p.created, p.id) for p in queue])
        arrivals = [(key[1], i, key) for i, key in enumerate(keys)]
        heapq.heapify(arrivals)
        ready: list[tuple[int, float, str]] = []
        for interval in links.get(sat_id, ()):
            # An interval with no product pending or ready moves nothing.
            if not (arrivals or ready):
                break
            rate_bps = rates_mbit_s[interval.station_id] * 1e6
            _drain_interval(interval, rate_bps, arrivals, ready, left, records, completions)
    records.sort(key=lambda r: (r.start, r.end, r.product_id))
    return TransferResult(records=tuple(records), completion_times=completions)
