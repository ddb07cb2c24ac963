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
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import DataProduct, ProductKind, ValidationError
from .orbit import Window

_TIME_EPS = 1e-9

# Queue order by product kind: the mask first, then its chips, then raw scenes.
DOWNLINK_PRIORITY = {ProductKind.THEMATIC_MASK: 0, ProductKind.ROI_CHIP: 1, ProductKind.RAW_SCENE: 2}


def _queue_key(p: DataProduct) -> tuple[int, float, str]:
    return (DOWNLINK_PRIORITY[p.kind], p.created, p.id)


@dataclass(frozen=True)
class TransferRecord:
    product_id: str
    station_id: str
    start: float
    end: float
    bits_moved: int


@dataclass(frozen=True)
class LinkInterval:
    """Exclusive use of one station's window by the satellite's transmitter."""

    start: float
    end: float
    station_id: str


@dataclass(frozen=True)
class TransferResult:
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


def _drain_interval(
    interval: LinkInterval,
    rate_bps: float,
    arrivals: list[tuple[float, int, str]],
    ready: list[tuple[int, float, str]],
    products: Mapping[str, DataProduct],
    moved: dict[str, int],
    records: list[TransferRecord],
    completions: dict[str, float],
) -> None:
    t = interval.start
    while t < interval.end - _TIME_EPS:
        while arrivals and arrivals[0][0] <= t + _TIME_EPS:
            _, _, pid = heapq.heappop(arrivals)
            heapq.heappush(ready, _queue_key(products[pid]))
        if not ready:
            if not arrivals or arrivals[0][0] >= interval.end - _TIME_EPS:
                return
            t = arrivals[0][0]
            continue
        _, _, pid = ready[0]
        remaining = products[pid].volume_bits - moved[pid]
        span = interval.end - t
        bits_possible = math.floor(rate_bps * span + _TIME_EPS)
        if bits_possible >= remaining:
            end = min(t + remaining / rate_bps, interval.end)
            moved[pid] += remaining
            records.append(TransferRecord(pid, interval.station_id, t, end, remaining))
            completions[pid] = end
            heapq.heappop(ready)
            t = end
        else:
            # Window exhausted mid-product: bank the partial progress.
            if bits_possible > 0:
                moved[pid] += bits_possible
                records.append(
                    TransferRecord(pid, interval.station_id, t, interval.end, bits_possible)
                )
            return


def simulate_transfers(
    queues: Mapping[str, Sequence[DataProduct]],
    contact_table: Mapping[tuple[str, str], Sequence[Window]],
    rates_mbit_s: Mapping[str, float],
) -> TransferResult:
    """Run every satellite's queue through its contact windows.

    ``queues`` maps each satellite to the products it stores, in any order;
    product ids must be unique within a satellite.  Products become eligible
    at their creation time; within a window the eligible queue minimum, by
    (kind priority, creation time, id), drains non-preemptively until it
    completes or the window closes.  Bit accounting is exact: partial
    progress persists across windows and a product completes precisely when
    its whole volume has moved.
    """
    records: list[TransferRecord] = []
    completions: dict[str, float] = {}
    for sat_id in sorted(queues):
        windows_by_station: dict[str, Sequence[Window]] = {
            stn_id: ws for (s, stn_id), ws in contact_table.items() if s == sat_id
        }
        intervals = exclusive_link_intervals(windows_by_station)
        ordered = sorted(queues[sat_id], key=_queue_key)
        products = {p.id: p for p in ordered}
        if len(products) < len(ordered):
            raise ValidationError(f"duplicate product id in the queue of {sat_id}")
        moved = dict.fromkeys(products, 0)
        arrivals: list[tuple[float, int, str]] = [
            (p.created, i, p.id) for i, p in enumerate(ordered)
        ]
        heapq.heapify(arrivals)
        ready: list[tuple[int, float, str]] = []
        for interval in intervals:
            rate_bps = rates_mbit_s[interval.station_id] * 1e6
            _drain_interval(interval, rate_bps, arrivals, ready, products, moved, records, completions)
    records.sort(key=lambda r: (r.start, r.end, r.product_id))
    return TransferResult(records=tuple(records), completion_times=completions)
