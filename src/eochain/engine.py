"""Deterministic simulation kernel: a pipeline of pure stages and rng streams.

A run is a pure function of (scenario, injected events).  Each stage of the
service chain (ground truth, geometry, tasking, acquisitions, scene
processing, downlink, ground and marketplace) is one function of the
outputs before it; the trace assembles the timeline of chain milestones on
first read.  All randomness derives from counter-based streams keyed by
(master seed, domain label, entity id), so toggling the processing location
of a scenario never perturbs event generation, cloud draws or detection
draws: the two arms of an A/B comparison see common random numbers.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from . import events as events_mod
from . import onboard, tasking
from .downlink import TransferRecord, TransferResult, simulate_transfers
from .ground import Marketplace, MarketplaceRecord, pdgs_done, pdgs_process
from .model import (
    AcquisitionMode,
    AreaOfInterest,
    DataProduct,
    FireEvent,
    GroundStationSpec,
    ProcessingLocation,
    SatelliteSpec,
    Scenario,
    Triggering,
    ValidationError,
    validate_scenario,
)
from .onboard import Scene
from .orbit import Window, satellite_windows
from .tasking import ObservationRequest, TaskingPlan

WindowTable = Mapping[tuple[str, str], tuple[Window, ...]]


def rng_stream(master_seed: int, domain_label: str, entity_id: str = "") -> np.random.Generator:
    """Independent, reproducible generator for one (domain, entity) pair.

    The (label, id) pair is hashed into seed-sequence entropy words, so
    streams never collide or correlate across domains or entities and the
    draws of one domain cannot shift another's.
    """
    digest = hashlib.sha256(f"{domain_label}/{entity_id}".encode()).digest()
    # The seed's 32-bit words, low first, then four digest words: the
    # entropy numpy derives from the list [seed, *words], built directly.
    seed = int(master_seed)
    head = seed.to_bytes(4 * max(1, (seed.bit_length() + 31) // 32), "little")
    entropy = np.frombuffer(head + digest[:16], "<u4")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class SimEventKind(str, Enum):
    FIRE_START = "FireStart"
    MONITORING_DETECTION = "MonitoringDetection"
    UPLINK = "Uplink"
    ACQUISITION = "Acquisition"
    PIPELINE_DONE = "PipelineDone"
    TRANSFER_DONE = "TransferDone"
    PDGS_DONE = "PdgsDone"
    DELIVERY = "Delivery"
    SIM_END = "SimEnd"


@dataclass(frozen=True)
class SimEvent:
    """One timeline entry; ``seq`` is its insertion index, the tie-break at equal times."""

    time: float
    seq: int
    kind: SimEventKind
    ref: str = ""


@dataclass(frozen=True)
class AcquisitionRecord:
    satellite_id: str
    aoi_id: str
    window: Window
    triggered: bool

    @property
    def key(self) -> tuple[str, str, float]:
        return (self.satellite_id, self.aoi_id, self.window.start)


@dataclass(frozen=True)
class SimulationTrace:
    """Timestamped record of every chain milestone of one run.

    ``timeline`` holds the chain milestones in (time, seq) order, assembled
    from the other fields on first read.  Contact windows are geometry
    inputs, not milestones, so they are not timeline entries.
    """

    scenario_name: str
    seed: int
    mode: ProcessingLocation
    horizon_s: float
    fire_events: tuple[FireEvent, ...]
    dropped_event_ids: tuple[str, ...]
    detection_times: dict[str, float]
    requests: tuple[ObservationRequest, ...]
    plan: TaskingPlan
    acquisitions: tuple[AcquisitionRecord, ...]
    scenes: dict[str, Scene]
    detections: dict[str, frozenset[str]]
    products: dict[str, DataProduct]
    transfer_records: tuple[TransferRecord, ...]
    downlink_completions: dict[str, float]
    pdgs_times: dict[str, float]
    marketplace: tuple[MarketplaceRecord, ...]

    # Views of the finished trace, built on first use.
    @functools.cached_property
    def timeline(self) -> tuple[SimEvent, ...]:
        """Chain milestones within the horizon, ordered by (time, insertion order)."""
        horizon, scenes, detection_times = self.horizon_s, self.scenes, self.detection_times
        pipeline_done = {
            p.scene_id: p.created
            for p in self.products.values() if p.created > scenes[p.scene_id].acquired
        }
        K = SimEventKind
        entries = [(e.start, K.FIRE_START, e.id) for e in self.fire_events]
        entries += [
            (detection_times[e.id], K.MONITORING_DETECTION, e.id)
            for e in self.fire_events
            if detection_times[e.id] <= horizon
        ]
        entries += [(a.uplink_time, K.UPLINK, a.request_id) for a in self.plan.assignments]
        entries += [(s.acquired, K.ACQUISITION, s.id) for s in scenes.values()]
        entries += [
            (pipeline_done[sid], K.PIPELINE_DONE, sid)
            for sid in sorted(pipeline_done)
            if pipeline_done[sid] <= horizon
        ]
        completions, pdgs_times = self.downlink_completions, self.pdgs_times
        entries += [(completions[pid], K.TRANSFER_DONE, pid) for pid in sorted(completions)]
        entries += [(pdgs_times[pid], K.PDGS_DONE, pid) for pid in sorted(pdgs_times)]
        entries += [(r.delivered, K.DELIVERY, r.product_id) for r in self.marketplace]
        entries.append((horizon, K.SIM_END, ""))
        timeline = [SimEvent(t, seq, kind, ref) for seq, (t, kind, ref) in enumerate(entries)]
        timeline.sort(key=lambda e: e.time)
        return tuple(timeline)

    @functools.cached_property
    def events_by_id(self) -> dict[str, FireEvent]:
        return {e.id: e for e in self.fire_events}

    @functools.cached_property
    def delivered_by_product(self) -> dict[str, float]:
        return {r.product_id: r.delivered for r in self.marketplace}

    @functools.cached_property
    def first_delivery_by_event(self) -> dict[str, tuple[float, str]]:
        """Earliest (delivered, product id) among the deliveries containing each event."""
        first: dict[str, tuple[float, str]] = {}
        for r in self.marketplace:
            for event_id in r.event_ids:
                candidate = (r.delivered, r.product_id)
                if event_id not in first or candidate < first[event_id]:
                    first[event_id] = candidate
        return first

    def generated_bits(self) -> int:
        return sum(p.volume_bits for p in self.products.values())

    def delivered_bits(self) -> int:
        return sum(p.volume_bits for pid, p in self.products.items() if pid in self.downlink_completions)

    def transferred_bits(self) -> int:
        return sum(r.bits_moved for r in self.transfer_records)

    def residual_bits(self) -> dict[str, int]:
        """Bits not yet downlinked, per product with any: its volume less the bits its records moved."""
        residual = {pid: p.volume_bits for pid, p in self.products.items()}
        for r in self.transfer_records:
            residual[r.product_id] -= r.bits_moved
        return {pid: bits for pid, bits in residual.items() if bits > 0}


def _validate_injected(fire_events: Sequence[FireEvent], horizon_s: float) -> None:
    seen: set[str] = set()
    for e in fire_events:
        if e.id in seen:
            raise ValidationError(f"injected event trace has duplicate id {e.id}")
        seen.add(e.id)
        if not 0.0 <= e.start <= horizon_s:
            raise ValidationError(f"injected event {e.id} starts outside the horizon")
        if not (math.isfinite(e.area_ha) and e.area_ha > 0):
            raise ValidationError(f"injected event {e.id} has non-finite or non-positive area")
        if not (-90.0 <= e.location.lat <= 90.0 and math.isfinite(e.location.lon)):
            raise ValidationError(f"injected event {e.id} has an invalid location")


def _ground_truth(
    scenario: Scenario, injected_events: Optional[Sequence[FireEvent]]
) -> tuple[tuple[FireEvent, ...], dict[str, tuple[FireEvent, ...]], dict[str, Optional[str]],
           tuple[str, ...], dict[str, float]]:
    """Fire events (injected or drawn from per-AOI streams) in (start, id)
    order, each AOI's member events and each event's home AOI, the ids
    outside every AOI, and each event's monitoring detection time."""
    if injected_events is not None:
        _validate_injected(injected_events, scenario.horizon_s)
        fire_events = tuple(sorted(injected_events, key=lambda e: (e.start, e.id)))
    else:
        fire_events = tuple(
            events_mod.generate_fire_events(
                scenario.event_model,
                scenario.aois,
                scenario.horizon_s,
                lambda aoi_id: rng_stream(scenario.seed, "events", aoi_id),
            )
        )
    members, home = events_mod.aoi_membership(fire_events, scenario.aois)
    dropped = tuple(event_id for event_id, aoi_id in home.items() if aoi_id is None)
    detection_times = {
        e.id: events_mod.monitoring_detection_time(e, scenario.monitoring_delay_s)
        for e in fire_events
    }
    return fire_events, members, home, dropped, detection_times


def geometry_tables(scenario: Scenario) -> tuple[WindowTable, WindowTable]:
    """Contact windows per (satellite, station) and access windows per (satellite, AOI).

    This is the only place the tables are computed; planner, acquisitions
    and downlink all read them.  They depend on the geometry alone, not on
    the seed or the archetype, so runs that share satellites, stations,
    AOIs and horizon share one read-only pair of tables.
    """
    return _geometry_tables(scenario.satellites, scenario.stations, scenario.aois, scenario.horizon_s)


# A compare holds two geometries (the preset and its baseline); a few more
# slots keep interleaved callers from evicting each other.
@functools.lru_cache(maxsize=4)
def _geometry_tables(
    satellites: tuple[SatelliteSpec, ...],
    stations: tuple[GroundStationSpec, ...],
    aois: tuple[AreaOfInterest, ...],
    horizon_s: float,
) -> tuple[WindowTable, WindowTable]:
    horizon = (0.0, horizon_s)
    contact_table: dict[tuple[str, str], tuple[Window, ...]] = {}
    access_table: dict[tuple[str, str], tuple[Window, ...]] = {}
    # One search per satellite finds all its windows; each table keeps its
    # (satellite, target) key order.
    for sat in satellites:
        contacts, accesses = satellite_windows(sat, stations, aois, horizon)
        for stn, windows in zip(stations, contacts):
            contact_table[sat.id, stn.id] = tuple(windows)
        for aoi, windows in zip(aois, accesses):
            access_table[sat.id, aoi.id] = tuple(windows)
    return MappingProxyType(contact_table), MappingProxyType(access_table)


def _acquisitions(
    scenario: Scenario,
    requests: Sequence[ObservationRequest],
    plan: TaskingPlan,
    access_table: WindowTable,
) -> list[AcquisitionRecord]:
    """Systematic imaging covers every access window; pure on-demand
    archetypes image only what the planner scheduled."""
    aoi_of_request = {r.id: r.aoi_id for r in requests}
    if scenario.archetype.acquisition_mode is AcquisitionMode.ON_DEMAND:
        acquisitions = [
            AcquisitionRecord(a.satellite_id, aoi_of_request[a.request_id], a.window, triggered=True)
            for a in plan.assignments
        ]
        return sorted(acquisitions, key=lambda r: (r.window.start, r.satellite_id, r.aoi_id))
    triggered = {(a.satellite_id, aoi_of_request[a.request_id], a.window.start) for a in plan.assignments}
    return [
        AcquisitionRecord(sat_id, aoi_id, window, triggered=(sat_id, aoi_id, window.start) in triggered)
        for sat_id, aoi_id, window in tasking.periodic_acquisitions(scenario.archetype, access_table)
    ]


def _process_scenes(
    scenario: Scenario,
    acquisitions: Sequence[AcquisitionRecord],
    fire_events: tuple[FireEvent, ...],
    members: Mapping[str, Sequence[FireEvent]],
) -> tuple[dict[str, Scene], dict[str, frozenset[str]], dict[str, DataProduct]]:
    """A scene for every acquisition; detection and products for every scene
    of a periodic product line, and only for event-triggered scenes of an
    event-driven one."""
    aois_by_id = {a.id: a for a in scenario.aois}
    sats_by_id = {s.id: s for s in scenario.satellites}
    events_by_id = {e.id: e for e in fire_events}
    periodic = scenario.archetype.triggering is Triggering.PERIODIC
    scenes: dict[str, Scene] = {}
    detections: dict[str, frozenset[str]] = {}
    products: dict[str, DataProduct] = {}
    for i, acq in enumerate(acquisitions):
        scene_id = f"scn-{i:05d}"
        sat = sats_by_id[acq.satellite_id]
        scene = onboard.acquire_scene(
            scene_id,
            sat,
            aois_by_id[acq.aoi_id],
            acq.window,
            members[acq.aoi_id],
            scenario.cloud_model,
            rng_stream(scenario.seed, "clouds", scene_id),
        )
        scenes[scene_id] = scene
        if not (periodic or acq.triggered):
            continue
        detected = onboard.classify_scene(
            scene,
            events_by_id,
            scenario.archetype.mmu_ha,
            scenario.detection.accuracy_p,
            rng_stream(scenario.seed, "detection", scene_id),
        )
        detections[scene_id] = detected
        location = scenario.archetype.processing_location
        if not sat.processor.enabled:
            location = ProcessingLocation.GROUND
        for p in onboard.build_products(
            scene,
            detected,
            events_by_id,
            location,
            scenario.cloud_model,
            sat.processor,
            scenario.detection.mask_compression,
            scenario.detection.chip_margin,
        ):
            products[p.id] = p
    return scenes, detections, products


def _downlink(
    scenario: Scenario,
    scenes: Mapping[str, Scene],
    products: Mapping[str, DataProduct],
    contact_table: WindowTable,
) -> TransferResult:
    """Store-and-forward downlink of every product created inside the horizon."""
    queues: dict[str, list[DataProduct]] = {sat.id: [] for sat in scenario.satellites}
    for p in sorted(products.values(), key=lambda p: (p.created, p.id)):
        if p.created <= scenario.horizon_s:
            queues[scenes[p.scene_id].satellite_id].append(p)
    rates = {stn.id: stn.xband_rate_mbit_s for stn in scenario.stations}
    return simulate_transfers(queues, contact_table, rates)


def _ground(
    scenario: Scenario,
    products: Mapping[str, DataProduct],
    completions: Mapping[str, float],
) -> tuple[dict[str, float], tuple[MarketplaceRecord, ...]]:
    """PDGS completion times and marketplace deliveries that fall inside the horizon."""
    pdgs_times: dict[str, float] = {}
    marketplace = Marketplace()
    for pid, done in completions.items():
        pdgs = pdgs_done(products[pid], done, scenario.latencies)
        if pdgs <= scenario.horizon_s:
            pdgs_times[pid] = pdgs
        delivered = pdgs_process(products[pid], done, scenario.latencies, scenario.archetype)
        if delivered <= scenario.horizon_s:
            marketplace.deliver(products[pid], delivered)
    return pdgs_times, marketplace.records()


def run(
    scenario: Scenario,
    injected_events: Optional[Sequence[FireEvent]] = None,
) -> SimulationTrace:
    """Execute the full service chain and return the complete trace."""
    violations = validate_scenario(scenario)
    if violations:
        raise ValidationError(
            "invalid scenario: " + "; ".join(str(v) for v in violations)
        )
    fire_events, members, home, dropped, detection_times = _ground_truth(scenario, injected_events)
    contact_table, access_table = geometry_tables(scenario)
    requests = tasking.build_requests(
        fire_events, home, scenario.monitoring_delay_s, scenario.archetype
    )
    plan = tasking.plan(
        requests, scenario.satellites, scenario.stations, contact_table, access_table
    )
    acquisitions = _acquisitions(scenario, requests, plan, access_table)
    scenes, detections, products = _process_scenes(scenario, acquisitions, fire_events, members)
    transfers = _downlink(scenario, scenes, products, contact_table)
    completions = transfers.completion_times
    pdgs_times, marketplace = _ground(scenario, products, completions)
    return SimulationTrace(
        scenario_name=scenario.name,
        seed=scenario.seed,
        mode=scenario.archetype.processing_location,
        horizon_s=scenario.horizon_s,
        fire_events=fire_events,
        dropped_event_ids=dropped,
        detection_times=detection_times,
        requests=requests,
        plan=plan,
        acquisitions=tuple(acquisitions),
        scenes=scenes,
        detections=detections,
        products=products,
        transfer_records=transfers.records,
        downlink_completions=dict(completions),
        pdgs_times=pdgs_times,
        marketplace=marketplace,
    )
