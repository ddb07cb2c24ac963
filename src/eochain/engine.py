"""Deterministic simulation kernel: a pipeline of pure stages and rng streams.

A run is a pure function of (scenario, injected events).  Each stage of the
service chain (ground truth, geometry, tasking, acquisitions, scenes and
detections, products, downlink, ground and marketplace) is one function of
the outputs before it; the trace carries the scenario it ran and assembles
the timeline of chain milestones, PDGS completions among them, on each
read.  All randomness derives from counter-based streams keyed by (master
seed, domain label, entity id), and no stage before products reads the
processing location, so the two arms of an A/B comparison see common random
numbers.  Only runs given one memo share a geometry or observation.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import replace
from enum import Enum
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import events as events_mod
from . import onboard, tasking
from .downlink import LinkInterval, TransferRecord, TransferResult, link_schedule, simulate_transfers
from .ground import MarketplaceRecord, delivery_time, pdgs_done
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
from .orbit import Window, constellation_windows
from .tasking import ObservationRequest, TaskingPlan

WindowTable = Mapping[tuple[str, str], tuple[Window, ...]]


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).  Its
# mixing is fixed 32-bit hashing whose constants never depend on the data, so
# the pools of any number of entropy arrays of one width mix in lockstep.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

_HashStep = tuple[np.ndarray, np.ndarray]


def _hash_chain(init: int, mult: int, steps: int) -> list[int]:
    """The hash constant before the first step and after each of ``steps`` steps."""
    chain = [init]
    for _ in range(steps):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return chain


def _side_by_side(chain: list[int], k: int, n: int, skip: Optional[int] = None) -> _HashStep:
    """Hash steps k, ..., k + n - 1 of ``chain`` as (xor, multiply) rows: step j
    xors with ``chain[j]`` and multiplies by ``chain[j + 1]``.  Column ``skip``
    gets a placeholder step whose result the caller discards."""
    xor, mul = chain[k : k + n], chain[k + 1 : k + n + 1]
    if skip is not None:
        xor.insert(skip, 0)
        mul.insert(skip, 0)
    return np.array(xor, np.uint32), np.array(mul, np.uint32)


@functools.cache
def _hash_steps(width: int) -> tuple[_HashStep, tuple[_HashStep, ...], tuple[_HashStep, ...], _HashStep]:
    """The lockstep hash steps for entropy of ``width`` words: the pool fill,
    the mix of each pool word into the other three, the mix of each entropy
    word beyond the pool into all four, and the eight output words."""
    n = _POOL_SIZE
    a = _hash_chain(_INIT_A, _MULT_A, n * width)
    fill = _side_by_side(a, 0, n)
    cross = tuple(_side_by_side(a, n + src * (n - 1), n - 1, skip=src) for src in range(n))
    extra = tuple(_side_by_side(a, n * n + i * n, n) for i in range(width - n))
    output = _side_by_side(_hash_chain(_INIT_B, _MULT_B, 2 * n), 0, 2 * n)
    return fill, cross, extra, output


def _hashmix(value: np.ndarray, step: _HashStep) -> np.ndarray:
    """numpy's ``hashmix``, one hash step per column."""
    value = (value ^ step[0]) * step[1]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix`` of a hashed word ``y`` into pool words ``x``."""
    value = _MIX_MULT_L * x
    value -= _MIX_MULT_R * y
    value ^= value >> 16
    return value


# A sweep's runs alternate two key tuples (AOIs, scenes) and a compare's
# observations hold up to four; a few more slots serve single streams.
@functools.lru_cache(maxsize=16)
def _digest_words(labels: tuple[str, ...], entity_ids: tuple[str, ...]) -> np.ndarray:
    """The first four little-endian words of the sha256 of each key
    ``f"{label}/{entity_id}"``, label-major, one read-only row per key.

    Computed once per process for a key tuple: a sweep's runs share their
    AOI keys and, where their acquisitions are the same, their scene keys.
    """
    digests = b"".join(
        hashlib.sha256(f"{label}/{e}".encode()).digest()[:16] for label in labels for e in entity_ids
    )
    return np.frombuffer(digests, "<u4").reshape(-1, 4)


def _seed_states(master_seed: int, labels: tuple[str, ...], entity_ids: tuple[str, ...]) -> np.ndarray:
    """PCG64 seed words, one row of four uint64 per key, mixed in one pass.

    Row ``k * len(entity_ids) + i`` equals
    ``SeedSequence([seed, *words]).generate_state(4, np.uint64)``, where
    ``words`` are the digest words of ``f"{labels[k]}/{entity_ids[i]}"``.
    """
    # The seed's 32-bit words, low first, then four digest words: the
    # entropy numpy derives from the list [seed, *words], built directly.
    seed = int(master_seed)
    head = np.frombuffer(seed.to_bytes(4 * max(1, (seed.bit_length() + 31) // 32), "little"), "<u4")
    tails = _digest_words(labels, entity_ids)
    entropy = np.concatenate((np.broadcast_to(head, (len(tails), len(head))), tails), axis=1, dtype=np.uint32)
    fill, cross, extra, output = _hash_steps(entropy.shape[1])
    pool = _hashmix(entropy[:, :_POOL_SIZE], fill)
    for src, step in enumerate(cross):
        mixed = _mix(pool, _hashmix(pool[:, src : src + 1], step))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for src, step in enumerate(extra, _POOL_SIZE):
        pool = _mix(pool, _hashmix(entropy[:, src : src + 1], step))
    # generate_state(4, uint64): eight words drawn cyclically from the pool,
    # paired little-endian into uint64.
    words = _hashmix(np.tile(pool, 2), output)
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedState:
    """A precomputed seed-sequence state, given to PCG64 as its ISeedSequence."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("a precomputed state serves PCG64's four uint64 words only")
        return self.words


@functools.cache
def _numpy_random():
    """numpy.random, imported at the first stream, with ``_SeedState`` registered."""
    import numpy.random

    numpy.random.bit_generator.ISeedSequence.register(_SeedState)
    return numpy.random


def _stream(words: np.ndarray) -> np.random.Generator:
    """The generator of one row of ``_seed_states``."""
    random = _numpy_random()
    return random.Generator(random.PCG64(_SeedState(words)))


def rng_streams(
    master_seed: int, domain_label: str, entity_ids: Sequence[str]
) -> Iterator[np.random.Generator]:
    """Independent, reproducible generators for the entities of one domain, in order.

    Each (label, id) pair is hashed into seed-sequence entropy words, so
    streams never collide or correlate across domains or entities and the
    draws of one domain cannot shift another's.  Every stream equals
    ``Generator(PCG64(SeedSequence([seed, *words])))``.  The seed-sequence
    states of all the entities are computed in one pass, from digest words
    that a process computes once per key tuple, and each generator is built
    only when the iterator reaches it.  A run makes two such passes: one
    over its AOIs, and one over the cloud and detection keys of its
    processed scenes (``_observation``).
    """
    for words in _seed_states(master_seed, (domain_label,), tuple(entity_ids)):
        yield _stream(words)


def rng_stream(master_seed: int, domain_label: str, entity_id: str = "") -> np.random.Generator:
    """The generator of one (domain, entity) pair: a batch of one of ``rng_streams``."""
    return next(rng_streams(master_seed, domain_label, (entity_id,)))


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


class SimEvent(NamedTuple):
    """One timeline entry; ``seq`` is its insertion index, the tie-break at equal times."""

    time: float
    seq: int
    kind: SimEventKind
    ref: str = ""


class SimulationTrace(NamedTuple):
    """Timestamped record of every chain milestone of one run.

    ``scenario`` is the scenario the run was given, its processing location
    set: a report reads its name, seed, mode, horizon and MMU there.
    ``timeline`` holds the chain milestones in (time, seq) order, assembled
    from the other fields on each read.  Contact windows are geometry
    inputs, not milestones, so they are not timeline entries.
    """

    scenario: Scenario
    fire_events: tuple[FireEvent, ...]
    events_by_id: Mapping[str, FireEvent]
    dropped_event_ids: tuple[str, ...]
    detection_times: Mapping[str, float]
    requests: tuple[ObservationRequest, ...]
    plan: TaskingPlan
    scenes: Mapping[str, Scene]
    detections: Mapping[str, frozenset[str]]
    products: dict[str, DataProduct]
    transfer_records: tuple[TransferRecord, ...]
    downlink_completions: dict[str, float]
    marketplace: tuple[MarketplaceRecord, ...]
    delivered_by_product: dict[str, float]
    first_delivery_by_event: dict[str, tuple[float, str]]

    @property
    def timeline(self) -> tuple[SimEvent, ...]:
        """Chain milestones within the horizon, ordered by (time, insertion order)."""
        scenario, scenes, detection_times = self.scenario, self.scenes, self.detection_times
        horizon = scenario.horizon_s
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
        completions, products = self.downlink_completions, self.products
        transferred = sorted(completions)
        pdgs_times = {pid: pdgs_done(products[pid], completions[pid], scenario.latencies) for pid in transferred}
        entries += [(completions[pid], K.TRANSFER_DONE, pid) for pid in transferred]
        entries += [(t, K.PDGS_DONE, pid) for pid, t in pdgs_times.items() if t <= horizon]
        entries += [(r.delivered, K.DELIVERY, r.product_id) for r in self.marketplace]
        entries.append((horizon, K.SIM_END, ""))
        timeline = [SimEvent(t, seq, kind, ref) for seq, (t, kind, ref) in enumerate(entries)]
        timeline.sort(key=lambda e: e.time)
        return tuple(timeline)

    def generated_bits(self) -> int:
        return sum(p.volume_bits for p in self.products.values())

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
                rng_streams(scenario.seed, "events", [aoi.id for aoi in scenario.aois]),
            )
        )
    members, home = events_mod.aoi_membership(fire_events, scenario.aois)
    dropped = tuple(event_id for event_id, aoi_id in home.items() if aoi_id is None)
    detection_times = {
        e.id: events_mod.monitoring_detection_time(e, scenario.monitoring_delay_s)
        for e in fire_events
    }
    return fire_events, members, home, dropped, detection_times


class Geometry(NamedTuple):
    """The window tables of one geometry, and what runs derive from them
    alone, shared read-only by every run given the geometry: each
    satellite's exclusive link schedule, the systematic acquisition order
    and the planner's index."""

    tables: tuple[WindowTable, WindowTable]
    links: Mapping[str, tuple[LinkInterval, ...]]
    systematic: tuple[tuple[str, str, Window], ...]
    opportunities: tasking.Opportunities


def geometry_tables(scenario: Scenario) -> tuple[WindowTable, WindowTable]:
    """Contact windows per (satellite, station) and access windows per (satellite, AOI), computed
    afresh from the satellites, stations, AOIs and horizon alone; only runs given one memo share them."""
    return _geometry(scenario.satellites, scenario.stations, scenario.aois, scenario.horizon_s).tables


def _geometry(
    satellites: tuple[SatelliteSpec, ...],
    stations: tuple[GroundStationSpec, ...],
    aois: tuple[AreaOfInterest, ...],
    horizon_s: float,
) -> Geometry:
    contact_table: dict[tuple[str, str], tuple[Window, ...]] = {}
    access_table: dict[tuple[str, str], tuple[Window, ...]] = {}
    # One search of the whole constellation finds every window; each table
    # keeps its (satellite, target) key order.
    for sat, (contacts, accesses) in zip(
        satellites, constellation_windows(satellites, stations, aois, (0.0, horizon_s))
    ):
        for stn, windows in zip(stations, contacts):
            contact_table[sat.id, stn.id] = tuple(windows)
        for aoi, windows in zip(aois, accesses):
            access_table[sat.id, aoi.id] = tuple(windows)
    systematic = tuple(tasking.periodic_acquisitions(access_table))
    return Geometry(
        (MappingProxyType(contact_table), MappingProxyType(access_table)),
        MappingProxyType(link_schedule(contact_table)),
        systematic,
        tasking.opportunities(satellites, stations, contact_table, systematic),
    )


def _acquisitions(
    scenario: Scenario,
    requests: Sequence[ObservationRequest],
    plan: TaskingPlan,
    geometry: Geometry,
) -> list[tuple[str, str, Window, bool]]:
    """Every acquisition as (satellite id, AOI id, window, triggered): the entries of the
    systematic order, triggered where assigned.  Systematic imaging covers every entry; pure
    on-demand archetypes image only the assigned ones, each exactly one entry."""
    aoi_of_request = {r.id: r.aoi_id for r in requests}
    triggered = {(a.satellite_id, aoi_of_request[a.request_id], a.window.start) for a in plan.assignments}
    image_all = scenario.archetype.acquisition_mode is AcquisitionMode.SYSTEMATIC
    return [
        (sat_id, aoi_id, window, hit)
        for sat_id, aoi_id, window in geometry.systematic
        if (hit := (sat_id, aoi_id, window.start) in triggered) or image_all
    ]


def _observation(
    scenario: Scenario, injected_events: Optional[tuple[FireEvent, ...]], geometry: Geometry
) -> tuple[tuple[FireEvent, ...], Mapping[str, FireEvent], tuple[str, ...], Mapping[str, float],
           tuple[ObservationRequest, ...], TaskingPlan, Mapping[str, Scene], Mapping[str, frozenset[str]]]:
    """Fire events, each by id, dropped ids, detection times, requests, plan, scenes
    and detections: the stages before products, which read no processing location,
    so the runs that share it through a memo read one copy, and the mappings are read-only.
    Scene ``scn-i`` is acquisition i.  Only a processed scene draws clouds and
    detections: every scene of a periodic product line, and only the
    event-triggered scenes of an event-driven one.  One seed-sequence pass
    seeds the cloud and detection streams of every processed scene, after the
    pass over the AOIs in ``_ground_truth``; a processed scene with no event
    present has nothing to detect, so it builds no detection stream."""
    fire_events, members, home, dropped, detection_times = _ground_truth(scenario, injected_events)
    requests = tasking.build_requests(fire_events, home, detection_times, scenario.archetype)
    plan = tasking.plan(requests, geometry.opportunities)
    acquisitions = _acquisitions(scenario, requests, plan, geometry)
    aois_by_id = {a.id: a for a in scenario.aois}
    sats_by_id = {s.id: s for s in scenario.satellites}
    events_by_id = {e.id: e for e in fire_events}
    periodic = scenario.archetype.triggering is Triggering.PERIODIC
    scene_ids = [f"scn-{i:05d}" for i in range(len(acquisitions))]
    processed = [periodic or triggered for *_, triggered in acquisitions]
    processed_ids = tuple(itertools.compress(scene_ids, processed))
    # Processed scene k seeds its clouds from row k and its detection from row n + k.
    n = len(processed_ids)
    states = _seed_states(scenario.seed, ("clouds", "detection"), processed_ids) if n else ()
    k = 0
    scenes: dict[str, Scene] = {}
    detections: dict[str, frozenset[str]] = {}
    for scene_id, (sat_id, aoi_id, window, triggered), process in zip(scene_ids, acquisitions, processed):
        cloud_fraction = onboard.draw_cloud_fraction(scenario.cloud_model, _stream(states[k])) if process else None
        scene = onboard.acquire_scene(
            scene_id, sats_by_id[sat_id], aois_by_id[aoi_id], window, triggered, members[aoi_id], cloud_fraction
        )
        scenes[scene_id] = scene
        if process:
            # With no event present there is nothing to detect, so no detection stream is built.
            detections[scene_id] = (
                onboard.classify_scene(scene, events_by_id, scenario.archetype.mmu_ha,
                                       scenario.detection.accuracy_p, _stream(states[n + k]))
                if scene.event_ids_present else frozenset()
            )
            k += 1
    return (fire_events, MappingProxyType(events_by_id), dropped, MappingProxyType(detection_times),
            requests, plan, MappingProxyType(scenes), MappingProxyType(detections))


def _products(
    scenario: Scenario, events_by_id: Mapping[str, FireEvent], scenes: Mapping[str, Scene],
    detections: Mapping[str, frozenset[str]],
) -> dict[str, DataProduct]:
    """The products of the processed scenes, in scene order; a satellite
    without an enabled processor sends its scenes to ground."""
    sats_by_id = {s.id: s for s in scenario.satellites}
    spec = scenario.detection
    products: dict[str, DataProduct] = {}
    for scene_id, detected in detections.items():
        scene = scenes[scene_id]
        sat = sats_by_id[scene.satellite_id]
        location = scenario.archetype.processing_location if sat.processor.enabled else ProcessingLocation.GROUND
        for p in onboard.build_products(scene, detected, events_by_id, location, scenario.cloud_model,
                                        sat.processor, spec.mask_compression, spec.chip_margin):
            products[p.id] = p
    return products


def _downlink(
    scenario: Scenario,
    scenes: Mapping[str, Scene],
    products: Mapping[str, DataProduct],
    links: Mapping[str, Sequence[LinkInterval]],
) -> TransferResult:
    """Store-and-forward downlink of every product created inside the horizon."""
    queues: dict[str, list[DataProduct]] = {sat.id: [] for sat in scenario.satellites}
    for p in products.values():
        if p.created <= scenario.horizon_s:
            queues[scenes[p.scene_id].satellite_id].append(p)
    rates = {stn.id: stn.xband_rate_mbit_s for stn in scenario.stations}
    return simulate_transfers(queues, links, rates)


def _ground(
    scenario: Scenario,
    products: Mapping[str, DataProduct],
    completions: Mapping[str, float],
) -> tuple[tuple[MarketplaceRecord, ...], dict[str, float], dict[str, tuple[float, str]]]:
    """The marketplace deliveries that fall inside the horizon, one per
    product, in (delivered, product id) order, each delivered product's
    delivery time, and each delivered event's earliest (delivered, product
    id): the first in that order among the deliveries containing it."""
    marketplace: list[MarketplaceRecord] = []
    for pid, done in completions.items():
        delivered = delivery_time(pdgs_done(products[pid], done, scenario.latencies), scenario.archetype)
        if delivered <= scenario.horizon_s:
            marketplace.append(MarketplaceRecord(pid, products[pid].event_ids, delivered))
    marketplace.sort(key=lambda r: (r.delivered, r.product_id))
    first_delivery_by_event: dict[str, tuple[float, str]] = {}
    for r in marketplace:
        for event_id in r.event_ids:
            first_delivery_by_event.setdefault(event_id, (r.delivered, r.product_id))
    delivered_by_product = {r.product_id: r.delivered for r in marketplace}
    return tuple(marketplace), delivered_by_product, first_delivery_by_event


def require_valid(scenario: Scenario) -> None:
    """Raise ValidationError naming every violation of the scenario, if it has any."""
    violations = validate_scenario(scenario)
    if violations:
        raise ValidationError("invalid scenario: " + "; ".join(str(v) for v in violations))


def with_processing(scenario: Scenario, location: Optional[ProcessingLocation]) -> Scenario:
    """The scenario with its archetype's processing location set to ``location``."""
    return replace(scenario, archetype=replace(scenario.archetype, processing_location=location))


def _memoized(memo: dict, kind: str, build, *key):
    """``build(*key)``, or what ``memo``'s one slot for ``kind`` holds if it was built from an equal key."""
    held = memo.get(kind)
    if held is None or held[0] != key:
        held = memo[kind] = (key, build(*key))
    return held[1]


def run(
    scenario: Scenario,
    injected_events: Optional[Sequence[FireEvent]] = None,
    *,
    memo: Optional[dict] = None,
) -> SimulationTrace:
    """Execute the full service chain and return the complete trace.  Consecutive
    runs given one ``memo`` dict share equal geometries and observations; a memo changes no result."""
    require_valid(scenario)
    memo = {} if memo is None else memo
    geometry = _memoized(memo, "geometry", _geometry,
                         scenario.satellites, scenario.stations, scenario.aois, scenario.horizon_s)
    # With the processing location erased, runs that differ only in it share one observation.
    unlocated = with_processing(scenario, None)
    injected = None if injected_events is None else tuple(injected_events)
    fire_events, events_by_id, dropped, detection_times, requests, plan, scenes, detections = _memoized(
        memo, "observation", _observation, unlocated, injected, geometry)
    products = _products(scenario, events_by_id, scenes, detections)
    transfers = _downlink(scenario, scenes, products, geometry.links)
    marketplace, delivered_by_product, first_delivery_by_event = _ground(
        scenario, products, transfers.completion_times)
    return SimulationTrace(
        scenario=scenario,
        fire_events=fire_events,
        events_by_id=events_by_id,
        dropped_event_ids=dropped,
        detection_times=detection_times,
        requests=requests,
        plan=plan,
        scenes=scenes,
        detections=detections,
        products=products,
        transfer_records=transfers.records,
        downlink_completions=transfers.completion_times,
        marketplace=marketplace,
        delivered_by_product=delivered_by_product,
        first_delivery_by_event=first_delivery_by_event,
    )
