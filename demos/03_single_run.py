"""One end-to-end simulation of the hybrid high-resolution service.

Runs the built-in hybrid preset for three days and walks one fire event
through the whole chain: start, monitoring, tasking, acquisition, onboard
processing, downlink and marketplace delivery.
"""

import dataclasses

from eochain.engine import run
from eochain.metrics import build_service_report, first_info_product, time_to_first_info
from eochain.presets import iride_heo

scenario = dataclasses.replace(iride_heo(), seed=7, horizon_s=3 * 86400.0)
trace = run(scenario)

print(f"Scenario '{scenario.name}', seed {scenario.seed}, "
      f"{scenario.horizon_s / 86400:.0f} simulated days")
print(f"  fire events:        {len(trace.fire_events)}")
print(f"  systematic scenes:  {len(trace.scenes)}")
print(f"  triggered scenes:   {sum(1 for s in trace.scenes.values() if s.triggered)}")
print(f"  products built:     {len(trace.products)}")
print(f"  products delivered: {len(trace.marketplace)}")
print(f"  unmet requests:     {len(trace.plan.unmet_request_ids)}")

delivered = [e for e in trace.fire_events if time_to_first_info(trace, e.id) is not None]
if delivered:
    ev = delivered[0]
    print(f"\nChain milestones for event '{ev.id}' ({ev.area_ha:.1f} ha):")
    print(f"  fire start            {ev.start:10.1f} s")
    print(f"  monitoring detection  {trace.detection_times[ev.id]:10.1f} s")
    assignment = next(
        (a for a in trace.plan.assignments
         if a.request_id == f"req-{ev.id}"), None,
    )
    if assignment is not None:
        print(f"  tasking uplink        {assignment.uplink_time:10.1f} s ({assignment.satellite_id})")
        print(f"  planned acquisition   {assignment.window.start:10.1f} s")
    product = trace.products[first_info_product(trace, ev.id)]
    ttfi = time_to_first_info(trace, ev.id)
    scene = trace.scenes[product.scene_id]
    print(f"  scene acquired        {scene.acquired:10.1f} s (cloud {scene.cloud_fraction:.2f})")
    print(f"  product ready         {product.created:10.1f} s ({product.kind.value})")
    print(f"  downlink complete     {trace.downlink_completions[product.id]:10.1f} s")
    print(f"  marketplace delivery  {trace.delivered_by_product[product.id]:10.1f} s")
    print(f"  => time to first info {ttfi:10.1f} s ({ttfi / 3600:.1f} h)")

report = build_service_report(trace)
s = report.summary
print("\nService summary:")
print(f"  completeness              {s['completeness']}")
print(f"  time-to-first-info p50    {s['ttfi_p50_s']} s (never: {s['ttfi_never_count']})")
print(f"  end-to-end latency p50    {s['e2e_p50_s']} s")
print(f"  bits generated/downlinked {s['generated_bits_total']:,} / {s['transferred_bits_total']:,}")
