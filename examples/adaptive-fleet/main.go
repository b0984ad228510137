// Adaptive-fleet: drive the tiered internal/fleet simulator from a JSON
// topology scenario — two edge gateways feeding a shared WAN — and compare
// placement policies on the same congested fleet.
//
// Each gateway aggregates four VR camera heads and a population of
// battery-free face-authentication cameras. The VR heads carry a runtime
// cost table with two Fig. 10 placements: raw sensor offload (~12.4 MB per
// frame, no in-camera compute) and the full in-camera pipeline (~1.1 MB
// stitched output, 31.6 ms of compute). At raw offload the heads
// oversubscribe their 2 Gb/s gateway links several times over; the
// latency-threshold policy watches offload latency and queue drops and
// shifts cameras to in-camera compute until the tier recovers — the
// paper's computation-communication tradeoff re-decided at runtime.
package main

import (
	"fmt"

	"camsim/internal/fleet"
)

const scenarioJSON = `{
  "name": "campus-topo",
  "seed": 1,
  "duration_sec": 10,
  "tiers": [
    {"name": "gw-north", "parent": "wan", "uplink": {"gbps": 2, "contention": "fair-share"}},
    {"name": "gw-south", "parent": "wan", "uplink": {"gbps": 2, "contention": "fair-share"}},
    {"name": "wan", "uplink": {"gbps": 4, "contention": "fair-share"}}
  ],
  "classes": [
    {"name": "vr-north", "count": 4, "fps": 30, "tier": "gw-north",
     "capture_j": 5e-3, "tx_fixed_j": 1e-4, "tx_per_byte_j": 4e-8,
     "placements": [
       {"name": "raw", "frame_bytes": 12400000, "compute_sec": 0.0001, "compute_j": 0.0002},
       {"name": "in-camera", "frame_bytes": 1122000, "compute_sec": 0.0316, "compute_j": 0.316}
     ],
     "policy": {"kind": "latency-threshold", "interval_sec": 0.5,
                "high_sec": 0.2, "move_fraction": 0.5}},
    {"name": "fa-north", "count": 80, "fps": 1, "arrival": "poisson",
     "tier": "gw-north", "frame_bytes": 400, "offload_prob": 0.1,
     "compute_sec": 0.02, "capture_j": 3.3e-6, "compute_j": 3e-7,
     "tx_fixed_j": 2e-6, "tx_per_byte_j": 4.8e-10,
     "harvest_w": 2e-4, "store_j": 0.07},
    {"name": "vr-south", "count": 4, "fps": 30, "tier": "gw-south",
     "capture_j": 5e-3, "tx_fixed_j": 1e-4, "tx_per_byte_j": 4e-8,
     "placements": [
       {"name": "raw", "frame_bytes": 12400000, "compute_sec": 0.0001, "compute_j": 0.0002},
       {"name": "in-camera", "frame_bytes": 1122000, "compute_sec": 0.0316, "compute_j": 0.316}
     ],
     "policy": {"kind": "latency-threshold", "interval_sec": 0.5,
                "high_sec": 0.2, "move_fraction": 0.5}},
    {"name": "fa-south", "count": 80, "fps": 1, "arrival": "poisson",
     "tier": "gw-south", "frame_bytes": 400, "offload_prob": 0.1,
     "compute_sec": 0.02, "capture_j": 3.3e-6, "compute_j": 3e-7,
     "tx_fixed_j": 2e-6, "tx_per_byte_j": 4.8e-10,
     "harvest_w": 2e-4, "store_j": 0.07}
  ]
}`

func main() {
	base, err := fleet.ParseScenario([]byte(scenarioJSON))
	if err != nil {
		panic(err)
	}

	// The same tiered population with the VR classes pinned (static) and
	// adapting (latency-threshold), swept across the worker pool.
	var scenarios []fleet.Scenario
	for _, kind := range []string{fleet.PolicyStatic, fleet.PolicyLatencyThreshold} {
		sc := base
		sc.Name = base.Name + "/" + kind
		sc.Classes = append([]fleet.Class(nil), base.Classes...)
		for i := range sc.Classes {
			if len(sc.Classes[i].Placements) > 0 {
				sc.Classes[i].Policy.Kind = kind
			}
		}
		scenarios = append(scenarios, sc)
	}
	for _, o := range fleet.Sweep(scenarios, 0) {
		if o.Err != nil {
			panic(o.Err)
		}
		fmt.Print(o.Result.Table())
		fmt.Println()
	}

	fmt.Println("pinned at raw offload the VR heads drown their gateway tier and spend")
	fmt.Println("seconds per frame; the latency-threshold controller sees the congestion")
	fmt.Println("inside a second and walks every head to the in-camera placement — lower")
	fmt.Println("p95, fewer drops, and both tiers back under their capacity.")
}
