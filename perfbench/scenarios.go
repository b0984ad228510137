package main

import (
	"fmt"
	"math/rand"

	"camsim/internal/core"
	"camsim/internal/fleet"
)

// deepTopology is the 41-link tree both large fleet workloads share: 32
// gateways (2 Gb/s) feed 8 metro tiers (4 Gb/s), which feed one core link
// (8 Gb/s). Class i attaches to gateway gw-i.
func deepTopology(seed int64, name string, duration float64) fleet.Scenario {
	sc := fleet.Scenario{Name: name, Seed: seed, Duration: duration}
	for g := 0; g < 32; g++ {
		sc.Tiers = append(sc.Tiers, fleet.Tier{
			Name: fmt.Sprintf("gw-%d", g), Parent: fmt.Sprintf("metro-%d", g%8),
			Uplink:         fleet.UplinkConfig{Gbps: 2, Contention: fleet.ContentionFairShare},
			PropagationSec: 0.0002,
		})
	}
	for m := 0; m < 8; m++ {
		sc.Tiers = append(sc.Tiers, fleet.Tier{
			Name: fmt.Sprintf("metro-%d", m), Parent: "core",
			Uplink:         fleet.UplinkConfig{Gbps: 4, Contention: fleet.ContentionFairShare},
			PropagationSec: 0.002,
		})
	}
	sc.Tiers = append(sc.Tiers, fleet.Tier{
		Name:           "core",
		Uplink:         fleet.UplinkConfig{Gbps: 8, Contention: fleet.ContentionFairShare},
		PropagationSec: 0.01,
	})
	return sc
}

// monitorClass is a fixed-payload monitoring population on one gateway.
func monitorClass(gw string, count int, fps float64) fleet.Class {
	return fleet.Class{
		Name: "cams-" + gw, Count: count, FPS: fps, Arrival: fleet.ArrivalPoisson,
		Tier: gw, FrameBytes: 4000, OffloadProb: 1, ComputeSeconds: 0.005,
		QueueDepth: 4, CaptureJ: 1e-4, ComputeJ: 1e-4, TxFixedJ: 1e-5, TxPerByteJ: 1e-9,
	}
}

// hugeFleetScenario: 100k Poisson cameras at 2 fps on the deep topology,
// static placement, exact telemetry, 2 simulated seconds. The event heap
// holds one entry per camera, far more than fits in L2.
func hugeFleetScenario(seed int64) fleet.Scenario {
	sc := deepTopology(seed, "huge-fleet", 2)
	for g := 0; g < 32; g++ {
		sc.Classes = append(sc.Classes, monitorClass(fmt.Sprintf("gw-%d", g), 100_000/32, 2))
	}
	return sc
}

// busyTiersScenario: about 2.5k cameras at 8 fps on the deep topology with
// a compute pool on every tier near 80% load (fair-share at the gateways,
// FIFO at the metros and core), half the gateway uplinks FIFO, adaptive VR
// and face-auth classes on a few gateways, a fault schedule, and streaming
// telemetry in 0.5 s windows over 12 simulated seconds.
func busyTiersScenario(seed int64) (fleet.Scenario, error) {
	sc := deepTopology(seed, "busy-tiers", 12)
	// 78 cameras × 8 fps ≈ 625 frames/s per gateway; 4 cores at 195
	// frames/s each is 80% load, and the metro and core pools scale with
	// their fan-in.
	const perGW, fps, rate = 78, 8, 195
	for i := range sc.Tiers {
		t := &sc.Tiers[i]
		switch {
		case t.Name == "core":
			t.Compute = &fleet.ComputeConfig{Cores: 128, ServiceRateFPS: rate, Discipline: fleet.ContentionFIFO}
		case t.Parent == "core":
			t.Compute = &fleet.ComputeConfig{Cores: 16, ServiceRateFPS: rate, Discipline: fleet.ContentionFIFO}
		default:
			t.Compute = &fleet.ComputeConfig{Cores: 4, ServiceRateFPS: rate, Discipline: fleet.ContentionFairShare}
			if i%2 == 1 {
				t.Uplink.Contention = fleet.ContentionFIFO
			}
		}
	}
	for g := 0; g < 32; g++ {
		sc.Classes = append(sc.Classes, monitorClass(fmt.Sprintf("gw-%d", g), perGW, fps))
	}
	pls := []core.Placement{
		{}, // raw sensor offload
		{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}}, // full in-camera pipeline
	}
	vrPol := fleet.PolicyConfig{Kind: fleet.PolicyLatencyThreshold, IntervalSec: 0.5, HighSec: 0.05, MoveFraction: 0.5}
	faPol := fleet.PolicyConfig{Kind: fleet.PolicyEnergyLatency, IntervalSec: 1, HighSec: 0.2, EnergyWeight: 1, MoveFraction: 0.5}
	for g := 0; g < 4; g++ {
		gw := fmt.Sprintf("gw-%d", g)
		vr, err := fleet.VRAdaptiveClass(1, pls, 10, vrPol)
		if err != nil {
			return fleet.Scenario{}, err
		}
		vr.Name, vr.Tier = "vr-"+gw, gw
		fa := fleet.FaceAuthAdaptiveClass(24, faPol)
		fa.Name, fa.Tier = "fa-"+gw, gw
		sc.Classes = append(sc.Classes, vr, fa)
		sc.Tiers[g].Compute.ServiceSec = []fleet.ClassServiceSec{{Class: vr.Name, Sec: 0.004}, {Class: fa.Name, Sec: 0.002}}
	}
	sc.Dynamics = &fleet.DynamicsConfig{Events: []fleet.FleetEvent{
		{Time: 0.5, Kind: fleet.DynCameraJoin, Class: "cams-gw-8", Count: 1, EverySec: 0.5},
		{Time: 0.7, Kind: fleet.DynCameraLeave, Class: "cams-gw-9", Count: 1, EverySec: 0.5},
		{Time: 4, Kind: fleet.DynTierOutage, Tier: "gw-12", Fallback: "gw-13"},
		{Time: 6.5, Kind: fleet.DynTierRecover, Tier: "gw-12"},
		{Time: 7, Kind: fleet.DynLinkDegrade, Tier: "metro-3", Factor: 0.5},
		{Time: 9, Kind: fleet.DynLinkRestore, Tier: "metro-3"},
	}}
	sc.Telemetry = &fleet.TelemetryConfig{Streaming: true, WindowSec: 0.5}
	return sc, nil
}

// sweepBatch is the scenario-sweep input: n small scenarios cycling
// through every scenario form and section — the flat uplink, the gateway
// form, tier trees, downlinks with a federated job, compute pools, a
// dynamics schedule, every placement policy and the global controller —
// The seed draws each scenario's seed, policy, depth and flat-uplink
// shape; the population scale and the horizon cycle with the index, so
// every seed's batch does the same order of work.
func sweepBatch(seed int64, n int) ([]fleet.Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	policies := []string{fleet.PolicyStatic, fleet.PolicyLatencyThreshold, fleet.PolicyHysteresis}
	out := make([]fleet.Scenario, 0, n)
	for i := 0; i < n; i++ {
		s := rng.Int63()
		var sc fleet.Scenario
		var err error
		scale := 2 + i/80 // a few hundred cameras
		switch i % 10 {
		case 0:
			sc, err = flatScenario(rng, s)
		case 1:
			sc, err = fleet.TopologyDemoScenario(s, policies[rng.Intn(len(policies))])
		case 2:
			sc, err = fleet.DeepTopologyScenario(s, 2+rng.Intn(3), policies[rng.Intn(len(policies))])
		case 3:
			sc, err = fleet.EnergyDemoScenario(s, fleet.PolicyEnergyLatency)
		case 4:
			sc, err = fleet.EnergyDemoScenario(s, fleet.GlobalModeBudget)
		case 5:
			sc, err = fleet.ComputeDemoScenario(s, fleet.ComputeModeAdaptive)
		case 6:
			sc, err = fleet.ComputeDemoScenario(s, fleet.GlobalModeBudget)
		case 7:
			sc = fleet.DynamicsDemoScenario(s)
		case 8:
			sc = fleet.FederatedDemoScenario(s)
			sc.Federated.Rounds = 2 + rng.Intn(3)
		case 9:
			sc, err = fleet.ComputeDemoScenario(s, fleet.PolicyStatic)
		}
		if err != nil {
			return nil, err
		}
		// The dynamics schedule is timed against an 8 s run; every other
		// form takes a 1–8 s horizon and a population scale.
		if sc.Dynamics == nil {
			sc.Duration = float64(1 + (i/10)%8)
			for c := range sc.Classes {
				sc.Classes[c].Count *= scale
			}
		}
		sc.Name = fmt.Sprintf("%s#%d", sc.Name, i)
		out = append(out, sc)
	}
	return out, nil
}

// flatScenario is the single-shared-uplink form: face-auth and VR cameras
// plus a plain monitoring class on one link.
func flatScenario(rng *rand.Rand, seed int64) (fleet.Scenario, error) {
	contention := []string{fleet.ContentionFairShare, fleet.ContentionFIFO}[rng.Intn(2)]
	vr, err := fleet.VRClass(2, core.Placement{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}}, 30)
	if err != nil {
		return fleet.Scenario{}, err
	}
	return fleet.Scenario{
		Name: "flat", Seed: seed, Duration: 4,
		Uplink: fleet.UplinkConfig{Gbps: 1 + float64(rng.Intn(4)), Contention: contention},
		Classes: []fleet.Class{
			fleet.FaceAuthClass(40 + rng.Intn(40)),
			vr,
			{Name: "monitor", Count: 20 + rng.Intn(20), FPS: 4, Arrival: fleet.ArrivalPeriodic,
				FrameBytes: 20_000, OffloadProb: 0.5, QueueDepth: 4},
		},
	}, nil
}
