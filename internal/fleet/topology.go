package fleet

import (
	"fmt"
	"sort"

	"camsim/internal/core"
	"camsim/internal/energy"
	"camsim/internal/fleet/fl"
)

// compactPlacementName renders a Fig. 10-style short label for a
// placement: "S~" for raw sensor offload, else stage names tagged with the
// implementation initial ("SB1CB2CB3FB4F~").
func compactPlacementName(p *core.ThroughputPipeline, pl core.Placement) string {
	if pl.InCamera == 0 {
		return "S~"
	}
	s := "S"
	for i := 0; i < pl.InCamera; i++ {
		s += p.Stages[i].Name + pl.Impl[i][:1]
	}
	return s + "~"
}

// VRAdaptiveClass builds a VR camera-head class that can switch between
// the given Fig. 10 placements at runtime: the core cost table supplies
// each placement's per-frame compute time and offload payload, rows are
// ordered from most-offload to most-in-camera (decreasing payload) as the
// fleet placement index convention requires, and compute energy charges
// the placement's most power-hungry device for the frame's compute time.
// policy decides how cameras move through the table.
func VRAdaptiveClass(count int, pls []core.Placement, targetFPS float64, policy PolicyConfig) (Class, error) {
	if len(pls) == 0 {
		return Class{}, fmt.Errorf("fleet: adaptive VR class needs at least one placement")
	}
	p := PaperVRPipeline()
	entries, err := p.CostTable(pls)
	if err != nil {
		return Class{}, err
	}
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].Cost.OffloadBytes > entries[j].Cost.OffloadBytes
	})
	radio := energy.WiFiRadio()
	pcs := make([]PlacementCost, 0, len(entries))
	for _, e := range entries {
		watts := 2.0 // sensor interface + ISP floor for a sensor-only node
		for _, impl := range e.Placement.Impl {
			if w, ok := VRDevicePowerWatts[impl]; ok && w > watts {
				watts = w
			}
		}
		pcs = append(pcs, PlacementCost{
			Name:           compactPlacementName(p, e.Placement),
			FrameBytes:     e.Cost.OffloadBytes,
			ComputeSeconds: e.Cost.ComputeSeconds,
			ComputeJ:       watts * e.Cost.ComputeSeconds,
		})
	}
	return Class{
		Name:        "vr-adaptive",
		Count:       count,
		FPS:         targetFPS,
		Arrival:     ArrivalPeriodic, // genlocked capture, staggered phases
		OffloadProb: 1,
		QueueDepth:  4,
		CaptureJ:    5e-3, // 4K sensor readout per frame
		TxFixedJ:    float64(radio.WakeOverhead),
		TxPerByteJ:  float64(radio.EnergyPerBit) * 8,
		Placements:  pcs,
		Policy:      policy,
	}, nil
}

// TopologyDemoScenario builds the congested two-gateway fleet behind the
// `camsim topo` experiment, BenchmarkTopologySweep and the adaptive-policy
// tests: each gateway aggregates adaptive VR camera heads (starting at raw
// sensor offload, able to fall back to the full in-camera pipeline) plus a
// population of battery-free face-auth cameras, and both gateway links
// funnel into a shared WAN, the root tier "wan". At raw offload the VR
// demand oversubscribes the gateway links several times over; at full
// in-camera compute it fits.
// policy names the VR classes' adaptation rule: PolicyStatic pins them at
// raw offload, PolicyLatencyThreshold and PolicyHysteresis adapt.
func TopologyDemoScenario(seed int64, policy string) (Scenario, error) {
	pls := []core.Placement{
		{}, // raw sensor offload
		{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}}, // full in-camera pipeline
	}
	pol := PolicyConfig{
		Kind:         policy,
		IntervalSec:  0.5,
		HighSec:      0.2,
		LowSec:       0.01,
		MoveFraction: 0.5,
	}
	sc := Scenario{
		Name:     "topo-2gw/" + policy,
		Seed:     seed,
		Duration: 8,
		Tiers: []Tier{
			{Name: "gw-a", Parent: "wan", Uplink: UplinkConfig{Gbps: 2, Contention: ContentionFairShare}},
			{Name: "gw-b", Parent: "wan", Uplink: UplinkConfig{Gbps: 2, Contention: ContentionFairShare}},
			{Name: "wan", Uplink: UplinkConfig{Gbps: 4, Contention: ContentionFairShare}},
		},
	}
	for _, gw := range []string{"gw-a", "gw-b"} {
		vr, err := VRAdaptiveClass(4, pls, 30, pol)
		if err != nil {
			return Scenario{}, err
		}
		vr.Name = "vr-" + gw
		vr.Tier = gw
		fa := FaceAuthClass(60)
		fa.Name = "fa-" + gw
		fa.Tier = gw
		sc.Classes = append(sc.Classes, vr, fa)
	}
	return sc, nil
}

// GlobalModeBudget selects the global-controller variant of
// EnergyDemoScenario; the other accepted modes are the placement policy
// names PolicyStatic and PolicyEnergyLatency.
const GlobalModeBudget = "global"

// EnergyDemoScenario builds the *uncongested* two-gateway fleet behind
// `camsim topo -global`: each 4 Gb/s gateway carries two adaptive VR
// camera heads at 10 FPS plus a battery-free face-auth population, both
// links feed an 8 Gb/s core, and every link is priced in forwarding
// joules per byte (energy.ForwardPerByteJ-class figures). At raw sensor
// offload the links sit near half utilization — latency alone never asks
// the cameras to move — but each raw head burns ~8.7 W of camera radio
// plus network forwarding, against ~4.0 W for the full in-camera
// pipeline. mode picks who notices:
//
//   - PolicyStatic: nobody; the fleet stays at raw offload.
//   - PolicyEnergyLatency: each class's local controller walks every head
//     in-camera, minimizing its own energy with no view of the fleet.
//   - GlobalModeBudget: the global controller sheds watts greedily each
//     epoch, but only down to its fleet-wide budget — the heads that fit
//     keep the low-latency raw placement.
func EnergyDemoScenario(seed int64, mode string) (Scenario, error) {
	pls := []core.Placement{
		{}, // raw sensor offload
		{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}}, // full in-camera pipeline
	}
	pol := PolicyConfig{Kind: PolicyStatic}
	switch mode {
	case PolicyStatic, GlobalModeBudget:
	case PolicyEnergyLatency:
		pol = PolicyConfig{
			Kind:         PolicyEnergyLatency,
			IntervalSec:  0.5,
			HighSec:      0.5,
			EnergyWeight: 1,
			MoveFraction: 0.5,
		}
	default:
		return Scenario{}, fmt.Errorf("fleet: unknown energy demo mode %q", mode)
	}
	sc := Scenario{
		Name:     "energy-2gw/" + mode,
		Seed:     seed,
		Duration: 8,
		Tiers: []Tier{
			{Name: "gw-a", Parent: "core", Uplink: UplinkConfig{Gbps: 4, Contention: ContentionFairShare},
				PropagationSec: 0.0002, TxPerByteJ: 2e-8},
			{Name: "gw-b", Parent: "core", Uplink: UplinkConfig{Gbps: 4, Contention: ContentionFairShare},
				PropagationSec: 0.0002, TxPerByteJ: 2e-8},
			{Name: "core", Uplink: UplinkConfig{Gbps: 8, Contention: ContentionFairShare},
				PropagationSec: 0.002, TxPerByteJ: 1e-8},
		},
	}
	if mode == GlobalModeBudget {
		// Between all-raw (~35 W) and all-in-camera (~16 W): the knapsack
		// must move some heads and leave the rest fast.
		sc.Global = &GlobalConfig{EpochSec: 1, BudgetW: 24, HighSec: 0.5, MoveFraction: 0.5}
	}
	for _, gw := range []string{"gw-a", "gw-b"} {
		vr, err := VRAdaptiveClass(2, pls, 10, pol)
		if err != nil {
			return Scenario{}, err
		}
		vr.Name = "vr-" + gw
		vr.Tier = gw
		fa := FaceAuthClass(40)
		fa.Name = "fa-" + gw
		fa.Tier = gw
		sc.Classes = append(sc.Classes, vr, fa)
	}
	return sc, nil
}

// FaceAuthAdaptiveClass is FaceAuthClass with a runtime placement table:
// the battery-free face-auth camera can either ship the detected face
// crop and let the cloud authenticate it (row 0, "crop": a 64×64 region,
// the NN sweep skipped in camera) or run the full authentication chain
// locally and ship only the 20×20 chip (row 1, "chip" — the fixed
// FaceAuthClass behavior). On a backscatter radio the byte delta is
// nearly free, so without finite tier compute the rows are almost
// indistinguishable; a compute section on the camera's gateway is what
// gives the harvesting class a real cost signal — the crop needs tier
// service the chip does not, and the queueing behind heavier traffic
// lands in the class's observed latency. policy decides how cameras move
// through the table.
func FaceAuthAdaptiveClass(count int, policy PolicyConfig) Class {
	const cropB = 64 * 64 // 8-bit face crop shipped for cloud-side auth
	c := FaceAuthClass(count)
	c.Name = "fa-adaptive"
	c.Placements = []PlacementCost{
		{Name: "crop", FrameBytes: cropB, ComputeSeconds: 0.012, ComputeJ: c.ComputeJ * 0.8},
		{Name: "chip", FrameBytes: c.FrameBytes, ComputeSeconds: c.ComputeSeconds, ComputeJ: c.ComputeJ},
	}
	c.Policy = policy
	return c
}

// ComputeModeAdaptive selects the per-class-controller variant of
// ComputeDemoScenario; the other accepted modes are PolicyStatic and
// GlobalModeBudget.
const ComputeModeAdaptive = "adaptive"

// ComputeDemoScenario builds the finite-compute fleet behind `camsim
// topo -compute`: the EnergyDemoScenario tier tree (two 4 Gb/s gateways
// into an 8 Gb/s core, links near half utilization at raw offload) with
// every tier given a finite core pool. gw-a gets a single 16-frames/sec
// core behind a FIFO queue — undersized for its two raw VR heads at
// 10 FPS (20 reference frames/sec of demand), so a compute queue grows
// where the network alone was a free lunch; gw-b gets four fair-shared
// cores (uncongested, for contrast) and the core tier a wide 4×200
// pool. Face-auth crops take an explicit 2 ms service_sec entry, and on
// gw-a's FIFO queue they wait behind multi-megabyte VR frames. Service
// demand scales with payload, so the in-camera VR placement (~11× fewer
// bytes) also needs ~11× less tier service — placement is the lever
// that relieves the pool. mode picks who pulls it:
//
//   - PolicyStatic: nobody; gw-a's pool saturates and waits grow without
//     bound for the whole run.
//   - ComputeModeAdaptive: the VR heads run hysteresis and escalate
//     in-camera when queueing blows their 200 ms target; the face-auth
//     cameras run energy-latency, their placement rows now priced with
//     real compute delay.
//   - GlobalModeBudget: static locals under the global controller, whose
//     observed p95 carries the compute queueing (latency relief) and
//     whose energy knapsack refuses steps whose delay floor breaks the
//     target — the joint network+compute placement decision.
func ComputeDemoScenario(seed int64, mode string) (Scenario, error) {
	pls := []core.Placement{
		{}, // raw sensor offload
		{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}}, // full in-camera pipeline
	}
	vrPol := PolicyConfig{Kind: PolicyStatic}
	faPol := PolicyConfig{Kind: PolicyStatic}
	switch mode {
	case PolicyStatic, GlobalModeBudget:
	case ComputeModeAdaptive:
		vrPol = PolicyConfig{
			Kind:         PolicyHysteresis,
			IntervalSec:  0.5,
			HighSec:      0.2,
			LowSec:       0.01,
			MoveFraction: 0.5,
		}
		faPol = PolicyConfig{
			Kind:         PolicyEnergyLatency,
			IntervalSec:  1,
			HighSec:      0.2,
			EnergyWeight: 1,
			MoveFraction: 0.5,
		}
	default:
		return Scenario{}, fmt.Errorf("fleet: unknown compute demo mode %q", mode)
	}
	sc := Scenario{
		Name:     "compute-2gw/" + mode,
		Seed:     seed,
		Duration: 8,
		Tiers: []Tier{
			{Name: "gw-a", Parent: "core", Uplink: UplinkConfig{Gbps: 4, Contention: ContentionFairShare},
				PropagationSec: 0.0002, TxPerByteJ: 2e-8,
				Compute: &ComputeConfig{Cores: 1, ServiceRateFPS: 16, Discipline: ContentionFIFO,
					ServiceSec: []ClassServiceSec{{Class: "fa-gw-a", Sec: 0.002}}}},
			{Name: "gw-b", Parent: "core", Uplink: UplinkConfig{Gbps: 4, Contention: ContentionFairShare},
				PropagationSec: 0.0002, TxPerByteJ: 2e-8,
				Compute: &ComputeConfig{Cores: 4, ServiceRateFPS: 16, Discipline: ContentionFairShare,
					ServiceSec: []ClassServiceSec{{Class: "fa-gw-b", Sec: 0.002}}}},
			{Name: "core", Uplink: UplinkConfig{Gbps: 8, Contention: ContentionFairShare},
				PropagationSec: 0.002, TxPerByteJ: 1e-8,
				Compute: &ComputeConfig{Cores: 4, ServiceRateFPS: 200}},
		},
	}
	if mode == GlobalModeBudget {
		// The budget sits between all-raw and all-in-camera placement
		// power, and the latency target is what the compute queueing at
		// gw-a breaks: both controller phases have work to do.
		sc.Global = &GlobalConfig{EpochSec: 1, BudgetW: 26, HighSec: 0.25, MoveFraction: 0.5}
	}
	for _, gw := range []string{"gw-a", "gw-b"} {
		vr, err := VRAdaptiveClass(2, pls, 10, vrPol)
		if err != nil {
			return Scenario{}, err
		}
		vr.Name = "vr-" + gw
		vr.Tier = gw
		fa := FaceAuthAdaptiveClass(40, faPol)
		fa.Name = "fa-" + gw
		fa.Tier = gw
		sc.Classes = append(sc.Classes, vr, fa)
	}
	return sc, nil
}

// DynamicsDemoScenario builds the fleet behind `camsim topo -dynamics`:
// two monitored camera populations behind 0.2 Gb/s gateways feeding an
// 0.8 Gb/s core (roughly half utilized at the nominal rates), with the
// core-side of each gateway backed by a finite core pool, living through
// a scheduled day of fleet weather:
//
//	t=1.0  the east population's diurnal swell doubles its frame rate
//	t=1.5  six provisioned cameras join the east class
//	t=2.5  gw-a's autoscaler answers the swell with four extra cores
//	t=3.0  gw-a fails — in-flight frames drop, east re-homes to gw-b
//	t=4.5  gw-a recovers and east re-homes back
//	t=5.0  gw-b's backhaul degrades to half capacity
//	t=6.5  gw-b's backhaul is restored
//	t=7.0  the swell ends (east back to its base rate)
//	t=7.2  the six day-shift cameras leave
//
// The demo compares this run against the identical fleet with the
// schedule stripped, so the report can attribute every divergence —
// extra captures, outage drops, re-homed traffic on gw-b — to the
// dynamics engine alone.
func DynamicsDemoScenario(seed int64) Scenario {
	sc := Scenario{
		Name:     "topo-dynamics",
		Seed:     seed,
		Duration: 8,
		Tiers: []Tier{
			{Name: "gw-a", Parent: "core",
				Uplink:         UplinkConfig{Gbps: 0.2, Contention: ContentionFairShare},
				PropagationSec: 0.0002,
				Compute:        &ComputeConfig{Cores: 2, ServiceRateFPS: 80}},
			{Name: "gw-b", Parent: "core",
				Uplink:         UplinkConfig{Gbps: 0.2, Contention: ContentionFIFO},
				PropagationSec: 0.0002},
			{Name: "core",
				Uplink:         UplinkConfig{Gbps: 0.8, Contention: ContentionFairShare},
				PropagationSec: 0.002},
		},
		Classes: []Class{
			{Name: "cam-east", Count: 24, FPS: 5, Arrival: ArrivalPoisson,
				FrameBytes: 100_000, Tier: "gw-a", QueueDepth: 4},
			{Name: "cam-west", Count: 24, FPS: 5, Arrival: ArrivalPoisson,
				FrameBytes: 100_000, Tier: "gw-b", QueueDepth: 4},
		},
		Dynamics: &DynamicsConfig{Events: []FleetEvent{
			{Time: 1.0, Kind: DynFPSProfile, Class: "cam-east", Multiplier: 2},
			{Time: 1.5, Kind: DynCameraJoin, Class: "cam-east", Count: 6},
			{Time: 2.5, Kind: DynComputeScale, Tier: "gw-a", Cores: 6},
			{Time: 3.0, Kind: DynTierOutage, Tier: "gw-a", Fallback: "gw-b"},
			{Time: 4.5, Kind: DynTierRecover, Tier: "gw-a"},
			{Time: 5.0, Kind: DynLinkDegrade, Tier: "gw-b", Factor: 0.5},
			{Time: 6.5, Kind: DynLinkRestore, Tier: "gw-b"},
			{Time: 7.0, Kind: DynFPSProfile, Class: "cam-east", Multiplier: 1},
			{Time: 7.2, Kind: DynCameraLeave, Class: "cam-east", Count: 6},
		}},
	}
	return sc
}

// FederatedDemoScenario builds the bidirectional fleet behind `camsim
// topo -fl`: two gateways and a core, every tier carrying a downlink
// alongside its uplink, and a federated-learning job training the
// paper's 400-8-1 face-authentication MLP across 48 edge cameras. Each
// round the cameras push half-compressed float32 update blobs (~6.4 kB)
// up their gateway uplinks — contending with their own monitoring frames
// and a core-attached background class — the core aggregates each
// gateway's fan-in to a single merged blob before the WAN hop, and the
// cloud broadcasts the ~12.9 kB merged model down the downlink tree to
// start the next round. The jitter knob makes stragglers: the cloud
// barrier waits on the slowest camera, so round latency tracks the
// straggler p95, and in-network aggregation keeps the WAN's federated
// bytes at one blob per round against 48 entering the edge.
func FederatedDemoScenario(seed int64) Scenario {
	sc := Scenario{
		Name:     "topo-fl",
		Seed:     seed,
		Duration: 8,
		Tiers: []Tier{
			{Name: "gw-a", Parent: "core",
				Uplink:         UplinkConfig{Gbps: 2, Contention: ContentionFairShare},
				PropagationSec: 0.0002,
				Downlink:       &DownlinkConfig{Gbps: 1, Contention: ContentionFairShare, PropagationSec: 0.0002}},
			{Name: "gw-b", Parent: "core",
				Uplink:         UplinkConfig{Gbps: 2, Contention: ContentionFIFO},
				PropagationSec: 0.0002,
				Downlink:       &DownlinkConfig{Gbps: 1, Contention: ContentionFairShare, PropagationSec: 0.0002}},
			{Name: "core",
				Uplink:         UplinkConfig{Gbps: 8, Contention: ContentionFairShare},
				PropagationSec: 0.01,
				Downlink:       &DownlinkConfig{Gbps: 4, Contention: ContentionFairShare, PropagationSec: 0.01}},
		},
		Federated: &fl.Config{
			Rounds:     4,
			Classes:    []string{"fl-gw-a", "fl-gw-b"},
			ComputeSec: 0.6,
			JitterSec:  0.4,
			Model:      &fl.ModelConfig{Layers: []int{400, 8, 1}, BytesPerWeight: 4, Compress: 0.5},
		},
	}
	for _, gw := range []string{"gw-a", "gw-b"} {
		sc.Classes = append(sc.Classes, Class{
			Name:           "fl-" + gw,
			Count:          24,
			FPS:            2,
			Arrival:        ArrivalPoisson,
			FrameBytes:     200000,
			OffloadProb:    0.25,
			ComputeSeconds: 0.01,
			QueueDepth:     4,
			Tier:           gw,
		})
	}
	// Core-attached background traffic that does not participate in the
	// job: the federated blobs share the WAN with it, not an idle link.
	sc.Classes = append(sc.Classes, Class{
		Name:           "bg-core",
		Count:          8,
		FPS:            10,
		Arrival:        ArrivalPeriodic,
		FrameBytes:     1200000,
		ComputeSeconds: 0.005,
		QueueDepth:     4,
	})
	return sc
}

// DeepTopologyScenario builds the camera→gateway→metro→core chain behind
// `camsim topo -depth`: depth network tiers separate a leaf camera from
// the cloud (depth ≥ 2). Two leaf gateways ("gw-a", "gw-b", 2 Gb/s, 0.2 ms
// of propagation) each aggregate the same adaptive-VR + face-auth
// population as TopologyDemoScenario; their traffic climbs depth-2 metro
// tiers ("metro-1"…, 4 Gb/s, 2 ms) and finally the core link ("core",
// 8 Gb/s, 10 ms) out of the network. Every hop adds transmission plus
// propagation to the offload latency, so even the uncongested adaptive
// fleet cannot beat the accumulated propagation floor (12.2 ms at depth
// 3, another 2 ms per extra metro tier) — the paper's tradeoff with the
// speed of light on the communication side of the scale.
func DeepTopologyScenario(seed int64, depth int, policy string) (Scenario, error) {
	if depth < 2 {
		return Scenario{}, fmt.Errorf("fleet: deep topology needs depth ≥ 2, got %d", depth)
	}
	pls := []core.Placement{
		{}, // raw sensor offload
		{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}}, // full in-camera pipeline
	}
	pol := PolicyConfig{
		Kind:         policy,
		IntervalSec:  0.5,
		HighSec:      0.2,
		LowSec:       0.01,
		MoveFraction: 0.5,
	}
	sc := Scenario{
		Name:     fmt.Sprintf("topo-deep%d/%s", depth, policy),
		Seed:     seed,
		Duration: 8,
	}
	// Leaves first, root last, so simultaneous completions resolve
	// edge-before-core like the two-tier demo.
	leafParent := "core"
	if depth > 2 {
		leafParent = "metro-1"
	}
	for _, gw := range []string{"gw-a", "gw-b"} {
		sc.Tiers = append(sc.Tiers, Tier{
			Name:           gw,
			Parent:         leafParent,
			Uplink:         UplinkConfig{Gbps: 2, Contention: ContentionFairShare},
			PropagationSec: 0.0002,
		})
	}
	for m := 1; m <= depth-2; m++ {
		parent := fmt.Sprintf("metro-%d", m+1)
		if m == depth-2 {
			parent = "core"
		}
		sc.Tiers = append(sc.Tiers, Tier{
			Name:           fmt.Sprintf("metro-%d", m),
			Parent:         parent,
			Uplink:         UplinkConfig{Gbps: 4, Contention: ContentionFairShare},
			PropagationSec: 0.002,
		})
	}
	sc.Tiers = append(sc.Tiers, Tier{
		Name:           "core",
		Uplink:         UplinkConfig{Gbps: 8, Contention: ContentionFairShare},
		PropagationSec: 0.01,
	})
	for _, gw := range []string{"gw-a", "gw-b"} {
		vr, err := VRAdaptiveClass(4, pls, 30, pol)
		if err != nil {
			return Scenario{}, err
		}
		vr.Name = "vr-" + gw
		vr.Tier = gw
		fa := FaceAuthClass(60)
		fa.Name = "fa-" + gw
		fa.Tier = gw
		sc.Classes = append(sc.Classes, vr, fa)
	}
	return sc, nil
}
