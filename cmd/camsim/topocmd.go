package main

import (
	"errors"
	"flag"
	"fmt"

	"camsim/internal/fleet"
)

// cmdTopo runs F2: the tiered-topology extension of the fleet experiment.
// Two edge gateways each aggregate adaptive VR camera heads and battery-
// free face-auth cameras over finite camera→gateway links, and both funnel
// into a shared WAN. The same congested fleet is run once per placement
// policy: static (pinned at raw sensor offload), latency-threshold
// (one-way escalation toward in-camera compute) and hysteresis (two-way
// with a dead band). The point is the runtime version of the paper's
// tradeoff: when the network tier is the bottleneck, moving computation
// into the camera is the only thing that restores latency.
//
// With -depth n (n ≥ 2) the network deepens into an n-tier chain —
// camera → gateway → metro… → core — each hop with its own capacity and
// one-way propagation delay, so reported latencies include the
// accumulated propagation floor no placement can adapt away.
//
// With -global the experiment flips to the energy side of the scale: an
// *uncongested* two-gateway fleet where latency never asks the cameras to
// move, compared across nobody watching energy (static), each class
// minimizing its own energy (the energy-latency policy), and the global
// controller shedding watts only down to a fleet-wide power budget.
//
// With -fl the fleet trains a model: two gateway populations run
// round-structured federated learning over the frame traffic, pushing
// per-camera updates up the tree (aggregated in-network at each tier)
// and receiving the merged model back down the new tier downlinks.
//
// With -compute every tier owns a finite core pool and frames queue for
// service after transit, so the experiment becomes the joint
// network+compute placement problem: a fleet whose links are half idle
// can still drown a gateway's cores, and only placement that shrinks
// the shipped payload relieves them.
//
// With -dynamics the fleet lives through a scheduled day of weather —
// a diurnal rate swell, camera churn, a gateway outage whose cameras
// re-home to the sibling and back, a degraded backhaul — compared
// against the identical fleet with the schedule stripped.
func cmdTopo(args []string) (err error) {
	fs := flag.NewFlagSet("topo", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	duration := fs.Float64("duration", 8, "simulated seconds of capture")
	depth := fs.Int("depth", 0, "network tiers between camera and cloud (0 = classic two-gateway demo, ≥2 = gateway→metro→core chain)")
	global := fs.Bool("global", false, "run the energy-aware placement demo (static vs energy-latency vs global budget)")
	flDemo := fs.Bool("fl", false, "run the federated-learning demo (in-network aggregation over bidirectional tiers)")
	compute := fs.Bool("compute", false, "run the finite-compute demo (per-tier core pools; static vs adaptive vs global)")
	dynamics := fs.Bool("dynamics", false, "run the fleet-dynamics demo (churn, outage with re-homing, link degradation on a fault schedule)")
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	scenario := fs.String("scenario", "", "run one JSON scenario file instead of the built-in demo (other flags ignored)")
	timeseries := fs.String("timeseries", "", "with -scenario: write the windowed telemetry time series to this file (.json for JSON, else CSV)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file once the run ends (go tool pprof)")
	fs.Usage = topoUsage(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	if *scenario != "" {
		return runScenarioFile(*scenario, *timeseries)
	}
	if *timeseries != "" {
		return fmt.Errorf("topo: -timeseries needs -scenario (the built-in demos have no telemetry section)")
	}
	if *depth != 0 && *depth < 2 {
		return fmt.Errorf("topo: -depth must be 0 (classic demo) or ≥ 2, got %d", *depth)
	}
	demos := 0
	for _, on := range []bool{*flDemo, *global, *compute, *dynamics, *depth != 0} {
		if on {
			demos++
		}
	}
	if demos > 1 {
		return fmt.Errorf("topo: -fl, -global, -compute, -dynamics and -depth are separate demos; pick one")
	}
	if *flDemo {
		return reportFederatedTopo(*seed, *duration)
	}
	if *compute {
		return reportComputeTopo(*seed, *duration, *workers)
	}
	if *dynamics {
		return reportDynamicsTopo(*seed, *duration, *workers)
	}
	if *global {
		return reportGlobalTopo(*seed, *duration, *workers)
	}

	policies := []string{fleet.PolicyStatic, fleet.PolicyLatencyThreshold, fleet.PolicyHysteresis}
	var scenarios []fleet.Scenario
	for _, pol := range policies {
		var sc fleet.Scenario
		var err error
		if *depth >= 2 {
			sc, err = fleet.DeepTopologyScenario(*seed, *depth, pol)
		} else {
			sc, err = fleet.TopologyDemoScenario(*seed, pol)
		}
		if err != nil {
			return err
		}
		sc.Duration = *duration
		scenarios = append(scenarios, sc)
	}
	outcomes := fleet.Sweep(scenarios, *workers)
	for _, o := range outcomes {
		if o.Err != nil {
			return o.Err
		}
	}
	if *depth >= 2 {
		return reportDeepTopo(scenarios, outcomes, policies, *duration, *seed)
	}

	// The demo declares its gateway tiers first and the "wan" root last.
	sc := scenarios[0]
	gws, wan := sc.Tiers[:len(sc.Tiers)-1], sc.Tiers[len(sc.Tiers)-1]
	fmt.Printf("tiered fleet: %d cameras behind %d gateways, WAN %.1f Gb/s, %gs of capture, seed %d\n",
		sc.Cameras(), len(gws), wan.Uplink.Gbps, *duration, *seed)
	for _, gw := range gws {
		fmt.Printf("  %s: %.1f Gb/s %s uplink\n", gw.Name, gw.Uplink.Gbps, gw.Uplink.Contention)
	}
	fmt.Println()

	fmt.Printf("%-18s %8s %8s %8s %9s %7s %7s %7s %7s\n",
		"policy", "VR-p50", "VR-p95", "FA-p95", "VR-drop", "moves", "gw-a", "gw-b", "wan")
	for i, o := range outcomes {
		r := o.Result
		vrA, faA := r.Classes[0], r.Classes[1]
		fmt.Printf("%-18s %8s %8s %8s %8.1f%% %7d %6.1f%% %6.1f%% %6.1f%%\n",
			policies[i],
			fleet.FormatLatency(vrA.LatencyP50), fleet.FormatLatency(vrA.LatencyP95),
			fleet.FormatLatency(faA.LatencyP95),
			vrA.DropRate()*100, r.Total.Switches,
			r.Tiers[0].Utilization*100, r.Tiers[1].Utilization*100, r.Tiers[2].Utilization*100)
	}

	fmt.Println("\nper-tier and per-class detail:")
	for _, o := range outcomes {
		fmt.Print(o.Result.Table())
	}
	fmt.Println("\ntiered reading of the paper's tradeoff: at raw offload the VR heads")
	fmt.Println("oversubscribe their gateway links several times over and the static fleet")
	fmt.Println("drowns in queue drops; the adaptive policies watch offload latency, shift")
	fmt.Println("the cameras to the full in-camera pipeline placement, and restore both")
	fmt.Println("VR latency and the gateway tiers — while the face-auth chips ride along")
	fmt.Println("at millisecond latencies under fair-share either way.")
	return nil
}

// reportGlobalTopo renders the -global variant: the same uncongested
// fleet under three energy regimes — nobody minimizing energy, per-class
// greedy minimization, and the budgeted global controller.
func reportGlobalTopo(seed int64, duration float64, workers int) error {
	modes := []string{fleet.PolicyStatic, fleet.PolicyEnergyLatency, fleet.GlobalModeBudget}
	var scenarios []fleet.Scenario
	for _, mode := range modes {
		sc, err := fleet.EnergyDemoScenario(seed, mode)
		if err != nil {
			return err
		}
		sc.Duration = duration
		scenarios = append(scenarios, sc)
	}
	outcomes := fleet.Sweep(scenarios, workers)
	for _, o := range outcomes {
		if o.Err != nil {
			return o.Err
		}
	}

	sc := scenarios[0]
	fmt.Printf("energy placement: %d cameras behind 2 gateways, %gs of capture, seed %d\n",
		sc.Cameras(), duration, seed)
	for _, ti := range outcomes[0].Result.Tiers {
		fmt.Printf("  %-12s %.1f Gb/s %-10s fwd %.3g J/byte\n",
			ti.Label(), ti.Gbps, ti.Contention, ti.TxPerByteJ)
	}
	fmt.Println()

	fmt.Printf("%-16s %9s %9s %8s %8s %7s\n",
		"mode", "proj-W", "avg-W", "VR-p50", "VR-p95", "moves")
	for i, o := range outcomes {
		r := o.Result
		vrA := r.Classes[0]
		fmt.Printf("%-16s %9.1f %9.1f %8s %8s %7d\n",
			modes[i], r.Energy.ProjectedW, r.Energy.AvgPowerW,
			fleet.FormatLatency(vrA.LatencyP50), fleet.FormatLatency(vrA.LatencyP95),
			r.Total.Switches)
	}

	fmt.Println("\nper-class detail and global epochs:")
	for _, o := range outcomes {
		fmt.Print(o.Result.Table())
	}
	fmt.Println("\nenergy reading of the paper's tradeoff: the links are half idle, so no")
	fmt.Println("latency policy ever moves a camera — but raw offload ships ~12 MB per frame")
	fmt.Println("through radio and every forwarding hop, and the watts add up. The local")
	fmt.Println("energy-latency policy walks its whole class in-camera (cheapest for each")
	fmt.Println("class, slowest frames); the global controller spends its fleet-wide budget")
	fmt.Println("instead, moving only the cameras it must and leaving the rest on the fast")
	fmt.Println("raw-offload placement.")
	return nil
}

// reportFederatedTopo renders the -fl variant: a two-gateway fleet that
// trains a face-auth model with round-structured federated learning while
// its frame traffic keeps flowing. The report leads with the bidirectional
// link table, then the per-round cadence, then the aggregation ledger —
// the bytes the in-network merge kept off the WAN.
func reportFederatedTopo(seed int64, duration float64) error {
	sc := fleet.FederatedDemoScenario(seed)
	sc.Duration = duration
	res, err := fleet.Run(sc)
	if err != nil {
		return err
	}
	f := res.Federated

	fmt.Printf("federated fleet: %d cameras training across %d tiers, %gs of capture, seed %d\n",
		sc.Cameras(), len(sc.Tiers), duration, seed)
	for _, ti := range res.Tiers {
		fmt.Printf("  %-10s up %.1f Gb/s %-10s  down %.1f Gb/s %-10s  prop %s\n",
			ti.Label(), ti.Gbps, ti.Contention, ti.DownGbps, ti.DownContention,
			fleet.FormatLatency(ti.PropagationSec))
	}
	fmt.Printf("  model %v weights ×%gB, updates compressed ×%g: %dB up, %dB down\n\n",
		sc.Federated.Model.Layers, sc.Federated.Model.BytesPerWeight,
		sc.Federated.Model.Compress, f.UpdateBytes, f.ModelBytes)

	fmt.Printf("%-7s %9s %9s %9s %10s %14s\n",
		"round", "start", "agg-done", "end", "latency", "straggler-p95")
	for i, rd := range f.PerRound {
		fmt.Printf("%-7d %8.3fs %8.3fs %8.3fs %10s %14s\n",
			i+1, rd.Start, rd.AggDone, rd.End,
			fleet.FormatLatency(rd.Latency), fleet.FormatLatency(rd.StragglerP95))
	}
	fmt.Printf("\nround latency p50 %s p95 %s, %d cameras per round\n",
		fleet.FormatLatency(f.RoundP50), fleet.FormatLatency(f.RoundP95), f.Cameras)
	fmt.Printf("upstream %.3g MB, downstream %.3g MB; without in-network aggregation\n",
		f.UpBytes/1e6, f.DownBytes/1e6)
	fmt.Printf("the updates would have cost %.3g MB (%.1f%% saved)\n",
		f.NaiveUpBytes/1e6, f.SavedFraction()*100)

	fmt.Println("\nper-tier and per-class detail:")
	fmt.Print(res.Table())
	fmt.Println("\nfederated reading of the paper's tradeoff: the edge links absorb one")
	fmt.Println("update per camera per round alongside the frame traffic, but each tier")
	fmt.Println("merges its fan-in before forwarding, so the WAN carries a single blob per")
	fmt.Println("round — the same in-network computation that moves vision work into the")
	fmt.Println("cameras also keeps the training traffic from ever reaching the core.")
	return nil
}

// reportDeepTopo renders the -depth variant: the tier chain with its
// per-hop delays, then per-policy latency and per-tier utilization.
func reportDeepTopo(scenarios []fleet.Scenario, outcomes []fleet.Outcome, policies []string, duration float64, seed int64) error {
	sc := scenarios[0]
	r0 := outcomes[0].Result
	fmt.Printf("deep topology: %d cameras across %d tiers, %gs of capture, seed %d\n",
		sc.Cameras(), len(sc.Tiers), duration, seed)
	for _, ti := range r0.Tiers {
		fmt.Printf("  %-16s %.1f Gb/s %-10s prop %s\n",
			ti.Label(), ti.Gbps, ti.Contention, fleet.FormatLatency(ti.PropagationSec))
	}
	// The leaf-to-root propagation floor below every reported latency:
	// gateway chains are symmetric here, so follow the first leaf up the
	// resolved tree the result already carries.
	at := r0.Tiers[0]
	propFloor := at.PropagationSec
	for at.Parent != "" {
		next := r0.TierNamed(at.Parent)
		if next == nil {
			break
		}
		at = *next
		propFloor += at.PropagationSec
	}
	fmt.Printf("  propagation floor (one-way, leaf to cloud): %s\n\n", fleet.FormatLatency(propFloor))

	fmt.Printf("%-18s %8s %8s %8s %9s %7s\n",
		"policy", "VR-p50", "VR-p95", "FA-p95", "VR-drop", "moves")
	for i, o := range outcomes {
		r := o.Result
		vrA, faA := r.Classes[0], r.Classes[1]
		fmt.Printf("%-18s %8s %8s %8s %8.1f%% %7d\n",
			policies[i],
			fleet.FormatLatency(vrA.LatencyP50), fleet.FormatLatency(vrA.LatencyP95),
			fleet.FormatLatency(faA.LatencyP95),
			vrA.DropRate()*100, r.Total.Switches)
	}

	fmt.Println("\nper-tier and per-class detail:")
	for _, o := range outcomes {
		fmt.Print(o.Result.Table())
	}
	fmt.Println("\nthe deep chain sharpens the tradeoff: every hop adds transmission plus")
	fmt.Println("propagation, so even after the adaptive policies shift the VR heads to")
	fmt.Println("in-camera compute, offload latency bottoms out at the propagation floor —")
	fmt.Println("computation placement can win back queueing delay, never the speed of light.")
	return nil
}
