package main

import (
	"errors"
	"flag"
	"fmt"

	"camsim/internal/core"
	"camsim/internal/fleet"
)

// cmdFleet runs F1: the fleet-scale extension of the paper's tradeoff —
// mixed populations of face-authentication and VR cameras share one
// uplink, swept over fleet size × VR placement. Where Fig. 10 asks which
// placement meets 30 FPS on a private link, this asks which placement
// keeps offload latency and drops bounded as the fleet grows and the link
// is contended.
func cmdFleet(args []string) (err error) {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	n := fs.Int("n", 200, "cameras in the largest fleet point (75% face-auth, 25% VR)")
	seed := fs.Int64("seed", 1, "simulation seed")
	duration := fs.Float64("duration", 10, "simulated seconds of capture")
	gbps := fs.Float64("gbps", 10, "shared uplink capacity, Gb/s")
	contention := fs.String("contention", fleet.ContentionFairShare,
		"uplink contention model: fair-share or fifo")
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	scenario := fs.String("scenario", "", "run one JSON scenario file instead of the built-in sweep (other flags ignored)")
	timeseries := fs.String("timeseries", "", "with -scenario: write the windowed telemetry time series to this file (.json for JSON, else CSV)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file once the run ends (go tool pprof)")
	fs.Usage = fleetUsage(fs)
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
		return fmt.Errorf("fleet: -timeseries needs -scenario (the built-in sweep has no telemetry section)")
	}
	// The sweep's smallest point is n/4 cameras, a quarter of them VR, so
	// both classes need n ≥ 16 to be non-empty.
	if *n < 16 {
		return fmt.Errorf("fleet: need at least 16 cameras, got %d", *n)
	}

	placements := []struct {
		label string
		pl    core.Placement
	}{
		{"S~ (raw offload)", core.Placement{}},
		{"SB1B2B3F~", core.Placement{InCamera: 3, Impl: []string{"CPU", "CPU", "FPGA"}}},
		{"SB1B2B3FB4F~", core.Placement{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}}},
	}
	sizes := []int{*n / 4, *n / 2, *n}

	var scenarios []fleet.Scenario
	for _, size := range sizes {
		for _, p := range placements {
			vrCount := size / 4
			faCount := size - vrCount
			vrClass, err := fleet.VRClass(vrCount, p.pl, 30)
			if err != nil {
				return err
			}
			scenarios = append(scenarios, fleet.Scenario{
				Name:     fmt.Sprintf("n%d/%s", size, p.label),
				Seed:     *seed,
				Duration: *duration,
				Uplink:   fleet.UplinkConfig{Gbps: *gbps, Contention: *contention},
				Classes:  []fleet.Class{fleet.FaceAuthClass(faCount), vrClass},
			})
		}
	}

	outcomes := fleet.Sweep(scenarios, *workers)
	for _, o := range outcomes {
		if o.Err != nil {
			return o.Err
		}
	}

	fmt.Printf("fleet sweep: %d scenario points, uplink %.1f Gb/s (%s), %gs of capture, seed %d\n\n",
		len(scenarios), *gbps, *contention, *duration, *seed)
	fmt.Printf("%-6s %-18s %8s %8s %8s %9s %9s %7s\n",
		"cams", "VR placement", "VR-p50", "VR-p95", "FA-p95", "VR-drop", "FA-drop", "util")
	for i, o := range outcomes {
		size := sizes[i/len(placements)]
		p := placements[i%len(placements)]
		fa, vr := o.Result.Classes[0], o.Result.Classes[1]
		fmt.Printf("%-6d %-18s %8s %8s %8s %8.1f%% %8.1f%% %6.1f%%\n",
			size, p.label,
			fleet.FormatLatency(vr.LatencyP50), fleet.FormatLatency(vr.LatencyP95),
			fleet.FormatLatency(fa.LatencyP95),
			vr.DropRate()*100, fa.DropRate()*100, o.Result.UplinkUtilization*100)
	}

	fmt.Println("\nper-class detail of the largest fleet:")
	for i := len(outcomes) - len(placements); i < len(outcomes); i++ {
		fmt.Print(outcomes[i].Result.Table())
	}
	fmt.Println("\nfleet-scale reading of the paper's tradeoff: raw offload and even the")
	fmt.Println("depth-only placement saturate the shared uplink as the fleet grows (the B3")
	fmt.Println("output is *larger* than the sensor's); only the full in-camera pipeline,")
	fmt.Println("which ships the stitched eye pair, scales — and under fair-share contention")
	fmt.Println("the harvested face-auth chips keep millisecond latencies regardless.")
	return nil
}
