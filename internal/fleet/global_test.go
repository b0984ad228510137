package fleet

import (
	"math"
	"testing"
)

// energyScenario is the hand-built fleet behind the global-controller
// tests: two uncongested gateways of VR heads whose raw-offload placement
// burns roughly twice the watts of the in-camera pipeline, priced through
// two forwarding hops. moveFraction caps the per-epoch reassignment.
func energyScenario(seed int64, budgetW, moveFraction float64) Scenario {
	vr := func(name, tier string) Class {
		return Class{
			Name: name, Count: 2, FPS: 10, Arrival: ArrivalPeriodic,
			Tier: tier, QueueDepth: 4,
			CaptureJ: 5e-3, TxFixedJ: 1e-4, TxPerByteJ: 4e-8,
			Placements: []PlacementCost{
				{Name: "raw", FrameBytes: 12_400_000, ComputeSeconds: 0.0001, ComputeJ: 0.0002},
				{Name: "full", FrameBytes: 1_122_000, ComputeSeconds: 0.0316, ComputeJ: 0.316},
			},
		}
	}
	return Scenario{
		Name:     "energy-test",
		Seed:     seed,
		Duration: 6,
		Tiers: []Tier{
			{Name: "gw-a", Parent: "core", Uplink: UplinkConfig{Gbps: 4}, PropagationSec: 0.0002, TxPerByteJ: 2e-8},
			{Name: "gw-b", Parent: "core", Uplink: UplinkConfig{Gbps: 4}, PropagationSec: 0.0002, TxPerByteJ: 2e-8},
			{Name: "core", Uplink: UplinkConfig{Gbps: 8}, PropagationSec: 0.002, TxPerByteJ: 1e-8},
		},
		Classes: []Class{vr("vr-a", "gw-a"), vr("vr-b", "gw-b")},
		Global:  &GlobalConfig{EpochSec: 1, BudgetW: budgetW, HighSec: 0.5, MoveFraction: moveFraction},
	}
}

func TestGlobalControllerDeterminism(t *testing.T) {
	// The same global scenario must produce byte-identical tables run
	// directly, rerun, and swept under different worker-pool widths.
	sc := energyScenario(3, 24, 0.5)
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Global == nil || first.Global.Moves == 0 {
		t.Fatalf("global controller never moved a camera: %+v", first.Global)
	}
	again, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Table() != again.Table() {
		t.Fatalf("rerun diverged:\n%s\nvs\n%s", first.Table(), again.Table())
	}
	points := []Scenario{sc, sc, sc, sc}
	for _, workers := range []int{1, 2, 4} {
		for i, o := range Sweep(points, workers) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			if o.Result.Table() != first.Table() {
				t.Fatalf("workers=%d point %d diverged from direct run", workers, i)
			}
		}
	}
}

func TestGlobalBudgetRespectedEachEpoch(t *testing.T) {
	// With an unconstrained per-epoch cap and a feasible budget (the
	// all-in-camera floor is ~16 W), every epoch must end with the
	// projected placement power under budget — the knapsack invariant.
	res, err := Run(energyScenario(3, 24, 1))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Global
	if g == nil || len(g.Epochs) == 0 {
		t.Fatalf("no global epochs recorded: %+v", g)
	}
	for i, ep := range g.Epochs {
		if ep.AfterW > g.BudgetW*(1+1e-12) {
			t.Fatalf("epoch %d (t=%v) ended over budget: %v W > %v W", i, ep.Time, ep.AfterW, g.BudgetW)
		}
		if ep.AfterW > ep.BeforeW {
			t.Fatalf("epoch %d raised projected power %v -> %v with no congestion", i, ep.BeforeW, ep.AfterW)
		}
	}
	if res.Energy.ProjectedW > g.BudgetW*(1+1e-12) {
		t.Fatalf("final projected power %v W over budget %v W", res.Energy.ProjectedW, g.BudgetW)
	}
	// The first epoch already fits: shedding is greedy, not gradual.
	if g.Epochs[0].AfterW > g.BudgetW {
		t.Fatalf("first epoch did not reach the budget: %+v", g.Epochs[0])
	}
	// And the controller sheds only to the line, not to the floor: some
	// camera must still hold the expensive raw placement.
	raw := 0
	for _, s := range res.Classes {
		if len(s.PlacementCounts) > 0 {
			raw += s.PlacementCounts[0]
		}
	}
	if raw == 0 {
		t.Fatalf("budget shedding overshot to the all-in-camera floor: %+v", res.Classes)
	}
}

func TestGlobalEnergyAccounting(t *testing.T) {
	res, err := Run(energyScenario(3, 24, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	// NetworkJ is exactly the per-tier forwarding sum, and every hop's
	// ForwardJ is its served bytes times its configured price.
	var sum float64
	for _, ti := range res.Tiers {
		want := ti.ServedBytes * ti.TxPerByteJ
		if math.Abs(ti.ForwardJ-want) > 1e-9*want {
			t.Fatalf("tier %s ForwardJ %v != ServedBytes×TxPerByteJ %v", ti.Name, ti.ForwardJ, want)
		}
		sum += ti.ForwardJ
	}
	if math.Abs(res.Energy.NetworkJ-sum) > 1e-9*sum || sum == 0 {
		t.Fatalf("NetworkJ %v != tier sum %v", res.Energy.NetworkJ, sum)
	}
	if res.Energy.CameraJ != res.Total.EnergyJ {
		t.Fatalf("CameraJ %v != Total.EnergyJ %v", res.Energy.CameraJ, res.Total.EnergyJ)
	}
	wantAvg := (res.Energy.CameraJ + res.Energy.NetworkJ) / res.SimEnd
	if math.Abs(res.Energy.AvgPowerW-wantAvg) > 1e-12 {
		t.Fatalf("AvgPowerW %v != %v", res.Energy.AvgPowerW, wantAvg)
	}
}

func TestEnergyWeightZeroReproducesLatencyThreshold(t *testing.T) {
	// Property: with energy_weight 0 the energy-latency policy IS the
	// latency-threshold policy — identical decisions, identical seeded
	// camera picks, identical switch sequence — across congested and
	// idle fleets and several seeds.
	build := func(sc Scenario, kind string) Scenario {
		sc.Classes = append([]Class(nil), sc.Classes...)
		for i := range sc.Classes {
			if len(sc.Classes[i].Placements) > 0 {
				p := &sc.Classes[i].Policy
				p.Kind = kind
				p.EnergyWeight = 0
				if p.HighSec == 0 {
					p.IntervalSec, p.HighSec, p.MoveFraction = 0.5, 0.5, 0.5
				}
			}
		}
		return sc
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, base := range []Scenario{
			twoTierScenario(seed, PolicyLatencyThreshold, 0), // congested edge link
			energyScenario(seed, 1e9, 0.5),                   // idle links, budget never binds
		} {
			base.Global = nil
			lt, err := Run(build(base, PolicyLatencyThreshold))
			if err != nil {
				t.Fatal(err)
			}
			el, err := Run(build(base, PolicyEnergyLatency))
			if err != nil {
				t.Fatal(err)
			}
			for ci := range lt.Classes {
				a, b := lt.Classes[ci], el.Classes[ci]
				if a.Switches != b.Switches {
					t.Fatalf("seed %d %s: switches %d vs %d", seed, a.Name, a.Switches, b.Switches)
				}
				if len(a.PlacementCounts) > 0 {
					for k := range a.PlacementCounts {
						if a.PlacementCounts[k] != b.PlacementCounts[k] {
							t.Fatalf("seed %d %s: placements %v vs %v", seed, a.Name, a.PlacementCounts, b.PlacementCounts)
						}
					}
				}
				if a.LatencyP95 != b.LatencyP95 || a.Captured != b.Captured || a.EnergyJ != b.EnergyJ {
					t.Fatalf("seed %d %s: stats diverged: %+v vs %+v", seed, a.Name, a, b)
				}
			}
		}
	}
}

func TestEnergyLatencyWalksTowardCheaperPlacement(t *testing.T) {
	// On idle links with a positive weight, the policy must move every
	// head to the cheaper in-camera row without any congestion signal.
	sc, err := EnergyDemoScenario(1, PolicyEnergyLatency)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Classes {
		if len(s.PlacementCounts) == 0 {
			continue
		}
		if s.DroppedQueue != 0 {
			t.Fatalf("%s: congestion contaminated the energy-only test: %+v", s.Name, s)
		}
		if s.Switches == 0 || s.PlacementCounts[0] != 0 {
			t.Fatalf("%s: heads did not walk in-camera: %+v", s.Name, s)
		}
	}
	static, err := EnergyDemoScenario(1, PolicyStatic)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.ProjectedW >= sres.Energy.ProjectedW {
		t.Fatalf("energy-latency projected %v W not below static %v W",
			res.Energy.ProjectedW, sres.Energy.ProjectedW)
	}
}

func TestMoveAcceptSkipsOverBudgetRows(t *testing.T) {
	// Three-row table with the class split across rows: stepping a row-1
	// camera in-camera (+4 W) overshoots the budget while stepping a
	// row-0 camera (−9 W) fits. Whatever order the seeded shuffle draws,
	// the batch must skip the over-budget cameras and still shed — the
	// old first-overshoot break returned 0 moves and stranded the fleet
	// over a feasible budget — and no camera may land on the over-budget
	// row 2.
	sc := &Scenario{Classes: []Class{{
		Name: "mixed", Count: 4, FPS: 1,
		Placements: []PlacementCost{{FrameBytes: 1}, {FrameBytes: 1}, {FrameBytes: 1}},
	}}}
	rowJ := [][]float64{{10, 1, 5}}
	for seed := int64(1); seed <= 20; seed++ {
		g := &globalController{
			cfg: GlobalConfig{BudgetW: 20, EpochSec: 1, MoveFraction: 1},
			rng: newPRNG(seed),
		}
		cams := []camera{{placement: 1}, {placement: 0}, {placement: 1}, {placement: 0}}
		projected := 22.0 // 1 + 10 + 1 + 10
		moved := g.moveAccept(sc, rowJ, cams, []int32{0, 1, 2, 3}, 0, +1, 4, &projected, false)
		if moved == 0 {
			t.Fatalf("seed %d: over-budget rows aborted the whole batch", seed)
		}
		if projected > 20 {
			t.Fatalf("seed %d: still over budget after shedding: %v W", seed, projected)
		}
		for i, c := range cams {
			if c.placement == 2 {
				t.Fatalf("seed %d: camera %d stepped onto the over-budget row: %+v", seed, i, cams)
			}
		}
	}
}

func TestGlobalValidation(t *testing.T) {
	base := energyScenario(1, 24, 0.5)

	bad := base
	bad.Global = &GlobalConfig{BudgetW: 0}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted a zero global budget")
	}

	bad = base
	bad.Global = &GlobalConfig{BudgetW: 24, MoveFraction: 1.5}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted a move fraction above 1")
	}

	bad = base
	bad.Global = &GlobalConfig{BudgetW: 24, HighSec: math.Inf(1)}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted an infinite high_sec")
	}

	bad = base
	bad.Classes = append([]Class(nil), base.Classes...)
	for i := range bad.Classes {
		bad.Classes[i].Placements = nil
		bad.Classes[i].FrameBytes = 1000
	}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted a global controller with no placements table to reassign")
	}

	bad = base
	bad.Classes = append([]Class(nil), base.Classes...)
	bad.Classes[0].Policy = PolicyConfig{Kind: PolicyEnergyLatency, HighSec: 1, EnergyWeight: -1}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted a negative energy weight")
	}

	bad = base
	bad.Tiers = append([]Tier(nil), base.Tiers...)
	bad.Tiers[0].TxPerByteJ = -1e-9
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted negative forwarding energy")
	}
}

func TestPlacementEnergyPerFrame(t *testing.T) {
	c := Class{
		CaptureJ: 1e-3, ComputeJ: 0.5, TxFixedJ: 1e-4, TxPerByteJ: 1e-8,
		FrameBytes: 1000, OffloadProb: 0.5,
	}
	// Table-less: class fields, offload costs weighted by probability.
	want := 1e-3 + 0.5 + 0.5*(1e-4+(1e-8+2e-8)*1000)
	if got := c.PlacementEnergyPerFrame(0, 2e-8); math.Abs(got-want) > 1e-15 {
		t.Fatalf("table-less energy %v, want %v", got, want)
	}
	// With a table, the row's bytes and compute override the class's.
	c.Placements = []PlacementCost{
		{Name: "raw", FrameBytes: 4000, ComputeSeconds: 0, ComputeJ: 0},
		{Name: "full", FrameBytes: 100, ComputeSeconds: 0.03, ComputeJ: 0.9},
	}
	want = 1e-3 + 0.9 + 0.5*(1e-4+(1e-8+2e-8)*100)
	if got := c.PlacementEnergyPerFrame(1, 2e-8); math.Abs(got-want) > 1e-15 {
		t.Fatalf("row energy %v, want %v", got, want)
	}
}

func TestGlobalEpochRefusesStepPastDelayFloor(t *testing.T) {
	// One class at the expensive offload row, well over budget, with a
	// 0.2 s window p95 under a 0.5 s latency target. Stepping in-camera
	// saves 9 W per camera, but its 0.4 s delay floor stacked on the p95
	// breaks the target, so phase 2 must refuse the step outright; a
	// 0.2 s floor fits and the same epoch sheds to the budget.
	sc := &Scenario{Classes: []Class{{
		Name: "c", Count: 4, FPS: 1,
		Placements: []PlacementCost{{FrameBytes: 1}, {FrameBytes: 1}},
	}}}
	rowJ := [][]float64{{10, 1}}
	epoch := func(floor float64) (GlobalEpoch, []camera) {
		g := &globalController{
			cfg:  GlobalConfig{BudgetW: 5, HighSec: 0.5, MoveFraction: 1},
			rng:  newPRNG(1),
			wins: []window{{lat: []float64{0.2}}},
		}
		cams := make([]camera, 4)
		g.epoch(1, sc, rowJ, [][]float64{{0, floor}}, cams, [][]int32{{0, 1, 2, 3}})
		return g.stats.Epochs[0], cams
	}
	ep, cams := epoch(0.4)
	if len(ep.Moves) != 0 || ep.AfterW != ep.BeforeW {
		t.Fatalf("energy step past the delay floor was taken: %+v", ep)
	}
	for i, c := range cams {
		if c.placement != 0 {
			t.Fatalf("camera %d moved to row %d despite the delay floor", i, c.placement)
		}
	}
	if ep, _ := epoch(0.2); len(ep.Moves) == 0 || ep.AfterW > 5 {
		t.Fatalf("energy step within the delay floor was refused: %+v", ep)
	}
}

func TestControllersThatNeverDecideKeepNoWindow(t *testing.T) {
	// A control interval and a global epoch longer than the run never
	// fire, so neither controller may collect completions: with
	// streaming telemetry the windows would otherwise be the only state
	// growing with simulated frames. The result must not change: no
	// switches, and a global section with no epochs.
	sc := Scenario{
		Name: "idle-controllers", Seed: 1, Duration: 5,
		Tiers: []Tier{{Name: "wan", Uplink: UplinkConfig{Gbps: 1}}},
		Classes: []Class{{
			Name: "cams", Count: 50, FPS: 30, Arrival: ArrivalPeriodic, Tier: "wan",
			Placements: []PlacementCost{
				{Name: "raw", FrameBytes: 10_000},
				{Name: "lite", FrameBytes: 1_000, ComputeSeconds: 0.001, ComputeJ: 1e-3},
			},
			Policy: PolicyConfig{Kind: PolicyLatencyThreshold, IntervalSec: 100, HighSec: 0.5},
		}},
		Global:    &GlobalConfig{EpochSec: 100, BudgetW: 1e9, HighSec: 0.5},
		Telemetry: &TelemetryConfig{Streaming: true},
	}
	e, err := newEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.loop(); err != nil {
		t.Fatal(err)
	}
	res := e.result()
	if res.Classes[0].Offloaded == 0 {
		t.Fatal("no offload completed; the test observes nothing")
	}
	for ci, ctl := range e.ctls {
		if ctl != nil && len(ctl.win.lat) > 0 {
			t.Fatalf("class %d controller holds %d undecided latencies", ci, len(ctl.win.lat))
		}
	}
	for ci, w := range e.gctl.wins {
		if len(w.lat) > 0 || w.drops > 0 {
			t.Fatalf("global window %d holds %d latencies, %d drops", ci, len(w.lat), w.drops)
		}
	}
	if res.Classes[0].Switches != 0 {
		t.Fatalf("switches %d, want 0", res.Classes[0].Switches)
	}
	if res.Global == nil || len(res.Global.Epochs) != 0 {
		t.Fatalf("global section %+v, want present with no epochs", res.Global)
	}
}
