package fleet

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"camsim/internal/fleet/fl"
	"camsim/internal/nn"
)

// TestFederatedDemoSmoke pins the demo scenario's basic shape: every
// round completes, telemetry is monotone, and both directions carried
// the expected payloads.
func TestFederatedDemoSmoke(t *testing.T) {
	res, err := Run(FederatedDemoScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Federated
	if f == nil {
		t.Fatal("no federated stats")
	}
	if f.Rounds != 4 || len(f.PerRound) != 4 {
		t.Fatalf("rounds = %d / %d entries", f.Rounds, len(f.PerRound))
	}
	if f.Cameras != 48 {
		t.Fatalf("cameras = %d, want 48", f.Cameras)
	}
	wantUpdate := int64(math.Ceil(float64(nn.WeightCount(400, 8, 1)) * 4 * 0.5))
	if f.UpdateBytes != wantUpdate {
		t.Fatalf("update bytes = %d, want %d", f.UpdateBytes, wantUpdate)
	}
	if f.ModelBytes != int64(nn.WeightCount(400, 8, 1)*4) {
		t.Fatalf("model bytes = %d", f.ModelBytes)
	}
	prevEnd := 0.0
	for i, rd := range f.PerRound {
		if rd.Start != prevEnd {
			t.Fatalf("round %d start %v, want previous end %v", i+1, rd.Start, prevEnd)
		}
		if !(rd.Start < rd.AggDone && rd.AggDone < rd.End) {
			t.Fatalf("round %d not monotone: start %v agg %v end %v", i+1, rd.Start, rd.AggDone, rd.End)
		}
		if rd.Latency <= 0 || rd.StragglerP95 <= 0 || rd.StragglerP95 > rd.Latency {
			t.Fatalf("round %d latency %v straggler %v", i+1, rd.Latency, rd.StragglerP95)
		}
		prevEnd = rd.End
	}
	if f.DoneAt != prevEnd {
		t.Fatalf("DoneAt %v, want %v", f.DoneAt, prevEnd)
	}
	if res.SimEnd < f.DoneAt {
		t.Fatalf("SimEnd %v before federated DoneAt %v", res.SimEnd, f.DoneAt)
	}
}

// TestFederatedAggregationShrinksBytesPerHop is the acceptance assertion:
// in-network aggregation keeps the WAN tier's upstream federated bytes
// strictly below the sum entering the leaf tiers.
func TestFederatedAggregationShrinksBytesPerHop(t *testing.T) {
	res, err := Run(FederatedDemoScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Federated
	leaf := 0.0
	for _, name := range []string{"gw-a", "gw-b"} {
		ti := res.TierNamed(name)
		if ti == nil {
			t.Fatalf("tier %q missing", name)
		}
		// Every participant's blob crosses its leaf uplink once per round.
		want := 24.0 * float64(f.UpdateBytes) * float64(f.Rounds)
		if ti.FLUpBytes != want {
			t.Fatalf("tier %s FLUpBytes = %v, want %v", name, ti.FLUpBytes, want)
		}
		leaf += ti.FLUpBytes
	}
	wan := res.TierNamed("core")
	// The core aggregates both gateways' fan-in to one merged blob per
	// round before the WAN hop.
	if want := float64(f.UpdateBytes) * float64(f.Rounds); wan.FLUpBytes != want {
		t.Fatalf("core FLUpBytes = %v, want %v", wan.FLUpBytes, want)
	}
	if !(wan.FLUpBytes < leaf) {
		t.Fatalf("WAN federated bytes %v not below leaf sum %v", wan.FLUpBytes, leaf)
	}
	if f.AggSavedBytes <= 0 || f.UpBytes+f.AggSavedBytes != f.NaiveUpBytes {
		t.Fatalf("savings inconsistent: up %v saved %v naive %v", f.UpBytes, f.AggSavedBytes, f.NaiveUpBytes)
	}
}

// TestFederatedDownlinkConservation extends the per-hop conservation
// property to the root→leaf direction: every span tier's downlink serves
// exactly one model blob per round, its busy time cannot exceed capacity
// (utilization ≤ 1), and its propagation total is Rounds × delay.
func TestFederatedDownlinkConservation(t *testing.T) {
	res, err := Run(FederatedDemoScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Federated
	var down float64
	for _, name := range []string{"gw-a", "gw-b", "core"} {
		ti := res.TierNamed(name)
		if !ti.HasDownlink() {
			t.Fatalf("tier %s lost its downlink", name)
		}
		if want := float64(f.ModelBytes) * float64(f.Rounds); ti.DownServedBytes != want {
			t.Fatalf("tier %s DownServedBytes = %v, want %v", name, ti.DownServedBytes, want)
		}
		if ti.DownTransfers != int64(f.Rounds) {
			t.Fatalf("tier %s DownTransfers = %d, want %d", name, ti.DownTransfers, f.Rounds)
		}
		if ti.DownlinkUtilization < 0 || ti.DownlinkUtilization > 1 {
			t.Fatalf("tier %s downlink utilization %v outside [0,1]", name, ti.DownlinkUtilization)
		}
		if want := float64(f.Rounds) * ti.DownPropagationSec; ti.DownPropDelayTotal() != want {
			t.Fatalf("tier %s down prop total = %v, want %v", name, ti.DownPropDelayTotal(), want)
		}
		down += ti.DownServedBytes
	}
	if f.DownBytes != down {
		t.Fatalf("Federated.DownBytes %v != summed downlink bytes %v", f.DownBytes, down)
	}
	up := 0.0
	for _, ti := range res.Tiers {
		up += ti.FLUpBytes
	}
	if f.UpBytes != up {
		t.Fatalf("Federated.UpBytes %v != summed uplink federated bytes %v", f.UpBytes, up)
	}
}

// TestIdleDownlinksDoNotPerturbResults is the differential half of the
// downlink satellite: declaring downlinks without a federated job must
// leave every upstream-visible statistic byte-identical — the downlinks
// exist but nothing ever rides them.
func TestIdleDownlinksDoNotPerturbResults(t *testing.T) {
	base, err := EnergyDemoScenario(7, PolicyStatic)
	if err != nil {
		t.Fatal(err)
	}
	withDown := base
	withDown.Tiers = append([]Tier(nil), base.Tiers...)
	for i := range withDown.Tiers {
		withDown.Tiers[i].Downlink = &DownlinkConfig{Gbps: 1, PropagationSec: 0.003}
	}
	r0, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(withDown)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Federated != nil {
		t.Fatal("unexpected federated stats")
	}
	if r0.SimEnd != r1.SimEnd || r0.UplinkUtilization != r1.UplinkUtilization {
		t.Fatalf("run shape diverged: SimEnd %v vs %v", r0.SimEnd, r1.SimEnd)
	}
	a, _ := json.Marshal(r0.Classes)
	b, _ := json.Marshal(r1.Classes)
	if string(a) != string(b) {
		t.Fatalf("class stats diverged:\n%s\n%s", a, b)
	}
	for i := range r0.Tiers {
		t0, t1 := r0.Tiers[i], r1.Tiers[i]
		if t1.DownServedBytes != 0 || t1.DownTransfers != 0 || t1.DownlinkUtilization != 0 {
			t.Fatalf("tier %s: idle downlink served traffic", t1.Name)
		}
		// Erase the declared-downlink echo; everything else must match.
		t1.DownGbps, t1.DownContention, t1.DownPropagationSec = 0, "", 0
		if t0 != t1 {
			t.Fatalf("tier %s diverged: %+v vs %+v", t0.Name, t0, t1)
		}
	}
}

// TestFederatedDeterministicAcrossRuns pins replayability: two runs of
// the same scenario render byte-identical tables.
func TestFederatedDeterministicAcrossRuns(t *testing.T) {
	r1, err := Run(FederatedDemoScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(FederatedDemoScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Table() != r2.Table() {
		t.Fatalf("tables diverged:\n%s\n---\n%s", r1.Table(), r2.Table())
	}
	if !strings.Contains(r1.Table(), "federated rounds 4") {
		t.Fatalf("table missing federated block:\n%s", r1.Table())
	}
}

// TestFederatedScenarioJSONRoundTrip decodes a hand-written scenario with
// downlinks and a federated section, and checks the strict parser accepts
// it and the payload sizing resolves from the model vector.
func TestFederatedScenarioJSONRoundTrip(t *testing.T) {
	src := `{
		"name": "fl-json", "seed": 3, "duration_sec": 2,
		"tiers": [
			{"name": "gw", "parent": "core", "uplink": {"gbps": 1}, "propagation_sec": 0.001,
			 "downlink": {"gbps": 0.5, "contention": "fifo", "propagation_sec": 0.001}},
			{"name": "core", "uplink": {"gbps": 4},
			 "downlink": {"gbps": 2}}
		],
		"classes": [
			{"name": "edge", "count": 5, "fps": 1, "frame_bytes": 1000, "tier": "gw"}
		],
		"federated": {
			"rounds": 2, "compute_sec": 0.05, "jitter_sec": 0.02,
			"model": {"layers": [400, 8, 1], "compress": 0.25}
		}
	}`
	sc, err := ParseScenario([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Tiers[0].Downlink == nil || sc.Tiers[0].Downlink.Contention != ContentionFIFO {
		t.Fatalf("downlink not decoded: %+v", sc.Tiers[0].Downlink)
	}
	if sc.Tiers[1].Downlink.Contention != ContentionFairShare {
		t.Fatalf("downlink contention not defaulted: %+v", sc.Tiers[1].Downlink)
	}
	if sc.Federated.Model.BytesPerWeight != 4 {
		t.Fatalf("bytes_per_weight not defaulted: %v", sc.Federated.Model.BytesPerWeight)
	}
	want := int64(math.Ceil(float64(nn.WeightCount(400, 8, 1)) * 4 * 0.25))
	if got := sc.Federated.ResolvedUpdateBytes(); got != want {
		t.Fatalf("update bytes = %d, want %d", got, want)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Federated == nil || len(res.Federated.PerRound) != 2 {
		t.Fatalf("federated run incomplete: %+v", res.Federated)
	}
}

// TestFederatedValidationRejections walks the new rejection surface.
func TestFederatedValidationRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no spanning downlink", func(sc *Scenario) { sc.Tiers[2].Downlink = nil }, "broadcast span"},
		{"flat topology", func(sc *Scenario) {
			sc.Tiers = nil
			for i := range sc.Classes {
				sc.Classes[i].Tier = ""
			}
			sc.Uplink = UplinkConfig{Gbps: 1, Contention: ContentionFairShare}
		}, "has no downlink"},
		{"unknown class", func(sc *Scenario) { sc.Federated.Classes = []string{"nobody"} }, "not in the scenario"},
		{"zero rounds", func(sc *Scenario) { sc.Federated.Rounds = 0 }, "rounds"},
		{"no sizing", func(sc *Scenario) { sc.Federated.Model = nil }, "update_bytes or a model"},
		{"bad compress", func(sc *Scenario) { sc.Federated.Model.Compress = 1.5 }, "compress"},
		{"one layer", func(sc *Scenario) { sc.Federated.Model.Layers = []int{7} }, "layers"},
		{"bad downlink gbps", func(sc *Scenario) { sc.Tiers[0].Downlink.Gbps = -1 }, "downlink"},
		{"bad downlink contention", func(sc *Scenario) { sc.Tiers[0].Downlink.Contention = "magic" }, "contention"},
		{"bad downlink propagation", func(sc *Scenario) { sc.Tiers[0].Downlink.PropagationSec = math.Inf(1) }, "propagation"},
	}
	for _, tc := range cases {
		sc := FederatedDemoScenario(1)
		tc.mut(&sc)
		_, err := Run(sc)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestFederatedStragglerSkewedDownlinks is the end-to-end regression for
// the negative-straggler bug: two gateways whose downlink propagation
// differs by seconds mean the fast tier's cameras hold each round's
// model — and upload the next round's updates — long before the round
// officially starts (the slow tier's delivery). Measured against the
// round start those samples were negative; measured against each tier's
// own delivery every round's straggler tail is positive.
func TestFederatedStragglerSkewedDownlinks(t *testing.T) {
	sc := Scenario{
		Name:     "fl-skew",
		Seed:     5,
		Duration: 1,
		Tiers: []Tier{
			{Name: "gw-fast", Parent: "core", Uplink: UplinkConfig{Gbps: 1},
				Downlink: &DownlinkConfig{Gbps: 1, PropagationSec: 0.0001}},
			{Name: "gw-slow", Parent: "core", Uplink: UplinkConfig{Gbps: 1},
				Downlink: &DownlinkConfig{Gbps: 1, PropagationSec: 5}},
			{Name: "core", Uplink: UplinkConfig{Gbps: 4},
				Downlink: &DownlinkConfig{Gbps: 2}},
		},
		Classes: []Class{
			{Name: "fast", Count: 2, FPS: 1, FrameBytes: 100, Tier: "gw-fast"},
			{Name: "slow", Count: 2, FPS: 1, FrameBytes: 100, Tier: "gw-slow"},
		},
		Federated: &fl.Config{Rounds: 3, ComputeSec: 0.1, UpdateBytes: 1000, ModelBytes: 4000},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Federated
	if len(f.PerRound) != 3 {
		t.Fatalf("rounds = %d", len(f.PerRound))
	}
	for i, rd := range f.PerRound {
		if rd.StragglerP95 <= 0 {
			t.Fatalf("round %d straggler p95 = %v, want > 0 (round-start-relative samples went negative here)", i+1, rd.StragglerP95)
		}
		// Each sample is one local compute plus one gateway-uplink hop —
		// it can never reach the 5s downlink skew that separates the two
		// tiers' round starts.
		if rd.StragglerP95 >= 5 {
			t.Fatalf("round %d straggler p95 = %v, absorbed the downlink skew", i+1, rd.StragglerP95)
		}
	}
}

// TestFederatedRootOnlyParticipants pins the degenerate shape: cameras
// attached at the root push straight to the cloud (no merging tier), and
// the broadcast is a single root-downlink hop.
func TestFederatedRootOnlyParticipants(t *testing.T) {
	sc := Scenario{
		Name:     "fl-root",
		Seed:     1,
		Duration: 1,
		Tiers: []Tier{
			{Name: "core", Uplink: UplinkConfig{Gbps: 1},
				Downlink: &DownlinkConfig{Gbps: 1}},
		},
		Classes: []Class{
			{Name: "edge", Count: 3, FPS: 1, FrameBytes: 100},
		},
		Federated: &fl.Config{Rounds: 2, ComputeSec: 0.1, UpdateBytes: 1000, ModelBytes: 4000},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	core := res.TierNamed("core")
	// 3 camera blobs per round, no merged blob (nothing aggregates below
	// the cloud's own fan-in).
	if want := 3.0 * 1000 * 2; core.FLUpBytes != want {
		t.Fatalf("core FLUpBytes = %v, want %v", core.FLUpBytes, want)
	}
	if want := 4000.0 * 2; core.DownServedBytes != want {
		t.Fatalf("core DownServedBytes = %v, want %v", core.DownServedBytes, want)
	}
	if res.Federated.AggSavedBytes != 0 {
		t.Fatalf("no aggregation possible, saved %v", res.Federated.AggSavedBytes)
	}
}
