package fleet

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"camsim/internal/core"
)

// mixedScenario is a small saturating fleet: many periodic big-frame
// cameras plus Poisson small-frame harvesters.
func mixedScenario(seed int64, contention string) Scenario {
	return Scenario{
		Name:     "test-mixed",
		Seed:     seed,
		Duration: 5,
		Uplink:   UplinkConfig{Gbps: 0.1, Contention: contention},
		Classes: []Class{
			{
				Name: "big", Count: 20, FPS: 10, Arrival: ArrivalPeriodic,
				FrameBytes: 200_000, ComputeSeconds: 0.01, QueueDepth: 3,
				CaptureJ: 1e-3, ComputeJ: 5e-3, TxFixedJ: 1e-4, TxPerByteJ: 4e-8,
			},
			{
				Name: "small", Count: 50, FPS: 2, Arrival: ArrivalPoisson,
				FrameBytes: 1_000, OffloadProb: 0.8, ComputeSeconds: 0.005, QueueDepth: 4,
				CaptureJ: 3e-6, ComputeJ: 1e-6, TxFixedJ: 2e-6, TxPerByteJ: 5e-10,
				HarvestW: 5e-4, StoreJ: 0.05,
			},
		},
	}
}

func TestScenarioParseDefaultsAndValidate(t *testing.T) {
	sc, err := ParseScenario([]byte(`{
		"name": "json", "seed": 3, "duration_sec": 2,
		"uplink": {"gbps": 1},
		"classes": [{"name": "c", "count": 4, "fps": 5, "frame_bytes": 100}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Uplink.Contention != ContentionFairShare {
		t.Fatalf("default contention = %q", sc.Uplink.Contention)
	}
	c := sc.Classes[0]
	if c.Arrival != ArrivalPeriodic || c.QueueDepth != 4 || c.OffloadProb != 1 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if _, err := ParseScenario([]byte(`{"duration_sec": 2, "uplink": {"gbps": 1}}`)); err == nil {
		t.Fatal("accepted scenario without classes")
	}
	if _, err := ParseScenario([]byte(`{
		"duration_sec": 2, "uplink": {"gbps": 1, "contention": "priority"},
		"classes": [{"name": "c", "count": 1, "fps": 1}]
	}`)); err == nil {
		t.Fatal("accepted unknown contention model")
	}
}

func TestValidateAcceptsWhatRunAccepts(t *testing.T) {
	// Scenarios built in Go with every default left unfilled — no
	// contention model, no arrival pattern — in each of the three network
	// forms. Run fills the defaults on its private copy; Validate must
	// accept the same scenarios and leave the caller's copy untouched.
	classes := func(attach func(*Class)) []Class {
		cs := []Class{
			{Name: "c", Count: 1, FPS: 1, FrameBytes: 10},
			{Name: "p", Count: 2, FPS: 1, Placements: []PlacementCost{{Name: "raw", FrameBytes: 10}}},
		}
		for i := range cs {
			attach(&cs[i])
		}
		return cs
	}
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"flat", Scenario{Duration: 1, Uplink: UplinkConfig{Gbps: 1},
			Classes: classes(func(*Class) {})}},
		{"gateways", Scenario{Duration: 1, Uplink: UplinkConfig{Gbps: 1},
			Gateways: []Gateway{{Name: "g", Uplink: UplinkConfig{Gbps: 1}}},
			Classes:  classes(func(c *Class) { c.Gateway = "g" })}},
		{"tiers", Scenario{Duration: 1,
			Tiers: []Tier{
				{Name: "g", Parent: "wan", Uplink: UplinkConfig{Gbps: 1}},
				{Name: "wan", Uplink: UplinkConfig{Gbps: 1}},
			},
			Classes: classes(func(c *Class) { c.Tier = "g" })}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.sc); err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		before := deepCopyScenario(tc.sc)
		if err := tc.sc.Validate(); err != nil {
			t.Errorf("%s: Run succeeds but Validate says: %v", tc.name, err)
		}
		if !reflect.DeepEqual(tc.sc, before) {
			t.Errorf("%s: Validate wrote into the caller's scenario:\n%+v\nvs\n%+v", tc.name, tc.sc, before)
		}
	}
}

// TestValidateRejectsUnrunnableRatesAndComputeTimes pins the capture
// rates and compute times Run cannot execute: a NaN rate captures
// nothing, an infinite or huge one never advances the capture clock (Run
// would not return), and an infinite compute time crashes the drain. Each
// must be an error from Validate and from Run alike.
func TestValidateRejectsUnrunnableRatesAndComputeTimes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*Class)
		want string
	}{
		{"fps NaN", func(c *Class) { c.FPS = nan }, "must be positive and finite"},
		{"fps +Inf", func(c *Class) { c.FPS = inf }, "must be positive and finite"},
		{"fps 1e300", func(c *Class) { c.FPS = 1e300 }, "too high"},
		{"fps 1e17", func(c *Class) { c.FPS = 1e17 }, "too high"},
		{"compute_sec NaN", func(c *Class) { c.ComputeSeconds = nan }, "compute_sec NaN"},
		{"compute_sec +Inf", func(c *Class) { c.ComputeSeconds = inf }, "compute_sec +Inf"},
		{"placement compute_sec NaN", func(c *Class) {
			c.Placements = []PlacementCost{{Name: "raw", FrameBytes: 10, ComputeSeconds: nan}}
		}, "compute_sec NaN"},
		{"placement compute_sec +Inf", func(c *Class) {
			c.Placements = []PlacementCost{{Name: "raw", FrameBytes: 10, ComputeSeconds: inf}}
		}, "compute_sec +Inf"},
	}
	for _, tc := range cases {
		sc := Scenario{Duration: 2, Uplink: UplinkConfig{Gbps: 1},
			Classes: []Class{{Name: "c", Count: 2, FPS: 1, FrameBytes: 10}}}
		tc.edit(&sc.Classes[0])
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate error %v, want one containing %q", tc.name, err, tc.want)
		}
		if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// The huge rate is valid JSON, so the file path must refuse it too.
	if _, err := ParseScenario([]byte(`{"duration_sec": 2, "uplink": {"gbps": 1},
		"classes": [{"name": "c", "count": 1, "fps": 1e300, "frame_bytes": 10}]}`)); err == nil {
		t.Error("ParseScenario accepted fps 1e300")
	}
}

func TestParsedFlatScenarioTakesContentionOverride(t *testing.T) {
	// The fleet-sweep pattern: parse a flat scenario once, then vary its
	// top-level uplink in Go. Parsing leaves the flat form as written, so
	// the override reaches the "wan" root the run builds from it.
	sc, err := ParseScenario([]byte(`{
		"name": "flat", "seed": 1, "duration_sec": 1,
		"uplink": {"gbps": 1},
		"classes": [{"name": "c", "count": 4, "fps": 5, "frame_bytes": 1000}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sc.Uplink.Contention = ContentionFIFO
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(res.Table(), "\n")
	if !strings.Contains(header, ContentionFIFO) {
		t.Fatalf("header does not name the overridden discipline: %q", header)
	}
	if wan := res.TierNamed(rootTierName); wan == nil || wan.Contention != ContentionFIFO {
		t.Fatalf("root tier did not take the override: %+v", wan)
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	for _, contention := range []string{ContentionFairShare, ContentionFIFO} {
		a, err := Run(mixedScenario(42, contention))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(mixedScenario(42, contention))
		if err != nil {
			t.Fatal(err)
		}
		if a.Table() != b.Table() {
			t.Fatalf("%s: same seed produced different tables:\n%s\nvs\n%s", contention, a.Table(), b.Table())
		}
		c, err := Run(mixedScenario(43, contention))
		if err != nil {
			t.Fatal(err)
		}
		if a.Table() == c.Table() {
			t.Fatalf("%s: different seeds produced identical tables", contention)
		}
	}
}

func TestUplinkSingleAndSharedService(t *testing.T) {
	// One 1000-byte transfer on a 1000 B/s link takes 1 s under both
	// models; two admitted together take 1 s and 2 s under FIFO, and both
	// 2 s under fair share.
	for _, model := range []string{ContentionFIFO, ContentionFairShare} {
		up, err := NewLink(model, 1000)
		if err != nil {
			t.Fatal(err)
		}
		up.Start(0, 0, 1000)
		up.Start(0, 1, 1000)
		t1, ok := up.NextFinish()
		if !ok {
			t.Fatalf("%s: no in-flight transfer", model)
		}
		first := up.Finish()
		t2, _ := up.NextFinish()
		up.Finish()
		if model == ContentionFIFO {
			if first != 0 || math.Abs(t1-1) > 1e-9 || math.Abs(t2-2) > 1e-9 {
				t.Fatalf("fifo: finish(%d)=%v, then %v", first, t1, t2)
			}
		} else {
			if math.Abs(t1-2) > 1e-9 || math.Abs(t2-2) > 1e-9 {
				t.Fatalf("fair-share: finishes %v, %v, want both 2", t1, t2)
			}
		}
		if up.InFlight() != 0 || up.ServedBytes() != 2000 {
			t.Fatalf("%s: inflight %d served %v after drain", model, up.InFlight(), up.ServedBytes())
		}
	}
}

func TestFairShareConservesCapacity(t *testing.T) {
	// Under saturating load the uplink must never serve more than capacity:
	// the sum of per-camera throughputs, i.e. served bytes over elapsed
	// time, stays ≤ capacity (and under this load, close to it).
	sc := mixedScenario(7, ContentionFairShare)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Independent tally: completed offloads × payload, per class.
	capacity := sc.Uplink.BytesPerSecond()
	var servedBytes float64
	for i, cl := range res.Classes {
		servedBytes += float64(cl.Offloaded) * float64(sc.Classes[i].FrameBytes)
	}
	if servedBytes > capacity*res.SimEnd*(1+1e-9) {
		t.Fatalf("served %v bytes in %v s exceeds capacity %v B/s", servedBytes, res.SimEnd, capacity)
	}
	if got := servedBytes / (capacity * res.SimEnd); math.Abs(got-res.UplinkUtilization) > 1e-9 {
		t.Fatalf("reported utilization %v != per-class tally %v", res.UplinkUtilization, got)
	}
	if res.UplinkUtilization < 0.8 {
		t.Fatalf("saturating load only reached %v utilization", res.UplinkUtilization)
	}
}

func TestOffloadAccountingConserved(t *testing.T) {
	// With OffloadProb 1 every captured frame is offloaded, dropped by
	// backpressure, or skipped for energy — after the drain, nothing else.
	sc := mixedScenario(9, ContentionFairShare)
	sc.Classes = sc.Classes[:1] // the prob-1 class
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Classes[0]
	if s.Captured == 0 || s.DroppedQueue == 0 {
		t.Fatalf("expected saturation with drops, got %+v", s)
	}
	if s.Offloaded+s.DroppedQueue+s.DroppedEnergy != s.Captured {
		t.Fatalf("accounting leak: %+v", s)
	}
}

func TestDropCausesAreExclusive(t *testing.T) {
	// A harvesting prob-1 class pushed into both queue saturation and
	// energy starvation: each dropped frame must carry exactly one cause,
	// so the conservation identity (and DropRate ≤ 1) still holds.
	sc := mixedScenario(21, ContentionFairShare)
	sc.Classes = []Class{{
		Name: "both", Count: 30, FPS: 20, Arrival: ArrivalPeriodic,
		FrameBytes: 500_000, ComputeSeconds: 0.01, QueueDepth: 2,
		CaptureJ: 1e-4, ComputeJ: 1e-4, TxFixedJ: 1e-4, TxPerByteJ: 1e-9,
		HarvestW: 1e-3, StoreJ: 5e-3,
	}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Classes[0]
	if s.DroppedQueue == 0 || s.DroppedEnergy == 0 {
		t.Fatalf("scenario should exercise both drop causes: %+v", s)
	}
	if s.Offloaded+s.DroppedQueue+s.DroppedEnergy != s.Captured {
		t.Fatalf("drop causes not exclusive: %+v", s)
	}
	if s.DropRate() > 1 {
		t.Fatalf("drop rate %v > 1", s.DropRate())
	}
}

func TestRunDoesNotMutateCallerClasses(t *testing.T) {
	// Scenario values built by hand often share one Classes backing array
	// (copy-and-tweak); Run must normalize a private copy, both to keep
	// the caller's structs intact and to stay race-free under Sweep.
	classes := []Class{{Name: "c", Count: 2, FPS: 1, FrameBytes: 100}}
	sc := Scenario{Name: "m", Duration: 1, Uplink: UplinkConfig{Gbps: 1}, Classes: classes}
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
	if classes[0].QueueDepth != 0 || classes[0].OffloadProb != 0 || classes[0].Arrival != "" {
		t.Fatalf("Run wrote defaults into the caller's class: %+v", classes[0])
	}
}

func TestFairShareProtectsSmallFlowsVsFIFO(t *testing.T) {
	// The design motivation for pluggable contention: behind multi-second
	// VR frames, a FIFO uplink head-of-line-blocks the face-auth chips;
	// processor sharing lets them slip through.
	ps, err := Run(mixedScenario(11, ContentionFairShare))
	if err != nil {
		t.Fatal(err)
	}
	ff, err := Run(mixedScenario(11, ContentionFIFO))
	if err != nil {
		t.Fatal(err)
	}
	small := func(r *Result) ClassStats { return r.Classes[1] }
	if small(ps).LatencyP50 >= small(ff).LatencyP50 {
		t.Fatalf("fair-share p50 %v not below FIFO p50 %v",
			small(ps).LatencyP50, small(ff).LatencyP50)
	}
}

func TestHarvestStarvationDropsFrames(t *testing.T) {
	sc := mixedScenario(5, ContentionFairShare)
	sc.Classes = sc.Classes[1:] // harvesting class only
	sc.Classes[0].HarvestW = 1e-6
	sc.Classes[0].StoreJ = 1e-5
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Classes[0]
	if s.DroppedEnergy == 0 {
		t.Fatalf("starved harvester dropped nothing: %+v", s)
	}
}

func TestClassBuildersComposeSingleCameraModels(t *testing.T) {
	fa := FaceAuthClass(10)
	if fa.Count != 10 || fa.FrameBytes != 400 || fa.HarvestW <= 0 {
		t.Fatalf("FaceAuthClass: %+v", fa)
	}
	if fa.OffloadProb <= 0 || fa.OffloadProb > 0.2 {
		t.Fatalf("progressive filtering should offload a small fraction, got %v", fa.OffloadProb)
	}
	p := PaperVRPipeline()
	full := core.Placement{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}}
	vrFull, err := VRClass(5, full, 30)
	if err != nil {
		t.Fatal(err)
	}
	vrRaw, err := VRClass(5, core.Placement{}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if vrFull.FrameBytes >= vrRaw.FrameBytes {
		t.Fatalf("full in-camera placement should shrink the payload: %d vs %d",
			vrFull.FrameBytes, vrRaw.FrameBytes)
	}
	cost, err := p.Cost(full)
	if err != nil {
		t.Fatal(err)
	}
	if vrFull.FrameBytes != cost.OffloadBytes || vrFull.ComputeSeconds != cost.ComputeSeconds {
		t.Fatalf("VRClass does not reflect the core cost hook: %+v vs %+v", vrFull, cost)
	}
}

func TestCoreCostHookMatchesEvaluate(t *testing.T) {
	p := PaperVRPipeline()
	for _, pl := range p.Enumerate([]string{"CPU", "GPU", "FPGA"}) {
		cost, err := p.Cost(pl)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Evaluate(pl, 3.125e9)
		if err != nil {
			t.Fatal(err)
		}
		if cost.OffloadBytes != a.OffloadBytes {
			t.Fatalf("%s: bytes %d vs %d", a.Label, cost.OffloadBytes, a.OffloadBytes)
		}
		if math.Abs(cost.ComputeSeconds*a.ComputeFPS-1) > 1e-9 {
			t.Fatalf("%s: compute %v s vs %v FPS", a.Label, cost.ComputeSeconds, a.ComputeFPS)
		}
	}
}

func TestPerCameraSeedsCollisionFree(t *testing.T) {
	// The old derivation shifted the seed left by 20 bits before mixing:
	// the top 20 seed bits vanished, and (seed, idx) and (seed, idx+2^20)
	// collided outright. Two full splitmix64 rounds must keep every
	// combination distinct — including camera indexes at and beyond 2^20
	// and seeds differing only in their high bits.
	seeds := []int64{0, 1, 42, 1 << 44, (1 << 44) + 1, -1}
	idxs := []int{0, 1, 1000, 1 << 20, (1 << 20) + 1, 1 << 21}
	seen := map[int64][2]any{}
	for _, s := range seeds {
		for _, i := range idxs {
			h := streamSeed(s, seedCameras, i)
			if prev, dup := seen[h]; dup {
				t.Fatalf("camera seed (%d,%d) == camera seed (%v,%v) == %d", s, i, prev[0], prev[1], h)
			}
			seen[h] = [2]any{s, i}
		}
	}
	// And the old failure mode specifically: same seed, indexes 2^20 apart.
	if streamSeed(7, seedCameras, 3) == streamSeed(7, seedCameras, 3+1<<20) {
		t.Fatal("camera indexes 2^20 apart still collide")
	}
}

func TestFIFOQueueBoundedOverLongRun(t *testing.T) {
	// Regression for the queue = queue[1:] backing-array leak: with a
	// bounded backlog, the ring must stay near the peak concurrency no
	// matter how many transfers pass through (the old code retained every
	// popped head for the life of the run).
	up, err := NewLink(ContentionFIFO, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fifo := up.(*fifoServer)
	now := 0.0
	const transfers = 200_000
	for i := 0; i < transfers; i++ {
		up.Start(now, i, 100)
		if up.InFlight() >= 8 {
			ft, _ := up.NextFinish()
			up.Finish()
			now = ft
		}
	}
	for up.InFlight() > 0 {
		up.Finish()
	}
	if len(fifo.ring) > 16 {
		t.Fatalf("ring grew to %d slots for a backlog that never exceeded 8", len(fifo.ring))
	}
	if up.ServedBytes() != transfers*100 {
		t.Fatalf("served %v bytes, want %v", up.ServedBytes(), transfers*100)
	}
}

func TestPreallocationEstimatesClamped(t *testing.T) {
	// A valid scenario (all fields positive and finite, accepted by
	// Validate) can make FPS × Duration × Count overflow float64→int;
	// int() of an out-of-range float is unspecified and a negative cap
	// panics make. The estimate helper must clamp every pathological
	// input instead of letting Run panic on a scenario Validate accepted.
	cases := []struct {
		in   float64
		want int
	}{
		{-1, 0}, {0, 0}, {math.NaN(), 0}, {0.5, 0}, {10.9, 10},
		{1 << 22, 1 << 22}, {1e200, 1 << 22}, {math.Inf(1), 1 << 22},
		{math.MaxFloat64, 1 << 22},
	}
	for _, tc := range cases {
		if got := clampEst(tc.in); got != tc.want {
			t.Fatalf("clampEst(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestSweepParallelMatchesSerial exercises the worker pool (under -race in
// CI) and pins sweep outputs to serial runs.
func TestSweepParallelMatchesSerial(t *testing.T) {
	var scs []Scenario
	for seed := int64(0); seed < 6; seed++ {
		sc := mixedScenario(seed, ContentionFairShare)
		sc.Duration = 2
		scs = append(scs, sc)
	}
	outs := Sweep(scs, 4)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		serial, err := Run(scs[i])
		if err != nil {
			t.Fatal(err)
		}
		if o.Result.Table() != serial.Table() {
			t.Fatalf("sweep[%d] diverged from serial run:\n%s\nvs\n%s", i, o.Result.Table(), serial.Table())
		}
	}
	if got := Sweep(nil, 0); len(got) != 0 {
		t.Fatalf("empty sweep returned %d outcomes", len(got))
	}
}
