package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// The finite-compute pools are small enough to check against queueing
// arithmetic done by hand: a single FIFO server fed periodically either
// never queues (λ < μ) or builds a deterministic ramp of waits
// (λ > μ, the n-th frame waiting (n-1)(s-a) seconds). The unit tests pin
// those numbers on the servers directly; the sim-level test pins them
// end to end through Run; the trace test holds the same conservation
// invariants as the uplinks under arbitrary interleavings.

// TestFIFOComputeAnalytic drives the single-core FIFO pool with periodic
// arrivals and checks every finish time against the hand computation.
func TestFIFOComputeAnalytic(t *testing.T) {
	const eps = 1e-12

	// Underload: interarrival 0.1, service 0.05 — every frame finds the
	// core idle and finishes exactly one service time after arrival.
	s := newComputeServer(&ComputeConfig{Cores: 1, ServiceRateFPS: 1, Discipline: ContentionFIFO})
	for i := 0; i < 10; i++ {
		at := float64(i) * 0.1
		s.Start(at, i, 0.05)
		ft, ok := s.NextFinish()
		if !ok || math.Abs(ft-(at+0.05)) > eps {
			t.Fatalf("underload frame %d: finish %v, want %v", i, ft, at+0.05)
		}
		if id := s.Finish(); id != i {
			t.Fatalf("underload frame %d: finished id %d", i, id)
		}
	}
	if got := s.ServedBytes(); math.Abs(got-0.5) > eps {
		t.Fatalf("underload served %v work-seconds, want 0.5", got)
	}

	// Overload: interarrival a=0.05, service s=0.1. The queue never
	// drains, so frame n starts when frame n-1 finishes: finish_n =
	// a_0 + (n+1)s, and its wait is finish_n - arrival_n - s = n(s-a).
	s = newComputeServer(&ComputeConfig{Cores: 1, ServiceRateFPS: 1, Discipline: ContentionFIFO})
	const n = 20
	for i := 0; i < n; i++ {
		s.Start(float64(i)*0.05, i, 0.1)
	}
	for i := 0; i < n; i++ {
		ft, ok := s.NextFinish()
		want := float64(i+1) * 0.1
		if !ok || math.Abs(ft-want) > eps {
			t.Fatalf("overload frame %d: finish %v, want %v", i, ft, want)
		}
		if id := s.Finish(); id != i {
			t.Fatalf("overload frame %d: finished id %d", i, id)
		}
		wait := ft - float64(i)*0.05 - 0.1
		if wantW := float64(i) * 0.05; math.Abs(wait-wantW) > eps {
			t.Fatalf("overload frame %d: wait %v, want %v", i, wait, wantW)
		}
	}
}

// TestPSComputeAnalytic pins the egalitarian processor-sharing pool on
// cases small enough to solve exactly.
func TestPSComputeAnalytic(t *testing.T) {
	const eps = 1e-9

	// Two unit jobs on one core share it equally: both finish at t=2,
	// FIFO ties broken by admission order.
	s := newComputeServer(&ComputeConfig{Cores: 1, ServiceRateFPS: 1, Discipline: ContentionFairShare})
	s.Start(0, 0, 1)
	s.Start(0, 1, 1)
	for i := 0; i < 2; i++ {
		ft, ok := s.NextFinish()
		if !ok || math.Abs(ft-2) > eps {
			t.Fatalf("1-core job %d: finish %v, want 2", i, ft)
		}
		if id := s.Finish(); id != i {
			t.Fatalf("1-core job %d: finished id %d", i, id)
		}
	}

	// Two unit jobs on two cores run at full rate: a job never spans
	// cores, so each finishes after exactly its own work.
	s = newComputeServer(&ComputeConfig{Cores: 2, ServiceRateFPS: 1, Discipline: ContentionFairShare})
	s.Start(0, 0, 1)
	s.Start(0, 1, 1)
	for i := 0; i < 2; i++ {
		ft, ok := s.NextFinish()
		if !ok || math.Abs(ft-1) > eps {
			t.Fatalf("2-core job %d: finish %v, want 1", i, ft)
		}
		s.Finish()
	}

	// A short job arriving mid-service preempts half the core: the long
	// job runs alone for 1s (1 unit done), shares for 1s (0.5 each), then
	// finishes its remaining 0.5 alone. short: 1 + 1 = 2; long: 2.5.
	s = newComputeServer(&ComputeConfig{Cores: 1, ServiceRateFPS: 1, Discipline: ContentionFairShare})
	s.Start(0, 0, 2)
	s.Start(1, 1, 0.5)
	ft, _ := s.NextFinish()
	if math.Abs(ft-2) > eps {
		t.Fatalf("short job finish %v, want 2", ft)
	}
	if id := s.Finish(); id != 1 {
		t.Fatalf("short job: finished id %d, want 1", id)
	}
	ft, _ = s.NextFinish()
	if math.Abs(ft-2.5) > eps {
		t.Fatalf("long job finish %v, want 2.5", ft)
	}
}

// computeAnalyticScenario is one camera feeding one single-core tier
// pool: fps captures per second against rate services per second, with a
// queue deep enough that nothing drops.
func computeAnalyticScenario(fps, rate, duration float64) Scenario {
	return Scenario{
		Name:     "compute-analytic",
		Seed:     42,
		Duration: duration,
		Tiers: []Tier{{
			Name:    "t",
			Uplink:  UplinkConfig{Gbps: 1000},
			Compute: &ComputeConfig{Cores: 1, ServiceRateFPS: rate, Discipline: ContentionFIFO},
		}},
		Classes: []Class{{
			Name: "c", Count: 1, FPS: fps, FrameBytes: 1_000_000,
			OffloadProb: 1, QueueDepth: 10_000, Tier: "t",
		}},
	}
}

// TestComputeSingleServerSim runs the analytic single-server cases end to
// end through Run: underload shows zero queueing, overload builds the
// deterministic wait ramp whose quantiles and busy time match hand
// computation.
func TestComputeSingleServerSim(t *testing.T) {
	// λ = 10 < μ = 20: every frame is served on arrival.
	res, err := Run(computeAnalyticScenario(10, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Tiers[0].Compute
	if cs == nil {
		t.Fatal("tier has a compute section but no ComputeStats")
	}
	// "Zero" up to the rounding residue of finish−arrival−work, which can
	// leave a few ulps (~1e-17 s) behind.
	if cs.WaitP50 > 1e-12 || cs.WaitP95 > 1e-12 {
		t.Fatalf("underloaded server queued: wait p50 %v p95 %v", cs.WaitP50, cs.WaitP95)
	}
	if want := float64(cs.Frames) * 0.05; math.Abs(cs.BusySec-want) > 1e-9 {
		t.Fatalf("busy %v s for %d frames at 50ms each, want %v", cs.BusySec, cs.Frames, want)
	}
	if res.Classes[0].DroppedQueue != 0 {
		t.Fatalf("underloaded run dropped %d frames", res.Classes[0].DroppedQueue)
	}

	// λ = 20 > μ = 10: with interarrival a = 0.05 and service s = 0.1 the
	// n-th frame (0-based) waits exactly n(s-a) = 50ms·n, so the wait
	// quantiles sit on a uniform ramp up to (N-1)·50ms.
	res, err = Run(computeAnalyticScenario(20, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	cs = res.Tiers[0].Compute
	n := float64(cs.Frames)
	if n < 50 {
		t.Fatalf("overloaded run served only %v frames", n)
	}
	maxWait := (n - 1) * 0.05
	if cs.WaitP95 < 0.9*maxWait || cs.WaitP95 > maxWait+1e-9 {
		t.Fatalf("overload wait p95 %v outside ramp band [%v, %v]", cs.WaitP95, 0.9*maxWait, maxWait)
	}
	if cs.WaitP50 < 0.4*maxWait || cs.WaitP50 > 0.6*maxWait {
		t.Fatalf("overload wait p50 %v, want ≈ %v", cs.WaitP50, 0.5*maxWait)
	}
	if want := n * 0.1; math.Abs(cs.BusySec-want) > 1e-6 {
		t.Fatalf("busy %v s for %v frames at 100ms each, want %v", cs.BusySec, n, want)
	}
	if res.Classes[0].DroppedQueue != 0 {
		t.Fatalf("overloaded run dropped %d frames despite the deep queue", res.Classes[0].DroppedQueue)
	}

	// The queue grows for as long as the run does: doubling the horizon
	// must grow the p95 wait.
	long, err := Run(computeAnalyticScenario(20, 10, 6))
	if err != nil {
		t.Fatal(err)
	}
	if long.Tiers[0].Compute.WaitP95 <= cs.WaitP95 {
		t.Fatalf("overloaded queue stopped growing: p95 %v after 6s vs %v after 3s",
			long.Tiers[0].Compute.WaitP95, cs.WaitP95)
	}
}

// computeTrace drives one compute pool through a random admit/finish
// sequence — the compute-server mirror of uplinkTrace — and checks the
// conservation invariants: no job finishes in less than its own work, a
// pool of c cores never serves more than c work-seconds per busy second,
// and every admitted work-second drains.
func computeTrace(t *testing.T, discipline string, rng *rand.Rand) {
	t.Helper()
	cores := 1 + rng.Intn(4)
	pool := newComputeServer(&ComputeConfig{
		Cores: cores, ServiceRateFPS: 1, Discipline: discipline,
	})
	const eps = 1e-6

	type admitted struct {
		at   float64
		work float64
	}
	open := map[int]admitted{}
	now, busyStart, busyTime := 0.0, 0.0, 0.0
	var sumWork float64

	processFinish := func() {
		ft, ok := pool.NextFinish()
		if !ok {
			t.Fatalf("%s/%d: %d jobs open but no next finish", discipline, cores, len(open))
		}
		if ft < now-eps {
			t.Fatalf("%s/%d: finish time %v precedes current time %v", discipline, cores, ft, now)
		}
		served := pool.ServedBytes()
		fid := pool.Finish()
		a, ok := open[fid]
		if !ok {
			t.Fatalf("%s/%d: finished unknown job %d", discipline, cores, fid)
		}
		delete(open, fid)
		// A job never spans cores, so its fastest possible service is its
		// own work at rate 1.
		if ft-a.at < a.work-eps {
			t.Fatalf("%s/%d: job %d got %v work in %v s", discipline, cores, fid, a.work, ft-a.at)
		}
		if got := pool.ServedBytes() - served; math.Abs(got-a.work) > eps {
			t.Fatalf("%s/%d: served advanced %v for a %v-work job", discipline, cores, got, a.work)
		}
		if ft > now {
			now = ft
		}
		if len(open) == 0 {
			busyTime += now - busyStart
		}
	}

	n := 20 + rng.Intn(150)
	for id := 0; id < n || len(open) > 0; {
		if id < n && (len(open) == 0 || rng.Float64() < 0.6) {
			tnext := now + rng.ExpFloat64()*0.1
			for {
				ft, ok := pool.NextFinish()
				if !ok || ft > tnext {
					break
				}
				processFinish()
			}
			now = tnext
			work := 0.001 + rng.Float64()*0.5
			if len(open) == 0 {
				busyStart = now
			}
			pool.Start(now, id, work)
			open[id] = admitted{at: now, work: work}
			sumWork += work
			id++
		} else {
			processFinish()
		}
		if pool.InFlight() != len(open) {
			t.Fatalf("%s/%d: InFlight %d, expected %d", discipline, cores, pool.InFlight(), len(open))
		}
	}
	if math.Abs(pool.ServedBytes()-sumWork) > eps {
		t.Fatalf("%s/%d: served %v of %v admitted work", discipline, cores, pool.ServedBytes(), sumWork)
	}
	if pool.ServedBytes() > float64(cores)*busyTime*(1+1e-9)+eps {
		t.Fatalf("%s/%d: served %v work-seconds in %v busy seconds",
			discipline, cores, pool.ServedBytes(), busyTime)
	}
}

// TestComputePropertyConservation holds the busy-time conservation
// invariants over randomized traces for both disciplines; CI runs it
// under -race with the rest of the suite.
func TestComputePropertyConservation(t *testing.T) {
	for _, discipline := range []string{ContentionFIFO, ContentionFairShare} {
		t.Run(discipline, func(t *testing.T) {
			rng := rand.New(rand.NewSource(987))
			for iter := 0; iter < 150; iter++ {
				computeTrace(t, discipline, rng)
			}
		})
	}
}

// TestNoComputeByteIdentityAcrossGOMAXPROCS is the differential guard for
// the infinite-compute fast path: a scenario without compute sections
// must render the identical Table at GOMAXPROCS 1, 2 and 8 — the compute
// plumbing may not perturb a run that never configured it.
func TestNoComputeByteIdentityAcrossGOMAXPROCS(t *testing.T) {
	sc, err := TopologyDemoScenario(7, PolicyHysteresis)
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 2
	var first string
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := Run(sc)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tiers[0].Compute != nil {
			t.Fatal("no-compute scenario grew ComputeStats")
		}
		out := res.Table()
		if first == "" {
			first = out
		} else if out != first {
			t.Fatalf("no-compute Table differs at GOMAXPROCS=%d", procs)
		}
	}
}

// TestComputeAddsLatencyDifferential runs the compute demo against the
// same fleet with its pools stripped: finite compute can only add
// latency, and the congested gateway must show it.
func TestComputeAddsLatencyDifferential(t *testing.T) {
	with, err := ComputeDemoScenario(3, PolicyStatic)
	if err != nil {
		t.Fatal(err)
	}
	with.Duration = 4
	without := with
	without.Tiers = append([]Tier(nil), with.Tiers...)
	for i := range without.Tiers {
		without.Tiers[i].Compute = nil
	}
	resW, err := Run(with)
	if err != nil {
		t.Fatal(err)
	}
	resO, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resW.Classes {
		if resW.Classes[i].Offloaded == 0 || resO.Classes[i].Offloaded == 0 {
			continue
		}
		if resW.Classes[i].LatencyP95 < resO.Classes[i].LatencyP95-1e-9 {
			t.Fatalf("class %s: p95 %v with compute < %v without",
				resW.Classes[i].Name, resW.Classes[i].LatencyP95, resO.Classes[i].LatencyP95)
		}
	}
	gwa := resW.TierNamed("gw-a")
	if gwa.Compute == nil || gwa.Compute.WaitP95 <= 0 {
		t.Fatalf("undersized gw-a pool shows no queueing: %+v", gwa.Compute)
	}
	if resO.TierNamed("gw-a").Compute != nil {
		t.Fatal("stripped scenario still reports ComputeStats")
	}
}

// TestRowDelaySecondsAndRunLeaveCallerScenario pins that neither
// RowDelaySeconds nor Run writes Normalize defaults into the caller's
// scenario: every section Normalize fills — global, federated, tier
// downlinks and compute, dynamics entries — is left zero here, and the
// caller's value must still equal a deep copy taken before each call.
func TestRowDelaySecondsAndRunLeaveCallerScenario(t *testing.T) {
	budget, err := ComputeDemoScenario(1, GlobalModeBudget)
	if err != nil {
		t.Fatal(err)
	}
	budget.Global.EpochSec, budget.Global.MoveFraction = 0, 0
	for i := range budget.Tiers {
		if cc := budget.Tiers[i].Compute; cc != nil {
			cc.Discipline = ""
		}
	}
	federated := FederatedDemoScenario(1)
	federated.Federated.Model.BytesPerWeight, federated.Federated.Model.Compress = 0, 0
	for i := range federated.Tiers {
		federated.Tiers[i].Downlink.Contention = ""
	}
	dynamic := DynamicsDemoScenario(1)
	for i := range dynamic.Dynamics.Events {
		if k := dynamic.Dynamics.Events[i].Kind; k == DynCameraJoin || k == DynCameraLeave {
			dynamic.Dynamics.Events[i].Count = 0
		}
	}
	for _, sc := range []Scenario{budget, federated, dynamic} {
		want := deepCopyScenario(sc)
		if _, err := sc.RowDelaySeconds(sc.Classes[0].Name); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(sc, want) {
			t.Fatalf("%s: RowDelaySeconds changed the caller's scenario", sc.Name)
		}
		if _, err := Run(sc); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(sc, want) {
			t.Fatalf("%s: Run changed the caller's scenario", sc.Name)
		}
	}
}
