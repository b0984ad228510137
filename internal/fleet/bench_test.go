package fleet

import (
	"fmt"
	"testing"
)

// deepFleetScenario spreads cams cameras across 32 leaf gateways feeding 8
// metro tiers and one core link (41 links in all) — the 10k-camera
// deep-topology stress shape. Simple fixed-payload classes keep the event
// loop itself the measured quantity.
func deepFleetScenario(cams int) Scenario {
	sc := Scenario{
		Name:     fmt.Sprintf("deep-bench-%d", cams),
		Seed:     1,
		Duration: 4,
	}
	const gws, metros = 32, 8
	for m := 1; m <= metros; m++ {
		sc.Tiers = append(sc.Tiers, Tier{
			Name:           fmt.Sprintf("metro-%d", m),
			Parent:         "core",
			Uplink:         UplinkConfig{Gbps: 4, Contention: ContentionFairShare},
			PropagationSec: 0.002,
		})
	}
	sc.Tiers = append(sc.Tiers, Tier{
		Name:           "core",
		Uplink:         UplinkConfig{Gbps: 8, Contention: ContentionFairShare},
		PropagationSec: 0.01,
	})
	per := cams / gws
	for g := 0; g < gws; g++ {
		name := fmt.Sprintf("gw-%d", g)
		sc.Tiers = append(sc.Tiers, Tier{
			Name:           name,
			Parent:         fmt.Sprintf("metro-%d", g%metros+1),
			Uplink:         UplinkConfig{Gbps: 2, Contention: ContentionFairShare},
			PropagationSec: 0.0002,
		})
		sc.Classes = append(sc.Classes, Class{
			Name: "cams-" + name, Count: per, FPS: 2, Arrival: ArrivalPoisson,
			Tier: name, FrameBytes: 4000, OffloadProb: 1, ComputeSeconds: 0.005,
			QueueDepth: 4, CaptureJ: 1e-4, ComputeJ: 1e-4, TxFixedJ: 1e-5, TxPerByteJ: 1e-9,
		})
	}
	return sc
}

// BenchmarkDeepTopology measures one full 10k-camera deep-topology run per
// iteration. With 41 links, the link-completion index carries a real
// share of every event; TestLinkIndexLockstepWithScan holds it equal to
// the O(links) scan it replaced. Baseline numbers live in
// BENCH_topology.json at the repo root.
func BenchmarkDeepTopology(b *testing.B) {
	sc := deepFleetScenario(10_000)
	b.ReportAllocs()
	b.ResetTimer() // gate the run alone, not the scenario build
	var frames int64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		frames += res.Total.Captured
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/run")
}

// BenchmarkEventHeap is the event queue's own microbenchmark, a hold
// model at a fixed population: one op pops the earliest event and pushes
// it back later under a fresh seq, the steady state of a fleet whose every
// camera keeps one capture pending. In the 1k and 100k cases the push
// comes one ExpFloat64 gap later; the 100k case is BenchmarkHugeFleet's
// queue size, larger than L2. The mixed-100k case draws the engine's
// delays instead: half capture gaps, half the ready, hop and arrive
// delays (0.2–10 ms) that land close to the current time. ns/op is the
// cost of one hold, and the queue's storage is reused, so allocs/op must
// read 0.
func BenchmarkEventHeap(b *testing.B) {
	short := []float64{0.005, 0.0002, 0.002, 0.01}
	for _, bc := range []struct {
		name  string
		n     int
		mixed bool
	}{{"1k", 1_000, false}, {"100k", 100_000, false}, {"mixed-100k", 100_000, true}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := newPRNG(1)
			h := newEventHeap(bc.n)
			var seq uint64
			for i := 0; i < bc.n; i++ {
				h.push(event{t: rng.ExpFloat64(), key: seq<<kindBits | evCapture, a: int32(i)})
				seq++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := h.pop()
				if bc.mixed && rng.Uint64()&1 == 0 {
					ev.t += short[rng.Intn(len(short))]
				} else {
					ev.t += rng.ExpFloat64()
				}
				ev.key = seq<<kindBits | evCapture
				seq++
				h.push(ev)
			}
		})
	}
}

// BenchmarkHugeFleet is the 100k-camera scale point: the same 41-link
// deep topology with 10× the population over a shorter horizon, so one
// iteration is a full run at the fleet size the ROADMAP targets. The
// alloc counters are the regression surface — steady-state stepping is
// designed to be allocation-free (boxing-free heaps, value-embedded
// per-camera PRNGs, transfer free-list, pooled event queue and
// latency slices), so allocs/op stays proportional to the camera count,
// not the frame count. Baselines live in BENCH_topology.json and are
// gated by cmd/benchgate in CI.
func BenchmarkHugeFleet(b *testing.B) {
	sc := deepFleetScenario(100_000)
	sc.Duration = 1
	b.ReportAllocs()
	var frames int64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		frames += res.Total.Captured
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/run")
}

// BenchmarkLongHorizon is the streaming-telemetry memory proof: the
// 100k-camera deep topology simulated 8× longer than BenchmarkHugeFleet,
// with per-class latency landing in KLL sketches and a 1s window time
// series instead of exact per-sample slices. On the exact path B/op
// grows with the horizon (the latency slices are preallocated from the
// expected frame count: ~78 MB at this duration, and climbing); here
// the sketches are bounded and window sketches are reset in place, so
// B/op is flat in the frame count — doubling the duration again moves
// it by under 2% — and the ceiling cmd/benchgate gates in CI against
// BENCH_topology.json proves it stays that way.
func BenchmarkLongHorizon(b *testing.B) {
	sc := deepFleetScenario(100_000)
	sc.Duration = 8
	sc.Telemetry = &TelemetryConfig{Streaming: true, WindowSec: 1}
	b.ReportAllocs()
	var frames int64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		frames += res.Total.Captured
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/run")
}

// BenchmarkFederatedRound measures the bidirectional path: one full run of
// the federated demo fleet per iteration — 48 cameras pushing per-round
// update blobs up through two gateways while the merged model broadcasts
// back down the tier downlinks, interleaved with the ordinary frame
// traffic. The FL engine is pure accounting, so the cost to watch is the
// extra link events; the alloc counters catch any per-round bookkeeping
// leaking into the hot loop. Baselines live in BENCH_topology.json and
// are gated by cmd/benchgate in CI.
func BenchmarkFederatedRound(b *testing.B) {
	sc := FederatedDemoScenario(1)
	b.ReportAllocs()
	var rounds int64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		rounds += int64(len(res.Federated.PerRound))
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/run")
}

// BenchmarkChurnFleet prices the fleet-dynamics path: the 10k-camera
// deep topology under a live fault schedule — recurring join and leave
// entries churning two gateway populations for the whole run, plus one
// gateway outage (with re-homing onto a sibling leaf) and recovery.
// Joins append cameras and leaves swap-remove them, so the cost to
// watch is churn bookkeeping against the flat per-camera state; the
// outage exercises the drain/re-home path at scale. The alloc counters
// are the regression surface: a join allocates at most its camera
// record, and firing an event must not allocate at all. Baselines live
// in BENCH_topology.json and are gated by cmd/benchgate in CI.
func BenchmarkChurnFleet(b *testing.B) {
	sc := deepFleetScenario(10_000)
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 0.2, Kind: DynCameraJoin, Class: "cams-gw-0", Count: 8, EverySec: 0.1},
		{Time: 0.3, Kind: DynCameraLeave, Class: "cams-gw-1", Count: 8, EverySec: 0.1},
		{Time: 1.5, Kind: DynTierOutage, Tier: "gw-2", Fallback: "gw-10"},
		{Time: 2.5, Kind: DynTierRecover, Tier: "gw-2"},
	}}
	b.ReportAllocs()
	var churn int64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		churn += res.Dynamics.Joined + res.Dynamics.Left
	}
	b.ReportMetric(float64(churn)/float64(b.N), "churn/run")
}

// BenchmarkComputeTiers prices the finite-core-pool path: the 10k-camera
// deep topology with a compute section on all 41 tiers, sized so every
// pool runs near 80% utilization — each frame queues for service at
// three pools (gateway, metro, core) on top of its link transits, with
// the gateways on egalitarian fair-share and the upper tiers on FIFO so
// both service heaps are in the hot loop. The alloc counters are the
// regression surface: pool stepping reuses the same free-listed transfer
// records the links do, so allocs/op must not grow with the frame count.
// Baselines live in BENCH_topology.json and are gated by cmd/benchgate
// in CI.
func BenchmarkComputeTiers(b *testing.B) {
	sc := deepFleetScenario(10_000)
	// 625 offered fps per gateway × 5 ms service = 3.125 core-sec/s.
	for i := range sc.Tiers {
		t := &sc.Tiers[i]
		switch {
		case t.Name == "core":
			t.Compute = &ComputeConfig{Cores: 128, ServiceRateFPS: 200}
		case len(t.Name) > 5 && t.Name[:5] == "metro":
			t.Compute = &ComputeConfig{Cores: 16, ServiceRateFPS: 200}
		default:
			t.Compute = &ComputeConfig{Cores: 4, ServiceRateFPS: 200,
				Discipline: ContentionFairShare}
		}
	}
	b.ReportAllocs()
	var busy float64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, ts := range res.Tiers {
			if ts.Compute != nil {
				busy += ts.Compute.BusySec
			}
		}
	}
	b.ReportMetric(busy/float64(b.N), "core-sec/run")
}

// BenchmarkServers is the queueing disciplines' own microbenchmark:
// {fifo, fair-share} × {link, 4-core pool}, each held at a fixed
// in-flight depth. One op is a hold: peek the earliest completion,
// finish it, and start a job of the next size at that instant. The
// sizes cycle through a short table, so ties and reorderings occur but
// the run is the same every time. Storage is reused, so allocs/op must
// read 0.
func BenchmarkServers(b *testing.B) {
	sizes := [...]float64{1, 3, 2, 5, 1, 4}
	for _, disc := range []string{ContentionFIFO, ContentionFairShare} {
		for _, kind := range []string{"link", "pool-4"} {
			for _, depth := range []int{1, 64} {
				b.Run(fmt.Sprintf("%s/%s/inflight-%d", disc, kind, depth), func(b *testing.B) {
					var s Link
					scale := 1000.0 // bytes on a 1 MB/s link
					if kind == "link" {
						l, err := NewLink(disc, 1e6)
						if err != nil {
							b.Fatal(err)
						}
						s = l
					} else {
						s = newComputeServer(&ComputeConfig{Cores: 4, Discipline: disc})
						scale = 0.001 // core-seconds
					}
					for i := 0; i < depth; i++ {
						s.Start(0, i, sizes[i%len(sizes)]*scale)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						t, _ := s.NextFinish()
						id := s.Finish()
						s.Start(t, id, sizes[i%len(sizes)]*scale)
					}
				})
			}
		}
	}
}
