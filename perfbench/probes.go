package main

import (
	"fmt"
	"math/rand"
	"time"

	"camsim/internal/fleet"
	"camsim/internal/fleet/quantile"
)

// Probe sizes: operations per repetition, and repetitions per probe (the
// reported ns/op is the median repetition).
const (
	linkProbeOps   = 200_000
	addProbeOps    = 1_000_000
	mergeProbeOps  = 200
	queryProbeOps  = 20_000
	probeReps      = 5
	probeRingSize  = 4096
	linkProbeBytes = 1e9 // link capacity, bytes per second
)

// probeResult is one probe's median ns/op and its operation count, with
// the metric names they are reported under.
type probeResult struct {
	name, opsName string
	ns            float64
	ops           int
}

// runProbes exercises single layers through their public API on a seeded
// input stream: fleet.NewLink for both disciplines at two in-flight
// depths, and quantile.Sketch Add, Merge and Quantile.
func runProbes(seed int64) ([]probeResult, error) {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]float64, probeRingSize)
	for i := range sizes {
		sizes[i] = 1000 + 3000*rng.ExpFloat64()
	}
	values := make([]float64, probeRingSize)
	for i := range values {
		values[i] = rng.ExpFloat64() * 0.05
	}
	var out []probeResult
	for _, model := range []string{fleet.ContentionFairShare, fleet.ContentionFIFO} {
		for _, depth := range []int{8, 1024} {
			ns, err := repeatProbe(func() (float64, error) { return linkProbe(model, depth, sizes) })
			if err != nil {
				return nil, err
			}
			out = append(out, probeResult{
				fmt.Sprintf("fleet.link.%s.op_ns.inflight-%d", model, depth),
				fmt.Sprintf("fleet.link.%s.ops.inflight-%d", model, depth),
				ns, linkProbeOps * probeReps})
		}
	}
	for _, p := range []struct {
		op  string
		ops int
		fn  func([]float64) (float64, error)
	}{
		{"add", addProbeOps, addProbe},
		{"merge", mergeProbeOps, mergeProbe},
		{"query", queryProbeOps, queryProbe},
	} {
		ns, err := repeatProbe(func() (float64, error) { return p.fn(values) })
		if err != nil {
			return nil, err
		}
		out = append(out, probeResult{"quantile." + p.op + "_ns", "quantile." + p.op + "_ops", ns, p.ops * probeReps})
	}
	return out, nil
}

func repeatProbe(fn func() (float64, error)) (float64, error) {
	var ns []float64
	for r := 0; r < probeReps; r++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		ns = append(ns, v)
	}
	return median(ns), nil
}

// linkProbe holds a link at a steady in-flight depth: each operation is
// NextFinish + Finish of the earliest transfer and Start of a new one at
// that time. It returns ns per operation.
func linkProbe(model string, depth int, sizes []float64) (float64, error) {
	l, err := fleet.NewLink(model, linkProbeBytes)
	if err != nil {
		return 0, err
	}
	for id := 0; id < depth; id++ {
		l.Start(0, id, sizes[id%len(sizes)])
	}
	now := 0.0
	t0 := time.Now()
	for i := 0; i < linkProbeOps; i++ {
		t, ok := l.NextFinish()
		if !ok || t < now {
			return 0, fmt.Errorf("link probe %s: completion %v at %v (ok=%v)", model, t, now, ok)
		}
		now = t
		l.Finish()
		l.Start(now, depth+i, sizes[(depth+i)%len(sizes)])
	}
	ns := float64(time.Since(t0).Nanoseconds()) / linkProbeOps
	if l.InFlight() != depth {
		return 0, fmt.Errorf("link probe %s: in-flight %d, want %d", model, l.InFlight(), depth)
	}
	return ns, nil
}

func addProbe(values []float64) (float64, error) {
	s := quantile.NewSketch()
	t0 := time.Now()
	for i := 0; i < addProbeOps; i++ {
		s.Add(values[i%len(values)])
	}
	ns := float64(time.Since(t0).Nanoseconds()) / addProbeOps
	if s.Count() != addProbeOps {
		return 0, fmt.Errorf("quantile add probe: count %d", s.Count())
	}
	return ns, nil
}

// mergeProbe merges sketches of 10k values each into one accumulator.
func mergeProbe(values []float64) (float64, error) {
	const per = 10_000
	parts := make([]*quantile.Sketch, mergeProbeOps)
	for p := range parts {
		parts[p] = quantile.NewSketch()
		for i := 0; i < per; i++ {
			parts[p].Add(values[(p*per+i)%len(values)])
		}
	}
	acc := quantile.NewSketch()
	t0 := time.Now()
	for _, p := range parts {
		acc.Merge(p)
	}
	ns := float64(time.Since(t0).Nanoseconds()) / mergeProbeOps
	if acc.Count() != mergeProbeOps*per {
		return 0, fmt.Errorf("quantile merge probe: count %d", acc.Count())
	}
	return ns, nil
}

// queryProbe asks a 1M-value sketch for a sweep of quantiles.
func queryProbe(values []float64) (float64, error) {
	s := quantile.NewSketch()
	for i := 0; i < addProbeOps; i++ {
		s.Add(values[i%len(values)])
	}
	t0 := time.Now()
	prev := -1.0
	for i := 0; i < queryProbeOps; i++ {
		q := float64(i%100) / 100
		v := s.Quantile(q)
		if i%100 != 0 && v < prev {
			return 0, fmt.Errorf("quantile query probe: q=%v gave %v below %v", q, v, prev)
		}
		prev = v
	}
	return float64(time.Since(t0).Nanoseconds()) / queryProbeOps, nil
}
