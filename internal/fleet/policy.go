package fleet

import (
	"sort"

	"camsim/internal/fleet/quantile"
)

// This file holds the placement-control core both controller kinds share
// — the observation window, row pricing and the seeded batch move — and
// the per-class controller built on it. The price tables themselves
// (rowJ, rowDelay) belong to the engine, which passes them into every
// decision, so a re-homed class is repriced in one place.

// window is a controller's observation window: the offload latencies
// completed and the frames dropped since its last decision.
type window struct {
	lat   []float64
	drops int64
}

// take consumes the window and reports its p95 latency, whether any
// completion was seen, and whether it was congested: a drop, or a p95
// above high (a high of 0 disables the latency test).
func (w *window) take(high float64) (p95 float64, seen, congested bool) {
	seen = len(w.lat) > 0
	if seen {
		sort.Float64s(w.lat)
		p95 = quantile.NearestRank(w.lat, 0.95)
	}
	congested = w.drops > 0 || (seen && high > 0 && p95 > high)
	w.lat = w.lat[:0]
	w.drops = 0
	return p95, seen, congested
}

// controller is the per-class adaptive-placement state: the observation
// window since the last decision and the seeded stream every decision
// draws from (a compact value-embedded prng, like the cameras').
type controller struct {
	rng   prng
	win   window
	moves int64 // camera moves decided so far
}

// newControllers builds one controller per adaptive class whose control
// period ticks within the run; other entries are nil, so a controller
// that would never decide never collects a window either.
func newControllers(sc *Scenario) []*controller {
	ctls := make([]*controller, len(sc.Classes))
	for ci := range sc.Classes {
		if sc.Classes[ci].adaptive() && sc.Classes[ci].Policy.IntervalSec < sc.Duration {
			ctls[ci] = &controller{rng: newPRNG(streamSeed(sc.Seed, seedControllers, ci))}
		}
	}
	return ctls
}

// rowDelta sums the per-frame table delta rows[to]−rows[at] of stepping
// the movable member cameras one step dir — positive when the step costs
// more of whatever the table prices — and counts the cameras that could
// move.
func rowDelta(rows []float64, cams []camera, members []int32, dir int) (float64, int) {
	sum, n := 0.0, 0
	for _, idx := range members {
		at := cams[idx].placement
		to := at + dir
		if to < 0 || to >= len(rows) {
			continue
		}
		sum += rows[to] - rows[at]
		n++
	}
	return sum, n
}

// classRowEnergies prices every placement row of the class in expected
// joules per captured frame, netPerByteJ of per-hop forwarding included.
// Table-less classes get a single entry from the class-level fields.
func classRowEnergies(c *Class, netPerByteJ float64) []float64 {
	n := len(c.Placements)
	if n == 0 {
		n = 1
	}
	rows := make([]float64, n)
	for i := range rows {
		rows[i] = c.PlacementEnergyPerFrame(i, netPerByteJ)
	}
	return rows
}

// decide maps the window onto a placement step: +1 toward in-camera
// compute, -1 toward offload, 0 to hold. The window is consumed. rowJ and
// rowDelay are the class's energy and delay-floor rows (rowDelay nil
// unless a finite-compute tier sits on its path); cams and members carry
// the class's current placement population, which the energy-latency
// rule prices.
func (c *controller) decide(cl *Class, rowJ, rowDelay []float64, cams []camera, members []int32) int {
	p := cl.Policy
	p95, seen, congested := c.win.take(p.HighSec)
	switch p.Kind {
	case PolicyLatencyThreshold:
		// One-way escalation: congestion pushes cameras toward in-camera
		// compute and they stay there. Simple, monotone, flap-free.
		if congested {
			return 1
		}
	case PolicyHysteresis:
		// Two thresholds with a dead band: step toward in-camera above
		// HighSec, back toward offload when the network is demonstrably
		// idle (completions observed, all cheap, nothing dropped).
		if congested {
			return 1
		}
		if seen && p95 < p.LowSec {
			return -1
		}
	case PolicyEnergyLatency:
		// Congestion keeps the latency-threshold rule verbatim, so an
		// energy weight of zero reproduces its switch sequence exactly.
		if congested {
			return 1
		}
		if p.EnergyWeight > 0 && seen {
			return c.energyStep(p, rowJ, rowDelay, cams, members, p95)
		}
	}
	return 0
}

// energyStep scores the two adjacent placements on the weighted
// energy-latency objective: moving dir is worth EnergyWeight × the mean
// per-frame joules it saves across the movable cameras, minus the latency
// it risks re-adding — the observed p95 for a step toward offload (which
// loads the network), nothing for a step toward in-camera compute (which
// relieves it). The larger strictly-positive gain wins; in-camera is
// evaluated first so ties resolve to the congestion-safe direction.
func (c *controller) energyStep(p PolicyConfig, rowJ, rowDelay []float64, cams []camera, members []int32, p95 float64) int {
	best, bestGain := 0, 0.0
	for _, dir := range [2]int{+1, -1} {
		sum, n := rowDelta(rowJ, cams, members, dir)
		if n == 0 {
			continue
		}
		risk := 0.0
		if dir < 0 {
			risk = p95
		}
		if rowDelay != nil {
			// Finite tier compute gives the step a deterministic delay
			// floor: pay a positive mean increase as extra risk, whichever
			// direction it comes from (toward offload it is path service;
			// toward in-camera it is the row's own compute seconds).
			if d, dn := rowDelta(rowDelay, cams, members, dir); dn > 0 && d/float64(dn) > 0 {
				risk += d / float64(dn)
			}
		}
		// Negating the summed cost delta is exact (rounding is
		// sign-symmetric), so saved equals the summed per-camera savings.
		saved := -sum
		if gain := p.EnergyWeight*saved/float64(n) - risk; gain > bestGain {
			best, bestGain = dir, gain
		}
	}
	return best
}

// move shifts a MoveFraction-sized batch of the class's cameras one step
// in the decided direction, choosing which cameras from the controller's
// seeded stream. Returns the number of cameras moved.
func (c *controller) move(cl *Class, cams []camera, members []int32, dir int) int {
	k := batchSize(cl.Policy.MoveFraction, len(members))
	moved := moveBatch(&c.rng, cams, members, len(cl.Placements)-1, dir, k, nil)
	c.moves += int64(moved)
	return moved
}

// batchSize is the per-decision move cap: frac of n cameras, rounded to
// nearest, at least one.
func batchSize(frac float64, n int) int {
	return max(1, int(frac*float64(n)+0.5))
}

// moveBatch moves up to k of the member cameras one placement step in
// direction dir, clamped to table rows [0, last], and returns how many
// moved. The order in which cameras are considered is a partial
// Fisher-Yates over the movable candidates drawn from rng, one draw per
// camera considered. Without admit the first k drawn move — a uniform
// k-subset. With it, each drawn camera is offered to admit before it
// moves: take false skips it and the draw continues, stop ends the batch.
func moveBatch(rng *prng, cams []camera, members []int32, last, dir, k int, admit func(idx int32) (take, stop bool)) int {
	var candidates []int32
	for _, idx := range members {
		p := cams[idx].placement + dir
		if p >= 0 && p <= last {
			candidates = append(candidates, idx)
		}
	}
	moved := 0
	for i := 0; i < len(candidates) && moved < k; i++ {
		j := i + rng.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
		idx := candidates[i]
		if admit != nil {
			take, stop := admit(idx)
			if stop {
				break
			}
			if !take {
				continue
			}
		}
		cams[idx].placement += dir
		moved++
	}
	return moved
}
