package fleet

import (
	"sort"

	"camsim/internal/fleet/quantile"
)

// controller is the per-class adaptive-placement state: the observation
// window since the last decision, the seeded stream every decision draws
// from (a compact value-embedded prng, like the cameras'), and the
// class's per-row energy model (energy-latency policy).
type controller struct {
	rng      prng
	winLat   []float64 // offload latencies completed in the window
	winDrops int64     // queue drops in the window
	moves    int64     // camera moves decided so far
	// rowJ is the expected joules per captured frame at each placement
	// row, including per-hop network forwarding along the class's uplink
	// path — the quantity the energy-latency rule weighs against latency.
	rowJ []float64
	// rowDelay is the deterministic delay floor per placement row
	// (in-camera compute plus expected tier service, classRowDelays) —
	// nil unless a finite-compute tier sits on the class's offload path,
	// keeping pre-compute scenarios' decisions bit-identical.
	rowDelay []float64
}

// newControllers builds one controller per adaptive class (nil entries for
// static or table-less classes). Controller streams are derived from the
// scenario seed and the class index through two splitmix64 rounds — the
// same full-width mixing as the per-camera streams, kept disjoint from
// them by the controller tag folded into the seed round. rowJ is the
// per-class, per-row energy table (classRowEnergies for every class);
// rowDelay the per-class, per-row delay floors — nil, per class or
// whole, when no tier compute prices the class's path.
func newControllers(sc *Scenario, rowJ, rowDelay [][]float64) []*controller {
	ctls := make([]*controller, len(sc.Classes))
	for ci := range sc.Classes {
		if !sc.Classes[ci].adaptive() {
			continue
		}
		h := splitmix64(splitmix64(uint64(sc.Seed)^0xc0117801) + uint64(ci))
		ctls[ci] = &controller{
			rng:  newPRNG(int64(h)),
			rowJ: rowJ[ci],
		}
		if rowDelay != nil {
			ctls[ci].rowDelay = rowDelay[ci]
		}
	}
	return ctls
}

// meanRowDelta returns the mean per-frame table delta of stepping the
// movable member cameras one step dir — rows[to]−rows[at], positive when
// the step costs more of whatever the table prices — and how many
// cameras could move.
func meanRowDelta(rows []float64, cams []camera, members []int32, dir int) (float64, int) {
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
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
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

// observe records one completed offload latency.
func (c *controller) observe(lat float64) {
	c.winLat = append(c.winLat, lat)
}

// decide maps the window onto a placement step: +1 toward in-camera
// compute, -1 toward offload, 0 to hold. The window is consumed. cams and
// members carry the class's current placement population, which the
// energy-latency rule prices.
func (c *controller) decide(cl *Class, cams []camera, members []int32) int {
	p := cl.Policy
	lat := c.winLat
	drops := c.winDrops
	c.winLat = c.winLat[:0]
	c.winDrops = 0

	var p95 float64
	if len(lat) > 0 {
		sort.Float64s(lat)
		p95 = quantile.NearestRank(lat, 0.95)
	}
	congested := drops > 0 || (len(lat) > 0 && p95 > p.HighSec)
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
		if len(lat) > 0 && p95 < p.LowSec {
			return -1
		}
	case PolicyEnergyLatency:
		// Congestion keeps the latency-threshold rule verbatim, so an
		// energy weight of zero reproduces its switch sequence exactly.
		if congested {
			return 1
		}
		if p.EnergyWeight > 0 && len(lat) > 0 {
			return c.energyStep(p, cams, members, p95)
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
func (c *controller) energyStep(p PolicyConfig, cams []camera, members []int32, p95 float64) int {
	best, bestGain := 0, 0.0
	for _, dir := range [2]int{+1, -1} {
		saved, n := 0.0, 0
		for _, idx := range members {
			at := cams[idx].placement
			to := at + dir
			if to < 0 || to >= len(c.rowJ) {
				continue
			}
			saved += c.rowJ[at] - c.rowJ[to]
			n++
		}
		if n == 0 {
			continue
		}
		risk := 0.0
		if dir < 0 {
			risk = p95
		}
		if c.rowDelay != nil {
			// Finite tier compute gives the step a deterministic delay
			// floor: pay a positive mean increase as extra risk, whichever
			// direction it comes from (toward offload it is path service;
			// toward in-camera it is the row's own compute seconds).
			if d, dn := meanRowDelta(c.rowDelay, cams, members, dir); dn > 0 && d > 0 {
				risk += d
			}
		}
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
	k := int(cl.Policy.MoveFraction*float64(len(members)) + 0.5)
	if k < 1 {
		k = 1
	}
	moved := moveBatch(&c.rng, cams, members, len(cl.Placements)-1, dir, k)
	c.moves += int64(moved)
	return moved
}

// moveBatch moves up to k of the member cameras one placement step in
// direction dir, clamped to table rows [0, last], and returns how many
// moved. Which cameras move is a uniform k-subset of the movable
// candidates drawn from rng via a partial Fisher-Yates, in an order fixed
// by the stream. The global controller's moveAccept interleaves the same
// draw with per-camera budget acceptance, which this unconditional form
// cannot express — keep their shuffle steps identical if either changes.
func moveBatch(rng *prng, cams []camera, members []int32, last, dir, k int) int {
	var candidates []int32
	for _, idx := range members {
		p := cams[idx].placement + dir
		if p >= 0 && p <= last {
			candidates = append(candidates, idx)
		}
	}
	if len(candidates) == 0 || k <= 0 {
		return 0
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
		cams[candidates[i]].placement += dir
	}
	return k
}
