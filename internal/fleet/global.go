package fleet

import (
	"math"
	"sort"

	"camsim/internal/fleet/quantile"
)

// globalController is the fleet-wide energy-aware placement controller: a
// single seeded decision loop above the per-class policies. On every
// epoch tick it sees each class's window stats (offload latencies and
// queue drops across every tier), prices each placement row in expected
// joules per frame — camera capture, compute and radio plus the per-hop
// forwarding energy of every link between the class's attach tier and the
// root — and reassigns cameras so the fleet's projected placement power
// stays under the configured budget.
type globalController struct {
	cfg GlobalConfig
	rng prng
	// rowJ prices every class's placement rows (one row for table-less
	// classes) in expected J per captured frame, forwarding included.
	rowJ [][]float64
	// rowDelay prices every class's placement rows in deterministic delay
	// seconds per frame (classRowDelays); nil — per class or whole — when
	// no finite-compute tier sits on the class's path. With it the energy
	// knapsack is joint network+compute: it refuses to shed watts into a
	// step whose delay floor would break the latency target.
	rowDelay [][]float64
	// Per-class epoch windows, consumed at each tick.
	winLat   [][]float64
	winDrops []int64
	stats    GlobalStats
}

// newGlobal builds the controller, or nil when the scenario does not
// configure one. Its stream is derived like the per-class controller
// streams — two full splitmix64 rounds — under its own tag, so the three
// stream families (cameras, class controllers, global) stay disjoint.
func newGlobal(sc *Scenario, rowJ, rowDelay [][]float64) *globalController {
	if sc.Global == nil {
		return nil
	}
	h := splitmix64(splitmix64(uint64(sc.Seed)^0x61017ba1) + uint64(len(sc.Classes)))
	return &globalController{
		cfg:      *sc.Global,
		rng:      newPRNG(int64(h)),
		rowJ:     rowJ,
		rowDelay: rowDelay,
		winLat:   make([][]float64, len(sc.Classes)),
		winDrops: make([]int64, len(sc.Classes)),
		stats:    GlobalStats{BudgetW: sc.Global.BudgetW},
	}
}

// observe records one completed offload latency for the camera's class.
func (g *globalController) observe(class int, lat float64) {
	g.winLat[class] = append(g.winLat[class], lat)
}

// drop records one queue drop for the class.
func (g *globalController) drop(class int) { g.winDrops[class]++ }

// projectedPowerW prices the fleet's steady-state placement power: every
// camera's per-frame energy at its current placement row times its
// class's capture rate. Classes without a cost table contribute their
// fixed per-frame energy — the budget is fleet-wide, not per knob.
func projectedPowerW(sc *Scenario, rowJ [][]float64, cams []camera, classCams [][]int32) float64 {
	total := 0.0
	for ci := range sc.Classes {
		fps := sc.Classes[ci].FPS
		if len(sc.Classes[ci].Placements) == 0 {
			total += fps * rowJ[ci][0] * float64(len(classCams[ci]))
			continue
		}
		for _, idx := range classCams[ci] {
			total += fps * rowJ[ci][cams[idx].placement]
		}
	}
	return total
}

// epoch runs one global decision at simulated time t. Two phases, both
// deterministic in the scenario seed:
//
// Phase 1 (latency): classes whose epoch-window p95 exceeds HighSec, or
// that dropped frames, get up to MoveFraction of their cameras stepped
// toward in-camera compute (+1, the congestion-relief direction of the
// table convention) — but a step that raises placement power is admitted
// only while the projection stays under budget.
//
// Phase 2 (energy): while the projection still exceeds the budget, a
// greedy knapsack sheds watts: among the non-congested classes it
// repeatedly takes the (class, direction) step with the largest per-frame
// saving — ties to the class with the most p95 headroom, then declaration
// order — moving cameras one at a time until the fleet fits the budget,
// every class hits its per-epoch cap, or no energy-saving step remains.
func (g *globalController) epoch(t float64, sc *Scenario, cams []camera, classCams [][]int32) {
	nClasses := len(sc.Classes)
	p95 := make([]float64, nClasses)
	congested := make([]bool, nClasses)
	for ci := 0; ci < nClasses; ci++ {
		lat := g.winLat[ci]
		if len(lat) > 0 {
			sort.Float64s(lat)
			p95[ci] = quantile.NearestRank(lat, 0.95)
		}
		congested[ci] = g.winDrops[ci] > 0 || (len(lat) > 0 && g.cfg.HighSec > 0 && p95[ci] > g.cfg.HighSec)
		g.winLat[ci] = g.winLat[ci][:0]
		g.winDrops[ci] = 0
	}

	projected := projectedPowerW(sc, g.rowJ, cams, classCams)
	ep := GlobalEpoch{Time: t, BeforeW: projected}

	// Per-epoch, per-class reassignment caps.
	capLeft := make([]int, nClasses)
	for ci := range sc.Classes {
		if len(sc.Classes[ci].Placements) == 0 {
			continue
		}
		k := int(g.cfg.MoveFraction*float64(len(classCams[ci])) + 0.5)
		if k < 1 {
			k = 1
		}
		capLeft[ci] = k
	}

	// Phase 1: latency relief for congested classes.
	for ci := range sc.Classes {
		if !congested[ci] || capLeft[ci] == 0 {
			continue
		}
		moved := g.moveAccept(sc, cams, classCams[ci], ci, +1, capLeft[ci], &projected, true)
		capLeft[ci] -= moved
		if moved > 0 {
			ep.Moves = append(ep.Moves, GlobalMove{Class: sc.Classes[ci].Name, Dir: +1, Count: moved, Reason: "latency"})
		}
	}

	// Phase 2: greedy energy shedding down to the budget. A (class, dir)
	// whose batch admits nothing — a positive mean saving can hide
	// per-row steps that all overshoot — is blocked for the rest of the
	// epoch so the next-best candidate gets its turn.
	blocked := make([][2]bool, len(sc.Classes))
	for projected > g.cfg.BudgetW {
		best, bestDir, bestDirIdx := -1, 0, 0
		bestSave, bestHead := 0.0, 0.0
		for ci := range sc.Classes {
			if congested[ci] || capLeft[ci] == 0 || len(sc.Classes[ci].Placements) == 0 {
				continue
			}
			head := math.MaxFloat64
			if g.cfg.HighSec > 0 {
				head = g.cfg.HighSec - p95[ci]
			}
			for di, dir := range [2]int{-1, +1} {
				if blocked[ci][di] {
					continue
				}
				save, n := g.meanSavingJ(sc, cams, classCams[ci], ci, dir)
				if n == 0 || save <= 0 {
					continue
				}
				if g.rowDelay != nil && g.rowDelay[ci] != nil && g.cfg.HighSec > 0 {
					// Joint admission: a step that saves watts is still
					// refused when its deterministic delay-floor increase,
					// stacked on the observed p95 (which already carries
					// compute queueing), would break the latency target.
					if d, dn := meanRowDelta(g.rowDelay[ci], cams, classCams[ci], dir); dn > 0 && d > 0 && p95[ci]+d > g.cfg.HighSec {
						continue
					}
				}
				saveW := save * sc.Classes[ci].FPS
				if saveW > bestSave || (saveW == bestSave && best >= 0 && head > bestHead) {
					best, bestDir, bestDirIdx, bestSave, bestHead = ci, dir, di, saveW, head
				}
			}
		}
		if best < 0 {
			break // infeasible: nothing left to shed, hold best effort
		}
		moved := g.moveAccept(sc, cams, classCams[best], best, bestDir, capLeft[best], &projected, false)
		if moved == 0 {
			blocked[best][bestDirIdx] = true
			continue
		}
		capLeft[best] -= moved
		ep.Moves = append(ep.Moves, GlobalMove{Class: sc.Classes[best].Name, Dir: bestDir, Count: moved, Reason: "energy"})
	}

	ep.AfterW = projected
	for _, m := range ep.Moves {
		g.stats.Moves += int64(m.Count)
	}
	g.stats.Epochs = append(g.stats.Epochs, ep)
}

// meanSavingJ returns the mean per-frame joules saved by stepping the
// class's movable cameras one step dir, and how many cameras could move.
func (g *globalController) meanSavingJ(sc *Scenario, cams []camera, members []int32, ci, dir int) (float64, int) {
	rows := g.rowJ[ci]
	saved, n := 0.0, 0
	for _, idx := range members {
		at := cams[idx].placement
		to := at + dir
		if to < 0 || to >= len(rows) {
			continue
		}
		saved += rows[at] - rows[to]
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return saved / float64(n), n
}

// moveAccept moves up to k of the class's cameras one step dir, drawing
// the order from the controller's seeded stream (partial Fisher-Yates over
// the movable candidates) and accepting each camera only while the
// projected power permits: an energy-increasing step must keep the
// projection under budget, and a non-latency (energy-shedding) move stops
// at the budget line instead of overshooting it. projected is updated in
// place with each accepted camera's exact delta.
func (g *globalController) moveAccept(sc *Scenario, cams []camera, members []int32, ci, dir, k int, projected *float64, latency bool) int {
	rows := g.rowJ[ci]
	last := len(sc.Classes[ci].Placements) - 1
	var candidates []int32
	for _, idx := range members {
		p := cams[idx].placement + dir
		if p >= 0 && p <= last {
			candidates = append(candidates, idx)
		}
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	fps := sc.Classes[ci].FPS
	moved := 0
	for i := 0; i < len(candidates) && moved < k; i++ {
		j := i + g.rng.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
		idx := candidates[i]
		at := cams[idx].placement
		deltaW := (rows[at+dir] - rows[at]) * fps
		if deltaW > 0 && *projected+deltaW > g.cfg.BudgetW {
			// This camera's step would push the fleet over budget — but
			// with three or more rows the candidates sit at different
			// rows with different deltas, so skip it and keep scanning
			// for cameras whose step still fits.
			continue
		}
		if !latency && *projected <= g.cfg.BudgetW {
			// Energy phase only sheds to the budget line, not beyond it.
			break
		}
		cams[idx].placement += dir
		*projected += deltaW
		moved++
	}
	return moved
}
