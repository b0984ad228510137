package fleet

import "math"

// globalController is the fleet-wide energy-aware placement controller: a
// single seeded decision loop above the per-class policies. On every
// epoch tick it takes each class's window (offload latencies and queue
// drops across every tier), prices each placement row from the engine's
// tables — expected joules per frame (camera capture, compute and radio
// plus the per-hop forwarding energy of every link between the class's
// attach tier and the root) and, where a finite-compute tier sits on the
// class's path, the row's deterministic delay floor — and reassigns
// cameras with the shared moveBatch so the fleet's projected placement
// power stays under the configured budget.
type globalController struct {
	cfg GlobalConfig
	rng prng
	// wins holds the per-class epoch windows, consumed at each tick; nil
	// when no epoch fires within the run, so nothing is collected.
	wins  []window
	stats GlobalStats
}

// newGlobal builds the controller, or nil when the scenario does not
// configure one.
func newGlobal(sc *Scenario) *globalController {
	if sc.Global == nil {
		return nil
	}
	g := &globalController{
		cfg:   *sc.Global,
		rng:   newPRNG(streamSeed(sc.Seed, seedGlobal, len(sc.Classes))),
		stats: GlobalStats{BudgetW: sc.Global.BudgetW},
	}
	if sc.Global.EpochSec < sc.Duration {
		g.wins = make([]window, len(sc.Classes))
	}
	return g
}

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

// epoch runs one global decision at simulated time t against the
// engine's price tables (rowDelay entries nil where no compute tier
// prices the class's path). Two phases, both deterministic in the
// scenario seed:
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
// With a delay floor the knapsack is joint network+compute: it refuses to
// shed watts into a step whose floor would break the latency target.
func (g *globalController) epoch(t float64, sc *Scenario, rowJ, rowDelay [][]float64, cams []camera, classCams [][]int32) {
	nClasses := len(sc.Classes)
	p95 := make([]float64, nClasses)
	congested := make([]bool, nClasses)
	for ci := range g.wins {
		p95[ci], _, congested[ci] = g.wins[ci].take(g.cfg.HighSec)
	}

	projected := projectedPowerW(sc, rowJ, cams, classCams)
	ep := GlobalEpoch{Time: t, BeforeW: projected}

	// Per-epoch, per-class reassignment caps.
	capLeft := make([]int, nClasses)
	for ci := range sc.Classes {
		if len(sc.Classes[ci].Placements) > 0 {
			capLeft[ci] = batchSize(g.cfg.MoveFraction, len(classCams[ci]))
		}
	}

	// Phase 1: latency relief for congested classes.
	for ci := range sc.Classes {
		if !congested[ci] || capLeft[ci] == 0 {
			continue
		}
		moved := g.moveAccept(sc, rowJ, cams, classCams[ci], ci, +1, capLeft[ci], &projected, true)
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
				sum, n := rowDelta(rowJ[ci], cams, classCams[ci], dir)
				if n == 0 {
					continue
				}
				save := -sum / float64(n) // mean per-frame joules saved
				if save <= 0 {
					continue
				}
				if rowDelay[ci] != nil && g.cfg.HighSec > 0 {
					// Joint admission: a step that saves watts is still
					// refused when its deterministic delay-floor increase,
					// stacked on the observed p95 (which already carries
					// compute queueing), would break the latency target. A
					// non-congested class has p95 ≤ HighSec, so only an
					// increase can trip it.
					if d, dn := rowDelta(rowDelay[ci], cams, classCams[ci], dir); dn > 0 && p95[ci]+d/float64(dn) > g.cfg.HighSec {
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
		moved := g.moveAccept(sc, rowJ, cams, classCams[best], best, bestDir, capLeft[best], &projected, false)
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

// moveAccept moves up to k of class ci's cameras one step dir through
// moveBatch, admitting each drawn camera only while the projected power
// permits: an energy-increasing step must keep the projection under
// budget, and a non-latency (energy-shedding) move stops at the budget
// line instead of overshooting it. projected is updated in place with
// each accepted camera's exact delta.
func (g *globalController) moveAccept(sc *Scenario, rowJ [][]float64, cams []camera, members []int32, ci, dir, k int, projected *float64, latency bool) int {
	rows, fps := rowJ[ci], sc.Classes[ci].FPS
	return moveBatch(&g.rng, cams, members, len(sc.Classes[ci].Placements)-1, dir, k, func(idx int32) (take, stop bool) {
		at := cams[idx].placement
		deltaW := (rows[at+dir] - rows[at]) * fps
		if deltaW > 0 && *projected+deltaW > g.cfg.BudgetW {
			// This camera's step would push the fleet over budget — but
			// with three or more rows the candidates sit at different
			// rows with different deltas, so skip it and keep drawing
			// for cameras whose step still fits.
			return false, false
		}
		if !latency && *projected <= g.cfg.BudgetW {
			// Energy phase only sheds to the budget line, not beyond it.
			return false, true
		}
		*projected += deltaW
		return true, false
	})
}
