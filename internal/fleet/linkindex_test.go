package fleet

import (
	"math"
	"math/rand"
	"testing"
)

// scanNextFinish is the O(links) lookup linkIndex replaced, kept as its
// reference: the earliest NextFinish across links, ties to the lowest
// link index.
func scanNextFinish(links []server) (int, float64, bool) {
	li, lt := -1, 0.0
	for i, l := range links {
		if t, ok := l.NextFinish(); ok && (li < 0 || t < lt) {
			li, lt = i, t
		}
	}
	return li, lt, li >= 0
}

// TestLinkIndexLockstepWithScan drives linkIndex over real fair-share and
// FIFO links and both kinds of compute pool through a random sequence of
// starts, finishes, drains, capacity rescales (factor 0 included) and
// core rescales, and after every step checks its peek against the scan
// reference. Round capacities, sizes and clock steps make exact
// completion-time ties frequent, so the lowest-index tie-break is
// exercised, and parked zero-capacity links tie at +Inf.
func TestLinkIndexLockstepWithScan(t *testing.T) {
	sizes := []float64{500, 1000, 2000}
	caps := []float64{1000, 2000, 4000}
	factors := []float64{0, 0.5, 1, 2}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var links []server
		for i := 0; i < 3; i++ {
			for _, model := range []string{ContentionFairShare, ContentionFIFO} {
				l, err := newLink(model, caps[rng.Intn(len(caps))])
				if err != nil {
					t.Fatal(err)
				}
				links = append(links, l)
			}
		}
		nNet := len(links)
		for i := 0; i < 2; i++ {
			for _, disc := range []string{ContentionFairShare, ContentionFIFO} {
				links = append(links, newComputeServer(&ComputeConfig{Cores: 1 + rng.Intn(2), Discipline: disc}))
			}
		}
		x := newLinkIndex(links)
		now, nextID := 0.0, 0
		for step := 0; step < 600; step++ {
			li := rng.Intn(len(links))
			op := rng.Intn(10)
			switch {
			case op < 4:
				work := sizes[rng.Intn(len(sizes))]
				if li >= nNet {
					work /= 1000 // core-seconds
				}
				x.start(li, now, nextID, work)
				nextID++
			case op < 7:
				if fl, ft, ok := x.peek(); ok && !math.IsInf(ft, 1) {
					now = ft
					x.finish(fl)
				}
			case op == 7:
				x.drain(li)
			case op == 8:
				if li < nNet {
					x.setCapacity(li, now, caps[rng.Intn(len(caps))]*factors[rng.Intn(len(factors))])
				} else {
					x.setCores(li, now, 1+rng.Intn(3))
				}
			default:
				// Advance the clock on a coarse grid, never past the earliest
				// completion (the event loop finishes that first).
				nt := now + 0.25*float64(rng.Intn(3))
				if _, ft, ok := x.peek(); ok && ft < nt {
					nt = ft
				}
				now = nt
			}
			gi, gt, gok := x.peek()
			wi, wt, wok := scanNextFinish(links)
			if gi != wi || gt != wt || gok != wok {
				t.Fatalf("seed %d step %d (op %d on link %d): index peek (%d, %v, %v), scan (%d, %v, %v)",
					seed, step, op, li, gi, gt, gok, wi, wt, wok)
			}
			inFlight := 0
			for _, l := range links {
				inFlight += l.InFlight()
			}
			if x.inFlight != inFlight {
				t.Fatalf("seed %d step %d: index counts %d in flight, links hold %d", seed, step, x.inFlight, inFlight)
			}
		}
	}
}
