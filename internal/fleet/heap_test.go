package fleet

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refHeap adapts a slice + comparator to container/heap.Interface — the
// reference implementation the specialized heaps must match pop for pop.
type refHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *refHeap[T]) Len() int           { return len(h.items) }
func (h *refHeap[T]) Less(i, j int) bool { return h.less(h.items[i], h.items[j]) }
func (h *refHeap[T]) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refHeap[T]) Push(x any)         { h.items = append(h.items, x.(T)) }
func (h *refHeap[T]) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// drive feeds an identical randomized push/pop interleaving (ops steps
// at pushP pushes per step, then a full drain) through the specialized
// heap and the container/heap reference, comparing every popped element,
// and returns the peak size. The comparators impose a total order
// (unique tie-break keys), so the pop sequences must be identical
// element for element — the property that makes the heap swap
// output-invariant.
func drive[T comparable](t *testing.T, rng *rand.Rand, ops int, pushP float64, gen func(i int) T,
	less func(a, b T) bool, push func(T), pop func() T, size func() int) (peak int) {
	t.Helper()
	ref := &refHeap[T]{less: less}
	pushed := 0
	for i := 0; i < ops; i++ {
		if ref.Len() == 0 || rng.Float64() < pushP {
			it := gen(pushed)
			pushed++
			push(it)
			heap.Push(ref, it)
		} else {
			got, want := pop(), heap.Pop(ref).(T)
			if got != want {
				t.Fatalf("op %d: popped %+v, reference popped %+v", i, got, want)
			}
		}
		if size() != ref.Len() {
			t.Fatalf("op %d: size %d, reference %d", i, size(), ref.Len())
		}
		peak = max(peak, size())
	}
	for ref.Len() > 0 {
		got, want := pop(), heap.Pop(ref).(T)
		if got != want {
			t.Fatalf("drain: popped %+v, reference popped %+v", got, want)
		}
	}
	if size() != 0 {
		t.Fatalf("specialized heap retains %d items after drain", size())
	}
	return peak
}

// payloadWords are the event payload values the lockstep draws from:
// the int32 extremes and their neighbours, plus small indexes.
var payloadWords = []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, 7, math.MaxInt32 - 1, math.MaxInt32}

// genEvent draws the i-th pushed event: a time from times, any of the
// ten kinds, and payload words from payloadWords. Its seq is i, the seq
// the engine assigns to its i-th push.
func genEvent(rng *rand.Rand, times []float64, i int) event {
	return event{
		t:   times[rng.Intn(len(times))],
		key: uint64(i)<<kindBits | uint64(rng.Intn(evDynamics+1)),
		a:   payloadWords[rng.Intn(len(payloadWords))],
		b:   payloadWords[rng.Intn(len(payloadWords))],
	}
}

// eventOrder is the (t, seq) order the event loop relies on.
func eventOrder(a, b event) bool {
	sa, sb := a.key>>kindBits, b.key>>kindBits
	return a.t < b.t || (a.t == b.t && sa < sb)
}

// TestHeapsMatchContainerHeap is the differential property test behind
// the boxing-free heap swap: randomized event, fair-share and link-index
// streams pop in exactly the order container/heap produced, so replacing
// the boxed heaps cannot have changed any simulation output.
func TestHeapsMatchContainerHeap(t *testing.T) {
	// Times are drawn from a small discrete set so ties are frequent and
	// the tie-break keys do real work.
	times := []float64{0, 0.25, 0.25, 1, 1, 1, 2.5, 7}

	// Events go in through engine.push, which packs the key itself, so
	// an event popped equal to the reference's also proves that its
	// time, kind, seq and both payload words survive the packing.
	t.Run("eventHeap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(101))
		var e engine
		drive(t, rng, 4000, 0.6,
			func(i int) event { return genEvent(rng, times, i) },
			eventOrder,
			func(ev event) { e.push(ev.t, ev.kind(), ev.a, ev.b) },
			func() event { return e.events.pop() },
			func() int { return e.events.len() })
	})

	// The deep regime grows the queue past 20k events, with continuous
	// times mixed into the tie-heavy set.
	t.Run("eventHeapDeep", func(t *testing.T) {
		rng := rand.New(rand.NewSource(104))
		var e engine
		deep := append([]float64{}, times...)
		for len(deep) < 64 {
			deep = append(deep, 10*rng.Float64())
		}
		peak := drive(t, rng, 40000, 0.78,
			func(i int) event { return genEvent(rng, deep, i) },
			eventOrder,
			func(ev event) { e.push(ev.t, ev.kind(), ev.a, ev.b) },
			func() event { return e.events.pop() },
			func() int { return e.events.len() })
		if peak <= 20000 {
			t.Fatalf("peak heap size %d, want > 20000", peak)
		}
	})

	// The engine-shaped regime is the fleet's hold model at 100k events:
	// each pop pushes its successor one exponential capture gap or one
	// short ready, hop or arrive delay later, and a few go below the
	// current minimum. It opens on a 10k block at t = 0 (as at seeding),
	// fires a 10k burst at one time mid-run (as a dynamics entry does),
	// and drains to empty before refilling below the old times, so the
	// ladder runs every path: rungs spawned from top and from buckets,
	// equal-time buckets sorted whole, sorted inserts into bottom and the
	// restart after a drain.
	t.Run("eventHeapHold", func(t *testing.T) {
		rng := rand.New(rand.NewSource(105))
		var e engine
		ref := &refHeap[event]{less: eventOrder}
		rungs := 0
		push := func(at float64, kind int, a int32) {
			heap.Push(ref, event{t: at, key: e.seq<<kindBits | uint64(kind), a: a})
			e.push(at, kind, a, 0)
		}
		pop := func() event {
			if got, want := e.events.peekT(), ref.items[0].t; got != want {
				t.Fatalf("peekT %v, reference minimum %v", got, want)
			}
			got, want := e.events.pop(), heap.Pop(ref).(event)
			if got != want {
				t.Fatalf("popped %+v, reference popped %+v", got, want)
			}
			rungs = max(rungs, e.events.nr)
			return got
		}
		seed := func(n int) {
			for i := 0; i < n/10; i++ {
				push(0, evCapture, int32(i))
			}
			for i := n / 10; i < n; i++ {
				push(rng.ExpFloat64()/2, evCapture, int32(i))
			}
		}
		delays := []float64{0.005, 0.0002, 0.002, 0.01}
		hold := func(ops int) {
			for i := 0; i < ops; i++ {
				ev := pop()
				switch r := rng.Float64(); {
				case r < 0.5:
					push(ev.t+rng.ExpFloat64()/2, evCapture, ev.a)
				case r < 0.99:
					push(ev.t+delays[rng.Intn(len(delays))], evHop+rng.Intn(2), ev.a)
				default:
					push(ev.t-rng.Float64(), evReady, ev.a)
				}
				if e.events.len() != ref.Len() {
					t.Fatalf("size %d, reference %d", e.events.len(), ref.Len())
				}
			}
		}
		const n = 100_000
		seed(n)
		hold(2 * n)
		burst := ref.items[0].t + 0.25
		for i := 0; i < n/10; i++ {
			push(burst, evDynamics, int32(i))
		}
		hold(n)
		for ref.Len() > 0 {
			pop()
		}
		if e.events.len() != 0 {
			t.Fatalf("queue retains %d events after drain", e.events.len())
		}
		seed(n)
		hold(n)
		for ref.Len() > 0 {
			pop()
		}
		if rungs < 2 {
			t.Fatalf("at most %d rung(s) live at once, want the multi-rung path (≥ 2)", rungs)
		}
	})

	t.Run("psHeap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(102))
		var h psHeap
		drive(t, rng, 4000, 0.6,
			func(i int) psItem {
				return psItem{
					id:      i,
					bytes:   float64(rng.Intn(1000)),
					vfinish: times[rng.Intn(len(times))],
					seq:     int64(i), // unique: the uplink's admission counter
				}
			},
			func(a, b psItem) bool {
				return a.vfinish < b.vfinish || (a.vfinish == b.vfinish && a.seq < b.seq)
			},
			func(it psItem) { h.push(it) },
			func() psItem { return h.pop() },
			func() int { return len(h) })
	})

	t.Run("liHeap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(103))
		var h liHeap
		drive(t, rng, 4000, 0.6,
			func(i int) liEntry {
				// li is the unique tie-break here; in production stale
				// entries can tie a live one exactly, but peek's result is
				// invariant to their order, so unique keys lose no coverage.
				return liEntry{t: times[rng.Intn(len(times))], li: i, ver: uint64(rng.Intn(4))}
			},
			func(a, b liEntry) bool { return a.t < b.t || (a.t == b.t && a.li < b.li) },
			func(e liEntry) { h.push(e) },
			func() liEntry { return h.pop() },
			func() int { return len(h) })
	})
}
