package fleet

import (
	"math"
	"testing"
)

// TestFairShareFloatOrders pins the float order of each kind of
// fair-share server exactly. A link advances its virtual clock by
// (dt·cap)/n and predicts a finish at rem·n/cap; a pool advances by
// dt·min(1, cores/n) and predicts rem/min(1, cores/n). The law is the
// same, but the inputs below round differently under the two orders, and
// the pinned run outputs depend on the last bit, so swapping either
// kind's order fails here. The operands are variables so the compiler
// cannot fold them at exact precision.
func TestFairShareFloatOrders(t *testing.T) {
	dt := 0.1

	t.Run("pool", func(t *testing.T) {
		cores, n, work := 4.0, 5.0, 0.3
		s := newComputeServer(&ComputeConfig{Cores: int(cores), Discipline: ContentionFairShare}).(*psServer)
		for id := 0; id < int(n); id++ {
			s.Start(0, id, work)
		}
		want := work / (cores / n)
		if other := work * n / cores; want == other {
			t.Fatalf("finish orders agree (%v); the inputs do not separate them", want)
		}
		if got, _ := s.NextFinish(); got != want {
			t.Fatalf("pool finish %v, want rem/(cores/n) = %v", got, want)
		}
		s.Start(dt, int(n), work) // advances the clock with n jobs in service
		wantV := dt * (cores / n)
		if other := (dt * cores) / n; wantV == other {
			t.Fatalf("advance orders agree (%v); the inputs do not separate them", wantV)
		}
		if s.vnow != wantV {
			t.Fatalf("pool virtual clock %v, want dt*(cores/n) = %v", s.vnow, wantV)
		}
	})

	t.Run("link", func(t *testing.T) {
		capacity, n, bytes := 3.0, 3.0, 0.1
		l, err := newLink(ContentionFairShare, capacity)
		if err != nil {
			t.Fatal(err)
		}
		s := l.(*psServer)
		for id := 0; id < int(n); id++ {
			s.Start(0, id, bytes)
		}
		want := bytes * n / capacity
		if other := bytes / (capacity / n); want == other {
			t.Fatalf("finish orders agree (%v); the inputs do not separate them", want)
		}
		if got, _ := s.NextFinish(); got != want {
			t.Fatalf("link finish %v, want rem*n/cap = %v", got, want)
		}

		s = &psServer{total: capacity}
		for id := 0; id < int(n); id++ {
			s.Start(0, id, 1)
		}
		s.Start(dt, int(n), 1)
		wantV := (dt * capacity) / n
		if other := dt * (capacity / n); wantV == other {
			t.Fatalf("advance orders agree (%v); the inputs do not separate them", wantV)
		}
		if s.vnow != wantV {
			t.Fatalf("link virtual clock %v, want (dt*cap)/n = %v", s.vnow, wantV)
		}
	})

	t.Run("fifo-park", func(t *testing.T) {
		// A FIFO link parked at capacity 0 carries its head's remaining
		// bytes and, once restored, finishes at exactly now + rem/cap.
		capacity, bytes, parkAt, restoreAt := 7.0, 5.0, 0.1, 0.7
		l, err := newLink(ContentionFIFO, capacity)
		if err != nil {
			t.Fatal(err)
		}
		l.Start(0, 0, bytes)
		l.Start(0, 1, bytes)
		l.setCapacity(parkAt, 0)
		if got, ok := l.NextFinish(); !ok || !math.IsInf(got, 1) {
			t.Fatalf("parked link finish %v (ok %v), want +Inf", got, ok)
		}
		l.setCapacity(restoreAt, capacity)
		rem := (bytes/capacity - parkAt) * capacity
		want := restoreAt + rem/capacity
		if other := restoreAt + (bytes-parkAt*capacity)/capacity; want == other {
			t.Fatalf("restore orders agree (%v); the inputs do not separate them", want)
		}
		if got, _ := l.NextFinish(); got != want {
			t.Fatalf("restored link finish %v, want now+rem/cap = %v", got, want)
		}
		if id := l.Finish(); id != 0 {
			t.Fatalf("restored link finished id %d first, want 0", id)
		}
		if got, _ := l.NextFinish(); got != want+bytes/capacity {
			t.Fatalf("second transfer finish %v, want %v", got, want+bytes/capacity)
		}
	})
}
