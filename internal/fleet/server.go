package fleet

import (
	"fmt"
	"math"
)

// Contention model names.
const (
	ContentionFairShare = "fair-share"
	ContentionFIFO      = "fifo"
)

// Link models one shared directed link: finite payload capacity plus a
// contention discipline deciding how concurrent transfers share it. The
// disciplines are direction-agnostic — the same implementations serve a
// tier's uplink (leaf→root offloads and federated updates) and its
// downlink (root→leaf model broadcasts); direction lives in how the
// simulator routes transfers onto links, never in the link itself. The
// simulator drives a link event by event: Start admits a transfer,
// NextFinish peeks the earliest completion under the current in-flight
// set, Finish pops it. Start may move an already-reported NextFinish, so
// the caller must re-peek after every Start.
type Link interface {
	// Start admits transfer id of the given size at time now. now must not
	// precede any previously observed event time.
	Start(now float64, id int, bytes float64)
	// NextFinish returns the earliest completion time, or ok=false when
	// nothing is in flight.
	NextFinish() (t float64, ok bool)
	// Finish completes and returns the transfer NextFinish reported.
	Finish() (id int)
	// InFlight returns the number of admitted, unfinished transfers.
	InFlight() int
	// ServedBytes returns the total payload of completed transfers.
	ServedBytes() float64
}

// server is one queue of the run — a network link or a tier's core pool
// — with the runtime controls the dynamics engine needs on top of Link.
// Both kinds are the same two disciplines, fifoServer and psServer: a
// link is one server whose rate is its capacity in bytes/sec, a pool is
// Cores servers at one core-second per second, and a pool's "bytes" are
// core-seconds of service demand.
type server interface {
	Link
	// setCapacity rescales each server's rate at time now, conserving
	// the progress of work in service. Zero parks the queue: nothing
	// completes (NextFinish reports +Inf) until a later restore.
	setCapacity(now, rate float64)
	// setCores resizes the number of servers at time now. Shrinking
	// never preempts work already in service.
	setCores(now float64, cores int)
	// drain removes every job — in completion order, then waiting order
	// — crediting no served work: the payloads were lost, not delivered.
	drain() []int
}

// NewLink builds the named contention model over a capacity in bytes/sec.
func NewLink(model string, bytesPerSec float64) (Link, error) {
	return newLink(model, bytesPerSec)
}

func newLink(model string, bytesPerSec float64) (server, error) {
	if bytesPerSec <= 0 {
		return nil, fmt.Errorf("fleet: link capacity %v must be positive", bytesPerSec)
	}
	switch model {
	case ContentionFairShare:
		return &psServer{total: bytesPerSec}, nil
	case ContentionFIFO:
		return &fifoServer{servers: 1, rate: bytesPerSec}, nil
	}
	return nil, fmt.Errorf("fleet: unknown contention model %q", model)
}

// --- FIFO ---

type fifoItem struct {
	id    int
	bytes float64
}

// fifoRing is a FIFO queue of jobs in a ring buffer sized by the peak
// concurrent backlog: the earlier queue = queue[1:] pop pinned every
// already-served head in the backing array for the life of the run,
// leaking one fifoItem per transfer. The capacity is always a power of
// two (4, then doubled), so index wrap-around is a mask rather than an
// integer modulo on the hot path.
type fifoRing struct {
	ring    []fifoItem // circular: n live items starting at head
	head, n int
}

func (r *fifoRing) push(it fifoItem) {
	if r.n == len(r.ring) {
		grown := make([]fifoItem, max(4, 2*len(r.ring)))
		mask := len(r.ring) - 1
		for i := 0; i < r.n; i++ {
			grown[i] = r.ring[(r.head+i)&mask]
		}
		r.ring, r.head = grown, 0
	}
	r.ring[(r.head+r.n)&(len(r.ring)-1)] = it
	r.n++
}

func (r *fifoRing) pop() fifoItem {
	it := r.ring[r.head]
	r.head = (r.head + 1) & (len(r.ring) - 1)
	r.n--
	return it
}

// fifoServer is a multi-server FIFO queue: up to servers jobs are in
// service at once, each at the full rate; the rest wait in arrival order
// and take the server freed by the earliest completion. A link is one
// server, so a large frame head-of-line-blocks everything behind it. In
// service, a psItem's bytes are the job's work and its vfinish is the
// wall-clock finish time, with admission order breaking ties
// deterministically. While the rate is zero (a parked link) vfinish holds
// the job's remaining work instead, for the eventual restore.
type fifoServer struct {
	fifoRing // waiting jobs, arrival order
	servers  int
	rate     float64
	busy     psHeap
	seq      int64
	served   float64
}

// serve keys a job entering service at wall time start.
func (s *fifoServer) serve(start float64, id int, work float64) psItem {
	key := work
	if s.rate > 0 {
		key = start + work/s.rate
	}
	s.seq++
	return psItem{id: id, bytes: work, vfinish: key, seq: s.seq}
}

func (s *fifoServer) Start(now float64, id int, work float64) {
	if len(s.busy) < s.servers {
		s.busy.push(s.serve(now, id, work))
		return
	}
	s.push(fifoItem{id: id, bytes: work})
}

func (s *fifoServer) NextFinish() (float64, bool) {
	if len(s.busy) == 0 {
		return 0, false
	}
	if s.rate == 0 {
		return math.Inf(1), true
	}
	return s.busy[0].vfinish, true
}

func (s *fifoServer) Finish() int {
	it := s.busy[0]
	s.served += it.bytes
	if s.n > 0 && len(s.busy) <= s.servers {
		// The freed server takes the longest-waiting job the instant the
		// finished one departs, in its place at the top of the heap. The
		// servers check only bites after a shrink: jobs already in
		// service run to completion, and nothing is promoted until the
		// busy population fits the new size.
		next := s.pop()
		s.busy[0] = s.serve(it.vfinish, next.id, next.bytes)
		s.busy.down(0)
	} else {
		s.busy.pop()
	}
	return it.id
}

func (s *fifoServer) InFlight() int        { return len(s.busy) + s.n }
func (s *fifoServer) ServedBytes() float64 { return s.served }

// setCapacity maps each in-service finish time to the new rate. Only
// links are rescaled, and a link has one server; the map is monotone in
// the finish time, so a heap of several would stay ordered by it too.
func (s *fifoServer) setCapacity(now, rate float64) {
	for i := range s.busy {
		it := &s.busy[i]
		if s.rate > 0 {
			it.vfinish = max(0, (it.vfinish-now)*s.rate) // remaining work
		}
		if rate > 0 {
			it.vfinish = now + it.vfinish/rate
		}
	}
	s.rate = rate
}

func (s *fifoServer) setCores(now float64, cores int) {
	s.servers = cores
	for len(s.busy) < s.servers && s.n > 0 {
		next := s.pop()
		s.busy.push(s.serve(now, next.id, next.bytes))
	}
}

func (s *fifoServer) drain() []int {
	ids := s.busy.drain(make([]int, 0, s.InFlight()))
	for s.n > 0 {
		ids = append(ids, s.pop().id)
	}
	return ids
}

// --- fair share (egalitarian processor sharing) ---

type psItem struct {
	id      int
	bytes   float64
	vfinish float64 // virtual service level at which the transfer completes
	seq     int64   // admission order, for deterministic tie-breaking
}

// psHeap is a specialized binary min-heap ordered by (vfinish, seq) —
// the unique admission seq makes the order total, so the pop sequence
// matches a container/heap reference exactly
// (TestHeapsMatchContainerHeap) without boxing one psItem per admission.
type psHeap []psItem

func (h psHeap) less(i, j int) bool {
	if h[i].vfinish != h[j].vfinish {
		return h[i].vfinish < h[j].vfinish
	}
	return h[i].seq < h[j].seq
}

func (h *psHeap) push(it psItem) {
	s := append(*h, it)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

func (h *psHeap) pop() psItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s[:n].down(0)
	it := s[n]
	*h = s[:n]
	return it
}

// down sifts element i toward the leaves.
func (h psHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j2 := j + 1; j2 < len(h) && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// drain empties the heap, appending its ids to ids in pop order.
func (h *psHeap) drain(ids []int) []int {
	for len(*h) > 0 {
		ids = append(ids, h.pop().id)
	}
	return ids
}

// psServer implements egalitarian processor sharing with virtual time:
// each of the n in-flight jobs progresses at the same share of the
// total rate, so the virtual service level v advances at that share and
// a job admitted at level v0 with B bytes completes when v reaches v0+B.
// Events cost O(log n) instead of rescaling every in-flight job.
//
// A link shares its capacity total = cap among all n jobs: cap/n each.
// A pool (capped) has total = cores, and a job cannot run faster than
// one core, so each progresses at min(1, cores/n) — an underloaded pool
// runs every frame at full speed instead of splitting idle cores. Both
// are min(rate, rate·servers/n), but the two kinds evaluate it in
// different float orders — a link (dt·cap)/n and rem·n/cap, a pool
// dt·min(1, cores/n) and rem/min(1, cores/n) — and one shared expression
// would move pinned outputs in the last bit. capped selects the order.
type psServer struct {
	total  float64
	capped bool
	vnow   float64 // virtual service accrued by every in-flight job
	tlast  float64 // wall time at which vnow was computed
	h      psHeap
	seq    int64
	served float64
}

// poolShare is a pool job's service rate in core-seconds per second.
func (s *psServer) poolShare() float64 {
	if n := float64(len(s.h)); n > s.total {
		return s.total / n
	}
	return 1
}

// advance moves the virtual clock to wall time t.
func (s *psServer) advance(t float64) {
	if n := len(s.h); n > 0 && t > s.tlast {
		if s.capped {
			s.vnow += (t - s.tlast) * s.poolShare()
		} else {
			s.vnow += (t - s.tlast) * s.total / float64(n)
		}
	}
	s.tlast = t
}

func (s *psServer) Start(now float64, id int, work float64) {
	s.advance(now)
	s.h.push(psItem{id: id, bytes: work, vfinish: s.vnow + work, seq: s.seq})
	s.seq++
}

func (s *psServer) NextFinish() (float64, bool) {
	if len(s.h) == 0 {
		return 0, false
	}
	if s.total == 0 {
		return math.Inf(1), true // parked: the virtual clock is stopped
	}
	remaining := s.h[0].vfinish - s.vnow
	if remaining < 0 {
		remaining = 0 // float drift guard
	}
	if s.capped {
		return s.tlast + remaining/s.poolShare(), true
	}
	return s.tlast + remaining*float64(len(s.h))/s.total, true
}

func (s *psServer) Finish() int {
	// The clock moves to the finish, where the virtual level is exactly
	// the finished job's vfinish: pinning it absorbs float drift, so the
	// level advance would have computed is not needed.
	s.tlast, _ = s.NextFinish()
	item := s.h.pop()
	s.vnow = item.vfinish
	s.served += item.bytes
	return item.id
}

func (s *psServer) InFlight() int        { return len(s.h) }
func (s *psServer) ServedBytes() float64 { return s.served }

// setCapacity and setCores conserve virtual progress: the clock advances
// to now at the old rate first, so every in-flight job keeps the service
// it has accrued and its remaining work continues at the new share.
func (s *psServer) setCapacity(now, rate float64) {
	s.advance(now)
	s.total = rate
}

func (s *psServer) setCores(now float64, cores int) { s.setCapacity(now, float64(cores)) }

func (s *psServer) drain() []int { return s.h.drain(make([]int, 0, len(s.h))) }
