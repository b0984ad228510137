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
	// Name returns the contention model name.
	Name() string
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

// NewLink builds the named contention model over a capacity in bytes/sec.
func NewLink(model string, bytesPerSec float64) (Link, error) {
	if bytesPerSec <= 0 {
		return nil, fmt.Errorf("fleet: link capacity %v must be positive", bytesPerSec)
	}
	switch model {
	case ContentionFairShare:
		return &psUplink{cap: bytesPerSec}, nil
	case ContentionFIFO:
		return &fifoUplink{cap: bytesPerSec}, nil
	}
	return nil, fmt.Errorf("fleet: unknown contention model %q", model)
}

// --- FIFO ---

type fifoItem struct {
	id    int
	bytes float64
}

// fifoRing is a FIFO queue of transfers in a ring buffer sized by the
// peak concurrent backlog: the earlier queue = queue[1:] pop pinned every
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

// fifoUplink serializes transfers in arrival order; the head transfer gets
// the full capacity. A large frame head-of-line-blocks everything behind it.
type fifoUplink struct {
	fifoRing
	cap        float64
	headFinish float64 // completion time of the head item, valid when n > 0
	// headRem is the head item's remaining bytes, maintained only while
	// the link's capacity is zero (a dynamics outage) — headFinish is
	// +Inf then, so the remaining work has to be carried explicitly for
	// the eventual restore.
	headRem float64
	served  float64
}

func (u *fifoUplink) Name() string { return ContentionFIFO }

func (u *fifoUplink) Start(now float64, id int, bytes float64) {
	if u.n == 0 {
		u.headFinish = now + bytes/u.cap // +Inf on a zero-capacity link
		u.headRem = bytes
	}
	u.push(fifoItem{id: id, bytes: bytes})
}

func (u *fifoUplink) NextFinish() (float64, bool) {
	if u.n == 0 {
		return 0, false
	}
	return u.headFinish, true
}

func (u *fifoUplink) Finish() int {
	head := u.pop()
	u.served += head.bytes
	if u.n > 0 {
		// The next transfer was already queued, so its service starts the
		// instant the head departs.
		u.headFinish += u.ring[u.head].bytes / u.cap
		u.headRem = u.ring[u.head].bytes
	}
	return head.id
}

func (u *fifoUplink) InFlight() int        { return u.n }
func (u *fifoUplink) ServedBytes() float64 { return u.served }

// setCapacity rescales the link to bytesPerSec at time now, conserving
// the head transfer's progress: its remaining bytes continue at the new
// rate. Zero parks the link — the head's remaining work is carried in
// headRem and its finish time becomes +Inf until a later restore.
func (u *fifoUplink) setCapacity(now, bytesPerSec float64) {
	if u.n > 0 {
		rem := u.headRem
		if u.cap > 0 {
			rem = (u.headFinish - now) * u.cap
			if rem < 0 {
				rem = 0 // float drift guard
			}
		}
		u.headRem = rem
		if bytesPerSec > 0 {
			u.headFinish = now + rem/bytesPerSec
		} else {
			u.headFinish = math.Inf(1)
		}
	}
	u.cap = bytesPerSec
}

// drain removes every in-flight transfer — head first, then waiting
// order — crediting no served bytes: the payloads were lost, not
// delivered.
func (u *fifoUplink) drain() []int {
	ids := make([]int, 0, u.n)
	for u.n > 0 {
		ids = append(ids, u.pop().id)
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
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s.less(j2, j) {
			j = j2
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}

// psUplink implements egalitarian processor sharing with virtual time:
// each of the n in-flight transfers progresses at cap/n, so the virtual
// service level v advances at dv/dt = cap/n and a transfer admitted at
// level v0 with B bytes completes when v reaches v0+B. Events cost
// O(log n) instead of rescaling every in-flight transfer.
type psUplink struct {
	cap    float64
	vnow   float64 // virtual service accrued by every in-flight transfer
	tlast  float64 // wall time at which vnow was computed
	h      psHeap
	seq    int64
	served float64
}

func (u *psUplink) Name() string { return ContentionFairShare }

// advance moves the virtual clock to wall time t.
func (u *psUplink) advance(t float64) {
	if n := len(u.h); n > 0 && t > u.tlast {
		u.vnow += (t - u.tlast) * u.cap / float64(n)
	}
	u.tlast = t
}

func (u *psUplink) Start(now float64, id int, bytes float64) {
	u.advance(now)
	u.h.push(psItem{id: id, bytes: bytes, vfinish: u.vnow + bytes, seq: u.seq})
	u.seq++
}

func (u *psUplink) NextFinish() (float64, bool) {
	if len(u.h) == 0 {
		return 0, false
	}
	if u.cap == 0 {
		// A dynamics outage parked the link: the in-flight set exists but
		// nothing completes until a restore.
		return math.Inf(1), true
	}
	remaining := u.h[0].vfinish - u.vnow
	if remaining < 0 {
		remaining = 0 // float drift guard
	}
	return u.tlast + remaining*float64(len(u.h))/u.cap, true
}

func (u *psUplink) Finish() int {
	t, _ := u.NextFinish()
	u.advance(t)
	item := u.h.pop()
	u.vnow = item.vfinish // pin exactly, absorbing float drift
	u.served += item.bytes
	return item.id
}

func (u *psUplink) InFlight() int        { return len(u.h) }
func (u *psUplink) ServedBytes() float64 { return u.served }

// setCapacity rescales the link to bytesPerSec at time now. Virtual
// progress is conserved: the clock advances to now at the old rate
// first, so every in-flight transfer keeps the service it has accrued
// and its remaining virtual work continues at the new rate. Zero parks
// the link (the virtual clock stops; NextFinish reports +Inf).
func (u *psUplink) setCapacity(now, bytesPerSec float64) {
	u.advance(now)
	u.cap = bytesPerSec
}

// drain removes every in-flight transfer in completion order (vfinish,
// then admission), crediting no served bytes.
func (u *psUplink) drain() []int {
	ids := make([]int, 0, len(u.h))
	for len(u.h) > 0 {
		ids = append(ids, u.h.pop().id)
	}
	return ids
}
