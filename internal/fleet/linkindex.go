package fleet

// linkIndex owns a run's links — every network link and core pool is a
// server (fifoServer or psServer) — and is the only code that mutates
// them: start, finish, drain, setCapacity and setCores each re-index the
// link they touch and keep the in-flight count, so no call site can
// forget to. It finds the earliest next completion across the links in
// O(log links) per event. The set is direction-agnostic: uplinks occupy
// the low indices in tier order, declared downlinks follow, then compute
// pools, so ties on time resolve uplinks (leaves before the root) ahead
// of downlinks and network ahead of compute, deterministically. It is a
// lazily invalidated min-heap: every mutation of link li bumps li's
// version and pushes a fresh (finish time, li, version) entry; peek
// discards entries whose version is stale. Each link therefore has at
// most one live entry — the one reflecting its current NextFinish — and
// ties on time resolve to the lowest link index, matching a plain
// O(links) scan bit for bit (TestLinkIndexLockstepWithScan).
type linkIndex struct {
	links []server
	ver   []uint64
	h     liHeap
	// inFlight counts transfers resident in any link (one transfer
	// crossing k tiers counts once per currently occupied link).
	// Transfers mid-propagation between links sit in the event queue
	// instead, so the event loop's condition still sees them.
	inFlight int
	// finished counts the transfers each link has completed.
	finished []int64
}

type liEntry struct {
	t   float64
	li  int
	ver uint64
}

// liHeap is a specialized binary min-heap ordered by (t, li). Stale
// entries for the same link can tie exactly with its live one, but peek's
// result is invariant to their relative order — only the live entry
// survives — so the (t, li) comparison fully determines what peek returns,
// identically to a container/heap reference (TestHeapsMatchContainerHeap),
// without boxing an entry per invalidation.
type liHeap []liEntry

func (h liHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].li < h[j].li
}

func (h *liHeap) push(e liEntry) {
	s := append(*h, e)
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

func (h *liHeap) pop() liEntry {
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
	e := s[n]
	*h = s[:n]
	return e
}

func newLinkIndex(links []server) linkIndex {
	return linkIndex{links: links, ver: make([]uint64, len(links)), finished: make([]int64, len(links))}
}

// invalidate re-indexes links[li] after a mutation: every one can move
// the link's earliest completion (fair share rescales every in-flight
// transfer on admission).
func (x *linkIndex) invalidate(li int) {
	x.ver[li]++
	if t, ok := x.links[li].NextFinish(); ok {
		x.h.push(liEntry{t: t, li: li, ver: x.ver[li]})
	}
}

// start admits transfer id of the given size onto link li at time now.
func (x *linkIndex) start(li int, now float64, id int, bytes float64) {
	x.links[li].Start(now, id, bytes)
	x.inFlight++
	x.invalidate(li)
}

// finish completes and returns the transfer link li reported next.
func (x *linkIndex) finish(li int) int {
	id := x.links[li].Finish()
	x.inFlight--
	x.finished[li]++
	x.invalidate(li)
	return id
}

// drain empties link li and returns the lost ids.
func (x *linkIndex) drain(li int) []int {
	ids := x.links[li].drain()
	x.inFlight -= len(ids)
	x.invalidate(li)
	return ids
}

// setCapacity rescales network link li at time now.
func (x *linkIndex) setCapacity(li int, now, bytesPerSec float64) {
	x.links[li].setCapacity(now, bytesPerSec)
	x.invalidate(li)
}

// setCores resizes compute pool li at time now.
func (x *linkIndex) setCores(li int, now float64, cores int) {
	x.links[li].setCores(now, cores)
	x.invalidate(li)
}

// peek returns the link with the earliest completion and that time, or
// ok=false when nothing is in flight anywhere.
func (x *linkIndex) peek() (li int, t float64, ok bool) {
	for len(x.h) > 0 {
		e := x.h[0]
		if e.ver == x.ver[e.li] {
			return e.li, e.t, true
		}
		x.h.pop()
	}
	return -1, 0, false
}
