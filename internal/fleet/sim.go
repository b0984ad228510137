package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"camsim/internal/fleet/fl"
	"camsim/internal/fleet/quantile"
)

// event kinds: a camera captures a frame; an in-camera-processed frame
// becomes ready for its first-hop link; a transfer finishes propagating
// between tiers and enters the next link; a transfer clears the root
// hop's propagation and arrives in the cloud; an adaptive class's
// controller makes a placement decision; the global energy-aware
// controller runs one epoch; a federated camera's local training ends
// and its update blob enters the attach uplink; a federated blob clears
// its uplink hop's propagation and is absorbed for aggregation one tier
// up (or at the cloud); a broadcast model blob clears a downlink's
// propagation and is delivered at the owning tier; a dynamics schedule
// entry fires (churn, link degradation, tier outage/recovery, rate
// profile or core rescale). Link completions themselves are not events —
// the loop peeks them off the links, whose finish times shift as
// transfers are admitted.
const (
	evCapture = iota
	evReady
	evHop
	evArrive
	evControl
	evGlobal
	evFLReady
	evFLUp
	evFLDeliver
	evDynamics
)

// kindBits is the width of the kind field in event.key; the guard below
// fails to compile once a new kind no longer fits.
const kindBits = 4

const _ uint = 1<<kindBits - 1 - evDynamics

// event is one scheduled event, packed into 24 bytes so that the queue
// moves as little memory as possible. key is seq<<kindBits | kind:
// seq is the engine's unique scheduling counter, so ordering on (t, key)
// is exactly the (t, seq) order — earlier-scheduled events fire first at
// equal times — and the kind rides along for free.
//
// a and b are the payload words. a is the camera (evCapture), class
// (evControl), federated participant (evFLReady) or tier link (evHop,
// evFLUp, evFLDeliver). b is the transfer id (evReady, evHop, evArrive,
// evFLUp, evFLDeliver), the federated round (evFLReady) or the fault
// schedule entry (evDynamics). A propagating transfer b arrives at tier
// a and starts transmission there (evHop), lands in the cloud (evArrive),
// is absorbed for aggregation above uplink a (evFLUp), or is delivered
// at tier a (evFLDeliver). A frame's capture time and payload travel in
// its transfer record, created at capture (engine.capture).
type event struct {
	t   float64
	key uint64
	a   int32
	b   int32
}

func (ev *event) kind() int { return int(ev.key & (1<<kindBits - 1)) }

// eventHeap is the engine's event queue, a ladder queue (Tang, Goh &
// Thng, ACM TOMACS 2005) ordered by (t, key). It pops in exactly the
// order container/heap would (TestHeapsMatchContainerHeap), but a hold —
// pop the earliest event, push its successor — costs O(1) amortized
// instead of a heap's O(log n) sift through a tree that outgrows the
// cache at fleet scale. Events wait in three tiers:
//
//   - top, an unsorted list of everything later than ceil;
//   - rungs, arrays of unsorted buckets, each rung spawned from one
//     overfull bucket of the rung above and so finer than it;
//   - bottom, a short sorted run of the earliest events, popped from its
//     front.
//
// A bucket index, floor((t-start)/width) clamped to the rung, is monotone
// in t, and equal times land in the same bucket. A push goes to top when
// later than ceil, else to the coarsest rung whose index for it is not
// below that rung's current bucket, else into bottom by sorted insert; so
// everything in a finer tier is earlier than everything in a coarser one,
// and ties split across tiers only in key order. When bottom runs dry,
// refill hands down the finest rung's next bucket, spawning a finer rung
// from it while it holds more than ladderThresh events of different
// times, else sorting it into bottom; top becomes a fresh first rung once
// every rung is spent.
//
// Lists are int32 links through one node pool with a free list, node 0
// being the nil link, so the queue allocates nothing in steady state. The
// zero value is an empty queue.
type eventHeap struct {
	pool []event // list nodes; pool[0] is unused
	next []int32 // next[i] links node i within a bucket, top or the free list
	free int32
	n    int // events queued

	top            int32   // list head
	topN           int     // events in top
	topMin, topMax float64 // their time span
	ceil           float64 // rungs and bottom hold times ≤ ceil, top the rest

	rungs []rung // rungs[:nr] are live, coarsest first; the rest keep their storage
	nr    int

	bottom []event // bottom[head:] is sorted by (t, key)
	head   int
}

// rung is one level of the ladder: bucket b holds the events whose
// clamped index floor((t-start)*inv) is b. Buckets before cur have been
// handed down, and a push whose index falls before cur belongs below.
type rung struct {
	start, inv float64
	cur        int
	buckets    []int32 // list heads, 0 when empty
}

const (
	// ladderThresh is the most events a bucket is sorted into bottom
	// with; a fuller one spawns a finer rung unless its times are equal.
	ladderThresh = 48
	// ladderRungs caps the ladder's depth; a bucket at the cap is sorted
	// into bottom whatever its size, which costs speed, never order.
	ladderRungs = 16
)

// newEventHeap returns an empty queue whose node pool holds n events
// before it grows.
func newEventHeap(n int) eventHeap {
	return eventHeap{pool: make([]event, 1, n+1), next: make([]int32, 1, n+1)}
}

func (*eventHeap) less(x, y *event) bool {
	if x.t != y.t {
		return x.t < y.t
	}
	return x.key < y.key
}

// len is the number of queued events.
func (h *eventHeap) len() int { return h.n }

func (h *eventHeap) push(ev event) {
	if h.n == 0 {
		// An empty queue starts over, so a refill after a drain is not
		// routed by the last run's ladder.
		h.top, h.topN, h.topMin, h.topMax = 0, 0, math.Inf(1), math.Inf(-1)
		h.nr, h.ceil = 0, math.Inf(-1)
		h.bottom, h.head = h.bottom[:0], 0
	}
	h.n++
	if ev.t > h.ceil {
		i := h.node(ev)
		h.next[i], h.top = h.top, i
		h.topN++
		h.topMin, h.topMax = min(h.topMin, ev.t), max(h.topMax, ev.t)
		return
	}
	for k := 0; k < h.nr; k++ {
		r := &h.rungs[k]
		if f := (ev.t - r.start) * r.inv; f >= float64(r.cur) {
			b := len(r.buckets) - 1
			if f < float64(b) {
				b = int(f)
			}
			i := h.node(ev)
			h.next[i], r.buckets[b] = r.buckets[b], i
			return
		}
	}
	h.insertBottom(ev)
}

// peekT is the earliest queued event's time; the queue must not be empty.
func (h *eventHeap) peekT() float64 {
	if h.head == len(h.bottom) {
		h.refill()
	}
	return h.bottom[h.head].t
}

// pop removes and returns the earliest event; the queue must not be empty.
func (h *eventHeap) pop() event {
	if h.head == len(h.bottom) {
		h.refill()
	}
	ev := h.bottom[h.head]
	h.head++
	h.n--
	return ev
}

// node stores ev in a pool slot, recycled when one is free.
func (h *eventHeap) node(ev event) int32 {
	if i := h.free; i != 0 {
		h.free = h.next[i]
		h.pool[i] = ev
		return i
	}
	if len(h.pool) == 0 {
		h.pool, h.next = append(h.pool, event{}), append(h.next, 0)
	}
	h.pool, h.next = append(h.pool, ev), append(h.next, 0)
	return int32(len(h.pool) - 1)
}

// insertBottom puts ev into bottom at its sorted place. The engine pushes
// at or after the current time under the newest key, so the place is
// usually the end.
func (h *eventHeap) insertBottom(ev event) {
	s := h.bottom
	j := len(s)
	if j > h.head && h.less(&ev, &s[j-1]) {
		lo, hi := h.head, j-1
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if h.less(&ev, &s[m]) {
				hi = m
			} else {
				lo = m + 1
			}
		}
		j = lo
	}
	if j == h.head && j > 0 {
		h.head--
		s[h.head] = ev
		return
	}
	s = append(s, ev)
	copy(s[j+1:], s[j:len(s)-1])
	s[j] = ev
	h.bottom = s
}

// refill moves the earliest events into the empty bottom: the finest
// rung's next non-empty bucket, or top once every rung is spent.
func (h *eventHeap) refill() {
	h.bottom, h.head = h.bottom[:0], 0
	for {
		var head int32
		var cnt int
		var lo, hi float64
		if h.nr == 0 {
			head, cnt, lo, hi = h.top, h.topN, h.topMin, h.topMax
			h.top, h.topN, h.topMin, h.topMax = 0, 0, math.Inf(1), math.Inf(-1)
			h.ceil = hi
		} else {
			// The last bucket holds the rung's latest event until it is
			// taken, and the rung retires as it is, so the scan stops in
			// range and a push clamped to the last bucket finds it live.
			r := &h.rungs[h.nr-1]
			for r.buckets[r.cur] == 0 {
				r.cur++
			}
			head = r.buckets[r.cur]
			r.buckets[r.cur] = 0
			r.cur++
			if r.cur == len(r.buckets) {
				h.nr--
			}
			lo, hi = math.Inf(1), math.Inf(-1)
			for i := head; i != 0; i = h.next[i] {
				t := h.pool[i].t
				cnt, lo, hi = cnt+1, min(lo, t), max(hi, t)
			}
		}
		if !h.spawn(head, cnt, lo, hi) {
			h.sortDown(head, cnt)
			return
		}
	}
}

// spawn spreads the cnt events of list head, whose times span [lo, hi],
// over a new finest rung of cnt buckets. It declines, leaving the list
// intact, when the list is short, its times are equal or the ladder is at
// its depth cap.
func (h *eventHeap) spawn(head int32, cnt int, lo, hi float64) bool {
	if cnt <= ladderThresh || h.nr == ladderRungs || !(lo < hi) {
		return false
	}
	inv := float64(cnt) / (hi - lo)
	if !(inv > 0) || math.IsInf(inv, 1) {
		return false // the span under- or overflows a float
	}
	if h.nr == len(h.rungs) {
		h.rungs = append(h.rungs, rung{})
	}
	r := &h.rungs[h.nr]
	h.nr++
	r.start, r.inv, r.cur = lo, inv, 0
	// A spent rung's buckets are all empty, so reused storage is clear.
	if cap(r.buckets) < cnt {
		r.buckets = make([]int32, cnt)
	}
	r.buckets = r.buckets[:cnt]
	for i := head; i != 0; {
		nx := h.next[i]
		b := cnt - 1
		if f := (h.pool[i].t - lo) * inv; f < float64(b) {
			b = int(f)
		}
		h.next[i], r.buckets[b] = r.buckets[b], i
		i = nx
	}
	return true
}

// sortDown copies the cnt events of list head into the empty bottom,
// frees their nodes and sorts the run. Lists are built by prepending, so
// the copy runs backwards to hand the sort the events in push order:
// equal times then arrive already sorted by key.
func (h *eventHeap) sortDown(head int32, cnt int) {
	s := slices.Grow(h.bottom[:0], cnt)[:cnt]
	j, tail := cnt, int32(0)
	for i := head; i != 0; i = h.next[i] {
		j--
		s[j], tail = h.pool[i], i
	}
	if tail != 0 {
		h.next[tail], h.free = h.free, head
	}
	h.bottom = s
	if cnt > ladderThresh {
		// Only a list spawn declined for its equal times, its float
		// span or the depth cap is this long.
		slices.SortFunc(s, func(x, y event) int {
			if c := cmp.Compare(x.t, y.t); c != 0 {
				return c
			}
			return cmp.Compare(x.key, y.key)
		})
		return
	}
	for i := 1; i < cnt; i++ {
		ev := s[i]
		j := i
		for ; j > 0 && h.less(&ev, &s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = ev
	}
}

// camera is one simulated device. The random stream is embedded by value:
// 8 bytes inline rather than a pointer to rand.NewSource's ~5 KB state,
// so a 100k-camera fleet stays cache-resident.
type camera struct {
	class     int
	rng       prng
	inflight  int
	placement int     // current index into the class's Placements table
	stored    float64 // harvested joules in the store (harvesting classes)
	lastTop   float64 // wall time of the last store top-up
	// departed marks a camera retired by dynamics churn: it captures
	// nothing further, but frames already in flight still complete.
	departed bool
}

// transfer is one in-flight payload, indexed by transfer id. A frame
// offload (round 0) rides every link from the class's attach tier up to
// the root under one id; a federated blob (round > 0) crosses exactly one
// link per id — an update absorbed one hop up (cam ≥ 0 for a camera's own
// blob, -1 for a tier's merged blob) or a model copy delivered down one
// downlink (cam -1).
type transfer struct {
	cam        int32
	round      int32
	capturedAt float64
	bytes      float64
	// compAt is when the frame entered the compute pool it currently
	// occupies (scenarios with per-tier compute only), the epoch its
	// queueing wait is measured from.
	compAt float64
}

// flPart is one federated participant: a camera's attach tier plus its
// own jitter stream, in the federated seed family (streamSeed) so
// enabling a federated job never perturbs frame traffic draws.
type flPart struct {
	tier int32
	rng  prng
}

// clampEst converts a float capacity estimate to an int usable as a make
// cap. A valid scenario can push FPS × Duration × Count past int range —
// int() of an out-of-range float is unspecified (negative caps panic
// make) — and no estimate is worth an absurd up-front allocation, so the
// result is clamped to [0, 2^22]; NaN maps to 0. Estimates only size
// preallocations, never bound growth, so clamping cannot change results.
func clampEst(x float64) int {
	const estCap = 1 << 22
	if !(x > 0) { // also rejects NaN
		return 0
	}
	if x > estCap {
		return estCap
	}
	return int(x)
}

// Run executes one scenario to completion: captures stop at
// Scenario.Duration and every tier drains. The same normalized scenario
// always produces the identical Result.
func Run(sc Scenario) (*Result, error) { return run(sc) }

// run is the engine's single entry point: every engine frame in a CPU
// profile sits under camsim/internal/fleet.run, the name perfbench's
// profile grouping keys on.
func run(sc Scenario) (*Result, error) {
	e, err := newEngine(sc)
	if err != nil {
		return nil, err
	}
	if err := e.loop(); err != nil {
		return nil, err
	}
	return e.result(), nil
}

// engine is the live state of one run, grouped by subsystem. newEngine
// resolves a scenario into it and seeds the event queue, loop drives it
// until every event has fired and every link has drained, and result
// assembles the Result. Each subsystem's methods live in its own file:
// capture and admission in capture.go, transit and completion in
// transit.go, compute pools in compute.go, federated rounds in
// federated.go, the fault schedule in dynamics.go and result assembly
// in stats.go.
type engine struct {
	sc    Scenario // the run's private, resolved copy
	nodes []tierNode
	root  int

	// links holds every link in a fixed layout: one uplink per tier node
	// in tier order, then declared downlinks in tier order, then compute
	// pools. Simultaneous completions resolve to the lowest index, so
	// leaf uplinks beat the root, uplinks beat downlinks and network
	// beats compute. owner maps each link to its tier; poolBase is the
	// first pool's index.
	links    linkIndex
	owner    []int
	poolBase int
	// downLink and compLink map a tier to its downlink's and its core
	// pool's link index, -1 without one.
	downLink []int
	compLink []int
	// compPlan is the per-tier, per-class service demand (computePlan),
	// nil without any compute section — the infinite-compute fast path:
	// no pools exist, no routing changes, and the run is byte-identical
	// to a build that predates the section. compWait sketches each
	// pool's queueing delay.
	compPlan [][]float64
	compWait []*quantile.Sketch

	// firstHop is the tier each class's cameras transmit on; rowJ and
	// rowDelay price each class's placement rows (see routeClass) and are
	// passed into every controller decision.
	firstHop []int
	rowJ     [][]float64
	rowDelay [][]float64

	cams      []camera
	classCams [][]int32 // each class's live cameras, in join order
	ctls      []*controller
	gctl      *globalController
	dyn       *dynamics  // nil without a non-empty fault schedule
	tel       *collector // nil without streaming telemetry
	res       *Result

	// Federated state, nil without a federated job: the round engine,
	// each uplink's federated share of served bytes, the participants,
	// and the participants attached at each tier.
	fle       *fl.Engine
	flUpBytes []float64
	flParts   []flPart
	flByTier  [][]int32

	events eventHeap
	seq    uint64 // next event's tie-break sequence number
	// A frame's transfer is created at capture and a federated blob's as
	// it enters a link. Transfer ids are recycled through a free list the
	// moment a transfer completes, so transfers scales with the peak
	// in-flight population instead of growing one slot per frame for the
	// life of the run.
	// Recycling cannot perturb results: a completed id is referenced
	// nowhere (not in any link, not in any pending event), and no output
	// ordering keys off id values.
	transfers []transfer
	freeIDs   []int
}

// newEngine resolves sc into a ready-to-run engine: a private normalized
// copy of the scenario, its tier tree and links, priced classes, the
// optional subsystems, and the initial events.
func newEngine(sc Scenario) (*engine, error) {
	// sc arrives by value, but its sections share storage with the caller
	// (and, under Sweep, with sibling scenarios): resolved works on a clone.
	sc, err := sc.resolved()
	if err != nil {
		return nil, err
	}
	nodes, root, err := sc.topology()
	if err != nil {
		return nil, err
	}
	if err := sc.validate(nodes); err != nil {
		return nil, err
	}
	e := &engine{sc: sc, nodes: nodes, root: root}
	if err := e.buildLinks(); err != nil {
		return nil, err
	}
	e.firstHop = make([]int, len(sc.Classes))
	e.rowJ = make([][]float64, len(sc.Classes))
	e.rowDelay = make([][]float64, len(sc.Classes))
	for ci := range sc.Classes {
		e.routeClass(ci, classAttachIndex(nodes, &sc.Classes[ci]))
	}
	// Dynamics, telemetry and federated rounds exist only when the
	// scenario asks: every other run bypasses their nil checks and stays
	// byte-identical to a build that predates them. The collector
	// observes the same completions and drops the exact path counts, so it
	// only changes how latency statistics are accumulated.
	if sc.Dynamics != nil && len(sc.Dynamics.Events) > 0 {
		e.dyn = newDynamics(&e.sc, nodes, e.firstHop)
	}
	if sc.Telemetry != nil && sc.Telemetry.Streaming {
		labels, caps := e.linkLabels()
		e.tel = newCollector(&e.sc, e.links.links, labels, caps, e.dyn)
	}
	if sc.Federated != nil {
		topo, err := e.sc.flTopology(nodes)
		if err != nil {
			return nil, err
		}
		if e.fle, err = fl.NewEngine(*sc.Federated, topo); err != nil {
			return nil, err
		}
		e.flUpBytes = make([]float64, len(nodes))
	}
	e.cams = make([]camera, 0, sc.Cameras())
	e.classCams = make([][]int32, len(sc.Classes))
	e.ctls = newControllers(&e.sc)
	e.gctl = newGlobal(&e.sc)
	e.res = newResult(e.sc)
	e.seedEvents()
	e.transfers = make([]transfer, 0, sc.Cameras())
	return e, nil
}

// buildLinks creates every link in the fixed layout (see engine.links)
// with its owner table and the tier → link maps.
func (e *engine) buildLinks() error {
	links := make([]server, len(e.nodes))
	e.owner = make([]int, len(e.nodes))
	for i, nd := range e.nodes {
		up, err := newLink(nd.Uplink.Contention, nd.Uplink.BytesPerSecond())
		if err != nil {
			return err
		}
		links[i] = up
		e.owner[i] = i
	}
	e.downLink = make([]int, len(e.nodes))
	for i, nd := range e.nodes {
		e.downLink[i] = -1
		if nd.Downlink == nil {
			continue
		}
		dn, err := newLink(nd.Downlink.Contention, nd.Downlink.BytesPerSecond())
		if err != nil {
			return err
		}
		e.downLink[i] = len(links)
		e.owner = append(e.owner, i)
		links = append(links, dn)
	}
	// Tier core pools are links too ("bytes" = core-seconds of service
	// demand).
	e.poolBase = len(links)
	e.compPlan = computePlan(e.nodes, e.sc.Classes)
	e.compLink = make([]int, len(e.nodes))
	for i := range e.nodes {
		e.compLink[i] = -1
		if e.compPlan == nil || e.nodes[i].Compute == nil {
			continue
		}
		if e.compWait == nil {
			e.compWait = make([]*quantile.Sketch, len(e.nodes))
		}
		e.compLink[i] = len(links)
		e.owner = append(e.owner, i)
		links = append(links, newComputeServer(e.nodes[i].Compute))
		e.compWait[i] = quantile.NewSketch()
	}
	e.links = newLinkIndex(links)
	return nil
}

// routeClass points class ci's first hop at tier ti and prices the
// tables the placement controllers score against: rowJ in joules per
// captured frame, forwarding included (the sum of Tier.TxPerByteJ over
// every hop to the root), and rowDelay in deterministic delay seconds
// per frame (classRowDelays) — nil per class unless a compute tier sits
// on its offload path, so scenarios without the section keep the
// controllers' legacy arithmetic bit for bit.
func (e *engine) routeClass(ci, ti int) {
	e.firstHop[ci] = ti
	pathFwdJ := 0.0
	for li := ti; li >= 0; li = e.nodes[li].parent {
		pathFwdJ += e.nodes[li].TxPerByteJ
	}
	cl := &e.sc.Classes[ci]
	e.rowJ[ci] = classRowEnergies(cl, pathFwdJ)
	e.rowDelay[ci] = nil
	if scale := classPathScale(e.nodes, e.compPlan, ci, ti); scale > 0 {
		e.rowDelay[ci] = classRowDelays(cl, scale)
	}
}

// seedEvents sizes the event queue and the latency slices, then pushes
// the initial events: each class's cameras' first captures and its
// first control tick, the first global epoch, each federated
// participant's first round, and the whole fault schedule.
func (e *engine) seedEvents() {
	sc := &e.sc
	// The queue's node pool starts at the seeded population: one pending
	// capture per camera, one control tick per class, one global epoch,
	// one ready event per federated participant and the fault schedule.
	// In-flight offloads add a few events per camera at most, and the
	// pool grows by append above this. Latency slices get the expected
	// completed-offload count per class, so the loop never regrows them.
	pending := 1 + len(sc.Classes)
	for ci := range sc.Classes {
		cl := &sc.Classes[ci]
		pending += cl.Count
		if e.tel == nil {
			// The exact path holds every completed offload's latency; the
			// streaming path holds O(1) sketches instead, so this is the
			// frame-scaled allocation telemetry removes.
			frames := cl.FPS * sc.Duration * float64(cl.Count)
			e.res.Classes[ci].latencies = make([]float64, 0, clampEst(frames*cl.OffloadProb))
		}
		e.classCams[ci] = make([]int32, 0, cl.Count)
	}
	if e.fle != nil {
		pending += e.fle.Cameras()
	}
	if e.dyn != nil {
		pending += len(e.dyn.events)
	}
	e.events = newEventHeap(pending)
	for ci := range sc.Classes {
		cl := &sc.Classes[ci]
		for k := 0; k < cl.Count; k++ {
			e.spawnCamera(ci, 0)
		}
		if e.ctls[ci] != nil {
			e.push(cl.Policy.IntervalSec, evControl, int32(ci), 0)
		}
	}
	if e.gctl != nil && sc.Global.EpochSec < sc.Duration {
		e.push(sc.Global.EpochSec, evGlobal, 0, 0)
	}
	if e.fle != nil {
		e.startFederated()
	}
	if e.dyn != nil {
		// The whole schedule is pushed up front (evDynamics carries the
		// entry index), so same-time entries fire in declaration order
		// via the seq tie-break. Entries past Duration still fire — the
		// drain phase is part of the run.
		for i := range e.dyn.events {
			e.push(e.dyn.events[i].Time, evDynamics, 0, int32(i))
		}
	}
}

// push schedules an event of the given kind and payload (see event) at
// t, behind every earlier-pushed event at the same time.
func (e *engine) push(t float64, kind int, a, b int32) {
	e.events.push(event{t: t, key: e.seq<<kindBits | uint64(kind), a: a, b: b})
	e.seq++
}

// loop runs the simulation until no event remains and no link holds a
// transfer, interleaving the earliest link completion with the event
// queue; a completion tying an event fires first.
func (e *engine) loop() error {
	for e.events.len() > 0 || e.links.inFlight > 0 {
		if li, lt, ok := e.links.peek(); ok && (e.events.len() == 0 || lt <= e.events.peekT()) {
			if math.IsInf(lt, 1) {
				e.drainStalled()
				continue
			}
			// Simulated time is monotone across both branches, so closing
			// telemetry windows before processing puts every observation in
			// the window covering its timestamp.
			if e.tel != nil {
				e.tel.advance(lt)
			}
			e.linkDone(li, lt)
			continue
		}
		ev := e.events.pop()
		if e.tel != nil {
			e.tel.advance(ev.t)
		}
		switch ev.kind() {
		case evCapture:
			if e.cams[ev.a].departed {
				break
			}
			e.capture(ev.t, ev.a)
			if nt := e.nextCapture(&e.cams[ev.a], ev.t); nt < e.sc.Duration {
				e.push(nt, evCapture, ev.a, 0)
			}
		case evReady:
			id := int(ev.b)
			e.enterTier(ev.t, e.firstHop[e.cams[e.transfers[id].cam].class], id)
		case evHop:
			e.enterTier(ev.t, int(ev.a), int(ev.b))
		case evArrive:
			e.complete(ev.t, int(ev.b))
		case evControl:
			ci := int(ev.a)
			cl := &e.sc.Classes[ci]
			ctl := e.ctls[ci]
			if dir := ctl.decide(cl, e.rowJ[ci], e.rowDelay[ci], e.cams, e.classCams[ci]); dir != 0 {
				ctl.move(cl, e.cams, e.classCams[ci], dir)
			}
			if nt := ev.t + cl.Policy.IntervalSec; nt < e.sc.Duration {
				e.push(nt, evControl, ev.a, 0)
			}
		case evGlobal:
			e.gctl.epoch(ev.t, &e.sc, e.rowJ, e.rowDelay, e.cams, e.classCams)
			if nt := ev.t + e.sc.Global.EpochSec; nt < e.sc.Duration {
				e.push(nt, evGlobal, 0, 0)
			}
		case evFLReady:
			e.flReady(ev.t, ev.a, int(ev.b))
		case evFLUp:
			e.flAbsorb(ev.t, int(ev.a), int(ev.b))
		case evFLDeliver:
			e.flDeliver(ev.t, int(ev.a), int(ev.b))
		case evDynamics:
			e.fire(ev.t, int(ev.b))
		default:
			return fmt.Errorf("fleet: unknown event kind %d", ev.kind())
		}
	}
	return nil
}
