package fleet

import (
	"fmt"
	"math"

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

// event is one scheduled event, packed into 24 bytes so that a heap
// sift moves as little memory as possible. key is seq<<kindBits | kind:
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

// eventHeap is a specialized 4-ary min-heap ordered by (t, key). Since
// the key is unique the order is total, so the pop sequence is provably
// the one container/heap produces (TestHeapsMatchContainerHeap), while
// push and pop move event values directly instead of boxing each one
// through an interface. Four children per node halve the tree's depth
// against a binary heap, and the sifts carry a hole: each level moves
// one event instead of swapping two, and the sifted event is written
// once at the end.
type eventHeap []event

func (eventHeap) less(x, y *event) bool {
	if x.t != y.t {
		return x.t < y.t
	}
	return x.key < y.key
}

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	j := len(s) - 1
	for j > 0 {
		p := (j - 1) / 4
		if !s.less(&ev, &s[p]) {
			break
		}
		s[j] = s[p]
		j = p
	}
	s[j] = ev
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k, end := c+1, min(c+4, n); k < end; k++ {
			if s.less(&s[k], &s[m]) {
				m = k
			}
		}
		if !s.less(&s[m], &last) {
			break
		}
		s[i] = s[m]
		i = m
	}
	if n > 0 {
		s[i] = last
	}
	*h = s
	return top
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
// resolves a scenario into it and seeds the event heap, loop drives it
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
	links := make([]Link, len(e.nodes))
	e.owner = make([]int, len(e.nodes))
	for i, nd := range e.nodes {
		up, err := NewLink(nd.Uplink.Contention, nd.Uplink.BytesPerSecond())
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
		dn, err := NewLink(nd.Downlink.Contention, nd.Downlink.BytesPerSecond())
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

// seedEvents sizes the event heap and the latency slices, then pushes
// the initial events: each class's cameras' first captures and its
// first control tick, the first global epoch, each federated
// participant's first round, and the whole fault schedule.
func (e *engine) seedEvents() {
	sc := &e.sc
	// Steady-state storage is sized up front so the event loop never
	// regrows it. The event heap's population is structurally bounded —
	// each camera owns at most one pending capture plus one live event per
	// in-flight offload (≤ QueueDepth) — and the expected frame count
	// FPS × Duration × Count caps that bound for short runs. Latency
	// slices get the expected completed-offload count per class.
	heapCap := 1 + len(sc.Classes)
	for ci := range sc.Classes {
		cl := &sc.Classes[ci]
		frames := cl.FPS * sc.Duration * float64(cl.Count)
		slots := float64(cl.Count) * float64(1+cl.QueueDepth)
		if frames+float64(cl.Count) < slots {
			slots = frames + float64(cl.Count)
		}
		heapCap += clampEst(slots)
		if e.tel == nil {
			// The exact path holds every completed offload's latency; the
			// streaming path holds O(1) sketches instead, so this is the
			// frame-scaled allocation telemetry removes.
			e.res.Classes[ci].latencies = make([]float64, 0, clampEst(frames*cl.OffloadProb))
		}
		e.classCams[ci] = make([]int32, 0, cl.Count)
	}
	if e.fle != nil {
		// One pending ready event per federated participant at a time.
		heapCap += e.fle.Cameras()
	}
	if e.dyn != nil {
		// One pending firing per schedule entry at a time (a recurring
		// entry re-pushes itself only as it fires).
		heapCap += len(e.dyn.events)
	}
	e.events = make(eventHeap, 0, heapCap)
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
// heap; a completion tying an event fires first.
func (e *engine) loop() error {
	for len(e.events) > 0 || e.links.inFlight > 0 {
		if li, lt, ok := e.links.peek(); ok && (len(e.events) == 0 || lt <= e.events[0].t) {
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
