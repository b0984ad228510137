package fleet

// newTransfer registers tr under a free transfer id.
func (e *engine) newTransfer(tr transfer) int {
	if n := len(e.freeIDs) - 1; n >= 0 {
		id := e.freeIDs[n]
		e.freeIDs = e.freeIDs[:n]
		e.transfers[id] = tr
		return id
	}
	e.transfers = append(e.transfers, tr)
	return len(e.transfers) - 1
}

// release retires transfer id and returns it; the id is free for reuse.
func (e *engine) release(id int) transfer {
	e.freeIDs = append(e.freeIDs, id)
	return e.transfers[id]
}

// enterTier routes frame transfer id into tier ti at time now: through
// the tier's core pool first when it has one (service demand scales
// with the payload, compPlan), else straight onto the uplink — the
// no-compute degenerate case, identical to the pre-compute routing.
// A tier taken down by the dynamics schedule drops arrivals outright.
func (e *engine) enterTier(now float64, ti, id int) {
	if e.dyn != nil && e.dyn.down[ti] {
		e.dropOutage(ti, id)
		return
	}
	tr := &e.transfers[id]
	if li := e.compLink[ti]; li >= 0 {
		tr.compAt = now
		e.links.start(li, now, id, e.compPlan[ti][e.cams[tr.cam].class]*tr.bytes)
		return
	}
	e.links.start(ti, now, id, tr.bytes)
}

// linkDone finishes the transfer link li completes at lt and routes it
// on by the link's kind.
func (e *engine) linkDone(li int, lt float64) {
	id := e.links.finish(li)
	switch ti := e.owner[li]; {
	case li >= e.poolBase:
		e.poolDone(lt, ti, id)
	case li >= len(e.nodes):
		// A downlink drained: the model blob is delivered at the owning
		// tier one downlink propagation later.
		if d := e.nodes[ti].Downlink; d.PropagationSec == 0 {
			e.flDeliver(lt, ti, id)
		} else {
			e.push(lt+d.PropagationSec, evFLDeliver, int32(ti), int32(id))
		}
	default:
		e.uplinkDone(lt, li, id)
	}
}

// uplinkDone routes transfer id, which finished transmitting on uplink
// li at lt, across that hop's propagation delay.
func (e *engine) uplinkDone(lt float64, li, id int) {
	nd := &e.nodes[li]
	if tr := &e.transfers[id]; tr.round > 0 {
		// A federated blob cleared one uplink hop: it is absorbed for
		// aggregation where it lands, never forwarded onward — the
		// in-network aggregation that shrinks bytes per hop.
		e.flUpBytes[li] += tr.bytes
		if nd.PropagationSec == 0 {
			e.flAbsorb(lt, li, id)
		} else {
			e.push(lt+nd.PropagationSec, evFLUp, int32(li), int32(id))
		}
		return
	}
	if li != e.root {
		// The frame arrives at the parent tier one propagation delay
		// later. With no delay it enters the parent link at the instant it
		// drains, preserving the legacy two-tier event order exactly.
		if nd.PropagationSec == 0 {
			e.enterTier(lt, nd.parent, id)
		} else {
			e.push(lt+nd.PropagationSec, evHop, int32(nd.parent), int32(id))
		}
		return
	}
	// Root transmission done: the frame still propagates the root hop
	// before it lands in the cloud, which is when its capture-to-arrival
	// latency stops accruing and its completion becomes observable (queue
	// slot, controller telemetry).
	if nd.PropagationSec == 0 {
		e.complete(lt, id)
	} else {
		e.push(lt+nd.PropagationSec, evArrive, 0, int32(id))
	}
}

// complete lands frame transfer id in the cloud at time arrive: only
// then does the camera's queue slot free, the latency sample exist, and
// the adaptive controllers see it — never before the frame has actually
// arrived.
func (e *engine) complete(arrive float64, id int) {
	tr := e.release(id)
	c := &e.cams[tr.cam]
	c.inflight--
	st := &e.res.Classes[c.class]
	st.Offloaded++
	lat := arrive - tr.capturedAt
	if e.tel != nil {
		e.tel.observe(c.class, lat)
	} else {
		st.latencies = append(st.latencies, lat)
	}
	if ctl := e.ctls[c.class]; ctl != nil {
		ctl.win.lat = append(ctl.win.lat, lat)
	}
	if e.gctl != nil && e.gctl.wins != nil {
		w := &e.gctl.wins[c.class]
		w.lat = append(w.lat, lat)
	}
	if arrive > e.res.SimEnd {
		e.res.SimEnd = arrive
	}
}

// dropOutage accounts frame transfer id as lost to an outage at tier
// ti: the camera's queue slot frees (the frame will never arrive), and
// the drop is charged everywhere a queue drop would be — per class, per
// tier, telemetry, and both controller kinds — so controllers see and
// react to the regime shift.
func (e *engine) dropOutage(ti, id int) {
	tr := e.release(id)
	c := &e.cams[tr.cam]
	c.inflight--
	e.res.Classes[c.class].DroppedOutage++
	e.dyn.stats.DroppedOutage++
	e.dyn.outageDrops[ti]++
	if e.tel != nil {
		e.tel.dropOutage(c.class)
	}
	e.countDrop(c.class)
}
