package fleet

// startFederated enrolls the federated participants, in class then
// camera order: each owns a jitter stream seeded by its camera's global
// index under the federated family tag, so the draws are stable under
// class edits elsewhere and never perturb frame traffic. Round 1's local
// compute starts at t = 0; rounds run to completion past Duration, the
// event loop draining them like any other traffic.
func (e *engine) startFederated() {
	f := e.sc.Federated
	part := make(map[string]bool, len(f.Classes))
	for _, name := range f.Classes {
		part[name] = true
	}
	e.flByTier = make([][]int32, len(e.nodes))
	e.flParts = make([]flPart, 0, e.fle.Cameras())
	for ci := range e.sc.Classes {
		if len(part) > 0 && !part[e.sc.Classes[ci].Name] {
			continue
		}
		ti := e.firstHop[ci]
		for _, camIdx := range e.classCams[ci] {
			pi := int32(len(e.flParts))
			e.flParts = append(e.flParts, flPart{tier: int32(ti), rng: newPRNG(streamSeed(e.sc.Seed, seedFederated, int(camIdx)))})
			e.flByTier[ti] = append(e.flByTier[ti], pi)
		}
	}
	for pi := range e.flParts {
		p := &e.flParts[pi]
		e.push(f.ComputeSec+f.JitterSec*p.rng.Float64(), evFLReady, int32(pi), 1)
	}
}

// flReady starts participant pi's round update blob up its attach
// tier's uplink at time t, once its local training ends.
func (e *engine) flReady(t float64, pi int32, round int) {
	ub := e.fle.UpdateBytes()
	id := e.newTransfer(transfer{cam: pi, round: int32(round), bytes: ub})
	e.links.start(int(e.flParts[pi].tier), t, id, ub)
}

// flAbsorb lands federated transfer id — which just cleared uplink li
// and its propagation — at the parent tier (the cloud above the root)
// at time t, where it is aggregated. When the landing completes the
// round's fan-in there, the tier emits one merged blob on its own
// uplink; when the cloud's fan-in completes, the merged model starts
// down the root's downlink.
func (e *engine) flAbsorb(t float64, li, id int) {
	tr := e.release(id)
	target := e.nodes[li].parent
	from := -1
	if tr.cam >= 0 {
		from = li // a camera blob's first uplink is its attach tier
	}
	if !e.fle.Arrive(target, int(tr.round), t, from) {
		return
	}
	if target >= 0 {
		mb := e.fle.UpdateBytes()
		mid := e.newTransfer(transfer{cam: -1, round: tr.round, bytes: mb})
		e.links.start(target, t, mid, mb)
		return
	}
	bb := e.fle.ModelBytes()
	bid := e.newTransfer(transfer{cam: -1, round: tr.round, bytes: bb})
	e.links.start(e.downLink[e.root], t, bid, bb)
}

// flDeliver lands the round's model at span tier ti at time t: one copy
// forwards down each span child's downlink, and the tier's own
// participants (if any) start the next round's local compute.
func (e *engine) flDeliver(t float64, ti, id int) {
	round := int(e.release(id).round)
	e.fle.Delivered(ti, round, t)
	for _, c := range e.fle.SpanChildren(ti) {
		bb := e.fle.ModelBytes()
		cid := e.newTransfer(transfer{cam: -1, round: int32(round), bytes: bb})
		e.links.start(e.downLink[c], t, cid, bb)
	}
	if e.fle.CamsAt(ti) > 0 && round < e.fle.Rounds() {
		f := e.sc.Federated
		for _, pi := range e.flByTier[ti] {
			p := &e.flParts[pi]
			e.push(t+f.ComputeSec+f.JitterSec*p.rng.Float64(), evFLReady, pi, int32(round+1))
		}
	}
}
