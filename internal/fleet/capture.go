package fleet

// classFPS is class ci's current capture rate. The dynamics multiplier
// ×1.0 is exact, so a schedule that never touches a class's rate leaves
// its capture times bit-identical.
func (e *engine) classFPS(ci int) float64 {
	fps := e.sc.Classes[ci].FPS
	if e.dyn != nil {
		fps *= e.dyn.fpsMul[ci]
	}
	return fps
}

// spawnCamera adds one camera to class ci at time t — the initial fleet
// at t = 0, or a dynamics joiner — and schedules its first capture: a
// random phase inside one period (periodic) or one exponential gap
// (Poisson). Cameras take the next global camera-seed index, so every
// existing camera's stream is untouched.
func (e *engine) spawnCamera(ci int, t float64) {
	cl := &e.sc.Classes[ci]
	idx := len(e.cams)
	c := camera{class: ci, rng: newPRNG(streamSeed(e.sc.Seed, seedCameras, idx)), stored: cl.StoreJ, lastTop: t, placement: cl.Policy.Start}
	fps := e.classFPS(ci)
	var first float64
	if cl.Arrival == ArrivalPoisson {
		first = c.rng.ExpFloat64() / fps
	} else {
		first = c.rng.Float64() / fps
	}
	e.cams = append(e.cams, c)
	e.classCams[ci] = append(e.classCams[ci], int32(idx))
	if t+first < e.sc.Duration {
		e.push(t+first, evCapture, int32(idx), 0)
	}
}

// nextCapture is camera c's next capture time after one at now.
func (e *engine) nextCapture(c *camera, now float64) float64 {
	fps := e.classFPS(c.class)
	if e.sc.Classes[c.class].Arrival == ArrivalPoisson {
		return now + c.rng.ExpFloat64()/fps
	}
	return now + 1/fps
}

// capture takes one frame on camera camIdx at time t: it pays the
// frame's energy, applies queue-depth backpressure, and creates an
// offload's transfer — its capture time and payload, fixed now so a
// placement switch mid-flight cannot retroactively resize the frame —
// whose evReady fires once in-camera compute finishes.
func (e *engine) capture(t float64, camIdx int32) {
	c := &e.cams[camIdx]
	cl := &e.sc.Classes[c.class]
	st := &e.res.Classes[c.class]
	st.Captured++

	// Per-frame costs come from the camera's current placement when the
	// class carries a runtime cost table, else from the class fields.
	frameBytes := float64(cl.FrameBytes)
	computeSec := cl.ComputeSeconds
	computeJ := cl.ComputeJ
	if len(cl.Placements) > 0 {
		pc := &cl.Placements[c.placement]
		frameBytes = float64(pc.FrameBytes)
		computeSec = pc.ComputeSeconds
		computeJ = pc.ComputeJ
	}

	offload := frameBytes > 0 && cl.OffloadProb > 0 && c.rng.Float64() < cl.OffloadProb
	queueDropped := false
	if offload && c.inflight >= cl.QueueDepth {
		// Backpressure: the frame is still processed in-camera, but its
		// offload is abandoned (no transmit cost below).
		queueDropped = true
		offload = false
	}
	need := cl.CaptureJ + computeJ
	if offload {
		need += cl.TxFixedJ + cl.TxPerByteJ*frameBytes
	}
	if cl.HarvestW > 0 {
		c.stored += cl.HarvestW * (t - c.lastTop)
		if c.stored > cl.StoreJ {
			c.stored = cl.StoreJ
		}
		c.lastTop = t
		if c.stored < need {
			// The store cannot pay for this frame: skip it entirely and
			// keep charging. Energy starvation is the binding constraint,
			// so a frame dropped here is never also counted against the
			// queue — each drop has exactly one cause.
			st.DroppedEnergy++
			if e.tel != nil {
				e.tel.dropEnergy(c.class)
			}
			return
		}
		c.stored -= need
	}
	st.EnergyJ += need
	if queueDropped {
		st.DroppedQueue++
		if e.tel != nil {
			e.tel.dropQueue(c.class)
		}
		e.countDrop(c.class)
	}
	if offload {
		c.inflight++
		id := e.newTransfer(transfer{cam: camIdx, capturedAt: t, bytes: frameBytes})
		e.push(t+computeSec, evReady, 0, int32(id))
	}
}

// countDrop charges one lost frame of class ci to both controller kinds'
// windows, so they see and react to congestion and outages alike.
func (e *engine) countDrop(ci int) {
	if ctl := e.ctls[ci]; ctl != nil {
		ctl.win.drops++
	}
	if e.gctl != nil && e.gctl.wins != nil {
		e.gctl.wins[ci].drops++
	}
}
