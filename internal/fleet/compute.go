package fleet

import (
	"fmt"
	"math"
)

// ComputeConfig is the optional per-tier "compute" scenario section: a
// finite pool of identical cores that services every offloaded frame a
// tier forwards, before the frame enters the tier's uplink. Without it a
// tier's processing is free and instantaneous — only links are contended
// — which prices gateway and cloud compute as infinite and lets the
// placement controllers solve only half of the paper's problem. With it,
// end-to-end latency becomes capture → in-camera compute → per-hop
// (queueing + service + transmission + propagation) → done, and a
// congested tier costs real delay.
//
// Service demand scales with the payload. The per-class service time
// (an explicit ServiceSec entry, or 1/ServiceRateFPS) is the cost of the
// class's *reference* payload — its largest placement row, or FrameBytes
// when it has no table. A frame carrying fewer bytes is serviced
// proportionally faster: the byte count is the simulator's proxy for how
// much of the vision pipeline remains (each in-camera stage shrinks the
// payload it ships), so a placement row that does more work in the
// camera leaves less work for every tier on the path. That coupling is
// what makes placement a joint network+compute decision rather than a
// pure bandwidth one.
//
// Federated-learning traffic (update blobs and model broadcasts) rides
// the links directly and never queues for tier compute: the rounds model
// aggregation as free at the tier, and pricing it would change FL
// scenarios that predate this section.
type ComputeConfig struct {
	// Cores is the number of identical servers in the pool. Normalize
	// defaults an unset (zero) value to 1.
	Cores int `json:"cores,omitempty"`
	// ServiceRateFPS is the default per-core service rate, in
	// reference-payload frames per second, for classes without an explicit
	// ServiceSec entry. One frame at the class's reference payload
	// occupies one core for 1/ServiceRateFPS seconds.
	ServiceRateFPS float64 `json:"service_rate_fps,omitempty"`
	// ServiceSec gives per-class service times that override
	// ServiceRateFPS. Every offloading class whose path crosses the tier
	// must resolve a service time one way or the other.
	ServiceSec []ClassServiceSec `json:"service_sec,omitempty"`
	// Discipline is how waiting frames share the pool: ContentionFIFO
	// (the default — frames are served in arrival order, one core each)
	// or ContentionFairShare (egalitarian processor sharing across the
	// pool, each frame capped at one core's rate).
	Discipline string `json:"discipline,omitempty"`
}

// ClassServiceSec is one per-class service-time override in a tier's
// compute section: frames of Class occupy one core for Sec seconds at
// the class's reference payload.
type ClassServiceSec struct {
	Class string  `json:"class"`
	Sec   float64 `json:"sec"`
}

// normalize fills the section's defaulted fields in place (idempotent).
func (cc *ComputeConfig) normalize() {
	if cc.Cores == 0 {
		cc.Cores = 1
	}
	if cc.Discipline == "" {
		cc.Discipline = ContentionFIFO
	}
}

// serviceSecFor resolves the per-frame service time for the named class
// at its reference payload: an explicit ServiceSec entry wins, then the
// ServiceRateFPS default. Zero means unresolvable (validation rejects
// that for classes whose frames actually cross the tier).
func (cc *ComputeConfig) serviceSecFor(class string) float64 {
	for _, e := range cc.ServiceSec {
		if e.Class == class {
			return e.Sec
		}
	}
	if cc.ServiceRateFPS > 0 {
		return 1 / cc.ServiceRateFPS
	}
	return 0
}

// referenceBytes is the payload the class's compute service times are
// quoted against: the largest placement row, or FrameBytes without a
// table. Zero means the class never offloads a frame.
func (c *Class) referenceBytes() float64 {
	ref := float64(c.FrameBytes)
	for _, p := range c.Placements {
		if b := float64(p.FrameBytes); b > ref {
			ref = b
		}
	}
	return ref
}

// validateComputeNodes checks every tier's compute section against the
// resolved tree: well-formed pool parameters, known discipline and
// classes, and a resolvable service time for every offloading class
// whose offload path crosses the tier.
func (sc *Scenario) validateComputeNodes(nodes []tierNode) error {
	any := false
	for _, nd := range nodes {
		cc := nd.Compute
		if cc == nil {
			continue
		}
		any = true
		if cc.Cores < 0 {
			return fmt.Errorf("fleet: tier %q: compute cores %d must be positive", nd.Name, cc.Cores)
		}
		if !(cc.ServiceRateFPS >= 0) || math.IsInf(cc.ServiceRateFPS, 0) {
			return fmt.Errorf("fleet: tier %q: compute service rate %v fps must be finite and non-negative",
				nd.Name, cc.ServiceRateFPS)
		}
		if cc.Discipline != "" && cc.Discipline != ContentionFIFO && cc.Discipline != ContentionFairShare {
			return fmt.Errorf("fleet: tier %q: unknown compute discipline %q", nd.Name, cc.Discipline)
		}
		if cc.ServiceRateFPS == 0 && len(cc.ServiceSec) == 0 {
			return fmt.Errorf("fleet: tier %q: compute needs service_rate_fps or service_sec", nd.Name)
		}
		seen := make(map[string]bool, len(cc.ServiceSec))
		for _, e := range cc.ServiceSec {
			if e.Class == "" {
				return fmt.Errorf("fleet: tier %q: compute service_sec entry names no class", nd.Name)
			}
			if seen[e.Class] {
				return fmt.Errorf("fleet: tier %q: duplicate compute service_sec for class %q", nd.Name, e.Class)
			}
			seen[e.Class] = true
			known := false
			for i := range sc.Classes {
				if sc.Classes[i].Name == e.Class {
					known = true
					break
				}
			}
			if !known {
				return fmt.Errorf("fleet: tier %q: compute service_sec names unknown class %q", nd.Name, e.Class)
			}
			if !(e.Sec > 0) || math.IsInf(e.Sec, 0) {
				return fmt.Errorf("fleet: tier %q: compute service %v sec for class %q must be positive and finite",
					nd.Name, e.Sec, e.Class)
			}
		}
	}
	if !any {
		return nil
	}
	// Every offloading class must resolve a service time at every compute
	// tier its frames actually pass through (attach tier up to the root).
	for ci := range sc.Classes {
		c := &sc.Classes[ci]
		if c.referenceBytes() <= 0 {
			continue // never offloads, never queues for compute
		}
		for ti := classAttachIndex(nodes, c); ti >= 0; ti = nodes[ti].parent {
			cc := nodes[ti].Compute
			if cc == nil {
				continue
			}
			if cc.serviceSecFor(c.Name) <= 0 {
				return fmt.Errorf("fleet: tier %q: compute has no service time for class %q (add a service_sec entry or a service_rate_fps default)",
					nodes[ti].Name, c.Name)
			}
		}
	}
	return nil
}

// classAttachIndex resolves the class's attach tier to a node index;
// the root when the class names none.
func classAttachIndex(nodes []tierNode, c *Class) int {
	root := -1
	for i := range nodes {
		if c.Tier != "" && nodes[i].Name == c.Tier {
			return i
		}
		if nodes[i].parent < 0 {
			root = i
		}
	}
	return root
}

// computePlan resolves each tier's service scaling: plan[ti][ci] is the
// service demand in core-seconds per payload byte for class ci's frames
// at tier ti, so a frame of b bytes occupies plan[ti][ci]×b core-seconds
// there. plan is nil when no tier declares compute (the infinite-compute
// fast path), and plan[ti] is nil for tiers without a compute section.
func computePlan(nodes []tierNode, classes []Class) [][]float64 {
	var plan [][]float64
	for ti := range nodes {
		cc := nodes[ti].Compute
		if cc == nil {
			continue
		}
		if plan == nil {
			plan = make([][]float64, len(nodes))
		}
		row := make([]float64, len(classes))
		for ci := range classes {
			if ref := classes[ci].referenceBytes(); ref > 0 {
				row[ci] = cc.serviceSecFor(classes[ci].Name) / ref
			}
		}
		plan[ti] = row
	}
	return plan
}

// classPathScale sums a class's per-byte service demand over every
// compute tier between its attach point and the root: the deterministic
// compute cost, in core-seconds per byte, of offloading one payload byte
// end to end. Zero when no compute tier sits on the path.
func classPathScale(nodes []tierNode, plan [][]float64, ci int, attach int) float64 {
	if plan == nil {
		return 0
	}
	s := 0.0
	for ti := attach; ti >= 0; ti = nodes[ti].parent {
		if plan[ti] != nil {
			s += plan[ti][ci]
		}
	}
	return s
}

// classRowDelays prices each placement row's deterministic per-frame
// delay floor: the row's in-camera compute plus the expected path
// service time of its payload (offload probability × per-byte path
// demand × row bytes). Queueing rides on top of this floor at run time;
// the floor is what the controllers can price before observing it. A
// class without a placements table gets a single-row table.
func classRowDelays(c *Class, pathScale float64) []float64 {
	if len(c.Placements) == 0 {
		return []float64{c.ComputeSeconds + c.OffloadProb*pathScale*float64(c.FrameBytes)}
	}
	rows := make([]float64, len(c.Placements))
	for i, p := range c.Placements {
		rows[i] = p.ComputeSeconds + c.OffloadProb*pathScale*float64(p.FrameBytes)
	}
	return rows
}

// RowDelaySeconds reports the named class's per-placement-row delay
// floor (see classRowDelays) under this scenario's topology and compute
// sections: index i is the deterministic seconds per frame of placement
// row i — in-camera compute plus expected tier service — before any
// queueing. Rows through a congested tier therefore never observe less
// than this. Returns nil (no error) when no compute tier sits on the
// class's offload path, and an error for an unknown class or topology.
func (sc Scenario) RowDelaySeconds(class string) ([]float64, error) {
	sc, err := sc.resolved()
	if err != nil {
		return nil, err
	}
	nodes, _, err := sc.topology()
	if err != nil {
		return nil, err
	}
	ci := -1
	for i := range sc.Classes {
		if sc.Classes[i].Name == class {
			ci = i
			break
		}
	}
	if ci < 0 {
		return nil, fmt.Errorf("fleet: scenario %q: unknown class %q", sc.Name, class)
	}
	plan := computePlan(nodes, sc.Classes)
	c := &sc.Classes[ci]
	scale := classPathScale(nodes, plan, ci, classAttachIndex(nodes, c))
	if scale == 0 {
		return nil, nil
	}
	return classRowDelays(c, scale), nil
}

// newComputeServer builds a tier's core pool: Cores servers at one
// core-second per second, whose "bytes" are core-seconds of service
// demand (fifoServer or psServer, the same disciplines as the network
// links). The event loop drives it with the same Start/NextFinish/Finish
// protocol as the links, so compute completions need no new event kinds
// and inherit the deterministic (time, link index) tie-break.
func newComputeServer(cc *ComputeConfig) server {
	if cc.Discipline == ContentionFairShare {
		return &psServer{total: float64(cc.Cores), capped: true}
	}
	return &fifoServer{servers: cc.Cores, rate: 1}
}

// poolDone forwards the frame tier ti's core pool finished at t: it
// records the frame's queueing wait (sojourn minus service, clamped
// against fair-share float drift), then the frame starts transmission on
// the tier's uplink at the same instant.
func (e *engine) poolDone(t float64, ti, id int) {
	tr := &e.transfers[id]
	w := t - tr.compAt - e.compPlan[ti][e.cams[tr.cam].class]*tr.bytes
	if w < 0 {
		w = 0
	}
	e.compWait[ti].Add(w)
	e.links.start(ti, t, id, tr.bytes)
}
