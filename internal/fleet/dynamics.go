package fleet

import (
	"fmt"
	"math"
)

// DynamicsConfig is the optional "dynamics" scenario section: a
// time-ordered schedule of fleet events — churn, link degradation, tier
// outages with camera re-homing, diurnal rate profiles and scheduled
// core-count changes — executed inside the single sequential event loop.
// Absent (or present with an empty event list), results are byte-identical
// to every release before the section existed.
type DynamicsConfig struct {
	// Events is the fault/load schedule, in non-decreasing time order.
	// Each entry fires once at its time; churn entries with EverySec > 0
	// additionally re-fire with seeded exponential inter-arrival gaps
	// until the scenario's Duration.
	Events []FleetEvent `json:"events"`
}

// FleetEvent is one scheduled fleet change. Kind selects which of the
// per-kind fields apply; fields that do not belong to the kind must be
// left zero (validation rejects misplaced ones — a knob on the wrong
// event must not silently do nothing).
type FleetEvent struct {
	// Time is the simulated second the event fires at.
	Time float64 `json:"time_sec"`
	// Kind is one of the Dyn* event kind names below.
	Kind string `json:"kind"`

	// Class names the affected camera class (camera_join, camera_leave,
	// fps_profile).
	Class string `json:"class,omitempty"`
	// Count is how many cameras join or leave per firing; 0 is
	// normalized to 1 (camera_join, camera_leave).
	Count int `json:"count,omitempty"`
	// EverySec > 0 makes a churn entry recurring: after each firing the
	// next is drawn as an exponential gap with this mean, from the
	// entry's own seeded stream — a fourth seed family, so recurring
	// churn never perturbs frame-traffic draws (camera_join,
	// camera_leave).
	EverySec float64 `json:"every_sec,omitempty"`

	// Tier names the affected tier (link_degrade, link_restore,
	// tier_outage, tier_recover, compute_scale).
	Tier string `json:"tier,omitempty"`
	// Factor scales the tier's uplink capacity: served progress up to the
	// event is conserved, the remaining bytes continue at base × Factor.
	// 0 is a full link outage — traffic stalls until a restore
	// (link_degrade).
	Factor float64 `json:"factor,omitempty"`
	// Fallback names the tier the outaged tier's directly attached
	// classes re-home to for the outage's duration; they re-home back on
	// recovery. Required when any class attaches at the tier
	// (tier_outage).
	Fallback string `json:"fallback,omitempty"`

	// Multiplier rescales the class's capture rate (its FPS) from this
	// time on — piecewise-constant diurnal/bursty load (fps_profile).
	Multiplier float64 `json:"multiplier,omitempty"`
	// Cores is the tier core pool's new size (compute_scale).
	Cores int `json:"cores,omitempty"`
}

// Dynamics event kind names.
const (
	// DynCameraJoin adds Count cameras to Class at the event time. New
	// cameras continue the global camera-seed sequence, so existing
	// cameras' streams are untouched.
	DynCameraJoin = "camera_join"
	// DynCameraLeave retires Count cameras of Class, drawn from the
	// entry's seeded stream. In-flight frames of a departed camera still
	// complete; it just captures nothing further.
	DynCameraLeave = "camera_leave"
	// DynLinkDegrade rescales Tier's uplink capacity to base × Factor,
	// conserving in-flight progress; Factor 0 stalls the link outright.
	DynLinkDegrade = "link_degrade"
	// DynLinkRestore returns Tier's uplink to its base capacity.
	DynLinkRestore = "link_restore"
	// DynTierOutage takes Tier down: in-flight transfers through its
	// uplink (and core pool) are dropped and accounted as outage losses,
	// frames arriving while it is down are dropped on arrival, and
	// directly attached classes re-home to Fallback.
	DynTierOutage = "tier_outage"
	// DynTierRecover brings Tier back: downtime stops accruing and the
	// classes whose home it is re-home back.
	DynTierRecover = "tier_recover"
	// DynFPSProfile sets Class's capture-rate multiplier to Multiplier.
	DynFPSProfile = "fps_profile"
	// DynComputeScale resizes Tier's core pool to Cores.
	DynComputeScale = "compute_scale"
)

// normalize fills the section's defaulted fields in place (idempotent):
// a churn entry's unset Count means one camera per firing.
func (d *DynamicsConfig) normalize() {
	for i := range d.Events {
		e := &d.Events[i]
		if (e.Kind == DynCameraJoin || e.Kind == DynCameraLeave) && e.Count == 0 {
			e.Count = 1
		}
	}
}

// dynClassIndex resolves a class name to its index, or -1.
func dynClassIndex(sc *Scenario, name string) int {
	for i := range sc.Classes {
		if sc.Classes[i].Name == name {
			return i
		}
	}
	return -1
}

// dynTierIndex resolves a tier name to its node index, or -1.
func dynTierIndex(nodes []tierNode, name string) int {
	for i := range nodes {
		if nodes[i].Name == name {
			return i
		}
	}
	return -1
}

// validateDynamics checks the dynamics schedule against the resolved tier
// tree: known kinds, finite non-decreasing times, resolvable classes and
// tiers, in-range factors, per-tier outage/recover alternation, and a
// usable fallback for every outage that strands attached cameras. Each
// kind also rejects the other kinds' knobs — a misplaced field must fail,
// not silently do nothing.
func (sc *Scenario) validateDynamics(nodes []tierNode) error {
	d := sc.Dynamics
	if d == nil {
		return nil
	}
	if len(d.Events) > 0 && sc.Federated != nil {
		return fmt.Errorf("fleet: scenario %q: dynamics cannot combine with a federated job (dropping a round's blobs in an outage would deadlock its barrier)", sc.Name)
	}
	down := make(map[int]bool, 2)
	prev := 0.0
	for i := range d.Events {
		e := &d.Events[i]
		bad := func(format string, args ...any) error {
			return fmt.Errorf("fleet: scenario %q: dynamics event %d (%s): %s",
				sc.Name, i, e.Kind, fmt.Sprintf(format, args...))
		}
		if !(e.Time >= 0) || math.IsInf(e.Time, 0) {
			return bad("time %v sec must be finite and non-negative", e.Time)
		}
		if e.Time < prev {
			return bad("time %v sec before the previous event's %v (the schedule must be time-ordered)", e.Time, prev)
		}
		prev = e.Time
		churn := e.Kind == DynCameraJoin || e.Kind == DynCameraLeave
		if !churn && (e.Count != 0 || e.EverySec != 0) {
			return bad("count/every_sec belong to %s and %s only", DynCameraJoin, DynCameraLeave)
		}
		if e.Kind != DynLinkDegrade && e.Factor != 0 {
			return bad("factor belongs to %s only", DynLinkDegrade)
		}
		if e.Kind != DynTierOutage && e.Fallback != "" {
			return bad("fallback belongs to %s only", DynTierOutage)
		}
		if e.Kind != DynFPSProfile && e.Multiplier != 0 {
			return bad("multiplier belongs to %s only", DynFPSProfile)
		}
		if e.Kind != DynComputeScale && e.Cores != 0 {
			return bad("cores belongs to %s only", DynComputeScale)
		}
		needTier := func() (int, error) {
			ti := dynTierIndex(nodes, e.Tier)
			if ti < 0 {
				return -1, bad("unknown tier %q", e.Tier)
			}
			return ti, nil
		}
		switch e.Kind {
		case DynCameraJoin, DynCameraLeave:
			if e.Tier != "" {
				return bad("tier belongs to the link and tier kinds")
			}
			if dynClassIndex(sc, e.Class) < 0 {
				return bad("unknown class %q", e.Class)
			}
			if e.Count <= 0 {
				return bad("count %d must be positive", e.Count)
			}
			if !(e.EverySec >= 0) || math.IsInf(e.EverySec, 0) {
				return bad("every_sec %v must be finite and non-negative", e.EverySec)
			}
		case DynLinkDegrade:
			if _, err := needTier(); err != nil {
				return err
			}
			if !(e.Factor >= 0) || math.IsInf(e.Factor, 0) {
				return bad("factor %v out of range (a capacity scale must be finite and non-negative; 0 is an outage)", e.Factor)
			}
		case DynLinkRestore:
			if _, err := needTier(); err != nil {
				return err
			}
		case DynTierOutage:
			ti, err := needTier()
			if err != nil {
				return err
			}
			if nodes[ti].parent < 0 {
				return bad("the root tier cannot fail (degrade its link to factor 0 instead)")
			}
			if down[ti] {
				return bad("tier %q is already down", e.Tier)
			}
			down[ti] = true
			attached := false
			for ci := range sc.Classes {
				if classAttachIndex(nodes, &sc.Classes[ci]) == ti {
					attached = true
					break
				}
			}
			if attached && e.Fallback == "" {
				return bad("tier %q has attached classes and needs a fallback to re-home them to", e.Tier)
			}
			if e.Fallback != "" {
				fb := dynTierIndex(nodes, e.Fallback)
				if fb < 0 {
					return bad("unknown fallback tier %q", e.Fallback)
				}
				if fb == ti {
					return bad("fallback %q is the failing tier itself", e.Fallback)
				}
				for li := fb; li >= 0; li = nodes[li].parent {
					if li == ti {
						return bad("fallback %q offloads through the failing tier %q", e.Fallback, e.Tier)
					}
				}
			}
		case DynTierRecover:
			ti, err := needTier()
			if err != nil {
				return err
			}
			if !down[ti] {
				return bad("tier %q is not down", e.Tier)
			}
			down[ti] = false
		case DynFPSProfile:
			if e.Tier != "" {
				return bad("tier belongs to the link and tier kinds")
			}
			if dynClassIndex(sc, e.Class) < 0 {
				return bad("unknown class %q", e.Class)
			}
			if !(e.Multiplier > 0) || math.IsInf(e.Multiplier, 0) {
				return bad("multiplier %v must be positive and finite", e.Multiplier)
			}
		case DynComputeScale:
			ti, err := needTier()
			if err != nil {
				return err
			}
			if nodes[ti].Compute == nil {
				return bad("tier %q has no compute section to scale", e.Tier)
			}
			if e.Cores <= 0 {
				return bad("cores %d must be positive", e.Cores)
			}
		default:
			return bad("unknown event kind")
		}
	}
	return nil
}

// DynamicsStats is the run-wide accounting of the dynamics schedule; set
// on Result.Dynamics only when the scenario carries a non-empty schedule.
// Per-tier downtime and outage drops land on TierStats; per-class churn
// and outage-drop counters on ClassStats.
type DynamicsStats struct {
	// Events is the schedule length (recurring firings not counted).
	Events int
	// Joined and Left count cameras added and retired by churn.
	Joined, Left int64
	// Rehomed counts camera re-homings (outage and recovery directions
	// both; a camera re-homed out and back counts twice).
	Rehomed int64
	// DroppedOutage counts frames lost to outages fleet-wide: in-flight
	// transfers through a failing tier, arrivals at a down tier, and
	// transfers stalled forever on a never-restored zero-capacity link.
	DroppedOutage int64
}

// dynamics is the live fault-schedule state of one run, created only for
// a non-empty schedule so every other run bypasses it entirely.
type dynamics struct {
	events []FleetEvent
	rngs   []prng // per-entry churn streams (dynamics seed family)
	class  []int  // resolved class index per entry, -1 when kind has none
	tier   []int  // resolved tier index per entry, -1
	fall   []int  // resolved fallback tier index per entry, -1

	// fpsMul is each class's current capture-rate multiplier (1 nominal).
	fpsMul []float64

	// Per-tier uplink capacity state: the nominal bytes/sec, the current
	// degradation factor, and a running ∫factor·dt so telemetry windows
	// can report their mean available-capacity fraction.
	baseCap  []float64
	capFac   []float64
	capLastT []float64
	capInt   []float64

	// Per-tier outage state and accounting.
	down        []bool
	downAt      []float64
	downtime    []float64
	outageDrops []int64

	// home is each class's original first-hop tier, the one it re-homes
	// back to on recovery.
	home []int

	stats DynamicsStats
}

// newDynamics resolves the schedule against the run's tier tree. Names
// were validated; resolution here cannot fail.
func newDynamics(sc *Scenario, nodes []tierNode, firstHop []int) *dynamics {
	evs := sc.Dynamics.Events
	dyn := &dynamics{
		events:      evs,
		rngs:        make([]prng, len(evs)),
		class:       make([]int, len(evs)),
		tier:        make([]int, len(evs)),
		fall:        make([]int, len(evs)),
		fpsMul:      make([]float64, len(sc.Classes)),
		baseCap:     make([]float64, len(nodes)),
		capFac:      make([]float64, len(nodes)),
		capLastT:    make([]float64, len(nodes)),
		capInt:      make([]float64, len(nodes)),
		down:        make([]bool, len(nodes)),
		downAt:      make([]float64, len(nodes)),
		downtime:    make([]float64, len(nodes)),
		outageDrops: make([]int64, len(nodes)),
		home:        append([]int(nil), firstHop...),
		stats:       DynamicsStats{Events: len(evs)},
	}
	for ci := range dyn.fpsMul {
		dyn.fpsMul[ci] = 1
	}
	for ni := range nodes {
		dyn.baseCap[ni] = nodes[ni].Uplink.BytesPerSecond()
		dyn.capFac[ni] = 1
	}
	for i := range evs {
		e := &evs[i]
		dyn.rngs[i] = newPRNG(streamSeed(sc.Seed, seedDynamics, i))
		dyn.class[i] = -1
		dyn.tier[i] = -1
		dyn.fall[i] = -1
		if e.Class != "" {
			dyn.class[i] = dynClassIndex(sc, e.Class)
		}
		if e.Tier != "" {
			dyn.tier[i] = dynTierIndex(nodes, e.Tier)
		}
		if e.Fallback != "" {
			dyn.fall[i] = dynTierIndex(nodes, e.Fallback)
		}
	}
	return dyn
}

// rescale records a capacity-factor change on tier ti at time t,
// accruing the outgoing factor's integral first.
func (dyn *dynamics) rescale(t float64, ti int, factor float64) {
	dyn.capInt[ti] += dyn.capFac[ti] * (t - dyn.capLastT[ti])
	dyn.capLastT[ti] = t
	dyn.capFac[ti] = factor
}

// capIntegralAt projects ∫factor·dt for tier ti forward to time t
// without mutating state (t must not precede the last recorded change).
func (dyn *dynamics) capIntegralAt(ti int, t float64) float64 {
	return dyn.capInt[ti] + dyn.capFac[ti]*(t-dyn.capLastT[ti])
}

// downtimeAt projects tier ti's accrued downtime seconds to time t.
func (dyn *dynamics) downtimeAt(ti int, t float64) float64 {
	dt := dyn.downtime[ti]
	if dyn.down[ti] && t > dyn.downAt[ti] {
		dt += t - dyn.downAt[ti]
	}
	return dt
}

// fire executes schedule entry i at time t, then re-arms a recurring
// churn entry from its own seeded stream.
func (e *engine) fire(t float64, i int) {
	dyn := e.dyn
	fe := &dyn.events[i]
	switch fe.Kind {
	case DynCameraJoin:
		ci := dyn.class[i]
		for k := 0; k < fe.Count; k++ {
			e.spawnCamera(ci, t)
			e.res.Classes[ci].Cameras++
			e.res.Classes[ci].Joined++
			dyn.stats.Joined++
		}
	case DynCameraLeave:
		ci := dyn.class[i]
		for k := 0; k < fe.Count && len(e.classCams[ci]) > 0; k++ {
			// The leaver is drawn from the entry's own stream (swap-remove
			// keeps the pick O(1)); its in-flight frames still complete, it
			// just captures nothing further.
			members := e.classCams[ci]
			n := len(members)
			pick := dyn.rngs[i].Intn(n)
			camIdx := members[pick]
			members[pick] = members[n-1]
			e.classCams[ci] = members[:n-1]
			e.cams[camIdx].departed = true
			e.res.Classes[ci].Cameras--
			e.res.Classes[ci].Left++
			dyn.stats.Left++
		}
	case DynLinkDegrade:
		// The link's server (fifoServer or psServer) conserves the
		// progress of work in service; factor 0 parks it until a restore.
		ti := dyn.tier[i]
		dyn.rescale(t, ti, fe.Factor)
		e.links.setCapacity(ti, t, dyn.baseCap[ti]*fe.Factor)
	case DynLinkRestore:
		ti := dyn.tier[i]
		dyn.rescale(t, ti, 1)
		e.links.setCapacity(ti, t, dyn.baseCap[ti])
	case DynTierOutage:
		ti := dyn.tier[i]
		dyn.down[ti] = true
		dyn.downAt[ti] = t
		// In-flight transfers through the dead tier — its uplink and its
		// core pool — are lost, in completion order then waiting order,
		// with no served credit.
		e.drainOutage(ti)
		if li := e.compLink[ti]; li >= 0 {
			e.drainOutage(li)
		}
		if fb := dyn.fall[i]; fb >= 0 {
			for ci := range e.sc.Classes {
				if e.firstHop[ci] == ti {
					e.rehome(ci, fb)
				}
			}
		}
	case DynTierRecover:
		ti := dyn.tier[i]
		dyn.down[ti] = false
		if d := t - dyn.downAt[ti]; d > 0 {
			dyn.downtime[ti] += d
		}
		for ci := range e.sc.Classes {
			if dyn.home[ci] == ti && e.firstHop[ci] != ti {
				e.rehome(ci, ti)
			}
		}
	case DynFPSProfile:
		dyn.fpsMul[dyn.class[i]] = fe.Multiplier
	case DynComputeScale:
		// A FIFO pool promotes waiting frames onto new cores and never
		// preempts on a shrink; a fair-share pool re-splits at once.
		e.links.setCores(e.compLink[dyn.tier[i]], t, fe.Cores)
	}
	if fe.EverySec > 0 {
		if nt := t + dyn.rngs[i].ExpFloat64()*fe.EverySec; nt < e.sc.Duration {
			e.push(nt, evDynamics, 0, int32(i))
		}
	}
}

// rehome moves class ci's first hop to tier ti and reprices its rows
// (routeClass); the controllers read the repriced tables at their next
// decision.
func (e *engine) rehome(ci, ti int) {
	e.routeClass(ci, ti)
	moved := int64(len(e.classCams[ci]))
	e.dyn.stats.Rehomed += moved
	e.res.Classes[ci].Rehomed += moved
}

// drainOutage empties link li, every transfer in it lost to an outage
// at the link's owner tier.
func (e *engine) drainOutage(li int) {
	for _, id := range e.links.drain(li) {
		e.dropOutage(e.owner[li], id)
	}
}

// drainStalled ends a run whose every in-flight transfer is parked on a
// zero-capacity link nothing will ever restore: the schedule is spent
// and no event remains. The transfers are drained as outage losses —
// accounted, never silently lost — so the event loop terminates.
func (e *engine) drainStalled() {
	for li, l := range e.links.links {
		if l.InFlight() > 0 {
			e.drainOutage(li)
		}
	}
}
