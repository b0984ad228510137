package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"camsim/internal/core"
	"camsim/internal/energy"
	"camsim/internal/fleet/fl"
	"camsim/internal/platform"
	"camsim/internal/vr"
)

// Scenario describes one fleet simulation: a camera population, a network
// (a tier tree, or a flat or gateway shorthand for one) and a duration.
// See the package comment for the JSON form.
type Scenario struct {
	Name     string  `json:"name"`
	Seed     int64   `json:"seed"`
	Duration float64 `json:"duration_sec"` // simulated seconds of capture
	// Uplink is the root link of a scenario without Tiers: alone it is
	// the flat model's one shared link, with Gateways the WAN link every
	// gateway funnels into. Either way it is shorthand for a root tier
	// named "wan" (see Tiers). With Tiers it may be omitted; Normalize
	// then mirrors the root tier's uplink into it.
	Uplink UplinkConfig `json:"uplink"`
	// Gateways is shorthand for a two-tier tree: each gateway becomes a
	// leaf tier, in declaration order, under the "wan" root that carries
	// Uplink, with zero propagation. Mutually exclusive with Tiers.
	Gateways []Gateway `json:"gateways,omitempty"`
	// Tiers describes the network as an arbitrary-depth tier tree, the
	// one form the simulator runs: each tier names its parent (one root
	// leaves it empty), carries its own uplink and a one-way propagation
	// delay, and a transfer rides every link from its class's attach
	// point (Class.Tier) to the root. A scenario without Tiers is turned
	// into its tree, rooted at "wan", before it is validated or run.
	Tiers   []Tier  `json:"tiers,omitempty"`
	Classes []Class `json:"classes"`
	// Global, when present, runs the fleet-wide energy-aware placement
	// controller: on a seeded epoch tick it sees every class's window
	// stats, scores placements on per-frame energy (camera-side transmit
	// plus per-hop forwarding along the tier tree), and reassigns cameras
	// so the fleet's projected placement power stays under BudgetW.
	Global *GlobalConfig `json:"global,omitempty"`
	// Federated, when present, runs a round-structured federated-learning
	// job over the tier tree: participating cameras push update blobs up
	// their attach tier's uplink, tiers aggregate fan-in blobs to one per
	// round, and the cloud broadcasts the merged model down the tree's
	// downlinks to start the next round. Every tier of the broadcast span
	// needs a downlink, which only the "tiers" form can declare.
	Federated *fl.Config `json:"federated,omitempty"`
	// Telemetry, when present, opts the run into streaming statistics:
	// bounded-memory quantile sketches in place of exact per-class
	// latency sample sets, and (with a window) a per-window time series.
	// Absent, results are byte-identical to every release before the
	// section existed.
	Telemetry *TelemetryConfig `json:"telemetry,omitempty"`
	// Dynamics, when present with a non-empty schedule, injects
	// time-ordered fleet events into the run: camera churn, link
	// degradation, tier outages with re-homing, capture-rate profiles
	// and core-pool resizes. Absent — or present with an empty event
	// list — results are byte-identical to every release before the
	// section existed.
	Dynamics *DynamicsConfig `json:"dynamics,omitempty"`
}

// UplinkConfig sizes one shared link and names its contention model.
type UplinkConfig struct {
	Gbps       float64 `json:"gbps"`
	Contention string  `json:"contention"` // ContentionFairShare (default) or ContentionFIFO
}

// Gateway is one edge aggregation point: the cameras attached to it share
// its camera→gateway uplink before their traffic enters the WAN tier.
type Gateway struct {
	Name   string       `json:"name"`
	Uplink UplinkConfig `json:"uplink"`
}

// BytesPerSecond returns the uplink's payload capacity.
func (u UplinkConfig) BytesPerSecond() float64 { return u.Gbps * 1e9 / 8 }

// Class is a population of identical cameras.
type Class struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	FPS     float64 `json:"fps"`     // capture rate per camera
	Arrival string  `json:"arrival"` // "periodic" (default) or "poisson"

	// FrameBytes is the offload payload per transmitted frame; 0 means the
	// class never offloads (a fully in-camera decision pipeline).
	FrameBytes int64 `json:"frame_bytes"`
	// OffloadProb is the fraction of captured frames that produce an
	// offload (a progressive-filtering pipeline ships only survivors).
	// Zero with FrameBytes > 0 is normalized to 1.
	OffloadProb float64 `json:"offload_prob"`
	// ComputeSeconds is the in-camera processing time per frame; the
	// offload enters the uplink that long after capture.
	ComputeSeconds float64 `json:"compute_sec"`
	// QueueDepth caps a camera's in-flight offloads; a frame captured at
	// the cap is dropped (backpressure). Zero is normalized to 4.
	QueueDepth int `json:"queue_depth"`

	// Per-frame energy model, joules.
	CaptureJ   float64 `json:"capture_j"`
	ComputeJ   float64 `json:"compute_j"`
	TxFixedJ   float64 `json:"tx_fixed_j"`
	TxPerByteJ float64 `json:"tx_per_byte_j"`

	// HarvestW > 0 marks the class energy-harvesting: each camera owns a
	// store of StoreJ joules charged at HarvestW watts, and skips frames
	// the store cannot pay for.
	HarvestW float64 `json:"harvest_w"`
	StoreJ   float64 `json:"store_j"`

	// Gateway is shorthand for Tier, kept for the gateway form: it names
	// the gateway the class's cameras attach to. It may not name the
	// "wan" root of a scenario without Tiers, nor disagree with Tier.
	Gateway string `json:"gateway,omitempty"`
	// Tier attaches the class's cameras to the named tier; empty attaches
	// them at the root.
	Tier string `json:"tier,omitempty"`

	// Placements, when non-empty, is the class's runtime cost table:
	// each camera holds a current placement index and uses that row's
	// frame bytes / compute time / compute energy instead of the
	// class-level FrameBytes, ComputeSeconds and ComputeJ. Order the rows
	// from most-offload (index 0) to most-in-camera (last): the adaptive
	// policies step indices up under congestion and down when idle.
	Placements []PlacementCost `json:"placements,omitempty"`
	// Policy controls how cameras move through Placements at runtime.
	Policy PolicyConfig `json:"policy,omitempty"`
}

// PlacementCost is one row of a class's runtime cost table — the fleet
// mirror of core.CostEntry, carrying the per-frame numbers the simulator
// charges while a camera holds this placement.
type PlacementCost struct {
	Name           string  `json:"name"`
	FrameBytes     int64   `json:"frame_bytes"`
	ComputeSeconds float64 `json:"compute_sec"`
	ComputeJ       float64 `json:"compute_j"`
}

// PolicyConfig is a class's adaptive-placement policy: every IntervalSec
// of simulated time a per-class controller looks at the offload latencies
// and queue drops observed since its last decision and moves a fraction of
// the class's cameras along the Placements table.
type PolicyConfig struct {
	// Kind selects the decision rule: PolicyStatic (default, never moves),
	// PolicyLatencyThreshold (one-way escalation toward in-camera compute
	// when the window p95 exceeds HighSec or frames were queue-dropped) or
	// PolicyHysteresis (two thresholds: above HighSec step toward
	// in-camera, below LowSec step back toward offload, hold in between).
	Kind string `json:"kind,omitempty"`
	// IntervalSec is the control period; 0 is normalized to 1.
	IntervalSec float64 `json:"interval_sec,omitempty"`
	// HighSec is the congestion threshold on window p95 offload latency.
	HighSec float64 `json:"high_sec,omitempty"`
	// LowSec is the idle threshold (hysteresis only); 0 is normalized to
	// HighSec/4.
	LowSec float64 `json:"low_sec,omitempty"`
	// MoveFraction is the fraction of the class moved per decision; 0 is
	// normalized to 0.25. Which cameras move is drawn from the scenario's
	// seeded controller stream.
	MoveFraction float64 `json:"move_fraction,omitempty"`
	// Start is the initial placement index of every camera in the class.
	Start int `json:"start,omitempty"`
	// EnergyWeight (energy-latency policy only) converts joules per frame
	// into comparable seconds of latency: the controller moves cameras
	// toward an adjacent placement when the weighted per-frame energy
	// saving outweighs the latency it risks re-adding. Zero disables every
	// energy-motivated move, leaving exactly the latency-threshold rule.
	EnergyWeight float64 `json:"energy_weight,omitempty"`
}

// GlobalConfig configures the fleet-wide energy-aware placement
// controller. It runs above the per-class policies on its own epoch tick:
// each epoch it recomputes the fleet's projected placement power — every
// camera's per-frame energy at its current placement row times its capture
// rate — and greedily reassigns cameras (cheapest watts first, most p95
// headroom first) until the projection fits BudgetW.
type GlobalConfig struct {
	// EpochSec is the controller's decision period; 0 is normalized to 1.
	EpochSec float64 `json:"epoch_sec,omitempty"`
	// BudgetW is the fleet-wide placement power budget in watts (camera
	// energy plus per-hop network forwarding). Required and positive.
	BudgetW float64 `json:"budget_w"`
	// HighSec marks a class congested when its epoch-window p95 offload
	// latency exceeds it: congested classes get latency-relief moves and
	// are exempt from energy shedding that epoch. 0 means never congested.
	HighSec float64 `json:"high_sec,omitempty"`
	// MoveFraction caps the fraction of any one class reassigned per
	// epoch; 0 is normalized to 0.25.
	MoveFraction float64 `json:"move_fraction,omitempty"`
}

// Placement policy names.
const (
	PolicyStatic           = "static"
	PolicyLatencyThreshold = "latency-threshold"
	PolicyHysteresis       = "hysteresis"
	// PolicyEnergyLatency extends latency-threshold with energy-motivated
	// moves: congestion still escalates toward in-camera compute, but in
	// the absence of congestion the controller walks cameras toward the
	// adjacent placement whose weighted per-frame energy saving (see
	// PolicyConfig.EnergyWeight) beats the observed p95 it would risk.
	PolicyEnergyLatency = "energy-latency"
)

// adaptive reports whether the class runs a placement controller.
func (c *Class) adaptive() bool {
	return len(c.Placements) > 0 && c.Policy.Kind != PolicyStatic
}

// Arrival pattern names.
const (
	ArrivalPeriodic = "periodic"
	ArrivalPoisson  = "poisson"
)

// ParseScenario decodes, normalizes and validates a JSON scenario.
// Decoding is strict: an unknown field is an error, not silently ignored
// configuration — a misspelled knob in a scenario file must not run as if
// it were absent.
func ParseScenario(data []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("fleet: decoding scenario: %w", err)
	}
	// A scenario is one JSON object; trailing non-space content is a
	// second document, not padding.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Scenario{}, fmt.Errorf("fleet: decoding scenario: trailing data after the scenario object")
	}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// clone returns sc with fresh storage for every section Normalize writes
// defaults into — the class and tier slices, each tier's
// downlink and compute, and the global, federated and dynamics sections —
// plus telemetry, so a run's normalized copy shares no mutable section
// with the caller or, under Sweep, with sibling scenarios.
func (sc Scenario) clone() Scenario {
	sc.Classes = append([]Class(nil), sc.Classes...)
	sc.Tiers = append([]Tier(nil), sc.Tiers...)
	for i := range sc.Tiers {
		if d := sc.Tiers[i].Downlink; d != nil {
			dd := *d
			sc.Tiers[i].Downlink = &dd
		}
		if cp := sc.Tiers[i].Compute; cp != nil {
			cc := *cp
			sc.Tiers[i].Compute = &cc
		}
	}
	if sc.Global != nil {
		g := *sc.Global
		sc.Global = &g
	}
	if sc.Telemetry != nil {
		tc := *sc.Telemetry
		sc.Telemetry = &tc
	}
	if sc.Dynamics != nil {
		dd := *sc.Dynamics
		dd.Events = append([]FleetEvent(nil), dd.Events...)
		sc.Dynamics = &dd
	}
	sc.Federated = sc.Federated.Clone()
	return sc
}

// resolved returns a private, normalized copy of sc in the one form the
// simulator runs: a tier tree. A scenario without Tiers becomes the tree
// it already meant — each gateway a leaf, in declaration order, under a
// root named "wan" that comes last and carries the top-level uplink, all
// with zero propagation — and a class's Gateway becomes its Tier. Only
// this function reads the shorthand fields, so it also rejects the
// inputs that have no tree: tiers mixed with gateways, a class whose tier
// and gateway disagree, and a class attached to "wan" by gateway name.
func (sc Scenario) resolved() (Scenario, error) {
	if len(sc.Tiers) > 0 && len(sc.Gateways) > 0 {
		return Scenario{}, fmt.Errorf("fleet: scenario %q: tiers and gateways are mutually exclusive", sc.Name)
	}
	sc = sc.clone()
	for i := range sc.Classes {
		c := &sc.Classes[i]
		switch {
		case c.Gateway == "":
			continue
		case c.Tier != "" && c.Tier != c.Gateway:
			return Scenario{}, fmt.Errorf("fleet: class %q: tier %q and gateway %q disagree", c.Name, c.Tier, c.Gateway)
		case len(sc.Tiers) == 0 && c.Gateway == rootTierName:
			return Scenario{}, fmt.Errorf("fleet: class %q: gateway name %q is reserved for the top tier", c.Name, rootTierName)
		}
		c.Tier, c.Gateway = c.Gateway, ""
	}
	if len(sc.Tiers) == 0 {
		sc.Tiers = make([]Tier, 0, len(sc.Gateways)+1)
		for _, gw := range sc.Gateways {
			sc.Tiers = append(sc.Tiers, Tier{Name: gw.Name, Parent: rootTierName, Uplink: gw.Uplink})
		}
		sc.Tiers = append(sc.Tiers, Tier{Name: rootTierName, Uplink: sc.Uplink})
		sc.Gateways = nil
	}
	sc.Normalize()
	return sc, nil
}

// Normalize fills defaulted fields in place: contention models (every
// tier), arrival pattern, queue depth, offload probability and the
// adaptive-policy knobs. It is idempotent. It leaves the flat and gateway
// shorthands as written; Run and Validate turn them into tiers first.
func (sc *Scenario) Normalize() {
	// Whether the scenario declared any top-level uplink at all, before
	// defaults obscure it: a declared uplink is never overwritten by the
	// tier-tree mirror below (Validate rejects a disagreement instead).
	uplinkDeclared := sc.Uplink != (UplinkConfig{})
	if sc.Uplink.Contention == "" {
		sc.Uplink.Contention = ContentionFairShare
	}
	root := -1
	for i := range sc.Tiers {
		if sc.Tiers[i].Uplink.Contention == "" {
			sc.Tiers[i].Uplink.Contention = ContentionFairShare
		}
		if d := sc.Tiers[i].Downlink; d != nil && d.Contention == "" {
			d.Contention = ContentionFairShare
		}
		if cc := sc.Tiers[i].Compute; cc != nil {
			cc.normalize()
		}
		if sc.Tiers[i].Parent == "" && root < 0 {
			root = i
		}
	}
	if root >= 0 && !uplinkDeclared {
		// The tier tree is authoritative: mirror the root link into an
		// undeclared top-level Uplink so Scenario.Uplink always reports
		// the real top tier.
		sc.Uplink = sc.Tiers[root].Uplink
	}
	for i := range sc.Classes {
		c := &sc.Classes[i]
		if c.Arrival == "" {
			c.Arrival = ArrivalPeriodic
		}
		if c.QueueDepth == 0 {
			c.QueueDepth = 4
		}
		if (c.FrameBytes > 0 || len(c.Placements) > 0) && c.OffloadProb == 0 {
			c.OffloadProb = 1
		}
		if len(c.Placements) > 0 {
			p := &c.Policy
			if p.Kind == "" {
				p.Kind = PolicyStatic
			}
			if p.IntervalSec == 0 {
				p.IntervalSec = 1
			}
			if p.MoveFraction == 0 {
				p.MoveFraction = 0.25
			}
			if p.Kind == PolicyHysteresis && p.LowSec == 0 {
				p.LowSec = p.HighSec / 4
			}
		}
	}
	if g := sc.Global; g != nil {
		if g.EpochSec == 0 {
			g.EpochSec = 1
		}
		if g.MoveFraction == 0 {
			g.MoveFraction = 0.25
		}
	}
	if sc.Federated != nil {
		sc.Federated.Normalize()
	}
	if sc.Dynamics != nil {
		sc.Dynamics.normalize()
	}
}

// validateUplink checks one tier's link configuration.
func validateUplink(u UplinkConfig, tier string) error {
	if !(u.Gbps > 0) || math.IsInf(u.Gbps, 0) {
		return fmt.Errorf("fleet: %s: uplink %v Gbps must be positive and finite", tier, u.Gbps)
	}
	if u.Contention != ContentionFairShare && u.Contention != ContentionFIFO {
		return fmt.Errorf("fleet: %s: unknown contention model %q", tier, u.Contention)
	}
	return nil
}

// Validate rejects scenarios the simulator cannot run: it accepts exactly
// what Run accepts, defaults unfilled or not.
func (sc *Scenario) Validate() error {
	r, err := sc.resolved()
	if err != nil {
		return err
	}
	return r.validate(nil)
}

// validate checks a resolved scenario (see resolved) over an optionally
// pre-resolved tier tree: Run resolves the topology once and shares it,
// everyone else passes nil.
func (sc *Scenario) validate(nodes []tierNode) error {
	if !(sc.Duration > 0) || math.IsInf(sc.Duration, 0) {
		return fmt.Errorf("fleet: scenario %q: duration %v must be positive and finite", sc.Name, sc.Duration)
	}
	if nodes == nil {
		var err error
		if nodes, _, err = sc.topology(); err != nil {
			return err
		}
	}
	if err := sc.validateTopologyNodes(nodes); err != nil {
		return err
	}
	if err := sc.validateComputeNodes(nodes); err != nil {
		return err
	}
	if len(sc.Classes) == 0 {
		return fmt.Errorf("fleet: scenario %q has no camera classes", sc.Name)
	}
	total := 0
	for _, c := range sc.Classes {
		if c.Count <= 0 {
			return fmt.Errorf("fleet: class %q: count %d must be positive", c.Name, c.Count)
		}
		if !(c.FPS > 0) || math.IsInf(c.FPS, 0) {
			return fmt.Errorf("fleet: class %q: fps %v must be positive and finite", c.Name, c.FPS)
		}
		if sc.Duration+1/c.FPS == sc.Duration {
			// The capture clock would stall before the horizon.
			return fmt.Errorf("fleet: class %q: fps %v is too high for its capture period to advance the clock at duration %v",
				c.Name, c.FPS, sc.Duration)
		}
		if c.Arrival != ArrivalPeriodic && c.Arrival != ArrivalPoisson {
			return fmt.Errorf("fleet: class %q: unknown arrival pattern %q", c.Name, c.Arrival)
		}
		if c.FrameBytes < 0 || c.QueueDepth < 0 {
			return fmt.Errorf("fleet: class %q: negative frame bytes or queue depth", c.Name)
		}
		if !(c.ComputeSeconds >= 0) || math.IsInf(c.ComputeSeconds, 0) {
			return fmt.Errorf("fleet: class %q: compute_sec %v must be finite and non-negative", c.Name, c.ComputeSeconds)
		}
		if c.OffloadProb < 0 || c.OffloadProb > 1 {
			return fmt.Errorf("fleet: class %q: offload probability %v outside [0,1]", c.Name, c.OffloadProb)
		}
		if c.CaptureJ < 0 || c.ComputeJ < 0 || c.TxFixedJ < 0 || c.TxPerByteJ < 0 {
			return fmt.Errorf("fleet: class %q: negative energy parameters", c.Name)
		}
		if c.HarvestW < 0 || (c.HarvestW > 0 && c.StoreJ <= 0) {
			return fmt.Errorf("fleet: class %q: harvesting needs positive harvest power and store", c.Name)
		}
		if err := c.validatePlacements(); err != nil {
			return err
		}
		total += c.Count
	}
	if total == 0 {
		return fmt.Errorf("fleet: scenario %q has no cameras", sc.Name)
	}
	if err := sc.validateGlobal(); err != nil {
		return err
	}
	if err := sc.validateFederated(nodes); err != nil {
		return err
	}
	if err := sc.validateTelemetry(); err != nil {
		return err
	}
	if err := sc.validateDynamics(nodes); err != nil {
		return err
	}
	return nil
}

// validateFederated checks the federated-learning section against the
// resolved tier tree by building (and discarding) the round engine — the
// same constructor Run uses, so validation and simulation cannot
// disagree about what is runnable.
func (sc *Scenario) validateFederated(nodes []tierNode) error {
	f := sc.Federated
	if f == nil {
		return nil
	}
	if err := f.Validate(); err != nil {
		return fmt.Errorf("fleet: scenario %q: %w", sc.Name, err)
	}
	topo, err := sc.flTopology(nodes)
	if err != nil {
		return err
	}
	if _, err := fl.NewEngine(*f, topo); err != nil {
		return fmt.Errorf("fleet: scenario %q: %w", sc.Name, err)
	}
	return nil
}

// flTopology builds the federated engine's view of the resolved tier
// tree: names, parent pointers, downlink presence, and the participating
// camera census per attach tier (every class when Federated.Classes is
// empty, else exactly the named ones).
func (sc *Scenario) flTopology(nodes []tierNode) (fl.Topology, error) {
	topo := fl.Topology{
		Names:   make([]string, len(nodes)),
		Parent:  make([]int, len(nodes)),
		Cams:    make([]int, len(nodes)),
		HasDown: make([]bool, len(nodes)),
		Root:    -1,
	}
	idx := make(map[string]int, len(nodes))
	for i, nd := range nodes {
		topo.Names[i] = nd.Name
		topo.Parent[i] = nd.parent
		topo.HasDown[i] = nd.Downlink != nil
		idx[nd.Name] = i
		if nd.parent < 0 {
			topo.Root = i
		}
	}
	part := make(map[string]bool, len(sc.Federated.Classes))
	for _, name := range sc.Federated.Classes {
		known := false
		for i := range sc.Classes {
			if sc.Classes[i].Name == name {
				known = true
				break
			}
		}
		if !known {
			return fl.Topology{}, fmt.Errorf("fleet: scenario %q: federated class %q not in the scenario", sc.Name, name)
		}
		part[name] = true
	}
	for i := range sc.Classes {
		c := &sc.Classes[i]
		if len(part) > 0 && !part[c.Name] {
			continue
		}
		ti := topo.Root
		if c.Tier != "" {
			ti = idx[c.Tier]
		}
		topo.Cams[ti] += c.Count
	}
	return topo, nil
}

// validateGlobal checks the fleet-wide controller configuration.
func (sc *Scenario) validateGlobal() error {
	g := sc.Global
	if g == nil {
		return nil
	}
	if !(g.BudgetW > 0) || math.IsInf(g.BudgetW, 0) {
		return fmt.Errorf("fleet: scenario %q: global budget %v W must be positive and finite", sc.Name, g.BudgetW)
	}
	if !(g.EpochSec > 0) || math.IsInf(g.EpochSec, 0) {
		return fmt.Errorf("fleet: scenario %q: global epoch %v sec must be positive and finite", sc.Name, g.EpochSec)
	}
	if !(g.HighSec >= 0) || math.IsInf(g.HighSec, 0) {
		return fmt.Errorf("fleet: scenario %q: global high_sec %v must be finite and non-negative", sc.Name, g.HighSec)
	}
	if !(g.MoveFraction > 0) || g.MoveFraction > 1 {
		return fmt.Errorf("fleet: scenario %q: global move fraction %v outside (0,1]", sc.Name, g.MoveFraction)
	}
	for _, c := range sc.Classes {
		if len(c.Placements) > 0 {
			return nil
		}
	}
	return fmt.Errorf("fleet: scenario %q: global controller with no placements table to reassign", sc.Name)
}

// validatePlacements checks the class's runtime cost table and policy.
func (c *Class) validatePlacements() error {
	p := &c.Policy
	if len(c.Placements) == 0 {
		if p.Kind != "" && p.Kind != PolicyStatic {
			return fmt.Errorf("fleet: class %q: policy %q without a placements table", c.Name, p.Kind)
		}
		return nil
	}
	for i, pc := range c.Placements {
		if pc.FrameBytes <= 0 {
			return fmt.Errorf("fleet: class %q: placement %d (%s) frame bytes %d must be positive",
				c.Name, i, pc.Name, pc.FrameBytes)
		}
		if !(pc.ComputeSeconds >= 0) || math.IsInf(pc.ComputeSeconds, 0) {
			return fmt.Errorf("fleet: class %q: placement %d (%s) compute_sec %v must be finite and non-negative",
				c.Name, i, pc.Name, pc.ComputeSeconds)
		}
		if pc.ComputeJ < 0 || math.IsNaN(pc.ComputeJ) {
			return fmt.Errorf("fleet: class %q: placement %d (%s) has negative compute cost",
				c.Name, i, pc.Name)
		}
	}
	switch p.Kind {
	case PolicyStatic:
	case PolicyLatencyThreshold, PolicyHysteresis, PolicyEnergyLatency:
		if !(p.HighSec > 0) || math.IsInf(p.HighSec, 0) {
			return fmt.Errorf("fleet: class %q: policy %q needs a positive finite high_sec", c.Name, p.Kind)
		}
		if !(p.LowSec >= 0) || p.LowSec > p.HighSec {
			return fmt.Errorf("fleet: class %q: low_sec %v outside [0, high_sec %v]", c.Name, p.LowSec, p.HighSec)
		}
	default:
		return fmt.Errorf("fleet: class %q: unknown placement policy %q", c.Name, p.Kind)
	}
	if !(p.EnergyWeight >= 0) || math.IsInf(p.EnergyWeight, 0) {
		return fmt.Errorf("fleet: class %q: energy weight %v must be finite and non-negative", c.Name, p.EnergyWeight)
	}
	if !(p.IntervalSec > 0) || math.IsInf(p.IntervalSec, 0) {
		return fmt.Errorf("fleet: class %q: policy interval %v must be positive and finite", c.Name, p.IntervalSec)
	}
	if !(p.MoveFraction > 0) || p.MoveFraction > 1 {
		return fmt.Errorf("fleet: class %q: move fraction %v outside (0,1]", c.Name, p.MoveFraction)
	}
	if p.Start < 0 || p.Start >= len(c.Placements) {
		return fmt.Errorf("fleet: class %q: start placement %d outside table of %d", c.Name, p.Start, len(c.Placements))
	}
	return nil
}

// Cameras returns the total camera population.
func (sc *Scenario) Cameras() int {
	n := 0
	for _, c := range sc.Classes {
		n += c.Count
	}
	return n
}

// FaceAuthClass models the §III battery-free face-authentication camera as
// a fleet class. The per-frame energy comes from a core.EnergyPipeline
// assembled out of the internal/energy device models (streaming motion
// gate, Viola-Jones accelerator, accelerated NN over the multi-crop
// sweep); the offload is the 20×20 authentication chip shipped for frames
// that survive the whole chain, over the backscatter radio, on the
// harvested supply.
func FaceAuthClass(count int) Class {
	const (
		w, h  = 160, 120 // QVGA-class sensor, as in the E6 trace
		chipB = 20 * 20  // 8-bit authentication chip payload
	)
	sensor := energy.DefaultSensor()
	stream := energy.DefaultStreamAccel()
	vjAcc := energy.DefaultVJAccel()
	radio := energy.BackscatterRadio()
	harv := energy.DefaultHarvester()

	// Progressive filtering, E6 shape: the motion gate passes ~1 frame in
	// 5, detection finds a face on ~half of those, and every candidate face
	// is authenticated (15 crops through the accelerator, ~60 nJ each
	// including scaling — the cheap end of the chain).
	pixels := float64(w * h)
	ep := core.EnergyPipeline{
		CaptureEnergy: float64(sensor.CaptureEnergy(w, h)),
		Stages: []core.EnergyStage{
			{Name: "MD", EnergyPerFrame: pixels * float64(stream.MotionPerPixel), PassRate: 0.2},
			{Name: "VJ", EnergyPerFrame: float64(vjAcc.DetectEnergy(w*h, 40*int64(w*h)/100)), PassRate: 0.5},
			{Name: "NN", EnergyPerFrame: 15 * 60e-9, PassRate: 1},
		},
	}
	a, err := ep.Evaluate()
	if err != nil {
		panic(err) // constants above are valid by construction
	}
	computeJ := a.Total - a.Capture - a.Offload // radio cost is charged per offload below
	return Class{
		Name:           "faceauth",
		Count:          count,
		FPS:            1,
		Arrival:        ArrivalPoisson, // visits arrive, frames do not tick in lockstep
		FrameBytes:     chipB,
		OffloadProb:    a.OffloadShare,
		ComputeSeconds: 0.02,
		QueueDepth:     4,
		CaptureJ:       a.Capture,
		ComputeJ:       computeJ, // expected filtering energy per captured frame
		TxFixedJ:       radio.TxFixedJ(),
		TxPerByteJ:     radio.TxPerByteJ(),
		HarvestW:       float64(harv.HarvestPower),
		StoreJ:         float64(harv.UsableEnergy()),
	}
}

// VRDevicePowerWatts models the electrical draw of each Fig. 10
// implementation target while its block runs (ARM cores, discrete GPU,
// Zynq fabric).
var VRDevicePowerWatts = map[string]float64{"CPU": 5, "GPU": 60, "FPGA": 10}

// PaperVRPipeline assembles the Fig. 10 VR pipeline (paper byte model ×
// paper block throughputs) as a core.ThroughputPipeline, scaled to one
// camera's share of the 16-camera frame-set so a fleet node is a single
// camera head.
func PaperVRPipeline() *core.ThroughputPipeline {
	const rigCameras = 16
	m := vr.PaperByteModel()
	tp := platform.PaperThroughput()
	fps := func(block int, devs ...platform.Device) map[string]float64 {
		out := map[string]float64{}
		for _, d := range devs {
			out[d.String()] = tp.BlockFPS(block, d)
		}
		return out
	}
	return &core.ThroughputPipeline{
		SensorBytes: m.Sensor / rigCameras,
		Stages: []core.Stage{
			{Name: "B1", OutputBytes: m.B1 / rigCameras, FPS: fps(1, platform.CPU)},
			{Name: "B2", OutputBytes: m.B2 / rigCameras, FPS: fps(2, platform.CPU)},
			{Name: "B3", OutputBytes: m.B3 / rigCameras, FPS: fps(3, platform.CPU, platform.GPU, platform.FPGA)},
			{Name: "B4", OutputBytes: m.B4 / rigCameras, FPS: fps(4, platform.CPU, platform.GPU, platform.FPGA)},
		},
	}
}

// VRClass models one camera head of the §IV VR rig running the given
// Fig. 10 placement as a fleet class: per-frame compute time and offload
// payload come from the core cost hook, transmit energy from the WiFi
// radio, and compute energy from the placement's most power-hungry device
// running for the frame's compute time. Mains powered.
func VRClass(count int, pl core.Placement, targetFPS float64) (Class, error) {
	p := PaperVRPipeline()
	cost, err := p.Cost(pl)
	if err != nil {
		return Class{}, err
	}
	radio := energy.WiFiRadio()
	watts := 2.0 // sensor interface + ISP floor for a sensor-only node
	name := "vr-S"
	for i, impl := range pl.Impl {
		if w, ok := VRDevicePowerWatts[impl]; ok && w > watts {
			watts = w
		}
		// Fig. 10-style compact label: stage name plus device initial.
		name += p.Stages[i].Name + impl[:1]
	}
	return Class{
		Name:           name,
		Count:          count,
		FPS:            targetFPS,
		Arrival:        ArrivalPeriodic, // genlocked capture, staggered phases
		FrameBytes:     cost.OffloadBytes,
		OffloadProb:    1,
		ComputeSeconds: cost.ComputeSeconds,
		QueueDepth:     4,
		CaptureJ:       5e-3, // 4K sensor readout per frame
		ComputeJ:       watts * cost.ComputeSeconds,
		TxFixedJ:       radio.TxFixedJ(),
		TxPerByteJ:     radio.TxPerByteJ(),
	}, nil
}

// PlacementEnergyPerFrame returns the expected joules per captured frame
// of a camera of this class holding placement row i, charging capture,
// the row's compute, and — for the offloading fraction of frames — the
// camera radio plus netPerByteJ of per-byte forwarding summed over every
// network hop the payload crosses (the tier tree's per-link TxPerByteJ).
// With no cost table, i is ignored and the class-level fields price the
// frame.
func (c *Class) PlacementEnergyPerFrame(i int, netPerByteJ float64) float64 {
	bytes, computeJ := c.FrameBytes, c.ComputeJ
	if len(c.Placements) > 0 {
		bytes, computeJ = c.Placements[i].FrameBytes, c.Placements[i].ComputeJ
	}
	return energy.FrameEnergy(c.CaptureJ, computeJ, c.TxFixedJ, c.TxPerByteJ+netPerByteJ, bytes, c.OffloadProb)
}
