package fleet

import (
	"fmt"
	"sort"
	"strings"

	"camsim/internal/fleet/fl"
	"camsim/internal/fleet/quantile"
)

// ClassStats aggregates one camera class over a run (or, for
// Result.Total, the whole fleet).
type ClassStats struct {
	Name    string
	Cameras int

	Captured      int64 // frames captured (including dropped ones)
	Offloaded     int64 // offloads completed over the uplink
	DroppedQueue  int64 // frames dropped by per-camera backpressure
	DroppedEnergy int64 // frames skipped by an empty harvest store
	// DroppedOutage counts frames lost to dynamics outages: in flight
	// through a failing tier, arriving at a down one, or stalled forever
	// on a never-restored zero-capacity link. 0 without a schedule.
	DroppedOutage int64
	EnergyJ       float64

	// Dynamics churn accounting, 0 without a schedule: cameras added and
	// retired, and camera re-homings (each direction counts once).
	Joined, Left, Rehomed int64

	// Offload latency percentiles, capture to completed upload (through
	// every tier), seconds.
	LatencyP50, LatencyP95, LatencyP99 float64

	// Switches counts individual camera placement moves decided by the
	// class's adaptive controller (0 for static or table-less classes).
	Switches int64
	// PlacementCounts is the final population per placement index, set
	// only for classes carrying a runtime cost table.
	PlacementCounts []int

	latencies []float64
}

// EnergyPerFrame returns the mean energy per captured frame in joules.
func (s ClassStats) EnergyPerFrame() float64 {
	if s.Captured == 0 {
		return 0
	}
	return s.EnergyJ / float64(s.Captured)
}

// DropRate returns the fraction of captured frames lost to backpressure,
// energy starvation, or an outage.
func (s ClassStats) DropRate() float64 {
	if s.Captured == 0 {
		return 0
	}
	return float64(s.DroppedQueue+s.DroppedEnergy+s.DroppedOutage) / float64(s.Captured)
}

// TierStats is the per-link accounting of one network tier, in tree
// order: declaration order, which for the gateway shorthand is each
// gateway link and then the "wan" root.
type TierStats struct {
	Name string
	// Parent names the tier this link feeds into; empty at the root.
	Parent string
	// Depth is the tier's hop distance below the root link (root = 0).
	Depth      int
	Gbps       float64
	Contention string
	// PropagationSec is the link's configured one-way propagation delay.
	PropagationSec float64
	ServedBytes    float64
	// Transfers counts completed transmissions on this link.
	Transfers int64
	// Utilization is served payload over capacity × SimEnd.
	Utilization float64
	// TxPerByteJ is the link's configured forwarding energy per byte;
	// ForwardJ is the energy it actually spent, ServedBytes × TxPerByteJ.
	TxPerByteJ float64
	ForwardJ   float64

	// FLUpBytes is the federated share of ServedBytes: camera update
	// blobs plus merged aggregation blobs this uplink carried. 0 without
	// a federated job.
	FLUpBytes float64

	// Dynamics availability accounting, 0 without a schedule: seconds the
	// tier spent down (outage to recovery, clamped to the run's end) and
	// frames its failures cost (drained in flight plus dropped arrivals).
	DowntimeSec float64
	OutageDrops int64

	// Downlink accounting, set only for tiers declaring one: the
	// parent→tier (cloud→root at the root) link's configuration and its
	// served root→leaf traffic — today the federated model broadcast.
	DownGbps            float64
	DownContention      string
	DownPropagationSec  float64
	DownServedBytes     float64
	DownTransfers       int64
	DownlinkUtilization float64

	// Compute is the tier's core-pool accounting; nil for tiers without a
	// compute section (every tier, in scenarios predating it).
	Compute *ComputeStats
}

// ComputeStats is the accounting of one tier's finite core pool over a
// run: how busy the cores were and how long frames queued for them. The
// wait quantiles come from a KLL sketch (internal/fleet/quantile), so
// they carry its ±1% rank error; BusySec is exact — the conservation the
// compute property tests pin is BusySec = Σ (per-frame service seconds)
// over Frames. Cores and Utilization use the configured core count, so
// under a compute_scale schedule that grows the pool Utilization can
// exceed 1; BusySec never exceeds the pool's core count integrated over
// the run.
type ComputeStats struct {
	Cores      int
	Discipline string
	// Frames counts frames the pool finished servicing.
	Frames int64
	// BusySec is the total core-seconds of service delivered.
	BusySec float64
	// Utilization is BusySec over Cores × SimEnd.
	Utilization float64
	// WaitP50/WaitP95 are queueing-delay quantiles: a frame's sojourn in
	// the pool minus its service time, zero when a core was free.
	WaitP50, WaitP95 float64
}

// Label renders the tier's display name: "name->parent" below the root,
// the bare name at it.
func (t TierStats) Label() string {
	if t.Parent == "" {
		return t.Name
	}
	return t.Name + "->" + t.Parent
}

// PropDelayTotal returns the total propagation time accrued at this hop:
// every completed transmission paid the link's one-way delay once.
func (t TierStats) PropDelayTotal() float64 {
	return float64(t.Transfers) * t.PropagationSec
}

// HasDownlink reports whether the tier declared a downlink.
func (t TierStats) HasDownlink() bool { return t.DownGbps > 0 }

// DownPropDelayTotal returns the total propagation time accrued on the
// tier's downlink: every delivered transmission paid its one-way delay.
func (t TierStats) DownPropDelayTotal() float64 {
	return float64(t.DownTransfers) * t.DownPropagationSec
}

// utilization is served payload over capacity × elapsed time, guarded so a
// degenerate run (zero elapsed time or capacity) reports 0 instead of
// NaN/Inf.
func utilization(servedBytes, bytesPerSec, elapsed float64) float64 {
	if elapsed <= 0 || bytesPerSec <= 0 {
		return 0
	}
	return servedBytes / (bytesPerSec * elapsed)
}

// EnergyStats is the run's fleet-wide energy accounting, the second axis
// of the paper's tradeoff surfaced alongside latency.
type EnergyStats struct {
	// CameraJ is the total camera-side energy actually charged over the
	// run (capture + compute + radio, summed over every class).
	CameraJ float64
	// NetworkJ is the forwarding energy the tier tree spent: each link's
	// observed served bytes times its configured TxPerByteJ.
	NetworkJ float64
	// AvgPowerW is (CameraJ + NetworkJ) / SimEnd.
	AvgPowerW float64
	// ProjectedW is the fleet's steady-state placement power at the final
	// placements — the quantity the global controller budgets.
	ProjectedW float64
}

// GlobalStats reports the fleet-wide energy-aware controller's decisions.
type GlobalStats struct {
	// BudgetW echoes the configured fleet-wide placement power budget.
	BudgetW float64
	// Moves counts every camera the global controller reassigned.
	Moves int64
	// Epochs holds one entry per decision tick, in time order.
	Epochs []GlobalEpoch
}

// GlobalEpoch is one global decision: the projected placement power
// before and after its reassignments.
type GlobalEpoch struct {
	Time    float64
	BeforeW float64
	AfterW  float64
	Moves   []GlobalMove
}

// GlobalMove is one epoch's reassignment of part of one class: Count
// cameras stepped Dir (+1 toward in-camera compute, -1 toward offload),
// for Reason "latency" (congestion relief) or "energy" (budget shedding).
type GlobalMove struct {
	Class  string
	Dir    int
	Count  int
	Reason string
}

// Result is the outcome of one simulated scenario.
type Result struct {
	// Scenario is the run's resolved copy: defaults filled, and a flat or
	// gateway scenario already turned into its tier tree.
	Scenario Scenario
	Classes  []ClassStats
	Total    ClassStats
	// Tiers holds per-link stats in tree order (see TierStats). A flat
	// scenario has exactly one entry, its "wan" root; the gateway
	// shorthand lists its gateways, then "wan".
	Tiers []TierStats
	// SimEnd is when the last offload drained (≥ Scenario.Duration).
	SimEnd float64
	// UplinkUtilization is the top-tier link's utilization (the only
	// link's, in a flat scenario) — served payload over capacity × SimEnd.
	UplinkUtilization float64
	// Energy is the fleet-wide energy accounting of the run.
	Energy EnergyStats
	// Global reports the global controller's epochs; nil when the
	// scenario does not configure one.
	Global *GlobalStats
	// Federated reports the federated job's per-round telemetry; nil
	// when the scenario does not configure one.
	Federated *fl.Stats
	// TimeSeries is the windowed streaming telemetry; nil unless the
	// scenario sets telemetry.streaming with a window_sec.
	TimeSeries *TimeSeries
	// Dynamics is the fault schedule's run-wide accounting; nil unless
	// the scenario carries a non-empty dynamics section.
	Dynamics *DynamicsStats
}

// TierNamed returns the stats of the named tier, or nil. The root tier of
// the flat and gateway shorthands is named "wan"; the tiers form uses its
// declared names.
func (r *Result) TierNamed(name string) *TierStats {
	for i := range r.Tiers {
		if r.Tiers[i].Name == name {
			return &r.Tiers[i]
		}
	}
	return nil
}

func newResult(sc Scenario) *Result {
	res := &Result{Scenario: sc}
	for _, c := range sc.Classes {
		res.Classes = append(res.Classes, ClassStats{Name: c.Name, Cameras: c.Count})
	}
	return res
}

// finalize computes percentiles and the fleet-wide Total from the
// per-class accumulators, in class order so results are reproducible.
// With a streaming collector the quantiles come from its run-wide
// sketches (exact-path sample slices were never populated); without
// one, from the exact sorted sample sets as always.
func (r *Result) finalize(tel *collector) {
	r.Total = ClassStats{Name: "fleet"}
	var perClass [][3]float64
	var total [3]float64
	if tel != nil {
		perClass, total = tel.quantiles()
	}
	n := 0
	for i := range r.Classes {
		n += len(r.Classes[i].latencies)
	}
	all := make([]float64, 0, n)
	for i := range r.Classes {
		s := &r.Classes[i]
		if tel != nil {
			s.LatencyP50, s.LatencyP95, s.LatencyP99 = perClass[i][0], perClass[i][1], perClass[i][2]
		} else {
			sort.Float64s(s.latencies)
			s.LatencyP50 = quantile.NearestRank(s.latencies, 0.50)
			s.LatencyP95 = quantile.NearestRank(s.latencies, 0.95)
			s.LatencyP99 = quantile.NearestRank(s.latencies, 0.99)
			all = append(all, s.latencies...)
		}

		r.Total.Cameras += s.Cameras
		r.Total.Captured += s.Captured
		r.Total.Offloaded += s.Offloaded
		r.Total.DroppedQueue += s.DroppedQueue
		r.Total.DroppedEnergy += s.DroppedEnergy
		r.Total.DroppedOutage += s.DroppedOutage
		r.Total.EnergyJ += s.EnergyJ
		r.Total.Joined += s.Joined
		r.Total.Left += s.Left
		r.Total.Rehomed += s.Rehomed
		r.Total.Switches += s.Switches
	}
	if tel != nil {
		r.Total.LatencyP50, r.Total.LatencyP95, r.Total.LatencyP99 = total[0], total[1], total[2]
		return
	}
	sort.Float64s(all)
	r.Total.LatencyP50 = quantile.NearestRank(all, 0.50)
	r.Total.LatencyP95 = quantile.NearestRank(all, 0.95)
	r.Total.LatencyP99 = quantile.NearestRank(all, 0.99)
	r.Total.latencies = all
}

// FormatLatency renders a latency in engineering units, "—" when no
// sample exists.
func FormatLatency(sec float64) string {
	switch {
	case sec <= 0:
		return "—"
	case sec < 1e-3:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.1fms", sec*1e3)
	}
	return fmt.Sprintf("%.2fs", sec)
}

// Table renders the run as a paper-style per-class stat table.
func (r *Result) Table() string {
	var b strings.Builder
	// The header names the top-tier link. For tier-form scenarios that is
	// the root tier's uplink — read it from the tree itself rather than
	// Scenario.Uplink, which is only guaranteed to mirror the root after
	// Normalize ran (a hand-built Result would print 0.0 Gb/s).
	up := r.Scenario.Uplink
	for i := range r.Scenario.Tiers {
		if r.Scenario.Tiers[i].Parent == "" {
			up = r.Scenario.Tiers[i].Uplink
			break
		}
	}
	fmt.Fprintf(&b, "scenario %-28s uplink %.1f Gb/s %-10s util %5.1f%%  drained %.2fs\n",
		r.Scenario.Name, up.Gbps, up.Contention,
		r.UplinkUtilization*100, r.SimEnd)
	fmt.Fprintf(&b, "  %-22s %6s %9s %9s %7s %7s %8s %8s %8s %10s\n",
		"class", "cams", "captured", "offload", "dropQ", "dropE", "p50", "p95", "p99", "J/frame")
	rows := append([]ClassStats{}, r.Classes...)
	rows = append(rows, r.Total)
	for _, s := range rows {
		fmt.Fprintf(&b, "  %-22s %6d %9d %9d %7d %7d %8s %8s %8s %10.3g\n",
			s.Name, s.Cameras, s.Captured, s.Offloaded, s.DroppedQueue, s.DroppedEnergy,
			FormatLatency(s.LatencyP50), FormatLatency(s.LatencyP95), FormatLatency(s.LatencyP99),
			s.EnergyPerFrame())
	}
	// Tier lines appear for multi-tier topologies, and for any topology
	// once a tier carries a core pool — a flat scenario with compute still
	// has pool stats worth a line.
	anyCompute := false
	for i := range r.Tiers {
		if r.Tiers[i].Compute != nil {
			anyCompute = true
			break
		}
	}
	if len(r.Tiers) > 1 || anyCompute {
		for _, ti := range r.Tiers {
			fmt.Fprintf(&b, "  tier %-22s %5.1f Gb/s %-10s util %5.1f%%  xfers %d",
				ti.Label(), ti.Gbps, ti.Contention, ti.Utilization*100, ti.Transfers)
			if ti.PropagationSec > 0 {
				fmt.Fprintf(&b, "  prop %s", FormatLatency(ti.PropagationSec))
			}
			if ti.ForwardJ > 0 {
				fmt.Fprintf(&b, "  fwd %.3gJ", ti.ForwardJ)
			}
			if ti.FLUpBytes > 0 {
				fmt.Fprintf(&b, "  fl %.4gMB", ti.FLUpBytes/1e6)
			}
			if ti.HasDownlink() {
				fmt.Fprintf(&b, "  down %.1f Gb/s util %5.2f%%", ti.DownGbps, ti.DownlinkUtilization*100)
			}
			if c := ti.Compute; c != nil {
				fmt.Fprintf(&b, "  cpu %dx%s util %5.1f%% wait-p95 %s",
					c.Cores, c.Discipline, c.Utilization*100, FormatLatency(c.WaitP95))
			}
			// Only a dynamics schedule produces these, so legacy tables
			// are unchanged byte for byte.
			if ti.DowntimeSec > 0 {
				fmt.Fprintf(&b, "  down %.2fs", ti.DowntimeSec)
			}
			if ti.OutageDrops > 0 {
				fmt.Fprintf(&b, "  outage-drops %d", ti.OutageDrops)
			}
			fmt.Fprintln(&b)
		}
	}
	if f := r.Federated; f != nil {
		fmt.Fprintf(&b, "  federated rounds %d  cams %d  update %dB model %dB  round p50 %s p95 %s\n",
			f.Rounds, f.Cameras, f.UpdateBytes, f.ModelBytes,
			FormatLatency(f.RoundP50), FormatLatency(f.RoundP95))
		fmt.Fprintf(&b, "    up %.4gMB down %.4gMB  without aggregation %.4gMB (saved %.1f%%)\n",
			f.UpBytes/1e6, f.DownBytes/1e6, f.NaiveUpBytes/1e6, f.SavedFraction()*100)
		for i, rd := range f.PerRound {
			fmt.Fprintf(&b, "    round %2d start %.3fs agg %.3fs end %.3fs  lat %s  straggler-p95 %s\n",
				i+1, rd.Start, rd.AggDone, rd.End,
				FormatLatency(rd.Latency), FormatLatency(rd.StragglerP95))
		}
	}
	// The energy block appears once the scenario models the second cost
	// axis (network forwarding energy or a global budget); legacy
	// latency-only scenarios keep their original table shape.
	if r.Energy.NetworkJ > 0 || r.Global != nil {
		fmt.Fprintf(&b, "  energy camera %.3gJ + network %.3gJ = %.1fW avg, projected %.1fW\n",
			r.Energy.CameraJ, r.Energy.NetworkJ, r.Energy.AvgPowerW, r.Energy.ProjectedW)
	}
	if d := r.Dynamics; d != nil {
		fmt.Fprintf(&b, "  dynamics events %d  joined %d  left %d  rehomed %d  outage-drops %d\n",
			d.Events, d.Joined, d.Left, d.Rehomed, d.DroppedOutage)
	}
	if g := r.Global; g != nil {
		fmt.Fprintf(&b, "  global budget %.1fW  epochs %d  moves %d\n", g.BudgetW, len(g.Epochs), g.Moves)
		for _, ep := range g.Epochs {
			if len(ep.Moves) == 0 {
				continue
			}
			fmt.Fprintf(&b, "    epoch t=%.2fs %.1fW -> %.1fW ", ep.Time, ep.BeforeW, ep.AfterW)
			for _, m := range ep.Moves {
				fmt.Fprintf(&b, " %s %s%+dx%d", m.Reason, m.Class, m.Dir, m.Count)
			}
			fmt.Fprintln(&b)
		}
	}
	for i, s := range r.Classes {
		if len(s.PlacementCounts) == 0 {
			continue
		}
		cl := &r.Scenario.Classes[i]
		fmt.Fprintf(&b, "  policy %-15s %-17s moves %4d  final", s.Name, cl.Policy.Kind, s.Switches)
		for k, n := range s.PlacementCounts {
			name := cl.Placements[k].Name
			if name == "" {
				name = fmt.Sprintf("p%d", k)
			}
			fmt.Fprintf(&b, " %s:%d", name, n)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// result assembles the Result once the event loop has drained: run end,
// federated and dynamics accounting, per-tier stats, placement
// histograms, telemetry and the fleet-wide energy rollup. It consumes the
// engine, dropping each part once it is folded in, so the garbage
// collector can reclaim it while the quantile queries allocate: the
// loop's storage first, the pools' wait sketches after the tier stats,
// the collector after finalize.
func (e *engine) result() *Result {
	e.events = eventHeap{}
	e.transfers, e.freeIDs, e.links.h = nil, nil, nil
	res := e.res
	if res.SimEnd < e.sc.Duration {
		res.SimEnd = e.sc.Duration
	}
	if e.fle != nil {
		res.Federated = e.fle.Stats()
		// The final broadcast can deliver after the last frame drains;
		// the run ends when both have.
		if res.Federated.DoneAt > res.SimEnd {
			res.SimEnd = res.Federated.DoneAt
		}
	}
	if dyn := e.dyn; dyn != nil {
		// A tier still down at the end accrues downtime to the run's end.
		for i := range e.nodes {
			if dyn.down[i] {
				if d := res.SimEnd - dyn.downAt[i]; d > 0 {
					dyn.downtime[i] += d
				}
				dyn.down[i] = false
			}
		}
	}
	for i := range e.nodes {
		res.Tiers = append(res.Tiers, e.tierStats(i))
	}
	e.compWait = nil
	// The top-tier utilization is the root tier's, found by name: tier
	// order is stable today, but the name is the contract.
	if rt := res.TierNamed(e.nodes[e.root].Name); rt != nil {
		res.UplinkUtilization = rt.Utilization
	}
	for ci := range e.sc.Classes {
		cl := &e.sc.Classes[ci]
		if len(cl.Placements) == 0 {
			continue
		}
		hist := make([]int, len(cl.Placements))
		for _, idx := range e.classCams[ci] {
			hist[e.cams[idx].placement]++
		}
		res.Classes[ci].PlacementCounts = hist
		if e.ctls[ci] != nil {
			res.Classes[ci].Switches = e.ctls[ci].moves
		}
	}
	if e.tel != nil {
		e.tel.finish(res.SimEnd)
		res.TimeSeries = e.tel.series
	}
	res.finalize(e.tel)
	e.tel = nil
	for _, ti := range res.Tiers {
		res.Energy.NetworkJ += ti.ForwardJ
	}
	res.Energy.CameraJ = res.Total.EnergyJ
	if res.SimEnd > 0 {
		res.Energy.AvgPowerW = (res.Energy.CameraJ + res.Energy.NetworkJ) / res.SimEnd
	}
	res.Energy.ProjectedW = projectedPowerW(&e.sc, e.rowJ, e.cams, e.classCams)
	if e.gctl != nil {
		st := e.gctl.stats
		res.Global = &st
		res.Total.Switches += st.Moves
	}
	if e.dyn != nil {
		st := e.dyn.stats
		res.Dynamics = &st
	}
	return res
}

// tierStats is tier i's accounting over the finished run: its uplink,
// its downlink and its core pool, when it declares them.
func (e *engine) tierStats(i int) TierStats {
	nd := &e.nodes[i]
	simEnd := e.res.SimEnd
	up := e.links.links[i]
	ts := TierStats{
		Name:           nd.Name,
		Parent:         nd.Parent,
		Depth:          nd.depth,
		Gbps:           nd.Uplink.Gbps,
		Contention:     nd.Uplink.Contention,
		PropagationSec: nd.PropagationSec,
		ServedBytes:    up.ServedBytes(),
		Transfers:      e.links.finished[i],
		Utilization:    utilization(up.ServedBytes(), nd.Uplink.BytesPerSecond(), simEnd),
		TxPerByteJ:     nd.TxPerByteJ,
		ForwardJ:       up.ServedBytes() * nd.TxPerByteJ,
	}
	if e.flUpBytes != nil {
		ts.FLUpBytes = e.flUpBytes[i]
	}
	if e.dyn != nil {
		ts.DowntimeSec = e.dyn.downtime[i]
		ts.OutageDrops = e.dyn.outageDrops[i]
	}
	if d := nd.Downlink; d != nil {
		li := e.downLink[i]
		dl := e.links.links[li]
		ts.DownGbps = d.Gbps
		ts.DownContention = d.Contention
		ts.DownPropagationSec = d.PropagationSec
		ts.DownServedBytes = dl.ServedBytes()
		ts.DownTransfers = e.links.finished[li]
		ts.DownlinkUtilization = utilization(dl.ServedBytes(), d.BytesPerSecond(), simEnd)
	}
	if li := e.compLink[i]; li >= 0 {
		cc := nd.Compute
		// Once the run drains, a pool's served "bytes" are exactly the
		// core-seconds it was busy (the conservation the property tests
		// pin), so utilization is busy-share of configured cores × wall
		// time.
		busy := e.links.links[li].ServedBytes()
		cs := &ComputeStats{
			Cores:       cc.Cores,
			Discipline:  cc.Discipline,
			Frames:      e.links.finished[li],
			BusySec:     busy,
			Utilization: utilization(busy, float64(cc.Cores), simEnd),
		}
		if s := e.compWait[i]; s.Count() > 0 {
			cs.WaitP50 = s.Quantile(0.50)
			cs.WaitP95 = s.Quantile(0.95)
		}
		ts.Compute = cs
	}
	return ts
}
