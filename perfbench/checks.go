package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"

	"camsim/internal/fleet"
)

// pinnedJSON maps GOARCH → workload → seed → the sha256 digest every
// operation of that workload must produce at that seed. Seeds without a
// pin are checked for repeatability instead: every operation must match
// the run's first.
//
//go:embed digests.json
var pinnedJSON []byte

// checker counts attempted and failed operations and holds the digest
// every operation must reproduce.
type checker struct {
	pinned    string
	first     string
	attempted int
	failed    int
	failures  []string
}

func newChecker(workload string, seed int64) *checker {
	var pins map[string]map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return &checker{pinned: pins[runtime.GOARCH][workload][strconv.FormatInt(seed, 10)]}
}

// source says what the digests were checked against.
func (c *checker) source() string {
	if c.pinned != "" {
		return "pinned"
	}
	return "unpinned: repeatability only"
}

// record counts one operation and reports whether it passed.
func (c *checker) record(res opResult, err error) bool {
	c.attempted++
	if err == nil && c.first == "" {
		c.first = res.digest
	}
	msg := ""
	switch {
	case err != nil:
		msg = err.Error()
	case c.pinned != "" && res.digest != c.pinned:
		msg = fmt.Sprintf("digest %s, pinned %s", res.digest, c.pinned)
	case res.digest != c.first:
		msg = fmt.Sprintf("digest %s, first operation gave %s", res.digest, c.first)
	case res.checkErr != nil:
		msg = res.checkErr.Error()
	}
	if msg == "" {
		return true
	}
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, msg)
	}
	return false
}

// checkResult verifies the invariants every fleet run must satisfy: frame
// conservation per class, link utilization at most 1, pools serving no
// more core-seconds than they had (see checkPool), and ordered latency
// quantiles.
func checkResult(res *fleet.Result) error {
	const eps = 1e-9
	for i, cs := range append(append([]fleet.ClassStats(nil), res.Classes...), res.Total) {
		accounted := cs.Offloaded + cs.DroppedQueue + cs.DroppedEnergy + cs.DroppedOutage
		// A frame the class filters in-camera by design (offload
		// probability below 1, or a zero-byte placement) is captured but
		// neither offloaded nor dropped, so the identity is exact only for
		// classes that offload every frame.
		exact := i < len(res.Classes) && offloadsEveryFrame(res.Scenario.Classes[i])
		if accounted > cs.Captured || (exact && accounted != cs.Captured) {
			return fmt.Errorf("%s: class %s conservation: captured %d, offloaded+dropped %d",
				res.Scenario.Name, cs.Name, cs.Captured, accounted)
		}
		if !(cs.LatencyP50 <= cs.LatencyP95 && cs.LatencyP95 <= cs.LatencyP99) {
			return fmt.Errorf("%s: class %s quantiles out of order: %v %v %v",
				res.Scenario.Name, cs.Name, cs.LatencyP50, cs.LatencyP95, cs.LatencyP99)
		}
	}
	for _, t := range res.Tiers {
		if t.Utilization > 1+eps || t.DownlinkUtilization > 1+eps {
			return fmt.Errorf("%s: tier %s utilization above 1: link %v, downlink %v",
				res.Scenario.Name, t.Name, t.Utilization, t.DownlinkUtilization)
		}
		if c := t.Compute; c != nil {
			if err := checkPool(res, t.Name, c); err != nil {
				return err
			}
		}
	}
	if res.TimeSeries != nil {
		for _, w := range res.TimeSeries.Windows {
			for _, wc := range w.Classes {
				if !(wc.P50 <= wc.P95 && wc.P95 <= wc.P99) {
					return fmt.Errorf("%s: window %d quantiles out of order", res.Scenario.Name, w.Index)
				}
			}
		}
	}
	return nil
}

// checkPool checks one tier's core pool. A pool cannot serve more
// core-seconds than it had cores over the run, so BusySec is bounded by
// the pool's core count integrated over [0, SimEnd], with every
// compute_scale event of the tier's schedule applied. For a pool of fixed
// size that bound is Cores × SimEnd, i.e. Utilization ≤ 1. A resized
// pool's Utilization is documented as BusySec over its configured Cores ×
// SimEnd, so it may read above 1 after the pool grows; the bound still
// holds. Utilization must match that documented ratio, and the wait
// quantiles must be ordered.
func checkPool(res *fleet.Result, tier string, c *fleet.ComputeStats) error {
	const eps = 1e-9
	name, end := res.Scenario.Name, res.SimEnd
	cores, last, coreSec := float64(c.Cores), 0.0, 0.0
	if d := res.Scenario.Dynamics; d != nil {
		for _, e := range d.Events {
			if e.Kind == fleet.DynComputeScale && e.Tier == tier && e.Time < end {
				coreSec += cores * (e.Time - last)
				cores, last = float64(e.Cores), e.Time
			}
		}
	}
	coreSec += cores * (end - last)
	if c.BusySec > coreSec*(1+eps) {
		return fmt.Errorf("%s: tier %s pool busy %v core-s, more than its %v core-s",
			name, tier, c.BusySec, coreSec)
	}
	if want := c.BusySec / (float64(c.Cores) * end); end > 0 && math.Abs(c.Utilization-want) > eps*want {
		return fmt.Errorf("%s: tier %s pool utilization %v, BusySec/(Cores×SimEnd) is %v",
			name, tier, c.Utilization, want)
	}
	if c.WaitP50 > c.WaitP95 {
		return fmt.Errorf("%s: tier %s wait quantiles out of order", name, tier)
	}
	return nil
}

func offloadsEveryFrame(c fleet.Class) bool {
	if c.OffloadProb < 1 {
		return false
	}
	if len(c.Placements) == 0 {
		return c.FrameBytes > 0
	}
	for _, p := range c.Placements {
		if p.FrameBytes <= 0 {
			return false
		}
	}
	return true
}
