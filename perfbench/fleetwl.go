package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"time"

	"camsim/internal/fleet"
)

// sweepBatchSize is the number of small scenarios in one scenario-sweep
// operation.
const sweepBatchSize = 240

// sequentialSpan covers the traced scenario-sweep operation's one-by-one
// re-run of its batch.
const sequentialSpan = "fleet.sweep.sequential"

// fleetRunner runs the fleet chain over scenario JSON generated at set-up.
// With one document an operation is parse → Run → render; with several it
// is parse all → Sweep → render all (plus, when traced, a sequential Run
// of each scenario to price the Sweep pool's speedup).
type fleetRunner struct {
	docs [][]byte
}

func setupHugeFleet(seed int64, _ *tracer) (runner, error) {
	return newFleetRunner([]fleet.Scenario{hugeFleetScenario(seed)})
}

func setupBusyTiers(seed int64, _ *tracer) (runner, error) {
	sc, err := busyTiersScenario(seed)
	if err != nil {
		return nil, err
	}
	return newFleetRunner([]fleet.Scenario{sc})
}

func setupScenarioSweep(seed int64, _ *tracer) (runner, error) {
	scs, err := sweepBatch(seed, sweepBatchSize)
	if err != nil {
		return nil, err
	}
	return newFleetRunner(scs)
}

// newFleetRunner renders each scenario to JSON and parses it once, so a
// generator bug fails at set-up rather than in every operation.
func newFleetRunner(scs []fleet.Scenario) (*fleetRunner, error) {
	r := &fleetRunner{}
	for _, sc := range scs {
		doc, err := json.Marshal(sc)
		if err != nil {
			return nil, err
		}
		if _, err := fleet.ParseScenario(doc); err != nil {
			return nil, err
		}
		r.docs = append(r.docs, doc)
	}
	return r, nil
}

func (r *fleetRunner) op(tr *tracer) (opResult, error) {
	root := tr.beginOp()
	defer tr.end(root)
	scs := make([]fleet.Scenario, len(r.docs))
	sp := tr.begin("fleet.scenario.parse", root)
	for i, doc := range r.docs {
		sc, err := fleet.ParseScenario(doc)
		if err != nil {
			tr.end(sp)
			return opResult{}, err
		}
		scs[i] = sc
	}
	tr.end(sp)

	var results []*fleet.Result
	var runSec float64
	if len(scs) == 1 {
		res, sec, err := traceRun(tr, root, scs[0])
		if err != nil {
			return opResult{}, err
		}
		results, runSec = []*fleet.Result{res}, sec
	} else {
		sp = tr.begin("fleet.sweep", root)
		t0 := time.Now()
		outs := fleet.Sweep(scs, runtime.GOMAXPROCS(0))
		runSec = time.Since(t0).Seconds()
		tr.end(sp)
		for _, o := range outs {
			if o.Err != nil {
				return opResult{}, o.Err
			}
			results = append(results, o.Result)
		}
		if tr != nil {
			// The sequential runs price the pool: their summed time over
			// the Sweep wall time is fleet.sweep.speedup. They are extra
			// work, left out of the tracing overhead.
			sp = tr.begin(sequentialSpan, root)
			for _, sc := range scs {
				if _, _, err := traceRun(tr, sp, sc); err != nil {
					return opResult{}, err
				}
			}
			tr.end(sp)
		}
	}

	h := sha256.New()
	out := opResult{framesSec: runSec, counts: map[string]float64{}}
	for _, res := range results {
		sp = tr.begin("fleet.render.table", root)
		table := res.Table()
		tr.end(sp)
		h.Write([]byte(table))
		if res.TimeSeries != nil {
			if err := renderTimeSeries(tr, root, res.TimeSeries, h); err != nil {
				return opResult{}, err
			}
		}
		if out.checkErr == nil {
			out.checkErr = checkResult(res)
		}
		addWork(out.counts, res)
	}
	out.frames = int64(out.counts["work.frames_captured"])
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// traceRun runs one scenario. When traced it records the run's span and
// the MemStats deltas around it.
func traceRun(tr *tracer, root int, sc fleet.Scenario) (*fleet.Result, float64, error) {
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	sp := tr.begin("fleet.engine.run", root)
	t0 := time.Now()
	res, err := fleet.Run(sc)
	sec := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", sc.Name, err)
	}
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		tr.count("fleet.engine.allocs", float64(after.Mallocs-before.Mallocs))
		tr.count("fleet.engine.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		tr.count("fleet.engine.gc_cycles", float64(after.NumGC-before.NumGC))
		tr.count("fleet.engine.gc_pause_s", float64(after.PauseTotalNs-before.PauseTotalNs)/1e9)
		w := map[string]float64{}
		addWork(w, res)
		tr.count("fleet.engine.frames", w["work.frames_captured"])
		tr.count("fleet.engine.transfers", w["work.link_transfers"]+w["work.compute_frames"]+w["work.downlink_transfers"])
	}
	return res, sec, nil
}

// renderTimeSeries writes the series as CSV and JSON into the digest.
func renderTimeSeries(tr *tracer, root int, ts *fleet.TimeSeries, h hash.Hash) error {
	sp := tr.begin("fleet.render.timeseries", root)
	defer tr.end(sp)
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		return err
	}
	if err := ts.WriteJSON(&buf); err != nil {
		return err
	}
	h.Write(buf.Bytes())
	return nil
}

// addWork adds the result's work counts. They come from Result alone, so
// they repeat exactly for the same inputs on every host.
func addWork(c map[string]float64, res *fleet.Result) {
	t := res.Total
	c["work.frames_captured"] += float64(t.Captured)
	c["work.frames_offloaded"] += float64(t.Offloaded)
	c["work.frames_dropped"] += float64(t.DroppedQueue + t.DroppedEnergy + t.DroppedOutage)
	c["work.placement_switches"] += float64(t.Switches)
	if res.Global != nil {
		c["work.placement_switches"] += float64(res.Global.Moves)
	}
	for _, ti := range res.Tiers {
		c["work.link_transfers"] += float64(ti.Transfers)
		c["work.downlink_transfers"] += float64(ti.DownTransfers)
		if ti.Compute != nil {
			c["work.compute_frames"] += float64(ti.Compute.Frames)
		}
	}
	if res.TimeSeries != nil {
		c["work.windows"] += float64(len(res.TimeSeries.Windows))
	}
	if res.Dynamics != nil {
		c["work.churn"] += float64(res.Dynamics.Joined + res.Dynamics.Left)
		c["work.rehomed"] += float64(res.Dynamics.Rehomed)
	}
	if res.Federated != nil {
		c["work.fl_rounds"] += float64(len(res.Federated.PerRound))
	}
}
