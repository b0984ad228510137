package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// outDir receives the traced run's Chrome trace and CPU profile.
const outDir = ".bench_out"

// layerMetric is one per-layer metric and its unit. A metric whose layer a
// workload does not run (a kernel on a fleet workload, say) reads 0.
type layerMetric struct{ name, unit string }

// spanMetrics are reported as the median, over traced operations, of the
// per-operation summed self time of the named span.
var spanMetrics = []struct{ metric, span string }{
	{"fleet.scenario.parse_s", "fleet.scenario.parse"},
	{"fleet.engine.run_s", "fleet.engine.run"},
	{"fleet.render.table_s", "fleet.render.table"},
	{"fleet.render.timeseries_s", "fleet.render.timeseries"},
	{"fleet.sweep.wall_s", "fleet.sweep"},
	{"vr.preprocess_s", "vr.preprocess"},
	{"vr.align_s", "vr.align"},
	{"bilateral.solve_s", "bilateral.solve"},
	{"vr.stitch_s", "vr.stitch"},
	{"stereo.blockmatch_s", "stereo.blockmatch"},
	{"quality.msssim_s", "quality.msssim"},
	{"compress.encode_s", "compress.encode"},
	{"vj.detect_s", "vj.detect"},
	{"fixed.forward_s", "fixed.forward"},
	{"core.evaluate_s", "core.evaluate"},
}

// setupSpans are timed once, in the traced run's set-up.
var setupSpans = []struct{ metric, span string }{
	{"nn.train_s", "nn.train"},
	{"vj.train_s", "vj.train"},
	{"rig.synth_s", "rig.synth"},
}

// countMetrics are per-operation counters, reported as their median.
var countMetrics = []layerMetric{
	{"fleet.engine.allocs", "count"},
	{"fleet.engine.alloc_mb", "MB"},
	{"fleet.engine.gc_cycles", "count"},
	{"fleet.engine.gc_pause_s", "s"},
	{"work.frames_captured", "count"},
	{"work.frames_offloaded", "count"},
	{"work.frames_dropped", "count"},
	{"work.link_transfers", "count"},
	{"work.compute_frames", "count"},
	{"work.downlink_transfers", "count"},
	{"work.placement_switches", "count"},
	{"work.windows", "count"},
	{"work.churn", "count"},
	{"work.rehomed", "count"},
	{"work.fl_rounds", "count"},
	{"vj.windows", "count"},
	{"vj.feature_evals", "count"},
	{"vj.faces", "count"},
	{"bilateral.grid_bytes", "bytes"},
}

func tracedRun(wl *workload, seed int64, seconds float64, chk *checker, host hostInfo) (report, error) {
	tr := newTracer()
	r, err := wl.setup(seed, tr)
	if err != nil {
		return report{}, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	// Half the time goes to untraced operations, the reference for the
	// tracing overhead, and half to traced ones under the CPU profiler.
	untraced := measure(r, seconds/2, 2, chk)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, err
	}
	firstOp := tr.opID + 1
	var tracedWalls []float64
	start := time.Now()
	for len(tracedWalls) < 2 || time.Since(start).Seconds() < seconds/2 {
		runtime.GC() // as in measure
		t0 := time.Now()
		res, err := r.op(tr)
		wall := time.Since(t0).Seconds()
		chk.record(res, err)
		if err == nil {
			tracedWalls = append(tracedWalls, wall)
			for k, v := range res.counts {
				tr.count(k, v)
			}
		} else if time.Since(start).Seconds() > seconds {
			break
		}
	}
	pprof.StopCPUProfile()

	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	for _, s := range spanMetrics {
		set(s.metric, "s", median(tr.selfSeconds(s.span, firstOp)))
	}
	for _, s := range setupSpans {
		set(s.metric, "s", median(tr.selfSeconds(s.span, 0)))
	}
	for _, c := range countMetrics {
		set(c.name, c.unit, median(tr.counter(c.name, firstOp)))
	}
	runs := tr.selfSeconds("fleet.engine.run", firstOp)
	frames := tr.counter("fleet.engine.frames", firstOp)
	xfers := tr.counter("fleet.engine.transfers", firstOp)
	sweeps := tr.selfSeconds("fleet.sweep", firstOp)
	set("fleet.engine.ns_per_frame", "ns", medianRatio(runs, frames, 1e9))
	set("fleet.engine.ns_per_transfer", "ns", medianRatio(runs, xfers, 1e9))
	set("fleet.sweep.speedup", "x", medianRatio(runs, sweeps, 1))

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return report{}, fmt.Errorf("reading the CPU profile: %w", err)
	}
	for name, v := range shares {
		set(name, "share", v)
	}
	probes, err := runProbes(seed)
	if err != nil {
		chk.attempted++
		chk.failed++
		chk.failures = append(chk.failures, err.Error())
	}
	for _, p := range probes {
		set(p.name, "ns", p.ns)
		set(p.opsName, "count", float64(p.ops))
	}
	// The traced wall leaves out the scenario-sweep's sequential re-run,
	// which untraced operations do not make.
	seq := tr.totalSeconds(sequentialSpan, firstOp)
	for i := range tracedWalls {
		if i < len(seq) {
			tracedWalls[i] -= seq[i]
		}
	}
	overhead := 0.0
	if u := untracedWalls(untraced); u > 0 {
		overhead = median(tracedWalls)/u - 1
	}
	set("trace.overhead", "share", overhead)

	meta := map[string]any{"workload": wl.name, "seed": seed, "host": host}
	if err := writeTraceFiles(tr, prof.Bytes(), wl.name, meta); err != nil {
		return report{}, err
	}
	return report{Metrics: m}, nil
}

// medianRatio is the median over operations of num/den × scale; 0 when
// the layer did not run.
func medianRatio(num, den []float64, scale float64) float64 {
	var r []float64
	for i := range num {
		if i < len(den) && den[i] > 0 {
			r = append(r, num[i]/den[i]*scale)
		}
	}
	return median(r)
}

func untracedWalls(s []sample) float64 {
	w := make([]float64, len(s))
	for i := range s {
		w[i] = s[i].wall
	}
	return median(w)
}

func writeTraceFiles(tr *tracer, prof []byte, workload string, meta any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, workload)
	if err := tr.writeChrome(base+".trace.json", meta); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return fmt.Errorf("writing the CPU profile: %w", err)
	}
	return nil
}
