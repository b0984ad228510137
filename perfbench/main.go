// Command perfbench is camsim's same-host benchmark. It drives the
// repository only through its public functions: the fleet chain
// (fleet.ParseScenario → fleet.Run or fleet.Sweep → Result.Table and
// TimeSeries.WriteCSV/WriteJSON) and the paper's kernel battery. Every input
// is generated from --seed.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics of untraced operations;
// with --trace 1 it makes a traced run and prints the per-layer metrics,
// writing a Chrome trace and a CPU profile under .bench_out/. The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics. README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed results are quoted at; heldOutSeed is reserved
// for confirming a claimed gain on inputs the change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// opResult is what one operation reports besides its wall time.
type opResult struct {
	// digest is the hex sha256 of the operation's rendered outputs.
	digest string
	// frames is the number of camera frames the operation simulated or
	// processed, and framesSec the host seconds they took: time in
	// fleet.Run (fleet.Sweep for a batch) or, for the kernels, the
	// whole operation.
	frames    int64
	framesSec float64
	// counts are the work counters, identical on every operation.
	counts map[string]float64
	// checkErr is the first failed output check, nil when all pass.
	checkErr error
}

// runner executes one operation of a workload whose inputs are built.
type runner interface {
	op(tr *tracer) (opResult, error)
}

// workload builds a runner from the seed. setup is timed as set-up: input
// generation, parsing and (for the kernels) model training.
type workload struct {
	name  string
	setup func(seed int64, tr *tracer) (runner, error)
}

var workloads = []workload{
	{"huge-fleet", setupHugeFleet},
	{"busy-tiers", setupBusyTiers},
	{"scenario-sweep", setupScenarioSweep},
	{"paper-kernels", setupPaperKernels},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: huge-fleet, busy-tiers, scenario-sweep or paper-kernels")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed; %d is the held-out seed", heldOutSeed))
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run with per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	host := hostFingerprint()
	hj, _ := json.Marshal(host) // strings and ints always marshal
	fmt.Printf("host %s\n", hj)

	chk := newChecker(name, seed)
	var rep report
	var err error
	if trace == 0 {
		rep, err = untracedRun(wl, seed, seconds, chk)
	} else {
		rep, err = tracedRun(wl, seed, seconds, chk, host)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d digest %s (%s)\n", name, seed, chk.first, chk.source())
	for _, msg := range chk.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	rep.Attempted, rep.Failed = chk.attempted, chk.failed
	rep.Correct = chk.failed == 0
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setupReps runs set-up at least three times, and more while they total
// under half a second, so setup_s is a median rather than one cold sample.
// The last runner is kept.
func setupReps(wl *workload, seed int64) (runner, []float64, error) {
	var times []float64
	var r runner
	var total float64
	for len(times) < 3 || (total < 0.5 && len(times) < 1000) {
		// Every set-up starts from a collected heap, like an operation.
		runtime.GC()
		t0 := time.Now()
		var err error
		r, err = wl.setup(seed, nil)
		d := time.Since(t0).Seconds()
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		times = append(times, d)
		total += d
	}
	return r, times, nil
}

// sample is one timed operation.
type sample struct {
	wall       float64 // host seconds of the operation
	allocMB    float64 // MB allocated during it
	rssMB      float64 // resident-set high-water mark during it
	framesPerS float64
}

// measure runs one warm-up operation, which lets caches fill and lazy
// initialization finish and is checked but not timed, then untraced
// operations for at least seconds (and at least minOps of them), checking
// each.
func measure(r runner, seconds float64, minOps int, chk *checker) []sample {
	runtime.GC()
	chk.record(r.op(nil))
	var out []sample
	start := time.Now()
	var ms runtime.MemStats
	for len(out) < minOps || time.Since(start).Seconds() < seconds {
		// Each operation starts from a collected heap, so that one
		// operation's garbage is not collected on the next one's time.
		runtime.GC()
		resetPeakRSS()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t0 := time.Now()
		res, err := r.op(nil)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms)
		chk.record(res, err)
		if err != nil {
			// An operation that returned an error has no result to time.
			// One whose outputs failed a check is counted as failed but
			// still timed: it did the same work.
			if time.Since(start).Seconds() > seconds {
				break
			}
			continue
		}
		s := sample{wall: wall, allocMB: float64(ms.TotalAlloc-before) / 1e6, rssMB: peakRSSMB()}
		if res.framesSec > 0 {
			s.framesPerS = float64(res.frames) / res.framesSec
		}
		out = append(out, s)
	}
	return out
}

func untracedRun(wl *workload, seed int64, seconds float64, chk *checker) (report, error) {
	r, setupTimes, err := setupReps(wl, seed)
	if err != nil {
		return report{}, err
	}
	samples := measure(r, seconds, 3, chk)
	if len(samples) == 0 {
		return report{Metrics: map[string]metric{}}, nil
	}
	col := func(f func(sample) float64) []float64 {
		v := make([]float64, len(samples))
		for i, s := range samples {
			v[i] = f(s)
		}
		return v
	}
	m := map[string]metric{
		"setup_s":          {median(setupTimes), "s"},
		"wall_s":           {median(col(func(s sample) float64 { return s.wall })), "s"},
		"sim_frames_per_s": {median(col(func(s sample) float64 { return s.framesPerS })), "1/s"},
		"alloc_mb":         {median(col(func(s sample) float64 { return s.allocMB })), "MB"},
		"peak_rss_mb":      {median(col(func(s sample) float64 { return s.rssMB })), "MB"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d set-ups, %d timed operations\n", len(setupTimes), len(samples))
	return report{Metrics: m}, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resetPeakRSS resets the process's resident-set high-water mark to its
// current RSS, so that VmHWM read after an operation is that operation's
// peak. Where the kernel does not allow it, VmHWM stays the process-wide
// peak, which is still an upper bound.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostInfo fingerprints the machine, so that results from different hosts
// are never compared.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
}

func hostFingerprint() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
