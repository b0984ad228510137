package main

import (
	"os"
	"path/filepath"
	"testing"

	"camsim/internal/core"
)

// The experiment commands print to stdout; these tests pin down that each
// fast (non-training) experiment runs to completion on its defaults.
// Training-heavy experiments (nn-topology, bitwidth, fig4c, fa-e2e) are
// exercised by the `camsim all` run recorded in experiment_output.txt.

func TestCommandsRegistered(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range commands() {
		if c.name == "" || c.brief == "" || c.run == nil {
			t.Fatalf("incomplete command %+v", c)
		}
		if seen[c.name] {
			t.Fatalf("duplicate command %q", c.name)
		}
		seen[c.name] = true
	}
	if len(seen) != 18 {
		t.Fatalf("expected 18 experiments, found %d", len(seen))
	}
}

func TestFastCommandsRun(t *testing.T) {
	fast := map[string]func([]string) error{
		"pe-sweep":        cmdPESweep,
		"fig6":            cmdFig6,
		"fig9":            cmdFig9,
		"fig10":           cmdFig10,
		"table1":          cmdTable1,
		"linksweep":       cmdLinkSweep,
		"fa-offload":      cmdFAOffload,
		"stereo-baseline": cmdStereoBaseline,
		"compress-block":  cmdCompressBlock,
		"fleet":           cmdFleet,
		"topo":            cmdTopo,
	}
	for name, run := range fast {
		if err := run(nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestCommandsRejectBadFlags(t *testing.T) {
	if err := cmdFig7([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("fig7 accepted an unknown flag")
	}
	if err := cmdStereoBaseline([]string{"-bogus"}); err == nil {
		t.Fatal("stereo-baseline accepted an unknown flag")
	}
	if err := cmdFleet([]string{"-n", "2"}); err == nil {
		t.Fatal("fleet accepted a 2-camera fleet")
	}
	if err := cmdTopo([]string{"-not-a-flag"}); err == nil {
		t.Fatal("topo accepted an unknown flag")
	}
}

func TestFig10PipelineMatchesPaperTotals(t *testing.T) {
	// The assembled platform+byte-model pipeline must produce the nine
	// Fig. 10 totals end to end (the same invariant internal/core checks
	// with hand-written numbers — here it validates the wiring).
	p := fig10Pipeline()
	cases := []struct {
		impl  []string
		total float64
	}{
		{nil, 15.8},
		{[]string{"CPU"}, 15.8},
		{[]string{"CPU", "CPU"}, 3.95},
		{[]string{"CPU", "CPU", "CPU"}, 0.09},
		{[]string{"CPU", "CPU", "GPU"}, 5.27},
		{[]string{"CPU", "CPU", "FPGA"}, 11.2},
		{[]string{"CPU", "CPU", "CPU", "CPU"}, 0.09},
		{[]string{"CPU", "CPU", "GPU", "GPU"}, 5.27},
		{[]string{"CPU", "CPU", "FPGA", "FPGA"}, 31.6},
	}
	for _, c := range cases {
		a, err := p.Evaluate(corePlacement(c.impl), 3.125e9)
		if err != nil {
			t.Fatal(err)
		}
		if d := a.TotalFPS/c.total - 1; d > 0.01 || d < -0.01 {
			t.Fatalf("%v: total %v, want %v", c.impl, a.TotalFPS, c.total)
		}
	}
}

// corePlacement builds a placement from an impl list.
func corePlacement(impl []string) core.Placement {
	return core.Placement{InCamera: len(impl), Impl: impl}
}

// TestProfileFlagsWriteProfiles drives -cpuprofile and -memprofile
// through both fleet commands, the built-in sweep and a -scenario file,
// and checks that each run leaves two non-empty profiles behind.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	for name, tc := range map[string]struct {
		run  func([]string) error
		args []string
	}{
		"fleet": {cmdFleet, []string{"-n", "16", "-duration", "0.5"}},
		"topo":  {cmdTopo, []string{"-scenario", filepath.FromSlash(exampleScenario)}},
	} {
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
		if err := tc.run(append(tc.args, "-cpuprofile", cpu, "-memprofile", mem)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range []string{cpu, mem} {
			if st, err := os.Stat(f); err != nil || st.Size() == 0 {
				t.Errorf("%s: profile %s missing or empty (%v)", name, filepath.Base(f), err)
			}
		}
	}
}
