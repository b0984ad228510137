package main

import (
	"flag"
	"fmt"
	"math/rand"

	"camsim/internal/bilateral"
	"camsim/internal/core"
	"camsim/internal/img"
	"camsim/internal/platform"
	"camsim/internal/quality"
	"camsim/internal/rig"
	"camsim/internal/stereo"
	"camsim/internal/vr"
)

// cmdFig6 reproduces E8 (Fig. 6): bilateral smoothing of a noisy step
// signal preserves the edge a plain moving average destroys, shown as an
// ASCII plot of the 1-D profiles.
func cmdFig6(args []string) error {
	const w, h = 64, 16
	rng := rand.New(rand.NewSource(6))
	clean := img.NewGray(w, h)
	noisy := img.NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := float32(0.25)
			if x >= w/2 {
				v = 0.75
			}
			clean.Pix[y*w+x] = v
			noisy.Pix[y*w+x] = v + 0.1*float32(rng.NormFloat64())
		}
	}
	noisy.Clamp01()
	box := img.BoxFilter(noisy, 4)
	bilat := bilateral.Filter(noisy, noisy, 4, 16, 2)

	profile := func(g *img.Gray) []float64 {
		out := make([]float64, w)
		for x := 0; x < w; x++ {
			var s float64
			for y := 0; y < h; y++ {
				s += float64(g.At(x, y))
			}
			out[x] = s / h
		}
		return out
	}
	plot := func(label string, p []float64) {
		fmt.Printf("%-22s ", label)
		for _, v := range p {
			idx := int(v * 9.999)
			if idx < 0 {
				idx = 0
			}
			if idx > 9 {
				idx = 9
			}
			fmt.Print(string("0123456789"[idx]))
		}
		fmt.Println()
	}
	fmt.Println("column-mean intensity profiles (0=dark, 9=bright); note where the step survives")
	plot("a) clean step", profile(clean))
	plot("b) + sensor noise", profile(noisy))
	plot("c) moving average", profile(box))
	plot("d) bilateral grid", profile(bilat))

	edge := func(p []float64) float64 { return p[w/2+3] - p[w/2-4] }
	fmt.Printf("\nedge amplitude: clean %.2f, box blur %.2f, bilateral %.2f (paper: bilateral preserves the edge)\n",
		edge(profile(clean)), edge(profile(box)), edge(profile(bilat)))
	return nil
}

// cmdFig7 reproduces E9 (Fig. 7): depth-map quality (MS-SSIM vs the
// fine-grid reference) against bilateral grid size, for three input
// resolutions. The paper's finding: grid size matters more than input
// resolution.
func cmdFig7(args []string) error {
	fs := flag.NewFlagSet("fig7", flag.ContinueOnError)
	seed := fs.Int64("seed", 9, "scene seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Working resolutions standing in for the paper's 5/7/8 MP inputs,
	// with the same 2:1 aspect progression.
	resolutions := []struct {
		label string
		w, h  int
	}{
		{"5MP-proxy", 192, 96},
		{"7MP-proxy", 256, 128},
		{"8MP-proxy", 288, 144},
	}
	fmt.Println("res         cells/vertex  grid-vertices  grid-bytes  MS-SSIM   (paper Fig. 7 shape)")
	for _, res := range resolutions {
		r := rig.NewRig(rand.New(rand.NewSource(*seed)), 4, res.w, res.h, 0.75, 3)
		left, right, _ := r.Pair(0)
		maxD := r.MaxDisparity()

		// Fine-grid reference (cell 4, like the paper's best point).
		ref, _, err := bilateral.Solve(left, right, bilateral.DefaultBSSAConfig(maxD))
		if err != nil {
			return err
		}
		norm := func(g *img.Gray) *img.Gray {
			o := g.Clone()
			for i := range o.Pix {
				o.Pix[i] /= float32(maxD)
			}
			return o
		}
		for _, cell := range []float64{4, 8, 16, 32, 64} {
			cfg := bilateral.DefaultBSSAConfig(maxD)
			cfg.CellXY = cell
			cfg.IntensityBins = maxI(2, int(64/cell))
			d, st, err := bilateral.Solve(left, right, cfg)
			if err != nil {
				return err
			}
			q := quality.MSSSIM(norm(ref), norm(d))
			fmt.Printf("%-11s %8.0f      %9d      %8d    %.4f\n",
				res.label, cell, st.GridVertices, st.GridBytes, q)
		}
	}
	return nil
}

// cmdFig9 reproduces E10 (Fig. 9): the per-block computation share and
// output data size, at full scale (paper byte model) and as measured on
// the scaled synthetic pipeline.
func cmdFig9(args []string) error {
	m := vr.PaperByteModel()
	share := vr.ComputeShare()
	names := []string{"B1 pre-processing", "B2 image alignment", "B3 depth estimation", "B4 image stitching"}
	fmt.Println("block                compute-share   output (16-cam frame-set)")
	fmt.Printf("sensor                      —          %7.1f MB\n", float64(m.Sensor)/1e6)
	for i, n := range names {
		fmt.Printf("%-20s   %4.0f%%         %7.1f MB\n", n, share[i]*100, float64(m.Stage(i+1))/1e6)
	}

	r := rig.NewRig(rand.New(rand.NewSource(10)), 4, 128, 64, 0.75, 3)
	res, err := vr.NewPipeline(r).Run()
	if err != nil {
		return err
	}
	fmt.Printf("\nscaled synthetic pipeline (%d cams at %dx%d) output bytes:\n", r.Cameras, r.ViewW, r.ViewH)
	fmt.Printf("sensor %d  B1 %d  B2 %d  B3 %d  B4 %d   (same shape: B2 largest, B4 smallest)\n",
		res.Bytes.Sensor, res.Bytes.B1, res.Bytes.B2, res.Bytes.B3, res.Bytes.B4)
	return nil
}

// fig10Pipeline assembles the paper's VR pipeline for the core framework.
func fig10Pipeline() *core.ThroughputPipeline {
	m := vr.PaperByteModel()
	tp := platform.PaperThroughput()
	fps := func(block int) map[string]float64 {
		out := map[string]float64{}
		for _, d := range []platform.Device{platform.CPU, platform.GPU, platform.FPGA} {
			out[d.String()] = tp.BlockFPS(block, d)
		}
		return out
	}
	return &core.ThroughputPipeline{
		SensorBytes: m.Sensor,
		Stages: []core.Stage{
			{Name: "B1", OutputBytes: m.B1, FPS: map[string]float64{"CPU": tp.BlockFPS(1, platform.CPU)}},
			{Name: "B2", OutputBytes: m.B2, FPS: map[string]float64{"CPU": tp.BlockFPS(2, platform.CPU)}},
			{Name: "B3", OutputBytes: m.B3, FPS: fps(3)},
			{Name: "B4", OutputBytes: m.B4, FPS: fps(4)},
		},
	}
}

// cmdFig10 reproduces E11 (Fig. 10): the nine pipeline/offload
// configurations against the 30 FPS real-time threshold on 25 GbE.
func cmdFig10(args []string) error {
	p := fig10Pipeline()
	link := platform.Ethernet25G
	type cfg struct {
		label string
		pl    core.Placement
	}
	dev := func(d string, n int) []string {
		impl := make([]string, n)
		for i := range impl {
			impl[i] = "CPU"
		}
		if n >= 3 {
			impl[2] = d
		}
		if n >= 4 {
			impl[3] = d
		}
		return impl
	}
	configs := []cfg{
		{"S~", core.Placement{}},
		{"SB1~", core.Placement{InCamera: 1, Impl: dev("CPU", 1)}},
		{"SB1B2~", core.Placement{InCamera: 2, Impl: dev("CPU", 2)}},
		{"SB1B2B3C~", core.Placement{InCamera: 3, Impl: dev("CPU", 3)}},
		{"SB1B2B3G~", core.Placement{InCamera: 3, Impl: dev("GPU", 3)}},
		{"SB1B2B3F~", core.Placement{InCamera: 3, Impl: dev("FPGA", 3)}},
		{"SB1B2B3CB4C~", core.Placement{InCamera: 4, Impl: dev("CPU", 4)}},
		{"SB1B2B3GB4G~", core.Placement{InCamera: 4, Impl: dev("GPU", 4)}},
		{"SB1B2B3FB4F~", core.Placement{InCamera: 4, Impl: dev("FPGA", 4)}},
	}
	fmt.Printf("link: %s (%.3f GB/s); real-time target: 30 FPS\n\n", link.Name, link.BytesPerSecond()/1e9)
	fmt.Println("config         compute-FPS  comm-FPS  total-FPS  bottleneck              real-time?")
	for _, c := range configs {
		a, err := p.Evaluate(c.pl, link.BytesPerSecond())
		if err != nil {
			return err
		}
		rt := ""
		if a.MeetsRealTime(30) {
			rt = "YES"
		}
		compute := fmt.Sprintf("%8.2f", a.ComputeFPS)
		if a.ComputeFPS >= core.MaxFPS {
			compute = "       —"
		}
		fmt.Printf("%-13s %s   %8.2f  %8.2f   %-22s %s\n",
			c.label, compute, a.CommFPS, a.TotalFPS, a.Bottleneck, rt)
	}
	fmt.Println("\npaper: only the full pipeline with FPGA acceleration meets the 30 FPS upload requirement")
	return nil
}

// cmdTable1 reproduces E12 (Table I): FPGA resource requirements on the
// evaluation (Zynq) and target (Virtex UltraScale+) platforms.
func cmdTable1(args []string) error {
	type rowSpec struct {
		model   platform.FPGAModel
		fpgas   int
		cameras int
		paper   [3]float64 // logic, RAM, DSP percentages from Table I
	}
	rows := []rowSpec{
		{platform.Zynq7020(), 1, 2, [3]float64{45.91, 6.70, 94.09}},
		{platform.VirtexUltraScalePlus(), 16, 16, [3]float64{67.10, 17.60, 99.98}},
	}
	fmt.Println("                         Evaluation            Target")
	fmt.Println("resource                 (model / paper)       (model / paper)")
	var cells [5][2]string
	for i, r := range rows {
		u := r.model.Utilization(r.model.MaxComputeUnits())
		cells[0][i] = fmt.Sprintf("%d", r.fpgas)
		cells[1][i] = fmt.Sprintf("%d", r.cameras)
		cells[2][i] = fmt.Sprintf("%.2f%% / %.2f%%", u.LogicPct, r.paper[0])
		cells[3][i] = fmt.Sprintf("%.2f%% / %.2f%%", u.RAMPct, r.paper[1])
		cells[4][i] = fmt.Sprintf("%.2f%% / %.2f%%", u.DSPPct, r.paper[2])
	}
	labels := []string{"FPGA (#)", "Cameras", "Logic", "RAM", "DSP"}
	for i, l := range labels {
		fmt.Printf("%-24s %-21s %s\n", l, cells[i][0], cells[i][1])
	}
	z := platform.Zynq7020()
	v := platform.VirtexUltraScalePlus()
	fmt.Printf("\ncompute units: %d on the Zynq (paper: 12), %d on the Virtex (paper: 682); clock 125 MHz\n",
		z.MaxComputeUnits(), v.MaxComputeUnits())
	fmt.Printf("modelled B3 throughput: Zynq 2-camera %.1f FPS (paper 31.6); Virtex 16-camera %.1f FPS\n",
		z.DepthFPS(z.MaxComputeUnits(), platform.EvalVerticesPerFrame, platform.CalibratedCyclesPerVertex),
		v.DepthFPS(v.MaxComputeUnits(), platform.EvalVerticesPerFrame*8, platform.CalibratedCyclesPerVertex))
	return nil
}

// cmdLinkSweep reproduces E13 (§IV-C): upload rates of raw sensor data and
// the in-camera alternative across uplink speeds, locating the crossover
// where fast networks remove the in-camera incentive.
func cmdLinkSweep(args []string) error {
	p := fig10Pipeline()
	full := core.Placement{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}}
	fmt.Println("link      raw-offload-FPS  full-in-camera-FPS  best strategy")
	for _, gbps := range []float64{1, 10, 25, 40, 100, 200, 400} {
		link := platform.Link{Name: fmt.Sprintf("%.0fG", gbps), Gbps: gbps}
		raw, err := p.Evaluate(core.Placement{}, link.BytesPerSecond())
		if err != nil {
			return err
		}
		in, err := p.Evaluate(full, link.BytesPerSecond())
		if err != nil {
			return err
		}
		bestLabel := "in-camera"
		if raw.TotalFPS >= in.TotalFPS {
			bestLabel = "offload raw"
		}
		fmt.Printf("%-8s  %12.1f     %12.1f        %s\n", link.Name, raw.TotalFPS, in.TotalFPS, bestLabel)
	}
	_, gbps := p.Crossover(30)
	raw400, _ := p.Evaluate(core.Placement{}, platform.Ethernet400G.BytesPerSecond())
	fmt.Printf("\nraw offload reaches 30 FPS at %.1f Gb/s; at 400 GbE it uploads %.0f FPS\n", gbps, raw400.TotalFPS)
	fmt.Println("(paper reports 395 FPS at 400 GbE for the 8-bit 126.6 MB rig output; our 12-bit")
	fmt.Println(" raw model gives 253 FPS)")
	return nil
}

// cmdStereoBaseline reproduces E14: BSSA against the block-matching
// baseline on rig pairs — quality vs ground truth and work performed.
func cmdStereoBaseline(args []string) error {
	fs := flag.NewFlagSet("stereo-baseline", flag.ContinueOnError)
	seed := fs.Int64("seed", 11, "scene seed")
	pairs := fs.Int("pairs", 2, "stereo pairs to evaluate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := rig.NewRig(rand.New(rand.NewSource(*seed)), 2**pairs, 192, 96, 0.75, 3)
	fmt.Println("pair  method        MAE(px)  bad>2px   work (ops)")
	for i := 0; i < r.Cameras; i += 2 {
		left, right, gt := r.Pair(i)
		bm := stereo.BlockMatch(left, right, stereo.Config{MaxDisparity: r.MaxDisparity(), WindowRadius: 3})
		bssa, st, err := bilateral.Solve(left, right, bilateral.DefaultBSSAConfig(r.MaxDisparity()))
		if err != nil {
			return err
		}
		fmt.Printf("%4d  %-12s  %6.3f   %5.1f%%   %d\n", i/2, "block-match",
			stereo.MeanAbsError(bm.Disparity, gt), stereo.BadPixelRate(bm.Disparity, gt, 2)*100, bm.CostVolumeOps)
		fmt.Printf("%4d  %-12s  %6.3f   %5.1f%%   %d\n", i/2, "BSSA",
			stereo.MeanAbsError(bssa, gt), stereo.BadPixelRate(bssa, gt, 2)*100, st.VertexOps)
	}
	fmt.Println("\npaper context: bilateral-space refinement yields faster, higher-quality output (§IV-A)")
	return nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
