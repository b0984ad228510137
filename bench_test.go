// Benchmarks regenerating the computational kernels behind every table and
// figure of the paper (one benchmark family per experiment ID, numbered
// as in cmd/camsim). Run with:
//
//	go test -bench=. -benchmem .
package camsim_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"camsim/internal/bilateral"
	"camsim/internal/compress"
	"camsim/internal/core"
	"camsim/internal/fixed"
	"camsim/internal/fleet"
	"camsim/internal/img"
	"camsim/internal/nn"
	"camsim/internal/platform"
	"camsim/internal/quality"
	"camsim/internal/rig"
	"camsim/internal/snnap"
	"camsim/internal/stereo"
	"camsim/internal/synth"
	"camsim/internal/vj"
	"camsim/internal/vr"
)

// --- shared fixtures (trained once) ---

var (
	fixOnce    sync.Once
	fixNet     *nn.Network
	fixCascade *vj.Cascade
	fixScene   synth.DetectionScene
)

func fixtures(b *testing.B) (*nn.Network, *vj.Cascade, synth.DetectionScene) {
	b.Helper()
	fixOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		set := synth.BuildVerificationSet(rng, synth.VerificationConfig{
			Size: 20, Positives: 120, Negatives: 120, Impostors: 15,
			TrainFrac: 0.9, TargetSeed: 7,
		})
		fixNet = nn.New(rand.New(rand.NewSource(43)), 400, 8, 1)
		fixNet.TrainRPROP(nn.ToTrainSamples(set.Train), nn.DefaultRPROP(60))

		var err error
		fixCascade, err = vj.Train(rng,
			synth.FaceChips(rng, 200, 20), synth.NonFaceChips(rng, 400, 20),
			vj.DefaultTrainConfig())
		if err != nil {
			panic(err)
		}
		fixScene = synth.BuildDetectionScene(rng, synth.SceneConfig{
			W: 160, H: 120, MaxFaces: 2, MinSize: 24, MaxSize: 44,
			Clutter: 4, ForceFace: true,
		})
	})
	return fixNet, fixCascade, fixScene
}

// BenchmarkE1NNTopology measures the quantized inference kernel for each
// topology of the E1 sweep (accuracy comes from the camsim nn-topology
// command; the benchmark tracks the per-inference computational cost).
func BenchmarkE1NNTopology(b *testing.B) {
	for _, topo := range [][3]int{{25, 4, 1}, {100, 8, 1}, {400, 8, 1}, {400, 16, 1}} {
		name := fmt.Sprintf("%d-%d-%d", topo[0], topo[1], topo[2])
		b.Run(name, func(b *testing.B) {
			n := nn.New(rand.New(rand.NewSource(1)), topo[0], topo[1], topo[2])
			q := fixed.QuantizeNet(n, 8, nil)
			in := make([]float64, topo[0])
			rep := snnap.MustSimulate(n.Sizes, snnap.DefaultConfig())
			b.ReportMetric(float64(rep.Energy)*1e12, "modelpJ/inf")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Forward(in)
			}
		})
	}
}

// BenchmarkE2PESweep measures the accelerator simulator across geometries
// and reports the modelled energy per inference (the Fig.-less §III-A
// geometry exploration; minimum at 8 PEs).
func BenchmarkE2PESweep(b *testing.B) {
	for _, pes := range []int{1, 4, 8, 32} {
		b.Run(fmt.Sprintf("PEs%d", pes), func(b *testing.B) {
			cfg := snnap.DefaultConfig()
			cfg.PEs = pes
			var rep snnap.Report
			for i := 0; i < b.N; i++ {
				rep = snnap.MustSimulate([]int{400, 8, 1}, cfg)
			}
			b.ReportMetric(float64(rep.Energy)*1e12, "modelpJ/inf")
		})
	}
}

// BenchmarkE3Bitwidth measures quantized inference at each datapath width.
func BenchmarkE3Bitwidth(b *testing.B) {
	net, _, _ := fixtures(b)
	in := make([]float64, 400)
	for _, bits := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) {
			q := fixed.QuantizeNet(net, bits, nil)
			cfg := snnap.DefaultConfig()
			cfg.Bits = bits
			rep := snnap.MustSimulate(net.Sizes, cfg)
			b.ReportMetric(float64(rep.Energy)*1e12, "modelpJ/inf")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Forward(in)
			}
		})
	}
}

// BenchmarkE5VJParams measures detection across the Fig. 4c parameter
// sweep, reporting the windows each operating point evaluates.
func BenchmarkE5VJParams(b *testing.B) {
	_, cascade, scene := fixtures(b)
	cases := []struct {
		name string
		p    vj.DetectParams
	}{
		{"scale1.25step4", vj.DetectParams{ScaleFactor: 1.25, StepSize: 4, MinNeighbors: 2}},
		{"scale2.00step4", vj.DetectParams{ScaleFactor: 2.0, StepSize: 4, MinNeighbors: 2}},
		{"scale1.25step16", vj.DetectParams{ScaleFactor: 1.25, StepSize: 16, MinNeighbors: 2}},
		{"adaptive0.3", vj.DetectParams{ScaleFactor: 1.25, StepSize: 4, AdaptiveStep: 0.3, MinNeighbors: 2}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var st vj.DetectStats
			for i := 0; i < b.N; i++ {
				_, st = cascade.Detect(scene.Image, c.p)
			}
			b.ReportMetric(float64(st.Windows), "windows")
			b.ReportMetric(float64(st.FeatureEvals), "features")
		})
	}
}

// BenchmarkE6FaceAuthPipeline measures the per-frame cost of the pipeline
// stages on a motion frame (capture → MD → VJ → multi-crop NN).
func BenchmarkE6FaceAuthPipeline(b *testing.B) {
	net, cascade, scene := fixtures(b)
	q := fixed.QuantizeNet(net, 8, nil)
	p := vj.DefaultDetectParams()
	p.StepSize = 2
	p.MinNeighbors = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boxes, _ := cascade.Detect(scene.Image, p)
		for _, box := range boxes {
			chip := img.ResizeBilinear(scene.Image.SubImage(box.X, box.Y, box.W, box.H), 20, 20)
			q.Forward(nn.FlattenChip(chip))
		}
	}
}

// BenchmarkE8BilateralFilter measures the Fig. 6 splat-blur-slice kernel.
func BenchmarkE8BilateralFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := img.NewGray(256, 128)
	for i := range g.Pix {
		g.Pix[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bilateral.Filter(g, g, 8, 16, 2)
	}
}

// BenchmarkE9GridSweep measures BSSA at the Fig. 7 grid design points.
func BenchmarkE9GridSweep(b *testing.B) {
	r := rig.NewRig(rand.New(rand.NewSource(9)), 4, 192, 96, 0.75, 3)
	left, right, _ := r.Pair(0)
	for _, cell := range []float64{4, 16, 64} {
		b.Run(fmt.Sprintf("cell%.0f", cell), func(b *testing.B) {
			cfg := bilateral.DefaultBSSAConfig(r.MaxDisparity())
			cfg.CellXY = cell
			var st bilateral.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = bilateral.Solve(left, right, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.GridBytes), "gridB")
		})
	}
}

// BenchmarkE10BlockProfile times each VR pipeline block separately — the
// measured Go analogue of Fig. 9's compute distribution (B3 dominates).
func BenchmarkE10BlockProfile(b *testing.B) {
	r := rig.NewRig(rand.New(rand.NewSource(10)), 4, 192, 96, 0.75, 3)
	view0, view1 := r.RawPair(0)
	raw := vr.CaptureFrame(view0)
	pre0 := vr.Preprocess(raw)
	pre1 := vr.Preprocess(vr.CaptureFrame(view1))
	left, right, _ := r.Pair(0)
	bssaCfg := bilateral.DefaultBSSAConfig(r.MaxDisparity())
	disp, _, err := bilateral.Solve(left, right, bssaCfg)
	if err != nil {
		b.Fatal(err)
	}
	views := []*img.Gray{pre0, pre1, pre0, pre1}
	disparities := []*img.Gray{disp, disp}

	b.Run("B1_preprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vr.Preprocess(raw)
		}
	})
	b.Run("B2_align", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vr.Align(pre0, pre1, int(r.PanSpacing), 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("B3_depth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := bilateral.Solve(left, right, bssaCfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("B4_stitch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vr.Stitch(views, disparities, vr.StitchConfig{
				PanSpacing: r.PanSpacing, ParallaxCompensate: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11PipelineConfigs measures the cost-framework evaluation of
// all Fig. 10 placements (the decision procedure itself).
func BenchmarkE11PipelineConfigs(b *testing.B) {
	p := paperPipeline()
	placements := p.Enumerate([]string{"CPU", "GPU", "FPGA"})
	link := platform.Ethernet25G.BytesPerSecond()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pl := range placements {
			if _, err := p.Evaluate(pl, link); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE12Table1 measures the FPGA resource calculator.
func BenchmarkE12Table1(b *testing.B) {
	z := platform.Zynq7020()
	v := platform.VirtexUltraScalePlus()
	for i := 0; i < b.N; i++ {
		z.Utilization(z.MaxComputeUnits())
		v.Utilization(v.MaxComputeUnits())
	}
}

// BenchmarkE13LinkSweep measures the best-placement search across uplink
// bandwidths.
func BenchmarkE13LinkSweep(b *testing.B) {
	p := paperPipeline()
	placements := p.Enumerate([]string{"CPU", "GPU", "FPGA"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gbps := range []float64{1, 10, 25, 100, 400} {
			if _, err := p.Best(placements, gbps*1e9/8); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE14StereoBaseline compares BSSA against block matching on the
// same pair (the quality numbers come from camsim stereo-baseline).
func BenchmarkE14StereoBaseline(b *testing.B) {
	r := rig.NewRig(rand.New(rand.NewSource(14)), 4, 192, 96, 0.75, 3)
	left, right, _ := r.Pair(0)
	maxD := r.MaxDisparity()
	b.Run("blockmatch", func(b *testing.B) {
		cfg := stereo.Config{MaxDisparity: maxD, WindowRadius: 3}
		for i := 0; i < b.N; i++ {
			stereo.BlockMatch(left, right, cfg)
		}
	})
	b.Run("bssa", func(b *testing.B) {
		cfg := bilateral.DefaultBSSAConfig(maxD)
		for i := 0; i < b.N; i++ {
			if _, _, err := bilateral.Solve(left, right, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMSSSIM measures the Fig. 7 quality metric itself.
func BenchmarkMSSSIM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := img.NewGray(256, 128)
	y := img.NewGray(256, 128)
	for i := range x.Pix {
		x.Pix[i] = rng.Float32()
		y.Pix[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quality.MSSSIM(x, y)
	}
}

// paperPipeline rebuilds the Fig. 10 pipeline for the framework benches.
func paperPipeline() *core.ThroughputPipeline {
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
		SensorBytes: m.Sensor,
		Stages: []core.Stage{
			{Name: "B1", OutputBytes: m.B1, FPS: fps(1, platform.CPU)},
			{Name: "B2", OutputBytes: m.B2, FPS: fps(2, platform.CPU)},
			{Name: "B3", OutputBytes: m.B3, FPS: fps(3, platform.CPU, platform.GPU, platform.FPGA)},
			{Name: "B4", OutputBytes: m.B4, FPS: fps(4, platform.CPU, platform.GPU, platform.FPGA)},
		},
	}
}

// BenchmarkFleetSweep measures the fleet simulator's hot path: a
// 1000-camera mixed fleet (face-auth + VR) swept over the three Fig. 10
// VR placements on a shared fair-share uplink, one full sweep per
// iteration across the worker pool.
func BenchmarkFleetSweep(b *testing.B) {
	placements := []core.Placement{
		{},
		{InCamera: 3, Impl: []string{"CPU", "CPU", "FPGA"}},
		{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}},
	}
	var scenarios []fleet.Scenario
	for _, pl := range placements {
		vrClass, err := fleet.VRClass(250, pl, 30)
		if err != nil {
			b.Fatal(err)
		}
		scenarios = append(scenarios, fleet.Scenario{
			Name:     "bench-" + vrClass.Name,
			Seed:     1,
			Duration: 5,
			Uplink:   fleet.UplinkConfig{Gbps: 10, Contention: fleet.ContentionFairShare},
			Classes:  []fleet.Class{fleet.FaceAuthClass(750), vrClass},
		})
	}
	var frames int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range fleet.Sweep(scenarios, 0) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
			frames += o.Result.Total.Captured
		}
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/sweep")
}

// BenchmarkTopologySweep measures the tiered simulator end to end: the
// congested two-gateway fleet behind `camsim topo`, swept over the three
// placement policies (static baseline plus the two adaptive controllers),
// one full sweep per iteration. Placement switches are accumulated so the
// adaptive machinery is verifiably exercised, not optimized away.
func BenchmarkTopologySweep(b *testing.B) {
	var scenarios []fleet.Scenario
	for _, pol := range []string{fleet.PolicyStatic, fleet.PolicyLatencyThreshold, fleet.PolicyHysteresis} {
		sc, err := fleet.TopologyDemoScenario(1, pol)
		if err != nil {
			b.Fatal(err)
		}
		scenarios = append(scenarios, sc)
	}
	var switches int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range fleet.Sweep(scenarios, 0) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
			switches += o.Result.Total.Switches
		}
	}
	if switches == 0 {
		b.Fatal("adaptive policies never moved a camera")
	}
	b.ReportMetric(float64(switches)/float64(b.N), "moves/sweep")
}

// BenchmarkE15Compression measures the optional in-camera compression
// block (the §II extension) on real sensor content.
func BenchmarkE15Compression(b *testing.B) {
	r := rig.NewRig(rand.New(rand.NewSource(15)), 2, 256, 128, 0.75, 3)
	raw := vr.CaptureFrame(r.View(0))
	codec, err := compress.NewCodec(12)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := codec.Encode(raw)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(compress.Ratio(raw, enc), "ratio")
	b.SetBytes(raw.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Encode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
