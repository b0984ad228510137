package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"time"

	"camsim/internal/bilateral"
	"camsim/internal/compress"
	"camsim/internal/core"
	"camsim/internal/fixed"
	"camsim/internal/img"
	"camsim/internal/nn"
	"camsim/internal/platform"
	"camsim/internal/quality"
	"camsim/internal/rig"
	"camsim/internal/stereo"
	"camsim/internal/synth"
	"camsim/internal/vj"
	"camsim/internal/vr"
)

// Sizes of the paper-kernels inputs. The rig matches `camsim fig7`'s
// 7MP-proxy resolution; the scenes are QVGA-class face-auth frames.
const (
	rigCameras       = 4
	rigW, rigH       = 256, 128
	rigBaseline      = 3
	burstScenes      = 8
	sceneW, sceneH   = 160, 120
	chipSize         = 20
	cascadePos       = 200
	cascadeNeg       = 400
	verifyPos        = 150
	verifyNeg        = 150
	trainEpochs      = 60
	quantBits        = 8
	bitsPerRawSample = 12
	// trainSeed fixes the training corpora, so every --seed is scored by
	// the same detector and verifier and trains at the same cost; --seed
	// varies the rig and the scenes.
	trainSeed = 1
)

// kernelRunner holds the synthesized rig frame, the face-auth scene burst
// and the trained models. One operation is the rig frame through B1–B4
// plus block matching, MS-SSIM and compression, the burst through VJ
// detection and quantized NN verification, and the Fig. 10 placements
// through the core framework.
type kernelRunner struct {
	rig        *rig.Rig
	raws       []*img.Raw
	lefts      []*img.Gray
	rights     []*img.Gray
	truths     []*img.Gray
	scenes     []*img.Gray
	testChips  []*img.Gray
	cascade    *vj.Cascade
	net        *fixed.Net
	codec      *compress.Codec
	maxDisp    int
	bssa       bilateral.BSSAConfig
	pipeline   *core.ThroughputPipeline
	placements []core.Placement
}

func setupPaperKernels(seed int64, tr *tracer) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	k := &kernelRunner{}

	sp := tr.begin("rig.synth", 0)
	k.rig = rig.NewRig(rng, rigCameras, rigW, rigH, 0.75, rigBaseline)
	for i := 0; i < rigCameras; i++ {
		k.raws = append(k.raws, vr.CaptureFrame(k.rig.View(i)))
	}
	for i := 0; i < rigCameras; i += 2 {
		l, r, gt := k.rig.Pair(i)
		k.lefts, k.rights, k.truths = append(k.lefts, l), append(k.rights, r), append(k.truths, gt)
	}
	for i := 0; i < burstScenes; i++ {
		sc := synth.BuildDetectionScene(rng, synth.SceneConfig{
			W: sceneW, H: sceneH, MaxFaces: 2, MinSize: 28, MaxSize: 56,
			Clutter: 5, NoiseSig: 0.01, ForceFace: true,
		})
		k.scenes = append(k.scenes, sc.Image)
	}
	tr.end(sp)

	rng = rand.New(rand.NewSource(trainSeed))
	sp = tr.begin("vj.train", 0)
	cascade, err := vj.Train(rng, synth.FaceChips(rng, cascadePos, chipSize),
		synth.NonFaceChips(rng, cascadeNeg, chipSize), vj.DefaultTrainConfig())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	k.cascade = cascade

	sp = tr.begin("nn.train", 0)
	set := synth.BuildVerificationSet(rng, synth.VerificationConfig{
		Size: chipSize, Positives: verifyPos, Negatives: verifyNeg, Impostors: 25,
		TrainFrac: 0.9, TargetSeed: 7,
	})
	net := nn.New(rand.New(rand.NewSource(rng.Int63())), chipSize*chipSize, 8, 1)
	net.TrainRPROP(nn.ToTrainSamples(set.Train), nn.DefaultRPROP(trainEpochs))
	k.net = fixed.QuantizeNet(net, quantBits, nil)
	tr.end(sp)
	for _, s := range set.Test {
		k.testChips = append(k.testChips, s.Chip)
	}

	if k.codec, err = compress.NewCodec(bitsPerRawSample); err != nil {
		return nil, err
	}
	// The search range is the largest disparity any scene can have, not
	// this rig's, so that B3 and block matching cost the same on every seed.
	sc := rig.DefaultSceneConfig(0, 0, 0)
	k.maxDisp = int(math.Ceil(sc.FocalPx*rigBaseline/sc.MinDepth)) + 1
	k.bssa = bilateral.DefaultBSSAConfig(k.maxDisp)
	k.pipeline, k.placements = fig10()
	return k, nil
}

// fig10 assembles the paper's VR pipeline (byte model × block
// throughputs) and the nine Fig. 10 placements.
func fig10() (*core.ThroughputPipeline, []core.Placement) {
	m := vr.PaperByteModel()
	tp := platform.PaperThroughput()
	fps := func(block int, devs ...platform.Device) map[string]float64 {
		out := map[string]float64{}
		for _, d := range devs {
			out[d.String()] = tp.BlockFPS(block, d)
		}
		return out
	}
	p := &core.ThroughputPipeline{
		SensorBytes: m.Sensor,
		Stages: []core.Stage{
			{Name: "B1", OutputBytes: m.B1, FPS: fps(1, platform.CPU)},
			{Name: "B2", OutputBytes: m.B2, FPS: fps(2, platform.CPU)},
			{Name: "B3", OutputBytes: m.B3, FPS: fps(3, platform.CPU, platform.GPU, platform.FPGA)},
			{Name: "B4", OutputBytes: m.B4, FPS: fps(4, platform.CPU, platform.GPU, platform.FPGA)},
		},
	}
	pls := []core.Placement{{}, {InCamera: 1, Impl: []string{"CPU"}}, {InCamera: 2, Impl: []string{"CPU", "CPU"}}}
	for _, d := range []string{"CPU", "GPU", "FPGA"} {
		pls = append(pls, core.Placement{InCamera: 3, Impl: []string{"CPU", "CPU", d}})
	}
	for _, d := range []string{"CPU", "GPU", "FPGA"} {
		pls = append(pls, core.Placement{InCamera: 4, Impl: []string{"CPU", "CPU", d, d}})
	}
	return p, pls
}

func (k *kernelRunner) op(tr *tracer) (opResult, error) {
	t0 := time.Now()
	root := tr.beginOp()
	defer tr.end(root)
	h := sha256.New()
	out := opResult{counts: map[string]float64{}}
	fail := func(format string, args ...any) {
		if out.checkErr == nil {
			out.checkErr = fmt.Errorf("paper-kernels: "+format, args...)
		}
	}

	pre := make([]*img.Gray, len(k.raws))
	for i, raw := range k.raws {
		sp := tr.begin("vr.preprocess", root)
		pre[i] = vr.Preprocess(raw)
		tr.end(sp)
		hashGray(h, pre[i])
	}
	nominal := int(k.rig.PanSpacing)
	for i := 0; i+1 < len(pre); i++ {
		sp := tr.begin("vr.align", root)
		al, err := vr.Align(pre[i], pre[i+1], nominal, 4)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		if al.Shift < nominal-4 || al.Shift > nominal+4 {
			fail("align pair %d shift %d outside the search window", i, al.Shift)
		}
		hashFloats(h, float64(al.Shift), al.Score)
	}
	disps := make([]*img.Gray, len(k.lefts))
	for i := range k.lefts {
		sp := tr.begin("bilateral.solve", root)
		d, st, err := bilateral.Solve(k.lefts[i], k.rights[i], k.bssa)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		disps[i] = d
		out.counts["bilateral.grid_bytes"] += float64(st.GridBytes)
		hashGray(h, d)
	}
	sp := tr.begin("vr.stitch", root)
	pano, err := vr.Stitch(pre, disps, vr.StitchConfig{PanSpacing: k.rig.PanSpacing, ParallaxCompensate: true})
	tr.end(sp)
	if err != nil {
		return out, err
	}
	hashGray(h, pano)

	maxD := float32(k.maxDisp)
	for i := range k.lefts {
		sp := tr.begin("stereo.blockmatch", root)
		bm := stereo.BlockMatch(k.lefts[i], k.rights[i], stereo.Config{MaxDisparity: int(maxD), WindowRadius: 3})
		tr.end(sp)
		hashGray(h, bm.Disparity)
		truth := scaled(k.truths[i], 1/maxD)
		for _, d := range []*img.Gray{disps[i], bm.Disparity} {
			in := scaled(d, 1/maxD)
			sp := tr.begin("quality.msssim", root)
			q := quality.MSSSIM(in, truth)
			tr.end(sp)
			if !(q >= -1 && q <= 1) {
				fail("MS-SSIM %v outside [-1, 1]", q)
			}
			hashFloats(h, q)
		}
	}
	for _, raw := range k.raws {
		sp := tr.begin("compress.encode", root)
		enc, err := k.codec.Encode(raw)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		h.Write(enc)
	}

	dp := vj.DefaultDetectParams()
	dp.StepSize = 2
	dp.MinNeighbors = 1
	var chips []*img.Gray
	for _, scene := range k.scenes {
		sp := tr.begin("vj.detect", root)
		boxes, st := k.cascade.Detect(scene, dp)
		tr.end(sp)
		out.counts["vj.windows"] += float64(st.Windows)
		out.counts["vj.feature_evals"] += float64(st.FeatureEvals)
		out.counts["vj.faces"] += float64(len(boxes))
		for _, b := range boxes {
			hashFloats(h, float64(b.X), float64(b.Y), float64(b.W), b.Score)
			chips = append(chips, img.ResizeBilinear(scene.SubImage(b.X, b.Y, b.W, b.H), chipSize, chipSize))
		}
	}
	chips = append(chips, k.testChips...)
	for _, chip := range chips {
		in := nn.FlattenChip(chip)
		sp := tr.begin("fixed.forward", root)
		y := k.net.Forward(in)
		tr.end(sp)
		hashFloats(h, y...)
	}

	sp = tr.begin("core.evaluate", root)
	var as []core.Assessment
	for _, link := range []platform.Link{platform.Ethernet25G, platform.Ethernet400G} {
		for _, pl := range k.placements {
			a, err := k.pipeline.Evaluate(pl, link.BytesPerSecond())
			if err != nil {
				tr.end(sp)
				return out, err
			}
			as = append(as, a)
		}
	}
	tr.end(sp)
	for _, a := range as {
		hashFloats(h, a.ComputeFPS, a.CommFPS, a.TotalFPS, float64(a.OffloadBytes))
	}

	out.frames = int64(len(k.raws) + len(k.scenes))
	out.framesSec = time.Since(t0).Seconds()
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// scaled returns a copy of g multiplied by s.
func scaled(g *img.Gray, s float32) *img.Gray {
	o := g.Clone()
	for i := range o.Pix {
		o.Pix[i] *= s
	}
	return o
}

func hashGray(h hash.Hash, g *img.Gray) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(g.W))
	h.Write(b[:])
	binary.LittleEndian.PutUint32(b[:], uint32(g.H))
	h.Write(b[:])
	buf := make([]byte, 4*len(g.Pix))
	for i, v := range g.Pix {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	h.Write(buf)
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}
