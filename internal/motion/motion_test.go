package motion

import (
	"testing"

	"camsim/internal/img"
	"camsim/internal/synth"
)

func flat(w, h int, v float32) *img.Gray {
	g := img.NewGray(w, h)
	g.Fill(v)
	return g
}

func TestFirstFrameNoMotion(t *testing.T) {
	d := New(DefaultConfig())
	r := d.Step(flat(16, 16, 0.5))
	if r.Motion {
		t.Fatal("first frame must not report motion")
	}
	if d.Frames() != 1 {
		t.Fatalf("Frames = %d", d.Frames())
	}
}

func TestStaticSceneNoMotion(t *testing.T) {
	d := New(DefaultConfig())
	f := flat(32, 32, 0.4)
	d.Step(f)
	for i := 0; i < 5; i++ {
		if r := d.Step(f.Clone()); r.Motion {
			t.Fatalf("static frame %d reported motion (%+v)", i, r)
		}
	}
}

func TestIntrusionDetected(t *testing.T) {
	d := New(DefaultConfig())
	bg := flat(64, 64, 0.4)
	d.Step(bg)
	intruder := bg.Clone()
	img.FillRect(intruder, 20, 20, 16, 16, 0.9)
	r := d.Step(intruder)
	if !r.Motion {
		t.Fatalf("16x16 intrusion not detected: %+v", r)
	}
	if r.ChangedPixels < 200 {
		t.Fatalf("changed pixels %d implausibly low", r.ChangedPixels)
	}
}

func TestNoiseBelowThresholdIgnored(t *testing.T) {
	d := New(DefaultConfig())
	bg := flat(64, 64, 0.4)
	d.Step(bg)
	noisy := bg.Clone()
	for i := range noisy.Pix {
		if i%2 == 0 {
			noisy.Pix[i] += 0.04 // below the 0.10 threshold
		}
	}
	if r := d.Step(noisy); r.Motion {
		t.Fatalf("sub-threshold noise reported as motion: %+v", r)
	}
}

func TestBackgroundAdaptsToDrift(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.2
	d := New(cfg)
	d.Step(flat(32, 32, 0.4))
	// Slow drift: +0.02 per frame stays under threshold and gets absorbed.
	v := float32(0.4)
	for i := 0; i < 20; i++ {
		v += 0.02
		if r := d.Step(flat(32, 32, v)); r.Motion {
			t.Fatalf("frame %d: slow drift flagged as motion (%+v)", i, r)
		}
	}
}

func TestFrozenBackgroundFlagsDrift(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0 // frame differencing against a frozen reference
	d := New(cfg)
	d.Step(flat(32, 32, 0.4))
	for i := 0; i < 20; i++ {
		d.Step(flat(32, 32, 0.4+0.02*float32(i)))
	}
	// After 20 frames of drift the cumulative change exceeds the threshold.
	if r := d.Step(flat(32, 32, 0.8)); !r.Motion {
		t.Fatalf("frozen background failed to flag large cumulative drift: %+v", r)
	}
}

func TestPanicsOnSizeChange(t *testing.T) {
	d := New(DefaultConfig())
	d.Step(flat(8, 8, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Step(flat(9, 8, 0))
}

func TestPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Threshold: 0, MinFraction: 0.1, Alpha: 0.1},
		{Threshold: 0.1, MinFraction: -1, Alpha: 0.1},
		{Threshold: 0.1, MinFraction: 0.1, Alpha: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for %+v", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestReset(t *testing.T) {
	d := New(DefaultConfig())
	d.Step(flat(8, 8, 0.2))
	d.Reset()
	if d.Frames() != 0 {
		t.Fatal("Reset did not clear frame count")
	}
	if r := d.Step(flat(8, 8, 0.9)); r.Motion {
		t.Fatal("first frame after reset must not report motion")
	}
}

func TestOnSecurityTraceFilterRateAndRecall(t *testing.T) {
	// On the synthetic security trace, the motion gate must pass nearly
	// all target-present frames (it sits in front of the authenticator)
	// while rejecting the majority of empty frames.
	cfg := synth.DefaultTraceConfig(400)
	cfg.VisitRate = 3
	tr := synth.NewTrace(12, cfg)
	d := New(DefaultConfig())
	var passed, total, targetFrames, targetPassed int
	for f := 0; f < cfg.Frames; f++ {
		frame, truth := tr.Frame(f)
		r := d.Step(frame)
		if f == 0 {
			continue
		}
		total++
		if r.Motion {
			passed++
		}
		if truth.TargetPresent {
			targetFrames++
			if r.Motion {
				targetPassed++
			}
		}
	}
	if targetFrames == 0 {
		t.Fatal("trace has no target frames")
	}
	if recall := float64(targetPassed) / float64(targetFrames); recall < 0.9 {
		t.Fatalf("motion gate recall on target frames %v, want >= 0.9", recall)
	}
	if filter := 1 - float64(passed)/float64(total); filter < 0.5 {
		t.Fatalf("motion gate only filters %.0f%% of frames, want >= 50%%", filter*100)
	}
}

func TestPixelOps(t *testing.T) {
	if PixelOps(160, 120) != 2*160*120 {
		t.Fatal("PixelOps model changed unexpectedly")
	}
}

func BenchmarkStepQVGA(b *testing.B) {
	d := New(DefaultConfig())
	f := flat(320, 240, 0.5)
	d.Step(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step(f)
	}
}

// TestAblationAdaptiveVsFrozenBackground is the motion-detector design
// ablation: on a drifting-illumination trace, the
// adaptive background model must filter empty frames far better than a
// frozen first-frame reference while keeping target recall.
func TestAblationAdaptiveVsFrozenBackground(t *testing.T) {
	cfg := synth.DefaultTraceConfig(400)
	cfg.VisitRate = 3
	cfg.LightDrift = 0.08 // stronger drift to stress the frozen model
	tr := synth.NewTrace(21, cfg)

	run := func(alpha float32) (filterRate, recall float64) {
		mc := DefaultConfig()
		mc.Alpha = alpha
		d := New(mc)
		var passed, total, tgt, tgtPassed int
		for f := 0; f < cfg.Frames; f++ {
			frame, truth := tr.Frame(f)
			r := d.Step(frame)
			if f == 0 {
				continue
			}
			total++
			if r.Motion {
				passed++
			}
			if truth.TargetPresent {
				tgt++
				if r.Motion {
					tgtPassed++
				}
			}
		}
		if tgt == 0 {
			t.Fatal("trace has no target frames")
		}
		return 1 - float64(passed)/float64(total), float64(tgtPassed) / float64(tgt)
	}

	adFilter, adRecall := run(0.05)
	frFilter, frRecall := run(0)
	if adFilter <= frFilter {
		t.Fatalf("adaptive background filters %.2f, frozen %.2f — ablation inverted", adFilter, frFilter)
	}
	if adRecall < 0.9 {
		t.Fatalf("adaptive model recall %v too low", adRecall)
	}
	_ = frRecall // frozen recall is trivially high: it flags everything
}
