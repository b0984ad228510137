package fleet

import (
	"math"
	"testing"
)

// TestSingleCameraReduction checks the fleet simulator against the
// paper's single-camera model at N = 1: one VR camera head at 30 FPS on
// one flat uplink, for every Fig. 10 placement and both contention
// models. The placement's own crossover is the link rate at which its
// payload exactly keeps up with the frame rate, 30 × FrameBytes B/s.
//
//   - Just above it (1.01×) a frame never waits for the link, so every
//     latency is the model's ComputeSeconds + FrameBytes/bandwidth, and
//     the camera drops frames only when its own compute cannot keep 30
//     FPS.
//   - Just below it (0.99×) the link falls behind a compute-feasible
//     camera, and the 99th percentile waits more than a frame period.
func TestSingleCameraReduction(t *testing.T) {
	const fps = 30
	for _, pl := range PaperVRPipeline().Enumerate([]string{"CPU", "GPU", "FPGA"}) {
		cl, err := VRClass(1, pl, fps)
		if err != nil {
			t.Fatal(err)
		}
		feasible := cl.ComputeSeconds <= 1.0/fps
		crossover := fps * float64(cl.FrameBytes)
		for _, contention := range []string{ContentionFairShare, ContentionFIFO} {
			run := func(factor float64) (ClassStats, float64) {
				sc := Scenario{
					Name:     "n1-" + cl.Name,
					Seed:     1,
					Duration: 10,
					Uplink:   UplinkConfig{Gbps: factor * crossover * 8 / 1e9, Contention: contention},
					Classes:  []Class{cl},
				}
				res, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				floor := cl.ComputeSeconds + float64(cl.FrameBytes)/sc.Uplink.BytesPerSecond()
				return res.Classes[0], floor
			}

			st, floor := run(1.01)
			for _, q := range []struct {
				name string
				v    float64
			}{{"p50", st.LatencyP50}, {"p99", st.LatencyP99}} {
				if rel := math.Abs(q.v-floor) / floor; !(rel <= 1e-13) {
					t.Errorf("%s %s at 1.01x: %s %v, want %v (rel err %.2g)", cl.Name, contention, q.name, q.v, floor, rel)
				}
			}
			if dropped := st.DroppedQueue > 0; dropped == feasible {
				t.Errorf("%s %s at 1.01x: %d queue drops with compute %v s per frame (feasible %v)",
					cl.Name, contention, st.DroppedQueue, cl.ComputeSeconds, feasible)
			}

			if !feasible {
				continue
			}
			st, floor = run(0.99)
			if st.LatencyP99 <= floor+1.0/fps {
				t.Errorf("%s %s at 0.99x: p99 %v does not exceed the floor %v by a frame period",
					cl.Name, contention, st.LatencyP99, floor)
			}
		}
	}
}
