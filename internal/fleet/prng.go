package fleet

import (
	"math"
	"math/rand"
)

// prng is the simulator's compact per-entity random stream: a splitmix64
// generator whose entire state is one uint64 embedded by value in its
// owner. It replaces the per-camera *rand.Rand of earlier revisions —
// rand.NewSource's lagged-Fibonacci state is ~5 KB behind a pointer, so a
// 100k-camera fleet carried ~500 MB of cache-hostile heap just for
// randomness; the same fleet now carries 800 KB inline with the cameras.
//
// splitmix64 walks its state by a fixed odd increment (the golden-ratio
// gamma) and returns a finalizing mix of the new state, so every seed
// yields a full-period (2^64) stream and two streams whose mixed seeds
// differ anywhere are statistically independent. Seeds come from
// streamSeed, which is itself splitmix64-mixed, so consecutive camera
// indexes start at unrelated stream positions.
//
// prng implements rand.Source64, so a stream can still feed rand.New
// where the full math/rand surface is needed; the direct Float64 /
// ExpFloat64 / Intn methods are what the hot path calls, and they draw
// different values than rand.Rand's ziggurat-based ones — switching to
// them was the one-time seeded-stream shift noted in doc.go.
type prng struct {
	state uint64
}

var _ rand.Source64 = (*prng)(nil)

// newPRNG returns a stream positioned by the given (pre-mixed) seed.
func newPRNG(seed int64) prng { return prng{state: uint64(seed)} }

// Uint64 advances the stream one step and returns 64 random bits.
func (p *prng) Uint64() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (p *prng) Int63() int64 { return int64(p.Uint64() >> 1) }

// Seed implements rand.Source, repositioning the stream.
func (p *prng) Seed(seed int64) { p.state = uint64(seed) }

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (p *prng) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponential draw with rate 1 by inversion:
// -ln(1-U) for uniform U in [0, 1). The inverse CDF needs one uniform per
// draw and no tables, trading rand.Rand's amortized-faster ziggurat for
// zero state — the right side of the trade when the state lives in every
// camera.
func (p *prng) ExpFloat64() float64 {
	return -math.Log(1 - p.Float64())
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0. The modulo
// bias is at most n/2^64 — unobservable at simulator population sizes —
// in exchange for a branch-free single draw.
func (p *prng) Intn(n int) int {
	if n <= 0 {
		panic("fleet: prng.Intn with non-positive n")
	}
	return int(p.Uint64() % uint64(n))
}

// Seed-family tags, one per independent stream family. Each family's
// streams are keyed by an index within it (camera, class, schedule
// entry, ...), and the tag folded into the seed round keeps the families
// disjoint, so enabling one subsystem never perturbs another's draws.
const (
	seedCameras     = 0 // per-camera traffic streams, by global camera index
	seedControllers = 0xc0117801
	seedGlobal      = 0x61017ba1
	seedFederated   = 0xfedc0de5
	seedDynamics    = 0xd11aa1c5
)

// streamSeed derives a well-separated stream seed from the scenario seed,
// a family tag and an index, so a stream is a function of (seed, family,
// index) alone — stable under reordering, class edits elsewhere, or
// parallel sweeps. Two full mixing rounds keep every seed bit live, so
// no (seed, index) pair collides with another, at any camera count.
func streamSeed(seed int64, tag uint64, idx int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)^tag) + uint64(idx)))
}

// splitmix64 is one round of the splitmix64 mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
