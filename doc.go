// Package camsim is a from-scratch reproduction of "Exploring
// Computation-Communication Tradeoffs in Camera Systems" (Mazumdar et al.,
// IISWC 2017).
//
// The library decomposes camera applications into in-camera processing
// pipelines (internal/core) and instantiates the paper's two case studies
// end to end: an RF-harvesting face-authentication camera
// (internal/faceauth over internal/{motion,vj,nn,fixed,snnap,energy}) and
// a real-time 3D-360° VR video rig (internal/vr over
// internal/{rig,bilateral,stereo,platform}).
//
// Beyond the paper's single-camera scope, internal/fleet scales these
// models to populations of cameras contending for one shared uplink: a
// JSON-configurable, deterministic discrete-event simulator with pluggable
// contention (fair-share processor sharing or FIFO) and a worker-pool
// sweeper, surfaced as the `camsim fleet` subcommand and the
// examples/fleet-sweep program.
//
// # Determinism invariants
//
// Every result the repo reports is reproducible from a scenario's seed:
// the fleet simulator's goldens are byte-identical across GOMAXPROCS
// 1, 2 and 8 (the nightly matrix replays them), every seeded draw flows
// through the value-embedded splitmix64 PRNG with per-entity streams
// pinned by reference vectors, and one simulation run is one sequential
// event loop — parallelism exists only between runs, in the sweep
// worker pool. These invariants are machine-checked by fleetvet
// (internal/lint, driven by cmd/fleetvet): five analyzers reject map
// iteration leaks, wall-clock and math/rand sources, in-run
// concurrency, order-dependent float accumulation, and scenario
// sections the reflection deep copy or the JSON round trip could not
// cover. CI's lint job and the nightly matrix both run
// `go run ./cmd/fleetvet ./...` and fail on any diagnostic.
//
// See ARCHITECTURE.md for the map across packages, integration_test.go
// for the paper's headline claims checked end to end, and cmd/camsim for
// the experiment CLI that regenerates every table and figure.
package camsim
