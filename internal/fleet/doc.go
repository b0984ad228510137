// Package fleet scales the paper's single-camera computation-communication
// models to populations of cameras contending for a shared network. It is
// the bridge from the per-device analyses of internal/core (placement cost),
// internal/energy (radios, harvesters) and the two case studies
// (internal/faceauth, internal/vr) to fleet-level questions: how many
// cameras does a given uplink support, which placement keeps offload
// latency bounded as the fleet grows, and what does contention do to
// harvest-constrained devices sharing the air with bandwidth-hungry ones.
// The network is one shared uplink (the flat model), a two-tier gateway
// topology, or an arbitrary-depth tier tree — cameras attach to a named
// tier and their offloads climb every link from there to the root, paying
// transmission plus one-way propagation delay at each hop — and classes
// can carry a runtime placement cost table that an adaptive per-class
// controller walks as observed conditions change.
//
// This comment documents the scenario surface section by section;
// ARCHITECTURE.md at the repository root maps the machinery underneath —
// the event loop and its heap discipline, the link layout and tie-break
// order, the PRNG seed families, the placement controllers, the two
// telemetry paths, and the fleetvet-enforced determinism invariants.
//
// # Scenario format
//
// A simulation run is described by a Scenario, decodable from JSON.
// ParseScenario is strict — an unknown field is an error, so a typoed
// knob cannot silently run as if absent — and `camsim fleet -scenario
// file.json` (or `camsim topo -scenario`) runs such a file directly:
//
//	{
//	  "name": "mixed-1000",
//	  "seed": 1,
//	  "duration_sec": 10,
//	  "uplink": {"gbps": 10, "contention": "fair-share"},
//	  "classes": [
//	    {"name": "fa", "count": 700, "fps": 1, "arrival": "poisson",
//	     "frame_bytes": 400, "offload_prob": 0.05, "compute_sec": 0.02,
//	     "capture_j": 3.3e-6, "compute_j": 1.1e-6,
//	     "tx_fixed_j": 2e-6, "tx_per_byte_j": 4.8e-10,
//	     "harvest_w": 2e-4, "store_j": 0.07, "queue_depth": 4},
//	    {"name": "vr", "count": 300, "fps": 30, "frame_bytes": 1122000,
//	     "compute_sec": 0.0316, "capture_j": 0.005, "compute_j": 0.316,
//	     "tx_fixed_j": 1e-4, "tx_per_byte_j": 4e-8}
//	  ]
//	}
//
// Each class instantiates Count identical cameras that capture frames at
// FPS (periodic with a random phase, or Poisson), spend ComputeSeconds of
// in-camera processing per frame, then offload FrameBytes with probability
// OffloadProb over the shared uplink. Classes with HarvestW > 0 are
// energy-harvesting: a camera skips frames its capacitor cannot pay for.
// The class builders FaceAuthClass and VRClass derive these parameters
// from the existing single-camera models (core.EnergyPipeline for the
// progressive-filtering face-authentication camera;
// core.ThroughputPipeline.Cost plus vr.PaperByteModel and
// platform.PaperThroughput for a Fig. 10 VR placement).
//
// # Tiered topology
//
// A "gateways" section makes the network two-tier: classes name the
// gateway their cameras attach to ("gateway"), offloads cross the finite
// camera→gateway link first and the shared WAN link (the top-level
// "uplink") second, and each tier runs its own contention discipline.
// Classes without a gateway attach directly to the WAN. Both forms are
// shorthand for a tier tree (see Tier trees): "uplink" alone is a single
// root tier named "wan", and "uplink" plus "gateways" is that root with
// one leaf per gateway, in declaration order, all with zero propagation.
// Per-tier served bytes and utilization come back in Result.Tiers.
//
//	"uplink": {"gbps": 4, "contention": "fair-share"},
//	"gateways": [
//	  {"name": "gw-a", "uplink": {"gbps": 2, "contention": "fair-share"}},
//	  {"name": "gw-b", "uplink": {"gbps": 2, "contention": "fifo"}}
//	],
//
// # Tier trees
//
// A "tiers" section generalizes the network to an arbitrary-depth tree
// (camera → gateway → metro → core): each tier names its parent — exactly
// one, the root, leaves it empty — and carries its own uplink plus a
// one-way "propagation_sec" delay. Classes attach by tier name ("tier";
// empty attaches at the root), and a transfer rides every link from its
// attach point to the root, accruing per-hop transmission and propagation
// time; completion latency is capture to arrival in the cloud, one root
// propagation delay after the root link drains.
//
//	"tiers": [
//	  {"name": "gw-a",  "parent": "metro", "uplink": {"gbps": 2}, "propagation_sec": 0.0002},
//	  {"name": "gw-b",  "parent": "metro", "uplink": {"gbps": 2}, "propagation_sec": 0.0002},
//	  {"name": "metro", "parent": "core",  "uplink": {"gbps": 4}, "propagation_sec": 0.002},
//	  {"name": "core",                     "uplink": {"gbps": 8}, "propagation_sec": 0.01}
//	],
//
// "tiers" is mutually exclusive with "gateways". The tree is the one
// form the simulator runs: Run and Validate turn a scenario without
// "tiers" into its depth-1 or depth-2 tree rooted at "wan" (the root
// last, after the gateway leaves) before anything else reads it, and a
// class's "gateway" becomes its "tier". Per-tier stats come
// back in Result.Tiers — served bytes, completed transfers, utilization,
// depth and the hop-delay total Transfers × PropagationSec — and
// Result.TierNamed finds a tier by name. DeepTopologyScenario builds the
// gateway→metro→core demo chain behind `camsim topo -depth`.
//
// # Downlink
//
// A tier may declare a "downlink" — the parent→tier link (cloud→root at
// the root), making the tree bidirectional:
//
//	{"name": "gw-a", "parent": "core",
//	 "uplink":   {"gbps": 2, "contention": "fair-share"},
//	 "downlink": {"gbps": 1, "contention": "fair-share", "propagation_sec": 0.0002},
//	 "propagation_sec": 0.0002}
//
// A downlink has its own capacity, contention discipline ("fair-share"
// defaulted, or "fifo") and one-way "propagation_sec"; it is a Link like
// any uplink, just pointed the other way. Downlinks are optional and
// independent: declaring one changes nothing upstream — frame traffic
// never rides them, link indices and tie-breaks of the existing uplinks
// are preserved, and a scenario without downlinks is byte-identical to
// what it produced before they existed. Traffic appears on a downlink
// only when something routes root→leaf — today, the federated model
// broadcast below. Per-tier downlink stats come back in TierStats
// (DownGbps, DownServedBytes, DownTransfers, DownlinkUtilization, and
// the propagation total DownPropDelayTotal).
//
// # Compute tiers
//
// A tier may declare a "compute" section — a finite pool of cores that
// every offloaded frame must be serviced by before the tier's uplink
// forwards it, making latency capture → transit → queueing + service →
// done instead of transit alone:
//
//	{"name": "gw-a", "parent": "core",
//	 "uplink": {"gbps": 4},
//	 "compute": {"cores": 1, "service_rate_fps": 16, "discipline": "fifo",
//	             "service_sec": [{"class": "fa", "sec": 0.002}]}}
//
// "service_rate_fps" prices a frame of the class's reference payload (its
// largest placement row, or its fixed frame bytes) at 1/rate core-seconds;
// a "service_sec" entry overrides that per class. Service demand scales
// with the bytes a frame actually ships — a placement that offloads an
// 11×-smaller payload needs 11× less tier service — so moving cameras
// toward in-camera compute is also what relieves a congested pool, and
// placement becomes a joint network+compute decision. Every offloading
// class crossing a compute tier must resolve a service time there;
// federated update blobs bypass the pools (they are not frames). The pool
// runs "fifo" (default: frames serialize through the cores in arrival
// order, a heavy frame head-of-line-blocking the light ones behind it) or
// "fair-share" (egalitarian processor sharing, a job never spanning
// cores).
//
// Compute feeds back into every placement decision: each placement row
// gains a deterministic delay floor — its own in-camera compute seconds
// plus the expected tier service of the bytes it ships along the attach
// path (Scenario.RowDelaySeconds) — which the energy-latency policy adds
// to the latency a step risks and the global controller uses to refuse
// energy moves whose floor, stacked on the observed p95, would break
// HighSec. Per-tier results come back in TierStats.Compute (cores,
// discipline, frames served, busy seconds, utilization, and queueing-wait
// p50/p95 from a KLL sketch), and streaming telemetry windows carry each
// pool as a "name:compute" series with capacity = cores. A scenario
// without compute sections is byte-identical to what it always produced —
// the pools, their link slots and their sketches exist only when
// configured. ComputeDemoScenario builds the undersized-gateway demo
// behind `camsim topo -compute`, and examples/compute-placement runs an
// embedded scenario of the same shape.
//
// # Federated rounds
//
// A scenario-level "federated" section runs round-structured federated
// learning over the tier tree (package internal/fleet/fl owns the round
// accounting):
//
//	"federated": {
//	  "rounds": 4, "classes": ["fl-gw-a", "fl-gw-b"],
//	  "compute_sec": 0.6, "jitter_sec": 0.4,
//	  "model": {"layers": [400, 8, 1], "bytes_per_weight": 4, "compress": 0.5}
//	}
//
// Each round, every participating camera (all classes when "classes" is
// empty) spends compute_sec plus a seeded jitter draw of local training,
// then pushes an update blob up its attach tier's uplink, contending
// with the fleet's frame traffic. Updates are sized from the trained
// network's parameter count — nn.WeightCount(layers) × bytes_per_weight
// × compress — or fixed directly with "update_bytes". Blobs aggregate
// in-network where they land: a tier holding its full per-round fan-in
// emits one merged blob of the same size on its own uplink, so the WAN
// carries one blob per round no matter how many cameras train below.
// When the cloud's fan-in completes, the merged model ("model_bytes",
// defaulting to the uncompressed model) broadcasts back down the
// downlinks of the span — every tier with participants at or below it,
// which must all declare one — and delivery at a camera's attach tier
// starts its next round. Rounds run to completion past the capture
// duration, so every configured round reports telemetry: Result.Federated
// carries up/down/naive byte totals and per-round start, aggregation,
// end, latency and straggler p95. The FL streams are seeded independently
// of the frame-traffic streams, so adding a federated job never perturbs
// the fleet's frame arithmetic. FederatedDemoScenario builds the
// two-gateway demo behind `camsim topo -fl` and BenchmarkFederatedRound;
// examples/federated-fleet sweeps its compression knob.
//
// # Streaming telemetry
//
// A scenario-level "telemetry" section swaps the run's statistics
// accumulator, not its physics:
//
//	"telemetry": {"streaming": true, "window_sec": 10}
//
// With "streaming" set, per-class offload latencies land in mergeable
// KLL quantile sketches (package internal/fleet/quantile, capacity
// quantile.K) instead of exact per-sample slices, and the reported
// p50/p95/p99 become sketch estimates whose true rank lies within
// quantile.Eps (1%) of the requested one. What that buys is a memory
// bound: the exact path preallocates latency storage from the expected
// frame count, so a long horizon's cost grows with simulated frames,
// while a sketch's retained set is fixed — BenchmarkLongHorizon pins
// B/op flat in the frame count at 100k cameras, gated in CI. The
// adaptive controllers keep their own windows, which hold only the
// completions since their last decision; a controller whose period never
// ticks within the run collects none. The event sequence is untouched
// either way, so a streaming run's counters, tier stats and energy
// totals are identical to the exact run's, and a scenario without a
// telemetry section is byte-identical to what it always produced;
// TestStreamingDifferential holds the two paths against each other
// within the sketch's rank bound.
//
// A positive "window_sec" (requires "streaming") additionally emits a
// time series: half-open windows [k·W, (k+1)·W) of simulated time, the
// final window clipped at the run's end, each reporting per-class
// sketch p50/p95/p99, completed offloads, queue and energy drops, and
// every link's utilization over just that window (bytes credit at
// transfer completion, so a single window can exceed 1; the
// time-weighted mean across windows equals the run-wide utilization
// exactly). Window sketches merge into the run-wide sketches at window
// close — the mergeability that makes per-window statistics free — and
// come back in Result.TimeSeries, renderable as JSON or long-form CSV
// (TimeSeries.WriteJSON / WriteCSV); `camsim fleet|topo -scenario
// file.json -timeseries out.csv` writes them from the command line, and
// examples/long-horizon walks a two-minute run window by window.
//
// # Fleet dynamics
//
// A scenario-level "dynamics" section turns the steady-state calculator
// into a robustness harness: a time-ordered fault/load schedule of
// "events" executed inside the same sequential event loop —
//
//	"dynamics": {"events": [
//	  {"time_sec": 2, "kind": "fps_profile",  "class": "vr", "multiplier": 2},
//	  {"time_sec": 3, "kind": "camera_join",  "class": "fa", "count": 50},
//	  {"time_sec": 4, "kind": "link_degrade", "tier": "metro", "factor": 0.25},
//	  {"time_sec": 5, "kind": "tier_outage",  "tier": "gw-a", "fallback": "gw-b"},
//	  {"time_sec": 7, "kind": "tier_recover", "tier": "gw-a"},
//	  {"time_sec": 8, "kind": "link_restore", "tier": "metro"},
//	  {"time_sec": 9, "kind": "compute_scale", "tier": "gw-b", "cores": 4}
//	]}
//
// "camera_join"/"camera_leave" churn a class: joiners continue the global
// camera-seed sequence (existing cameras' streams untouched) and leavers
// are drawn from the entry's own seeded stream; "every_sec" makes a churn
// entry recurring with exponential inter-arrival gaps from that stream —
// a fourth seed family, so churn never perturbs frame-traffic draws. A
// departed camera's in-flight frames still complete; it just captures
// nothing further. "link_degrade" rescales a tier's uplink to base ×
// factor with in-flight progress conserved (the fair-share virtual clock
// advances at the old rate first; FIFO recomputes the head's remaining
// bytes); factor 0 parks the link until "link_restore". "tier_outage"
// takes a tier down: in-flight transfers through its uplink and core
// pool are dropped and accounted, frames arriving while it is down drop
// on arrival, and directly attached classes re-home to the declared
// "fallback" tier — repricing their forwarding-energy and delay tables,
// which both controller kinds then score against — until "tier_recover"
// re-homes them back. "fps_profile" sets a class's capture-rate
// multiplier (piecewise diurnal/bursty load), and "compute_scale"
// resizes a tier's core pool. Validation is strict per kind: unknown
// kinds, out-of-order times, ghost tiers/classes, out-of-range factors,
// misplaced knobs, a failing root, or an outage stranding attached
// cameras without a fallback all fail before the run starts; dynamics
// cannot combine with a federated job (dropping a round's blobs would
// deadlock its barrier).
//
// Accounting conserves every emitted frame: captured = completed +
// queued + dropped, with outage losses in ClassStats.DroppedOutage,
// per-tier downtime seconds and drops in TierStats, the run-wide totals
// in Result.Dynamics, and — with windowed telemetry — per-window
// availability columns (outage drops per class, downtime seconds and
// mean capacity fraction per tier) in the JSON and CSV series. Tier
// utilization stays denominated in nominal capacity while degraded (the
// capacity-fraction column carries the degradation). A scenario without
// the section — or with an empty event list — is byte-identical to every
// release before it existed, and dynamics runs replay deterministically
// like any other. DynamicsDemoScenario builds the diurnal-swell +
// gateway-outage demo behind `camsim topo -dynamics`, and
// examples/fleet-dynamics runs an embedded scenario of the same shape.
//
// # Placement policies
//
// A class may carry a runtime cost table ("placements", ordered from
// most-offload to most-in-camera — each row a Fig. 10-style placement's
// frame bytes, compute seconds and compute joules) plus a "policy":
//
//	"placements": [
//	  {"name": "raw",       "frame_bytes": 12400000, "compute_sec": 0.0001},
//	  {"name": "in-camera", "frame_bytes": 1122000,  "compute_sec": 0.0316,
//	   "compute_j": 0.316}
//	],
//	"policy": {"kind": "latency-threshold", "interval_sec": 0.5,
//	           "high_sec": 0.2, "move_fraction": 0.5}
//
// Every IntervalSec a per-class controller inspects the offload latencies
// and queue drops observed since its last decision and moves a
// MoveFraction batch of cameras one table step: "latency-threshold"
// escalates one way toward in-camera compute when the window p95 exceeds
// HighSec (or anything was queue-dropped); "hysteresis" also steps back
// toward offload when the window p95 falls below LowSec, holding inside
// the dead band; "energy-latency" (below) also weighs per-frame energy;
// "static" (the default) never moves. Which cameras move is drawn from a
// controller stream seeded by (Scenario.Seed, class), so adaptive runs
// replay byte-identically. VRAdaptiveClass builds such a class from
// core.ThroughputPipeline.CostTable over a set of Fig. 10 placements, and
// TopologyDemoScenario assembles the congested two-gateway fleet behind
// `camsim topo` and BenchmarkTopologySweep.
//
// # Energy models
//
// Energy is the second axis of every placement decision. Each placement
// row is priced in expected joules per captured frame
// (Class.PlacementEnergyPerFrame, built on energy.FrameEnergy): capture,
// the row's compute joules, and — for the offloading fraction of frames —
// the camera radio's fixed-plus-per-byte transmit cost. Tier-tree links
// additionally carry "tx_per_byte_j", the network-side forwarding energy
// per byte (energy.ForwardPerByteJ is a wired-aggregation default); a
// row's energy charges its bytes the summed per-byte cost of every hop
// between the class's attach tier and the root, so a deep path makes
// offloading proportionally more expensive. Results surface the axis in
// Result.Energy (camera joules actually charged, per-link forwarding
// joules from observed served bytes, average power, and the fleet's
// projected placement power) and per tier in TierStats.ForwardJ.
//
// The "energy-latency" policy spends that model locally: congestion keeps
// the latency-threshold rule verbatim, and otherwise the controller
// compares the two adjacent rows, moving when "energy_weight" (seconds of
// latency one joule per frame is worth) times the mean per-frame saving
// beats the latency the step risks re-adding — the observed p95 for a
// step toward offload, nothing for a step toward in-camera. An
// energy_weight of 0 therefore reproduces latency-threshold exactly.
//
// # Global controller
//
// A scenario-level "global" section runs the fleet-wide energy-aware
// controller above the per-class policies:
//
//	"global": {"epoch_sec": 1, "budget_w": 26, "high_sec": 0.5,
//	           "move_fraction": 0.5}
//
// On every epoch tick it sees all classes' window stats across every
// tier and projects the fleet's placement power — each camera's
// per-frame energy at its current row times its capture rate. Congested
// classes (window p95 over HighSec, or queue drops) first get up to
// MoveFraction of their cameras stepped toward in-camera compute,
// admitted only while the projection stays under BudgetW. Then, while
// the projection exceeds the budget, a greedy knapsack sheds watts:
// repeatedly take the (class, direction) step with the largest marginal
// per-frame saving — ties to the class with the most p95 headroom —
// moving cameras one at a time until the fleet fits, stopping at the
// budget line rather than overshooting to the energy floor. Decisions
// land in Result.Global (per-epoch projected power before/after and
// every move with its reason), draw from their own seeded stream, and
// replay byte-identically. EnergyDemoScenario builds the uncongested
// demo behind `camsim topo -global`, where the budget — not latency — is
// what moves cameras.
//
// # Contention models
//
// The shared uplink has a finite capacity and a pluggable contention
// discipline:
//
//   - "fair-share": egalitarian processor sharing — the n in-flight
//     transfers each progress at capacity/n (simulated in O(log n) per
//     event via virtual time). Small face-auth payloads finish quickly
//     even while multi-megabyte VR frames drain.
//   - "fifo": transfers serialize in arrival order, each taking the full
//     capacity at the head of the queue. A large frame ahead of a small
//     one head-of-line-blocks it.
//
// Per-camera backpressure is modelled with QueueDepth: a frame captured
// while that many offloads are still in flight is dropped and counted.
//
// # Determinism and parallelism
//
// A run is deterministic in its Scenario: every random draw comes from a
// compact per-camera (and per-controller) splitmix64 stream derived from
// Scenario.Seed by index (never the global source), the event loop breaks
// ties by sequence number, and simultaneous completions across tiers
// resolve in tier order. The same seed produces byte-identical stat
// tables — `go test ./cmd/camsim -run Golden` pins this against
// checked-in goldens at GOMAXPROCS 1, 2 and 8. Independent scenario
// points sweep in parallel across GOMAXPROCS via Sweep's worker pool;
// parallelism never reorders arithmetic within a run, so sweeps stay
// reproducible too.
//
// # Performance
//
// The event loop is engineered to run allocation-free in steady state, so
// fleet size — not garbage — bounds throughput (BenchmarkHugeFleet runs
// 100k cameras over 41 links; BenchmarkDeepTopology pins the 10k shape,
// both gated in CI by cmd/benchgate against BENCH_topology.json):
//
//   - Per-event cost: one pop from the event queue, a ladder queue of
//     24-byte events whose hold (pop the earliest, push its successor)
//     costs O(1) amortized — an unsorted top for the far future, rungs
//     of unsorted buckets each finer than the one above, and a short
//     sorted bottom run the loop pops from — plus O(log n) queueing on
//     the link or core pool and O(log links) completion lookup (liHeap).
//     Links and pools share two disciplines, fifoServer and psServer
//     (fair share by virtual time), both over the psHeap. No event is
//     boxed in an interface (container/heap cost one allocation per
//     Push). An event is its time, one word packing the scheduling seq
//     over a 4-bit kind, and two int32 payload words; a frame's capture
//     time and payload live in its transfer record, created at capture.
//     Buckets are int32 linked lists through one node pool, 28 bytes
//     per pending event (2.8 MB at 100k). The queue and both heaps preserve
//     container/heap's exact pop order, proven differentially by
//     TestHeapsMatchContainerHeap. fifoServer queues waiting jobs in a
//     power-of-two ring, so wrap-around is a mask, not a modulo.
//   - Memory model: each camera embeds its random stream by value — an
//     8-byte splitmix64 state (prng) instead of a *rand.Rand whose
//     lagged-Fibonacci source is ~5 KB of heap per camera — so 100k
//     cameras cost ~800 KB of inline state rather than ~500 MB of
//     pointer-chased boxes. Transfer ids are recycled through a free
//     list, bounding transfer storage by the peak in-flight population
//     instead of the total frame count. The event queue's node pool
//     starts at the seeded population (one pending capture per camera
//     plus the control, global, federated and fault-schedule events),
//     grows by append only past it, and recycles nodes through a free
//     list. Per-class latency slices are preallocated from FPS ×
//     Duration × Count estimates, so the loop never regrows them.
//   - Seeded-stream shift: moving from rand.Rand's ziggurat draws to the
//     prng's inversion-based ExpFloat64 / 53-bit Float64 shifted every
//     seeded stream once (goldens were regenerated, as for the PR 3 seed
//     derivation fix); the streams are pinned by TestPRNGReferenceVectors
//     and stable from then on.
package fleet
