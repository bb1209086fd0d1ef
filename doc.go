// Package gonoc is a cycle-accurate Network-on-Chip simulation and
// analysis library reproducing Bononi & Concer, "Simulation and
// Analysis of Network on Chip Architectures: Ring, Spidergon and 2D
// Mesh" (DATE 2006).
//
// The library lives under internal/: topology models (ring, Spidergon,
// mesh family, torus, chordal ring), routing algorithms with a
// channel-dependency-graph deadlock checker, a wormhole-switched
// flit-level network model, Poisson/hot-spot/uniform traffic
// generation, a scenario layer (internal/core) with the deterministic
// single-run engine and content-addressed scenario keys, and the
// experiment stack (internal/exp) every batch run goes through.
//
// The simulation core is activity-driven: each pipeline phase drains
// bitmap worklists over routers and per-router slot-occupancy masks,
// updated exactly where flits move, so a cycle costs time proportional
// to in-flight work rather than network size, and core.Run
// fast-forwards the clock across fully quiescent gaps between Poisson
// arrivals via the kernel's next-event peek. The steady state is also
// allocation-free, and pooled by default: the network recycles packets
// and their flit arrays through a conservation-checked freelist, the
// kernel pools its event records behind the closure-free
// handler-scheduling API (sim.Handler), generators batch all same-cycle
// arrivals of a source into one event, and campaigns reuse one
// network/kernel/collector workspace across replications. The phase
// kernel works on router shards: the default engine runs it as one
// shard covering every router, and the domain-decomposed parallel
// engine (noc.EngineParallel, exposed as -step-parallel and
// exp.Runner.StepShards) runs the same phase functions across several
// contiguous shards with deterministic barriers, so a lone saturation
// point can use the whole machine. The original scan-everything
// engine's results, per-cycle state and telemetry are frozen as test
// data, and the golden tests prove every shard count, both pooling
// modes and workspace reuse reproduce them bit for bit; a tracked perf
// gate
// (bench-baseline.json + cmd/benchgate, `make bench-check`) fails CI
// when deterministic work counters or steady-state allocs/packet
// regress beyond tolerance. The experiment stack:
// campaigns expand crossed parameter grids — topology × size × traffic
// × injection rate × replications — onto a cancellable worker pool and
// stream per-run and mean/CI95 summary records to JSONL/CSV sinks,
// byte-identically at any parallelism, with a JSONL result cache
// (re-runs are free, interrupted runs resume), deterministic sharding
// whose merged streams equal the unsharded output, variance-aware
// adaptive replication, saturation-knee grid refinement, and the
// regenerators for the paper's simulated figures (5-11) with CI95
// columns. Observability rides on top without disturbing any of it:
// internal/telemetry captures every simulated cycle (occupancy,
// per-router injection/ejection, link utilization) through a
// preallocated ring with delta/varint chunk encoding — allocation-free
// in steady state, bit-identical across engines and shard counts,
// decoded by cmd/noctsd — and exp.SQLiteSink archives campaign results
// as a real SQLite database written dependency-free by
// internal/sqlitefile. See README.md for a tour and EXPERIMENTS.md for
// the paper-versus-measured methodology; bench_test.go in this
// directory holds one benchmark per paper figure.
package gonoc
