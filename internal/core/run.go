package core

import (
	"fmt"
	"math"

	"gonoc/internal/analysis"
	"gonoc/internal/noc"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/telemetry"
	"gonoc/internal/traffic"
)

// Result carries the measured performance indexes of one scenario run —
// the quantities plotted in the paper's Figures 5 through 11.
type Result struct {
	// Scenario is the configuration that produced this result.
	Scenario Scenario
	// TopologyName is the concrete instance, e.g. "mesh-4x6".
	TopologyName string
	// Sources is the number of transmitting nodes.
	Sources int

	// OfferedFlitRate is the configured aggregate load (flits/cycle);
	// OfferedPerSource the per-source share.
	OfferedFlitRate  float64
	OfferedPerSource float64

	// Throughput is absorbed flits/cycle over the measurement window
	// (the paper's NoC throughput index); PerNode divides by N.
	Throughput        float64
	ThroughputPerNode float64
	// PacketRate is absorbed packets/cycle.
	PacketRate float64
	// AcceptedFlitRate is injected flits/cycle (drops below offered at
	// saturation).
	AcceptedFlitRate float64

	// The latency family — MeanLatency through MeanHops, and
	// EnergyPerPacket and TotalEnergy — is measured over the packets
	// ejected in the measurement window: stats.Collector adds one sample
	// to each for every ejection it counts. A run that ejected no packet
	// therefore has none of them. Such a statistic is absent: NaN in
	// memory, null in JSON and NULL in SQLite (see MarkAbsent).

	// MeanLatency is creation-to-ejection in cycles; quantiles of the
	// same distribution follow. MeanNetLatency excludes source queueing.
	MeanLatency    float64
	P50Latency     float64
	P95Latency     float64
	MeanNetLatency float64

	// MeanHops is the observed average routed distance (Figure 5).
	MeanHops float64

	// Raw counters.
	InjectedPackets uint64
	EjectedPackets  uint64
	SourceBlocked   uint64

	// LinkTraversals is the total flit-link events of the whole run
	// (warm-up included); MeanLinkUtil and MaxLinkUtil are per-channel
	// flits/cycle over the same span.
	LinkTraversals uint64
	MeanLinkUtil   float64
	MaxLinkUtil    float64

	// EnergyPerPacket estimates delivery energy per packet under the
	// default cost model at the observed mean hop count; TotalEnergy
	// multiplies by the ejected packet count.
	EnergyPerPacket float64
	TotalEnergy     float64
}

// MarkAbsent applies the absence rule: when r ejected no packet, its
// latency family is NaN. Readers of a wire form call it, so a record
// that wrote zeros in place of the absent values reads back the same as
// one that wrote nulls.
func (r *Result) MarkAbsent() {
	if r.EjectedPackets == 0 {
		nan := math.NaN()
		r.MeanLatency, r.P50Latency, r.P95Latency, r.MeanNetLatency, r.MeanHops = nan, nan, nan, nan, nan
		r.EnergyPerPacket, r.TotalEnergy = nan, nan
	}
}

// Run executes the scenario to completion and returns its measurements.
// Equal scenarios produce equal results, bit for bit.
func Run(s Scenario) (Result, error) {
	r, _, err := RunPerf(s)
	return r, err
}

// RunPerf is Run additionally returning the engine's deterministic
// work counters — worklist visits and fast-forwarded cycles. The
// counters are a pure function of the scenario (no wall-clock input),
// which is what lets the perf-regression gate compare them against a
// committed baseline across machines.
func RunPerf(s Scenario) (Result, noc.PerfStats, error) {
	var w Workspace
	return w.RunPerf(s)
}

// Workspace owns the reusable heavy state of scenario execution: the
// built network (with its packet pool), the event kernel (with its
// pooled event records) and the statistics collector (with its sample
// buffers). Consecutive Run calls whose scenarios share a networkKey —
// every replication and rate point of a campaign curve — reset this
// state instead of rebuilding it, so a warmed workspace executes a run
// without allocator traffic on the packet path. A workspace run is
// result-equivalent bit for bit to a fresh core.Run (proven by the
// workspace golden tests); the zero value is ready to use and is not
// safe for concurrent use.
type Workspace struct {
	key    string
	net    *noc.Network
	col    *stats.Collector
	kernel *sim.Kernel
	// gen is the reusable traffic generator: its per-source rate, RNG
	// and arrival-horizon slices are re-seeded in place per run
	// (traffic.RenewGenerator), so replications do not pay one
	// allocation per node for fresh streams.
	gen *traffic.Generator
	// rec is the reusable telemetry recorder; its ring and encode
	// buffers are sized by the capture spec, so telemetry-on
	// replications reuse them instead of reallocating per run.
	rec *telemetry.Recorder
}

// Run executes the scenario on the workspace; see RunPerf.
func (w *Workspace) Run(s Scenario) (Result, error) {
	r, _, err := w.RunPerf(s)
	return r, err
}

// RunPerf executes the scenario, reusing the workspace's network,
// kernel and collector when the scenario's network geometry matches the
// previous run's.
func (w *Workspace) RunPerf(s Scenario) (Result, noc.PerfStats, error) {
	if err := s.Validate(); err != nil {
		return Result{}, noc.PerfStats{}, err
	}
	pattern, err := s.Pattern()
	if err != nil {
		return Result{}, noc.PerfStats{}, err
	}
	key := s.networkKey()
	if w.net != nil && w.key == key {
		w.net.Reset()
		w.col.Reset(s.Warmup)
		w.kernel.Reset()
	} else {
		topo, alg, err := s.Build()
		if err != nil {
			return Result{}, noc.PerfStats{}, err
		}
		w.col = stats.NewCollector(s.Warmup)
		w.net, err = noc.NewNetwork(topo, alg, s.Config, w.col)
		if err != nil {
			w.key, w.net = "", nil
			return Result{}, noc.PerfStats{}, err
		}
		w.kernel = sim.NewKernel()
	}
	// The cached network is poisoned until this run completes cleanly: a
	// failed run (a conservation violation in particular) can leave
	// corruption — e.g. in the packet pool — that Reset does not repair,
	// so an errored workspace rebuilds on its next use instead of
	// reusing.
	w.key = ""
	net, col, kernel := w.net, w.col, w.kernel
	net.SetPooling(!s.NoPool)
	gen, err := traffic.RenewGenerator(w.gen, kernel, net, pattern, s.Process, s.Lambda, s.Seed)
	if err != nil {
		return Result{}, noc.PerfStats{}, err
	}
	w.gen = gen
	gen.Start()
	switch {
	case s.StepParallel > 0:
		net.SetShards(s.StepParallel)
		net.SetEngine(noc.EngineParallel)
	case s.StepParallel < 0:
		// Auto width: let the network pick from GOMAXPROCS and its
		// router count. A pick of 1 means the network is too small to
		// decompose profitably — collapse to the configured serial
		// engine (identical results, no worker group).
		net.SetShards(0)
		if net.Shards() > 1 {
			net.SetEngine(noc.EngineParallel)
		} else {
			net.SetEngine(s.Engine)
		}
	default:
		net.SetEngine(s.Engine)
	}
	// The parallel engine's shard workers park between cycles but hold
	// the network; stop them when the run ends (error paths included) so
	// a workspace dropped by its pool cannot leak the group.
	defer net.StopWorkers()
	ticker := sim.NewTicker(kernel, 1)
	ticker.OnTick(func(uint64) { net.Step() })
	var rec *telemetry.Recorder
	if s.Telemetry != nil && s.Telemetry.W != nil {
		cl := s.Telemetry.ChunkLen
		if cl <= 0 {
			cl = telemetry.DefaultChunkLen
		}
		spec := telemetry.Spec{Nodes: s.Nodes, Links: len(net.Topology().Channels()), ChunkLen: cl}
		if w.rec == nil || w.rec.Spec() != spec {
			r, err := telemetry.NewRecorder(spec)
			if err != nil {
				return Result{}, noc.PerfStats{}, err
			}
			w.rec = r
		}
		rec = w.rec
		if err := rec.Start(s.Telemetry.W); err != nil {
			return Result{}, noc.PerfStats{}, fmt.Errorf("core: %s: telemetry: %w", s.Label(), err)
		}
		// Sampling is a second tick phase: it runs after Step each
		// ticked cycle, so every engine samples identical post-cycle
		// state. Cycles elided by idle fast-forward emit no sample.
		ticker.OnTick(func(uint64) {
			tv := net.Telemetry()
			rec.Sample(net.Cycle()-1, tv.Occ, tv.Inj, tv.Ej, tv.Link)
		})
	}
	total := sim.Time(s.Warmup + s.Measure)
	// Idle fast-forward: when the network is fully quiescent, the next
	// flit movement can only follow the next generator event, so the
	// cycles up to the tick that first observes it are no-ops — skip
	// them instead of paying one kernel event each.
	ticker.OnPace(func(_ uint64, next sim.Time) sim.Time {
		if !net.Quiescent() {
			return next
		}
		arrival := kernel.NextEventTime()
		if arrival <= next {
			return next
		}
		// An event at time t (integer or fractional) is first seen by
		// the tick at ceil(t): same-time ordinary events run before the
		// tick (TickPriority).
		wake := sim.Time(math.Ceil(float64(arrival)))
		if wake > total+1 {
			wake = total + 1 // nothing left inside the horizon
		}
		net.SkipTo(uint64(wake))
		return wake
	})
	ticker.Start()
	kernel.RunUntil(total)
	// A run that fast-forwarded past the horizon stops short of the
	// final cycle count; align it so cycle-normalized observables
	// (link utilisation) match a run that ticked every cycle.
	net.SkipTo(uint64(total) + 1)
	if rec != nil {
		if err := rec.Flush(); err != nil {
			return Result{}, net.Perf(), fmt.Errorf("core: %s: telemetry: %w", s.Label(), err)
		}
		if s.Telemetry.Stats != nil {
			*s.Telemetry.Stats = rec.Stats()
		}
	}

	if err := net.CheckConservation(); err != nil {
		return Result{}, net.Perf(), fmt.Errorf("core: %s: %w", s.Label(), err)
	}

	sources := pattern.Sources(s.Nodes)
	r := Result{
		Scenario:          s,
		TopologyName:      net.Topology().Name(),
		Sources:           sources,
		OfferedFlitRate:   gen.OfferedFlitRate(),
		Throughput:        col.Throughput(),
		ThroughputPerNode: col.ThroughputPerNode(s.Nodes),
		PacketRate:        col.PacketThroughput(),
		AcceptedFlitRate:  col.AcceptedRate(),
		MeanLatency:       col.MeanLatency(),
		P50Latency:        col.LatencyQuantile(0.5),
		P95Latency:        col.LatencyQuantile(0.95),
		MeanNetLatency:    col.MeanNetworkLatency(),
		MeanHops:          col.MeanHops(),
		InjectedPackets:   col.PacketsInjected(),
		EjectedPackets:    col.PacketsEjected(),
		SourceBlocked:     col.SourceBlockedCycles(),
	}
	if sources > 0 {
		r.OfferedPerSource = r.OfferedFlitRate / float64(sources)
	}
	for _, v := range net.ChannelTraversals() {
		r.LinkTraversals += v
	}
	u := net.Utilization()
	r.MeanLinkUtil, r.MaxLinkUtil = u.Mean, u.Max
	cm := analysis.DefaultCostModel()
	r.EnergyPerPacket = cm.MeanPacketEnergy(r.MeanHops, s.Config.PacketLen)
	r.TotalEnergy = r.EnergyPerPacket * float64(r.EjectedPackets)
	w.key = key // clean run: the network is reusable again
	return r, net.Perf(), nil
}

// Batch execution lives in internal/exp: every multi-scenario run in
// the module — sweeps, figures, campaigns — goes through exp.Campaign
// and its runner, which adds replication, caching, sharding and
// confidence intervals on top of the single-scenario Run above. The
// seed's Sweep/SweepScenarios helpers are retired in its favour.
