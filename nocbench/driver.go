package main

import (
	"fmt"
	"math"
	"time"

	"gonoc/internal/analysis"
	"gonoc/internal/core"
	"gonoc/internal/noc"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
)

// replayer runs scenarios through the same public calls that
// core.Workspace.RunPerf makes, in the same order, with a span around
// each call into core, traffic, sim and noc. Its Result and PerfStats
// must equal RunPerf's bit for bit (driver_test.go proves it on a
// matrix), or its timings would describe a different program. Like a
// Workspace it keeps the built network across runs and resets it when
// the next scenario has the same geometry.
type replayer struct {
	tr *tracer

	key    string
	net    *noc.Network
	col    *stats.Collector
	kernel *sim.Kernel
	gen    *traffic.Generator

	// Per-run accumulators of the Step timing hook.
	steps  uint64
	stepNs int64
}

// geometryKey names the scenario fields a built network depends on. It
// may split geometries RunPerf would share (unset mesh dimensions are
// not normalised), which only costs a rebuild: a fresh network and a
// reset one run identically.
func geometryKey(s core.Scenario) string {
	return fmt.Sprintf("%s|%d|%d|%d|%s|%+v", s.Topo, s.Nodes, s.Cols, s.Rows, s.Routing, s.Config)
}

// runStats is what one replayed run adds to the per-layer metrics
// beyond its spans.
type runStats struct {
	perf    noc.PerfStats
	shards  int // 0 unless the parallel engine ran
	routers int
	cycles  uint64 // simulated cycles, Warmup+Measure+1 as in the perf gate
	events  uint64 // kernel events processed
	steps   uint64 // Network.Step calls (ticked cycles)
}

// run replays one scenario under the span parent.
func (d *replayer) run(s core.Scenario, parent int) (core.Result, runStats, error) {
	var st runStats
	if s.Telemetry != nil {
		return core.Result{}, st, fmt.Errorf("replay: telemetry capture is not replayed")
	}
	if err := s.Validate(); err != nil {
		return core.Result{}, st, err
	}
	pattern, err := s.Pattern()
	if err != nil {
		return core.Result{}, st, err
	}
	key := geometryKey(s)
	if d.net != nil && d.key == key {
		r := d.tr.begin(parent, "core.Workspace.reset")
		t0 := time.Now()
		d.net.Reset()
		t1 := time.Now()
		d.col.Reset(s.Warmup)
		t2 := time.Now()
		d.kernel.Reset()
		t3 := time.Now()
		d.tr.add(r, "noc.Network.Reset", t0, t1)
		d.tr.add(r, "stats.Collector.Reset", t1, t2)
		d.tr.add(r, "sim.Kernel.Reset", t2, t3)
		d.tr.end(r)
	} else {
		b := d.tr.begin(parent, "core.Workspace.build")
		t0 := time.Now()
		topo, alg, err := s.Build()
		d.tr.add(b, "core.Scenario.Build", t0, time.Now())
		if err != nil {
			d.tr.end(b)
			return core.Result{}, st, err
		}
		d.col = stats.NewCollector(s.Warmup)
		t0 = time.Now()
		d.net, err = noc.NewNetwork(topo, alg, s.Config, d.col)
		d.tr.add(b, "noc.NewNetwork", t0, time.Now())
		if err != nil {
			d.key, d.net = "", nil
			d.tr.end(b)
			return core.Result{}, st, err
		}
		d.kernel = sim.NewKernel()
		d.tr.end(b)
	}
	d.key = ""
	net, col, kernel := d.net, d.col, d.kernel
	net.SetPooling(!s.NoPool)
	t0 := time.Now()
	gen, err := traffic.RenewGenerator(d.gen, kernel, net, pattern, s.Process, s.Lambda, s.Seed)
	if err != nil {
		return core.Result{}, st, err
	}
	d.gen = gen
	gen.Start()
	d.tr.add(parent, "traffic.RenewGenerator", t0, time.Now())
	switch {
	case s.StepParallel > 0:
		net.SetShards(s.StepParallel)
		net.SetEngine(noc.EngineParallel)
	case s.StepParallel < 0:
		net.SetShards(0)
		if net.Shards() > 1 {
			net.SetEngine(noc.EngineParallel)
		} else {
			net.SetEngine(s.Engine)
		}
	default:
		net.SetEngine(s.Engine)
	}
	defer net.StopWorkers()
	ticker := sim.NewTicker(kernel, 1)
	d.steps, d.stepNs = 0, 0
	ticker.OnTick(func(uint64) {
		t := time.Now()
		net.Step()
		d.stepNs += time.Since(t).Nanoseconds()
		d.steps++
	})
	total := sim.Time(s.Warmup + s.Measure)
	if eng := net.Engine(); eng == noc.EngineActive || eng == noc.EngineParallel {
		ticker.OnPace(func(_ uint64, next sim.Time) sim.Time {
			if !net.Quiescent() {
				return next
			}
			arrival := kernel.NextEventTime()
			if arrival <= next {
				return next
			}
			wake := sim.Time(math.Ceil(float64(arrival)))
			if wake > total+1 {
				wake = total + 1
			}
			net.SkipTo(uint64(wake))
			return wake
		})
	}
	ticker.Start()
	for _, phase := range []struct {
		name  string
		until sim.Time
	}{{"sim.Kernel.RunUntil.warmup", sim.Time(s.Warmup)}, {"sim.Kernel.RunUntil.measure", total}} {
		steps, ns := d.steps, d.stepNs
		id := d.tr.begin(parent, phase.name)
		kernel.RunUntil(phase.until)
		d.tr.end(id)
		d.tr.aggregate(id, "noc.Network.Step", d.steps-steps, d.stepNs-ns)
	}
	net.SkipTo(uint64(total) + 1)
	st.events = kernel.Processed()
	st.steps = d.steps
	st.cycles = uint64(total) + 1
	st.routers = net.Topology().Nodes()
	if net.Engine() == noc.EngineParallel {
		st.shards = net.Shards()
	}

	t0 = time.Now()
	err = net.CheckConservation()
	d.tr.add(parent, "noc.Network.CheckConservation", t0, time.Now())
	if err != nil {
		st.perf = net.Perf()
		return core.Result{}, st, fmt.Errorf("core: %s: %w", s.Label(), err)
	}

	sources := pattern.Sources(s.Nodes)
	r := core.Result{
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
	d.key = key
	st.perf = net.Perf()
	return r, st, nil
}
