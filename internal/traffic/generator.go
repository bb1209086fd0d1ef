package traffic

import (
	"fmt"
	"math"
	"sort"

	"gonoc/internal/noc"
	"gonoc/internal/sim"
)

// Generator drives a network with stochastic packet arrivals. Each
// source node runs an independent arrival process on the event kernel:
// Poisson (exponential interarrivals with rate λ packets/cycle, the
// paper's source model) or Bernoulli (one arrival per cycle with
// probability λ). Every node draws from its own RNG stream, so results
// are reproducible and independent of node count changes elsewhere.
//
// The generator is closure-free on the hot path: it implements
// sim.Handler and schedules (generator, node) pairs through the
// kernel's pooled event records, and Poisson arrivals are batched — one
// kernel event emits every arrival of a source that lands in the same
// clock cycle (see fire), so a saturated run pays O(sources with work)
// events per cycle instead of O(arrivals). Batching leaves the packet
// stream of one-event-per-arrival emission unchanged (same per-source
// RNG draw order, same injection cycles, same per-queue order); the
// batching tests hold it to streams recorded from that reference.
type Generator struct {
	kernel  *sim.Kernel
	net     *noc.Network
	pattern Pattern
	process Process
	rates   []float64
	rngs    []sim.RNG // per-source streams, one backing array
	// isSource caches pattern membership per node, hoisted to
	// construction so rate queries never re-probe the pattern (the seed
	// OfferedFlitRate allocated a throwaway RNG per node per call).
	isSource []bool
	// next is the pre-drawn arrival horizon: next[node] is the time of
	// the node's next Poisson arrival, maintained across batched
	// emissions in a reusable buffer instead of a captured closure each.
	next    []sim.Time
	offered uint64
	started bool
}

// Process selects the interarrival model.
type Process int

// Available arrival processes.
const (
	// Poisson uses exponential interarrival times — the paper's
	// "Poisson interarrival distribution ... with variable parameter
	// Lambda".
	Poisson Process = iota
	// Bernoulli flips one coin per cycle per source.
	Bernoulli
)

// NewGenerator builds a generator for net on kernel k with the given
// pattern, per-source rate (packets/cycle) and master seed.
func NewGenerator(k *sim.Kernel, net *noc.Network, p Pattern, proc Process, rate float64, seed uint64) (*Generator, error) {
	return RenewGenerator(nil, k, net, p, proc, rate, seed)
}

// RenewGenerator is NewGenerator reusing a previous run's generator
// when one is supplied and its node count matches: the per-source rate,
// RNG and arrival-horizon slices are re-initialised in place instead of
// reallocated, so a warm workspace re-arms its traffic for the next
// replication without touching the allocator. A renewed generator is
// draw-for-draw identical to a fresh one (proven by the determinism
// tests); prev may be nil or mismatched, in which case a fresh
// generator is built.
func RenewGenerator(prev *Generator, k *sim.Kernel, net *noc.Network, p Pattern, proc Process, rate float64, seed uint64) (*Generator, error) {
	if rate < 0 {
		return nil, fmt.Errorf("traffic: negative rate %v", rate)
	}
	n := net.Topology().Nodes()
	g := prev
	if g == nil || len(g.rates) != n {
		g = &Generator{
			rates:    make([]float64, n),
			rngs:     make([]sim.RNG, n),
			isSource: make([]bool, n),
			next:     make([]sim.Time, n),
		}
	}
	g.kernel, g.net = k, net
	g.pattern, g.process = p, proc
	g.offered = 0
	g.started = false
	var master, probe sim.RNG
	master.Seed(seed)
	probe.Seed(0)
	for i := 0; i < n; i++ {
		g.rates[i] = rate
		master.SplitInto(&g.rngs[i])
		g.next[i] = 0
		// Source membership is structural for every Pattern (it never
		// depends on the probe's draws), so one shared probe suffices.
		_, g.isSource[i] = p.Destination(i, &probe)
	}
	return g, nil
}

// SetRate overrides the packet rate of one source before Start.
func (g *Generator) SetRate(node int, rate float64) {
	if g.started {
		panic("traffic: SetRate after Start")
	}
	g.rates[node] = rate
}

// Rate returns node's configured packet rate.
func (g *Generator) Rate(node int) float64 { return g.rates[node] }

// OfferedPackets returns the number of packets generated so far.
func (g *Generator) OfferedPackets() uint64 { return g.offered }

// OfferedFlitRate returns the configured aggregate offered load in
// flits/cycle (sum of source rates times packet length).
func (g *Generator) OfferedFlitRate() float64 {
	sum := 0.0
	for node, r := range g.rates {
		if g.isSource[node] {
			sum += r
		}
	}
	return sum * float64(g.net.Config().PacketLen)
}

// Start schedules the first arrival of every source. Call once, before
// running the kernel.
func (g *Generator) Start() {
	if g.started {
		panic("traffic: generator started twice")
	}
	g.started = true
	now := g.kernel.Now()
	for node := range g.rates {
		if g.rates[node] <= 0 {
			continue
		}
		var probe sim.RNG
		g.rngs[node].SplitInto(&probe)
		if _, ok := g.pattern.Destination(node, &probe); !ok {
			continue // not a source under this pattern
		}
		switch g.process {
		case Poisson:
			g.next[node] = now + sim.Time(g.rngs[node].Exp(g.rates[node]))
			g.kernel.ScheduleEvent(g.next[node], 0, g, node)
		case Bernoulli:
			g.kernel.ScheduleEvent(now+1, 0, g, node)
		default:
			panic(fmt.Sprintf("traffic: unknown process %d", g.process))
		}
	}
}

// arrivalCycle maps an event time to the clock cycle whose pipeline
// step first observes it: ticks fire at integer times after same-time
// ordinary events (sim.TickPriority), so an arrival at time t is seen
// by — and injected during — cycle ceil(t).
func arrivalCycle(t sim.Time) uint64 { return uint64(math.Ceil(float64(t))) }

// Fire implements sim.Handler: one event per source, dispatched by the
// configured process.
func (g *Generator) Fire(node int) {
	r := &g.rngs[node]
	switch g.process {
	case Poisson:
		// Emit the due arrival, then every pre-drawn follow-up landing in
		// the same cycle: the network cannot observe intra-cycle arrival
		// times (no tick runs in between, and same-source packets keep
		// their queue order), so one kernel event stands in for all of
		// them. The destination draw stays interleaved with the
		// interarrival draw exactly as in one-event-per-arrival
		// emission — pre-drawing times ahead of destinations would
		// reorder the RNG stream.
		t := g.next[node]
		cycle := arrivalCycle(t)
		for {
			g.emit(node, r)
			t += sim.Time(r.Exp(g.rates[node]))
			if arrivalCycle(t) != cycle {
				break
			}
		}
		g.next[node] = t
		g.kernel.ScheduleEvent(t, 0, g, node)
	case Bernoulli:
		// One coin per cycle per source: every cycle must draw, so there
		// is nothing to batch — but the event record is still pooled.
		if r.Bernoulli(g.rates[node]) {
			g.emit(node, r)
		}
		g.kernel.ScheduleEvent(g.kernel.Now()+1, 0, g, node)
	}
}

func (g *Generator) emit(node int, r *sim.RNG) {
	dst, ok := g.pattern.Destination(node, r)
	if !ok || dst == node {
		return
	}
	g.offered++
	// The source queue is unbounded by default; a bounded queue drops
	// the arrival, which is the open-loop interpretation of a full IP
	// memory.
	_ = g.net.Inject(node, dst)
}

// Trace is a deterministic, replayable record of packet creations.
type Trace struct {
	Events []TraceEvent
}

// TraceEvent is one packet creation.
type TraceEvent struct {
	Cycle    uint64
	Src, Dst int
}

// Record produces a trace of n.Pattern-driven arrivals without running
// a network: useful for replaying identical workloads across topologies
// of the same node count.
func Record(p Pattern, proc Process, rate float64, nodes int, cycles uint64, seed uint64) *Trace {
	tr := &Trace{}
	master := sim.NewRNG(seed)
	for node := 0; node < nodes; node++ {
		r := master.Split()
		if _, ok := p.Destination(node, r.Split()); !ok {
			continue
		}
		switch proc {
		case Poisson:
			t := r.Exp(rate)
			for uint64(t) < cycles {
				if dst, ok := p.Destination(node, r); ok && dst != node {
					tr.Events = append(tr.Events, TraceEvent{Cycle: uint64(t), Src: node, Dst: dst})
				}
				t += r.Exp(rate)
			}
		case Bernoulli:
			for c := uint64(0); c < cycles; c++ {
				if r.Bernoulli(rate) {
					if dst, ok := p.Destination(node, r); ok && dst != node {
						tr.Events = append(tr.Events, TraceEvent{Cycle: c, Src: node, Dst: dst})
					}
				}
			}
		}
	}
	sortTrace(tr.Events)
	return tr
}

// sortTrace orders events by (cycle, src, dst) for deterministic replay.
func sortTrace(ev []TraceEvent) {
	sort.Slice(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
}

// traceReplay injects trace events by index — the closure-free handler
// behind Trace.Replay.
type traceReplay struct {
	trace *Trace
	net   *noc.Network
}

// Fire implements sim.Handler: inject trace event i.
func (tr *traceReplay) Fire(i int) {
	e := tr.trace.Events[i]
	_ = tr.net.Inject(e.Src, e.Dst)
}

// Replay schedules the trace's events on kernel k against net. Events
// whose endpoints exceed the network size are skipped.
func (t *Trace) Replay(k *sim.Kernel, net *noc.Network) {
	n := net.Topology().Nodes()
	tr := &traceReplay{trace: t, net: net}
	for i, e := range t.Events {
		if e.Src >= n || e.Dst >= n || e.Src == e.Dst {
			continue
		}
		k.ScheduleEvent(sim.Time(e.Cycle), 0, tr, i)
	}
}
