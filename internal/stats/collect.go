package stats

import "math"

// Collector gathers the paper's two performance indexes for one
// simulation run: NoC throughput (flits and packets absorbed per cycle)
// and end-to-end packet latency (creation to tail-flit ejection), with a
// warm-up window excluded from measurement exactly as in steady-state
// simulation practice.
type Collector struct {
	WarmupCycles uint64

	// Offered/accepted accounting (post-warm-up).
	packetsInjected uint64
	flitsInjected   uint64
	packetsEjected  uint64
	flitsEjected    uint64
	sourceBlocked   uint64

	// Latency in cycles, per packet (post-warm-up).
	latency   Summary
	latencyQ  Quantiler
	hopCounts Summary
	netLat    Summary // network latency: injection of head flit -> ejection of tail

	firstMeasured uint64
	lastCycle     uint64
	started       bool
}

// NewCollector returns a collector that discards the first warmup cycles.
func NewCollector(warmup uint64) *Collector {
	return &Collector{WarmupCycles: warmup}
}

// Reset clears every measurement and installs a new warm-up window,
// keeping the allocated latency-sample storage — a reset collector
// observes a fresh run exactly like a new one, which lets campaign
// replications reuse one collector instead of reallocating its sample
// buffers per run.
func (c *Collector) Reset(warmup uint64) {
	c.WarmupCycles = warmup
	c.packetsInjected, c.flitsInjected = 0, 0
	c.packetsEjected, c.flitsEjected = 0, 0
	c.sourceBlocked = 0
	c.latency.Reset()
	c.latencyQ.Reset()
	c.hopCounts.Reset()
	c.netLat.Reset()
	c.firstMeasured, c.lastCycle = 0, 0
	c.started = false
}

// Measuring reports whether the given cycle is past warm-up.
func (c *Collector) Measuring(cycle uint64) bool { return cycle >= c.WarmupCycles }

// note records the cycle bounds of the measurement window.
func (c *Collector) note(cycle uint64) {
	if !c.started {
		c.firstMeasured = cycle
		c.started = true
	}
	if cycle > c.lastCycle {
		c.lastCycle = cycle
	}
}

// PacketInjected records the injection (network acceptance) of a packet
// of the given flit count at the given cycle.
func (c *Collector) PacketInjected(cycle uint64, flits int) {
	if !c.Measuring(cycle) {
		return
	}
	c.note(cycle)
	c.packetsInjected++
	c.flitsInjected += uint64(flits)
}

// SourceBlocked records a cycle in which a source had a flit ready but
// the network refused it (head-of-line blocking at injection).
func (c *Collector) SourceBlocked(cycle uint64) {
	if !c.Measuring(cycle) {
		return
	}
	c.note(cycle)
	c.sourceBlocked++
}

// PacketEjected records the complete ejection of a packet: cycle of the
// tail flit's consumption, the packet's creation and injection cycles,
// its flit count, and the hop count it traversed.
//
// Packets created during warm-up are excluded even if they drain after
// warm-up ends, so latency samples are not censored toward short values.
func (c *Collector) PacketEjected(cycle, createdCycle, injectedCycle uint64, flits, hops int) {
	if !c.Measuring(cycle) || !c.Measuring(createdCycle) {
		return
	}
	c.note(cycle)
	c.packetsEjected++
	c.flitsEjected += uint64(flits)
	lat := float64(cycle - createdCycle)
	c.latency.Add(lat)
	c.latencyQ.Add(lat)
	c.netLat.Add(float64(cycle - injectedCycle))
	c.hopCounts.Add(float64(hops))
}

// MeasuredCycles returns the width of the observed measurement window.
func (c *Collector) MeasuredCycles() uint64 {
	if !c.started {
		return 0
	}
	return c.lastCycle - c.firstMeasured + 1
}

// PacketsInjected returns injected packets post-warm-up.
func (c *Collector) PacketsInjected() uint64 { return c.packetsInjected }

// PacketsEjected returns fully ejected packets post-warm-up.
func (c *Collector) PacketsEjected() uint64 { return c.packetsEjected }

// FlitsEjected returns ejected flits post-warm-up.
func (c *Collector) FlitsEjected() uint64 { return c.flitsEjected }

// FlitsInjected returns injected flits post-warm-up.
func (c *Collector) FlitsInjected() uint64 { return c.flitsInjected }

// SourceBlockedCycles returns the count of blocked injection attempts.
func (c *Collector) SourceBlockedCycles() uint64 { return c.sourceBlocked }

// Throughput returns absorbed flits per cycle over the measurement
// window (the aggregate network throughput index of Figures 6, 8, 10).
func (c *Collector) Throughput() float64 {
	w := c.MeasuredCycles()
	if w == 0 {
		return 0
	}
	return float64(c.flitsEjected) / float64(w)
}

// ThroughputPerNode returns absorbed flits per cycle per node.
func (c *Collector) ThroughputPerNode(nodes int) float64 {
	if nodes <= 0 {
		return math.NaN()
	}
	return c.Throughput() / float64(nodes)
}

// PacketThroughput returns absorbed packets per cycle.
func (c *Collector) PacketThroughput() float64 {
	w := c.MeasuredCycles()
	if w == 0 {
		return 0
	}
	return float64(c.packetsEjected) / float64(w)
}

// AcceptedRate returns injected flits per cycle (the network's accepted
// load, which at saturation falls below the offered load).
func (c *Collector) AcceptedRate() float64 {
	w := c.MeasuredCycles()
	if w == 0 {
		return 0
	}
	return float64(c.flitsInjected) / float64(w)
}

// MeanLatency returns mean end-to-end packet latency in cycles
// (creation to tail ejection, queueing at the source included).
func (c *Collector) MeanLatency() float64 { return c.latency.Mean() }

// LatencyQuantile returns the p-quantile of packet latency.
func (c *Collector) LatencyQuantile(p float64) float64 { return c.latencyQ.Quantile(p) }

// MeanNetworkLatency returns mean injection-to-ejection latency,
// excluding source queueing.
func (c *Collector) MeanNetworkLatency() float64 { return c.netLat.Mean() }

// MeanHops returns the mean routed hop count of ejected packets — the
// simulation-side estimate of E[D] validated against the analytic value
// in the paper's Figure 5.
func (c *Collector) MeanHops() float64 { return c.hopCounts.Mean() }
