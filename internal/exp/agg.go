package exp

import (
	"encoding/json"
	"math"

	"gonoc/internal/core"
	"gonoc/internal/stats"
)

// Metric summarises one performance index across the replications of a
// grid point.
type Metric struct {
	// Mean is the cross-replication sample mean; NaN (null in JSON)
	// when no replication measured the metric.
	Mean float64 `json:"mean"`
	// CI95 is the 95% confidence half-width around Mean, from the
	// Student-t quantile (replication counts are small); zero with
	// fewer than two replications.
	CI95 float64 `json:"ci95"`
}

// MarshalJSON writes an absent Mean (no replication measured the
// metric) as null.
func (m Metric) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Mean core.Stat `json:"mean"`
		CI95 float64   `json:"ci95"`
	}{core.Stat(m.Mean), m.CI95})
}

// metricOf converts a summary into the record form. The mean of an
// empty summary stays NaN (absent); the CI95 of fewer than two
// observations is zero.
func metricOf(s *stats.Summary) Metric {
	m := Metric{Mean: s.Mean(), CI95: s.CI95T()}
	if math.IsNaN(m.CI95) {
		m.CI95 = 0
	}
	return m
}

// Aggregate is the cross-replication summary of one campaign grid
// point: mean and 95% confidence half-width for each reported index.
type Aggregate struct {
	Campaign string            `json:"campaign,omitempty"`
	Topo     core.TopologyKind `json:"topo"`
	Nodes    int               `json:"nodes"`
	Traffic  string            `json:"traffic"`
	FlitRate float64           `json:"flit_rate"`
	Reps     int               `json:"reps"`

	Throughput  Metric `json:"throughput"`
	Accepted    Metric `json:"accepted"`
	Latency     Metric `json:"latency"`
	P95Latency  Metric `json:"p95_latency"`
	MeanHops    Metric `json:"hops"`
	EnergyPerPk Metric `json:"energy_per_packet"`
}

// aggregator folds streamed outcomes into per-grid-point summaries. It
// is driven from the runner's single emission goroutine, so it needs no
// locking.
type aggregator struct {
	order []int // grid indices in first-seen (enumeration) order
	cells map[int]*aggCell
}

type aggCell struct {
	campaign string
	topo     core.TopologyKind
	nodes    int
	traffic  string
	flitRate float64

	throughput, accepted, latency, p95, hops, energy stats.Summary
}

func newAggregator() *aggregator {
	return &aggregator{cells: make(map[int]*aggCell)}
}

// add folds one outcome into its grid cell.
func (a *aggregator) add(o Outcome) {
	cell, ok := a.cells[o.Point.GridIndex]
	if !ok {
		cell = &aggCell{
			campaign: o.Campaign,
			topo:     o.Point.Topo,
			nodes:    o.Point.Nodes,
			traffic:  o.Point.Traffic,
			flitRate: o.Point.FlitRate,
		}
		a.cells[o.Point.GridIndex] = cell
		a.order = append(a.order, o.Point.GridIndex)
	}
	cell.throughput.Add(o.Result.Throughput)
	cell.accepted.Add(o.Result.AcceptedFlitRate)
	addFinite(&cell.latency, o.Result.MeanLatency)
	addFinite(&cell.p95, o.Result.P95Latency)
	addFinite(&cell.hops, o.Result.MeanHops)
	addFinite(&cell.energy, o.Result.EnergyPerPacket)
}

// addFinite folds one observation, skipping the NaNs a replication
// reports when no packet completed (e.g. a near-zero rate over a short
// window): one empty replication must not poison the cell's mean for
// the replications that did measure.
func addFinite(s *stats.Summary, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		s.Add(v)
	}
}

// build renders one cell as its aggregate record.
func (c *aggCell) build() Aggregate {
	return Aggregate{
		Campaign:    c.campaign,
		Topo:        c.topo,
		Nodes:       c.nodes,
		Traffic:     c.traffic,
		FlitRate:    c.flitRate,
		Reps:        int(c.throughput.Count()),
		Throughput:  metricOf(&c.throughput),
		Accepted:    metricOf(&c.accepted),
		Latency:     metricOf(&c.latency),
		P95Latency:  metricOf(&c.p95),
		MeanHops:    metricOf(&c.hops),
		EnergyPerPk: metricOf(&c.energy),
	}
}

// get returns the current aggregate of one grid point, with ok=false
// before any of its outcomes arrived. The adaptive runner polls it
// between rounds.
func (a *aggregator) get(grid int) (Aggregate, bool) {
	c, ok := a.cells[grid]
	if !ok {
		return Aggregate{}, false
	}
	return c.build(), true
}

// aggregates returns the summaries in campaign enumeration order.
func (a *aggregator) aggregates() []Aggregate {
	out := make([]Aggregate, 0, len(a.order))
	for _, gi := range a.order {
		out = append(out, a.cells[gi].build())
	}
	return out
}
