package exp

import (
	"encoding/json"
	"fmt"
	"io"

	"gonoc/internal/core"
)

// Outcome couples one campaign point with its measured result. Sinks
// receive outcomes in campaign enumeration order regardless of how the
// runs were scheduled.
type Outcome struct {
	// Campaign echoes the campaign name.
	Campaign string
	// Point is the expanded cell that produced the result.
	Point Point
	// Result holds the measured performance indexes.
	Result core.Result
}

// Sink consumes a campaign's output: one Run call per (scenario,
// replication) in enumeration order, then one Summary call per grid
// point, also in enumeration order. Sinks are driven from a single
// goroutine and need no internal locking.
type Sink interface {
	Run(Outcome) error
	Summary(Aggregate) error
}

// MultiSink fans every record out to each member in order.
type MultiSink []Sink

// Run implements Sink.
func (m MultiSink) Run(o Outcome) error {
	for _, s := range m {
		if err := s.Run(o); err != nil {
			return err
		}
	}
	return nil
}

// Summary implements Sink.
func (m MultiSink) Summary(a Aggregate) error {
	for _, s := range m {
		if err := s.Summary(a); err != nil {
			return err
		}
	}
	return nil
}

// runRecord is the wire form of one replication, shared by the JSONL
// and SQLite sinks. Index is the global campaign enumeration position
// (Point.Index), carried on the wire so shard-merge coverage
// validation can prove that a set of shard files tiles the campaign
// exactly; it is a pointer so streams written before the field existed
// decode as nil (legacy) rather than as a false position 0. The
// latency statistics are absent — null — when the replication ejected
// no packet (see core.Result).
type runRecord struct {
	Kind     string            `json:"kind"`
	Index    *int              `json:"index,omitempty"`
	Campaign string            `json:"campaign,omitempty"`
	Topo     core.TopologyKind `json:"topo"`
	Nodes    int               `json:"nodes"`
	Traffic  string            `json:"traffic"`
	FlitRate float64           `json:"flit_rate"`
	Rep      int               `json:"rep"`
	Seed     uint64            `json:"seed"`

	Throughput  float64   `json:"throughput"`
	Accepted    float64   `json:"accepted"`
	Latency     core.Stat `json:"latency"`
	P95Latency  core.Stat `json:"p95_latency"`
	MeanHops    core.Stat `json:"hops"`
	Injected    uint64    `json:"injected"`
	Ejected     uint64    `json:"ejected"`
	EnergyPerPk core.Stat `json:"energy_per_packet"`
}

// newRunRecord builds the run record of one outcome.
func newRunRecord(o Outcome) runRecord {
	idx := o.Point.Index
	return runRecord{
		Kind:        "run",
		Index:       &idx,
		Campaign:    o.Campaign,
		Topo:        o.Point.Topo,
		Nodes:       o.Point.Nodes,
		Traffic:     o.Point.Traffic,
		FlitRate:    o.Point.FlitRate,
		Rep:         o.Point.Rep,
		Seed:        o.Point.Scenario.Seed,
		Throughput:  o.Result.Throughput,
		Accepted:    o.Result.AcceptedFlitRate,
		Latency:     core.Stat(o.Result.MeanLatency),
		P95Latency:  core.Stat(o.Result.P95Latency),
		MeanHops:    core.Stat(o.Result.MeanHops),
		Injected:    o.Result.InjectedPackets,
		Ejected:     o.Result.EjectedPackets,
		EnergyPerPk: core.Stat(o.Result.EnergyPerPacket),
	}
}

// summaryRecord is the JSONL wire form of one aggregated grid point.
type summaryRecord struct {
	Kind string `json:"kind"`
	Aggregate
}

// JSONLWriter streams one compact JSON object per line: a "run" record
// per (scenario, replication) followed by a "summary" record per grid
// point. Identical campaigns produce byte-identical streams at any
// runner parallelism.
type JSONLWriter struct {
	w io.Writer
}

// NewJSONLWriter returns a sink writing to w. The caller owns w.
func NewJSONLWriter(w io.Writer) *JSONLWriter { return &JSONLWriter{w: w} }

func (j *JSONLWriter) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("exp: encoding record: %w", err)
	}
	b = append(b, '\n')
	_, err = j.w.Write(b)
	return err
}

// Run implements Sink.
func (j *JSONLWriter) Run(o Outcome) error { return j.writeLine(newRunRecord(o)) }

// Summary implements Sink.
func (j *JSONLWriter) Summary(a Aggregate) error {
	return j.writeLine(summaryRecord{Kind: "summary", Aggregate: a})
}
