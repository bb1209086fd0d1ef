package exp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"

	"gonoc/internal/core"
)

// IndexRange is one contiguous run of global campaign indexes, both
// ends inclusive.
type IndexRange struct{ Lo, Hi int }

func (r IndexRange) String() string {
	if r.Lo == r.Hi {
		return fmt.Sprintf("%d", r.Lo)
	}
	return fmt.Sprintf("%d-%d", r.Lo, r.Hi)
}

// CoverageError reports that a set of merged shard streams does not
// tile the campaign's run indexes exactly: Missing are index ranges no
// input covered (a shard file was forgotten or lost), Duplicated are
// ranges more than one input covered (overlapping shard specs).
// Either way the naive concatenation would be silently wrong, so the
// merge fails instead of producing a short or inflated file.
type CoverageError struct {
	Missing    []IndexRange
	Duplicated []IndexRange
}

func (e *CoverageError) Error() string {
	var parts []string
	if len(e.Missing) > 0 {
		parts = append(parts, fmt.Sprintf("missing run indexes %s", formatRanges(e.Missing)))
	}
	if len(e.Duplicated) > 0 {
		parts = append(parts, fmt.Sprintf("overlapping run indexes %s", formatRanges(e.Duplicated)))
	}
	return "exp: shard coverage: " + strings.Join(parts, "; ")
}

func formatRanges(rs []IndexRange) string {
	ss := make([]string, len(rs))
	for i, r := range rs {
		ss[i] = r.String()
	}
	return strings.Join(ss, ",")
}

// StreamMerger merges shard JSONL streams incrementally: Add appends
// one shard's records (in shard order) the moment that shard is
// available, so a coordinator can emit the merged prefix while later
// shards are still running; Finish validates coverage, appends the
// recomputed summary records and returns the aggregates. Merging the N
// shard files of a campaign reproduces the unsharded output file byte
// for byte. Summary records encountered in the input (from non-shard
// streams) are dropped and recomputed.
type StreamMerger struct {
	w      io.Writer
	agg    *aggregator
	grids  map[string]int
	inputs int

	// Coverage bookkeeping: how often each global run index appeared.
	// Streams written before the index field existed decode nil and
	// are counted as legacy; validation is skipped for purely legacy
	// input (nothing to validate against) but a mix is rejected.
	counts  map[int]int
	indexed int
	legacy  int
}

// NewStreamMerger returns a merger writing merged run records (and, at
// Finish, summaries) to w; a nil w aggregates without copying records.
func NewStreamMerger(w io.Writer) *StreamMerger {
	return &StreamMerger{w: w, agg: newAggregator(), grids: map[string]int{}, counts: map[int]int{}}
}

// Add consumes one shard stream: run records are copied to the output
// verbatim and folded into the aggregates, summary records are
// dropped. Inputs must arrive in shard order for the merged bytes to
// reproduce the unsharded file.
func (m *StreamMerger) Add(r io.Reader) error {
	ri := m.inputs
	m.inputs++
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		var rec runRecord
		err := json.Unmarshal(sc.Bytes(), &rec)
		if rec.Kind == "summary" {
			// Recomputed at Finish. Its metric objects do not fit a run
			// record's numbers; json still decodes the kind past that
			// type error (a syntax error leaves it empty).
			continue
		}
		if err != nil {
			return fmt.Errorf("exp: merge input %d line %d: %w", ri, line, err)
		}
		if rec.Kind != "run" {
			return fmt.Errorf("exp: merge input %d line %d: unknown kind %q", ri, line, rec.Kind)
		}
		if rec.Index != nil {
			m.indexed++
			m.counts[*rec.Index]++
		} else {
			m.legacy++
		}
		if m.w != nil {
			// Two writes, not append: sc.Bytes aliases the scanner's
			// buffer, which an append could scribble on.
			if _, err := m.w.Write(sc.Bytes()); err != nil {
				return err
			}
			if _, err := m.w.Write([]byte{'\n'}); err != nil {
				return err
			}
		}
		key := fmt.Sprintf("%s|%s|%d|%s|%x", rec.Campaign, rec.Topo, rec.Nodes, rec.Traffic, rec.FlitRate)
		grid, ok := m.grids[key]
		if !ok {
			grid = len(m.grids)
			m.grids[key] = grid
		}
		m.agg.add(Outcome{
			Campaign: rec.Campaign,
			Point: Point{
				GridIndex: grid,
				Rep:       rec.Rep,
				Topo:      rec.Topo,
				Nodes:     rec.Nodes,
				Traffic:   rec.Traffic,
				FlitRate:  rec.FlitRate,
			},
			Result: rec.result(),
		})
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("exp: merge input %d: %w", ri, err)
	}
	return nil
}

// Finish validates shard coverage, writes the recomputed summary
// records and returns the aggregates. A coverage violation (missing or
// overlapping index ranges) fails before any summary is written, so a
// bad merge never masquerades as a complete file.
func (m *StreamMerger) Finish() ([]Aggregate, error) {
	if err := m.coverage(); err != nil {
		return nil, err
	}
	aggs := m.agg.aggregates()
	if m.w != nil {
		jw := NewJSONLWriter(m.w)
		for _, a := range aggs {
			if err := jw.Summary(a); err != nil {
				return nil, err
			}
		}
	}
	return aggs, nil
}

// coverage checks that the merged run indexes tile [0, max] exactly
// once each. It walks the distinct indexes seen, not the range they
// span, so one corrupt huge index costs no more than any other.
func (m *StreamMerger) coverage() error {
	if m.indexed == 0 {
		return nil // legacy streams carry no indexes; nothing to check
	}
	if m.legacy > 0 {
		return fmt.Errorf("exp: shard coverage: %d record(s) without index field mixed with %d indexed ones; re-run the shards with one nocsweep version", m.legacy, m.indexed)
	}
	idx := slices.Sorted(maps.Keys(m.counts))
	if idx[0] < 0 {
		return fmt.Errorf("exp: shard coverage: negative run index %d", idx[0])
	}
	var missing []IndexRange
	var dup []int
	next := 0
	for _, i := range idx {
		if i > next {
			missing = append(missing, IndexRange{Lo: next, Hi: i - 1})
		}
		if m.counts[i] > 1 {
			dup = append(dup, i)
		}
		next = i + 1
	}
	if len(missing) == 0 && len(dup) == 0 {
		return nil
	}
	return &CoverageError{Missing: missing, Duplicated: toRanges(dup)}
}

// toRanges compresses a sorted index list into contiguous ranges.
func toRanges(idx []int) []IndexRange {
	var out []IndexRange
	for _, i := range idx {
		if n := len(out); n > 0 && out[n-1].Hi == i-1 {
			out[n-1].Hi = i
			continue
		}
		out = append(out, IndexRange{Lo: i, Hi: i})
	}
	return out
}

// MergeRuns reads JSONL campaign streams (shard outputs, in shard
// order) from the readers, copies every run record to w verbatim, and
// appends the summary records an unsharded run would have produced —
// so merging the N shard files of a campaign reproduces the unsharded
// output file byte for byte. It fails with a *CoverageError when the
// inputs miss or duplicate shard index ranges instead of silently
// producing a short file. The aggregates are also returned. It is the
// one-shot form of StreamMerger.
func MergeRuns(readers []io.Reader, w io.Writer) ([]Aggregate, error) {
	m := NewStreamMerger(w)
	for _, r := range readers {
		if err := m.Add(r); err != nil {
			return nil, err
		}
	}
	return m.Finish()
}

// result reads the record back as the slice of a core.Result that
// aggregation uses, re-deriving the absent statistics from the core
// rule (streams written before absent values were null carry zeros).
func (r runRecord) result() core.Result {
	res := core.Result{
		Throughput:       r.Throughput,
		AcceptedFlitRate: r.Accepted,
		MeanLatency:      float64(r.Latency),
		P95Latency:       float64(r.P95Latency),
		MeanHops:         float64(r.MeanHops),
		InjectedPackets:  r.Injected,
		EjectedPackets:   r.Ejected,
		EnergyPerPacket:  float64(r.EnergyPerPk),
	}
	res.MarkAbsent()
	return res
}
