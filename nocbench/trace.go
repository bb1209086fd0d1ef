package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the tracer's origin. A span with Calls > 0 is an aggregate: it
// stands for Calls calls into one function whose durations sum to
// End-Start, accumulated without recording each call (noc.Network.Step
// runs once per simulated cycle, too often for one span each). An
// aggregate's Start is its parent's, so it nests like any other span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  uint64 `json:"calls,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span's time belongs to: the span name up to
// its first dot ("noc.Network.Step" belongs to noc).
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps the spans of one traced run in memory until the run
// ends. It is safe for concurrent use: exp.Cache lookups are recorded
// from the runner's workers.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// begin opens a span that will have children and returns its id; end
// closes it.
func (t *tracer) begin(parent int, name string) int {
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a finished leaf span.
func (t *tracer) add(parent int, name string, start, end time.Time) {
	s, e := t.ns(start), t.ns(end)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: s, End: e})
	t.mu.Unlock()
}

// aggregate records calls into name under parent, totalling ns.
func (t *tracer) aggregate(parent int, name string, calls uint64, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: p.Start, End: p.Start + ns, Calls: calls})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time, indexed by id-1: its
// duration minus the part of it covered by its children. Interval
// children may overlap (concurrent cache lookups), so their coverage is
// the length of their union; aggregate children cover their total.
func selfTimes(spans []span) []int64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var covered int64
		var iv []span
		for _, k := range kids[i] {
			if k.Calls > 0 {
				covered += k.dur()
			} else {
				iv = append(iv, k)
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a].Start < iv[b].Start })
		lo, hi := int64(-1), int64(-1)
		for _, k := range iv {
			if k.Start > hi {
				covered += hi - lo
				lo, hi = k.Start, k.End
			} else if k.End > hi {
				hi = k.End
			}
		}
		covered += hi - lo
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelf sums self times per layer over the subtree rooted at root
// (root included).
func layerSelf(spans []span, root int) map[string]int64 {
	self := selfTimes(spans)
	in := make([]bool, len(spans)+1)
	in[root] = true
	out := map[string]int64{}
	for _, s := range spans { // parents precede their children
		if s.ID == root || (s.Parent > 0 && in[s.Parent]) {
			in[s.ID] = true
			out[s.layer()] += self[s.ID-1]
		}
	}
	return out
}

// checkNesting verifies that every span is closed, that each child lies
// inside its parent, and that every self time is non-negative.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s: end %d before start %d", s.ID, s.Name, s.End, s.Start)
		}
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] outside parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	for i, v := range selfTimes(spans) {
		if v < 0 {
			return fmt.Errorf("span %d %s: negative self time %d ns", i+1, spans[i].Name, v)
		}
	}
	return nil
}

// writeSpans writes the manifest line, one line per span, and a final
// line with the per-layer self times of each root span.
func writeSpans(w io.Writer, manifest map[string]any, spans []span) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"manifest": manifest}); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	roots := map[string]map[string]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			roots[fmt.Sprintf("%d:%s", s.ID, s.Name)] = layerSelf(spans, s.ID)
		}
	}
	return enc.Encode(map[string]any{"layer_self_ns": roots})
}
