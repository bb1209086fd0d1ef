package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"gonoc/internal/core"
	"gonoc/internal/exp"
	"gonoc/internal/noc"
	"gonoc/internal/stats"
)

// iteration is one complete execution of a workload: set-up, then the
// measured phase that a user waits for.
type iteration struct {
	setup, wall, cpu time.Duration

	planned int // runs before adaptive replication
	total   int // runs after it (Runner.Progress's total)

	hits, lookups int // result cache

	records []string // per-run-record digests, in emission order
	digest  string   // digest of the whole JSONL stream
	bytes   int64    // JSONL bytes written
	err     error    // first run or sink error

	// Filled when traced.
	outcomes []exp.Outcome
	perfs    []noc.PerfStats // lone-step-auto only
	phase    int             // span of the measured phase
}

// iterate runs w once. With tr non-nil the measured phase is traced
// under span root; otherwise nothing is wrapped.
func iterate(cfg config, w *workload, tr *tracer, root int) (*iteration, error) {
	runtime.GC() // start every iteration from the same heap and an empty workspace pool
	runtime.GC()
	it := &iteration{}

	t0 := time.Now()
	planned, geoms, err := w.expand()
	if err != nil {
		return nil, err
	}
	it.planned, it.total = planned, planned
	dir, err := os.MkdirTemp(cfg.outDir, "iter-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cache *exp.FileCache
	if len(w.campaigns) > 0 {
		if cache, err = exp.OpenFileCache(filepath.Join(dir, "cache")); err != nil {
			return nil, err
		}
		defer cache.Close()
	}
	for _, s := range geoms {
		topo, alg, err := s.Build()
		if err != nil {
			return nil, err
		}
		if _, err := noc.NewNetwork(topo, alg, s.Config, stats.NewCollector(s.Warmup)); err != nil {
			return nil, err
		}
	}
	it.setup = time.Since(t0)

	c0 := cpuTime()
	t1 := time.Now()
	var sink exp.Sink = exp.NewJSONLWriter(f)
	var ts *tracedSink
	if tr != nil {
		name := "bench.lone"
		if len(w.campaigns) > 0 {
			name = "exp.Runner.RunAll"
		}
		it.phase = tr.begin(root, name)
		ts = &tracedSink{tr: tr, parent: it.phase, inner: sink}
		sink = ts
	}
	if len(w.campaigns) > 0 {
		r := exp.Runner{
			Parallel: cfg.workers,
			CITarget: w.ciTarget,
			MaxReps:  w.maxReps,
			Progress: func(_, total int) { it.total = total },
		}
		r.Cache = cache
		if tr != nil {
			r.Cache = &tracedCache{tr: tr, parent: it.phase, inner: cache}
		}
		_, it.err = r.RunAll(context.Background(), w.campaigns, sink)
	} else {
		var ws core.Workspace
		for i, s := range w.lone {
			t := time.Now()
			res, perf, err := ws.RunPerf(s)
			if tr != nil {
				tr.add(it.phase, "core.Workspace.RunPerf", t, time.Now())
			}
			if err != nil {
				it.err = err
				break
			}
			it.perfs = append(it.perfs, perf)
			o := exp.Outcome{Campaign: "lone", Result: res, Point: exp.Point{
				Index: i, GridIndex: i, Topo: s.Topo, Nodes: s.Nodes, Traffic: string(s.Traffic),
				FlitRate: s.Lambda * float64(s.Config.PacketLen), Scenario: s,
			}}
			if it.err = sink.Run(o); it.err != nil {
				break
			}
		}
	}
	if err := f.Close(); err != nil && it.err == nil {
		it.err = err
	}
	if cache != nil {
		it.hits, it.lookups = cache.Hits(), cache.Hits()+cache.Misses()
		if err := cache.Close(); err != nil && it.err == nil {
			it.err = err
		}
	}
	it.wall = time.Since(t1)
	it.cpu = cpuTime() - c0
	if tr != nil {
		tr.end(it.phase)
		it.outcomes = ts.outcomes
	}

	data, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	it.bytes = int64(len(data))
	it.records, it.digest = digestRuns(data)
	return it, nil
}

// expand does the campaign expansion of set-up: it returns the planned
// run count and one scenario per distinct network geometry.
func (w *workload) expand() (int, []core.Scenario, error) {
	all := append([]core.Scenario(nil), w.lone...)
	for _, c := range w.campaigns {
		pts, err := c.Points()
		if err != nil {
			return 0, nil, err
		}
		for _, p := range pts {
			all = append(all, p.Scenario)
		}
	}
	seen := map[string]bool{}
	var geoms []core.Scenario
	for _, s := range all {
		if k := geometryKey(s); !seen[k] {
			seen[k] = true
			geoms = append(geoms, s)
		}
	}
	return len(all), geoms, nil
}

// digestRuns returns a short digest per "run" line of a JSONL stream
// and a digest of the whole stream (summary lines included).
func digestRuns(data []byte) ([]string, string) {
	var recs []string
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"kind":"run"`)) {
			sum := sha256.Sum256(line)
			recs = append(recs, hex.EncodeToString(sum[:8]))
		}
	}
	sum := sha256.Sum256(data)
	return recs, hex.EncodeToString(sum[:])
}

// mismatches counts the runs of got that differ from want, plus the
// runs either side is missing.
func mismatches(got, want []string) int {
	n := max(len(got), len(want))
	bad := 0
	for i := 0; i < n; i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			bad++
		}
	}
	return bad
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// tracedSink times every call into the wrapped sink and keeps the
// outcomes for the replay. Sinks are driven from one goroutine.
type tracedSink struct {
	tr       *tracer
	parent   int
	inner    exp.Sink
	outcomes []exp.Outcome
}

func (s *tracedSink) Run(o exp.Outcome) error {
	t := time.Now()
	err := s.inner.Run(o)
	s.tr.add(s.parent, "exp.Sink.Run", t, time.Now())
	s.outcomes = append(s.outcomes, o)
	return err
}

func (s *tracedSink) Summary(a exp.Aggregate) error {
	t := time.Now()
	err := s.inner.Summary(a)
	s.tr.add(s.parent, "exp.Sink.Summary", t, time.Now())
	return err
}

// tracedCache times every call into the wrapped cache. Lookup runs on
// the runner's workers; the tracer is safe for that.
type tracedCache struct {
	tr     *tracer
	parent int
	inner  exp.Cache
}

func (c *tracedCache) Lookup(key string) (core.Result, bool) {
	t := time.Now()
	r, ok := c.inner.Lookup(key)
	c.tr.add(c.parent, "exp.Cache.Lookup", t, time.Now())
	return r, ok
}

func (c *tracedCache) Store(key string, r core.Result) error {
	t := time.Now()
	err := c.inner.Store(key, r)
	c.tr.add(c.parent, "exp.Cache.Store", t, time.Now())
	return err
}
