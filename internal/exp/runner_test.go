package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gonoc/internal/core"
)

// runJSONL runs c with the given runner and returns the JSONL stream.
func runJSONL(t *testing.T, r Runner, c Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.Run(context.Background(), c, NewJSONLWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runLines splits a JSONL stream into its run-record prefix and
// summary-record suffix.
func splitRecords(t *testing.T, stream []byte) (runs, summaries []string) {
	t.Helper()
	for _, l := range strings.Split(strings.TrimRight(string(stream), "\n"), "\n") {
		switch {
		case strings.Contains(l, `"kind":"run"`):
			runs = append(runs, l)
		case strings.Contains(l, `"kind":"summary"`):
			summaries = append(summaries, l)
		default:
			t.Fatalf("unclassifiable record: %s", l)
		}
	}
	return runs, summaries
}

// Shard outputs concatenate byte-identically to the unsharded run: the
// union of shard 0/2 and 1/2 run records equals the unsharded
// run-record stream, and MergeRuns over the two shard streams
// reproduces the entire unsharded file, summaries included.
func TestShardUnionMatchesUnsharded(t *testing.T) {
	c := testCampaign()
	full := runJSONL(t, Runner{Parallel: 4}, c)

	var shards [][]byte
	for i := 0; i < 2; i++ {
		shards = append(shards, runJSONL(t, Runner{Parallel: 2, Shard: Shard{Index: i, Count: 2}}, c))
	}
	for _, s := range shards {
		if bytes.Contains(s, []byte(`"kind":"summary"`)) {
			t.Fatal("shard stream contains summary records")
		}
	}
	concat := append(append([]byte{}, shards[0]...), shards[1]...)
	runs, _ := splitRecords(t, full)
	wantRuns := strings.Join(runs, "\n") + "\n"
	if string(concat) != wantRuns {
		t.Fatalf("shard union differs from unsharded run records:\n%s\nvs\n%s", concat, wantRuns)
	}

	var merged bytes.Buffer
	if _, err := MergeRuns(byteReaders(shards), &merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), full) {
		t.Fatal("merged shard streams differ from the unsharded output file")
	}
}

// A zero-rate grid point measures nothing (NaN latency family); the
// shard/merge round trip must still reproduce the unsharded file
// exactly, which exercises the NaN restoration in MergeRuns.
func TestMergeRestoresEmptyReplications(t *testing.T) {
	c := testCampaign()
	c.FlitRates = []float64{0, 0.05}
	full := runJSONL(t, Runner{Parallel: 4}, c)
	var shards [][]byte
	for i := 0; i < 3; i++ {
		shards = append(shards, runJSONL(t, Runner{Parallel: 3, Shard: Shard{Index: i, Count: 3}}, c))
	}
	var merged bytes.Buffer
	if _, err := MergeRuns(byteReaders(shards), &merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), full) {
		t.Fatal("merge with empty replications diverges from unsharded output")
	}
}

// A stream that already carries summary records (an unsharded output)
// merges to itself: the merge drops its summaries and recomputes them.
func TestMergeRecomputesSummaryRecords(t *testing.T) {
	c := testCampaign()
	c.FlitRates = []float64{0, 0.05}
	full := runJSONL(t, Runner{Parallel: 2}, c)
	var merged bytes.Buffer
	if _, err := MergeRuns(byteReaders([][]byte{full}), &merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), full) {
		t.Fatal("merging an unsharded stream changed it")
	}
}

// byteReaders adapts byte slices to readers.
func byteReaders(bs [][]byte) []io.Reader {
	out := make([]io.Reader, len(bs))
	for i, b := range bs {
		out[i] = bytes.NewReader(b)
	}
	return out
}

// A warm cache replays a campaign with zero simulations: every lookup
// hits, no entry is stored twice, and the emitted stream is identical.
func TestCacheWarmReplayZeroSimulations(t *testing.T) {
	c := testCampaign()
	cache := NewMemCache()
	cold := runJSONL(t, Runner{Parallel: 4, Cache: cache}, c)
	if cache.Hits() != 0 || cache.Misses() != 12 || cache.Len() != 12 {
		t.Fatalf("cold run: %d hits, %d misses, %d entries", cache.Hits(), cache.Misses(), cache.Len())
	}
	warm := runJSONL(t, Runner{Parallel: 1, Cache: cache}, c)
	if cache.Misses() != 12 {
		t.Fatalf("warm run simulated: misses rose to %d", cache.Misses())
	}
	if cache.Hits() != 12 {
		t.Fatalf("warm run: %d hits", cache.Hits())
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cached replay differs from the original stream")
	}
}

// The file cache persists across opens and resumes partial campaigns:
// a run that completed one shard leaves the other shard's simulations
// as the only cache misses of a later full run, and a torn trailing
// line (killed process) is skipped on load without swallowing the
// first result appended after it.
func TestFileCacheResume(t *testing.T) {
	dir := t.TempDir()
	c := testCampaign()

	cache, err := OpenFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	half := runJSONL(t, Runner{Parallel: 2, Cache: cache, Shard: Shard{Index: 0, Count: 2}}, c)
	if len(half) == 0 || cache.Len() != 6 {
		t.Fatalf("shard run cached %d entries", cache.Len())
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn append from a killed process.
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"truncat`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cache, err = OpenFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 6 {
		t.Fatalf("reloaded %d entries, want 6", cache.Len())
	}
	full := runJSONL(t, Runner{Parallel: 4, Cache: cache}, c)
	if cache.Misses() != 6 {
		t.Fatalf("resume simulated %d points, want 6", cache.Misses())
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	uncached := runJSONL(t, Runner{Parallel: 4}, c)
	if !bytes.Equal(full, uncached) {
		t.Fatal("resumed run differs from a fresh run")
	}

	// Every result the resumed run stored survives the next open.
	cache, err = OpenFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	if cache.Len() != 12 {
		t.Fatalf("reopened after the resumed run: %d entries, want 12", cache.Len())
	}
}

// Cached results round-trip through the JSONL file bit for bit, NaN
// metrics included.
func TestFileCacheRoundTripsNaN(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewScenario(core.Ring, 8, core.UniformTraffic, 0) // zero rate: NaN latency
	s.Warmup, s.Measure = 10, 100
	res, err := core.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLatency == res.MeanLatency {
		t.Fatal("expected NaN latency from an idle run")
	}
	if err := cache.Store(s.CacheKey(), res); err != nil {
		t.Fatal(err)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	cache, err = OpenFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	got, ok := cache.Lookup(s.CacheKey())
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	if got.MeanLatency == got.MeanLatency {
		t.Fatal("NaN latency flattened by the cache round trip")
	}
	if got.Throughput != res.Throughput || got.EjectedPackets != res.EjectedPackets {
		t.Fatalf("cache round trip changed results: %+v vs %+v", got, res)
	}
}

// Adaptive replication keeps adding split-seeded replications until
// the CI95 half-width meets the target or the cap: with an
// unreachable target every grid point lands exactly on the cap, and
// the output stream stays byte-identical at any parallelism.
func TestAdaptiveReplicationCapsAndDeterminism(t *testing.T) {
	c := testCampaign()
	c.Reps = 2
	r := Runner{Parallel: 1, CITarget: 1e-9, MaxReps: 5}
	a := runJSONL(t, r, c)
	r.Parallel = 8
	b := runJSONL(t, r, c)
	if !bytes.Equal(a, b) {
		t.Fatal("adaptive stream differs across parallelism")
	}
	aggs, err := Runner{CITarget: 1e-9, MaxReps: 5}.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for _, ag := range aggs {
		if ag.Reps != 5 {
			t.Fatalf("%s-%d@%v: %d reps, want cap 5", ag.Topo, ag.Nodes, ag.FlitRate, ag.Reps)
		}
	}
}

// A loose target stops early: no point needs the cap, and every
// aggregate either satisfies the target or exhausted it.
func TestAdaptiveReplicationStopsWhenSatisfied(t *testing.T) {
	c := testCampaign()
	c.Reps = 2
	aggs, err := Runner{CITarget: 0.5, MaxReps: 64}.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for _, ag := range aggs {
		if !satisfied(ag, 0.5) && ag.Reps < 64 {
			t.Fatalf("runner stopped at %d reps with CI %v/%v unsatisfied",
				ag.Reps, ag.Throughput.CI95, ag.Throughput.Mean)
		}
		if ag.Reps >= 64 {
			t.Fatalf("loose target escalated to the cap (%d reps)", ag.Reps)
		}
	}
}

// Extension replications continue each grid point's original seed
// stream: an adaptive run's first Reps replications are bit-identical
// to a fixed run's, and the added ones carry fresh distinct seeds.
func TestAdaptiveSeedsExtendStreams(t *testing.T) {
	c := testCampaign()
	c.Reps = 2
	fixed, err := c.Points()
	if err != nil {
		t.Fatal(err)
	}
	ext, err := c.pointsN(func(int) int { return 4 }, func(int) int { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != len(fixed) {
		t.Fatalf("extension points = %d", len(ext))
	}
	seeds := map[uint64]bool{}
	for _, p := range fixed {
		seeds[p.Scenario.Seed] = true
	}
	for _, p := range ext {
		if p.Rep < 2 {
			t.Fatalf("extension re-ran replication %d", p.Rep)
		}
		if seeds[p.Scenario.Seed] {
			t.Fatalf("extension reused seed %d", p.Scenario.Seed)
		}
		seeds[p.Scenario.Seed] = true
	}
	// Re-expanding with more reps reproduces the original prefix.
	again, err := c.pointsN(func(int) int { return 4 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range again {
		if p.Rep < 2 {
			want := fixed[p.GridIndex*2+p.Rep]
			if p.Scenario.Seed != want.Scenario.Seed {
				t.Fatalf("point %d: extended expansion changed seed of rep %d", i, p.Rep)
			}
		}
	}
}

// Saturation-knee refinement inserts extra rates where throughput
// flattens: a hot-spot ladder spanning saturation gains midpoint
// aggregates between the original grid rates.
func TestRefineInsertsKneePoints(t *testing.T) {
	c := Campaign{
		Name:       "refine",
		Topologies: []core.TopologyKind{core.Spidergon},
		Nodes:      []int{8},
		Traffics:   []TrafficSpec{{Kind: core.HotSpotTraffic, HotSpots: []int{0}}},
		// λ_sat is 1/7 flits/cycle: the grid spans the knee.
		FlitRates: []float64{0.05, 0.1, 0.15, 0.2},
		Reps:      1,
		Seed:      3,
		Warmup:    300,
		Measure:   3000,
	}
	aggs, err := Runner{Refine: 2}.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) <= 4 {
		t.Fatalf("refinement added no points: %d aggregates", len(aggs))
	}
	base := map[float64]bool{0.05: true, 0.1: true, 0.15: true, 0.2: true}
	extra := 0
	for _, a := range aggs[4:] {
		if base[a.FlitRate] {
			t.Fatalf("refined point duplicates grid rate %v", a.FlitRate)
		}
		if a.FlitRate <= 0.05 || a.FlitRate >= 0.2 {
			t.Fatalf("refined rate %v outside the grid span", a.FlitRate)
		}
		extra++
	}
	if extra > 2 {
		t.Fatalf("refinement exceeded its budget: %d extra points", extra)
	}
	// Refinement is deterministic too.
	again, err := Runner{Refine: 2, Parallel: 8}.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(aggs) {
		t.Fatal("refined point set differs across parallelism")
	}
}

// Sharding composes with neither adaptive replication nor refinement.
func TestShardRejectsAdaptive(t *testing.T) {
	c := testCampaign()
	if _, err := (Runner{Shard: Shard{0, 2}, CITarget: 0.1}).Run(context.Background(), c); err == nil {
		t.Fatal("shard + ci-target accepted")
	}
	if _, err := (Runner{Shard: Shard{0, 2}, Refine: 1}).Run(context.Background(), c); err == nil {
		t.Fatal("shard + refine accepted")
	}
	if _, err := (Runner{Shard: Shard{5, 2}}).Run(context.Background(), c); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// kneeCandidates drives refinement to a fixed point: on a synthetic
// hockey-stick curve (throughput min(x, knee)), repeated bisection
// converges the knee bracket geometrically and then stops on its own,
// well before an unbounded budget would.
func TestKneeCandidatesConvergeOnSyntheticKnee(t *testing.T) {
	const knee = 0.37
	y := func(x float64) float64 {
		if x < knee {
			return x
		}
		return knee
	}
	xs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = y(x)
	}
	span := xs[len(xs)-1] - xs[0]
	bracket := func() float64 {
		k := kneeInterval(xs, ys)
		if k < 0 {
			t.Fatalf("synthetic knee lost: xs=%v ys=%v", xs, ys)
		}
		return xs[k+1] - xs[k-1+1] // width of the knee interval
	}
	prev := bracket()
	inserted := 0
	for pass := 0; ; pass++ {
		if pass > 40 {
			t.Fatal("refinement failed to reach a fixed point")
		}
		cands := kneeCandidates(xs, ys)
		if len(cands) == 0 {
			break // fixed point
		}
		for _, x := range cands {
			xs = append(xs, x)
			ys = append(ys, y(x))
			inserted++
		}
		sort.Float64s(xs)
		sort.Float64s(ys) // y = min(x, knee) is monotone, so this re-pairs correctly
		if w := bracket(); w > prev {
			t.Fatalf("pass %d: knee bracket widened from %v to %v", pass, prev, w)
		} else {
			prev = w
		}
	}
	if prev > kneeRefineTol*span*2 {
		t.Fatalf("fixed point reached with a loose bracket: %v (span %v)", prev, span)
	}
	if inserted == 0 {
		t.Fatal("no refinement happened at all")
	}
	// The detector brackets the first flattening, i.e. it approaches
	// the true knee from just above; the converged bracket must sit
	// within tolerance of it.
	k := kneeInterval(xs, ys)
	if eps := 2 * kneeRefineTol * span; xs[k] > knee+eps || xs[k+1] < knee-eps {
		t.Fatalf("converged bracket [%v, %v] strayed from the knee %v", xs[k], xs[k+1], knee)
	}
}

// The runner's refinement loop iterates: with budget for more than one
// pass, at least one inserted rate bisects an interval created by an
// earlier insertion, which a single-pass implementation cannot produce.
func TestRefineIteratesPastOnePass(t *testing.T) {
	c := Campaign{
		Name:       "refine-iter",
		Topologies: []core.TopologyKind{core.Spidergon},
		Nodes:      []int{8},
		Traffics:   []TrafficSpec{{Kind: core.HotSpotTraffic, HotSpots: []int{0}}},
		FlitRates:  []float64{0.05, 0.1, 0.15, 0.2},
		Reps:       1,
		Seed:       3,
		Warmup:     300,
		Measure:    3000,
	}
	aggs, err := Runner{Refine: 6}.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	base := map[float64]bool{0.05: true, 0.1: true, 0.15: true, 0.2: true}
	var refinedRates []float64
	for _, a := range aggs {
		if !base[a.FlitRate] {
			refinedRates = append(refinedRates, a.FlitRate)
		}
	}
	if len(refinedRates) < 3 {
		t.Fatalf("expected several refinement passes, got rates %v", refinedRates)
	}
	if len(refinedRates) > 6 {
		t.Fatalf("refinement exceeded its budget: %v", refinedRates)
	}
	// Evidence of iteration: some refined rate is the midpoint of two
	// rates at 1/4-grid spacing or finer, which only a second pass over
	// first-pass midpoints can insert (the base grid is 0.05-spaced, so
	// first-pass midpoints sit on the 0.025 lattice; a second pass
	// lands on 0.0125 offsets).
	second := false
	for _, r := range refinedRates {
		if q := r / 0.0125; q != float64(int64(q)) || int64(q)%2 == 1 {
			second = true
		}
	}
	if !second {
		t.Fatalf("no second-pass bisection found in refined rates %v", refinedRates)
	}
	// The iterated refinement stays deterministic at any parallelism.
	again, err := Runner{Refine: 6, Parallel: 8}.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(aggs) {
		t.Fatal("refined point set differs across parallelism")
	}
	for i := range aggs {
		if aggs[i].FlitRate != again[i].FlitRate || aggs[i].Throughput != again[i].Throughput {
			t.Fatalf("aggregate %d differs across parallelism", i)
		}
	}
}

// Compact drops superseded duplicates and torn lines, keeps the
// last-written value of each key in first-appearance order, and leaves
// the cache fully usable (lookups and further appends) afterwards.
func TestFileCacheCompact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.jsonl")
	mk := func(key string, tput float64) string {
		b, err := json.Marshal(cacheEntry{Key: key, Result: core.Result{Throughput: tput}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	lines := []string{
		mk("a", 1),
		mk("b", 2),
		"{\"torn",  // killed writer
		mk("a", 3), // supersedes the first "a"
		"not json at all",
		mk("c", 4),
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dropped, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 {
		t.Fatalf("dropped %d lines, want 3 (two torn + one superseded)", dropped)
	}
	want := mk("a", 3) + "\n" + mk("b", 2) + "\n" + mk("c", 4) + "\n"
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("compacted file:\n%s\nwant:\n%s", got, want)
	}
	// Compacting a clean file is a no-op, byte for byte.
	if dropped, err = c.Compact(); err != nil || dropped != 0 {
		t.Fatalf("second compaction: dropped %d, err %v", dropped, err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, got) {
		t.Fatal("second compaction changed the file")
	}
	// The cache still serves and appends after compaction.
	if r, ok := c.Lookup("a"); !ok || r.Throughput != 3 {
		t.Fatalf("lookup after compact: %v %v", r, ok)
	}
	if err := c.Store("d", core.Result{Throughput: 5}); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if r, ok := reopened.Lookup("d"); !ok || r.Throughput != 5 {
		t.Fatalf("appended entry lost after compact+reopen: %v %v", r, ok)
	}
}

// Intra-scenario parallelism must be invisible in the output: a runner
// spending its budget on step shards emits the identical byte stream as
// the plain campaign-parallel runner, at several shard widths.
func TestStepShardsStreamIdentical(t *testing.T) {
	c := testCampaign()
	want := runJSONL(t, Runner{Parallel: 4}, c)
	for _, shards := range []int{2, 3, 8} {
		got := runJSONL(t, Runner{Parallel: 4, StepShards: shards}, c)
		if !bytes.Equal(want, got) {
			t.Fatalf("StepShards=%d changed the emitted stream", shards)
		}
	}
}

// The worker budget splits between campaign-level workers and step
// shards: ceil(Parallel / StepShards), never below one.
func TestWorkerBudgetSplit(t *testing.T) {
	cases := []struct {
		parallel, shards, want int
	}{
		{8, 0, 8},  // no shards: full budget to the campaign
		{8, 1, 8},  // single shard is serial
		{8, 4, 2},  // even split
		{8, 3, 3},  // rounding up keeps the budget covered
		{2, 8, 1},  // shards beyond the budget: one campaign worker
		{-1, 0, 0}, // GOMAXPROCS default, checked separately
	}
	for _, tc := range cases {
		r := Runner{Parallel: tc.parallel, StepShards: tc.shards}
		got := r.workerBudget()
		if tc.parallel <= 0 {
			if got < 1 {
				t.Fatalf("default budget %d < 1", got)
			}
			continue
		}
		if got != tc.want {
			t.Fatalf("workerBudget(Parallel=%d, StepShards=%d) = %d, want %d",
				tc.parallel, tc.shards, got, tc.want)
		}
	}
}
