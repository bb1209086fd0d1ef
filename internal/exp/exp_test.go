package exp

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"gonoc/internal/core"
)

// testCampaign is a small but real cross-product: 2 topologies × 1
// size × 2 rates × 3 replications = 12 simulations at reduced cycle
// counts.
func testCampaign() Campaign {
	return Campaign{
		Name:       "test",
		Topologies: []core.TopologyKind{core.Ring, core.Spidergon},
		Nodes:      []int{8},
		Traffics:   []TrafficSpec{{Kind: core.UniformTraffic}},
		FlitRates:  []float64{0.05, 0.2},
		Reps:       3,
		Seed:       42,
		Warmup:     200,
		Measure:    2000,
	}
}

// Campaign expansion is deterministic: two expansions agree exactly,
// replication seeds are distinct, and enumeration order is the
// documented nesting.
func TestPointsDeterministic(t *testing.T) {
	c := testCampaign()
	a, err := c.Points()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2*1*1*2*3 {
		t.Fatalf("expanded %d points", len(a))
	}
	seeds := map[uint64]bool{}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("point %d differs between expansions", i)
		}
		if a[i].Index != i {
			t.Fatalf("point %d has Index %d", i, a[i].Index)
		}
		seeds[a[i].Scenario.Seed] = true
	}
	if len(seeds) != len(a) {
		t.Fatalf("only %d distinct seeds for %d points", len(seeds), len(a))
	}
	// Nesting: first all reps of (ring, rate 0.05), then (ring, 0.2)…
	if a[0].Topo != core.Ring || a[0].FlitRate != 0.05 || a[0].Rep != 0 {
		t.Fatalf("unexpected first point %+v", a[0])
	}
	if a[2].Rep != 2 || a[3].FlitRate != 0.2 || a[3].Rep != 0 {
		t.Fatal("replications are not innermost")
	}
	if a[6].Topo != core.Spidergon {
		t.Fatalf("topology is not outermost: %+v", a[6])
	}
}

// The same campaign emits byte-identical JSONL at parallel 1, 4 and
// 16: scheduling must not leak into the output.
func TestJSONLByteIdenticalAcrossParallelism(t *testing.T) {
	c := testCampaign()
	var outs []*bytes.Buffer
	for _, parallel := range []int{1, 4, 16} {
		var buf bytes.Buffer
		r := Runner{Parallel: parallel}
		if _, err := r.Run(context.Background(), c, NewJSONLWriter(&buf)); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, &buf)
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0].Bytes(), outs[i].Bytes()) {
			t.Fatal("JSONL output differs across -parallel 1/4/16")
		}
	}
	// One run record per (scenario, replication), one summary per grid
	// point.
	lines := strings.Split(strings.TrimRight(outs[0].String(), "\n"), "\n")
	runs, summaries := 0, 0
	for _, l := range lines {
		switch {
		case strings.Contains(l, `"kind":"run"`):
			runs++
		case strings.Contains(l, `"kind":"summary"`):
			summaries++
		default:
			t.Fatalf("unclassifiable record: %s", l)
		}
	}
	if runs != 12 || summaries != 4 {
		t.Fatalf("got %d run and %d summary records, want 12 and 4", runs, summaries)
	}
}

// Aggregates carry cross-replication means and CI95 half-widths with
// the documented semantics: reps counted, CI zero only when degenerate,
// and the mean equal to the arithmetic mean of the per-run records.
func TestAggregationCI95(t *testing.T) {
	agg := newAggregator()
	lat := []float64{10, 12, 14}
	for rep, v := range lat {
		agg.add(Outcome{
			Campaign: "t",
			Point:    Point{GridIndex: 0, Rep: rep, Topo: core.Ring, Nodes: 8, Traffic: "uniform", FlitRate: 0.1},
			Result:   core.Result{MeanLatency: v, Throughput: 0.5},
		})
	}
	aggs := agg.aggregates()
	if len(aggs) != 1 {
		t.Fatalf("%d aggregates", len(aggs))
	}
	a := aggs[0]
	if a.Reps != 3 {
		t.Fatalf("Reps = %d", a.Reps)
	}
	if math.Abs(a.Latency.Mean-12) > 1e-12 {
		t.Fatalf("latency mean = %v", a.Latency.Mean)
	}
	// sd = 2, stderr = 2/sqrt(3); 3 reps → 2 dof → t = 4.303, not the
	// normal 1.96 (which would understate the interval by 2.2×).
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(a.Latency.CI95-want) > 1e-12 {
		t.Fatalf("latency CI95 = %v, want %v", a.Latency.CI95, want)
	}
	// Identical replications collapse the interval to zero.
	if a.Throughput.CI95 != 0 {
		t.Fatalf("constant metric CI95 = %v", a.Throughput.CI95)
	}
}

// A single replication yields CI95 = 0, never NaN, so records always
// marshal.
func TestAggregationSingleRep(t *testing.T) {
	agg := newAggregator()
	agg.add(Outcome{Point: Point{GridIndex: 0}, Result: core.Result{MeanLatency: 5}})
	a := agg.aggregates()[0]
	if a.Reps != 1 || a.Latency.Mean != 5 || a.Latency.CI95 != 0 {
		t.Fatalf("single-rep aggregate: %+v", a)
	}
}

// Replications genuinely vary: distinct seeds must produce a non-zero
// CI95 on latency at a moderate load.
func TestReplicationsVary(t *testing.T) {
	c := testCampaign()
	aggs, err := RunCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 4 {
		t.Fatalf("%d aggregates", len(aggs))
	}
	varied := false
	for _, a := range aggs {
		if a.Reps != 3 {
			t.Fatalf("aggregate %v has Reps %d", a, a.Reps)
		}
		if a.Latency.CI95 > 0 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("all replications produced identical latency: seeds are not independent")
	}
}

// A replication that measured nothing (NaN latency) is skipped, not
// folded in: it must not poison the mean of the replications that did
// measure.
func TestAggregationSkipsNaN(t *testing.T) {
	agg := newAggregator()
	for rep, v := range []float64{10, math.NaN(), 14} {
		agg.add(Outcome{
			Point:  Point{GridIndex: 0, Rep: rep},
			Result: core.Result{MeanLatency: v, Throughput: 0.1},
		})
	}
	a := agg.aggregates()[0]
	if a.Reps != 3 {
		t.Fatalf("Reps = %d", a.Reps)
	}
	if a.Latency.Mean != 12 {
		t.Fatalf("latency mean = %v, want 12 from the two finite replications", a.Latency.Mean)
	}
}

// Explicit zero Warmup and Seed survive expansion: zero is a valid
// choice for both, not a request for defaults.
func TestZeroWarmupAndSeedHonored(t *testing.T) {
	c := testCampaign()
	c.Warmup, c.Seed = 0, 0
	pts, err := c.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Scenario.Warmup != 0 {
			t.Fatalf("explicit zero warmup rewritten to %d", p.Scenario.Warmup)
		}
	}
	c2 := testCampaign()
	c2.Warmup, c2.Seed = 0, 1
	pts2, err := c2.Points()
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Scenario.Seed == pts2[0].Scenario.Seed {
		t.Fatal("master seeds 0 and 1 derived the same replication seed")
	}
}

// Cancelling the context aborts the campaign with the context error.
func TestRunnerCancellation(t *testing.T) {
	c := testCampaign()
	c.Reps = 50 // enough work that cancellation lands mid-campaign
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	r := Runner{Parallel: 2, Progress: func(done, total int) {
		n++
		if n == 3 {
			cancel()
		}
	}}
	_, err := r.Run(ctx, c)
	if err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
}

// An unbuildable grid cell surfaces as an expansion error naming the
// point.
func TestCampaignValidation(t *testing.T) {
	c := testCampaign()
	c.Topologies = []core.TopologyKind{"klein-bottle"}
	if _, err := c.Points(); err == nil {
		t.Fatal("bogus topology expanded without error")
	}
	c = testCampaign()
	c.FlitRates = nil
	if _, err := c.Points(); err == nil {
		t.Fatal("rateless campaign expanded without error")
	}
}

// The runner's progress callback counts every run exactly once, in
// order.
func TestRunnerProgress(t *testing.T) {
	c := testCampaign()
	var seen []int
	r := Runner{Parallel: 4, Progress: func(done, total int) {
		if total != 12 {
			t.Fatalf("total = %d", total)
		}
		seen = append(seen, done)
	}}
	if _, err := r.Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 12 || seen[0] != 1 || seen[11] != 12 {
		t.Fatalf("progress sequence %v", seen)
	}
}
