package main

import (
	"math"
	"testing"
)

func TestSelfTimesUnionAndAggregates(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "exp.a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "exp.b", Start: 20, End: 40}, // overlaps exp.a
		{ID: 4, Parent: 1, Name: "noc.Network.Step", Start: 0, End: 5, Calls: 7},
		{ID: 5, Parent: 3, Name: "core.c", Start: 25, End: 35},
	}
	want := []int64{100 - 30 - 5, 20, 10, 5, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i+1, got[i], want[i])
		}
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	spans[4].End = 45 // core.c now sticks out of exp.b
	if err := checkNesting(spans); err == nil {
		t.Fatal("checkNesting accepted a child outside its parent")
	}
}

// TestTracedRunSpans traces one reduced campaign iteration and its
// replay, then checks that the spans nest and that the per-layer self
// times add up to the traced wall time. They differ only by the overlap
// of concurrent cache lookups, which is counted once per lookup; the
// test allows 1% of the traced wall time.
func TestTracedRunSpans(t *testing.T) {
	cfg := testConfig(t)
	for _, name := range []string{"uniform-sweep", "lone-step-auto"} {
		w := reduced(t, name, defaultSeed)
		tr := newTracer()
		root := tr.begin(0, "bench.traced")
		it, err := iterate(cfg, w, tr, root)
		if err != nil || it.err != nil {
			t.Fatalf("%s: iterate: %v %v", name, err, it.err)
		}
		rp, err := replay(it, tr, root)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		tr.end(root)
		if rp.failed != 0 {
			t.Errorf("%s: %d replayed runs differ from the campaign's", name, rp.failed)
		}
		spans := tr.snapshot()
		if err := checkNesting(spans); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		layers := layerSelf(spans, root)
		var sum int64
		for _, ns := range layers {
			sum += ns
		}
		wall := spans[root-1].dur()
		if diff := math.Abs(float64(sum - wall)); diff > 0.01*float64(wall) {
			t.Errorf("%s: layer self times sum to %d ns, traced wall is %d ns", name, sum, wall)
		}
		for _, l := range []string{"bench", "core", "traffic", "sim", "noc"} {
			if layers[l] <= 0 {
				t.Errorf("%s: layer %s has no self time: %v", name, l, layers)
			}
		}
		if len(w.campaigns) > 0 && layers["exp"] <= 0 {
			t.Errorf("%s: layer exp has no self time: %v", name, layers)
		}
	}
}
