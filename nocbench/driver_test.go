package main

import (
	"fmt"
	"testing"

	"gonoc/internal/core"
)

// TestReplayMatchesRunPerf runs a matrix of scenarios through one
// replayer and one core.Workspace in the same order and requires the
// replayer's Result and PerfStats to equal RunPerf's exactly. The order
// revisits each geometry, so both the build and the reset path run, and
// switches the engine between serial and auto-width parallel on one
// network.
func TestReplayMatchesRunPerf(t *testing.T) {
	var matrix []core.Scenario
	for _, topo := range []core.TopologyKind{core.Ring, core.Spidergon, core.Mesh} {
		for _, flitRate := range []float64{0.05, 0.6} { // near idle, saturated
			for _, par := range []int{0, -1} {
				s := core.NewScenario(topo, 16, core.UniformTraffic, flitRate/6)
				s.Warmup, s.Measure = 200, 1500
				s.Seed = uint64(len(matrix) + 1)
				s.StepParallel = par
				matrix = append(matrix, s)
			}
		}
	}
	hs := core.NewScenario(core.Mesh, 16, core.HotSpotTraffic, 0.05)
	hs.HotSpots = []int{5, 6}
	hs.Warmup, hs.Measure = 200, 1500
	matrix = append(matrix, hs)

	var ws core.Workspace
	d := &replayer{tr: newTracer()}
	root := d.tr.begin(0, "test")
	for _, s := range matrix {
		name := fmt.Sprintf("%s/%s@%g/par%d", s.Topo, s.Traffic, s.Lambda*6, s.StepParallel)
		want, wantPerf, err := ws.RunPerf(s)
		if err != nil {
			t.Fatalf("%s: RunPerf: %v", name, err)
		}
		got, st, err := d.run(s, root)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
			t.Errorf("%s: Result differs\nreplay:  %s\nRunPerf: %s", name, g, w)
		}
		if st.perf != wantPerf {
			t.Errorf("%s: PerfStats differ\nreplay:  %+v\nRunPerf: %+v", name, st.perf, wantPerf)
		}
	}
	d.tr.end(root)
	if err := checkNesting(d.tr.snapshot()); err != nil {
		t.Fatal(err)
	}
}
