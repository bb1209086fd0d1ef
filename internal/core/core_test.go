package core

import (
	"math"
	"strings"
	"testing"

	"gonoc/internal/analysis"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
)

func TestScenarioValidate(t *testing.T) {
	good := NewScenario(Spidergon, 8, UniformTraffic, 0.01)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []Scenario{
		func() Scenario { s := good; s.Nodes = 1; return s }(),
		func() Scenario { s := good; s.Lambda = -0.1; return s }(),
		func() Scenario { s := good; s.Measure = 0; return s }(),
		func() Scenario { s := good; s.Config.PacketLen = 0; return s }(),
		func() Scenario { s := good; s.Topo = "hypercube"; return s }(),
		func() Scenario { s := good; s.Traffic = HotSpotTraffic; return s }(), // no targets
		func() Scenario {
			s := good
			s.Traffic = HotSpotTraffic
			s.HotSpots = []int{99}
			return s
		}(),
		func() Scenario { s := good; s.Topo = Spidergon; s.Nodes = 9; return s }(),
		func() Scenario { s := good; s.Topo = Mesh; s.Cols = 3; s.Rows = 2; return s }(), // 6 != 8
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid scenario %s accepted", i, s.Label())
		}
	}
}

// Non-finite rates and cycle windows whose total wraps around uint64
// must be rejected up front: NaN slips past a sign check, and a wrapped
// total would run zero cycles and report an empty result as success.
func TestScenarioValidateRejectsNonFiniteAndOverflow(t *testing.T) {
	good := NewScenario(Spidergon, 8, UniformTraffic, 0.01)
	cases := []struct {
		name   string
		mutate func(*Scenario)
		ok     bool
	}{
		{"nan-lambda", func(s *Scenario) { s.Lambda = math.NaN() }, false},
		{"pos-inf-lambda", func(s *Scenario) { s.Lambda = math.Inf(1) }, false},
		{"neg-inf-lambda", func(s *Scenario) { s.Lambda = math.Inf(-1) }, false},
		{"zero-lambda", func(s *Scenario) { s.Lambda = 0 }, true},
		{"window-wraps", func(s *Scenario) { s.Warmup, s.Measure = 1, math.MaxUint64 }, false},
		{"warmup-wraps", func(s *Scenario) { s.Warmup, s.Measure = math.MaxUint64, 1 }, false},
		{"window-at-max", func(s *Scenario) { s.Warmup, s.Measure = 1, math.MaxUint64-1 }, true},
	}
	for _, c := range cases {
		s := good
		c.mutate(&s)
		err := s.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: valid scenario rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid scenario %s (warmup %d, measure %d) accepted", c.name, s.Label(), s.Warmup, s.Measure)
		}
	}
}

// Oversized geometries must be rejected with an error before anything
// is allocated for them, never die of an out-of-memory or makeslice
// panic; the largest supported sizes must still be accepted.
func TestScenarioValidateBoundsGeometry(t *testing.T) {
	cases := []struct {
		name    string
		s       Scenario
		wantErr string // "" means accepted
	}{
		{"mesh-max-nodes", NewScenario(Mesh, MaxNodes, UniformTraffic, 0.01), ""},
		{"mesh-past-max", NewScenario(Mesh, MaxNodes+1, UniformTraffic, 0.01), "exceeds the limit"},
		{"mesh-4e9-nodes", NewScenario(Mesh, 4000000000, UniformTraffic, 0.01), "exceeds the limit"},
		{"ring-1e15-nodes", NewScenario(Ring, 1e15, UniformTraffic, 0.01), "exceeds the limit"},
		{"dims-wrap-to-nodes", func() Scenario {
			s := NewScenario(Mesh, 4, UniformTraffic, 0.01)
			s.Cols, s.Rows = 1<<62+1, 4 // product wraps to 4
			return s
		}(), "exceeds the limit"},
		{"transpose-dims", func() Scenario {
			s := NewScenario(Ring, 16, PermutationTraffic, 0.01)
			s.Permutation, s.Cols, s.Rows = "transpose", 65536, 65536
			return s
		}(), "exceeds the limit"},
		{"table-routing-too-large", func() Scenario {
			s := NewScenario(Mesh, 4096, UniformTraffic, 0.01)
			s.Routing = "table"
			return s
		}(), "table routing over 4096 nodes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.s.Validate()
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("got error %v, want one containing %q", err, c.wantErr)
			}
		})
	}
}

// A buffer depth whose slot block would not fit the limit fails the
// run with an error naming the field, instead of allocating terabytes.
func TestRunRejectsOversizedBuffers(t *testing.T) {
	for _, field := range []string{"OutBufCap", "InBufCap"} {
		s := NewScenario(Ring, 8, UniformTraffic, 0.01)
		s.Warmup, s.Measure = 0, 10
		if field == "OutBufCap" {
			s.Config.OutBufCap = 4000000000
		} else {
			s.Config.InBufCap = 4000000000
		}
		if _, err := Run(s); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s 4e9: got error %v, want one naming %s", field, err, field)
		}
	}
}

func TestScenarioBuildKinds(t *testing.T) {
	for _, kind := range []TopologyKind{Ring, Spidergon, Mesh, IrregularMesh, FactorMesh} {
		s := NewScenario(kind, 12, UniformTraffic, 0.01)
		topo, alg, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if topo.Nodes() != 12 {
			t.Fatalf("%s: %d nodes", kind, topo.Nodes())
		}
		if alg.VCs() < 1 {
			t.Fatalf("%s: no VCs", kind)
		}
	}
	s := NewScenario(Torus, 12, UniformTraffic, 0.01)
	s.Cols, s.Rows = 4, 3
	if _, _, err := s.Build(); err != nil {
		t.Fatalf("torus: %v", err)
	}
}

func TestScenarioLabel(t *testing.T) {
	s := NewScenario(Ring, 8, UniformTraffic, 0.02)
	if !strings.Contains(s.Label(), "ring-8") {
		t.Fatalf("label = %q", s.Label())
	}
}

func TestRunLowLoadDeliversEverything(t *testing.T) {
	s := NewScenario(Spidergon, 8, UniformTraffic, 0.005)
	s.Warmup, s.Measure = 500, 5000
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.EjectedPackets == 0 {
		t.Fatal("nothing delivered")
	}
	// At 0.03 flits/cycle/source the network is far from saturation:
	// throughput ≈ offered.
	if math.Abs(r.Throughput-r.OfferedFlitRate) > 0.25*r.OfferedFlitRate {
		t.Fatalf("throughput %v far from offered %v at low load", r.Throughput, r.OfferedFlitRate)
	}
	// Latency must exceed the no-contention floor: hops + packetlen.
	if r.MeanLatency < r.MeanHops+float64(s.Config.PacketLen) {
		t.Fatalf("latency %v below physical floor", r.MeanLatency)
	}
	if r.Sources != 8 {
		t.Fatalf("sources = %d", r.Sources)
	}
}

func TestRunDeterministic(t *testing.T) {
	s := NewScenario(Mesh, 8, UniformTraffic, 0.01)
	s.Warmup, s.Measure = 200, 3000
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.MeanLatency != b.MeanLatency ||
		a.EjectedPackets != b.EjectedPackets {
		t.Fatal("identical scenarios produced different results")
	}
	s.Seed = 999
	c, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if c.EjectedPackets == a.EjectedPackets && c.MeanLatency == a.MeanLatency {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	s := NewScenario(Spidergon, 7, UniformTraffic, 0.01) // odd spidergon
	if _, err := Run(s); err == nil {
		t.Fatal("invalid scenario ran")
	}
}

// The paper's Figure 5: simulated mean hops track the analytic E[D]
// within stochastic noise, for all three topologies at 8 and 16 nodes.
func TestFig5SimMatchesAnalytic(t *testing.T) {
	for _, tc := range []struct {
		kind TopologyKind
		n    int
		an   float64
	}{
		{Ring, 8, analysis.RingAvgDistanceExact(8)},
		{Ring, 16, analysis.RingAvgDistanceExact(16)},
		{Spidergon, 8, analysis.SpidergonAvgDistanceExact(8)},
		{Spidergon, 16, analysis.SpidergonAvgDistanceExact(16)},
		{Mesh, 8, analysis.MeshAvgDistanceExact(2, 4)},
		{Mesh, 16, analysis.MeshAvgDistanceExact(4, 4)},
	} {
		s := NewScenario(tc.kind, tc.n, UniformTraffic, 0.008)
		s.Warmup, s.Measure = 500, 8000
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.MeanHops-tc.an) > 0.12*tc.an {
			t.Errorf("%s-%d: sim hops %v vs analytic %v", tc.kind, tc.n, r.MeanHops, tc.an)
		}
	}
}

// The paper's central hot-spot result (Figure 6): at saturation the
// throughput equals the sink rate — 1 flit/cycle — for every topology,
// "no differences with respect to the implemented topology".
func TestHotspotThroughputTopologyIndependent(t *testing.T) {
	var got []float64
	for _, kind := range []TopologyKind{Ring, Spidergon, Mesh} {
		s := NewScenario(kind, 8, HotSpotTraffic, 0)
		s.HotSpots = []int{SingleHotspot(kind, 8, false, 0, 0)}
		// 1.5x the saturation rate.
		s.Lambda = 1.5 * analysis.HotspotSaturationLambda(1, 1, 7, 6)
		s.Warmup, s.Measure = 1000, 10000
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput < 0.93 || r.Throughput > 1.001 {
			t.Fatalf("%s: saturated hotspot throughput %v, want ≈ 1", kind, r.Throughput)
		}
		got = append(got, r.Throughput)
	}
	// Across topologies the saturated values agree within a few percent.
	for i := 1; i < len(got); i++ {
		if math.Abs(got[i]-got[0]) > 0.05 {
			t.Fatalf("topology-dependent hotspot saturation: %v", got)
		}
	}
}

// Below saturation, hot-spot throughput equals offered load (the linear
// absorption regime of Figure 6).
func TestHotspotLinearRegime(t *testing.T) {
	s := NewScenario(Spidergon, 16, HotSpotTraffic, 0)
	s.HotSpots = []int{0}
	lamSat := analysis.HotspotSaturationLambda(1, 1, 15, 6)
	s.Lambda = 0.5 * lamSat
	s.Warmup, s.Measure = 1000, 20000
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Throughput-r.OfferedFlitRate) > 0.1*r.OfferedFlitRate {
		t.Fatalf("sub-saturation throughput %v != offered %v", r.Throughput, r.OfferedFlitRate)
	}
}

// Latency rises sharply past hot-spot saturation (Figure 7).
func TestHotspotLatencyKnee(t *testing.T) {
	lamSat := analysis.HotspotSaturationLambda(1, 1, 7, 6)
	lat := func(frac float64) float64 {
		s := NewScenario(Spidergon, 8, HotSpotTraffic, frac*lamSat)
		s.HotSpots = []int{0}
		s.Warmup, s.Measure = 1000, 10000
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanLatency
	}
	low, high := lat(0.4), lat(1.4)
	if high < 3*low {
		t.Fatalf("no latency knee: %.1f at 0.4λsat vs %.1f at 1.4λsat", low, high)
	}
}

// Double hot-spot: aggregate saturation doubles to ≈ 2 flits/cycle
// (Figure 8) and conclusions match the single-target case.
func TestDoubleHotspotSaturation(t *testing.T) {
	for _, kind := range []TopologyKind{Spidergon, Mesh} {
		targets, err := DoubleHotspots(kind, 8, PlacementA, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScenario(kind, 8, HotSpotTraffic, 0)
		s.HotSpots = targets
		s.Lambda = 1.5 * analysis.HotspotSaturationLambda(2, 1, 6, 6)
		s.Warmup, s.Measure = 1000, 10000
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput < 1.7 || r.Throughput > 2.001 {
			t.Fatalf("%s: double hotspot saturation %v, want ≈ 2", kind, r.Throughput)
		}
	}
}

// The paper's Figure 10 ordering: under uniform traffic at high load,
// Ring is worst; Spidergon and Mesh clearly outperform it.
func TestUniformOrderingRingWorst(t *testing.T) {
	tput := map[TopologyKind]float64{}
	for _, kind := range []TopologyKind{Ring, Spidergon, Mesh} {
		s := NewScenario(kind, 16, UniformTraffic, 0.4/6) // 0.4 flits/cycle/source
		s.Warmup, s.Measure = 1000, 10000
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		tput[kind] = r.Throughput
	}
	if tput[Ring] >= tput[Spidergon] || tput[Ring] >= tput[Mesh] {
		t.Fatalf("ring not worst under uniform load: %v", tput)
	}
}

// Ring saturates first: its latency at a moderate uniform load exceeds
// the others' (Figure 11).
func TestUniformRingSaturatesFirst(t *testing.T) {
	lat := map[TopologyKind]float64{}
	for _, kind := range []TopologyKind{Ring, Spidergon, Mesh} {
		s := NewScenario(kind, 16, UniformTraffic, 0.3/6)
		s.Warmup, s.Measure = 1000, 10000
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		lat[kind] = r.MeanLatency
	}
	if lat[Ring] <= lat[Spidergon] || lat[Ring] <= lat[Mesh] {
		t.Fatalf("ring latency not worst: %v", lat)
	}
}

// Sweep-style batches are exercised in internal/exp: the campaign
// runner is the module's single batch execution path.

func TestMeshCenterMatchesPaper(t *testing.T) {
	// Paper: node 5 (1-based) on the 2x4 mesh, node 14 (1-based) on 4x6.
	if got := MeshCenter(2, 4); got != 4 {
		t.Fatalf("center(2x4) = %d, want 4 (paper's node 5)", got)
	}
	if got := MeshCenter(4, 6); got != 13 {
		t.Fatalf("center(4x6) = %d, want 13 (paper's node 14)", got)
	}
}

func TestDoubleHotspotPlacements(t *testing.T) {
	for _, tc := range []struct {
		kind TopologyKind
		p    Placement
		want []int
	}{
		{Ring, PlacementA, []int{0, 4}},
		{Ring, PlacementB, []int{0, 6}},
		{Spidergon, PlacementA, []int{0, 4}},
		{Mesh, PlacementA, []int{0, 7}},
		{Mesh, PlacementB, []int{0, 4}},
		{Mesh, PlacementC, []int{4, 5}},
	} {
		got, err := DoubleHotspots(tc.kind, 8, tc.p, 0, 0)
		if err != nil {
			t.Fatalf("%s/%c: %v", tc.kind, tc.p, err)
		}
		if len(got) != 2 || got[0] != tc.want[0] || got[1] != tc.want[1] {
			t.Fatalf("%s/%c: %v, want %v", tc.kind, tc.p, got, tc.want)
		}
	}
	if _, err := DoubleHotspots(Ring, 8, PlacementC, 0, 0); err == nil {
		t.Fatal("placement C on ring accepted")
	}
	if _, err := DoubleHotspots("bogus", 8, PlacementA, 0, 0); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestTableTextAndCSV(t *testing.T) {
	tab := &Table{Title: "demo", XName: "x"}
	s1 := &stats.Series{Name: "a"}
	s1.Append(1, 10)
	s1.Append(2, 20)
	s2 := &stats.Series{Name: "b"}
	s2.Append(2, 200)
	s2.Append(3, 300)
	tab.Add(s1)
	tab.Add(s2)
	text := tab.Text()
	if !strings.Contains(text, "demo") || !strings.Contains(text, "a") {
		t.Fatalf("text rendering:\n%s", text)
	}
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "x,a,b" {
		t.Fatalf("csv header %q", lines[0])
	}
	if len(lines) != 4 { // x in {1,2,3}
		t.Fatalf("csv rows: %v", lines)
	}
	if lines[1] != "1,10," {
		t.Fatalf("csv row 1 = %q", lines[1])
	}
	if lines[2] != "2,20,200" {
		t.Fatalf("csv row 2 = %q", lines[2])
	}
}

func TestCSVEscape(t *testing.T) {
	if csvEscape(`plain`) != `plain` {
		t.Fatal("plain escaped")
	}
	if csvEscape(`a,b`) != `"a,b"` {
		t.Fatal("comma not quoted")
	}
	if csvEscape(`say "hi"`) != `"say ""hi"""` {
		t.Fatal("quotes not doubled")
	}
}

func TestFig2Shapes(t *testing.T) {
	tab := Fig2Diameter(4, 48)
	if len(tab.Series) != 5 {
		t.Fatalf("series count %d", len(tab.Series))
	}
	// Spidergon ND stays at or below the real meshes up to 45 nodes.
	var sg, imesh *stats.Series
	for _, s := range tab.Series {
		switch s.Name {
		case "spidergon":
			sg = s
		case "real-mesh-irregular":
			imesh = s
		}
	}
	for i, x := range sg.X {
		if x > 45 {
			break
		}
		if ix, ok := imesh.YAt(x); ok {
			if sg.Y[i] > ix {
				t.Fatalf("N=%v: spidergon ND %v above irregular mesh %v", x, sg.Y[i], ix)
			}
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	tab := Fig3AvgDistance(8, 48)
	var ring, sg *stats.Series
	for _, s := range tab.Series {
		switch s.Name {
		case "ring":
			ring = s
		case "spidergon":
			sg = s
		}
	}
	for _, x := range sg.X {
		ry, ok := ring.YAt(x)
		if !ok {
			continue
		}
		sy, _ := sg.YAt(x)
		if sy >= ry {
			t.Fatalf("N=%v: spidergon E[D] %v not below ring %v", x, sy, ry)
		}
	}
}

func TestRunBernoulliProcess(t *testing.T) {
	s := NewScenario(Ring, 8, UniformTraffic, 0.01)
	s.Process = traffic.Bernoulli
	s.Warmup, s.Measure = 200, 3000
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.EjectedPackets == 0 {
		t.Fatal("bernoulli run delivered nothing")
	}
}
