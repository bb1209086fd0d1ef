package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/sim"
)

// matrixShardCounts mirrors the noc-level matrix: the degenerate single
// shard, even splits, and prime counts that do not divide 16 nodes
// (13-of-16 yields single-router shards). -1 exercises the automatic
// width selection (min(GOMAXPROCS, routers/4), collapsing to the serial
// engine when that is 1) through the same bit-identity proof.
var matrixShardCounts = []int{1, 2, 3, 4, 7, 13, -1}

// runParallelShards executes s under the activity-driven engine and
// under the domain-decomposed engine at every matrix shard count, and
// fails unless all Results are bit-identical — struct equality and
// serialized JSON both. StepParallel is the third knob documented as
// result-neutral (after Engine and NoPool); this helper is the proof.
func runParallelShards(t *testing.T, s Scenario) Result {
	t.Helper()
	s.Engine = noc.EngineActive
	s.StepParallel = 0
	got, err := Run(s)
	if err != nil {
		t.Fatalf("%s [active]: %v", s.Label(), err)
	}
	for _, k := range matrixShardCounts {
		s.StepParallel = k
		want, err := Run(s)
		if err != nil {
			t.Fatalf("%s [parallel/%d]: %v", s.Label(), k, err)
		}
		// The engine knob itself is the only permitted difference.
		want.Scenario.StepParallel = got.Scenario.StepParallel
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: parallel/%d disagrees with active:\nactive:   %+v\nparallel: %+v", s.Label(), k, got, want)
		}
		var ga, gp bytes.Buffer
		if err := WriteResultJSON(&ga, got); err != nil {
			t.Fatal(err)
		}
		if err := WriteResultJSON(&gp, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ga.Bytes(), gp.Bytes()) {
			t.Fatalf("%s: serialized results differ for parallel/%d", s.Label(), k)
		}
	}
	return got
}

// The golden parallel matrix: the paper's three topologies at a load
// below the knee, at the knee, and past saturation, under both wormhole
// and virtual cut-through, at shard counts {1, 2, 3, 4, 7, 13} plus the
// automatic width. Run output — every field of Result, hence every
// figure the exp stack derives from it — must be unchanged by the
// domain decomposition.
func TestGoldenParallelMatrix(t *testing.T) {
	type load struct {
		name   string
		lambda float64
	}
	loads := []load{
		{"low", 0.01},       // ~0.06 flits/cycle/source: mostly idle
		{"knee", 0.05},      // near the throughput flattening
		{"saturated", 0.15}, // well past saturation
	}
	for _, topo := range []TopologyKind{Ring, Spidergon, Mesh} {
		for _, ld := range loads {
			for _, sw := range []noc.Switching{noc.Wormhole, noc.VirtualCutThrough} {
				s := NewScenario(topo, 16, UniformTraffic, ld.lambda)
				s.Warmup, s.Measure = 200, 1200
				s.Config.Switching = sw
				if sw != noc.Wormhole {
					s.Config.OutBufCap = s.Config.PacketLen
				}
				t.Run(string(topo)+"/"+ld.name+"/"+sw.String(), func(t *testing.T) {
					r := runParallelShards(t, s)
					if ld.name != "low" && r.EjectedPackets == 0 {
						t.Fatal("degenerate run: nothing ejected")
					}
				})
			}
		}
	}
	// Hot-spot traffic exercises the ejection-port bottleneck across an
	// uneven shard split.
	hs := NewScenario(Spidergon, 16, HotSpotTraffic, 0.03)
	hs.HotSpots = []int{5}
	hs.Warmup, hs.Measure = 200, 1200
	t.Run("spidergon/hotspot", func(t *testing.T) { runParallelShards(t, hs) })
}

// Fuzz-style scenario equivalence for the parallel engine: random draws
// over the full scenario space (topology family, node count, traffic,
// switching, interface rates, arrival process, shard count) must keep
// it bit-identical to the activity-driven engine.
func TestGoldenParallelRandomScenarios(t *testing.T) {
	rng := sim.NewRNG(777)
	topos := []TopologyKind{Ring, Spidergon, Mesh, Torus}
	for trial := 0; trial < 8; trial++ {
		s := NewScenario(topos[rng.Intn(len(topos))], 8+4*rng.Intn(3), UniformTraffic, 0.005+0.08*rng.Float64())
		if s.Topo == Spidergon && s.Nodes%4 != 0 {
			s.Nodes = 16
		}
		if s.Topo == Torus && s.Nodes < 9 {
			s.Nodes = 12 // 2x4 torus is invalid; 3x4 is the smallest here
		}
		if rng.Bernoulli(0.3) {
			s.Traffic = HotSpotTraffic
			s.HotSpots = []int{rng.Intn(s.Nodes)}
		}
		if rng.Bernoulli(0.3) {
			s.Process = 1 // Bernoulli arrivals: a kernel event every cycle
		}
		if rng.Bernoulli(0.4) {
			s.Config.Switching = noc.VirtualCutThrough
			s.Config.OutBufCap = s.Config.PacketLen
		}
		s.Config.SinkRate = 1 + rng.Intn(2)
		s.Config.InjectRate = 1 + rng.Intn(2)
		s.Warmup = 100 + 50*rng.Uint64()%200
		s.Measure = 400 + rng.Uint64()%800
		s.Seed = rng.Uint64()

		s.Engine = noc.EngineActive
		got, err := Run(s)
		if err != nil {
			t.Fatalf("trial %d [active]: %v", trial, err)
		}
		k := 1 + rng.Intn(8)
		s.StepParallel = k
		want, err := Run(s)
		if err != nil {
			t.Fatalf("trial %d [parallel/%d]: %v", trial, k, err)
		}
		want.Scenario.StepParallel = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%s, %d shards): results diverged:\nactive:   %+v\nparallel: %+v",
				trial, s.Label(), k, got, want)
		}
	}
}

// A parallel-engine run on a warm workspace must match a fresh run bit
// for bit — the workspace reuses the network (with its shard structures
// and packet pool), the kernel, the collector and the renewed traffic
// generator across replications.
func TestParallelWorkspaceReuse(t *testing.T) {
	s := NewScenario(Mesh, 16, UniformTraffic, 0.05)
	s.Warmup, s.Measure = 200, 1200
	s.StepParallel = 4
	fresh, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	for rep := 0; rep < 3; rep++ {
		got, err := ws.Run(s)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if !reflect.DeepEqual(fresh, got) {
			t.Fatalf("rep %d diverged from fresh run:\nfresh: %+v\nwarm:  %+v", rep, fresh, got)
		}
	}
	// Changing the shard count between replications must not change
	// results either.
	for _, k := range matrixShardCounts {
		s.StepParallel = k
		got, err := ws.Run(s)
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		got.Scenario.StepParallel = fresh.Scenario.StepParallel
		if !reflect.DeepEqual(fresh, got) {
			t.Fatalf("shards=%d diverged on a warm workspace", k)
		}
	}
	// Nor must switching back to the serial engine on the same
	// workspace (the network re-enrolls its worklists either way).
	s.StepParallel = 0
	got, err := ws.Run(s)
	if err != nil {
		t.Fatalf("serial after parallel: %v", err)
	}
	got.Scenario.StepParallel = fresh.Scenario.StepParallel
	if !reflect.DeepEqual(fresh, got) {
		t.Fatal("serial after parallel diverged on a warm workspace")
	}
}

// StepParallel must not leak into the content-addressed identity or the
// serialized scenario: a cached serial result is valid for a parallel
// re-run and vice versa.
func TestStepParallelExcludedFromCacheKey(t *testing.T) {
	a := NewScenario(Mesh, 16, UniformTraffic, 0.05)
	b := a
	b.StepParallel = 7
	b.Engine = noc.EngineParallel
	if a.CacheKey() != b.CacheKey() {
		t.Fatal("StepParallel/Engine changed the scenario cache key")
	}
	if fmt.Sprintf("%v", a.networkKey()) != fmt.Sprintf("%v", b.networkKey()) {
		t.Fatal("StepParallel/Engine changed the network key")
	}
}
