package core

import (
	"reflect"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/sim"
)

// A workspace run must be bit-identical to a fresh core.Run, across a
// mixed sequence that exercises every reuse transition: same geometry
// (network Reset), rate and seed changes (Reset + new generator), a
// topology change (rebuild), and a return to a previous geometry
// (rebuild again — the workspace caches one network, not a set).
func TestWorkspaceMatchesFreshRuns(t *testing.T) {
	mk := func(topo TopologyKind, nodes int, lambda float64, seed uint64) Scenario {
		s := NewScenario(topo, nodes, UniformTraffic, lambda)
		s.Warmup, s.Measure = 200, 1500
		s.Seed = seed
		return s
	}
	seq := []Scenario{
		mk(Spidergon, 16, 0.02, 1),
		mk(Spidergon, 16, 0.02, 2), // replication: seed change only
		mk(Spidergon, 16, 0.08, 2), // rate change, same network
		mk(Mesh, 16, 0.03, 1),      // geometry change: rebuild
		mk(Spidergon, 16, 0.02, 1), // back again: rebuild, same result
	}
	// A hot-spot pattern over the same geometry reuses the network too.
	hs := mk(Spidergon, 16, 0.03, 5)
	hs.Traffic = HotSpotTraffic
	hs.HotSpots = []int{5}
	seq = append(seq, hs, mk(Spidergon, 16, 0.02, 1))

	var ws Workspace
	for i, s := range seq {
		got, err := ws.Run(s)
		if err != nil {
			t.Fatalf("step %d %s [workspace]: %v", i, s.Label(), err)
		}
		want, err := Run(s)
		if err != nil {
			t.Fatalf("step %d %s [fresh]: %v", i, s.Label(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %s: workspace diverged from fresh run:\nworkspace: %+v\nfresh:     %+v",
				i, s.Label(), got, want)
		}
	}
}

// Workspace reuse must also hold with pooling off, for Bernoulli
// arrivals and under virtual cut-through — the non-default paths.
func TestWorkspaceMatchesFreshRunsVariants(t *testing.T) {
	base := NewScenario(Ring, 12, UniformTraffic, 0.04)
	base.Warmup, base.Measure = 150, 1200

	variants := make([]Scenario, 0, 3)
	s := base
	s.NoPool = true
	variants = append(variants, s)
	s = base
	s.Process = 1 // Bernoulli
	variants = append(variants, s)
	s = base
	s.Config.Switching = noc.VirtualCutThrough
	s.Config.OutBufCap = s.Config.PacketLen
	variants = append(variants, s)

	var ws Workspace
	for round := 0; round < 2; round++ { // second round hits the reuse path
		for i, v := range variants {
			got, err := ws.Run(v)
			if err != nil {
				t.Fatalf("round %d variant %d: %v", round, i, err)
			}
			want, err := Run(v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d variant %d (%s): workspace diverged from fresh run", round, i, v.Label())
			}
		}
	}
}

// The whole point of the workspace: a repeated run on a warmed
// workspace must not rebuild the network. Observable via the packet
// pool — after the first run the pool is warm, and a Reset-based rerun
// leases from it instead of allocating (verified indirectly: results
// equal and the workspace survives many rounds without error), plus
// directly via the networkKey stability below.
func TestWorkspaceReusesNetworkAcrossReplications(t *testing.T) {
	s := NewScenario(Spidergon, 16, UniformTraffic, 0.05)
	s.Warmup, s.Measure = 100, 800
	var keys []string
	for seed := uint64(1); seed <= 4; seed++ {
		v := s
		v.Seed = seed
		keys = append(keys, v.networkKey())
	}
	for _, k := range keys[1:] {
		if k != keys[0] {
			t.Fatalf("replications map to different network keys: %q vs %q", keys[0], k)
		}
	}
	if a, b := s.networkKey(), NewScenario(Mesh, 16, UniformTraffic, 0.05).networkKey(); a == b {
		t.Fatal("distinct geometries share a network key")
	}
}

// Fuzz-style reuse sequences: random walks over rate, seed, shard count
// and pooling — replayed on one workspace — must stay bit for bit equal
// to fresh runs. The pooling flips are the packet arena's hardest reuse
// transition (Reset must truncate the record population when pooling is
// off and retain it when on), and the shard flips exercise worklist
// rebuilds over a recycled arena.
func TestWorkspaceReuseRandomizedSequences(t *testing.T) {
	master := sim.NewRNG(1234)
	for trial := 0; trial < 4; trial++ {
		rng := master.Split()
		var ws Workspace
		for step := 0; step < 6; step++ {
			s := NewScenario(Spidergon, 16, UniformTraffic, 0.01+0.08*rng.Float64())
			s.Warmup, s.Measure = 100, uint64(400+rng.Intn(800))
			s.Seed = rng.Uint64()
			s.NoPool = rng.Bernoulli(0.4)
			if rng.Intn(4) == 1 {
				s.StepParallel = 1 + rng.Intn(4)
			}
			got, err := ws.Run(s)
			if err != nil {
				t.Fatalf("trial %d step %d %s [workspace]: %v", trial, step, s.Label(), err)
			}
			want, err := Run(s)
			if err != nil {
				t.Fatalf("trial %d step %d %s [fresh]: %v", trial, step, s.Label(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d %s: workspace diverged from fresh run", trial, step, s.Label())
			}
		}
	}
}
