package noc

import (
	"fmt"
	"testing"

	"gonoc/internal/routing"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

// enginePair builds two identical networks, one per engine, over a
// 16-node spidergon (or the given topology).
func enginePair(t *testing.T, topo topology.Topology, alg routing.Algorithm, cfg Config) (active, sweep *Network) {
	t.Helper()
	var err error
	active, err = NewNetwork(topo, alg, cfg, stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	sweep, err = NewNetwork(topo, alg, cfg, stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	sweep.SetEngine(EngineSweep)
	return active, sweep
}

// stateFingerprint summarises everything observable about a network at
// one cycle boundary: the packet counters, per-channel traversals, and
// per-node buffer occupancy.
func stateFingerprint(n *Network) string {
	return fmt.Sprintf("cycle=%d created=%d injected=%d ejected=%d queued=%d inflight=%d idle=%d links=%v occ=%v",
		n.Cycle(), n.CreatedPackets(), n.InjectedPackets(), n.EjectedPackets(),
		n.QueuedPackets(), n.InFlightFlits(), n.IdleCycles(), n.ChannelTraversals(), n.OccupancySnapshot())
}

// The active engine must track the sweep reference cycle for cycle,
// not just at the end of a run: any divergence in arbitration order
// shows up in the buffer occupancy fingerprint the same cycle it
// happens.
func TestEnginesAgreeCycleByCycle(t *testing.T) {
	s := topology.MustSpidergon(16)
	a, b := enginePair(t, s, routing.NewSpidergonRouting(s), DefaultConfig())
	rng := sim.NewRNG(7)
	for cycle := 0; cycle < 4000; cycle++ {
		if rng.Bernoulli(0.3) {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src != dst {
				if err := a.Inject(src, dst); err != nil {
					t.Fatal(err)
				}
				if err := b.Inject(src, dst); err != nil {
					t.Fatal(err)
				}
			}
		}
		a.Step()
		b.Step()
		if fa, fb := stateFingerprint(a), stateFingerprint(b); fa != fb {
			t.Fatalf("engines diverged at cycle %d:\nactive: %s\nsweep:  %s", cycle, fa, fb)
		}
		// The worklist-load gauge must agree with the sweep engine's
		// buffer walk at every instant.
		if na, nb := a.ActiveNodes(), b.ActiveNodes(); na != nb {
			t.Fatalf("cycle %d: ActiveNodes %d (active) vs %d (sweep)", cycle, na, nb)
		}
	}
	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := a.Drain(10000); err != nil {
		t.Fatal(err)
	}
	if err := b.Drain(10000); err != nil {
		t.Fatal(err)
	}
	if fa, fb := stateFingerprint(a), stateFingerprint(b); fa != fb {
		t.Fatalf("engines diverged after drain:\nactive: %s\nsweep:  %s", fa, fb)
	}
}

// Fuzz-style equivalence: random topologies, switching modes, buffer
// geometries, interface rates and injection streams must never
// separate the two engines. Each trial also proves the worklist
// invariants via CheckConservation.
func TestEnginesAgreeRandomized(t *testing.T) {
	master := sim.NewRNG(42)
	for trial := 0; trial < 12; trial++ {
		rng := master.Split()
		var topo topology.Topology
		var alg routing.Algorithm
		switch rng.Intn(3) {
		case 0:
			r := topology.MustRing(8 + 2*rng.Intn(5))
			topo, alg = r, routing.NewRingRouting(r)
		case 1:
			s := topology.MustSpidergon(8 + 4*rng.Intn(3))
			topo, alg = s, routing.NewSpidergonRouting(s)
		default:
			m := topology.MustMesh(3+rng.Intn(2), 3+rng.Intn(2))
			topo, alg = m, routing.NewMeshXY(m)
		}
		cfg := DefaultConfig()
		cfg.PacketLen = 2 + rng.Intn(6)
		cfg.OutBufCap = 1 + rng.Intn(6)
		cfg.SinkRate = 1 + rng.Intn(2)
		cfg.InjectRate = 1 + rng.Intn(2)
		if rng.Bernoulli(0.5) {
			cfg.Switching = VirtualCutThrough
			if cfg.OutBufCap < cfg.PacketLen {
				cfg.OutBufCap = cfg.PacketLen
			}
		}
		name := fmt.Sprintf("trial %d (%s, %v)", trial, topo.Name(), cfg)
		a, b := enginePair(t, topo, alg, cfg)
		n := topo.Nodes()
		rate := 0.05 + 0.4*rng.Float64()
		for cycle := 0; cycle < 1500; cycle++ {
			if rng.Bernoulli(rate) {
				src, dst := rng.Intn(n), rng.Intn(n)
				if src != dst {
					_ = a.Inject(src, dst)
					_ = b.Inject(src, dst)
				}
			}
			a.Step()
			b.Step()
		}
		if fa, fb := stateFingerprint(a), stateFingerprint(b); fa != fb {
			t.Fatalf("%s: engines diverged:\nactive: %s\nsweep:  %s", name, fa, fb)
		}
		if err := a.CheckConservation(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.CheckConservation(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// SkipTo must be exactly equivalent to stepping an idle network: both
// engines, fast-forwarded across a quiescent gap, must agree with a
// twin that stepped through it — round-robin pointers included (the
// injections after the gap land differently if any pointer drifts).
func TestSkipToMatchesIdleStepping(t *testing.T) {
	for _, eng := range []Engine{EngineActive, EngineSweep, EngineParallel} {
		s := topology.MustSpidergon(16)
		skip, step := enginePair(t, s, routing.NewSpidergonRouting(s), DefaultConfig())
		if eng == EngineParallel {
			skip.SetShards(3)
			step.SetShards(3)
			defer skip.StopWorkers()
			defer step.StopWorkers()
		}
		skip.SetEngine(eng)
		step.SetEngine(eng)
		load := func(n *Network) {
			for i := 0; i < 5; i++ {
				if err := n.Inject(i, i+7); err != nil {
					t.Fatal(err)
				}
			}
			for c := 0; c < 200; c++ {
				n.Step()
			}
			if !n.Quiescent() {
				t.Fatal("network failed to drain before the gap")
			}
		}
		load(skip)
		load(step)
		skip.SkipTo(skip.Cycle() + 777)
		for c := 0; c < 777; c++ {
			step.Step()
		}
		load(skip)
		load(step)
		if fa, fb := stateFingerprint(skip), stateFingerprint(step); fa != fb {
			t.Fatalf("%v: SkipTo diverged from idle stepping:\nskip: %s\nstep: %s", eng, fa, fb)
		}
	}
}

// The worklist invariant checker must actually catch a stranded flit.
func TestCheckActiveInvariantsCatchesStranding(t *testing.T) {
	s := topology.MustSpidergon(16)
	net, err := NewNetwork(s, routing.NewSpidergonRouting(s), DefaultConfig(), stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Inject(0, 5); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		net.Step()
	}
	if net.InFlightFlits() == 0 {
		t.Fatal("expected in-flight flits")
	}
	// Knock every router off the worklists behind the engine's back.
	net.dec.shards[0].wl.ej.clear()
	net.dec.shards[0].wl.sw.clear()
	net.dec.shards[0].wl.out.clear()
	if err := net.CheckConservation(); err == nil {
		t.Fatal("conservation check missed a stranded flit")
	}
}
