package noc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gonoc/internal/routing"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

// Handle packing must round-trip every field at its boundary values,
// and retagging must touch only the VC bits — the switch stage relies
// on withVC preserving (pkt, seq) exactly.
func TestFlitHandleRoundTrip(t *testing.T) {
	pkts := []int32{0, 1, 63, math.MaxInt32}
	seqs := []int{0, 1, MaxPacketLen - 1}
	vcs := []int{0, 1, MaxVCs - 1}
	for _, p := range pkts {
		for _, s := range seqs {
			for _, v := range vcs {
				h := mkFlit(p, s, v)
				if h.pkt() != p || h.seq() != s || h.vc() != v {
					t.Fatalf("mkFlit(%d,%d,%d) unpacked to (%d,%d,%d)",
						p, s, v, h.pkt(), h.seq(), h.vc())
				}
				for _, nv := range vcs {
					r := h.withVC(nv)
					if r.pkt() != p || r.seq() != s || r.vc() != nv {
						t.Fatalf("withVC(%d) corrupted (%d,%d,%d) to (%d,%d,%d)",
							nv, p, s, v, r.pkt(), r.seq(), r.vc())
					}
				}
			}
		}
	}
}

// inflatedVCs wraps a routing algorithm, inflating its declared VC
// count so the network provisions more virtual channels (and wider
// slot masks) than the decisions ever use. Geometry-only: routing
// behaviour is unchanged.
type inflatedVCs struct {
	routing.Algorithm
	vcs int
}

func (w inflatedVCs) VCs() int { return w.vcs }

// Geometry past the handle's field widths must be rejected at
// construction, not corrupt handles at runtime.
func TestNewNetworkRejectsOversizedGeometry(t *testing.T) {
	s := topology.MustSpidergon(8)
	alg := routing.NewSpidergonRouting(s)
	if _, err := NewNetwork(s, inflatedVCs{alg, MaxVCs + 1}, DefaultConfig(), stats.NewCollector(0)); err == nil {
		t.Fatalf("VCs=%d accepted past MaxVCs", MaxVCs+1)
	}
	cfg := DefaultConfig()
	cfg.PacketLen = MaxPacketLen + 1
	if _, err := NewNetwork(s, alg, cfg, stats.NewCollector(0)); err == nil {
		t.Fatalf("PacketLen=%d accepted past MaxPacketLen", MaxPacketLen+1)
	}
}

// The buffer handle block is bounded before it is allocated: depths
// whose block would pass MaxSlotHandles are rejected naming the field
// with the larger share, and the exact limit is still accepted.
func TestCheckSlotBlockBoundsBuffers(t *testing.T) {
	s := topology.MustSpidergon(8)
	vcs := routing.NewSpidergonRouting(s).VCs()
	in, out := 0, 0
	for v := 0; v < s.Nodes(); v++ {
		in += len(s.In(v)) * vcs
		out += len(s.Out(v)) * vcs
	}
	at := DefaultConfig()
	at.OutBufCap = (MaxSlotHandles - in*at.InBufCap) / out
	past := at
	past.InBufCap += MaxSlotHandles - in*at.InBufCap - out*at.OutBufCap + 1
	cases := []struct {
		name    string
		in, out int
		want    string // "" means accepted
	}{
		{"paper", 1, 3, ""},
		{"at-limit", at.InBufCap, at.OutBufCap, ""},
		{"sum-past-limit", past.InBufCap, past.OutBufCap, "OutBufCap"},
		{"out-4e9", 1, 4000000000, "OutBufCap"},
		{"in-4e9", 4000000000, 3, "InBufCap"},
		{"out-maxint", 1, math.MaxInt, "OutBufCap"},
		{"both-maxint", math.MaxInt, math.MaxInt, "OutBufCap"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.InBufCap, cfg.OutBufCap = c.in, c.out
			err := checkSlotBlock(s, vcs, cfg)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("got error %v, want one naming %s", err, c.want)
			}
		})
	}
	cfg := DefaultConfig()
	cfg.OutBufCap = 4000000000
	if _, err := NewNetwork(s, routing.NewSpidergonRouting(s), cfg, stats.NewCollector(0)); err == nil {
		t.Fatal("NewNetwork accepted OutBufCap 4e9")
	}
}

// With enough VCs the per-router occupancy masks span multiple words
// (the seed's engine was limited to 64 slots — one word — per router).
// On such a fabric the serial engine must reproduce the recorded chain
// and every shard count must agree with it cycle for cycle, proving the
// multi-word set/clear/port extraction and the cross-word worklist
// retirement.
func TestMultiWordMasksCrossEngine(t *testing.T) {
	const vcs = 17 // stride rounds to 32; 4-port mesh routers span 128 mask bits
	build := func() *Network {
		m := topology.MustMesh(4, 4)
		n, err := NewNetwork(m, inflatedVCs{routing.NewMeshXY(m), vcs}, DefaultConfig(), stats.NewCollector(0))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	ref := build()
	// The test must actually exercise multi-word masks: an interior
	// mesh node has 4 input ports, so its mask is 4*32 = 128 bits.
	multi := false
	for _, r := range ref.routers {
		if len(r.inOcc) > 1 {
			multi = true
		}
	}
	if !multi {
		t.Fatal("geometry fits one mask word — test is vacuous")
	}

	nets := []*Network{ref}
	for _, k := range parallelShardCounts {
		nets = append(nets, newParallelNet(t, topology.MustMesh(4, 4),
			inflatedVCs{routing.NewMeshXY(topology.MustMesh(4, 4)), vcs}, DefaultConfig(), k))
	}
	var chain fingerprintChain
	rng := sim.NewRNG(17)
	for cycle := 0; cycle < 2500; cycle++ {
		if rng.Bernoulli(0.4) {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src != dst {
				for _, n := range nets {
					if err := n.Inject(src, dst); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, n := range nets {
			n.Step()
		}
		chain.add(ref)
		want := stateFingerprint(ref)
		for i, n := range nets[1:] {
			if fp := stateFingerprint(n); fp != want {
				t.Fatalf("%d shards diverged at cycle %d:\nserial: %s\ngot:    %s", parallelShardCounts[i], cycle, want, fp)
			}
		}
	}
	for i, n := range nets {
		if err := n.CheckConservation(); err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		if err := n.Drain(20000); err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
	chain.finish(ref)
	if *updateOracle {
		recordChain(t, "multi-word-masks", chain)
	}
	checkChain(t, "multi-word-masks", chain)
}

// arenaResetTrial drives a random prefix workload, Resets mid-flight
// (buffers and queues full), optionally flips pooling, then replays a
// second workload and demands bit-identity with a fresh twin that
// never saw the prefix — the recycled arena and free stack must be
// indistinguishable from cold ones.
func arenaResetTrial(t *testing.T, seed uint64, prefixCycles int, poolPrefix, poolReplay bool) {
	t.Helper()
	build := func(pooling bool) *Network {
		s := topology.MustSpidergon(16)
		n, err := NewNetwork(s, routing.NewSpidergonRouting(s), DefaultConfig(), stats.NewCollector(0))
		if err != nil {
			t.Fatal(err)
		}
		n.SetPooling(pooling)
		return n
	}
	run := func(n *Network, cycles int, seed uint64) {
		rng := sim.NewRNG(seed)
		for c := 0; c < cycles; c++ {
			if rng.Bernoulli(0.4) {
				src, dst := rng.Intn(16), rng.Intn(16)
				if src != dst {
					if err := n.Inject(src, dst); err != nil {
						t.Fatal(err)
					}
				}
			}
			n.Step()
		}
	}

	reused := build(poolPrefix)
	run(reused, prefixCycles, seed)
	reused.Reset()
	if poolReplay != poolPrefix {
		reused.SetPooling(poolReplay) // legal: Reset cleared the accounting
	}
	if err := reused.CheckConservation(); err != nil {
		t.Fatalf("post-Reset conservation: %v", err)
	}

	fresh := build(poolReplay)
	run(reused, 1500, seed^0x9e3779b97f4a7c15)
	run(fresh, 1500, seed^0x9e3779b97f4a7c15)
	if fr, ff := stateFingerprint(reused), stateFingerprint(fresh); fr != ff {
		t.Fatalf("recycled arena diverged from fresh twin:\nreused: %s\nfresh:  %s", fr, ff)
	}
	for _, n := range []*Network{reused, fresh} {
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		if err := n.Drain(20000); err != nil {
			t.Fatal(err)
		}
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
}

// Directed sweep of the Reset-recycling property over the pooling
// on/off square — the always-run counterpart of the fuzz target below.
func TestArenaRecycleAcrossReset(t *testing.T) {
	for _, pp := range []bool{true, false} {
		for _, pr := range []bool{true, false} {
			t.Run(fmt.Sprintf("prefixPool=%v,replayPool=%v", pp, pr), func(t *testing.T) {
				arenaResetTrial(t, 41, 1200, pp, pr)
			})
		}
	}
}

// FuzzArenaRecycleAcrossReset lets the fuzzer vary the prefix length
// (so Reset lands at arbitrary in-flight populations, including empty)
// and the pooling transitions, hunting for a reclaim path that leaks,
// double-frees, or perturbs the replay.
func FuzzArenaRecycleAcrossReset(f *testing.F) {
	f.Add(uint64(1), uint16(0), true, true)
	f.Add(uint64(7), uint16(300), true, false)
	f.Add(uint64(13), uint16(999), false, true)
	f.Add(uint64(99), uint16(1700), false, false)
	f.Fuzz(func(t *testing.T, seed uint64, prefix uint16, poolPrefix, poolReplay bool) {
		arenaResetTrial(t, seed, int(prefix)%2000, poolPrefix, poolReplay)
	})
}

// The handle-based inject→eject path must run allocation-free in the
// steady state: leases pop the free stack, buffers push handle words,
// ejection materializes into the network's scratch view. The drive is
// fully deterministic (fixed inject cadence), so the arena and queue
// high-water marks are established during warm-up and the measured
// window reuses them — any allocation here is a hot-path regression,
// not noise.
func TestHandlePathZeroAllocSteadyState(t *testing.T) {
	s := topology.MustSpidergon(16)
	// A warm-up horizon beyond any cycle this test reaches keeps the
	// collector outside its measurement window, so its sample-buffer
	// appends (a deliberate measurement-time cost) never fire.
	net, err := NewNetwork(s, routing.NewSpidergonRouting(s), DefaultConfig(), stats.NewCollector(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	net.SetPooling(true)
	cycle := 0
	tick := func() {
		if cycle%3 == 0 {
			src, dst := (cycle*7)%16, (cycle*13+5)%16
			if src != dst {
				if err := net.Inject(src, dst); err != nil {
					t.Fatal(err)
				}
			}
		}
		net.Step()
		cycle++
	}
	for cycle < 3000 {
		tick()
	}
	if net.EjectedPackets() == 0 {
		t.Fatal("warm-up ejected nothing — cadence broken")
	}
	if allocs := testing.AllocsPerRun(500, tick); allocs != 0 {
		t.Fatalf("steady-state inject→eject path allocates %v per cycle", allocs)
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// LiveStateBytes must be a pure function of simulation state: strictly
// larger when flits are resident than when empty, and exactly
// reproducible when the same workload replays on a Reset network (the
// figure the perf gate pins).
func TestLiveStateBytesDeterministic(t *testing.T) {
	build := func() *Network {
		s := topology.MustSpidergon(16)
		n, err := NewNetwork(s, routing.NewSpidergonRouting(s), DefaultConfig(), stats.NewCollector(0))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	drive := func(n *Network) {
		rng := sim.NewRNG(23)
		for c := 0; c < 1000; c++ {
			if rng.Bernoulli(0.4) {
				src, dst := rng.Intn(16), rng.Intn(16)
				if src != dst {
					_ = n.Inject(src, dst)
				}
			}
			n.Step()
		}
	}
	a := build()
	empty := a.LiveStateBytes()
	drive(a)
	loaded := a.LiveStateBytes()
	if loaded <= empty {
		t.Fatalf("loaded network reports %d bytes, empty %d", loaded, empty)
	}
	// Replay on the recycled arena: identical state must yield the
	// identical byte count (same population high-water, same residency).
	a.Reset()
	drive(a)
	if got := a.LiveStateBytes(); got != loaded {
		t.Fatalf("replayed live bytes %d != first run %d", got, loaded)
	}
}

// The conservation checker must reject structurally invalid handles —
// a corrupted word in a buffer names a packet, sequence or VC outside
// the arena geometry and must be called out, not walked off the end.
func TestCheckConservationCatchesInvalidHandle(t *testing.T) {
	s := topology.MustSpidergon(16)
	net, err := NewNetwork(s, routing.NewSpidergonRouting(s), DefaultConfig(), stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Inject(0, 9); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		net.Step()
	}
	var bad *slotQ
	for _, r := range net.routers {
		for _, op := range r.out {
			for vc := range op.vcs {
				v := &op.vcs[vc]
				if !v.empty() {
					bad = &v.q
				}
			}
		}
		for _, p := range r.in {
			for i := range p.bufs {
				if p.bufs[i].len() > 0 {
					bad = &p.bufs[i]
				}
			}
		}
	}
	if bad == nil {
		t.Fatal("no buffered flit to corrupt")
	}
	good := bad.pop()
	bad.push(mkFlit(good.pkt()+1000, good.seq(), good.vc())) // packet index past the arena
	err = net.CheckConservation()
	if err == nil || !strings.Contains(err.Error(), "invalid flit handle") {
		t.Fatalf("corrupted handle not caught: %v", err)
	}
}
