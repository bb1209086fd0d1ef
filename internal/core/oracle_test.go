package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
)

// The kernel oracle freezes the engines' observable behaviour as data:
// testdata/kernel-oracle.json holds a randomized scenario matrix with
// the SHA-256 digest of each scenario's WriteResultJSON bytes, plus a
// few scripted runs with the hash chain of their per-cycle state
// fingerprint. Every engine — the sweep reference, the one-shard active
// kernel and the parallel kernel at 2 and 3 shards — must reproduce
// every recorded value, so a change to the shared phase kernel that
// moves any result, or any cycle's state, fails here even when all
// engines move together.
//
// Regenerate (only for an intentional result change) with
//
//	go test ./internal/core -run TestKernelOracle -update-oracle

var updateOracle = flag.Bool("update-oracle", false, "re-record testdata/kernel-oracle.json from the sweep engine")

const oraclePath = "testdata/kernel-oracle.json"

// oracleFile is the on-disk form of the frozen oracle.
type oracleFile struct {
	Digests []oracleDigest `json:"digests"`
	Chains  []oracleChain  `json:"chains"`
}

// oracleDigest pairs a scenario with the digest of its result document.
type oracleDigest struct {
	Scenario json.RawMessage `json:"scenario"`
	SHA256   string          `json:"sha256"`
}

// oracleChain is one scripted per-cycle run: the scenario supplies the
// geometry, load and seed; Checkpoints[i] is the chained state hash
// after cycle (i+1)*chainEvery.
type oracleChain struct {
	Scenario    json.RawMessage `json:"scenario"`
	OnEject     bool            `json:"on_eject"`
	Cycles      int             `json:"cycles"`
	Checkpoints []string        `json:"checkpoints"`
}

const (
	oracleMatrixSize = 64
	oracleMatrixSeed = 20261017
	chainEvery       = 250
)

// oracleEngines are the engine settings every recorded value must hold
// under: the Scenario fields that select them, and a name for failures.
var oracleEngines = []struct {
	name   string
	engine noc.Engine
	shards int
}{
	{"sweep", noc.EngineSweep, 0},
	{"active", noc.EngineActive, 0},
	{"parallel-2", noc.EngineActive, 2},
	{"parallel-3", noc.EngineActive, 3},
}

func TestKernelOracle(t *testing.T) {
	if *updateOracle {
		recordOracle(t)
	}
	raw, err := os.ReadFile(oraclePath)
	if err != nil {
		t.Fatal(err)
	}
	var of oracleFile
	if err := json.Unmarshal(raw, &of); err != nil {
		t.Fatalf("parsing %s: %v", oraclePath, err)
	}
	if len(of.Digests) != oracleMatrixSize || len(of.Chains) == 0 {
		t.Fatalf("%s holds %d digests and %d chains", oraclePath, len(of.Digests), len(of.Chains))
	}
	scenarios := make([]Scenario, len(of.Digests))
	for i, d := range of.Digests {
		if scenarios[i], err = UnmarshalScenario(d.Scenario); err != nil {
			t.Fatalf("digest %d: %v", i, err)
		}
	}
	for _, e := range oracleEngines {
		t.Run(e.name, func(t *testing.T) {
			for i, s := range scenarios {
				s.Engine, s.StepParallel = e.engine, e.shards
				if got := resultDigest(t, s); got != of.Digests[i].SHA256 {
					t.Errorf("digest %d (%s, %+v): got %s, recorded %s",
						i, s.Label(), s.Config, got, of.Digests[i].SHA256)
				}
			}
			for i, c := range of.Chains {
				s, err := UnmarshalScenario(c.Scenario)
				if err != nil {
					t.Fatalf("chain %d: %v", i, err)
				}
				got := stateChain(t, s, e.engine, e.shards, c.OnEject, c.Cycles)
				for k := range c.Checkpoints {
					if k >= len(got) || got[k] != c.Checkpoints[k] {
						t.Errorf("chain %d (%s, %+v) first diverges before cycle %d",
							i, s.Label(), s.Config, (k+1)*chainEvery)
						break
					}
				}
			}
		})
	}
}

// resultDigest runs s and hashes its WriteResultJSON document.
func resultDigest(t *testing.T, s Scenario) string {
	t.Helper()
	r, err := Run(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Label(), err)
	}
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, r); err != nil {
		t.Fatalf("%s: %v", s.Label(), err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// stateChain drives s's network directly for the given cycles — one
// Bernoulli(Lambda) injection draw per source per cycle from the
// scenario's pattern and seed, identical under every engine — and
// chains a hash over each cycle's state fingerprint: the packet
// counters, the idle count, and every node's occupancy, injections and
// ejections and every channel's traversals. With onEject, each ejected
// packet's identity and timing is folded in too, in ejection order
// (which also runs the parallel engine's two-barrier cycle). It returns
// the chain value at every chainEvery-th cycle.
func stateChain(t *testing.T, s Scenario, engine noc.Engine, shards int, onEject bool, cycles int) []string {
	t.Helper()
	topo, alg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := s.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	net, err := noc.NewNetwork(topo, alg, s.Config, stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	if shards > 0 {
		net.SetShards(shards)
		net.SetEngine(noc.EngineParallel)
	} else {
		net.SetEngine(engine)
	}
	defer net.StopWorkers()
	var rec []byte
	put := func(v uint64) { rec = binary.LittleEndian.AppendUint64(rec, v) }
	if onEject {
		net.OnEject(func(p *noc.Packet) {
			put(p.ID)
			put(p.CreatedCycle)
			put(p.InjectedCycle)
			put(uint64(p.Hops))
		})
	}
	rng := sim.NewRNG(s.Seed)
	var chain [sha256.Size]byte
	var out []string
	for c := 1; c <= cycles; c++ {
		for src := 0; src < s.Nodes; src++ {
			if !rng.Bernoulli(s.Lambda) {
				continue
			}
			if dst, ok := pattern.Destination(src, rng); ok {
				_ = net.Inject(src, dst) // a bounded source queue may refuse
			}
		}
		net.Step()
		put(net.Cycle())
		put(net.CreatedPackets())
		put(net.InjectedPackets())
		put(net.EjectedPackets())
		put(uint64(net.QueuedPackets()))
		put(uint64(net.InFlightFlits()))
		put(net.IdleCycles())
		tv := net.Telemetry()
		for v := range tv.Occ {
			put(uint64(tv.Occ[v]))
			put(tv.Inj[v])
			put(tv.Ej[v])
		}
		for _, l := range tv.Link {
			put(l)
		}
		chain = sha256.Sum256(append(chain[:], rec...))
		rec = rec[:0]
		if c%chainEvery == 0 {
			out = append(out, hex.EncodeToString(chain[:]))
		}
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatalf("%s: %v", s.Label(), err)
	}
	return out
}

// oracleMatrix draws one scenario of the frozen matrix. The draws span
// every topology family and mesh routing override, uniform and hot-spot
// traffic, all three switching modes, packet lengths 1–8, input
// buffers 1–3, inject rates 1–3, sink rates 1–2, bounded and unbounded
// source queues, Poisson and Bernoulli arrivals, and loads from near
// idle to past saturation.
func oracleMatrix(rng *sim.RNG) Scenario {
	type geo struct {
		topo  TopologyKind
		nodes []int
	}
	geos := []geo{
		{Ring, []int{6, 8, 12}},
		{Spidergon, []int{8, 12, 16}},
		{Mesh, []int{9, 12, 16}},
		{Torus, []int{9, 16}},
		{IrregularMesh, []int{10, 14}},
	}
	g := geos[rng.Intn(len(geos))]
	cfg := noc.DefaultConfig()
	cfg.PacketLen = 1 + rng.Intn(8)
	cfg.InBufCap = 1 + rng.Intn(3)
	cfg.InjectRate = 1 + rng.Intn(3)
	cfg.SinkRate = 1 + rng.Intn(2)
	cfg.OutBufCap = 1 + rng.Intn(4)
	switch rng.Intn(5) {
	case 0:
		cfg.Switching = noc.VirtualCutThrough
	case 1:
		cfg.Switching = noc.StoreAndForward
	}
	if cfg.Switching != noc.Wormhole && cfg.OutBufCap < cfg.PacketLen {
		cfg.OutBufCap = cfg.PacketLen + rng.Intn(2)
	}
	if rng.Bernoulli(0.2) {
		cfg.SourceQueueCap = 2 + rng.Intn(4)
	}
	flitRate := 0.02 + 0.9*rng.Float64() // flits/cycle/source
	s := NewScenario(g.topo, g.nodes[rng.Intn(len(g.nodes))], UniformTraffic, flitRate/float64(cfg.PacketLen))
	s.Config = cfg
	if s.Topo == Mesh || s.Topo == IrregularMesh {
		s.Routing = []string{"", "yx", "west-first", "table"}[rng.Intn(4)]
		if s.Topo == IrregularMesh && (s.Routing == "yx" || s.Routing == "west-first") {
			s.Routing = "table"
		}
	}
	if rng.Bernoulli(0.35) {
		s.Traffic = HotSpotTraffic
		s.HotSpots = []int{rng.Intn(s.Nodes)}
		if rng.Bernoulli(0.4) {
			if h := rng.Intn(s.Nodes); h != s.HotSpots[0] {
				s.HotSpots = append(s.HotSpots, h)
			}
		}
	}
	if rng.Bernoulli(0.3) {
		s.Process = traffic.Bernoulli
	}
	s.Warmup = uint64(30 + rng.Intn(100))
	s.Measure = uint64(200 + rng.Intn(300))
	s.Seed = rng.Uint64()
	return s
}

// oracleChainScenarios are the scripted per-cycle runs: each stresses
// one edge of the one-stage-per-cycle rule (several flits pushed into
// one output queue per cycle, deep input buffers, single-flit packets,
// store-and-forward departures).
func oracleChainScenarios() []struct {
	s       Scenario
	onEject bool
} {
	a := NewScenario(Spidergon, 16, UniformTraffic, 0.4/6)
	a.Config.InjectRate = 2
	a.Seed = 11

	b := NewScenario(Mesh, 16, HotSpotTraffic, 0.3/4)
	b.HotSpots = []int{5}
	b.Routing = "west-first"
	b.Config.PacketLen, b.Config.OutBufCap, b.Config.InBufCap = 4, 5, 3
	b.Config.Switching = noc.StoreAndForward
	b.Seed = 12

	c := NewScenario(Ring, 8, UniformTraffic, 0.9)
	c.Config.PacketLen, c.Config.OutBufCap, c.Config.InBufCap = 1, 2, 2
	c.Config.InjectRate, c.Config.SinkRate = 3, 2
	c.Seed = 13

	d := NewScenario(Torus, 16, UniformTraffic, 0.5/8)
	d.Config.PacketLen, d.Config.OutBufCap = 8, 8
	d.Config.Switching = noc.VirtualCutThrough
	d.Config.InjectRate = 2
	d.Seed = 14

	return []struct {
		s       Scenario
		onEject bool
	}{{a, true}, {b, false}, {c, true}, {d, false}}
}

// recordOracle rewrites the oracle file from the sweep reference engine.
// Draws whose run ejects nothing are skipped, so every recorded result
// carries finite statistics.
func recordOracle(t *testing.T) {
	t.Helper()
	var of oracleFile
	rng := sim.NewRNG(oracleMatrixSeed)
	for len(of.Digests) < oracleMatrixSize {
		s := oracleMatrix(rng)
		if err := s.Validate(); err != nil {
			continue
		}
		s.Engine = noc.EngineSweep
		r, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Label(), err)
		}
		if r.EjectedPackets == 0 {
			continue
		}
		js, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		of.Digests = append(of.Digests, oracleDigest{Scenario: js, SHA256: resultDigest(t, s)})
	}
	for _, c := range oracleChainScenarios() {
		js, err := json.Marshal(c.s)
		if err != nil {
			t.Fatal(err)
		}
		const cycles = 1000
		of.Chains = append(of.Chains, oracleChain{
			Scenario:    js,
			OnEject:     c.onEject,
			Cycles:      cycles,
			Checkpoints: stateChain(t, c.s, noc.EngineSweep, 0, c.onEject, cycles),
		})
	}
	data, err := json.MarshalIndent(of, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oraclePath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("kernel oracle: recorded %d digests and %d chains", len(of.Digests), len(of.Chains))
}
