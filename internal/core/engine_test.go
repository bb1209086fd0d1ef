package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/sim"
)

// runGolden executes s under the activity-driven engine (with its idle
// fast-forward) with the packet pool enabled and disabled, fails the
// test unless both Results are bit-identical — struct equality and
// serialized JSON both — and holds the WriteResultJSON digest to the
// one recorded for name in the kernel oracle. Pooling is documented as
// result-neutral and is compared live; the recorded digests freeze the
// results every engine must reproduce.
func runGolden(t *testing.T, name string, s Scenario) Result {
	t.Helper()
	s.NoPool = false
	got, err := Run(s)
	if err != nil {
		t.Fatalf("%s [pooled]: %v", s.Label(), err)
	}
	s.NoPool = true
	want, err := Run(s)
	if err != nil {
		t.Fatalf("%s [no-pool]: %v", s.Label(), err)
	}
	// The pooling choice itself is the only permitted difference.
	want.Scenario.NoPool = got.Scenario.NoPool
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: no-pool disagrees with pooled:\npooled:  %+v\nno-pool: %+v", s.Label(), got, want)
	}
	var gp, gn bytes.Buffer
	if err := WriteResultJSON(&gp, got); err != nil {
		t.Fatal(err)
	}
	if err := WriteResultJSON(&gn, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gp.Bytes(), gn.Bytes()) {
		t.Fatalf("%s: serialized results differ with pooling off", s.Label())
	}
	sum := sha256.Sum256(gp.Bytes())
	if d, rec := hex.EncodeToString(sum[:]), goldenDigest(t, name); d != rec {
		t.Fatalf("%s (%s): result digest %s, recorded %s", name, s.Label(), d, rec)
	}
	return got
}

// namedScenario is one golden scenario with its oracle key.
type namedScenario struct {
	name string
	s    Scenario
}

// goldenMatrix is the golden matrix: the paper's three topologies at a
// load below the knee, at the knee, and past saturation, under both
// wormhole and virtual cut-through, plus a hot-spot run that exercises
// the ejection-port bottleneck paths. Names are the subtest names.
func goldenMatrix() []namedScenario {
	loads := []struct {
		name   string
		lambda float64
	}{
		{"low", 0.01},       // ~0.06 flits/cycle/source: mostly idle
		{"knee", 0.05},      // near the throughput flattening
		{"saturated", 0.15}, // well past saturation
	}
	var out []namedScenario
	for _, topo := range []TopologyKind{Ring, Spidergon, Mesh} {
		for _, ld := range loads {
			for _, sw := range []noc.Switching{noc.Wormhole, noc.VirtualCutThrough} {
				s := NewScenario(topo, 16, UniformTraffic, ld.lambda)
				s.Warmup, s.Measure = 200, 1500
				s.Config.Switching = sw
				if sw != noc.Wormhole {
					s.Config.OutBufCap = s.Config.PacketLen
				}
				out = append(out, namedScenario{string(topo) + "/" + ld.name + "/" + sw.String(), s})
			}
		}
	}
	hs := NewScenario(Spidergon, 16, HotSpotTraffic, 0.03)
	hs.HotSpots = []int{5}
	hs.Warmup, hs.Measure = 200, 1500
	return append(out, namedScenario{"spidergon/hotspot", hs})
}

// goldenRandom draws the golden random scenarios over the full
// scenario space (topology family, node count, traffic, switching,
// interface rates, arrival process).
func goldenRandom() []namedScenario {
	rng := sim.NewRNG(2026)
	topos := []TopologyKind{Ring, Spidergon, Mesh, Torus}
	var out []namedScenario
	for trial := 0; trial < 10; trial++ {
		s := NewScenario(topos[rng.Intn(len(topos))], 8+4*rng.Intn(3), UniformTraffic, 0.005+0.08*rng.Float64())
		if s.Topo == Spidergon && s.Nodes%4 != 0 {
			s.Nodes = 16
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
		s.Measure = 500 + rng.Uint64()%1000
		s.Seed = rng.Uint64()
		out = append(out, namedScenario{fmt.Sprintf("random/%d", trial), s})
	}
	return out
}

// goldenScenarios lists every scenario whose digest the oracle records
// under its name.
func goldenScenarios() []namedScenario { return append(goldenMatrix(), goldenRandom()...) }

// Run output — every field of Result, hence every figure the exp stack
// derives from it — must match the recorded digests across the golden
// matrix.
func TestGoldenCrossEngineMatrix(t *testing.T) {
	for _, g := range goldenMatrix() {
		t.Run(g.name, func(t *testing.T) {
			r := runGolden(t, g.name, g.s)
			if !strings.Contains(g.name, "/low/") && r.EjectedPackets == 0 {
				t.Fatal("degenerate run: nothing ejected")
			}
		})
	}
}

// Fuzz-style scenario equivalence: random draws over the full scenario
// space must keep reproducing their recorded results.
func TestGoldenCrossEngineRandomScenarios(t *testing.T) {
	for _, g := range goldenRandom() {
		runGolden(t, g.name, g.s)
	}
}

// The fast-forward must actually fire at low load (the whole point of
// the refactor) and never at saturation.
func TestIdleFastForwardEngages(t *testing.T) {
	s := NewScenario(Spidergon, 16, UniformTraffic, 0.0005)
	s.Warmup, s.Measure = 0, 20000
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	_, perf, err := RunPerf(s)
	if err != nil {
		t.Fatal(err)
	}
	if perf.SkippedCycles < 10000 {
		t.Fatalf("expected most of the %d cycles skipped at near-zero load, got %d", s.Measure, perf.SkippedCycles)
	}

	sat := NewScenario(Spidergon, 16, UniformTraffic, 0.15)
	sat.Warmup, sat.Measure = 100, 2000
	_, perf, err = RunPerf(sat)
	if err != nil {
		t.Fatal(err)
	}
	// Only the startup gap before the first arrival may be skipped.
	if perf.SkippedCycles > 10 {
		t.Fatalf("fast-forward fired %d cycles at saturation", perf.SkippedCycles)
	}
}
