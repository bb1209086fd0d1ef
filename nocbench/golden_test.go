package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"gonoc/internal/core"
)

func testConfig(t *testing.T) config {
	return config{seconds: 1, outDir: t.TempDir(), workers: runtime.NumCPU()}
}

// reduced returns a workload's grid at small sizes and short runs, for
// tests: sizes up to 16 nodes and a few hundred cycles per run. It has
// no golden digests.
func reduced(t *testing.T, name string, seed uint64) *workload {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	w.golden = nil
	var cs = w.campaigns[:0]
	for _, c := range w.campaigns {
		c.Nodes = slices.DeleteFunc(slices.Clone(c.Nodes), func(n int) bool { return n > 16 })
		if len(c.Nodes) > 0 {
			c.Warmup, c.Measure = 100, 600
			cs = append(cs, c)
		}
	}
	w.campaigns = cs
	if len(w.lone) > 0 {
		w.lone = []core.Scenario{w.lone[0], w.lone[len(w.lone)-1]}
	}
	for i := range w.lone {
		w.lone[i].Warmup, w.lone[i].Measure = 200, 1000
	}
	return w
}

// TestDigestsIndependentOfWorkers runs every reduced workload with one
// campaign worker and with one per CPU (for lone-step-auto: with
// GOMAXPROCS 1, where auto width collapses to the serial engine, and
// with every CPU) and requires identical run records.
func TestDigestsIndependentOfWorkers(t *testing.T) {
	for _, name := range workloadNames {
		w := reduced(t, name, defaultSeed)
		cfg := testConfig(t)
		cfg.workers = 1
		prev := runtime.GOMAXPROCS(1)
		one, err := iterate(cfg, w, nil, 0)
		runtime.GOMAXPROCS(prev)
		if err != nil || one.err != nil {
			t.Fatalf("%s: %v %v", name, err, one.err)
		}
		cfg.workers = runtime.NumCPU()
		all, err := iterate(cfg, w, nil, 0)
		if err != nil || all.err != nil {
			t.Fatalf("%s: %v %v", name, err, all.err)
		}
		if len(one.records) == 0 || one.digest != all.digest || mismatches(one.records, all.records) != 0 {
			t.Errorf("%s: %d runs at 1 worker, %d at %d workers: %d differ",
				name, len(one.records), len(all.records), cfg.workers, mismatches(one.records, all.records))
		}
	}
}

// TestHeldOutSeed checks that the held-out seed changes every
// workload's run records and leaves the reported metric names, and
// their units, exactly those BENCHMARK.json lists.
func TestHeldOutSeed(t *testing.T) {
	spec := benchmarkSpec(t)
	for _, name := range workloadNames {
		if name == "lone-step-auto" && runtime.NumCPU() < 2 {
			t.Log("lone-step-auto needs two CPUs to shard; skipped")
			continue
		}
		var digests []string
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			for _, traced := range []bool{false, true} {
				w := reduced(t, name, seed)
				cfg := testConfig(t)
				cfg.seed, cfg.trace = seed, traced
				res, err := bench(cfg, w, manifest(cfg, w), io.Discard)
				if err != nil || !res.Correct || res.Failed != 0 {
					t.Fatalf("%s seed %d trace %v: %v %+v", name, seed, traced, err, res)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if got := units(res.Metrics); !maps(got, want) {
					t.Errorf("%s seed %d trace %v: metrics %v, BENCHMARK.json lists %v", name, seed, traced, got, want)
				}
			}
			it, err := iterate(testConfig(t), reduced(t, name, seed), nil, 0)
			if err != nil || it.err != nil {
				t.Fatalf("%s seed %d: %v %v", name, seed, err, it.err)
			}
			digests = append(digests, it.digest)
		}
		if digests[0] == digests[1] {
			t.Errorf("%s: seeds %d and %d give the same run records", name, defaultSeed, heldOutSeed)
		}
	}
}

// TestGoldenCurrent runs every full workload once at the default and
// the held-out seed and compares with golden.json.
func TestGoldenCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full workloads")
	}
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			e, ok := g[name][strconv.FormatUint(seed, 10)]
			if !ok {
				t.Fatalf("golden.json has no %s at seed %d", name, seed)
			}
			w, err := newWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			it, err := iterate(testConfig(t), w, nil, 0)
			if err != nil || it.err != nil {
				t.Fatalf("%s seed %d: %v %v", name, seed, err, it.err)
			}
			if it.digest != e.Digest || len(it.records) != e.Runs || mismatches(it.records, e.Records) != 0 {
				t.Errorf("%s seed %d: %d runs, %d differ from golden.json (go run . --write-golden golden.json re-records it)",
					name, seed, len(it.records), mismatches(it.records, e.Records))
			}
		}
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func benchmarkSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	return s
}

func units(m map[string]metric) map[string]string {
	out := map[string]string{}
	for k, v := range m {
		out[k] = v.Unit
	}
	return out
}

func maps(got map[string]string, want []specMetric) bool {
	if len(got) != len(want) {
		return false
	}
	for _, m := range want {
		if got[m.Name] != m.Unit {
			return false
		}
	}
	return true
}
