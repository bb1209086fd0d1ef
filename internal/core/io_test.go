package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	s := NewScenario(Mesh, 24, HotSpotTraffic, 0.004)
	s.HotSpots = []int{0, 13}
	s.Routing = "west-first"
	s.Cols, s.Rows = 4, 6
	data, err := MarshalScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Topo != s.Topo || got.Nodes != s.Nodes || got.Lambda != s.Lambda ||
		got.Routing != s.Routing || len(got.HotSpots) != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

func TestUnmarshalScenarioAppliesDefaults(t *testing.T) {
	// A file specifying only the topology inherits everything else.
	got, err := UnmarshalScenario([]byte(`{"Topo":"ring","Nodes":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.PacketLen != 6 || got.Warmup == 0 || got.Measure == 0 {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if got.Topo != Ring || got.Nodes != 8 {
		t.Fatal("explicit fields lost")
	}
}

func TestUnmarshalScenarioValidates(t *testing.T) {
	if _, err := UnmarshalScenario([]byte(`{"Topo":"spidergon","Nodes":9}`)); err == nil {
		t.Fatal("odd spidergon passed validation")
	}
	if _, err := UnmarshalScenario([]byte(`{nonsense`)); err == nil {
		t.Fatal("bad json accepted")
	}
}

func TestReadScenariosSingleAndList(t *testing.T) {
	one, err := ReadScenarios([]byte(`  {"Topo":"ring","Nodes":8}`))
	if err != nil || len(one) != 1 {
		t.Fatalf("single: %v %v", one, err)
	}
	many, err := ReadScenarios([]byte(`[
		{"Topo":"ring","Nodes":8},
		{"Topo":"mesh","Nodes":16}
	]`))
	if err != nil || len(many) != 2 {
		t.Fatalf("list: %v %v", many, err)
	}
	if many[1].Topo != Mesh {
		t.Fatal("list order lost")
	}
	if _, err := ReadScenarios([]byte(`[{"Topo":"spidergon","Nodes":9}]`)); err == nil {
		t.Fatal("invalid element accepted")
	}
	if _, err := ReadScenarios([]byte(`[broken`)); err == nil {
		t.Fatal("broken list accepted")
	}
}

func TestWriteResultJSON(t *testing.T) {
	s := NewScenario(Ring, 8, UniformTraffic, 0.005)
	s.Warmup, s.Measure = 100, 1500
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Throughput", "MeanLatency", "EnergyPerPacket", "TopologyName"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("result json missing %q:\n%s", key, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "ring-8") {
		t.Fatal("topology name missing")
	}
}

func TestWriteResultJSONNonFinite(t *testing.T) {
	finite := Result{TopologyName: "ring-8", Throughput: 0.25, MeanLatency: 31.5, P95Latency: 1e-9, EjectedPackets: 3}
	// A run that ejects nothing has no latency or hop samples.
	s := NewScenario(Ring, 8, UniformTraffic, 0.0001)
	s.Warmup, s.Measure = 0, 5
	empty, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if empty.EjectedPackets != 0 {
		t.Fatalf("degenerate run ejected %d packets", empty.EjectedPackets)
	}
	cases := []struct {
		name     string
		r        Result
		nulls    []string // fields that must encode as null
		verbatim bool     // bytes must equal the plain encoding
	}{
		{"finite", finite, nil, true},
		{"nan", Result{MeanLatency: math.NaN(), Throughput: 0.5}, []string{"MeanLatency"}, false},
		{"inf", Result{P50Latency: math.Inf(1), MeanHops: math.Inf(-1)}, []string{"P50Latency", "MeanHops"}, false},
		{"no-ejections", empty, []string{"MeanLatency", "P50Latency", "P95Latency", "MeanNetLatency", "MeanHops", "EnergyPerPacket", "TotalEnergy"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteResultJSON(&buf, c.r); err != nil {
				t.Fatal(err)
			}
			if c.verbatim {
				var want bytes.Buffer
				enc := json.NewEncoder(&want)
				enc.SetIndent("", "  ")
				type plain Result // no MarshalJSON: the default encoding
				if err := enc.Encode(plain(c.r)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want.Bytes()) {
					t.Fatalf("finite result changed bytes:\n%s\nwant:\n%s", buf.String(), want.String())
				}
			}
			var decoded map[string]any
			if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
				t.Fatal(err)
			}
			for _, k := range c.nulls {
				if v, ok := decoded[k]; !ok || v != nil {
					t.Errorf("%s = %v (present %v), want null", k, v, ok)
				}
			}
			for k, v := range decoded {
				if v == nil && !slices.Contains(c.nulls, k) {
					t.Errorf("%s unexpectedly null", k)
				}
			}
			// Field order is the struct's, as in the plain encoding.
			if !strings.HasPrefix(buf.String(), "{\n  \"Scenario\": {") {
				t.Fatalf("field order changed:\n%.80s", buf.String())
			}
		})
	}
}

// legacyResults runs the two scenarios of testdata/legacy-result.json:
// ring-8 uniform at λ = 0.01 (measured) and at λ = 0 (no ejection).
func legacyResults(t *testing.T) []Result {
	t.Helper()
	var out []Result
	for _, rate := range []float64{0.01, 0} {
		s := NewScenario(Ring, 8, UniformTraffic, rate)
		s.Warmup, s.Measure = 50, 200
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	if out[0].EjectedPackets == 0 || out[1].EjectedPackets != 0 {
		t.Fatalf("ejections %d and %d, want some and none", out[0].EjectedPackets, out[1].EjectedPackets)
	}
	return out
}

// WriteResultJSON keeps the bytes recorded before Result owned its JSON
// form, measured and zero-ejection runs alike. The fixture is a frozen
// format: never re-record it.
func TestWriteResultJSONLegacyBytes(t *testing.T) {
	var buf bytes.Buffer
	for _, r := range legacyResults(t) {
		if err := WriteResultJSON(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/legacy-result.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteResultJSON bytes changed:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// A Result survives a JSON round trip bit for bit, absent statistics
// included, and a record that carries zeros in place of the absent
// values decodes to the same Result as one that carries nulls.
func TestResultJSONRoundTrip(t *testing.T) {
	results := legacyResults(t)
	zeroed := results[1]
	zeroed.MeanLatency, zeroed.P50Latency, zeroed.P95Latency, zeroed.MeanNetLatency = 0, 0, 0, 0
	zeroed.MeanHops, zeroed.EnergyPerPacket, zeroed.TotalEnergy = 0, 0, 0
	for i, r := range append(results, zeroed) {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Result
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		want := results[min(i, 1)]
		if fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", want) {
			t.Errorf("result %d decodes to\n%+v\nwant\n%+v", i, back, want)
		}
	}
}

func TestFindSaturationHotspot(t *testing.T) {
	// The measured hot-spot saturation must land near the analytic
	// λ_sat = 1/(7·6) packets/cycle for an 8-node, 1-sink scenario.
	base := NewScenario(Spidergon, 8, HotSpotTraffic, 0)
	base.HotSpots = []int{0}
	base.Warmup, base.Measure = 400, 5000
	got, err := FindSaturation(base, 0.1, 0.08, 8)
	if err != nil {
		t.Fatal(err)
	}
	analytic := 1.0 / 42.0
	if got < 0.5*analytic || got > 1.4*analytic {
		t.Fatalf("measured saturation %v far from analytic %v", got, analytic)
	}
}

func TestFindSaturationCapReturnsHi(t *testing.T) {
	// A trivially light cap sustains: the search returns the cap.
	base := NewScenario(Spidergon, 8, UniformTraffic, 0)
	base.Warmup, base.Measure = 200, 2000
	got, err := FindSaturation(base, 0.001, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.001 {
		t.Fatalf("cap not returned: %v", got)
	}
}

func TestFindSaturationValidation(t *testing.T) {
	base := NewScenario(Spidergon, 8, UniformTraffic, 0)
	if _, err := FindSaturation(base, 0, 0.1, 4); err == nil {
		t.Fatal("zero hi accepted")
	}
	if _, err := FindSaturation(base, 0.1, 0, 4); err == nil {
		t.Fatal("zero tol accepted")
	}
	if _, err := FindSaturation(base, 0.1, 0.1, 0); err == nil {
		t.Fatal("zero iters accepted")
	}
	bad := NewScenario(Spidergon, 9, UniformTraffic, 0)
	if _, err := FindSaturation(bad, 0.1, 0.1, 2); err == nil {
		t.Fatal("invalid base scenario accepted")
	}
}

func TestFirstNonSpace(t *testing.T) {
	if firstNonSpace([]byte("   [1]")) != '[' {
		t.Fatal("bracket")
	}
	if firstNonSpace([]byte("\n\t {")) != '{' {
		t.Fatal("brace")
	}
	if firstNonSpace([]byte("  ")) != 0 {
		t.Fatal("empty")
	}
}
