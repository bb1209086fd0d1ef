package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchStream renders a `go test -json` stream for PerfGate/knee with
// the given visits/cycle and ticked-frac values. The result line is
// split across two output events, as the -json encoder does, so every
// test also exercises the stream reassembly.
func benchStream(t *testing.T, visits, ticked string) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, out := range []string{
		"goos: linux\n",
		"BenchmarkPerfGate/knee-2         \t",
		"       1\t" + visits + " visits/cycle\t" + ticked + " ticked-frac\n",
		"PASS\n",
	} {
		if err := enc.Encode(testEvent{Action: "output", Output: out}); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// writeBaseline stores a baseline gating PerfGate/knee's visits/cycle
// (file-level 15% tolerance) and ticked-frac (own 5% tolerance).
func writeBaseline(t *testing.T, visits, ticked float64) string {
	t.Helper()
	base := Baseline{
		Note:      "test baseline",
		Tolerance: 0.15,
		Entries: []Entry{
			{Bench: "PerfGate/knee", Metric: "visits/cycle", Value: visits},
			{Bench: "PerfGate/knee", Metric: "ticked-frac", Value: ticked, Tolerance: 0.05},
		},
	}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func gate(t *testing.T, baseline, stream string, extra ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(append([]string{"-baseline", baseline}, extra...), strings.NewReader(stream), &out)
	return out.String(), err
}

func TestGatePassesWithinTolerance(t *testing.T) {
	base := writeBaseline(t, 200, 1)
	// +10% visits is inside the 15% file tolerance; ticked-frac is
	// unchanged.
	out, err := gate(t, base, benchStream(t, "220.0", "1.000"))
	if err != nil {
		t.Fatalf("run within tolerance failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "2 metric(s) within tolerance") {
		t.Fatalf("missing pass summary:\n%s", out)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	base := writeBaseline(t, 200, 1)
	for _, c := range []struct {
		name, visits, ticked, metric string
	}{
		// +20% visits breaks the 15% file tolerance.
		{"file-tolerance", "240.0", "1.000", "visits/cycle"},
		// +8% ticked-frac breaks its own 5% tolerance although it would
		// pass the file-level 15%.
		{"entry-tolerance", "200.0", "1.080", "ticked-frac"},
	} {
		out, err := gate(t, base, benchStream(t, c.visits, c.ticked))
		if err == nil {
			t.Fatalf("%s: regression passed the gate:\n%s", c.name, out)
		}
		if !strings.Contains(err.Error(), "1 metric(s) regressed") {
			t.Fatalf("%s: error %q, want one regressed metric", c.name, err)
		}
		var failLine string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "FAIL") {
				failLine = line
			}
		}
		if !strings.Contains(failLine, c.metric) {
			t.Fatalf("%s: FAIL row %q does not name %s:\n%s", c.name, failLine, c.metric, out)
		}
	}
}

// A gated metric the run no longer reports fails the gate: retiring a
// counter from the benchmark without retiring its baseline entry (or
// the reverse typo) must not pass silently.
func TestGateFailsOnMissingMetric(t *testing.T) {
	base := writeBaseline(t, 200, 1)
	var b strings.Builder
	enc := json.NewEncoder(&b)
	if err := enc.Encode(testEvent{Action: "output",
		Output: "BenchmarkPerfGate/knee-2 \t 1\t 200.0 visits/cycle\n"}); err != nil {
		t.Fatal(err)
	}
	out, err := gate(t, base, b.String())
	if err == nil {
		t.Fatalf("missing metric passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "missing") || !strings.Contains(out, "ticked-frac") {
		t.Fatalf("report does not flag the missing ticked-frac:\n%s", out)
	}
}

// -update rewrites the baseline values from the run, keeping the note,
// tolerances and entry order, and the updated file gates the same run
// clean.
func TestUpdateRoundTripsThroughGate(t *testing.T) {
	base := writeBaseline(t, 100, 0.5)
	stream := benchStream(t, "199.0", "0.9994")
	if _, err := gate(t, base, stream); err == nil {
		t.Fatal("stale baseline unexpectedly passed before -update")
	}
	if out, err := gate(t, base, stream, "-update"); err != nil {
		t.Fatalf("-update failed: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var got Baseline
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Note != "test baseline" || got.Tolerance != 0.15 || len(got.Entries) != 2 {
		t.Fatalf("-update lost baseline metadata: %+v", got)
	}
	if e := got.Entries[0]; e.Metric != "visits/cycle" || e.Value != 199 {
		t.Fatalf("entry 0 = %+v, want visits/cycle 199", e)
	}
	if e := got.Entries[1]; e.Metric != "ticked-frac" || e.Value != 0.9994 || e.Tolerance != 0.05 {
		t.Fatalf("entry 1 = %+v, want ticked-frac 0.9994 with its 5%% tolerance", e)
	}
	if out, err := gate(t, base, stream); err != nil {
		t.Fatalf("updated baseline fails its own run: %v\n%s", err, out)
	}
}

// -update must refuse a run that lacks a gated metric instead of
// writing a baseline the gate could never pass.
func TestUpdateRejectsMissingMetric(t *testing.T) {
	base := writeBaseline(t, 200, 1)
	before, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gate(t, base, "BenchmarkPerfGate/knee-2 1 200.0 visits/cycle\n", "-update"); err == nil {
		t.Fatal("-update accepted a run without ticked-frac")
	}
	after, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed -update still rewrote the baseline")
	}
}

// The wall-clock floor bites only for enforced labels on hosts with at
// least one core per shard.
func TestSpeedupFloor(t *testing.T) {
	slow := speedupRecord{Label: "ci-abc", NumCPU: 4, Shards: 4, Speedup: 0.9}
	var out bytes.Buffer
	if err := checkSpeedupMin(&out, slow, 1.05, "ci-"); err == nil {
		t.Fatal("speedup below the floor passed")
	}
	local := slow
	local.Label = "local"
	if err := checkSpeedupMin(&out, local, 1.05, "ci-"); err != nil {
		t.Fatalf("floor enforced on a non-ci label: %v", err)
	}
	small := slow
	small.NumCPU = 1
	if err := checkSpeedupMin(&out, small, 1.05, "ci-"); err != nil {
		t.Fatalf("floor enforced on a host with fewer cores than shards: %v", err)
	}
	fast := slow
	fast.Speedup = 1.8
	if err := checkSpeedupMin(&out, fast, 1.05, "ci-"); err != nil {
		t.Fatalf("speedup above the floor failed: %v", err)
	}
}
