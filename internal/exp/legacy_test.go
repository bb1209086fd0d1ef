package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gonoc/internal/core"
)

// The testdata/legacy-* files were recorded from legacyCampaign by the
// code that wrote an absent statistic as 0 (JSONL, SQLite) or as 0 plus
// a "nans" list (cache), before absent values became null. They are a
// frozen wire format: never re-record them. The campaign mixes grid
// cells whose replications all ejected packets (rate 0.05), cells with
// one empty replication (0.002) and cells with no packet at all (0).
func legacyCampaign() Campaign {
	return Campaign{
		Name:       "legacy",
		Topologies: []core.TopologyKind{core.Ring, core.Spidergon},
		Nodes:      []int{8},
		Traffics:   []TrafficSpec{{Kind: core.UniformTraffic}},
		FlitRates:  []float64{0, 0.002, 0.05},
		Reps:       3,
		Seed:       7,
		Warmup:     50,
		Measure:    200,
	}
}

// legacyZeroEjectionRuns counts legacyCampaign's replications that
// ejected no packet: all six at rate 0 and one per topology at 0.002.
const legacyZeroEjectionRuns = 8

// measuredSink forwards only what carries no absent statistic: runs
// that ejected packets, and summaries of cells where some replication
// measured latency.
type measuredSink struct{ inner Sink }

func (m measuredSink) Run(o Outcome) error {
	if o.Result.EjectedPackets == 0 {
		return nil
	}
	return m.inner.Run(o)
}

func (m measuredSink) Summary(a Aggregate) error {
	if !(a.Latency.Mean > 0) {
		return nil
	}
	return m.inner.Summary(a)
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

// sameResult compares results bit for bit, NaN included: %v prints
// each float in its shortest exact form.
func sameResult(a, b core.Result) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }

// Records of runs that ejected packets keep the legacy bytes; records
// of empty runs and summaries of unmeasured cells change exactly by
// writing null where the legacy stream wrote 0.
func TestLegacyJSONLRecords(t *testing.T) {
	legacy := readLines(t, "testdata/legacy-runs.jsonl")
	got := strings.Split(strings.TrimSuffix(string(runJSONL(t, Runner{Parallel: 2}, legacyCampaign())), "\n"), "\n")
	if len(got) != len(legacy) {
		t.Fatalf("%d records, legacy stream has %d", len(got), len(legacy))
	}
	nulled := strings.NewReplacer(
		`"latency":0,`, `"latency":null,`,
		`"p95_latency":0,`, `"p95_latency":null,`,
		`"hops":0,`, `"hops":null,`,
		`"energy_per_packet":0}`, `"energy_per_packet":null}`,
		`"latency":{"mean":0,`, `"latency":{"mean":null,`,
		`"p95_latency":{"mean":0,`, `"p95_latency":{"mean":null,`,
		`"hops":{"mean":0,`, `"hops":{"mean":null,`,
		`"energy_per_packet":{"mean":0,`, `"energy_per_packet":{"mean":null,`,
	)
	emptyRuns, emptyCells := 0, 0
	for i, want := range legacy {
		switch {
		case strings.Contains(want, `"ejected":0,`):
			emptyRuns++
			want = nulled.Replace(want)
		case strings.Contains(want, `"latency":{"mean":0,`):
			emptyCells++
			want = nulled.Replace(want)
		}
		if got[i] != want {
			t.Errorf("record %d:\n got %s\nwant %s", i, got[i], want)
		}
	}
	if emptyRuns != legacyZeroEjectionRuns || emptyCells != 2 {
		t.Fatalf("legacy stream has %d empty runs and %d unmeasured cells, want %d and 2", emptyRuns, emptyCells, legacyZeroEjectionRuns)
	}
}

// Cache lines of runs that ejected packets keep the legacy bytes, and
// a legacy cache file, "nans" lists included, reloads to the Results
// the current cache file reloads to.
func TestLegacyFileCache(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	runJSONL(t, Runner{Parallel: 2, Cache: cache}, legacyCampaign())
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	legacy := readLines(t, "testdata/legacy-cache.jsonl")
	got := readLines(t, filepath.Join(dir, cacheFile))
	if len(got) != len(legacy) {
		t.Fatalf("%d cache lines, legacy file has %d", len(got), len(legacy))
	}
	nans := 0
	for i, want := range legacy {
		if strings.Contains(want, `"nans":`) {
			nans++
			if strings.Contains(got[i], `"nans":`) || !strings.Contains(got[i], `"MeanLatency":null,`) {
				t.Errorf("line %d of an empty run: %s", i, got[i])
			}
			continue
		}
		if got[i] != want {
			t.Errorf("line %d:\n got %s\nwant %s", i, got[i], want)
		}
	}
	if nans != legacyZeroEjectionRuns {
		t.Fatalf("legacy cache has %d lines with a nans list, want %d", nans, legacyZeroEjectionRuns)
	}

	legacyDir := t.TempDir()
	raw, err := os.ReadFile("testdata/legacy-cache.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(legacyDir, cacheFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := OpenFileCache(legacyDir)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	cur, err := OpenFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	pts, err := legacyCampaign().Points()
	if err != nil {
		t.Fatal(err)
	}
	absent := 0
	for _, p := range pts {
		a, okA := old.Lookup(p.Scenario.CacheKey())
		b, okB := cur.Lookup(p.Scenario.CacheKey())
		if !okA || !okB {
			t.Fatalf("point %d missing (legacy %v, current %v)", p.Index, okA, okB)
		}
		if !sameResult(a, b) {
			t.Errorf("point %d: legacy line reloads to\n%+v\nwant\n%+v", p.Index, a, b)
		}
		if a.MeanLatency != a.MeanLatency {
			absent++
		}
	}
	if absent != legacyZeroEjectionRuns {
		t.Fatalf("%d reloaded results have an absent latency, want %d", absent, legacyZeroEjectionRuns)
	}
}

// SQLite rows of runs that ejected packets, and summaries of measured
// cells, keep the legacy bytes: the archive of just those rows is
// byte-identical to the legacy one.
func TestLegacySQLiteRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.db")
	sq := NewSQLiteSink(path)
	if _, err := (Runner{Parallel: 2}).Run(context.Background(), legacyCampaign(), measuredSink{sq}); err != nil {
		t.Fatal(err)
	}
	if err := sq.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/legacy-runs.db")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("archive of measured rows differs from the legacy archive")
	}
}

// A run that ejected no packet shows its statistics as absent in every
// sink: null in JSONL run and summary records, NULL in SQLite, and "-"
// in a figure table.
func TestAbsentStatisticsEverywhere(t *testing.T) {
	c := legacyCampaign()
	c.Topologies, c.FlitRates = []core.TopologyKind{core.Ring}, []float64{0}
	path := filepath.Join(t.TempDir(), "runs.db")
	sq := NewSQLiteSink(path)
	var buf bytes.Buffer
	aggs, err := (Runner{Parallel: 2}).Run(context.Background(), c, MultiSink{NewJSONLWriter(&buf), sq})
	if err != nil {
		t.Fatal(err)
	}
	if err := sq.Close(); err != nil {
		t.Fatal(err)
	}
	runs, summaries := splitRecords(t, buf.Bytes())
	for _, r := range runs {
		for _, k := range []string{"latency", "p95_latency", "hops", "energy_per_packet"} {
			if !strings.Contains(r, `"`+k+`":null`) {
				t.Errorf("run record lacks %q:null: %s", k, r)
			}
		}
	}
	if len(summaries) != 1 || !strings.Contains(summaries[0], `"latency":{"mean":null,"ci95":0}`) {
		t.Fatalf("summary of an unmeasured cell: %v", summaries)
	}
	text := curveTable("t", []string{c.Name}, aggs, true).Text()
	if row := strings.Fields(strings.Split(text, "\n")[3]); len(row) != 3 || row[1] != "-" {
		t.Errorf("table row of an unmeasured cell is %q:\n%s", row, text)
	}

	bin, err := exec.LookPath("sqlite3")
	if err != nil {
		t.Skip("sqlite3 CLI not available")
	}
	out, err := exec.Command(bin, path,
		"SELECT count(*) FROM runs WHERE latency IS NULL AND p95_latency IS NULL AND hops IS NULL AND energy_per_packet IS NULL;"+
			"SELECT count(*) FROM summaries WHERE latency IS NULL").CombinedOutput()
	if err != nil {
		t.Fatalf("sqlite3: %v\n%s", err, out)
	}
	if got := strings.Fields(string(out)); len(got) != 2 || got[0] != "3" || got[1] != "1" {
		t.Fatalf("NULL rows (runs, summaries) = %v, want [3 1]", got)
	}
}
