package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"gonoc/internal/core"
)

// A lost shard file cannot silently shorten the merged output: merging
// shards 0 and 2 of 3 fails with a CoverageError naming the missing
// index range, not a plausible-looking short file.
func TestMergeDetectsMissingShard(t *testing.T) {
	c := testCampaign() // 12 points; shard i of 3 covers [4i, 4i+4)
	var shards [][]byte
	for i := 0; i < 3; i++ {
		shards = append(shards, runJSONL(t, Runner{Parallel: 2, Shard: Shard{Index: i, Count: 3}}, c))
	}
	_, err := MergeRuns(byteReaders([][]byte{shards[0], shards[2]}), io.Discard)
	var cov *CoverageError
	if !errors.As(err, &cov) {
		t.Fatalf("merge with a missing shard returned %v, want CoverageError", err)
	}
	if want := []IndexRange{{Lo: 4, Hi: 7}}; !reflect.DeepEqual(cov.Missing, want) {
		t.Fatalf("missing ranges %v, want %v", cov.Missing, want)
	}
	if len(cov.Duplicated) != 0 {
		t.Fatalf("unexpected duplicated ranges %v", cov.Duplicated)
	}
	if !strings.Contains(err.Error(), "missing run indexes 4-7") {
		t.Fatalf("error does not name the hole: %v", err)
	}
}

// Overlapping shard inputs (the same shard merged twice) are named in
// the same way instead of inflating the output.
func TestMergeDetectsOverlappingShards(t *testing.T) {
	c := testCampaign()
	var shards [][]byte
	for i := 0; i < 3; i++ {
		shards = append(shards, runJSONL(t, Runner{Parallel: 2, Shard: Shard{Index: i, Count: 3}}, c))
	}
	_, err := MergeRuns(byteReaders([][]byte{shards[0], shards[1], shards[1], shards[2]}), io.Discard)
	var cov *CoverageError
	if !errors.As(err, &cov) {
		t.Fatalf("merge with a doubled shard returned %v, want CoverageError", err)
	}
	if want := []IndexRange{{Lo: 4, Hi: 7}}; !reflect.DeepEqual(cov.Duplicated, want) {
		t.Fatalf("duplicated ranges %v, want %v", cov.Duplicated, want)
	}
	if !strings.Contains(err.Error(), "overlapping run indexes 4-7") {
		t.Fatalf("error does not name the overlap: %v", err)
	}
}

// A corrupt run index is reported from the indexes present, not by
// walking the range they span: a huge one names the range below it as
// missing at once, and a negative one is rejected.
func TestMergeCorruptIndex(t *testing.T) {
	huge := strings.Replace(emptyRunNull, `"index":0`, `"index":1099511627776`, 1)
	_, err := MergeRuns(byteReaders([][]byte{[]byte(emptyRunNull + huge)}), io.Discard)
	var cov *CoverageError
	if !errors.As(err, &cov) {
		t.Fatalf("merge with a huge index returned %v, want CoverageError", err)
	}
	if want := []IndexRange{{Lo: 1, Hi: 1<<40 - 1}}; !reflect.DeepEqual(cov.Missing, want) || cov.Duplicated != nil {
		t.Fatalf("coverage error %+v, want missing %v", cov, want)
	}
	negative := strings.Replace(emptyRunNull, `"index":0`, `"index":-3`, 1)
	if _, err := MergeRuns(byteReaders([][]byte{[]byte(emptyRunNull + negative)}), io.Discard); err == nil || !strings.Contains(err.Error(), "negative run index -3") {
		t.Fatalf("merge with a negative index returned %v", err)
	}
}

var indexField = regexp.MustCompile(`"index":\d+,`)

// Streams written before the index field existed (legacy) still merge:
// with nothing to validate against, coverage checking is skipped — but
// mixing legacy and indexed records is rejected, because a partial
// check would claim more than it proves.
func TestMergeLegacyAndMixedStreams(t *testing.T) {
	c := testCampaign()
	var shards, legacy [][]byte
	for i := 0; i < 2; i++ {
		s := runJSONL(t, Runner{Parallel: 2, Shard: Shard{Index: i, Count: 2}}, c)
		shards = append(shards, s)
		legacy = append(legacy, indexField.ReplaceAll(s, nil))
	}
	aggs, err := MergeRuns(byteReaders(legacy), io.Discard)
	if err != nil {
		t.Fatalf("all-legacy merge failed: %v", err)
	}
	if len(aggs) != 4 {
		t.Fatalf("legacy merge produced %d aggregates, want 4", len(aggs))
	}
	_, err = MergeRuns(byteReaders([][]byte{legacy[0], shards[1]}), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "without index") {
		t.Fatalf("mixed legacy/indexed merge returned %v", err)
	}
}

// Concurrent appends from several cache handles (the multi-process
// sharding pattern) are crash-safe: each record is one O_APPEND write,
// so records never interleave and a reopened cache sees every one.
func TestFileCacheConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	const handles, perHandle = 4, 50
	var wg sync.WaitGroup
	for h := 0; h < handles; h++ {
		cache, err := OpenFileCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		wg.Add(1)
		go func(h int, cache *FileCache) {
			defer wg.Done()
			for i := 0; i < perHandle; i++ {
				key := fmt.Sprintf("key-%d-%d", h, i)
				if err := cache.Store(key, core.Result{Throughput: float64(h*perHandle + i)}); err != nil {
					t.Errorf("store %s: %v", key, err)
				}
			}
		}(h, cache)
	}
	wg.Wait()

	// Every line of the shared file must be a whole record.
	data, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != handles*perHandle {
		t.Fatalf("%d lines on disk, want %d", len(lines), handles*perHandle)
	}
	for i, line := range lines {
		if !json.Valid(line) {
			t.Fatalf("line %d is torn: %q", i, line)
		}
	}

	reopened, err := OpenFileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != handles*perHandle {
		t.Fatalf("reopened cache has %d entries, want %d", reopened.Len(), handles*perHandle)
	}
	for h := 0; h < handles; h++ {
		for i := 0; i < perHandle; i++ {
			got, ok := reopened.Lookup(fmt.Sprintf("key-%d-%d", h, i))
			if !ok || got.Throughput != float64(h*perHandle+i) {
				t.Fatalf("entry %d-%d lost or mangled: %+v ok=%v", h, i, got, ok)
			}
		}
	}
}

// cancelAfter cancels a context after n delivered run records — the
// SIGINT-mid-campaign shape.
type cancelAfter struct {
	inner  Sink
	n      int
	cancel context.CancelFunc
	seen   int
}

func (c *cancelAfter) Run(o Outcome) error {
	if err := c.inner.Run(o); err != nil {
		return err
	}
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
	return nil
}

func (c *cancelAfter) Summary(a Aggregate) error { return c.inner.Summary(a) }

// A campaign cancelled mid-run leaves no torn sink record: every JSONL
// line already emitted parses whole, and the SQLite sink closed after
// the cancellation is a structurally valid database of the partial
// results — the guarantee behind nocsweep's graceful SIGINT path.
func TestRunCancelledLeavesCleanSinks(t *testing.T) {
	c := testCampaign()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var jsonl bytes.Buffer
	dbPath := filepath.Join(t.TempDir(), "partial.sqlite")
	sq := NewSQLiteSink(dbPath)
	sink := &cancelAfter{inner: MultiSink{NewJSONLWriter(&jsonl), sq}, n: 3, cancel: cancel}

	_, err := Runner{Parallel: 2}.Run(ctx, c, sink)
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if err := sq.Close(); err != nil {
		t.Fatalf("closing the SQLite sink after cancellation: %v", err)
	}

	if jsonl.Len() == 0 {
		t.Fatal("no partial results were flushed")
	}
	if !bytes.HasSuffix(jsonl.Bytes(), []byte("\n")) {
		t.Fatal("JSONL stream ends mid-record")
	}
	lines := bytes.Split(bytes.TrimSuffix(jsonl.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("only %d records before cancellation, want >= 3", len(lines))
	}
	for i, line := range lines {
		var rec runRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Kind != "run" {
			t.Fatalf("line %d is torn or foreign after cancel: %q (%v)", i, line, err)
		}
	}

	db, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatalf("SQLite file missing after cancelled run: %v", err)
	}
	if !bytes.HasPrefix(db, []byte("SQLite format 3\x00")) {
		t.Fatal("SQLite file has a torn header")
	}
	if bin, err := exec.LookPath("sqlite3"); err == nil {
		out, err := exec.Command(bin, dbPath, "PRAGMA integrity_check;").CombinedOutput()
		if err != nil || strings.TrimSpace(string(out)) != "ok" {
			t.Fatalf("integrity_check after cancellation: %v %q", err, out)
		}
	}
}
