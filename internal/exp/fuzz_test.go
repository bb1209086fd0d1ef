package exp

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gonoc/internal/core"
)

// emptyRunZero and emptyRunNull are one zero-ejection run record as the
// JSONL sink wrote it before absent statistics were null, and as it
// writes it now.
const (
	emptyRunZero = `{"kind":"run","index":0,"campaign":"legacy","topo":"ring","nodes":8,"traffic":"uniform","flit_rate":0,"rep":0,"seed":2399390100814473381,"throughput":0,"accepted":0,"latency":0,"p95_latency":0,"hops":0,"injected":0,"ejected":0,"energy_per_packet":0}` + "\n"
	emptyRunNull = `{"kind":"run","index":0,"campaign":"legacy","topo":"ring","nodes":8,"traffic":"uniform","flit_rate":0,"rep":0,"seed":2399390100814473381,"throughput":0,"accepted":0,"latency":null,"p95_latency":null,"hops":null,"injected":0,"ejected":0,"energy_per_packet":null}` + "\n"
)

// FuzzStreamMerger feeds two arbitrary shard streams to the merge
// reader. Nothing may panic, and an accepted merge is a fixed point:
// merging its output again reproduces that output byte for byte (run
// records are copied verbatim; summaries are dropped on input and
// recomputed). Seeds: the legacy campaign stream split in two, and a
// zero-ejection run record written with 0 and with null.
//
//	go test ./internal/exp -run '^$' -fuzz FuzzStreamMerger -fuzztime 60s
func FuzzStreamMerger(f *testing.F) {
	legacy, err := os.ReadFile("testdata/legacy-runs.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	half := bytes.IndexByte(legacy[len(legacy)/2:], '\n') + len(legacy)/2 + 1
	f.Add(legacy[:half], legacy[half:])
	f.Add([]byte(emptyRunZero), []byte(nil))
	f.Add([]byte(emptyRunNull), []byte(strings.Replace(emptyRunZero, `"index":0`, `"index":1`, 1)))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var out bytes.Buffer
		if _, err := MergeRuns([]io.Reader{bytes.NewReader(a), bytes.NewReader(b)}, &out); err != nil {
			return
		}
		var again bytes.Buffer
		if _, err := MergeRuns([]io.Reader{bytes.NewReader(out.Bytes())}, &again); err != nil {
			t.Fatalf("merged output does not merge again: %v\n%s", err, out.Bytes())
		}
		if !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("re-merge changed the stream:\n%s\nwant:\n%s", again.Bytes(), out.Bytes())
		}
	})
}

// FuzzFileCacheReplay opens a FileCache over arbitrary file bytes.
// Nothing may panic. Every entry the replay accepts must re-encode to
// the same Result; a result stored after the replay must survive the
// next open beside the replayed entries, whatever tail the file had;
// and compaction must keep exactly what the replay loads. Seeds: the
// legacy cache file (lines with a "nans" list), and its tail torn.
//
//	go test ./internal/exp -run '^$' -fuzz FuzzFileCacheReplay -fuzztime 60s
func FuzzFileCacheReplay(f *testing.F) {
	legacy, err := os.ReadFile("testdata/legacy-cache.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add(legacy[:len(legacy)-40])
	f.Add([]byte(`{"key":"truncat`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, cacheFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenFileCache(dir)
		if err != nil {
			return
		}
		loaded := maps.Clone(c.mem.m)
		for k, r := range loaded {
			b, err := json.Marshal(cacheEntry{Key: k, Result: r})
			if err != nil {
				t.Fatalf("entry %q does not re-encode: %v", k, err)
			}
			var e cacheEntry
			if err := json.Unmarshal(b, &e); err != nil || !sameResult(e.Result, r) {
				t.Fatalf("entry %q re-decodes to %+v (%v), want %+v", k, e.Result, err, r)
			}
		}
		const probe = "fuzz-probe"
		want := len(loaded)
		if _, dup := loaded[probe]; !dup {
			want++
			if err := c.Store(probe, core.Result{Throughput: 1, EjectedPackets: 1}); err != nil {
				t.Fatal(err)
			}
		}
		check := func(stage string) {
			t.Helper()
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if c, err = OpenFileCache(dir); err != nil {
				t.Fatalf("%s: reopen: %v", stage, err)
			}
			if c.Len() != want {
				t.Fatalf("%s: %d entries, want %d", stage, c.Len(), want)
			}
			for k, r := range loaded {
				if got, ok := c.Lookup(k); !ok || !sameResult(got, r) {
					t.Fatalf("%s: entry %q lost or changed", stage, k)
				}
			}
		}
		check("after store")
		if _, err := c.Compact(); err != nil {
			t.Fatal(err)
		}
		check("after compaction")
		c.Close()
	})
}
