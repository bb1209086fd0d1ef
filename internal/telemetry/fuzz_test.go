package telemetry

import (
	"bytes"
	"os"
	"slices"
	"testing"
)

// reencode appends c's rows to a Recorder of c's spec.
func reencode(t *testing.T, c *Capture) []byte {
	t.Helper()
	r, err := NewRecorder(c.Spec())
	if err != nil {
		t.Fatalf("decoded spec %+v has no recorder: %v", c.Spec(), err)
	}
	var buf bytes.Buffer
	if err := r.Start(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Samples(); i++ {
		r.Append(c.Row(i))
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTelemetryDecode feeds arbitrary bytes to Decode. Nothing may
// panic. A capture Decode accepts must re-encode to a stream that
// decodes to the same spec and samples and re-encodes to itself (the
// accepted input need not be canonical: overlong varints or split zero
// runs decode fine). The re-encode check runs for specs whose Recorder
// ring stays under 1 Mi values: a Recorder is sized by its spec, and a
// header alone may declare a large one. Seeds: a recorded ring-8
// capture (testdata/ring8.tsd: 127 samples, one chunk), its truncation
// and the bare magic.
//
//	go test ./internal/telemetry -run '^$' -fuzz FuzzTelemetryDecode -fuzztime 60s
func FuzzTelemetryDecode(f *testing.F) {
	raw, err := os.ReadFile("testdata/ring8.tsd")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if spec := c.Spec(); spec.Series()*spec.ChunkLen > 1<<20 {
			return
		}
		re := reencode(t, c)
		c2, err := Decode(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-encoded capture does not decode: %v", err)
		}
		if c2.Spec() != c.Spec() || !slices.Equal(c2.data, c.data) {
			t.Fatalf("re-encoded capture decodes to other samples")
		}
		if !bytes.Equal(reencode(t, c2), re) {
			t.Fatal("canonical re-encoding is not stable")
		}
	})
}
