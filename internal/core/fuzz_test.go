package core

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// FuzzUnmarshalScenario feeds arbitrary bytes to the -config scenario
// decoder. Nothing may panic or exhaust memory; a scenario the decoder
// accepts must survive a json.Marshal → UnmarshalScenario round trip
// unchanged and must build. Seeds: the empty object and the kernel
// oracle's 64 scenarios; testdata/fuzz holds the regression inputs
// (an oversized node count that once died out of memory).
//
//	go test ./internal/core -run '^$' -fuzz FuzzUnmarshalScenario -fuzztime 60s
func FuzzUnmarshalScenario(f *testing.F) {
	f.Add([]byte("{}"))
	raw, err := os.ReadFile(oraclePath)
	if err != nil {
		f.Fatal(err)
	}
	var of oracleFile
	if err := json.Unmarshal(raw, &of); err != nil {
		f.Fatal(err)
	}
	for _, d := range of.Digests {
		f.Add([]byte(d.Scenario))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalScenario(data)
		if err != nil {
			return
		}
		js, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshaling accepted scenario: %v", err)
		}
		back, err := UnmarshalScenario(js)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", js, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the scenario:\nfirst:  %+v\nsecond: %+v", s, back)
		}
		if _, _, err := s.Build(); err != nil {
			t.Fatalf("accepted scenario does not build: %v", err)
		}
	})
}
