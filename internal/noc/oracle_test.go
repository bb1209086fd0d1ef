package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"testing"
)

// The fingerprint chains freeze the per-cycle behaviour of the
// cycle-by-cycle tests as data: testdata/fingerprint-chains.json maps
// each test run to a hash chain over its stateFingerprint after every
// cycle (checkpointed every chainEvery cycles) and to its final
// fingerprint after draining. The values were recorded from the
// retired scan-everything sweep engine and are reproduced by the phase
// kernel at every shard count.
//
// Re-record only for an intended result change, and log it in
// CHANGES.md:
//
//	go test ./internal/noc -run 'CycleByCycle|Randomized|MultiWord' -update-oracle

var updateOracle = flag.Bool("update-oracle", false, "re-record testdata/fingerprint-chains.json")

const (
	chainsPath = "testdata/fingerprint-chains.json"
	chainEvery = 100
)

// fingerprintChain is one recorded run.
type fingerprintChain struct {
	Checkpoints []string `json:"checkpoints"`
	Final       string   `json:"final"`

	sum    [sha256.Size]byte
	cycles int
}

// add folds n's current fingerprint into the chain.
func (c *fingerprintChain) add(n *Network) {
	c.sum = sha256.Sum256(append(c.sum[:], stateFingerprint(n)...))
	if c.cycles++; c.cycles%chainEvery == 0 {
		c.Checkpoints = append(c.Checkpoints, hex.EncodeToString(c.sum[:]))
	}
}

// finish records n's final fingerprint.
func (c *fingerprintChain) finish(n *Network) { c.Final = stateFingerprint(n) }

// readChains loads the recorded chains; a missing file reads as empty.
func readChains(t *testing.T) map[string]fingerprintChain {
	t.Helper()
	chains := map[string]fingerprintChain{}
	raw, err := os.ReadFile(chainsPath)
	if errors.Is(err, fs.ErrNotExist) {
		return chains
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &chains); err != nil {
		t.Fatalf("parsing %s: %v", chainsPath, err)
	}
	return chains
}

// recordChain stores c under name in the chains file.
func recordChain(t *testing.T, name string, c fingerprintChain) {
	t.Helper()
	chains := readChains(t)
	chains[name] = c
	data, err := json.MarshalIndent(chains, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(chainsPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkChain fails the test unless got reproduces the chain recorded
// under name, reporting the first diverging checkpoint.
func checkChain(t *testing.T, name string, got fingerprintChain) {
	t.Helper()
	want, ok := readChains(t)[name]
	if !ok {
		t.Fatalf("%s holds no chain %q (re-record with -update-oracle)", chainsPath, name)
	}
	for k := range want.Checkpoints {
		if k >= len(got.Checkpoints) || got.Checkpoints[k] != want.Checkpoints[k] {
			t.Fatalf("%s: state first diverges from the recorded chain before cycle %d", name, (k+1)*chainEvery)
		}
	}
	if len(got.Checkpoints) != len(want.Checkpoints) {
		t.Fatalf("%s: %d checkpoints, recorded %d", name, len(got.Checkpoints), len(want.Checkpoints))
	}
	if got.Final != want.Final {
		t.Fatalf("%s: final state differs:\ngot:      %s\nrecorded: %s", name, got.Final, want.Final)
	}
}
