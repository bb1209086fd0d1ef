package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// golden.json holds, per workload and seed, the digest of every run
// record the workload emits and of the whole JSONL stream. It is
// recorded at the default and the held-out seed with
//
//	go run . --write-golden golden.json
//
// and must only change together with a change to simulation results.
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	Runs    int      `json:"runs"`
	Digest  string   `json:"digest"`
	Records []string `json:"records"`
}

// goldens maps workload → seed → entry.
type goldens map[string]map[string]goldenEntry

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// writeGolden runs every workload once at the default and the held-out
// seed and writes their digests to path.
func writeGolden(cfg config, path string) error {
	g := goldens{}
	for _, name := range workloadNames {
		g[name] = map[string]goldenEntry{}
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			w, err := newWorkload(name, seed)
			if err != nil {
				return err
			}
			it, err := iterate(cfg, w, nil, 0)
			if err != nil {
				return err
			}
			if it.err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, it.err)
			}
			g[name][strconv.FormatUint(seed, 10)] = goldenEntry{Runs: len(it.records), Digest: it.digest, Records: it.records}
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
