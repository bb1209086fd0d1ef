// Command nocbench is gonoc's benchmark: it runs one named workload for
// a fixed time, checks every run record against committed golden
// digests, and prints the end-to-end metrics (tracing off) or the
// per-layer metrics (tracing on) as the last line of standard output.
// See README.md for the workloads, the metrics and the span output.
//
//	go run . --workload uniform-sweep --seed 1 --seconds 30 --trace 0
//
// run.sh builds and runs it from the repository root the same way.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // temp files and span output
	workers  int    // campaign workers: nproc
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "input seed")
	seconds := fs.Int("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/nocbench", "directory for temp files and span output")
	golden := fs.String("write-golden", "", "record golden digests at the default and held-out seeds into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "nocbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "nocbench: --seconds must be at least 1")
		return 2
	}
	cfg.seconds, cfg.trace = float64(*seconds), *trace == 1
	// One worker per CPU the process may run on, and no more Ps than
	// that (before Go 1.25 GOMAXPROCS ignores a container's CPU quota,
	// but NumCPU honours the affinity mask).
	cfg.workers = runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > cfg.workers {
		runtime.GOMAXPROCS(cfg.workers)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "nocbench:", err)
		return 1
	}

	if *golden != "" {
		if err := writeGolden(cfg, *golden); err != nil {
			fmt.Fprintln(stderr, "nocbench:", err)
			return 1
		}
		return 0
	}

	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintln(stderr, "nocbench:", err)
		return 2
	}
	man := manifest(cfg, w)
	line, err := json.Marshal(map[string]any{"manifest": man})
	if err != nil {
		fmt.Fprintln(stderr, "nocbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)

	res, err := bench(cfg, w, man, stderr)
	if err != nil && !errors.Is(err, errMechanism) {
		fmt.Fprintln(stderr, "nocbench:", err)
		return 1
	}
	out, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(stderr, "nocbench:", merr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if err != nil {
		fmt.Fprintln(stderr, "nocbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "nocbench: %d of %d runs failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// manifest describes the host, toolchain, revision and inputs of a run.
// It is printed beside the results, never inside the run records, so
// the records stay host-independent.
func manifest(cfg config, w *workload) map[string]any {
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"workload":     w.name,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"numcpu":       runtime.NumCPU(),
		"workers":      cfg.workers,
		"go_version":   runtime.Version(),
		"vcs_revision": rev,
		"vcs_modified": modified,
		"params":       w.params,
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
