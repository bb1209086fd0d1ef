// Command benchgate is the tracked perf-regression gate: it reads a
// `go test -json -bench` stream, extracts the benchmark metrics named
// by a committed baseline file, and fails (exit 1) when any gated
// metric regressed by more than the allowed tolerance.
//
// The committed baseline (bench-baseline.json) tracks *deterministic*
// work counters — worklist visits per simulated cycle and the fraction
// of cycles actually ticked rather than fast-forwarded — which are
// pure functions of the benchmark scenario. Unlike ns/op they are
// identical on every machine, so the same baseline gates a laptop and
// a CI runner without noise margins hiding real regressions. Wall-time
// metrics can still be tracked by adding ns/op entries to a local
// baseline; they are compared the same way.
//
// A second mode maintains the tracked speedup history: -speedup-log
// reads the knee-parallel bench's report-only wall metrics (gomaxprocs,
// numcpu, shards, raw serial/parallel wall times, speedup) from the
// same stream and records one labeled entry in a JSON array file
// (BENCH_speedup.json) — re-running with an existing label replaces
// that record instead of appending — so runs on real multi-core hosts
// accumulate a per-commit speedup trajectory next to the deterministic
// gate. No baseline is consulted in this mode. Adding -speedup-min
// turns the logged run into a wall-clock gate: the freshly measured
// knee speedup must reach the floor, enforced only for labels matching
// -label-prefix (CI passes `-speedup-min 1.05 -label-prefix ci-`) and
// skipped with a notice when the host has fewer cores than shards.
//
// Usage:
//
//	go test -json -bench=PerfGate -benchtime=1x -run='^$' . | benchgate -baseline bench-baseline.json
//	benchgate -baseline bench-baseline.json -input bench-gate.json
//	benchgate -baseline bench-baseline.json -input bench-gate.json -update
//	go test -json -bench='PerfGate/knee-parallel' -benchtime=1x -run='^$' . | benchgate -speedup-log BENCH_speedup.json -label pr8
//	benchgate -speedup-log BENCH_speedup.json -input bench-speedup.json -label ci-abc12345 -speedup-min 1.05 -label-prefix ci-
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed gate specification.
type Baseline struct {
	// Note documents the methodology for readers of the JSON file.
	Note string `json:"note,omitempty"`
	// Tolerance is the allowed relative regression (0.15 = 15%) for
	// entries that do not set their own.
	Tolerance float64 `json:"tolerance"`
	// Entries are the gated (benchmark, metric) pairs. All metrics are
	// lower-is-better.
	Entries []Entry `json:"entries"`
}

// Entry gates one metric of one benchmark.
type Entry struct {
	// Bench names the benchmark, without the "Benchmark" prefix and
	// without the -GOMAXPROCS suffix, e.g. "PerfGate/low".
	Bench string `json:"bench"`
	// Metric is the unit string as printed by the benchmark, e.g.
	// "visits/cycle" or "ns/op".
	Metric string `json:"metric"`
	// Value is the baseline measurement.
	Value float64 `json:"value"`
	// Tolerance overrides the file-level tolerance when positive.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// testEvent is the subset of the `go test -json` stream we need.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts (name, metric->value) from one benchmark result
// line, or ok=false when the line is not one.
func parseBench(line string) (name string, metrics map[string]float64, ok bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", nil, false
	}
	fields := strings.Fields(line)
	// name, iterations, then value/unit pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return "", nil, false
	}
	name = procSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
	metrics = make(map[string]float64)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = v
	}
	return name, metrics, true
}

// collect reads a `go test -json` stream (or raw bench output) and
// returns metric values keyed by "bench\x00metric". The -json encoder
// splits one benchmark result line across several output events (the
// name flushes before the timings), so the stream's output text is
// reassembled first and parsed line by line.
func collect(r io.Reader) (map[string]float64, error) {
	var text strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "{") {
			text.WriteString(line)
			text.WriteByte('\n')
			continue
		}
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			continue // foreign line in the stream
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	got := make(map[string]float64)
	for _, line := range strings.Split(text.String(), "\n") {
		if name, metrics, ok := parseBench(strings.TrimSpace(line)); ok {
			for unit, v := range metrics {
				got[name+"\x00"+unit] = v
			}
		}
	}
	return got, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// run executes one benchgate invocation: args are the command-line
// flags, stdin the default bench stream, and the report goes to out. A
// gate failure (a regressed or missing metric, a speedup below the
// floor) is returned as an error, as is any I/O or parse failure.
func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "bench-baseline.json", "committed baseline file")
		inputPath    = fs.String("input", "", "bench output (go test -json stream); default stdin")
		update       = fs.Bool("update", false, "rewrite the baseline's values from the observed run")
		speedupLog   = fs.String("speedup-log", "", "append the knee-parallel speedup record to this JSON history instead of gating")
		label        = fs.String("label", "local", "record label for -speedup-log (e.g. the PR or commit)")
		speedupMin   = fs.Float64("speedup-min", 0, "with -speedup-log: fail unless the freshly measured knee speedup reaches this minimum (skipped when the host has fewer cores than shards)")
		labelPrefix  = fs.String("label-prefix", "", "with -speedup-min: enforce the minimum only when the record label starts with this prefix (empty = always)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	in := stdin
	if *inputPath != "" {
		f, err := os.Open(*inputPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	if *speedupLog != "" {
		rec, err := appendSpeedup(out, *speedupLog, *label, in)
		if err != nil {
			return err
		}
		return checkSpeedupMin(out, rec, *speedupMin, *labelPrefix)
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", *baselinePath, err)
	}
	if base.Tolerance <= 0 {
		base.Tolerance = 0.15
	}

	got, err := collect(in)
	if err != nil {
		return err
	}

	if *update {
		for i := range base.Entries {
			e := &base.Entries[i]
			v, ok := got[e.Bench+"\x00"+e.Metric]
			if !ok {
				return fmt.Errorf("no observation for %s %s", e.Bench, e.Metric)
			}
			e.Value = v
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*baselinePath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "benchgate: %s updated (%d entries)\n", *baselinePath, len(base.Entries))
		return nil
	}

	results := make([]result, 0, len(base.Entries))
	failed := 0
	for _, e := range base.Entries {
		tol := e.Tolerance
		if tol <= 0 {
			tol = base.Tolerance
		}
		r := result{entry: e, tol: tol}
		if v, ok := got[e.Bench+"\x00"+e.Metric]; !ok {
			r.missing, r.failed = true, true
			r.delta = math.Inf(1)
		} else {
			r.measured = v
			if e.Value != 0 {
				r.delta = v/e.Value - 1
			}
			r.failed = v > e.Value*(1+tol)
		}
		if r.failed {
			failed++
		}
		results = append(results, r)
	}

	if failed == 0 {
		for _, r := range results {
			if r.measured < r.entry.Value*(1-r.tol) {
				fmt.Fprintf(out, "ok   %-28s %-14s %.6g improved past baseline %.6g — consider -update\n",
					r.entry.Bench, r.entry.Metric, r.measured, r.entry.Value)
				continue
			}
			fmt.Fprintf(out, "ok   %-28s %-14s %.6g (baseline %.6g, tolerance %.0f%%)\n",
				r.entry.Bench, r.entry.Metric, r.measured, r.entry.Value, r.tol*100)
		}
		fmt.Fprintf(out, "benchgate: %d metric(s) within tolerance\n", len(base.Entries))
		return nil
	}

	// On failure, print every gated metric as a table sorted worst
	// first by relative delta, so the triage view shows at a glance
	// which counters moved together (one regressed scenario) versus a
	// single metric drifting on its own.
	sort.SliceStable(results, func(i, j int) bool { return results[i].delta > results[j].delta })
	fmt.Fprintf(out, "%-4s %-28s %-20s %14s %14s %10s %8s\n",
		"", "benchmark", "metric", "baseline", "measured", "delta", "tol")
	for _, r := range results {
		status := "ok"
		if r.failed {
			status = "FAIL"
		}
		measured, delta := fmt.Sprintf("%.6g", r.measured), fmt.Sprintf("%+.1f%%", r.delta*100)
		if r.missing {
			measured, delta = "missing", "—"
		}
		fmt.Fprintf(out, "%-4s %-28s %-20s %14.6g %14s %10s %7.0f%%\n",
			status, r.entry.Bench, r.entry.Metric, r.entry.Value, measured, delta, r.tol*100)
	}
	return fmt.Errorf("%d metric(s) regressed", failed)
}

// result is one gated metric's evaluation against its baseline entry.
type result struct {
	entry    Entry
	tol      float64
	measured float64
	// delta is the relative movement vs the baseline (+ is worse; all
	// gated metrics are lower-is-better). Missing metrics sort first.
	delta   float64
	missing bool
	failed  bool
}

// speedupRecord is one entry of the tracked speedup history
// (BENCH_speedup.json): the knee-parallel bench's report-only wall
// metrics plus the host parallelism that produced them. The speedup
// figure is only meaningful relative to gomaxprocs/numcpu, which is why
// they travel together.
type speedupRecord struct {
	Label      string  `json:"label"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	Shards     int     `json:"shards"`
	SerialNs   float64 `json:"serial_wall_ns"`
	ParallelNs float64 `json:"parallel_wall_ns"`
	Speedup    float64 `json:"speedup"`
}

// appendSpeedup extracts the knee-parallel wall metrics from a bench
// stream and records them under the given label in the JSON-array
// history at path (created when missing). A re-run with an existing
// label replaces that record in place rather than appending, so
// repeated local runs and per-commit CI re-runs keep the history one
// record per label instead of accreting duplicates.
func appendSpeedup(out io.Writer, path, label string, in io.Reader) (speedupRecord, error) {
	got, err := collect(in)
	if err != nil {
		return speedupRecord{}, err
	}
	const bench = "PerfGate/knee-parallel"
	metric := func(unit string) (float64, error) {
		v, ok := got[bench+"\x00"+unit]
		if !ok {
			return 0, fmt.Errorf("no %q metric for %s in the bench stream", unit, bench)
		}
		return v, nil
	}
	rec := speedupRecord{Label: label}
	fields := []struct {
		unit string
		dst  *float64
	}{
		{"serial-wall-ns", &rec.SerialNs},
		{"parallel-wall-ns", &rec.ParallelNs},
		{"speedup", &rec.Speedup},
	}
	for _, f := range fields {
		if *f.dst, err = metric(f.unit); err != nil {
			return speedupRecord{}, err
		}
	}
	ints := []struct {
		unit string
		dst  *int
	}{
		{"gomaxprocs", &rec.GOMAXPROCS},
		{"numcpu", &rec.NumCPU},
		{"shards", &rec.Shards},
	}
	for _, f := range ints {
		v, err := metric(f.unit)
		if err != nil {
			return speedupRecord{}, err
		}
		*f.dst = int(v)
	}

	var history []speedupRecord
	if raw, err := os.ReadFile(path); err == nil {
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, &history); err != nil {
				return speedupRecord{}, fmt.Errorf("parsing %s: %w", path, err)
			}
		}
	} else if !os.IsNotExist(err) {
		return speedupRecord{}, err
	}
	verb := "+="
	replaced := false
	for i := range history {
		if history[i].Label == label {
			history[i] = rec
			verb, replaced = "~=", true
			break
		}
	}
	if !replaced {
		history = append(history, rec)
	}
	data, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		return speedupRecord{}, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return speedupRecord{}, err
	}
	fmt.Fprintf(out, "benchgate: %s %s {label %s, %d shards, gomaxprocs %d, speedup %.3gx} (%d records)\n",
		path, verb, rec.Label, rec.Shards, rec.GOMAXPROCS, rec.Speedup, len(history))
	return rec, nil
}

// checkSpeedupMin enforces the CI wall-clock floor on a freshly
// measured speedup record: when min is positive and the record's label
// carries the enforcement prefix, the measured knee speedup must reach
// it. Hosts with fewer cores than shards skip the check (the parallel
// engine cannot beat serial without the cores, and the deterministic
// counters in the main gate already cover correctness there) — CI
// pins GOMAXPROCS=4 on a 4-core runner, so the check bites exactly
// where the number is meaningful. A speedup below the floor is
// returned as an error.
func checkSpeedupMin(out io.Writer, rec speedupRecord, min float64, prefix string) error {
	if min <= 0 || !strings.HasPrefix(rec.Label, prefix) {
		return nil
	}
	if rec.NumCPU < rec.Shards {
		fmt.Fprintf(out, "benchgate: speedup gate skipped: %d CPUs < %d shards — wall-clock speedup is not meaningful on this host\n",
			rec.NumCPU, rec.Shards)
		return nil
	}
	if rec.Speedup < min {
		return fmt.Errorf("knee speedup %.3gx below the %.3gx floor (label %s, %d shards, gomaxprocs %d, numcpu %d)",
			rec.Speedup, min, rec.Label, rec.Shards, rec.GOMAXPROCS, rec.NumCPU)
	}
	fmt.Fprintf(out, "benchgate: knee speedup %.3gx meets the %.3gx floor\n", rec.Speedup, min)
	return nil
}
