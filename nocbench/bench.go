package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"gonoc/internal/analysis"
	"gonoc/internal/core"
	"gonoc/internal/noc"
)

// errMechanism marks a workload that no longer exercises the mechanism
// it was chosen for (see checkMechanism).
var errMechanism = errors.New("workload no longer exercises its mechanism")

// bench measures w for cfg.seconds and returns the result line.
//
// Untraced, it repeats the workload until the time is up and reports
// the medians of the iterations' set-up, wall and CPU times and the
// process's peak RSS. Traced, it alternates untraced and traced
// iterations for the same time (their wall-time ratio is the tracing
// overhead), then replays the points of the last traced iteration one
// after another through the replayer, and reports per-layer metrics.
//
// Every iteration's run records are checked against the committed
// golden digests for this seed when there are any, and otherwise
// against the first iteration; the traced replay's results are checked
// against the campaign's. Mismatching and errored runs are failed.
func bench(cfg config, w *workload, man map[string]any, log io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	want := w.golden
	check := func(it *iteration) {
		if want == nil {
			want = it.records
		}
		res.Attempted += max(len(it.records), len(want), it.total)
		res.Failed += max(mismatches(it.records, want), it.total-len(it.records))
		if it.err != nil {
			fmt.Fprintf(log, "nocbench: %s: %v\n", w.name, it.err)
		}
	}

	var plain, traced []*iteration
	var tr *tracer
	var root int
	var rt runtimeStats
	start := time.Now()
	for len(plain) == 0 || time.Since(start).Seconds() < cfg.seconds {
		it, err := iterate(cfg, w, nil, 0)
		if err != nil {
			return res, err
		}
		check(it)
		plain = append(plain, it)
		if !cfg.trace {
			continue
		}
		tr = newTracer()
		root = tr.begin(0, "bench.traced")
		rt.start()
		it, err = iterate(cfg, w, tr, root)
		rt.stop()
		if err != nil {
			return res, err
		}
		check(it)
		traced = append(traced, it)
	}
	fmt.Fprintf(log, "nocbench: %s seed %d: %d iterations in %.1fs; untraced wall_s:", w.name, cfg.seed, len(plain)+len(traced), time.Since(start).Seconds())
	for _, it := range plain {
		fmt.Fprintf(log, " %.3f", it.wall.Seconds())
	}
	fmt.Fprintln(log)
	if err := checkUntraced(w, plain[len(plain)-1]); err != nil {
		res.Failed++
		return res, err
	}

	if !cfg.trace {
		res.Metrics["setup_s"] = metric{median(plain, func(it *iteration) time.Duration { return it.setup }), "s"}
		res.Metrics["wall_s"] = metric{median(plain, func(it *iteration) time.Duration { return it.wall }), "s"}
		res.Metrics["cpu_s"] = metric{median(plain, func(it *iteration) time.Duration { return it.cpu }), "s"}
		res.Metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
		res.Correct = res.Failed == 0
		return res, nil
	}

	last := traced[len(traced)-1]
	rp, err := replay(last, tr, root)
	tr.end(root)
	if err != nil {
		return res, err
	}
	res.Attempted += len(rp.results)
	res.Failed += rp.failed
	spans := tr.snapshot()
	if err := checkNesting(spans); err != nil {
		return res, err
	}
	layerMetrics(res.Metrics, cfg, w, last, rp, spans, &rt)
	res.Metrics["trace.overhead_frac"] = metric{
		median(traced, func(it *iteration) time.Duration { return it.wall })/
			median(plain, func(it *iteration) time.Duration { return it.wall }) - 1, "ratio"}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := saveSpans(path, man, spans); err != nil {
		return res, err
	}
	fmt.Fprintf(log, "nocbench: spans written to %s\n", path)
	res.Correct = res.Failed == 0
	if err := checkMechanism(w.name, res.Metrics); err != nil {
		res.Correct = false
		return res, err
	}
	return res, nil
}

func saveSpans(path string, man map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := writeSpans(bw, man, spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median of f over the iterations, in seconds.
func median(its []*iteration, f func(*iteration) time.Duration) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it).Seconds()
	}
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// checkUntraced applies the mechanism checks an untraced iteration can
// see: adaptive replication adds runs only on hotspot-adaptive, and
// every lone-step-auto point runs on the parallel engine with one
// barrier per ticked cycle.
func checkUntraced(w *workload, it *iteration) error {
	extra := it.total - it.planned
	if (w.name == "hotspot-adaptive") != (extra > 0) {
		return fmt.Errorf("%w: %s scheduled %d adaptive runs", errMechanism, w.name, extra)
	}
	for i, p := range it.perfs {
		s := w.lone[i]
		ticked := s.Warmup + s.Measure + 1 - p.SkippedCycles
		if p.Engine != noc.EngineParallel.String() || p.Barriers != ticked {
			return fmt.Errorf("%w: %s point %d ran on %s with %d barriers in %d ticked cycles",
				errMechanism, w.name, i, p.Engine, p.Barriers, ticked)
		}
	}
	return nil
}

// checkMechanism applies the traced predictions: only lone-step-auto
// runs sharded with exactly one barrier per ticked cycle, and only
// hotspot-adaptive schedules adaptive replications.
func checkMechanism(name string, m map[string]metric) error {
	lone := name == "lone-step-auto"
	shards, barriers := m["noc.shards"].Value, m["noc.barriers_per_cycle"].Value
	if lone && (shards < 2 || barriers != 1) || !lone && (shards != 0 || barriers != 0) {
		return fmt.Errorf("%w: %s has noc.shards=%v noc.barriers_per_cycle=%v", errMechanism, name, shards, barriers)
	}
	if extra := m["exp.adaptive_extra_runs"].Value; (name == "hotspot-adaptive") != (extra > 0) {
		return fmt.Errorf("%w: %s has exp.adaptive_extra_runs=%v", errMechanism, name, extra)
	}
	return nil
}

// replayStats aggregates the replay of one traced iteration.
type replayStats struct {
	failed     int
	results    []core.Result
	stats      []runStats
	mallocs    uint64
	allocBytes uint64
}

// replay runs the scenarios of a traced iteration one after another
// through the replayer, each under a "core.run" span below
// "bench.replay" and bracketed by runtime.MemStats reads, and checks
// each result against the one the iteration produced.
func replay(it *iteration, tr *tracer, root int) (*replayStats, error) {
	rp := &replayStats{}
	d := &replayer{tr: tr}
	id := tr.begin(root, "bench.replay")
	defer tr.end(id)
	var before, after runtime.MemStats
	for _, o := range it.outcomes {
		runtime.ReadMemStats(&before)
		run := tr.begin(id, "core.run")
		r, st, err := d.run(o.Point.Scenario, run)
		tr.end(run)
		runtime.ReadMemStats(&after)
		if err != nil {
			return rp, err
		}
		rp.mallocs += after.Mallocs - before.Mallocs
		rp.allocBytes += after.TotalAlloc - before.TotalAlloc
		if fmt.Sprintf("%#v", r) != fmt.Sprintf("%#v", o.Result) {
			rp.failed++
		}
		rp.results = append(rp.results, r)
		rp.stats = append(rp.stats, st)
	}
	return rp, nil
}

// runtimeStats samples the Go runtime over a traced iteration: GC CPU
// and cycles from runtime/metrics deltas, and the peak heap from a
// sampler goroutine.
type runtimeStats struct {
	gcCPU0, gcCPU float64
	gcs0, gcs     uint64
	heapPeak      uint64

	stopc chan struct{}
	wg    sync.WaitGroup
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readRuntime() (gcCPU float64, gcs, heap uint64) {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func (r *runtimeStats) start() {
	r.gcCPU0, r.gcs0, r.heapPeak = readRuntime()
	r.stopc = make(chan struct{})
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stopc:
				return
			case <-tick.C:
				if _, _, h := readRuntime(); h > r.heapPeak {
					r.heapPeak = h
				}
			}
		}
	}()
}

func (r *runtimeStats) stop() {
	close(r.stopc)
	r.wg.Wait()
	gcCPU, gcs, h := readRuntime()
	r.gcCPU, r.gcs = gcCPU-r.gcCPU0, gcs-r.gcs0
	r.heapPeak = max(r.heapPeak, h)
}

// tailPercentiles are the candidates for core.run_s_tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile with at least ten of n
// samples beyond it, or the median when n is too small for any.
func tail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// layerMetrics fills the per-layer metrics from the traced iteration,
// its replay, its spans and the runtime samples.
func layerMetrics(m map[string]metric, cfg config, w *workload, it *iteration, rp *replayStats, spans []span, rt *runtimeStats) {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	sum := map[string]int64{}
	count := map[string]int{}
	for _, s := range spans {
		sum[s.Name] += s.dur()
		count[s.Name]++
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// exp
	campaign := sec(spans[it.phase-1].dur())
	workers := cfg.workers
	if len(w.campaigns) == 0 {
		workers = 1 // lone points run one after another
	}
	set("exp.campaign_s", campaign, "s")
	set("exp.runs", float64(len(it.records)), "count")
	set("exp.adaptive_extra_runs", float64(it.total-it.planned), "count")
	set("exp.pool_efficiency", ratio(sec(sum["core.run"]), float64(workers)*campaign), "ratio")
	set("exp.sink_s", sec(sum["exp.Sink.Run"]+sum["exp.Sink.Summary"]), "s")
	set("exp.sink_bytes", float64(it.bytes), "B")
	set("exp.cache_lookup_s", sec(sum["exp.Cache.Lookup"]), "s")
	set("exp.cache_store_s", sec(sum["exp.Cache.Store"]), "s")
	set("exp.cache_hit_frac", ratio(float64(it.hits), float64(it.lookups)), "ratio")

	// core
	var runs []float64
	for _, s := range spans {
		if s.Name == "core.run" {
			runs = append(runs, sec(s.dur()))
		}
	}
	tp := tail(len(runs))
	set("core.run_s_p50", quantile(runs, 0.5), "s")
	set("core.run_s_tail", quantile(runs, tp/100), "s")
	set("core.run_tail_pct", tp, "%")
	set("core.run_samples", float64(len(runs)), "count")
	set("core.build_s", sec(sum["core.Workspace.build"]), "s")
	set("core.builds", float64(count["core.Workspace.build"]), "count")
	set("core.reset_s", sec(sum["core.Workspace.reset"]), "s")
	set("core.warmup_s", sec(sum["sim.Kernel.RunUntil.warmup"]), "s")
	set("core.measure_s", sec(sum["sim.Kernel.RunUntil.measure"]), "s")
	set("core.check_s", sec(sum["noc.Network.CheckConservation"]), "s")
	var ejected uint64
	for _, r := range rp.results {
		ejected += r.EjectedPackets
	}
	set("core.allocs_per_packet", ratio(float64(rp.mallocs), float64(ejected)), "1/packet")
	set("core.bytes_per_packet", ratio(float64(rp.allocBytes), float64(ejected)), "B/packet")

	// sim and noc
	var cycles, ticked, events, visits, barriers, specs, defers, routerSteps uint64
	var liveMax float64
	shards := 0
	for _, st := range rp.stats {
		cycles += st.cycles
		ticked += st.cycles - st.perf.SkippedCycles
		events += st.events
		visits += st.perf.RouterVisits
		barriers += st.perf.Barriers
		specs += st.perf.SpeculativeDeliveries
		defers += st.perf.CreditDefers
		routerSteps += st.steps * uint64(st.routers)
		liveMax = max(liveMax, float64(st.perf.LiveStateBytes)/float64(st.routers))
		shards = max(shards, st.shards)
	}
	runUntil := sum["sim.Kernel.RunUntil.warmup"] + sum["sim.Kernel.RunUntil.measure"]
	stepNs := sum["noc.Network.Step"]
	set("sim.events_per_cycle", ratio(float64(events), float64(cycles)), "1/cycle")
	set("sim.kernel_self_s", sec(runUntil-stepNs), "s")
	set("noc.step_s", sec(stepNs), "s")
	set("noc.step_ns_per_router_cycle", ratio(float64(stepNs), float64(routerSteps)), "ns")
	set("noc.visits_per_cycle", ratio(float64(visits), float64(cycles)), "1/cycle")
	set("noc.ticked_frac", ratio(float64(ticked), float64(cycles)), "ratio")
	set("noc.live_bytes_per_router", liveMax, "B")
	set("noc.shards", float64(shards), "count")
	set("noc.barriers_per_cycle", ratio(float64(barriers), float64(ticked)), "1/cycle")
	set("noc.spec_per_cycle", ratio(float64(specs), float64(ticked)), "1/cycle")
	set("noc.credit_defers_per_cycle", ratio(float64(defers), float64(ticked)), "1/cycle")

	// go runtime, over the traced iteration
	set("go.gc_cpu_s", rt.gcCPU, "s")
	set("go.gc_cycles", float64(rt.gcs), "count")
	set("go.heap_peak_mb", float64(rt.heapPeak)/(1<<20), "MB")

	// model accuracy
	set("analysis.hops_err_pct", hopsErrPct(rp.results), "%")
	set("analysis.sat_tput_err_pct", satTputErrPct(rp.results), "%")
}

// hopsErrPct is the mean absolute percentage error of the simulated
// mean hop count against the exact average distance, over the uniform
// runs at each (topology, size)'s lowest rate. Zero when the workload
// has no uniform runs.
func hopsErrPct(rs []core.Result) float64 {
	type curve struct {
		topo              core.TopologyKind
		nodes, cols, rows int
	}
	lowest := map[curve]float64{}
	for _, r := range rs {
		s := r.Scenario
		if s.Traffic != core.UniformTraffic {
			continue
		}
		k := curve{s.Topo, s.Nodes, s.Cols, s.Rows}
		if l, ok := lowest[k]; !ok || s.Lambda < l {
			lowest[k] = s.Lambda
		}
	}
	hops := map[curve][]float64{}
	for _, r := range rs {
		s := r.Scenario
		if k := (curve{s.Topo, s.Nodes, s.Cols, s.Rows}); s.Traffic == core.UniformTraffic && s.Lambda == lowest[k] {
			hops[k] = append(hops[k], r.MeanHops)
		}
	}
	var errSum float64
	n := 0
	for k, hs := range hops {
		var exact float64
		switch k.topo {
		case core.Ring:
			exact = analysis.RingAvgDistanceExact(k.nodes)
		case core.Spidergon:
			exact = analysis.SpidergonAvgDistanceExact(k.nodes)
		case core.Mesh:
			cols, rows := k.cols, k.rows
			if cols <= 0 || rows <= 0 {
				cols, rows = analysis.IdealMeshDims(k.nodes)
			}
			exact = analysis.MeshAvgDistanceExact(cols, rows)
		default:
			continue
		}
		var mean float64
		for _, h := range hs {
			mean += h / float64(len(hs))
		}
		errSum += math.Abs(mean-exact) / exact * 100
		n++
	}
	if n == 0 {
		return 0
	}
	return errSum / float64(n)
}

// satTputErrPct is the mean absolute percentage error of the measured
// throughput against HotspotSaturationThroughput over the hot-spot runs
// offered at least 1.2× their analytic saturation rate. Zero when the
// workload has no such runs.
func satTputErrPct(rs []core.Result) float64 {
	var errSum float64
	n := 0
	for _, r := range rs {
		s := r.Scenario
		if s.Traffic != core.HotSpotTraffic {
			continue
		}
		k := len(s.HotSpots)
		lamSat := analysis.HotspotSaturationLambda(k, 1, s.Nodes-k, s.Config.PacketLen)
		if s.Lambda < 1.2*lamSat*(1-1e-9) {
			continue
		}
		ref := analysis.HotspotSaturationThroughput(k, 1)
		errSum += math.Abs(r.Throughput-ref) / ref * 100
		n++
	}
	if n == 0 {
		return 0
	}
	return errSum / float64(n)
}
