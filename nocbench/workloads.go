package main

import (
	"fmt"
	"strconv"

	"gonoc/internal/analysis"
	"gonoc/internal/core"
	"gonoc/internal/exp"
	"gonoc/internal/noc"
	"gonoc/internal/sim"
)

// workload is one named input set. A campaign workload runs its
// campaigns through exp.Runner; lone-step-auto runs its scenarios back
// to back through one core.Workspace. Everything here is a function of
// the seed alone.
type workload struct {
	name string

	campaigns []exp.Campaign
	ciTarget  float64
	maxReps   int

	lone []core.Scenario

	params map[string]any // echoed in the run manifest

	// golden holds the committed run-record digests at this seed, nil
	// when golden.json has none for it.
	golden []string
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"uniform-sweep", "hotspot-adaptive", "lone-step-auto"}

// defaultSeed is the seed the committed golden digests were recorded
// at; heldOutSeed is the second seed whose digests are also committed
// and on which any gain claimed against this benchmark must also hold.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// Sizing: one iteration of each workload takes a few seconds on a
// 2-core host, so a run of BENCHMARK.json's run_seconds repeats it
// several times and reports medians.
var (
	paperSizes   = []int{8, 16, 24, 32}
	uniformRates = exp.DefaultFigureOpts().UniformFlitRates // 0.05 … 0.5
	loadFracs    = exp.DefaultFigureOpts().LoadFractions    // 0.2 … 1.6 × λ_sat
	topoSet      = []core.TopologyKind{core.Ring, core.Spidergon, core.Mesh}
)

const (
	uniformReps     = 2
	uniformWarmup   = 500
	uniformMeasure  = 4000
	hotspotReps     = 2
	hotspotWarmup   = 500
	hotspotMeasure  = 2000
	hotspotCITarget = 0.05
	hotspotMaxReps  = 8
	loneWarmup      = 1000
	loneMeasure     = 10000
)

func newWorkload(name string, seed uint64) (*workload, error) {
	var w *workload
	var err error
	switch name {
	case "uniform-sweep":
		w = uniformSweep(seed)
	case "hotspot-adaptive":
		w, err = hotspotAdaptive(seed)
	case "lone-step-auto":
		w = loneStepAuto(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	w.golden = g[name][strconv.FormatUint(seed, 10)].Records
	return w, nil
}

// uniformSweep is the Figure 10/11 grid: every paper topology and size
// at the eight uniform rates, near idle to saturated.
func uniformSweep(seed uint64) *workload {
	c := exp.Campaign{
		Name:       "uniform",
		Topologies: topoSet,
		Nodes:      paperSizes,
		Traffics:   []exp.TrafficSpec{{Kind: core.UniformTraffic}},
		FlitRates:  uniformRates,
		Reps:       uniformReps,
		Seed:       seed,
		Warmup:     uniformWarmup,
		Measure:    uniformMeasure,
	}
	return &workload{
		name:      "uniform-sweep",
		campaigns: []exp.Campaign{c},
		params: map[string]any{
			"topologies": topoSet, "sizes": paperSizes, "flit_rates": uniformRates,
			"reps": uniformReps, "warmup": uniformWarmup, "measure": uniformMeasure,
		},
	}
}

// hotspotAdaptive is the Figure 8/9 double hot-spot grid with adaptive
// replication: one campaign per (topology, size, placement) curve,
// rates a ladder of that curve's analytic saturation rate.
func hotspotAdaptive(seed uint64) (*workload, error) {
	plen := noc.DefaultConfig().PacketLen
	var cs []exp.Campaign
	for _, n := range paperSizes {
		for _, kind := range topoSet {
			ps := []core.Placement{core.PlacementA, core.PlacementB}
			if kind == core.Mesh {
				ps = append(ps, core.PlacementC)
			}
			for _, p := range ps {
				targets, err := core.DoubleHotspots(kind, n, p, 0, 0)
				if err != nil {
					return nil, err
				}
				lamSat := analysis.HotspotSaturationLambda(len(targets), 1, n-len(targets), plen)
				rates := make([]float64, len(loadFracs))
				for i, f := range loadFracs {
					rates[i] = f * lamSat * float64(plen)
				}
				cs = append(cs, exp.Campaign{
					Name:       fmt.Sprintf("%s-%d-%c", kind, n, p),
					Topologies: []core.TopologyKind{kind},
					Nodes:      []int{n},
					Traffics:   []exp.TrafficSpec{{Kind: core.HotSpotTraffic, HotSpots: targets, Label: fmt.Sprintf("hotspot-%c", p)}},
					FlitRates:  rates,
					Reps:       hotspotReps,
					Seed:       seed,
					Warmup:     hotspotWarmup,
					Measure:    hotspotMeasure,
				})
			}
		}
	}
	return &workload{
		name:      "hotspot-adaptive",
		campaigns: cs,
		ciTarget:  hotspotCITarget,
		maxReps:   hotspotMaxReps,
		params: map[string]any{
			"topologies": topoSet, "sizes": paperSizes, "placements": "A,B (+C on mesh)",
			"load_fractions": loadFracs, "reps": hotspotReps, "ci_target": hotspotCITarget,
			"max_reps": hotspotMaxReps, "warmup": hotspotWarmup, "measure": hotspotMeasure,
		},
	}, nil
}

// loneStepAuto is four long points run one after another with the
// parallel engine at automatic width: spidergon-32 near saturation and
// mesh-16x16 at its knee, two seeds each.
func loneStepAuto(seed uint64) *workload {
	plen := float64(noc.DefaultConfig().PacketLen)
	rng := sim.NewRNG(seed)
	sg := core.NewScenario(core.Spidergon, 32, core.UniformTraffic, 0.3/plen)
	mesh := core.NewScenario(core.Mesh, 256, core.UniformTraffic, 0.25/plen)
	mesh.Cols, mesh.Rows = 16, 16
	lone := []core.Scenario{sg, sg, mesh, mesh}
	for i := range lone {
		lone[i].Warmup, lone[i].Measure = loneWarmup, loneMeasure
		lone[i].Seed = rng.Uint64()
		lone[i].StepParallel = -1
	}
	var labels []string
	for _, s := range lone {
		labels = append(labels, s.Label())
	}
	return &workload{
		name: "lone-step-auto",
		lone: lone,
		params: map[string]any{
			"points":        labels,
			"step_parallel": -1, "warmup": loneWarmup, "measure": loneMeasure,
		},
	}
}
