// Package exp is the experiment-campaign orchestration layer: it
// expands a Campaign — the cross-product of topologies, node counts,
// traffic patterns and injection rates that underlies every figure of
// the paper — into replicated, deterministically seeded scenarios, runs
// them on a cancellable worker pool, and streams the results to
// pluggable sinks (JSONL, SQLite, in-memory aggregation with confidence
// intervals). The same campaign spec and seed produce byte-identical
// sink output at any parallelism.
package exp

import (
	"fmt"

	"gonoc/internal/core"
	"gonoc/internal/noc"
	"gonoc/internal/sim"
	"gonoc/internal/traffic"
)

// TrafficSpec names one destination pattern of a campaign. Hot-spot
// targets may be pinned explicitly, derived from one of the paper's
// double-target placements, or left empty for the default single
// hot-spot of each topology.
type TrafficSpec struct {
	// Kind is the pattern family (uniform, hotspot, permutation).
	Kind core.TrafficKind
	// HotSpots pins explicit target nodes for HotSpotTraffic. When
	// empty and Placement is unset, the single default target of
	// core.SingleHotspot is used.
	HotSpots []int
	// Placement, when non-zero, derives two targets per topology from
	// the paper's double-hot-spot placements (core.DoubleHotspots).
	Placement core.Placement
	// Center selects the mesh-middle default single target instead of
	// the corner.
	Center bool
	// Permutation names the pattern for PermutationTraffic.
	Permutation string
	// Label overrides the derived name used in records and tables.
	Label string
}

// Name returns the spec's display label.
func (t TrafficSpec) Name() string {
	if t.Label != "" {
		return t.Label
	}
	s := string(t.Kind)
	switch {
	case t.Placement != 0:
		s += fmt.Sprintf("-%c", t.Placement)
	case t.Kind == core.HotSpotTraffic && t.Center:
		s += "-center"
	case t.Kind == core.PermutationTraffic && t.Permutation != "":
		s += "-" + t.Permutation
	}
	return s
}

// Campaign is a batch experiment: the cross-product of topology
// families, node counts, traffic patterns and per-source injection
// rates, each point replicated Reps times under independent seeds.
// Zero values whose meaning would be degenerate fall back to the
// paper's defaults (Poisson arrivals, 10000 measured cycles, the
// default node geometry, one replication); Warmup and Seed are taken
// literally, since zero is valid for both.
type Campaign struct {
	// Name tags every emitted record, so merged result files stay
	// attributable.
	Name string

	// Topologies, Nodes, Traffics and FlitRates are the four crossed
	// axes. FlitRates are per-source offered loads in flits/cycle (the
	// paper's x axis); they divide by Config.PacketLen to form the
	// per-source packet rate λ.
	Topologies []core.TopologyKind
	Nodes      []int
	Traffics   []TrafficSpec
	FlitRates  []float64

	// Reps is the number of replications per grid point; each gets an
	// independent seed derived from Seed.
	Reps int
	// Seed is the master seed; all replication seeds derive from it
	// deterministically. Zero is a valid seed (it is not rewritten, so
	// explicit choices always survive).
	Seed uint64

	// Warmup and Measure are the per-run cycle counts. Warmup zero
	// means genuinely no warm-up; only a zero Measure (which the
	// scenario layer rejects outright) falls back to the paper's
	// 10000 cycles.
	Warmup, Measure uint64
	// Routing optionally overrides the mesh-family routing algorithm.
	Routing string
	// Process selects the arrival process (default Poisson).
	Process traffic.Process
	// Config is the node geometry; the zero value selects
	// noc.DefaultConfig.
	Config noc.Config
}

// Point is one expanded (scenario, replication) cell of a campaign.
type Point struct {
	// Index is the position in campaign enumeration order, across all
	// replications; sinks receive outcomes in this order.
	Index int
	// GridIndex identifies the grid point (topology × nodes × traffic
	// × rate) this replication belongs to; replications of the same
	// point share it.
	GridIndex int
	// Rep is the replication number, 0-based.
	Rep int
	// Topo, Nodes, Traffic and FlitRate echo the grid coordinates.
	Topo     core.TopologyKind
	Nodes    int
	Traffic  string
	FlitRate float64
	// Scenario is the fully resolved simulation, seed included.
	Scenario core.Scenario
}

// ID renders a stable, human-readable point identifier.
func (p Point) ID() string {
	return fmt.Sprintf("%s-%d/%s@%.4g#%d", p.Topo, p.Nodes, p.Traffic, p.FlitRate, p.Rep)
}

// withDefaults fills run parameters whose zero value is meaningless
// (zero replications, a zero-cycle measurement window, an empty node
// geometry). Warmup and Seed are left alone: zero is a legitimate
// choice for both, and rewriting it would silently change explicitly
// configured runs.
func (c Campaign) withDefaults() Campaign {
	if c.Reps <= 0 {
		c.Reps = 1
	}
	if c.Measure == 0 {
		c.Measure = 10000
	}
	if c.Config == (noc.Config{}) {
		c.Config = noc.DefaultConfig()
	}
	return c
}

// cell is one grid point of the expanded campaign: the (topology,
// nodes, traffic, rate) coordinates plus the resolved base scenario
// with rate applied and seed still unset.
type cell struct {
	grid     int
	topo     core.TopologyKind
	nodes    int
	spec     TrafficSpec
	flitRate float64
	base     core.Scenario
}

// cells expands the campaign's grid (without replications) in
// deterministic enumeration order: topology, then nodes, then traffic,
// then rate.
func (c Campaign) cells() ([]cell, error) {
	c = c.withDefaults()
	if len(c.Topologies) == 0 {
		return nil, fmt.Errorf("exp: campaign without topologies")
	}
	if len(c.Nodes) == 0 {
		return nil, fmt.Errorf("exp: campaign without node counts")
	}
	if len(c.Traffics) == 0 {
		return nil, fmt.Errorf("exp: campaign without traffic specs")
	}
	if len(c.FlitRates) == 0 {
		return nil, fmt.Errorf("exp: campaign without injection rates")
	}
	cells := make([]cell, 0, len(c.Topologies)*len(c.Nodes)*len(c.Traffics)*len(c.FlitRates))
	for _, topo := range c.Topologies {
		for _, n := range c.Nodes {
			for _, spec := range c.Traffics {
				base, err := c.scenario(topo, n, spec)
				if err != nil {
					return nil, err
				}
				for _, fr := range c.FlitRates {
					s := base
					s.Lambda = fr / float64(c.Config.PacketLen)
					cells = append(cells, cell{
						grid:     len(cells),
						topo:     topo,
						nodes:    n,
						spec:     spec,
						flitRate: fr,
						base:     s,
					})
				}
			}
		}
	}
	return cells, nil
}

// Points expands the campaign into its full run list, in deterministic
// enumeration order (topology, then nodes, then traffic, then rate,
// then replication). Replication seeds derive from the master seed via
// an RNG split per grid point: the expansion is single-threaded, so the
// assignment never depends on how the points are later scheduled.
func (c Campaign) Points() ([]Point, error) {
	return c.pointsN(nil, nil)
}

// pointsN is the generalized expansion behind Points and the adaptive
// runner: cell g receives reps(g) replications (nil or non-positive
// falls back to Campaign.Reps) of which the first skip(g) are omitted
// from the result. Every cell's seed stream is split off the master in
// enumeration order and then advanced replication by replication, so a
// later expansion with a larger reps(g) reproduces the earlier
// replications bit for bit and merely extends the tail — adaptive
// rounds never reseed completed work.
func (c Campaign) pointsN(reps, skip func(grid int) int) ([]Point, error) {
	cd := c.withDefaults()
	cells, err := c.cells()
	if err != nil {
		return nil, err
	}
	master := sim.NewRNG(cd.Seed)
	var pts []Point
	for _, cl := range cells {
		n := cd.Reps
		if reps != nil {
			if r := reps(cl.grid); r > 0 {
				n = r
			}
		}
		from := 0
		if skip != nil {
			from = skip(cl.grid)
		}
		stream := master.Split()
		s := cl.base
		for rep := 0; rep < n; rep++ {
			s.Seed = stream.Uint64()
			if rep < from {
				continue
			}
			pts = append(pts, Point{
				Index:     len(pts),
				GridIndex: cl.grid,
				Rep:       rep,
				Topo:      cl.topo,
				Nodes:     cl.nodes,
				Traffic:   cl.spec.Name(),
				FlitRate:  cl.flitRate,
				Scenario:  s,
			})
		}
	}
	for i := range pts {
		if err := pts[i].Scenario.Validate(); err != nil {
			return nil, fmt.Errorf("exp: %s: %w", pts[i].ID(), err)
		}
	}
	return pts, nil
}

// scenario resolves one (topology, nodes, traffic) cell into a base
// scenario with rate and seed still unset.
func (c Campaign) scenario(topo core.TopologyKind, n int, spec TrafficSpec) (core.Scenario, error) {
	s := core.NewScenario(topo, n, spec.Kind, 0)
	s.Warmup, s.Measure = c.Warmup, c.Measure
	s.Routing = c.Routing
	s.Process = c.Process
	s.Config = c.Config
	s.Permutation = spec.Permutation
	if spec.Kind == core.HotSpotTraffic {
		switch {
		case len(spec.HotSpots) > 0:
			s.HotSpots = spec.HotSpots
		case spec.Placement != 0:
			hs, err := core.DoubleHotspots(topo, n, spec.Placement, 0, 0)
			if err != nil {
				return core.Scenario{}, fmt.Errorf("exp: %s-%d: %w", topo, n, err)
			}
			s.HotSpots = hs
		default:
			s.HotSpots = []int{core.SingleHotspot(topo, n, spec.Center, 0, 0)}
		}
	}
	return s, nil
}
