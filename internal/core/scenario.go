// Package core packages the paper's study as a library: simulation
// scenarios (topology × traffic × injection rate), a deterministic
// runner with warm-up handling, parallel parameter sweeps, the paper's
// hot-spot placements, and generators that rebuild every figure of the
// evaluation section as a table.
package core

import (
	"fmt"
	"math"

	"gonoc/internal/analysis"
	"gonoc/internal/noc"
	"gonoc/internal/routing"
	"gonoc/internal/telemetry"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// TopologyKind selects the interconnect family of a scenario.
type TopologyKind string

// Topology families available to scenarios. Ring, Spidergon and Mesh
// are the paper's subjects; IrregularMesh is its "real mesh";
// FactorMesh and Torus are extensions.
const (
	Ring          TopologyKind = "ring"
	Spidergon     TopologyKind = "spidergon"
	Mesh          TopologyKind = "mesh"
	IrregularMesh TopologyKind = "imesh"
	FactorMesh    TopologyKind = "fmesh"
	Torus         TopologyKind = "torus"
)

// TrafficKind selects the destination pattern of a scenario.
type TrafficKind string

// Traffic patterns: the paper's homogeneous uniform scenario and the
// hot-spot scenarios (HotSpots lists the targets), plus fixed
// permutation workloads (Permutation names the pattern).
const (
	UniformTraffic     TrafficKind = "uniform"
	HotSpotTraffic     TrafficKind = "hotspot"
	PermutationTraffic TrafficKind = "permutation"
)

// Scenario is one fully specified simulation: build it with the
// defaults from NewScenario and adjust fields before calling Run.
type Scenario struct {
	// Topo and Nodes select the interconnect. For Mesh, Cols/Rows may
	// pin exact dimensions; otherwise the most balanced factorisation
	// of Nodes is used.
	Topo  TopologyKind
	Nodes int
	Cols  int
	Rows  int

	// Traffic selects the destination pattern; HotSpots lists target
	// nodes for HotSpotTraffic; Permutation names the pattern for
	// PermutationTraffic: "bit-complement", "bit-reverse",
	// "neighbor" (ring successor) or "transpose" (square meshes).
	Traffic     TrafficKind
	HotSpots    []int
	Permutation string

	// Lambda is the per-source packet injection rate (packets/cycle);
	// multiply by Config.PacketLen for the paper's flits/cycle axis.
	Lambda float64
	// Routing optionally overrides the topology's default algorithm:
	// "" (default), "yx" or "west-first" (full meshes), or "table"
	// (mesh family, including irregular meshes).
	Routing string
	// Process selects Poisson (paper) or Bernoulli arrivals.
	Process traffic.Process

	// Warmup cycles are simulated but excluded from measurement;
	// Measure cycles follow.
	Warmup  uint64
	Measure uint64

	// Seed makes the run reproducible.
	Seed uint64

	// Config is the node geometry (buffers, packet length, port rates).
	Config noc.Config

	// Engine selects the Step implementation: the default
	// activity-driven engine or the reference sweep engine. The two are
	// result-equivalent bit for bit (proven by the cross-engine golden
	// tests), so Engine is excluded from the cache key and from the
	// serialized scenario — it changes how fast a result is computed,
	// never what it is.
	Engine noc.Engine `json:"-"`

	// NoPool disables the network's packet/flit freelist for this run.
	// Like Engine it is excluded from the cache key and serialization:
	// pooled and unpooled runs are result-equivalent bit for bit (proven
	// by the golden pool-on/pool-off tests), the toggle only changes
	// allocator traffic. It exists for those golden tests and as a
	// debugging fallback.
	NoPool bool `json:"-"`

	// StepParallel, when positive, runs Network.Step domain-decomposed
	// across that many router shards (noc.EngineParallel), overriding
	// Engine; when negative, the shard count is chosen automatically
	// (min(GOMAXPROCS, routers/4), collapsing to the serial engine when
	// that is 1). Zero keeps the configured serial engine — campaigns
	// default to spending the machine on scenario-level parallelism.
	// Like Engine it is excluded from the cache key and the serialized
	// scenario: the parallel engine is bit-identical to the serial ones
	// at every shard count (proven by the golden parallel matrix), so
	// the knob changes wall-clock time, never results. Use it for lone
	// long-running points — near and past saturation — where
	// campaign-level parallelism has nothing left to parallelize.
	StepParallel int `json:"-"`

	// Telemetry, when non-nil with a writer, streams a per-cycle
	// capture of the network's probe counters (occupancy, per-node
	// injection/ejection, link traversals) to Telemetry.W in the
	// chunked delta format of internal/telemetry. Like Engine it is
	// excluded from the cache key and serialization: capture observes
	// the run without perturbing it — results and engine work counters
	// are bit-identical with telemetry on or off, and the capture
	// itself is bit-identical across engines and shard counts (proven
	// by the telemetry golden tests). Ticked cycles emit one sample
	// each; cycles elided by idle fast-forward emit none, which the
	// cycle series records as a delta gap.
	Telemetry *telemetry.Options `json:"-"`
}

// NewScenario returns a scenario with the paper's defaults: Poisson
// arrivals, 6-flit packets, 3-flit output buffers, 1-flit input
// buffers, 1000 warm-up and 10000 measured cycles.
func NewScenario(topo TopologyKind, nodes int, tk TrafficKind, lambda float64) Scenario {
	return Scenario{
		Topo:    topo,
		Nodes:   nodes,
		Traffic: tk,
		Lambda:  lambda,
		Process: traffic.Poisson,
		Warmup:  1000,
		Measure: 10000,
		Seed:    1,
		Config:  noc.DefaultConfig(),
	}
}

// Build constructs the topology and routing algorithm of the scenario.
func (s Scenario) Build() (topology.Topology, routing.Algorithm, error) {
	if s.Routing != "" && s.Topo != Mesh && s.Topo != IrregularMesh && s.Topo != FactorMesh {
		return nil, nil, fmt.Errorf("core: routing override %q only applies to the mesh family", s.Routing)
	}
	switch s.Topo {
	case Ring:
		r, err := topology.NewRing(s.Nodes)
		if err != nil {
			return nil, nil, err
		}
		return r, routing.NewRingRouting(r), nil
	case Spidergon:
		sg, err := topology.NewSpidergon(s.Nodes)
		if err != nil {
			return nil, nil, err
		}
		return sg, routing.NewSpidergonRouting(sg), nil
	case Mesh:
		cols, rows := s.Cols, s.Rows
		if cols <= 0 || rows <= 0 {
			cols, rows = analysis.IdealMeshDims(s.Nodes)
		}
		if cols*rows != s.Nodes {
			return nil, nil, fmt.Errorf("core: mesh %dx%d does not cover %d nodes", cols, rows, s.Nodes)
		}
		m, err := topology.NewMesh(cols, rows)
		if err != nil {
			return nil, nil, err
		}
		return meshWithRouting(m, s.Routing)
	case IrregularMesh:
		m, err := topology.NewIrregularMesh(s.Nodes)
		if err != nil {
			return nil, nil, err
		}
		return meshWithRouting(m, s.Routing)
	case FactorMesh:
		m, err := topology.NewFactorMesh(s.Nodes)
		if err != nil {
			return nil, nil, err
		}
		return meshWithRouting(m, s.Routing)
	case Torus:
		cols, rows := s.Cols, s.Rows
		if cols <= 0 || rows <= 0 {
			cols, rows = analysis.IdealMeshDims(s.Nodes)
		}
		if cols*rows != s.Nodes {
			return nil, nil, fmt.Errorf("core: torus %dx%d does not cover %d nodes", cols, rows, s.Nodes)
		}
		tr, err := topology.NewTorus(cols, rows)
		if err != nil {
			return nil, nil, err
		}
		return tr, routing.NewTorusDOR(tr), nil
	default:
		return nil, nil, fmt.Errorf("core: unknown topology kind %q", s.Topo)
	}
}

// meshWithRouting resolves the Routing override on the mesh family.
func meshWithRouting(m *topology.Mesh, override string) (topology.Topology, routing.Algorithm, error) {
	switch override {
	case "", "xy":
		return m, routing.NewMeshXY(m), nil
	case "yx":
		a, err := routing.NewMeshYX(m)
		if err != nil {
			return nil, nil, err
		}
		return m, a, nil
	case "west-first":
		a, err := routing.NewMeshWestFirst(m)
		if err != nil {
			return nil, nil, err
		}
		return m, a, nil
	case "table":
		a, err := routing.NewTableRouting(m, 1)
		if err != nil {
			return nil, nil, err
		}
		return m, a, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown mesh routing override %q", override)
	}
}

// Pattern constructs the scenario's destination pattern.
func (s Scenario) Pattern() (traffic.Pattern, error) {
	switch s.Traffic {
	case UniformTraffic:
		return traffic.Uniform{N: s.Nodes}, nil
	case HotSpotTraffic:
		if len(s.HotSpots) == 0 {
			return nil, fmt.Errorf("core: hotspot traffic without targets")
		}
		for _, h := range s.HotSpots {
			if h < 0 || h >= s.Nodes {
				return nil, fmt.Errorf("core: hotspot target %d out of range", h)
			}
		}
		return traffic.HotSpot{Targets: s.HotSpots, N: s.Nodes}, nil
	case PermutationTraffic:
		switch s.Permutation {
		case "bit-complement":
			return traffic.BitComplement(s.Nodes), nil
		case "bit-reverse":
			return traffic.BitReverse(s.Nodes), nil
		case "neighbor":
			return traffic.NeighborRing(s.Nodes, 1), nil
		case "transpose":
			cols, rows := s.Cols, s.Rows
			if cols <= 0 || rows <= 0 {
				cols, rows = analysis.IdealMeshDims(s.Nodes)
			}
			m, err := topology.NewMesh(cols, rows)
			if err != nil {
				return nil, err
			}
			return traffic.Transpose(m)
		default:
			return nil, fmt.Errorf("core: unknown permutation %q", s.Permutation)
		}
	default:
		return nil, fmt.Errorf("core: unknown traffic kind %q", s.Traffic)
	}
}

// Validate returns the first configuration error of the scenario.
func (s Scenario) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("core: %d nodes", s.Nodes)
	}
	// NaN fails every ordered comparison, so test finiteness first: a
	// NaN or infinite rate would pass the sign check below and make the
	// generator emit without bound.
	if math.IsNaN(s.Lambda) || math.IsInf(s.Lambda, 0) {
		return fmt.Errorf("core: non-finite lambda %v", s.Lambda)
	}
	if s.Lambda < 0 {
		return fmt.Errorf("core: negative lambda %v", s.Lambda)
	}
	if s.Measure == 0 {
		return fmt.Errorf("core: zero measurement window")
	}
	if s.Warmup > math.MaxUint64-s.Measure {
		return fmt.Errorf("core: warm-up %d + measurement %d cycles overflows", s.Warmup, s.Measure)
	}
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if _, err := s.Pattern(); err != nil {
		return err
	}
	_, _, err := s.Build()
	return err
}

// Label renders a short scenario identifier for tables and logs.
func (s Scenario) Label() string {
	return fmt.Sprintf("%s-%d/%s λ=%.4g", s.Topo, s.Nodes, s.Traffic, s.Lambda)
}
