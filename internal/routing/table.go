package routing

import (
	"fmt"

	"gonoc/internal/topology"
)

// TableRouting is the paper's "table-driven" option: a per-node
// next-hop table computed offline (here by breadth-first search from
// every destination) and looked up per hop. It routes minimally on any
// connected topology, including arbitrary irregular meshes, at the cost
// of N² table entries and no inherent deadlock guarantee — check an
// instance with CheckDeadlockFree before trusting it in a wormhole
// network.
type TableRouting struct {
	name string
	vcs  int
	// next[cur][dst] is the direction to take; DirInvalid on diagonal.
	next [][]topology.Direction
}

// MaxTableNodes bounds the topologies NewTableRouting accepts: the table
// holds N² entries built by N breadth-first searches, 8 MiB and a few
// tens of milliseconds at the limit (4096 nodes would take 128 MiB and
// most of a second).
const MaxTableNodes = 1 << 10

// NewTableRouting computes minimal next-hop tables for t with the given
// number of virtual channels (packets stay on VC 0; extra VCs are
// available to the network for other purposes). Ties between equal-cost
// next hops resolve to the lowest channel ID, so tables are
// deterministic. It returns an error if t is disconnected or has more
// than MaxTableNodes nodes.
func NewTableRouting(t topology.Topology, vcs int) (*TableRouting, error) {
	if vcs < 1 {
		return nil, fmt.Errorf("routing: table routing needs at least 1 vc, got %d", vcs)
	}
	n := t.Nodes()
	if n > MaxTableNodes {
		return nil, fmt.Errorf("routing: table routing over %d nodes exceeds the limit of %d", n, MaxTableNodes)
	}
	tr := &TableRouting{
		name: "table-" + t.Name(),
		vcs:  vcs,
		next: make([][]topology.Direction, n),
	}
	for cur := 0; cur < n; cur++ {
		tr.next[cur] = make([]topology.Direction, n)
	}
	// One BFS per destination over the reversed graph gives, for every
	// node, its distance to dst; the best next hop from cur is any
	// neighbour one step closer. Build the reverse adjacency once.
	rin := make([][]topology.Channel, n)
	for _, c := range t.Channels() {
		rin[c.Dst] = append(rin[c.Dst], c)
	}
	for dst := 0; dst < n; dst++ {
		distTo := bfsToward(t, dst, rin)
		for cur := 0; cur < n; cur++ {
			if cur == dst {
				tr.next[cur][dst] = topology.DirInvalid
				continue
			}
			if distTo[cur] < 0 {
				return nil, fmt.Errorf("routing: %s cannot reach %d from %d", t.Name(), dst, cur)
			}
			for _, c := range t.Out(cur) {
				if distTo[c.Dst] == distTo[cur]-1 {
					tr.next[cur][dst] = c.Dir
					break // channels scanned in ID order: deterministic
				}
			}
		}
	}
	return tr, nil
}

// bfsToward returns each node's distance TO dst, walking reverse edges.
func bfsToward(t topology.Topology, dst int, rin [][]topology.Channel) []int {
	n := t.Nodes()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []int{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range rin[v] {
			if dist[c.Src] < 0 {
				dist[c.Src] = dist[v] + 1
				queue = append(queue, c.Src)
			}
		}
	}
	return dist
}

// Name returns "table-<topology>".
func (a *TableRouting) Name() string { return a.name }

// VCs returns the VC count supplied at construction.
func (a *TableRouting) VCs() int { return a.vcs }

// Route looks up the next hop; packets remain on VC 0.
func (a *TableRouting) Route(cur, dst, vc int) Decision {
	return Decision{Dir: a.next[cur][dst], VC: 0}
}
