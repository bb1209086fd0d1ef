package noc

import (
	"fmt"
	"math/bits"
	"sort"

	"gonoc/internal/routing"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

// Network is a complete cycle-accurate NoC: a router per node, a
// network interface per node, and the wiring given by the topology and
// routing algorithm. Drive it by calling Inject for each generated
// packet and Step once per clock cycle.
type Network struct {
	topo topology.Topology
	alg  routing.Algorithm
	cfg  Config
	col  *stats.Collector

	routers []*router
	nis     []*ni

	// arena holds every packet record (struct-of-arrays, see arena.go);
	// router buffers and NI queues reference it through packed flit
	// handles and packet indices. stride is the power-of-two spacing of
	// ports within the slot-occupancy masks (≥ the VC count).
	arena  packetArena
	stride int

	// ejView, injView and errView are the scratch Packet views
	// materialized at the observer boundary: ejView for OnEject, injView
	// for InjectPacket's return, errView for diagnostics. They are
	// separate so a callback that injects (request/reply traffic) can
	// still read its own packet afterwards.
	ejView  Packet
	injView Packet
	errView Packet

	cycle        uint64
	nextPktID    uint64
	created      uint64
	ejected      uint64
	injected     uint64
	lastActivity uint64
	moved        bool // any flit progress in the current cycle

	// engine selects the Step implementation (see active.go and
	// parallel.go). The per-slot occupancy masks live on each router;
	// the phase worklists live on the shards of the running
	// decomposition.
	engine   Engine
	visits   uint64 // per-phase router/source worklist visits
	skipped  uint64 // cycles fast-forwarded by SkipTo
	barriers uint64 // parallel-engine worker barriers crossed
	specs    uint64 // cross-shard flits delivered speculatively on credit
	cdefers  uint64 // zero-credit link decisions synchronized in-pass

	// Domain decompositions of the phase kernel (active.go,
	// parallel.go): serial is the one-shard decomposition EngineActive
	// runs, multi the shardCount-wide one of EngineParallel, and dec the
	// one Step drives. Both persist across Reset, so workspace reuse
	// rebuilds neither. pr is the running worker group, shardCount the
	// configured width.
	serial     decomposition
	multi      decomposition
	dec        *decomposition
	shardCount int
	pr         *parRun
	// modTab[d] == cycle % d for every registered round-robin divisor
	// d (modDivs), maintained by increment instead of division.
	modDivs []int
	modTab  []uint32

	// pooling selects the freelist regime of the arena: enabled, every
	// fully ejected packet's record returns to the index stack (after
	// the ejection observers run) and InjectPacket leases from it, so
	// the steady state of a run — and of every following run after
	// Reset — creates packets without touching the allocator. Disabled,
	// the arena grows monotonically. recycled counts returns to the
	// stack; CheckConservation proves recycled == ejected (no leak) and
	// that no free record is still referenced by a live handle (no
	// double-free).
	pooling  bool
	recycled uint64

	// linkFlits counts flit traversals per channel ID.
	linkFlits []uint64
	// Telemetry probe counters, maintained by every engine exactly where
	// flits move (so they cost one array increment, never an allocation):
	// telOcc is the number of flits resident in each router's buffers,
	// telInj/telEj the cumulative flits injected by / ejected at each
	// node. Under EngineParallel each element is written only by the
	// shard owning its node (or in the serial sections), so the probes
	// stay race-clean. telemetry.Recorder samples them through
	// Telemetry() once per cycle.
	telOcc []int32
	telInj []uint64
	telEj  []uint64
	// consScratch and poolScratch are the reusable scratch bitmaps of
	// CheckConservation, one bit per arena record: campaign replications
	// re-verify one network per run, so the bitmaps live here (cleared
	// per check) instead of being reallocated every call.
	consScratch []uint64
	poolScratch []uint64
	// invIn/invEj/invOut are the reusable scratch masks of the worklist
	// invariant check (checkWorklistInvariants rebuilds each router's
	// occupancy from the buffers into these instead of allocating).
	invIn, invEj, invOut slotMask
	// onEject, when set, runs for every fully consumed packet.
	onEject func(p *Packet)
	// adaptive is non-nil when the algorithm supports congestion-aware
	// choice.
	adaptive routing.Adaptive
}

// ni is the per-node network interface: the IP-memory source queue, the
// current outgoing worm's switching state, and packet-reassembly
// accounting for the sink side. Queued packets are arena indices;
// sending is -1 when no packet is mid-injection.
type ni struct {
	node    int
	queue   fifo[int32] // IP memory, FIFO, by arena index
	sending int32       // packet currently being injected flit by flit
	nextSeq int         // next flit index of sending
	route   routeEntry  // output assignment of sending's worm
	vc      int         // routing VC state of sending's head path start
}

// NewNetwork builds a network over t using algorithm a, buffer/interface
// geometry cfg and collector col (which must be non-nil; use a
// collector with warm-up 0 to measure everything).
func NewNetwork(t topology.Topology, a routing.Algorithm, cfg Config, col *stats.Collector) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if col == nil {
		return nil, fmt.Errorf("noc: nil collector")
	}
	if a.VCs() < 1 {
		return nil, fmt.Errorf("noc: algorithm %s declares %d VCs", a.Name(), a.VCs())
	}
	if a.VCs() > MaxVCs {
		return nil, fmt.Errorf("noc: algorithm %s declares %d VCs, handle limit is %d", a.Name(), a.VCs(), MaxVCs)
	}
	if cfg.PacketLen > MaxPacketLen {
		return nil, fmt.Errorf("noc: packet length %d exceeds handle limit %d", cfg.PacketLen, MaxPacketLen)
	}
	n := &Network{topo: t, alg: a, cfg: cfg, col: col, pooling: true}
	n.arena.pktLen = cfg.PacketLen
	// Ports are spaced at the next power of two ≥ the VC count inside
	// the slot masks, so no port's bits straddle a mask word.
	n.stride = 1 << bits.Len(uint(a.VCs()-1))
	n.linkFlits = make([]uint64, len(t.Channels()))
	n.telOcc = make([]int32, t.Nodes())
	n.telInj = make([]uint64, t.Nodes())
	n.telEj = make([]uint64, t.Nodes())
	if aa, ok := a.(routing.Adaptive); ok {
		n.adaptive = aa
	}
	nis := make([]ni, t.Nodes())
	for v := 0; v < t.Nodes(); v++ {
		n.routers = append(n.routers, newRouter(v, t, a.VCs(), n.stride))
		nis[v].node = v
		nis[v].sending = -1
		n.nis = append(n.nis, &nis[v])
	}
	// Resolve each output channel's downstream port once, and register
	// the round-robin divisors (per-router slot and port counts) with
	// the incremental modulo table the phase kernel derives its
	// rotation pointers from.
	seen := make(map[int]bool)
	addDiv := func(d int) {
		if d > 0 && !seen[d] {
			seen[d] = true
			n.modDivs = append(n.modDivs, d)
		}
	}
	addDiv(a.VCs())
	for _, r := range n.routers {
		for _, op := range r.out {
			op.peerRouter = n.routers[op.ch.Dst]
			op.peer = op.peerRouter.inPortByChannel(op.ch.ID)
			if op.peer == nil {
				return nil, fmt.Errorf("noc: channel %d has no input port at node %d", op.ch.ID, op.ch.Dst)
			}
		}
		addDiv(len(r.in))
		addDiv(len(r.in) * a.VCs())
	}
	sort.Ints(n.modDivs)
	n.modTab = make([]uint32, n.modDivs[len(n.modDivs)-1]+1)
	n.serial = n.newDecomposition(1)
	n.dec = &n.serial
	return n, nil
}

// Topology returns the network's interconnect graph.
func (n *Network) Topology() topology.Topology { return n.topo }

// Algorithm returns the routing algorithm in use.
func (n *Network) Algorithm() routing.Algorithm { return n.alg }

// Config returns the buffer/interface geometry.
func (n *Network) Config() Config { return n.cfg }

// Cycle returns the number of completed cycles.
func (n *Network) Cycle() uint64 { return n.cycle }

// Collector returns the attached statistics collector.
func (n *Network) Collector() *stats.Collector { return n.col }

// Inject creates a packet from src to dst in src's IP memory at the
// current cycle. It returns an error for invalid endpoints, and
// ErrSourceQueueFull when a bounded source queue is at capacity.
func (n *Network) Inject(src, dst int) error {
	_, err := n.InjectPacket(src, dst)
	return err
}

// InjectPacket is Inject returning a view of the created packet, so
// closed-loop traffic models (request/reply) can correlate deliveries.
// The view is the network's scratch struct, overwritten by the next
// InjectPacket call — copy fields out rather than retain the pointer.
func (n *Network) InjectPacket(src, dst int) (*Packet, error) {
	if src < 0 || src >= n.topo.Nodes() || dst < 0 || dst >= n.topo.Nodes() {
		return nil, fmt.Errorf("noc: inject %d->%d out of range", src, dst)
	}
	if src == dst {
		return nil, fmt.Errorf("noc: inject with src == dst == %d", src)
	}
	q := n.nis[src]
	if n.cfg.SourceQueueCap > 0 && q.queue.len() >= n.cfg.SourceQueueCap {
		return nil, ErrSourceQueueFull
	}
	pi := n.leasePacket(src, dst)
	n.nextPktID++
	n.created++
	q.queue.push(pi)
	n.markSource(src)
	n.materializePacket(&n.injView, pi)
	return &n.injView, nil
}

// leasePacket draws a record from the arena's free stack, falling back
// to arena growth while the stack warms up (or always, when pooling is
// off), and initializes it for the new packet. The flit stamps of the
// record's lastMove window are cleared so a recycled record starts
// indistinguishable from a fresh one.
func (n *Network) leasePacket(src, dst int) int32 {
	a := &n.arena
	var pi int32
	if k := len(a.freeStack); n.pooling && k > 0 {
		pi = a.freeStack[k-1]
		a.freeStack = a.freeStack[:k-1]
		a.free[pi] = false
		a.injected[pi] = 0
		a.hops[pi] = 0
		a.recv[pi] = 0
	} else {
		pi = a.grow()
	}
	a.id[pi] = n.nextPktID
	a.src[pi], a.dst[pi] = int32(src), int32(dst)
	a.created[pi] = n.cycle
	lm := a.lastMove[int(pi)*a.pktLen : (int(pi)+1)*a.pktLen]
	for i := range lm {
		lm[i] = 0
	}
	return pi
}

// recyclePacket returns a fully consumed packet's record to the free
// stack. It runs at tail ejection, after statistics and the OnEject
// observers — which therefore must not retain the packet view past
// their return. A second recycle of the same lease is always an
// accounting bug and panics rather than corrupting the arena.
func (n *Network) recyclePacket(pi int32) {
	if !n.pooling {
		return
	}
	a := &n.arena
	if a.free[pi] {
		panic(fmt.Sprintf("noc: double recycle of %s", n.pktString(pi)))
	}
	a.free[pi] = true
	n.recycled++
	a.freeStack = append(a.freeStack, pi)
}

// PoolSize returns the number of packet records currently resident on
// the arena's free stack.
func (n *Network) PoolSize() int { return len(n.arena.freeStack) }

// SetPooling enables or disables record recycling. The default is
// enabled; the two modes are result-equivalent bit for bit (proven by
// the golden pool-on/pool-off tests), so the toggle changes allocator
// traffic, never results. It must be called before any packet exists —
// on a freshly built or Reset network — because the conservation
// accounting assumes one regime per run. Disabling drops the arena
// population (capacity is kept).
func (n *Network) SetPooling(on bool) {
	if n.created != 0 {
		panic("noc: SetPooling on a network that already created packets")
	}
	n.pooling = on
	if !on {
		n.arena.truncate()
	}
}

// Pooling reports whether packet-record recycling is enabled.
func (n *Network) Pooling() bool { return n.pooling }

// ErrSourceQueueFull reports an Inject refused by a bounded source queue.
var ErrSourceQueueFull = fmt.Errorf("noc: source queue full")

// route computes the next-hop decision for packet pi's head at router
// r, consulting local congestion when the algorithm is adaptive.
func (n *Network) route(r *router, pi int32, vc int) routing.Decision {
	dst := int(n.arena.dst[pi])
	if n.adaptive != nil {
		return n.adaptive.Choose(r.node, dst, vc, congestionView{r: r, cap: n.cfg.OutBufCap})
	}
	return n.alg.Route(r.node, dst, vc)
}

// canAdmit reports whether a new packet's head may be admitted to the
// output queue: wormhole needs one free slot; cut-through and
// store-and-forward reserve space for the whole packet, so a blocked
// packet never straddles routers.
func (n *Network) canAdmit(q *outVC) bool {
	if q.owner >= 0 {
		return false
	}
	if n.cfg.Switching == Wormhole {
		return !q.full(n.cfg.OutBufCap)
	}
	return n.cfg.OutBufCap-q.q.len() >= n.cfg.PacketLen
}

// canDepart reports whether the flit at the head of the output queue
// may traverse the link. Store-and-forward additionally requires the
// packet's tail flit to be resident in the same queue.
func (n *Network) canDepart(q *outVC) bool {
	if n.cfg.Switching != StoreAndForward {
		return true
	}
	head := q.head()
	tail := n.cfg.PacketLen - 1
	if head.seq() == tail {
		return true
	}
	hp := head.pkt()
	for _, h := range q.flits()[1:] {
		if h.pkt() == hp && h.seq() == tail {
			return true
		}
	}
	return false
}

// Step advances the network one clock cycle. The four phases — sink
// ejection, switch traversal, source injection, link traversal — each
// move a flit at most one stage, and a per-flit cycle stamp prevents a
// flit from advancing through two stages in one cycle. The default
// engine runs the activity-driven phase kernel (active.go) as one
// shard; the parallel engine runs the same kernel over several shards
// with deterministic barriers (parallel.go); the sweep engine below
// scans everything and serves as the golden reference both are tested
// against.
func (n *Network) Step() {
	if n.engine == EngineSweep {
		n.stepSweep()
		return
	}
	n.stepShards()
}

// stepSweep is the reference per-cycle sweep over all routers.
func (n *Network) stepSweep() {
	n.moved = false
	n.ejectPhase()
	n.switchPhase()
	n.injectPhase()
	n.linkPhase()
	if n.moved {
		n.lastActivity = n.cycle
	}
	n.cycle++
}

// StepN advances the network k cycles.
func (n *Network) StepN(k int) {
	for i := 0; i < k; i++ {
		n.Step()
	}
}

// ejectPhase consumes up to SinkRate flits per node from input-slot
// heads destined to that node, round-robin across (input port, VC)
// slots. The paper's destination IP consumes flits in FIFO order
// through a single ejection port — the bottleneck of the hot-spot
// scenarios.
func (n *Network) ejectPhase() {
	vcs := n.alg.VCs()
	a := &n.arena
	tail := a.pktLen - 1
	for _, r := range n.routers {
		n.visits++
		budget := n.cfg.SinkRate
		np := len(r.in)
		if np == 0 {
			continue
		}
		slots := np * vcs
		for k := 0; k < slots && budget > 0; k++ {
			s := (r.rrEj + k) % slots
			p := r.in[s/vcs]
			vc := s % vcs
			for budget > 0 && !p.empty(vc) && a.dst[p.head(vc).pkt()] == int32(r.node) {
				h := p.pop(vc)
				pi := h.pkt()
				n.telOcc[r.node]--
				n.telEj[r.node]++
				budget--
				n.moved = true
				a.recv[pi]++
				if h.seq() == tail {
					n.ejected++
					n.col.PacketEjected(n.cycle, a.created[pi], a.injected[pi], a.pktLen, int(a.hops[pi]))
					if n.onEject != nil {
						n.materializePacket(&n.ejView, pi)
						n.onEject(&n.ejView)
					}
					n.recyclePacket(pi)
				}
			}
		}
		r.rrEj = (r.rrEj + 1) % slots
	}
}

// switchPhase moves flits from input slots to output queues. Head
// flits run the routing function and must win the output queue
// (ownership + space); body flits follow their packet's switching
// entry. One flit per input port per cycle (the crossbar input port is
// shared by the port's VC slots, arbitrated round-robin).
func (n *Network) switchPhase() {
	vcs := n.alg.VCs()
	a := &n.arena
	for _, r := range n.routers {
		n.visits++
		np := len(r.in)
		for k := 0; k < np; k++ {
			p := r.in[(r.rrIn+k)%np]
			for j := 0; j < vcs; j++ {
				inVC := (p.rrVC + j) % vcs
				if p.empty(inVC) {
					continue
				}
				h := p.head(inVC)
				pi := h.pkt()
				fi := a.flitIndex(h)
				if a.lastMove[fi] >= n.cycle+1 {
					continue // already advanced this cycle
				}
				if a.dst[pi] == int32(r.node) {
					continue // waits for the ejection phase
				}
				entry := &p.route[inVC]
				if h.seq() == 0 {
					// Heads route afresh on every attempt (adaptive
					// algorithms re-evaluate congestion) and commit
					// switching state only when the output queue is won.
					d := n.route(r, pi, inVC)
					op := r.outPortByDir(d.Dir)
					if op == nil {
						panic(fmt.Sprintf("noc: %s chose missing direction %v at node %d for %s",
							n.alg.Name(), d.Dir, r.node, n.pktString(pi)))
					}
					ovc := op.vcs[d.VC]
					if !n.canAdmit(ovc) {
						continue // allocation denied; retry next cycle
					}
					ovc.owner = pi
					*entry = routeEntry{active: true, port: op, vc: d.VC}
				} else if !entry.active {
					panic(fmt.Sprintf("noc: body flit %s at node %d without switching state", n.flitString(h), r.node))
				}
				ovc := entry.port.vcs[entry.vc]
				if ovc.owner != pi || ovc.full(n.cfg.OutBufCap) {
					continue // space denied; retry next cycle
				}
				p.pop(inVC)
				h = h.withVC(entry.vc)
				a.lastMove[fi] = n.cycle + 1
				ovc.push(h)
				n.moved = true
				if h.seq() == a.pktLen-1 {
					ovc.owner = -1
					entry.active = false
				}
				p.rrVC = (inVC + 1) % vcs
				break // one flit per input port per cycle
			}
		}
		r.rrIn = (r.rrIn + 1) % np
	}
}

// injectPhase lets each NI push up to InjectRate flits of its current
// packet into the local router's output queues, opening the worm with a
// routing decision on the head flit. A blocked ready flit is recorded
// as a source-blocked cycle.
func (n *Network) injectPhase() {
	a := &n.arena
	for node, q := range n.nis {
		r := n.routers[node]
		n.visits++
		budget := n.cfg.InjectRate
		for budget > 0 {
			if q.sending < 0 {
				if q.queue.len() == 0 {
					break
				}
				q.sending = q.queue.pop()
				q.nextSeq = 0
				q.vc = 0
				q.route = routeEntry{}
			}
			pi := q.sending
			if q.nextSeq == 0 && !q.route.active {
				d := n.route(r, pi, 0)
				op := r.outPortByDir(d.Dir)
				if op == nil {
					panic(fmt.Sprintf("noc: %s chose missing direction %v at source %d for %s",
						n.alg.Name(), d.Dir, node, n.pktString(pi)))
				}
				ovc := op.vcs[d.VC]
				if n.canAdmit(ovc) {
					ovc.owner = pi
					q.route = routeEntry{active: true, port: op, vc: d.VC}
				} else {
					n.col.SourceBlocked(n.cycle)
					break
				}
			}
			ovc := q.route.port.vcs[q.route.vc]
			if ovc.full(n.cfg.OutBufCap) {
				n.col.SourceBlocked(n.cycle)
				break
			}
			h := mkFlit(pi, q.nextSeq, q.route.vc)
			a.lastMove[a.flitIndex(h)] = n.cycle + 1
			ovc.push(h)
			n.telOcc[node]++
			n.telInj[node]++
			n.moved = true
			q.nextSeq++
			budget--
			if h.seq() == 0 {
				a.injected[pi] = n.cycle
				n.injected++
				n.col.PacketInjected(n.cycle, a.pktLen)
			}
			if h.seq() == a.pktLen-1 {
				ovc.owner = -1
				q.sending = -1
				q.route = routeEntry{}
			}
		}
	}
}

// linkPhase forwards one flit per physical link from the head of an
// output queue (round-robin across that port's VCs) into the matching
// downstream per-VC input slot, provided the slot has room and the flit
// has not already advanced this cycle.
func (n *Network) linkPhase() {
	a := &n.arena
	for _, r := range n.routers {
		n.visits++
		for _, op := range r.out {
			nv := len(op.vcs)
			sent := false
			for k := 0; k < nv && !sent; k++ {
				vi := (op.rr + k) % nv
				v := op.vcs[vi]
				if v.empty() {
					continue
				}
				h := v.head()
				fi := a.flitIndex(h)
				if a.lastMove[fi] >= n.cycle+1 {
					continue
				}
				if !n.canDepart(v) {
					continue
				}
				ip := op.peer
				if ip.full(vi, n.cfg.InBufCap) {
					continue
				}
				v.pop()
				n.telOcc[r.node]--
				a.lastMove[fi] = n.cycle + 1
				if h.seq() == 0 {
					a.hops[h.pkt()]++
				}
				n.linkFlits[op.ch.ID]++
				ip.push(vi, h)
				n.telOcc[op.ch.Dst]++
				n.moved = true
				sent = true
			}
			op.rr = (op.rr + 1) % nv
		}
	}
}

// CreatedPackets returns the number of packets created by Inject.
func (n *Network) CreatedPackets() uint64 { return n.created }

// EjectedPackets returns the number of packets fully consumed at sinks.
func (n *Network) EjectedPackets() uint64 { return n.ejected }

// InjectedPackets returns the number of packets whose head flit entered
// the network.
func (n *Network) InjectedPackets() uint64 { return n.injected }

// QueuedPackets returns the number of packets waiting in IP source
// queues (including each NI's partially injected packet).
func (n *Network) QueuedPackets() int {
	q := 0
	for _, s := range n.nis {
		q += s.queue.len()
		if s.sending >= 0 {
			q++
		}
	}
	return q
}

// InFlightFlits returns the number of flits resident in router buffers.
func (n *Network) InFlightFlits() int {
	f := 0
	for _, r := range n.routers {
		f += r.bufferedFlits()
	}
	return f
}

// IdleCycles returns how many cycles have elapsed since any flit moved.
// With traffic pending, a large value indicates deadlock (the tests'
// watchdog asserts this never happens for the paper's configurations).
func (n *Network) IdleCycles() uint64 {
	if n.cycle == 0 {
		return 0
	}
	return n.cycle - 1 - n.lastActivity
}

// CheckConservation verifies no flit was lost or duplicated: every
// created packet is queued, in flight, or fully ejected, and in-flight
// flit counts match packet bookkeeping. Under the phase kernel it
// additionally proves the worklist bookkeeping: every buffered flit and
// pending packet is reachable from its phase's active set (a flit off
// its worklist would be stranded forever). The arena invariants are
// proven alongside: every buffered handle is valid (packet index in
// range, seq within the packet, VC within the algorithm's range), no
// live handle references a free record, and — with pooling enabled —
// the free stack holds distinct free-marked records that tile the arena
// exactly with the live population (arena == free + created − ejected);
// without pooling the arena must have grown monotonically (one record
// per created packet, empty free stack). It returns nil when
// consistent.
func (n *Network) CheckConservation() error {
	// Structural handle validity comes first: every later check (the
	// worklist invariant rebuild in particular) dereferences arena
	// fields through buffered handles, so a corrupt word must surface
	// as a diagnostic here rather than an out-of-range panic there.
	if err := n.checkHandles(); err != nil {
		return err
	}
	if err := n.checkWorklistInvariants(); err != nil {
		return err
	}
	a := &n.arena
	inFlight := uint64(0)
	for _, s := range n.nis {
		if s.sending >= 0 {
			inFlight++ // partially injected packet
		}
	}
	// Count distinct packets with flits in buffers that are fully
	// injected but not ejected. Walk buffers and collect into the
	// network-owned scratch bitmap over arena indices (conservation runs
	// once per replication; reusing it keeps the check allocation-free
	// on a warm workspace).
	words := (a.len() + 63) / 64
	if cap(n.consScratch) < words {
		n.consScratch = make([]uint64, words)
	}
	n.consScratch = n.consScratch[:words]
	for i := range n.consScratch {
		n.consScratch[i] = 0
	}
	seen := n.consScratch
	distinct := uint64(0)
	note := func(h flitH) error {
		pi := h.pkt() // in range: checkHandles validated every buffered handle
		if a.free[pi] {
			return fmt.Errorf("noc: pooled packet %s still buffered (double free)", n.pktString(pi))
		}
		if w, b := pi>>6, uint(pi)&63; seen[w]&(1<<b) == 0 {
			seen[w] |= 1 << b
			distinct++
		}
		return nil
	}
	for _, r := range n.routers {
		for _, p := range r.in {
			for i := range p.bufs {
				for _, h := range p.bufs[i].live() {
					if err := note(h); err != nil {
						return err
					}
				}
			}
		}
		for _, op := range r.out {
			for _, v := range op.vcs {
				for _, h := range v.flits() {
					if err := note(h); err != nil {
						return err
					}
				}
			}
		}
		// The telemetry occupancy probe is maintained incrementally by
		// every engine; prove it against the buffer ground truth so a
		// missed increment cannot silently skew captures.
		if got, want := n.telOcc[r.node], int32(r.bufferedFlits()); got != want {
			return fmt.Errorf("noc: node %d telemetry occupancy %d disagrees with buffered flits %d", r.node, got, want)
		}
	}
	queued := uint64(0)
	for _, s := range n.nis {
		queued += uint64(s.queue.len())
		for _, pi := range s.queue.live() {
			if a.free[pi] {
				return fmt.Errorf("noc: pooled packet %s still queued at source %d (double free)", n.pktString(pi), s.node)
			}
		}
		if s.sending >= 0 {
			if a.free[s.sending] {
				return fmt.Errorf("noc: pooled packet %s mid-injection at source %d (double free)", n.pktString(s.sending), s.node)
			}
			// Counted as sending already; drop its buffered-flit mark.
			if w, b := s.sending>>6, uint(s.sending)&63; seen[w]&(1<<b) != 0 {
				seen[w] &^= 1 << b
				distinct--
			}
		}
	}
	netResident := distinct + inFlight
	total := queued + netResident + n.ejected
	if total < n.created {
		return fmt.Errorf("noc: conservation violated: created %d, accounted %d (queued %d, resident %d, ejected %d)",
			n.created, total, queued, netResident, n.ejected)
	}
	// Packets partially ejected still have flits in the network and are
	// counted in netResident, so the total can exceed created only if a
	// packet is double-counted — which the sets above preclude; an
	// overshoot therefore also indicates a bug.
	if total > n.created {
		return fmt.Errorf("noc: conservation violated (overcount): created %d, accounted %d", n.created, total)
	}
	return n.checkPool()
}

// checkHandles walks every router buffer validating that each stored
// handle names a packet inside the arena, a sequence inside the packet
// and a VC inside the algorithm's range.
func (n *Network) checkHandles() error {
	a := &n.arena
	vcs := n.alg.VCs()
	valid := func(h flitH) error {
		if pi := h.pkt(); pi < 0 || int(pi) >= a.len() || h.seq() >= a.pktLen || h.vc() >= vcs {
			return fmt.Errorf("noc: invalid flit handle %#x buffered (arena %d records, packet len %d, %d VCs)",
				uint64(h), a.len(), a.pktLen, vcs)
		}
		return nil
	}
	for _, r := range n.routers {
		for _, p := range r.in {
			for i := range p.bufs {
				for _, h := range p.bufs[i].live() {
					if err := valid(h); err != nil {
						return err
					}
				}
			}
		}
		for _, op := range r.out {
			for _, v := range op.vcs {
				for _, h := range v.flits() {
					if err := valid(h); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// checkPool proves the arena's freelist accounting. Under pooling:
// recycles mirror ejections one for one, the free stack holds exactly
// the recycled-minus-releeased records — each index in range, distinct
// and marked free (the buffer and queue walks in CheckConservation
// already rejected any free record still live) — and the free stack
// plus the live lease population tile the arena record range exactly.
// Without pooling the free stack must be empty and the arena grown one
// record per created packet.
func (n *Network) checkPool() error {
	a := &n.arena
	if !n.pooling {
		if len(a.freeStack) != 0 {
			return fmt.Errorf("noc: pooling disabled but %d records on the free stack", len(a.freeStack))
		}
		if uint64(a.len()) != n.created {
			return fmt.Errorf("noc: pooling disabled but arena holds %d records for %d created packets", a.len(), n.created)
		}
		return nil
	}
	if n.recycled != n.ejected {
		return fmt.Errorf("noc: pool leak: %d packets ejected but %d recycled", n.ejected, n.recycled)
	}
	words := (a.len() + 63) / 64
	if cap(n.poolScratch) < words {
		n.poolScratch = make([]uint64, words)
	}
	n.poolScratch = n.poolScratch[:words]
	for i := range n.poolScratch {
		n.poolScratch[i] = 0
	}
	distinct := n.poolScratch
	for _, pi := range a.freeStack {
		switch {
		case pi < 0 || int(pi) >= a.len():
			return fmt.Errorf("noc: free-stack index %d outside the arena (%d records)", pi, a.len())
		case !a.free[pi]:
			return fmt.Errorf("noc: free stack holds leased packet %s (missing free mark)", n.pktString(pi))
		case distinct[pi>>6]&(1<<(uint(pi)&63)) != 0:
			return fmt.Errorf("noc: packet %s pooled twice (double free)", n.pktString(pi))
		}
		distinct[pi>>6] |= 1 << (uint(pi) & 63)
	}
	if live := n.created - n.ejected; uint64(a.len()) != uint64(len(a.freeStack))+live {
		return fmt.Errorf("noc: arena partition violated: %d records != %d free + %d live leases",
			a.len(), len(a.freeStack), live)
	}
	return nil
}

// Reset returns the network to its just-constructed state — empty
// buffers and queues, zeroed counters and round-robin pointers, no
// ejection callback — while keeping every allocated structure: the
// routers, the per-slot buffer arrays, and above all the packet arena,
// to which all in-flight and queued packets' records are reclaimed
// first (without pooling the arena population is dropped instead, its
// capacity kept). A reset network therefore runs the next scenario bit
// for bit like a freshly built one but with a warm freelist, which is
// what lets a campaign reuse one network across replications instead of
// rebuilding it per run. The engine selection is preserved; pooling may
// be retoggled afterwards (created is back to zero).
func (n *Network) Reset() {
	for _, r := range n.routers {
		for _, p := range r.in {
			for vc := range p.bufs {
				for _, h := range p.bufs[vc].live() {
					n.reclaim(h.pkt())
				}
				p.bufs[vc].reset()
				p.route[vc] = routeEntry{}
			}
			p.rrVC = 0
		}
		for _, op := range r.out {
			for _, v := range op.vcs {
				for _, h := range v.q.live() {
					n.reclaim(h.pkt())
				}
				v.q.reset()
				v.owner = -1
			}
			op.rr = 0
		}
		r.rrIn, r.rrEj = 0, 0
		r.inOcc.zero()
		r.ejOcc.zero()
		r.outOcc.zero()
	}
	for _, s := range n.nis {
		for _, pi := range s.queue.live() {
			n.reclaim(pi)
		}
		s.queue.reset()
		if s.sending >= 0 {
			n.reclaim(s.sending)
			s.sending = -1
		}
		s.nextSeq, s.vc = 0, 0
		s.route = routeEntry{}
	}
	if !n.pooling {
		n.arena.truncate()
	}
	for i := range n.linkFlits {
		n.linkFlits[i] = 0
	}
	for i := range n.telOcc {
		n.telOcc[i] = 0
		n.telInj[i] = 0
		n.telEj[i] = 0
	}
	n.cycle, n.nextPktID = 0, 0
	n.created, n.ejected, n.injected, n.recycled = 0, 0, 0, 0
	n.lastActivity, n.moved = 0, false
	n.visits, n.skipped = 0, 0
	n.barriers, n.specs, n.cdefers = 0, 0, 0
	n.onEject = nil
	n.resetShards()
	n.rebuildModTab()
}

// reclaim returns a still-live packet record to the free stack during
// Reset. A worm spread across several buffers reaches reclaim once per
// flit; the free mark deduplicates. Without pooling the record is
// simply dropped (the arena is truncated by Reset).
func (n *Network) reclaim(pi int32) {
	a := &n.arena
	if !n.pooling || a.free[pi] {
		return
	}
	a.free[pi] = true
	a.freeStack = append(a.freeStack, pi)
}

// flitString renders handle h like Flit.String, for panics and
// conservation errors (cold paths only).
func (n *Network) flitString(h flitH) string {
	n.materializePacket(&n.errView, h.pkt())
	f := Flit{Pkt: &n.errView, Seq: h.seq(), VC: h.vc()}
	return f.String()
}

// Drain runs the network without new injections until all traffic is
// delivered or maxCycles elapse; it returns an error in the latter case
// or if conservation fails. Useful in tests: a network that cannot
// drain is deadlocked.
func (n *Network) Drain(maxCycles int) error {
	for i := 0; i < maxCycles; i++ {
		if n.QueuedPackets() == 0 && n.InFlightFlits() == 0 {
			return n.CheckConservation()
		}
		n.Step()
	}
	if n.QueuedPackets() == 0 && n.InFlightFlits() == 0 {
		return n.CheckConservation()
	}
	return fmt.Errorf("noc: failed to drain after %d cycles: %d queued packets, %d in-flight flits",
		maxCycles, n.QueuedPackets(), n.InFlightFlits())
}
