package noc

import (
	"fmt"
	"math/bits"
)

// This file is the activity-driven simulation core: the one phase
// kernel behind Network.Step for both EngineActive and EngineParallel.
// Instead of sweeping every router × port × VC in all four phases each
// cycle (the reference engine in network.go, kept as EngineSweep for
// cross-checking), each phase drains an incremental worklist at two
// granularities: bitmap active sets over nodes select which
// routers/sources a phase visits at all, and per-router slot-occupancy
// masks (router.inOcc/ejOcc/outOcc, one bit per strided port × VC slot,
// see mask.go) select which slots a visit touches — both updated
// exactly where flits move, so a cycle's cost is proportional to
// in-flight work, not network size. The worklists belong to the shards
// of a decomposition: the serial engine is the one-shard case, a single
// shard covering every router with no workers, barriers, mailboxes or
// credit waits; parallel.go adds the multi-shard machinery around the
// same phase functions. Determinism is preserved by construction: sets
// drain in ascending node order (the reference engine's iteration
// order), ports in the reference rotated order with per-port mask
// extraction, slots in the reference round-robin order, and the
// per-cycle round-robin pointers, which the reference engine advances
// unconditionally once per cycle, are derived from the cycle counter
// instead of stored, so skipping an idle router (or fast-forwarding
// whole idle cycles via SkipTo) cannot perturb arbitration. The
// cross-engine golden tests assert bit-identical Results against
// EngineSweep for every scenario class.

// Engine selects the implementation behind Network.Step.
type Engine int

const (
	// EngineActive is the activity-driven engine (the default): the
	// phase kernel over the one-shard decomposition, visiting only
	// routers with buffered flits and sources with pending packets.
	EngineActive Engine = iota
	// EngineSweep is the reference engine: every phase scans all
	// routers. It is retained as the golden oracle for equivalence
	// tests and as a debugging fallback.
	EngineSweep
	// EngineParallel is the domain-decomposed engine (parallel.go): the
	// same phase kernel over contiguous router shards run by a worker
	// group between deterministic barriers, producing results
	// bit-identical to EngineActive at every shard count.
	EngineParallel
)

// String returns the engine's conventional name.
func (e Engine) String() string {
	switch e {
	case EngineActive:
		return "active"
	case EngineSweep:
		return "sweep"
	case EngineParallel:
		return "parallel"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// activeSet is a fixed-capacity bitmap of node indices, drained in
// ascending order so worklist scheduling cannot reorder arbitration.
type activeSet struct {
	words []uint64
}

func newActiveSet(n int) activeSet {
	return activeSet{words: make([]uint64, (n+63)/64)}
}

func (s *activeSet) add(i int)    { s.words[i>>6] |= 1 << (uint(i) & 63) }
func (s *activeSet) remove(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

func (s *activeSet) has(i int) bool {
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (s *activeSet) clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// forEach visits the members in ascending order. fn may remove the
// member currently being visited and may add or remove members of
// *other* sets; inserting new members into this set mid-iteration is
// not supported (no phase needs it — each phase only retires its own
// worklist entries and feeds the worklists of later phases).
func (s *activeSet) forEach(fn func(i int)) {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			fn(base + b)
		}
	}
}

// worklists is one complete set of phase worklists: the ejection,
// switch, link and injection active sets. Every shard keeps one,
// covering only the shard's contiguous router range, so two shards
// never write the same bitmap word concurrently.
type worklists struct {
	ej  activeSet // routers with a locally-destined input head
	sw  activeSet // routers with a transit input head
	out activeSet // routers with non-empty output queues
	ni  activeSet // sources with pending packets
}

func newWorklists(n int) worklists {
	return worklists{ej: newActiveSet(n), sw: newActiveSet(n), out: newActiveSet(n), ni: newActiveSet(n)}
}

func (w *worklists) clear() {
	w.ej.clear()
	w.sw.clear()
	w.out.clear()
	w.ni.clear()
}

// worklistsOf returns the worklists of the running decomposition's
// shard that owns node.
func (n *Network) worklistsOf(node int) *worklists {
	d := n.dec
	return &d.shards[d.shardOf[node]].wl
}

// markSource enrolls src in the injection worklist that owns it (the
// sweep engine ignores the sets, so the stray add is harmless and keeps
// InjectPacket branch-free on the engine).
func (n *Network) markSource(src int) { n.worklistsOf(src).ni.add(src) }

// --- worklist maintenance, called wherever the phase kernel moves a
// flit, against the worklists that own the touched router (wl). The sweep engine bypasses these (it pops/pushes the
// buffers directly); SetEngine rebuilds all masks and sets.

// refreshInSets recomputes node's membership in the ejection and
// switch worklists from its input-slot masks: the ejection stage wants
// routers with a locally-destined head anywhere, the switch stage
// routers with a transit head (non-empty slot whose head travels on).
func (n *Network) refreshInSets(wl *worklists, node int, r *router) {
	if r.ejOcc.any() {
		wl.ej.add(node)
	} else {
		wl.ej.remove(node)
	}
	if r.inOcc.anyOutside(r.ejOcc) {
		wl.sw.add(node)
	} else {
		wl.sw.remove(node)
	}
}

// inPop removes the head of p's vc slot, re-deriving the slot's
// occupancy and head-locality bits from the newly exposed head.
func (n *Network) inPop(wl *worklists, node int, r *router, p *inPort, vc int) flitH {
	h := p.pop(vc)
	n.telOcc[node]--
	bit := p.slotBase + vc
	switch {
	case p.bufs[vc].len() == 0:
		r.inOcc.clearBit(bit)
		r.ejOcc.clearBit(bit)
	case n.arena.dst[p.head(vc).pkt()] == int32(r.node):
		r.ejOcc.set(bit)
	default:
		r.ejOcc.clearBit(bit)
	}
	n.refreshInSets(wl, node, r)
	return h
}

// inPush appends h to p's vc slot of the downstream router. Under a
// multi-shard decomposition it is called concurrently by the shard passes — for
// same-shard link deliveries and for the end-of-pass inbox drains —
// but always with node owned by the calling shard and wl that shard's
// own worklists, so every write (buffer, masks, telemetry counters,
// worklist bitmaps) has a single writer per cycle.
func (n *Network) inPush(wl *worklists, node int, r *router, p *inPort, vc int, h flitH) {
	wasEmpty := p.empty(vc)
	r.pushIn(p, vc, h, n.cycle)
	n.telOcc[node]++
	bit := p.slotBase + vc
	r.inOcc.set(bit)
	if wasEmpty && n.arena.dst[h.pkt()] == int32(r.node) {
		r.ejOcc.set(bit)
	}
	n.refreshInSets(wl, node, r)
}

// outPush appends h to the output queue (op, vc) of node's router.
func (n *Network) outPush(wl *worklists, node int, r *router, op *outPort, vc int, h flitH) {
	r.pushOut(op, vc, h, n.cycle)
	n.telOcc[node]++
	r.outOcc.set(op.slotBase + vc)
	wl.out.add(node)
}

// outPop removes the head of the output queue (op, vc), retiring the
// slot — and, when the router's last output drains, the router — from
// the link worklist.
func (n *Network) outPop(wl *worklists, node int, r *router, op *outPort, vc int) flitH {
	v := &op.vcs[vc]
	h := v.pop()
	n.telOcc[node]--
	if v.empty() {
		r.outOcc.clearBit(op.slotBase + vc)
		if !r.outOcc.any() {
			wl.out.remove(node)
		}
	}
	return h
}

// stepShards advances one cycle under the running decomposition. The
// one-shard decomposition (EngineActive, and EngineParallel at width 1)
// runs the phase passes below back to back on the calling goroutine;
// wider decompositions hand the same passes to the worker group
// (stepWorkers, parallel.go). Either way a cycle is one ejection pass
// whose tail completions are replayed after it, one switch+inject pass
// whose collector events are deferred to the cycle end, and one link
// pass; finishCycle replays the deferred events and closes the cycle.
func (n *Network) stepShards() {
	n.moved = false
	if len(n.dec.shards) > 1 {
		n.stepWorkers()
		return
	}
	s := &n.dec.shards[0]
	n.ejectShard(s)
	n.replayEjections()
	n.switchInjectShard(s)
	n.linkShard(s, 0)
	n.finishCycle()
}

// ejectShard mirrors the reference ejectPhase over one shard's routers
// holding locally-destined input heads, touching only the slots whose
// bit is set in ejOcc. rrEj is derived: the reference advances it by
// one every cycle for every router, so during cycle c it equals c mod
// slots. The rotation runs over logical slot indices (port × VCs + vc,
// the reference modulus), stepped as a (port, vc) pair with wrap-around
// instead of divided out; each maps to its strided mask bit for the
// occupancy test. Every tail-ejection completion is deferred: the pops,
// mask updates and per-packet receive accounting are shard-local (a
// packet's flits all eject at its unique destination), while
// statistics, the OnEject callback and the arena recycle run in
// replayEjections.
func (n *Network) ejectShard(s *shard) {
	vcs := n.alg.VCs()
	a := &n.arena
	tail := a.pktLen - 1
	s.wl.ej.forEach(func(node int) {
		r := n.routers[node]
		s.visits++
		budget := n.cfg.SinkRate
		np := len(r.in)
		if np == 0 {
			return
		}
		slots := np * vcs
		// Split rrEj = pi*vcs + vc by subtraction: pi < np is small.
		pi, vc := 0, int(n.modTab[slots])
		for vc >= vcs {
			vc -= vcs
			pi++
		}
		for k := 0; k < slots && budget > 0; k++ {
			if k > 0 {
				if vc++; vc == vcs {
					vc = 0
					if pi++; pi == np {
						pi = 0
					}
				}
			}
			p := r.in[pi]
			if !r.ejOcc.test(p.slotBase + vc) {
				continue
			}
			for budget > 0 && !p.empty(vc) && a.dst[p.head(vc).pkt()] == int32(r.node) {
				h := n.inPop(&s.wl, node, r, p, vc)
				pi := h.pkt()
				n.telEj[node]++
				budget--
				s.moved = true
				a.recv[pi]++
				if h.seq() == tail {
					s.ej = append(s.ej, pi)
				}
			}
		}
	})
}

// replayEjections applies the deferred ejection completions in shard
// order — which, shards being contiguous and each buffer append-ordered
// by the ascending-node walk, is exactly the reference engine's
// ejection order. Statistics, the OnEject callback (whose reply
// injections may lease from the arena and land in any shard's source
// worklist) and the recycle therefore interleave precisely as in
// EngineSweep. In the fused (callback-free) multi-shard cycle this runs
// at the cycle-end barrier: no lease, recycle or collector event can
// occur between a tail ejection and the barrier, so deferring the
// completions there is unobservable.
func (n *Network) replayEjections() {
	a := &n.arena
	shards := n.dec.shards
	for i := range shards {
		s := &shards[i]
		for _, pi := range s.ej {
			n.ejected++
			n.col.PacketEjected(n.cycle, a.created[pi], a.injected[pi], a.pktLen, int(a.hops[pi]))
			if n.onEject != nil {
				n.materializePacket(&n.ejView, pi)
				n.onEject(&n.ejView)
			}
			n.recyclePacket(pi)
		}
		s.ej = s.ej[:0]
	}
}

// switchInjectShard runs the switch-traversal and injection phases over
// one shard. The switch pass mirrors the reference switchPhase over
// routers holding transit heads, visiting the ports in the reference
// rotated order (rrIn derived like rrEj) and extracting each port's
// transit occupancy (inOcc minus the locally destined heads, which wait
// for the ejection stage) from the strided masks in one shift; ports
// with no transit head are skipped. Fusing switch and injection into
// one span is sound because both phases read and write only the state
// of the visited router and its NI — the reference engine's global
// phase boundary orders nothing that two different routers could
// observe.
func (n *Network) switchInjectShard(s *shard) {
	vcs := n.alg.VCs()
	s.wl.sw.forEach(func(node int) {
		r := n.routers[node]
		s.visits++
		np := len(r.in)
		rrIn := int(n.modTab[np])
		for k := 0; k < np; k++ {
			pi := rrIn + k
			if pi >= np {
				pi -= np
			}
			p := r.in[pi]
			occ := r.inOcc.port(p.slotBase, vcs) &^ r.ejOcc.port(p.slotBase, vcs)
			if occ == 0 {
				continue
			}
			if n.switchPort(&s.wl, r, p, occ, vcs) {
				s.moved = true
			}
		}
	})
	n.injectShard(s)
}

// switchPort runs the reference per-port VC arbitration over the
// occupied transit slots of one input port (occ holds the port's VC
// occupancy in its low bits): first movable flit in rrVC order wins
// the port's crossbar input for this cycle. It maintains the masks and
// the calling shard's worklists, and reports whether a flit moved.
func (n *Network) switchPort(wl *worklists, r *router, p *inPort, occ uint64, vcs int) bool {
	for j := 0; j < vcs; j++ {
		inVC := p.rrVC + j
		if inVC >= vcs {
			inVC -= vcs
		}
		if occ&(1<<uint(inVC)) == 0 || r.fresh(r.freshIn, p.slotBase+inVC, n.cycle) {
			continue // empty, or already advanced this cycle
		}
		h := p.head(inVC)
		pi := h.pkt()
		entry := &p.route[inVC]
		if h.seq() == 0 {
			d := n.route(r, pi, inVC)
			op := r.outPortByDir(d.Dir)
			if op == nil {
				panic(fmt.Sprintf("noc: %s chose missing direction %v at node %d for %s",
					n.alg.Name(), d.Dir, r.node, n.pktString(pi)))
			}
			ovc := &op.vcs[d.VC]
			if !n.canAdmit(ovc) {
				continue // allocation denied; retry next cycle
			}
			ovc.owner = pi
			*entry = routeEntry{port: op, vc: d.VC}
		} else if entry.port == nil {
			panic(fmt.Sprintf("noc: body flit %s at node %d without switching state", n.flitString(h), r.node))
		}
		ovc := &entry.port.vcs[entry.vc]
		if ovc.owner != pi || ovc.full() {
			continue // space denied; retry next cycle
		}
		n.inPop(wl, r.node, r, p, inVC)
		h = h.withVC(entry.vc)
		n.outPush(wl, r.node, r, entry.port, entry.vc, h)
		if h.seq() == n.arena.pktLen-1 {
			ovc.owner = -1
			entry.port = nil
		}
		if p.rrVC = inVC + 1; p.rrVC == vcs {
			p.rrVC = 0
		}
		return true // one flit per input port per cycle
	}
	return false
}

// injectShard mirrors the reference injectPhase over one shard's
// sources with pending packets, retiring a source once its IP memory
// and in-progress worm drain. The collector events (packet acceptances,
// source-blocked cycles) are deferred to finishCycle; everything else —
// source queue, worm state, the output-queue pushes, the packet's
// injection stamp (its source is unique to this shard) — is local to
// the shard.
func (n *Network) injectShard(s *shard) {
	a := &n.arena
	s.wl.ni.forEach(func(node int) {
		q := n.nis[node]
		r := n.routers[node]
		s.visits++
		budget := n.cfg.InjectRate
		for budget > 0 {
			if q.sending < 0 {
				if q.queue.len() == 0 {
					break
				}
				q.sending = q.queue.pop()
				q.nextSeq = 0
				q.route = routeEntry{}
			}
			pi := q.sending
			if q.nextSeq == 0 && q.route.port == nil {
				d := n.route(r, pi, 0)
				op := r.outPortByDir(d.Dir)
				if op == nil {
					panic(fmt.Sprintf("noc: %s chose missing direction %v at source %d for %s",
						n.alg.Name(), d.Dir, node, n.pktString(pi)))
				}
				ovc := &op.vcs[d.VC]
				if n.canAdmit(ovc) {
					ovc.owner = pi
					q.route = routeEntry{port: op, vc: d.VC}
				} else {
					s.blocked++
					break
				}
			}
			ovc := &q.route.port.vcs[q.route.vc]
			if ovc.full() {
				s.blocked++
				break
			}
			h := mkFlit(pi, q.nextSeq, q.route.vc)
			n.outPush(&s.wl, node, r, q.route.port, q.route.vc, h)
			n.telInj[node]++
			s.moved = true
			q.nextSeq++
			budget--
			if h.seq() == 0 {
				a.injected[pi] = n.cycle
				s.accepted++
			}
			if h.seq() == a.pktLen-1 {
				ovc.owner = -1
				q.sending = -1
				q.route = routeEntry{}
			}
		}
		if q.sending < 0 && q.queue.len() == 0 {
			s.wl.ni.remove(node)
		}
	})
}

// linkShard mirrors the reference linkPhase over one shard's routers
// holding output flits, visiting the output ports in the reference
// ascending order and extracting each port's occupancy from the strided
// mask; empty ports are skipped. op.rr is derived like the other
// round-robin pointers. g is the worker group's pass generation (unused
// by the one-shard decomposition, which has no cross-shard port).
func (n *Network) linkShard(s *shard, g uint64) {
	vcs := n.alg.VCs()
	rrVC := int(n.modTab[vcs]) // every port has alg.VCs() queues
	s.wl.out.forEach(func(node int) {
		r := n.routers[node]
		s.visits++
		for _, op := range r.out {
			occ := r.outOcc.port(op.slotBase, vcs)
			if occ == 0 {
				continue
			}
			n.linkPort(s, node, r, op, occ, vcs, rrVC, g)
		}
	})
}

// linkPort runs the reference per-link VC arbitration over one output
// port's occupied queues (occ holds the port's VC occupancy in its low
// bits): the first departable head in rr order traverses the link. An
// arrival into a router of the same shard is applied directly with an
// exact occupancy check (all of this shard's pops already ran, and no
// other shard pushes into this shard's input slots). Only a
// multi-shard decomposition has ports whose destination lies outside
// the running shard's range; their decision consults the cycle-start
// credit counter (decomposition.credits): a positive count proves the
// slot still has room at the serial decision point (its occupancy can
// only have shrunk — the single producer is this port), so the flit
// departs on the spot; a zero count means the owner's pops this cycle
// decide, so the port waits for the downstream shard's popsDone mark
// and re-reads exact occupancy — the identical check the serial link
// sweep performs. Either way the cross-shard delivery itself travels
// through the pair mailbox (pushing into a foreign shard's bookkeeping
// directly would race with its own pass) and is drained by the
// receiving shard at the end of its pass. Both outcomes reproduce the
// serial round-robin decision exactly.
func (n *Network) linkPort(s *shard, node int, r *router, op *outPort, occ uint64, vcs, rr int, g uint64) {
	for k := 0; k < vcs; k++ {
		vi := rr + k
		if vi >= vcs {
			vi -= vcs
		}
		if occ&(1<<uint(vi)) == 0 || r.fresh(r.freshOut, op.slotBase+vi, n.cycle) {
			continue // empty, or entered this cycle
		}
		if !n.canDepart(&op.vcs[vi]) {
			continue
		}
		dst := op.ch.Dst
		cross := dst < s.lo || dst >= s.hi
		t := 0
		if cross {
			t = int(n.dec.shardOf[dst])
			if c := &n.dec.credits[op.ch.ID*vcs+vi]; *c > 0 {
				*c--
				s.specs++
			} else {
				s.cdefers++
				n.pr.awaitMark(n.pr.popsDone, t, g)
				if op.peer.full(vi) {
					continue
				}
			}
		} else if op.peer.full(vi) {
			continue
		}
		h := n.outPop(&s.wl, node, r, op, vi)
		if h.seq() == 0 {
			n.arena.hops[h.pkt()]++
		}
		n.linkFlits[op.ch.ID]++
		if cross {
			s.outbox[t] = append(s.outbox[t], pushRecord{node: dst, p: op.peer, vc: vi, h: h})
		} else {
			n.inPush(&s.wl, dst, op.peerRouter, op.peer, vi, h)
		}
		s.moved = true
		return // one flit per physical link per cycle
	}
}

// finishCycle is the end-of-cycle serial section: replay the deferred
// injection statistics, merge the per-shard scratch counters, advance
// the cycle and its derived round-robin pointers, and refresh the
// boundary credits for the next cycle's speculation.
func (n *Network) finishCycle() {
	shards := n.dec.shards
	for i := range shards {
		s := &shards[i]
		for ; s.accepted > 0; s.accepted-- {
			n.injected++
			n.col.PacketInjected(n.cycle, n.arena.pktLen)
		}
		for ; s.blocked > 0; s.blocked-- {
			n.col.SourceBlocked(n.cycle)
		}
		if s.moved {
			n.moved = true
			s.moved = false
		}
		n.visits += s.visits
		s.visits = 0
		n.specs += s.specs
		s.specs = 0
		n.cdefers += s.cdefers
		s.cdefers = 0
	}
	if n.moved {
		n.lastActivity = n.cycle
	}
	n.cycle++
	// Advance cycle % d for every registered round-robin divisor by
	// increment — cheaper than one division per visited router.
	for _, d := range n.modDivs {
		v := n.modTab[d] + 1
		if v == uint32(d) {
			v = 0
		}
		n.modTab[d] = v
	}
	n.refreshBoundaryCredits()
}

// SetEngine selects the implementation behind Step. Switching is legal
// at any point: the worklists are rebuilt from the buffers, so a
// network mid-simulation carries its state over exactly. Leaving
// EngineParallel stops its worker goroutines.
func (n *Network) SetEngine(e Engine) {
	n.StopWorkers()
	switch e {
	case EngineActive:
		n.dec = &n.serial
		n.rebuildSets()
	case EngineParallel:
		if n.shardCount == 0 {
			n.shardCount = defaultShards(n.topo.Nodes())
		}
		n.buildShards()
		n.rebuildSets()
	case EngineSweep:
	default:
		panic(fmt.Sprintf("noc: unknown engine %d", int(e)))
	}
	n.engine = e
}

// Engine returns the engine currently driving Step.
func (n *Network) Engine() Engine { return n.engine }

// rebuildSets recomputes the slot masks from the ground truth in the
// buffers, re-enrolls every node in the worklists of the running
// decomposition's owning shard, and refreshes the boundary credits. The
// sweep engine does not maintain the masks or sets, so every engine
// entry and every change of decomposition starts here.
func (n *Network) rebuildSets() {
	for i := range n.dec.shards {
		n.dec.shards[i].wl.clear()
	}
	n.rebuildModTab()
	for node, r := range n.routers {
		wl := n.worklistsOf(node)
		r.inOcc.zero()
		r.ejOcc.zero()
		r.outOcc.zero()
		n.deriveMasks(r, r.inOcc, r.ejOcc, r.outOcc)
		n.refreshInSets(wl, node, r)
		if r.outOcc.any() {
			wl.out.add(node)
		}
		s := n.nis[node]
		if s.sending >= 0 || s.queue.len() > 0 {
			wl.ni.add(node)
		}
	}
	n.refreshBoundaryCredits()
}

// deriveMasks sets in the zeroed masks in, ej and out the slot bits of
// router r's occupied input slots, locally-destined input heads and
// occupied output queues, read from the ground truth in the buffers. It
// reports whether r holds any ejectable, transit or output flit.
func (n *Network) deriveMasks(r *router, in, ej, out slotMask) (hasEj, hasTransit, hasOut bool) {
	for _, p := range r.in {
		for vc := range p.bufs {
			if p.empty(vc) {
				continue
			}
			bit := p.slotBase + vc
			in.set(bit)
			if n.arena.dst[p.head(vc).pkt()] == int32(r.node) {
				ej.set(bit)
				hasEj = true
			} else {
				hasTransit = true
			}
		}
	}
	for _, op := range r.out {
		for vc := range op.vcs {
			if !op.vcs[vc].empty() {
				out.set(op.slotBase + vc)
				hasOut = true
			}
		}
	}
	return hasEj, hasTransit, hasOut
}

// checkWorklistInvariants verifies that no buffered flit or pending
// packet has fallen off the worklist of its owning shard (which would
// strand it forever) and that the incremental slot masks match the
// buffers; checkShardInvariants additionally proves the decomposition's
// own bookkeeping. It participates in CheckConservation, so every
// conservation-checked run also proves the worklist bookkeeping.
func (n *Network) checkWorklistInvariants() error {
	if n.engine == EngineSweep {
		return nil
	}
	if err := n.checkShardInvariants(); err != nil {
		return err
	}
	for node, r := range n.routers {
		wl := n.worklistsOf(node)
		// Rebuild into the network-owned scratch masks: conservation
		// runs once per replication and must stay allocation-free on a
		// warm workspace, like the rest of the check.
		n.invIn = resizeMask(n.invIn, len(r.in)*n.stride)
		n.invEj = resizeMask(n.invEj, len(r.in)*n.stride)
		n.invOut = resizeMask(n.invOut, len(r.out)*n.stride)
		inOcc, ejOcc, outOcc := n.invIn, n.invEj, n.invOut
		hasEj, hasTransit, hasOut := n.deriveMasks(r, inOcc, ejOcc, outOcc)
		if !inOcc.eq(r.inOcc) || !ejOcc.eq(r.ejOcc) || !outOcc.eq(r.outOcc) {
			return fmt.Errorf("noc: node %d slot masks (in %v, ej %v, out %v) disagree with buffers (in %v, ej %v, out %v)",
				node, r.inOcc, r.ejOcc, r.outOcc, inOcc, ejOcc, outOcc)
		}
		if hasEj && !wl.ej.has(node) {
			return fmt.Errorf("noc: node %d holds ejectable flits but is off the ejection worklist", node)
		}
		if hasTransit && !wl.sw.has(node) {
			return fmt.Errorf("noc: node %d holds transit flits but is off the switch worklist", node)
		}
		if hasOut && !wl.out.has(node) {
			return fmt.Errorf("noc: node %d holds output flits but is off the link worklist", node)
		}
		s := n.nis[node]
		if (s.sending >= 0 || s.queue.len() > 0) && !wl.ni.has(node) {
			return fmt.Errorf("noc: source %d has pending packets but is off the injection worklist", node)
		}
	}
	return nil
}

// rebuildModTab re-derives cycle % d for every registered divisor
// after a discontinuous cycle change (SkipTo, engine switch).
func (n *Network) rebuildModTab() {
	for _, d := range n.modDivs {
		n.modTab[d] = uint32(n.cycle % uint64(d))
	}
}

// Quiescent reports whether the network holds no traffic at all — no
// queued, partially injected, in-flight, or partially ejected packets.
// Every created packet is queued, resident, or fully ejected
// (CheckConservation), so created == ejected is exact and O(1); the
// idle fast-forward in core.Run gates on it every cycle.
func (n *Network) Quiescent() bool { return n.created == n.ejected }

// SkipTo advances the cycle counter to the given cycle without
// simulating the intervening cycles. It is only legal while the
// network is quiescent: with no flit anywhere and no packet pending, a
// cycle moves nothing, touches no statistics, and — because the
// round-robin pointers are derived from the cycle counter — leaves
// arbitration state exactly as if it had been stepped. Earlier or
// current targets are a no-op.
func (n *Network) SkipTo(cycle uint64) {
	if cycle <= n.cycle {
		return
	}
	if !n.Quiescent() {
		panic(fmt.Sprintf("noc: SkipTo(%d) on a non-quiescent network at cycle %d", cycle, n.cycle))
	}
	delta := cycle - n.cycle
	n.skipped += delta
	n.cycle = cycle
	n.rebuildModTab()
	if n.engine == EngineSweep {
		// The sweep engine stores its round-robin pointers and advances
		// them once per cycle even when idle; replay the skipped
		// advances so the two engines stay interchangeable.
		for _, r := range n.routers {
			if np := len(r.in); np > 0 {
				vcs := n.alg.VCs()
				r.rrEj = (r.rrEj + int(delta%uint64(np*vcs))) % (np * vcs)
				r.rrIn = (r.rrIn + int(delta%uint64(np))) % np
			}
			for _, op := range r.out {
				nv := len(op.vcs)
				op.rr = (op.rr + int(delta%uint64(nv))) % nv
			}
		}
	}
}
