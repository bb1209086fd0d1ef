package noc

import (
	"fmt"

	"gonoc/internal/topology"
)

// fifo is a head-index queue, the unbounded IP-memory source queue of
// each NI: pop returns the head in O(1) without shifting the remaining
// elements. The backing slice is reset when the queue drains and
// compacted once the dead prefix crosses a threshold, so steady-state
// push/pop traffic cannot grow it without bound. Router buffers, whose
// depth is fixed by the configuration, use slotQ instead.
type fifo[T any] struct {
	items []T
	start int
}

// compactAt is the minimum dead prefix before a fifo considers sliding
// the live elements down; compaction additionally waits until the dead
// prefix covers at least half the backing array, so each compaction
// moves no more elements than the pops that earned it — amortized O(1)
// even for the unbounded NI source queue past saturation.
const compactAt = 32

func (q *fifo[T]) len() int { return len(q.items) - q.start }
func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() T {
	var zero T
	v := q.items[q.start]
	q.items[q.start] = zero
	q.start++
	switch {
	case q.start == len(q.items):
		q.items = q.items[:0]
		q.start = 0
	case q.start >= compactAt && q.start*2 >= len(q.items):
		n := copy(q.items, q.items[q.start:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = zero
		}
		q.items = q.items[:n]
		q.start = 0
	}
	return v
}

// live returns the queued elements in FIFO order. The slice aliases the
// queue; callers must not retain it across a push or pop.
func (q *fifo[T]) live() []T { return q.items[q.start:] }

// reset empties the queue, zeroing the live elements (dropping their
// references) but keeping the backing array for reuse.
func (q *fifo[T]) reset() {
	var zero T
	for i := q.start; i < len(q.items); i++ {
		q.items[i] = zero
	}
	q.items = q.items[:0]
	q.start = 0
}

// bytes reports the resident bytes of the queue's live span at elemSize
// bytes per element (length-based, so the figure is deterministic).
func (q *fifo[T]) bytes(elemSize int) uint64 { return uint64(q.len() * elemSize) }

// slotQ is one router buffer — an input slot or an output VC queue — of
// fixed capacity: the live handles are h[:len] with the head at h[0],
// and cap(h) is the configured depth (Config.InBufCap or OutBufCap).
// The backing arrays of all slots of a network are carved from one
// contiguous handle block, so a push never allocates; a pop shifts the
// at most cap−1 remaining handles down (the paper's depths are 1 and
// 3). Pushing past capacity is a bug in the caller's space check, and
// panics instead of growing the buffer.
type slotQ struct{ h []flitH }

func (q *slotQ) len() int    { return len(q.h) }
func (q *slotQ) free() int   { return cap(q.h) - len(q.h) }
func (q *slotQ) full() bool  { return len(q.h) == cap(q.h) }
func (q *slotQ) head() flitH { return q.h[0] }
func (q *slotQ) reset()      { q.h = q.h[:0] }

// live returns the queued handles in FIFO order. The slice aliases the
// queue; callers must not retain it across a push or pop.
func (q *slotQ) live() []flitH { return q.h }

func (q *slotQ) push(h flitH) {
	q.h = q.h[:len(q.h)+1] // past capacity this panics; append would reallocate
	q.h[len(q.h)-1] = h
}

func (q *slotQ) pop() flitH {
	h := q.h[0]
	q.h = q.h[:copy(q.h, q.h[1:])]
	return h
}

// outVC is one output queue of a physical output channel — the paper's
// "multiple output queues for each physical link". It is a slot queue
// of flit handles with an ownership discipline guaranteeing that the
// flits of two packets never interleave within the queue: owner is the
// arena index of the packet whose worm is currently entering (-1 when
// none), set when its head flit is accepted and cleared when its tail
// flit is accepted (trailing packets then queue strictly behind).
type outVC struct {
	q     slotQ
	owner int32
}

func (v *outVC) full() bool     { return v.q.full() }
func (v *outVC) empty() bool    { return v.q.len() == 0 }
func (v *outVC) head() flitH    { return v.q.head() }
func (v *outVC) pop() flitH     { return v.q.pop() }
func (v *outVC) flits() []flitH { return v.q.live() }

// outPort is one physical output channel with its VC queues and the
// round-robin pointer arbitrating them onto the link.
type outPort struct {
	ch       topology.Channel
	vcs      []outVC
	rr       int // next VC to consider for link traversal
	slotBase int // bit index of vcs[0] in the router's strided slot masks

	// peer and peerRouter cache the downstream input port and router of
	// the channel (resolved once by NewNetwork), sparing the active
	// engine a per-traversal lookup.
	peer       *inPort
	peerRouter *router
}

// routeEntry is the switching state the head flit configures: flits of
// the owning packet arriving on one (input port, VC tag) are forwarded
// to the assigned output queue — the paper's "pre-configured switching
// functions on the output queue of the channel belonging to the path
// opened by the head flit". A nil port means no worm is open.
type routeEntry struct {
	port *outPort
	vc   int
}

// inPort is one incoming link. The receive buffering is one slot queue
// per virtual channel (capacity Config.InBufCap flits each, 1 in the
// paper): virtual-channel flow control demultiplexes arriving flits by
// their VC tag into per-VC slots. A single slot shared by both VCs
// would re-couple them through head-of-line blocking and void the
// dateline deadlock proof: a blocked VC-0 flit occupying the shared
// slot stops VC-1 traffic behind it, letting the dependency chain
// re-enter VC 0 past the dateline and close a cycle.
type inPort struct {
	chID     int          // ID of the incoming channel
	bufs     []slotQ      // per-VC receive slots
	route    []routeEntry // per-VC switching state
	rrVC     int          // round-robin VC pointer for the switch stage
	slotBase int          // bit index of bufs[0] in the router's strided slot masks
}

func (p *inPort) full(vc int) bool  { return p.bufs[vc].full() }
func (p *inPort) empty(vc int) bool { return p.bufs[vc].len() == 0 }
func (p *inPort) head(vc int) flitH { return p.bufs[vc].head() }
func (p *inPort) pop(vc int) flitH  { return p.bufs[vc].pop() }

// buffered counts flits across all VC slots of the port.
func (p *inPort) buffered() int {
	n := 0
	for i := range p.bufs {
		n += p.bufs[i].len()
	}
	return n
}

// router is the switching element of one node.
type router struct {
	node int
	in   []*inPort  // indexed like topology.In(node)
	out  []*outPort // indexed like topology.Out(node)
	rrIn int        // round-robin start for switch allocation
	rrEj int        // round-robin start for the ejection port

	// Slot-occupancy masks for the activity-driven engine, one bit per
	// strided (port, VC) slot (see slotMask for the layout). inOcc
	// marks non-empty input slots; ejOcc the subset whose head flit is
	// destined to this node (so the switch stage skips them and the
	// ejection stage finds them without scanning); outOcc marks
	// non-empty output queues. The sweep engine ignores them; SetEngine
	// rebuilds them from the buffers.
	inOcc  slotMask
	ejOcc  slotMask
	outOcc slotMask

	// freshIn and freshOut enforce the one-stage-per-cycle rule from
	// router-local state, in every engine: a bit is set when a flit is
	// pushed into the empty slot (input slot or output queue) during
	// cycle freshAt, so the slot's head moved this cycle and may not
	// advance again before the next. The rule needs no per-flit state
	// because, within a cycle, every output queue is pushed (switch,
	// inject) before it is popped (link) and every input slot is popped
	// (eject, switch) before it is pushed (link, inbox drain): the head
	// a later stage sees moved this cycle exactly when its slot was
	// empty at that slot's first push of the cycle. (In this phase
	// order the switch stage never meets a fresh input head, since link
	// arrivals come after it; freshIn keeps the rule local to the slot
	// rather than resting on that order.) The masks clear lazily, at
	// the first push of a new cycle (markFresh), so idle routers cost
	// nothing per cycle.
	freshIn  slotMask
	freshOut slotMask
	freshAt  uint64

	// byDir maps a routing direction to its output port (nil when the
	// node has no channel that way); Direction is a small dense enum,
	// so a flat table replaces the linear scan on every routing
	// decision.
	byDir [topology.DirCount]*outPort
}

// markFresh records that the flit just pushed into the empty slot bit
// of m (r.freshIn or r.freshOut) moved during cycle.
func (r *router) markFresh(m slotMask, bit int, cycle uint64) {
	if r.freshAt != cycle {
		r.freshIn.zero()
		r.freshOut.zero()
		r.freshAt = cycle
	}
	m.set(bit)
}

// fresh reports whether the head of slot bit of m moved during cycle.
func (r *router) fresh(m slotMask, bit int, cycle uint64) bool {
	return r.freshAt == cycle && m.test(bit)
}

// pushIn appends h to input slot (p, vc) of r during cycle. Pushing
// into a full buffer here or in pushOut means a caller skipped its
// space check; both panic naming the node, port and VC.
func (r *router) pushIn(p *inPort, vc int, h flitH, cycle uint64) {
	q := &p.bufs[vc]
	if q.full() {
		panic(fmt.Sprintf("noc: node %d input port ch%d VC %d: push past capacity %d",
			r.node, p.chID, vc, cap(q.h)))
	}
	if q.len() == 0 {
		r.markFresh(r.freshIn, p.slotBase+vc, cycle)
	}
	q.push(h)
}

// pushOut appends h to output queue (op, vc) of r during cycle.
func (r *router) pushOut(op *outPort, vc int, h flitH, cycle uint64) {
	q := &op.vcs[vc].q
	if q.full() {
		panic(fmt.Sprintf("noc: node %d output port ch%d (%v to node %d) VC %d: push past capacity %d",
			r.node, op.ch.ID, op.ch.Dir, op.ch.Dst, vc, cap(q.h)))
	}
	if q.len() == 0 {
		r.markFresh(r.freshOut, op.slotBase+vc, cycle)
	}
	q.push(h)
}

// newRouters builds every node's switching element. The router
// structs, the backing handle arrays of every buffer, and the slot
// masks each live in one contiguous block per network; each router's
// ports, per-VC slots, switching entries and output queues live in a
// few blocks of its own. Per-router blocks depend only on the node's
// degree, so they reuse the allocator's small size classes across
// routers and networks instead of claiming fresh spans per network
// size — which keeps a cold build's heap growth, and with it the
// garbage collections it can trigger, no larger than the allocation
// itself. stride is the power-of-two mask stride ports are spaced at
// (Network.stride); inCap and outCap are the input-slot and
// output-queue depths.
func newRouters(t topology.Topology, vcs, stride, inCap, outCap int) []*router {
	nodes := t.Nodes()
	slots, words := 0, 0
	for v := 0; v < nodes; v++ {
		ins, outs := len(t.In(v)), len(t.Out(v))
		slots += ins*vcs*inCap + outs*vcs*outCap
		words += 3*maskWords(ins*stride) + 2*maskWords(outs*stride)
	}
	rs := make([]router, nodes)
	ptrs := make([]*router, nodes)
	handles := make([]flitH, slots)
	maskBlock := make([]uint64, words)
	carve := func(depth int) []flitH {
		q := handles[:0:depth]
		handles = handles[depth:]
		return q
	}
	mask := func(bits int) slotMask {
		m := slotMask(maskBlock[:maskWords(bits)])
		maskBlock = maskBlock[len(m):]
		return m
	}
	for v := range rs {
		r := &rs[v]
		ptrs[v] = r
		r.node = v
		ins, outs := t.In(v), t.Out(v)
		inBlock := make([]inPort, len(ins))
		r.in = make([]*inPort, len(ins))
		bufBlock, routeBlock := make([]slotQ, len(ins)*vcs), make([]routeEntry, len(ins)*vcs)
		for i, c := range ins {
			p := &inBlock[i]
			p.chID, p.slotBase = c.ID, i*stride
			p.bufs = bufBlock[i*vcs : (i+1)*vcs]
			p.route = routeBlock[i*vcs : (i+1)*vcs]
			for vc := range p.bufs {
				p.bufs[vc].h = carve(inCap)
			}
			r.in[i] = p
		}
		outBlock, vcBlock := make([]outPort, len(outs)), make([]outVC, len(outs)*vcs)
		r.out = make([]*outPort, len(outs))
		for i, c := range outs {
			op := &outBlock[i]
			op.ch, op.slotBase = c, i*stride
			op.vcs = vcBlock[i*vcs : (i+1)*vcs]
			for vc := range op.vcs {
				op.vcs[vc].q.h = carve(outCap)
				op.vcs[vc].owner = -1
			}
			r.out[i] = op
			if int(c.Dir) < len(r.byDir) && r.byDir[c.Dir] == nil {
				r.byDir[c.Dir] = op // first match, like the scan it replaces
			}
		}
		r.inOcc, r.ejOcc, r.freshIn = mask(len(ins)*stride), mask(len(ins)*stride), mask(len(ins)*stride)
		r.outOcc, r.freshOut = mask(len(outs)*stride), mask(len(outs)*stride)
	}
	return ptrs
}

// outPortByDir returns the output port in the given direction, or nil.
func (r *router) outPortByDir(d topology.Direction) *outPort {
	if int(d) < len(r.byDir) {
		return r.byDir[d]
	}
	return nil
}

// inPortByChannel returns the input port for channel id, or nil.
func (r *router) inPortByChannel(id int) *inPort {
	for _, p := range r.in {
		if p.chID == id {
			return p
		}
	}
	return nil
}

// bufferedFlits counts flits resident in this router's buffers.
func (r *router) bufferedFlits() int {
	n := 0
	for _, p := range r.in {
		n += p.buffered()
	}
	for _, p := range r.out {
		for vc := range p.vcs {
			n += p.vcs[vc].q.len()
		}
	}
	return n
}
