package noc

import (
	"fmt"
	"strings"
	"testing"

	"gonoc/internal/routing"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

// testSlot returns an empty slot queue of the given depth.
func testSlot(depth int) slotQ { return slotQ{h: make([]flitH, 0, depth)} }

func TestSlotQueueFIFO(t *testing.T) {
	q := testSlot(3)
	for i := 0; i < 3; i++ {
		if q.full() {
			t.Fatalf("full after %d of 3 pushes", i)
		}
		q.push(mkFlit(0, i, 0))
	}
	if !q.full() || q.free() != 0 || q.len() != 3 {
		t.Fatalf("fill state wrong: len %d free %d", q.len(), q.free())
	}
	// A pop shifts the survivors down: the head is always index 0 and
	// the backing array never moves.
	base := &q.h[:1][0]
	for i := 0; i < 3; i++ {
		if h := q.head(); h.seq() != i {
			t.Fatalf("head before pop %d: seq %d", i, h.seq())
		}
		if h := q.pop(); h.seq() != i {
			t.Fatalf("pop order: got seq %d at position %d", h.seq(), i)
		}
		for j, h := range q.live() {
			if h.seq() != i+1+j {
				t.Fatalf("after pop %d, slot %d holds seq %d", i, j, h.seq())
			}
		}
		if cap(q.h) != 3 || &q.h[:1][0] != base {
			t.Fatal("pop moved or resized the backing array")
		}
	}
	if q.len() != 0 || q.free() != 3 {
		t.Fatal("queue not empty after draining")
	}
	// Interleaved traffic wraps through the fixed storage indefinitely.
	for i := 0; i < 10; i++ {
		q.push(mkFlit(1, i, 1))
		q.push(mkFlit(1, i+100, 1))
		if h := q.pop(); h.seq() != i {
			t.Fatalf("interleaved pop %d: seq %d", i, h.seq())
		}
		if h := q.pop(); h.seq() != i+100 {
			t.Fatalf("interleaved pop %d: seq %d", i, h.seq())
		}
	}
	q.push(mkFlit(2, 0, 0))
	q.push(mkFlit(2, 1, 0))
	q.reset()
	if q.len() != 0 || q.free() != 3 || cap(q.h) != 3 {
		t.Fatalf("reset left len %d cap %d", q.len(), cap(q.h))
	}
}

func TestOutVCQueueFIFO(t *testing.T) {
	v := &outVC{q: testSlot(3), owner: -1}
	for i := 0; i < 3; i++ {
		v.q.push(mkFlit(0, i, 0))
	}
	if v.empty() || !v.full() {
		t.Fatal("fill state wrong")
	}
	for i := 0; i < 3; i++ {
		h := v.pop()
		if h.seq() != i {
			t.Fatalf("pop order: got seq %d at position %d", h.seq(), i)
		}
	}
	if !v.empty() {
		t.Fatal("queue not empty after draining")
	}
}

func TestOutVCFullRespectsCapacity(t *testing.T) {
	for depth := 1; depth <= 4; depth++ {
		v := &outVC{q: testSlot(depth), owner: -1}
		for i := 0; i < depth; i++ {
			if v.full() {
				t.Fatalf("depth %d: full at %d flits", depth, i)
			}
			v.q.push(mkFlit(0, i, 0))
		}
		if !v.full() {
			t.Fatalf("depth %d: not full at %d flits", depth, depth)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("depth %d: push past capacity did not panic", depth)
				}
			}()
			v.q.push(mkFlit(0, depth, 0))
		}()
		if v.q.len() != depth || cap(v.q.h) != depth {
			t.Fatalf("depth %d: overflowing push grew the queue to len %d cap %d", depth, v.q.len(), cap(v.q.h))
		}
	}
}

func TestInPortPerVCSlots(t *testing.T) {
	p := &inPort{bufs: []slotQ{testSlot(1), testSlot(2)}, route: make([]routeEntry, 2)}
	p.bufs[0].push(mkFlit(0, 0, 0))
	p.bufs[1].push(mkFlit(0, 1, 1))
	if p.empty(0) || p.empty(1) {
		t.Fatal("slots empty after push")
	}
	if p.buffered() != 2 {
		t.Fatalf("buffered = %d", p.buffered())
	}
	if !p.full(0) || p.full(1) {
		t.Fatal("full computation")
	}
	h := p.pop(0)
	if h.seq() != 0 || !p.empty(0) || p.empty(1) {
		t.Fatal("pop affected wrong slot")
	}
}

func TestRouterConstruction(t *testing.T) {
	s := topology.MustSpidergon(8)
	rs := newRouters(s, 2, 2, 1, 3)
	if len(rs) != 8 {
		t.Fatalf("%d routers", len(rs))
	}
	r := rs[3]
	if r.node != 3 || len(r.in) != 3 || len(r.out) != 3 {
		t.Fatalf("node %d ports: %d in, %d out", r.node, len(r.in), len(r.out))
	}
	for _, op := range r.out {
		if len(op.vcs) != 2 {
			t.Fatal("vc count")
		}
		for vc := range op.vcs {
			v := &op.vcs[vc]
			if cap(v.q.h) != 3 || v.q.len() != 0 || v.owner != -1 {
				t.Fatalf("output queue cap %d len %d owner %d", cap(v.q.h), v.q.len(), v.owner)
			}
		}
	}
	for _, p := range r.in {
		for vc := range p.bufs {
			if cap(p.bufs[vc].h) != 1 {
				t.Fatalf("input slot cap %d", cap(p.bufs[vc].h))
			}
		}
	}
	// Every slot owns a disjoint window of the shared handle block: fill
	// every buffer of every router to capacity and read each back.
	tag := int32(0)
	for _, r := range rs {
		for _, p := range r.in {
			for vc := range p.bufs {
				for !p.bufs[vc].full() {
					p.bufs[vc].push(mkFlit(tag, 0, 0))
					tag++
				}
			}
		}
		for _, op := range r.out {
			for vc := range op.vcs {
				v := &op.vcs[vc]
				for !v.full() {
					v.q.push(mkFlit(tag, 0, 0))
					tag++
				}
			}
		}
	}
	want := int32(0)
	for _, r := range rs {
		for _, p := range r.in {
			for vc := range p.bufs {
				for _, h := range p.bufs[vc].live() {
					if h.pkt() != want {
						t.Fatalf("input slot overlap: read %d, want %d", h.pkt(), want)
					}
					want++
				}
			}
		}
		for _, op := range r.out {
			for vc := range op.vcs {
				v := &op.vcs[vc]
				for _, h := range v.flits() {
					if h.pkt() != want {
						t.Fatalf("output queue overlap: read %d, want %d", h.pkt(), want)
					}
					want++
				}
			}
		}
	}
	if r.outPortByDir(topology.DirAcross) == nil {
		t.Fatal("across port missing")
	}
	if r.outPortByDir(topology.DirEast) != nil {
		t.Fatal("phantom east port")
	}
	// Input port lookup by channel id.
	in := s.In(3)
	for _, c := range in {
		if r.inPortByChannel(c.ID) == nil {
			t.Fatalf("input port for channel %v missing", c)
		}
	}
	if r.inPortByChannel(9999) != nil {
		t.Fatal("phantom input port")
	}
}

// A push past a buffer's configured depth is a broken space check; it
// must panic naming the node, the port and the VC, never grow the
// buffer.
func TestRouterPushPastCapacityPanics(t *testing.T) {
	s := topology.MustSpidergon(8)
	r := newRouters(s, 2, 2, 1, 3)[3]
	expectPanic := func(name, want string, push func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q does not contain %q", name, msg, want)
			}
		}()
		push()
	}
	op := r.out[1]
	for i := 0; i < 3; i++ {
		r.pushOut(op, 1, mkFlit(0, i, 1), 5)
	}
	expectPanic("output", fmt.Sprintf("node 3 output port ch%d (%v to node %d) VC 1: push past capacity 3", op.ch.ID, op.ch.Dir, op.ch.Dst),
		func() { r.pushOut(op, 1, mkFlit(0, 3, 1), 5) })
	p := r.in[2]
	r.pushIn(p, 0, mkFlit(1, 0, 0), 5)
	expectPanic("input", fmt.Sprintf("node 3 input port ch%d VC 0: push past capacity 1", p.chID),
		func() { r.pushIn(p, 0, mkFlit(1, 1, 0), 5) })
}

// The freshness masks mark a slot only when a push finds it empty, and
// expire with the cycle they were set in.
func TestRouterFreshness(t *testing.T) {
	s := topology.MustSpidergon(8)
	r := newRouters(s, 2, 2, 1, 3)[0]
	op := r.out[0]
	bit := op.slotBase + 1
	r.pushOut(op, 1, mkFlit(0, 0, 1), 7) // into an empty queue: fresh
	r.pushOut(op, 1, mkFlit(0, 1, 1), 7) // behind it: head unchanged
	if !r.fresh(r.freshOut, bit, 7) {
		t.Fatal("head pushed into an empty queue not fresh in its cycle")
	}
	if r.fresh(r.freshOut, bit, 8) {
		t.Fatal("freshness survived into the next cycle")
	}
	r.pushOut(op, 1, mkFlit(0, 2, 1), 8) // non-empty queue: old head stays movable
	if r.fresh(r.freshOut, bit, 8) {
		t.Fatal("push behind an old head marked the slot fresh")
	}
	// The first push of a new cycle clears the stale marks lazily.
	p := r.in[0]
	r.pushIn(p, 0, mkFlit(1, 0, 0), 9)
	if !r.fresh(r.freshIn, p.slotBase, 9) || r.freshOut.any() {
		t.Fatal("new cycle's first push did not reset the masks")
	}
}

func TestCongestionViewBounds(t *testing.T) {
	s := topology.MustSpidergon(8)
	r := newRouters(s, 2, 2, 1, 3)[0]
	v := congestionView{r: r, cap: 3}
	if occ := v.OutputOccupancy(topology.DirClockwise, 0); occ != 0 {
		t.Fatalf("fresh occupancy = %d", occ)
	}
	if !v.OutputFree(topology.DirClockwise, 0) {
		t.Fatal("fresh queue not free")
	}
	// Missing direction and out-of-range VC report busy.
	if occ := v.OutputOccupancy(topology.DirEast, 0); occ <= 3 {
		t.Fatal("missing direction not over-capacity")
	}
	if v.OutputFree(topology.DirClockwise, 5) {
		t.Fatal("out-of-range vc reported free")
	}
	// Owned queues count the reservation.
	op := r.outPortByDir(topology.DirClockwise)
	op.vcs[0].owner = 1
	if occ := v.OutputOccupancy(topology.DirClockwise, 0); occ != 1 {
		t.Fatalf("owned occupancy = %d", occ)
	}
	if v.OutputFree(topology.DirClockwise, 0) {
		t.Fatal("owned queue reported free")
	}
}

func TestNoDeadlockVCTAndSAFSaturated(t *testing.T) {
	for _, mode := range []Switching{VirtualCutThrough, StoreAndForward} {
		cfg := DefaultConfig()
		cfg.Switching = mode
		cfg.OutBufCap = 6
		s := topology.MustSpidergon(10)
		net, err := NewNetwork(s, mustSpidergonAlg(t, 10), cfg, newCol())
		if err != nil {
			t.Fatal(err)
		}
		rng := newTestRNG(13)
		for c := 0; c < 1500; c++ {
			for node := 0; node < 10; node++ {
				if rng.next()%4 == 0 {
					dst := int(rng.next() % 10)
					if dst != node {
						_ = net.Inject(node, dst)
					}
				}
			}
			net.Step()
			if net.IdleCycles() > 200 && net.InFlightFlits() > 0 {
				t.Fatalf("%v deadlocked", mode)
			}
		}
		if err := net.Drain(300000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

// mustSpidergonAlg and newCol are small helpers for switching tests.
func mustSpidergonAlg(t *testing.T, n int) routing.Algorithm {
	t.Helper()
	return routing.NewSpidergonRouting(topology.MustSpidergon(n))
}

func newCol() *stats.Collector { return stats.NewCollector(0) }
