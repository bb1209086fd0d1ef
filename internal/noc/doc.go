// Package noc is a cycle-accurate model of the wormhole-switched
// Network-on-Chip the paper simulates in OMNeT++: packets of constant
// flit count are injected by per-node IPs with Poisson interarrivals,
// head flits are routed hop by hop, body flits follow the path the head
// opened, and the paper's exact buffer architecture is reproduced —
// one-flit input buffers per incoming link, a configurable number of
// output queues (virtual channels) per outgoing link with three-flit
// capacity, and a network interface whose sink consumes flits FIFO.
//
// The model is synchronous: Network.Step advances one clock cycle, in
// which every flit moves at most one pipeline stage (ejection, switch
// traversal, injection, link traversal). All arbitration is round-robin
// and all iteration orders are fixed, so simulations are deterministic.
//
// The one-stage-per-cycle rule is enforced from router-local state.
// Within a cycle every output queue is pushed (switch, injection)
// before it is popped (link), and every input slot is popped (ejection,
// switch) before it is pushed (link, inbox drain), so the head a later
// stage finds in a slot moved this cycle exactly when the slot was
// empty at its first push of the cycle. Each router keeps one
// bit per slot in two freshness masks, set on such pushes and cleared
// lazily by a per-router cycle stamp; no packet or flit carries any
// timing state.
//
// # Engines
//
// One activity-driven phase kernel (active.go) implements Step. It
// drains per-phase worklists — bitmap active sets over routers and
// sources, updated exactly where flits move — so a cycle costs time
// proportional to in-flight work rather than network size, and a fully
// quiescent network can fast-forward across idle cycles via SkipTo.
// The worklists belong to the shards of a decomposition, and two
// engines select the decomposition. The default, EngineActive, is the
// one-shard case: a single shard covering every router, with no
// workers, barriers, mailboxes or credit waits. Its cycle is an
// ejection pass whose tail completions are replayed after it, a
// switch+inject pass whose collector events are deferred to the cycle
// end, and a link pass. EngineParallel (parallel.go) runs the same
// phase functions as ONE fused shard-local pass over several
// contiguous router shards with a single sense-reversing barrier per
// cycle (two only when an OnEject callback forces the ejection span to
// split off). Cross-shard link decisions resolve inside the pass
// through per-(port,VC) credit counters snapshotted at each barrier: a
// positive credit proves downstream room and the flit travels
// speculatively through a per-shard-pair mailbox; a spent credit waits
// point-to-point for the downstream shard's pops-done mark and re-reads
// exact occupancy. Each shard drains its inbound mailboxes at the end
// of its own pass in canonical sender order, so cycle-boundary state is
// bit-identical to the one-shard run and the barrier's serial section
// only merges counters and refreshes credits — it never replays a link
// decision or moves a flit.
//
// The reference the kernel is held to is data, not code: the results,
// per-cycle state chains and every-cycle telemetry capture that the
// retired scan-everything engine produced are committed under the
// testdata directories of internal/core and internal/noc, and the
// oracle tests require every shard count to reproduce them.
//
// # Arena and handle layout
//
// The hot path is pointer-free. Packet state lives in a
// struct-of-arrays arena (arena.go): parallel slices for ID, endpoints,
// creation/injection cycles, hop and receive counts, indexed by a small
// integer — 41 bytes per packet, nothing per flit. A flit is a 64-bit
// handle packing (packet index, sequence number, VC tag); since the
// packet length is constant per network, seq == PacketLen-1 identifies
// the tail without any per-packet length field. Router input slots and
// output VC queues are fixed-capacity slot queues of these handle words
// (capacity InBufCap or OutBufCap, head at index 0), all carved from
// one contiguous handle block per network; only the NI source queues,
// which hold packet indices, are unbounded. The per-phase drains are
// therefore linear scans over dense integer arrays — no heap object is
// chased or allocated inside a cycle. The freelist of recycled packets
// is an index stack on the arena; with pooling off the arena grows
// monotonically instead, which changes allocator traffic but never
// results.
//
// Per-router slot-occupancy and freshness masks (mask.go) are
// multi-word bitmaps with a power-of-two per-port stride, so any degree
// × VC product is supported. The router structs and masks of a network
// are each allocated as one contiguous block.
//
// # Observer views
//
// The exported Packet and Flit structs are materialized views over the
// arena, built only at the observer boundary: the OnEject callback
// receives a *Packet filled from the ejected record, and InjectPacket
// returns one for the new lease. The views are scratch structs owned by
// the network — valid until the callback returns (or the next
// InjectPacket call); observers copy fields out rather than retain the
// pointer, exactly as the recycling contract already required. Nested
// use works: an OnEject callback may call InjectPacket and still read
// its own packet afterwards, because ejection and injection materialize
// into separate scratch views.
package noc
