package traffic

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/sim"
)

// netSummary captures everything observable about a driven network —
// counters, per-channel traversals, buffer occupancy, and the latency
// distribution down to its quantiles. Any difference in the injected
// packet stream (count, timing, destination, or per-queue order) shows
// up here.
func netSummary(net *noc.Network) string {
	col := net.Collector()
	return fmt.Sprintf("cycle=%d created=%d injected=%d ejected=%d queued=%d inflight=%d links=%v lat=%v p50=%v p95=%v hops=%v blocked=%d",
		net.Cycle(), net.CreatedPackets(), net.InjectedPackets(), net.EjectedPackets(),
		net.QueuedPackets(), net.InFlightFlits(), net.ChannelTraversals(),
		col.MeanLatency(), col.LatencyQuantile(0.5), col.LatencyQuantile(0.95),
		col.MeanHops(), col.SourceBlockedCycles())
}

// The unbatched streams are frozen as data:
// testdata/unbatched-streams.json maps each workload below to the
// summary the retired one-event-per-arrival reference emission
// produced. Every batched run must reproduce it. Re-record only for an
// intended change of the packet streams, and log it in CHANGES.md:
//
//	go test ./internal/traffic -run Batch -update-oracle
var updateOracle = flag.Bool("update-oracle", false, "re-record testdata/unbatched-streams.json")

const streamsPath = "testdata/unbatched-streams.json"

// readStreams loads the recorded stream summaries; a missing file reads
// as empty.
func readStreams(t *testing.T) map[string]string {
	t.Helper()
	streams := map[string]string{}
	raw, err := os.ReadFile(streamsPath)
	if errors.Is(err, fs.ErrNotExist) {
		return streams
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &streams); err != nil {
		t.Fatalf("parsing %s: %v", streamsPath, err)
	}
	return streams
}

// recordStream stores summary under name in the streams file.
func recordStream(t *testing.T, name, summary string) {
	t.Helper()
	streams := readStreams(t)
	streams[name] = summary
	data, err := json.MarshalIndent(streams, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(streamsPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// recordedStream returns the summary recorded under name.
func recordedStream(t *testing.T, name string) string {
	t.Helper()
	s, ok := readStreams(t)[name]
	if !ok {
		t.Fatalf("%s holds no stream %q (re-record with -update-oracle)", streamsPath, name)
	}
	return s
}

// driveGenerator runs one Poisson generator to the horizon and returns
// the offered-packet count and the network summary.
func driveGenerator(t *testing.T, nodes int, rate float64, seed uint64) string {
	t.Helper()
	net := buildNet(t, nodes)
	k := sim.NewKernel()
	g, err := NewGenerator(k, net, Uniform{N: nodes}, Poisson, rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	tick := sim.NewTicker(k, 1)
	tick.OnTick(func(uint64) { net.Step() })
	tick.Start()
	k.RunUntil(4000)
	if g.OfferedPackets() == 0 {
		t.Fatal("degenerate run: nothing offered")
	}
	return fmt.Sprintf("off=%d %s", g.OfferedPackets(), netSummary(net))
}

// Batched emission must produce the packet stream recorded from the
// one-event-per-arrival reference — same seed, same arrivals, same
// cycles, same deliveries — from well below saturation (where batching
// rarely engages) to far past it (where most events carry several
// same-cycle arrivals).
func TestGeneratorBatchedMatchesUnbatched(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
		seed uint64
	}{
		{"low", 0.01, 42},
		{"knee", 0.07, 7},
		{"saturated", 0.6, 99},
		{"deep-saturation", 2.5, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			name := "generator/" + tc.name
			got := driveGenerator(t, 16, tc.rate, tc.seed)
			if *updateOracle {
				recordStream(t, name, got)
			}
			if want := recordedStream(t, name); got != want {
				t.Fatalf("packet streams diverged:\nbatched:   %s\nunbatched: %s", got, want)
			}
		})
	}
}

// Past saturation batching must actually collapse events: the kernel
// should process far fewer events than the recorded unbatched run,
// which took one event per arrival plus one per tick (65604 = 63603
// arrivals + 2001 ticks), the count a re-record writes.
func TestGeneratorBatchingCollapsesEvents(t *testing.T) {
	const ticks = 2001 // the ticker fires at cycles 0..2000
	net := buildNet(t, 16)
	k := sim.NewKernel()
	g, err := NewGenerator(k, net, Uniform{N: 16}, Poisson, 2.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	tick := sim.NewTicker(k, 1)
	tick.OnTick(func(uint64) { net.Step() })
	tick.Start()
	k.RunUntil(2000)
	evB, offB := k.Processed(), g.OfferedPackets()
	if *updateOracle {
		recordStream(t, "collapse", fmt.Sprintf("events=%d offered=%d", offB+ticks, offB))
	}
	var evP, offP uint64
	if _, err := fmt.Sscanf(recordedStream(t, "collapse"), "events=%d offered=%d", &evP, &offP); err != nil {
		t.Fatal(err)
	}
	if offB != offP {
		t.Fatalf("offered differ: %d batched vs %d recorded unbatched", offB, offP)
	}
	// λ=2 packets/cycle/source means ~2 arrivals per event when batched.
	if evB*3 > evP*2 {
		t.Fatalf("batching saved too little: %d events batched vs %d unbatched (%d arrivals)", evB, evP, offB)
	}
}

// The Start-time RNG draw order is part of the stream contract: a
// generator must offer the same packets the standalone Record pre-draw
// produces for the same seed (Record is the unbatched reference
// implementation that never touches a kernel).
func TestGeneratorMatchesRecordedOfferCount(t *testing.T) {
	const (
		nodes   = 12
		rate    = 0.05
		seed    = 1234
		horizon = 3000
	)
	tr := Record(Uniform{N: nodes}, Poisson, rate, nodes, horizon, seed)

	net := buildNet(t, nodes)
	k := sim.NewKernel()
	g, err := NewGenerator(k, net, Uniform{N: nodes}, Poisson, rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	tick := sim.NewTicker(k, 1)
	tick.OnTick(func(uint64) { net.Step() })
	tick.Start()
	k.RunUntil(horizon)
	// Record cuts at arrival time < horizon, the live generator at event
	// dispatch <= horizon; the counts may differ by at most the final
	// arrival per source.
	diff := int(g.OfferedPackets()) - len(tr.Events)
	if diff < 0 {
		diff = -diff
	}
	if diff > nodes {
		t.Fatalf("generator offered %d packets, Record pre-drew %d", g.OfferedPackets(), len(tr.Events))
	}
}

// OnOff and RequestReply share the batched handler path; batched
// emission must reproduce the recorded unbatched streams, at a bursty
// peak rate high enough that batching engages within bursts.
func TestAppGeneratorsBatchedMatchUnbatched(t *testing.T) {
	runOnOff := func() string {
		net := buildNet(t, 16)
		k := sim.NewKernel()
		g, err := NewOnOffGenerator(k, net, Uniform{N: 16}, OnOff{PeakRate: 2.5, OnMean: 40, OffMean: 120}, 11)
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		tick := sim.NewTicker(k, 1)
		tick.OnTick(func(uint64) { net.Step() })
		tick.Start()
		k.RunUntil(5000)
		return fmt.Sprintf("off=%d %s", g.OfferedPackets(), netSummary(net))
	}
	got := runOnOff()
	if *updateOracle {
		recordStream(t, "on-off", got)
	}
	if want := recordedStream(t, "on-off"); got != want {
		t.Fatalf("on/off streams diverged:\nbatched:   %s\nunbatched: %s", got, want)
	}

	runRR := func() string {
		net := buildNet(t, 16)
		k := sim.NewKernel()
		rr, err := NewRequestReply(k, net, []int{0, 1, 2, 3}, []int{8, 9}, 1.2, 17)
		if err != nil {
			t.Fatal(err)
		}
		rr.Start()
		tick := sim.NewTicker(k, 1)
		tick.OnTick(func(uint64) { net.Step() })
		tick.Start()
		k.RunUntil(5000)
		return fmt.Sprintf("req=%d rep=%d done=%d rt=%v %s",
			rr.Requests(), rr.Replies(), rr.CompletedTransactions(), rr.RoundTrip().Mean(), netSummary(net))
	}
	got = runRR()
	if *updateOracle {
		recordStream(t, "request-reply", got)
	}
	if want := recordedStream(t, "request-reply"); got != want {
		t.Fatalf("request-reply streams diverged:\nbatched:   %s\nunbatched: %s", got, want)
	}
}
