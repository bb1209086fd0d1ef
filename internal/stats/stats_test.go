package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Count() != 0 {
		t.Fatal("empty count != 0")
	}
	for name, v := range map[string]float64{
		"mean": s.Mean(), "var": s.Variance(), "min": s.Min(), "max": s.Max(),
	} {
		if !math.IsNaN(v) {
			t.Fatalf("empty %s = %v, want NaN", name, v)
		}
	}
}

func TestSummaryBasicMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d", s.Count())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if !almostEqual(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if !almostEqual(s.Sum(), 40, 1e-9) {
		t.Fatalf("sum = %v", s.Sum())
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Fatal("single observation stats wrong")
	}
	if !math.IsNaN(s.Variance()) {
		t.Fatal("variance of one sample should be NaN")
	}
}

func TestSummaryAddN(t *testing.T) {
	var a, b Summary
	for i := 0; i < 5; i++ {
		a.Add(2)
	}
	for i := 0; i < 3; i++ {
		a.Add(7)
	}
	b.AddN(2, 5)
	b.AddN(7, 3)
	if !almostEqual(a.Mean(), b.Mean(), 1e-12) || !almostEqual(a.Variance(), b.Variance(), 1e-9) {
		t.Fatalf("AddN mismatch: %v vs %v", a, b)
	}
	b.AddN(99, 0)
	if b.Count() != 8 {
		t.Fatal("AddN with n=0 changed count")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	xs := []float64{1, 2.5, -3, 8, 0, 4.25, 11, -7, 3}
	var whole Summary
	for _, x := range xs {
		whole.Add(x)
	}
	for split := 0; split <= len(xs); split++ {
		var a, b Summary
		for _, x := range xs[:split] {
			a.Add(x)
		}
		for _, x := range xs[split:] {
			b.Add(x)
		}
		a.Merge(&b)
		if !almostEqual(a.Mean(), whole.Mean(), 1e-9) ||
			!almostEqual(a.Variance(), whole.Variance(), 1e-9) ||
			a.Min() != whole.Min() || a.Max() != whole.Max() || a.Count() != whole.Count() {
			t.Fatalf("merge at %d diverges: %v vs %v", split, &a, &whole)
		}
	}
}

func TestSummaryReset(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Reset()
	if s.Count() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	if s.String() != "n=0" {
		t.Fatalf("empty string = %q", s.String())
	}
	s.Add(1)
	if s.String() == "" {
		t.Fatal("non-empty summary rendered empty string")
	}
}

// Property: merging any split equals sequential accumulation.
func TestPropertyMergeEquivalence(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		if len(xs) == 0 {
			return true
		}
		k := int(split) % (len(xs) + 1)
		var whole, a, b Summary
		for _, x := range xs {
			whole.Add(x)
		}
		for _, x := range xs[:k] {
			a.Add(x)
		}
		for _, x := range xs[k:] {
			b.Add(x)
		}
		a.Merge(&b)
		scale := math.Max(1, math.Abs(whole.Mean()))
		return almostEqual(a.Mean(), whole.Mean(), 1e-6*scale) && a.Count() == whole.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantiler(t *testing.T) {
	var q Quantiler
	if !math.IsNaN(q.Quantile(0.5)) {
		t.Fatal("empty quantiler should return NaN")
	}
	for i := 1; i <= 100; i++ {
		q.Add(float64(i))
	}
	if q.Count() != 100 {
		t.Fatal("count")
	}
	if got := q.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := q.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := q.Median(); !almostEqual(got, 50.5, 1e-9) {
		t.Fatalf("median = %v, want 50.5", got)
	}
	if got := q.Quantile(0.95); math.Abs(got-95.05) > 0.2 {
		t.Fatalf("p95 = %v", got)
	}
	// Adding after querying re-sorts correctly.
	q.Add(-1000)
	if got := q.Quantile(0); got != -1000 {
		t.Fatalf("q0 after add = %v", got)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "ring"
	if !math.IsNaN(s.MaxY()) {
		t.Fatal("empty MaxY should be NaN")
	}
	s.Append(0.1, 10)
	s.Append(0.2, 30)
	s.Append(0.3, 20)
	if s.Len() != 3 {
		t.Fatal("len")
	}
	if y, ok := s.YAt(0.2); !ok || y != 30 {
		t.Fatalf("YAt(0.2) = %v,%v", y, ok)
	}
	if _, ok := s.YAt(0.15); ok {
		t.Fatal("YAt missing x returned ok")
	}
	if s.MaxY() != 30 {
		t.Fatalf("MaxY = %v", s.MaxY())
	}
}

func TestSeriesKnee(t *testing.T) {
	var s Series
	s.Append(0.1, 10)
	s.Append(0.2, 11)
	s.Append(0.3, 12)
	s.Append(0.4, 55) // first point > 3x base
	s.Append(0.5, 300)
	if x, ok := s.Knee(3); !ok || x != 0.4 {
		t.Fatalf("knee = %v,%v, want 0.4,true", x, ok)
	}
	var flat Series
	flat.Append(1, 5)
	flat.Append(2, 6)
	if _, ok := flat.Knee(3); ok {
		t.Fatal("flat series reported a knee")
	}
	var empty Series
	if _, ok := empty.Knee(2); ok {
		t.Fatal("empty series reported a knee")
	}
}

func TestCollectorWarmupExcluded(t *testing.T) {
	c := NewCollector(100)
	// During warm-up: ignored.
	c.PacketInjected(50, 6)
	c.PacketEjected(90, 40, 45, 6, 3)
	c.SourceBlocked(10)
	if c.PacketsInjected() != 0 || c.PacketsEjected() != 0 || c.SourceBlockedCycles() != 0 {
		t.Fatal("warm-up events were counted")
	}
	// A packet created during warm-up but ejected after must be excluded.
	c.PacketEjected(120, 95, 97, 6, 3)
	if c.PacketsEjected() != 0 {
		t.Fatal("packet created during warm-up was counted")
	}
	// Post-warm-up events count.
	c.PacketInjected(100, 6)
	c.PacketEjected(130, 100, 102, 6, 3)
	if c.PacketsInjected() != 1 || c.PacketsEjected() != 1 {
		t.Fatal("post-warm-up events missing")
	}
}

func TestCollectorThroughputAndLatency(t *testing.T) {
	c := NewCollector(0)
	// Window: cycles 0..99 (note() sees 0 and 99).
	c.PacketInjected(0, 6)
	for i := 0; i < 10; i++ {
		cycle := uint64(10*i + 9)
		if cycle > 0 {
			c.PacketInjected(cycle-5, 6)
		}
		c.PacketEjected(cycle, cycle-9, cycle-7, 6, 4)
	}
	_ = c.PacketsEjected()
	if c.MeasuredCycles() != 100 {
		t.Fatalf("window = %d, want 100", c.MeasuredCycles())
	}
	if !almostEqual(c.Throughput(), 60.0/100.0, 1e-12) {
		t.Fatalf("throughput = %v", c.Throughput())
	}
	if !almostEqual(c.ThroughputPerNode(10), 0.06, 1e-12) {
		t.Fatalf("per-node throughput = %v", c.ThroughputPerNode(10))
	}
	if !almostEqual(c.PacketThroughput(), 0.1, 1e-12) {
		t.Fatalf("packet throughput = %v", c.PacketThroughput())
	}
	if !almostEqual(c.MeanLatency(), 9, 1e-12) {
		t.Fatalf("latency = %v", c.MeanLatency())
	}
	if !almostEqual(c.MeanNetworkLatency(), 7, 1e-12) {
		t.Fatalf("network latency = %v", c.MeanNetworkLatency())
	}
	if !almostEqual(c.MeanHops(), 4, 1e-12) {
		t.Fatalf("hops = %v", c.MeanHops())
	}
	if !almostEqual(c.LatencyQuantile(0.5), 9, 1e-12) {
		t.Fatalf("median latency = %v", c.LatencyQuantile(0.5))
	}
}

func TestCollectorEmpty(t *testing.T) {
	c := NewCollector(0)
	if c.Throughput() != 0 || c.PacketThroughput() != 0 || c.AcceptedRate() != 0 {
		t.Fatal("empty collector rates nonzero")
	}
	if !math.IsNaN(c.MeanLatency()) {
		t.Fatal("empty latency should be NaN")
	}
	if !math.IsNaN(c.ThroughputPerNode(0)) {
		t.Fatal("per-node with 0 nodes should be NaN")
	}
}

func TestCollectorAcceptedRate(t *testing.T) {
	c := NewCollector(0)
	c.PacketInjected(0, 6)
	c.PacketInjected(49, 6)
	if c.MeasuredCycles() != 50 {
		t.Fatalf("window = %d", c.MeasuredCycles())
	}
	if !almostEqual(c.AcceptedRate(), 12.0/50.0, 1e-12) {
		t.Fatalf("accepted = %v", c.AcceptedRate())
	}
	if c.FlitsInjected() != 12 {
		t.Fatal("flits injected")
	}
}

// CI95T applies the Student-t quantile at small sample counts and
// converges to the normal CI95 for large ones.
func TestCI95T(t *testing.T) {
	var s Summary
	for _, v := range []float64{10, 12, 14} {
		s.Add(v)
	}
	// n=3 → 2 dof → t = 4.303; stderr = 2/sqrt(3).
	want := 4.303 * 2 / math.Sqrt(3)
	if got := s.CI95T(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI95T = %v, want %v", got, want)
	}
	if !(s.CI95T() > s.CI95()) {
		t.Fatal("t interval not wider than normal interval at n=3")
	}
	var big Summary
	for i := 0; i < 1000; i++ {
		big.Add(float64(i % 10))
	}
	if math.Abs(big.CI95T()-big.CI95()) > 1e-12 {
		t.Fatal("CI95T does not fall back to the normal quantile at large n")
	}
	var one Summary
	one.Add(1)
	if !math.IsNaN(one.CI95T()) {
		t.Fatal("CI95T with one observation should be NaN")
	}
}
