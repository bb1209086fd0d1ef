// Package stats provides the measurement substrate for the NoC
// simulations: streaming moments (Welford), histograms, time series,
// batch-means confidence intervals, and warm-up aware collectors for the
// two indexes the paper reports — throughput and latency.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a streaming estimator for the mean and variance of a sample
// stream using Welford's numerically stable single-pass update. The zero
// value is ready to use.
type Summary struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddN incorporates the same observation n times (an O(1) batched
// update, exact for mean and variance).
func (s *Summary) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	other := Summary{n: n, mean: x, m2: 0, min: x, max: x}
	s.Merge(&other)
}

// Merge folds another summary into this one (parallel Welford/Chan
// update). The argument is unchanged.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n1, n2 := float64(s.n), float64(o.n)
	delta := o.mean - s.mean
	total := n1 + n2
	s.mean += delta * n2 / total
	s.m2 += o.m2 + delta*delta*n1*n2/total
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// Count returns the number of observations.
func (s *Summary) Count() uint64 { return s.n }

// Mean returns the sample mean, or NaN with no observations.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// Variance returns the unbiased sample variance (n-1 denominator), or
// NaN with fewer than two observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or NaN with no observations.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation, or NaN with no observations.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Reset discards all observations.
func (s *Summary) Reset() { *s = Summary{} }

// String renders a compact human-readable summary.
func (s *Summary) String() string {
	if s.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// CI95 returns the half-width of the 95% confidence interval for the
// mean, using the normal quantile (the NoC runs collect thousands of
// samples, where the t correction is negligible).
func (s *Summary) CI95() float64 {
	const z = 1.959963984540054
	return z * s.StdErr()
}

// tQuantile975 holds the two-sided 95% (upper 97.5%) Student-t
// quantiles for 1..30 degrees of freedom; beyond that the normal
// quantile is substituted, understating the width by at most ~4% at
// the 31-dof handoff (t = 2.040 vs z = 1.960) and less as n grows.
var tQuantile975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95T returns the half-width of the 95% confidence interval for the
// mean using the Student-t quantile for n-1 degrees of freedom — the
// right interval for small sample counts such as cross-replication
// aggregates, where the normal quantile of CI95 would understate the
// width badly (by 2.2× at n=3).
func (s *Summary) CI95T() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	df := s.n - 1
	if df <= uint64(len(tQuantile975)) {
		return tQuantile975[df-1] * s.StdErr()
	}
	return s.CI95()
}

// Quantiler collects raw observations for exact quantiles. Intended for
// latency distributions, where the paper-level analysis needs medians
// and tails rather than only means.
type Quantiler struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (q *Quantiler) Add(x float64) {
	q.xs = append(q.xs, x)
	q.sorted = false
}

// Count returns the number of observations.
func (q *Quantiler) Count() int { return len(q.xs) }

// Reset discards all observations, keeping the sample storage for
// reuse.
func (q *Quantiler) Reset() {
	q.xs = q.xs[:0]
	q.sorted = false
}

// Quantile returns the p-quantile (0 <= p <= 1) with linear
// interpolation, or NaN with no observations.
func (q *Quantiler) Quantile(p float64) float64 {
	if len(q.xs) == 0 {
		return math.NaN()
	}
	if !q.sorted {
		sort.Float64s(q.xs)
		q.sorted = true
	}
	if p <= 0 {
		return q.xs[0]
	}
	if p >= 1 {
		return q.xs[len(q.xs)-1]
	}
	pos := p * float64(len(q.xs)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(q.xs) {
		return q.xs[lo]
	}
	return q.xs[lo]*(1-frac) + q.xs[lo+1]*frac
}

// Median returns the 0.5 quantile.
func (q *Quantiler) Median() float64 { return q.Quantile(0.5) }

// Series is an append-only time series of (x, y) points, used to build
// the figure curves (throughput or latency versus injection rate). A
// series built from replicated runs additionally carries the 95%
// confidence half-width of each point in CI, parallel to Y; a series
// without replication information leaves CI nil.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	CI   []float64
}

// Append adds one point. Mixing Append with AppendCI on the same series
// would desynchronise CI from Y, so a series sticks to one form.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// AppendCI adds one point with its 95% confidence half-width.
func (s *Series) AppendCI(x, y, ci float64) {
	s.Append(x, y)
	s.CI = append(s.CI, ci)
}

// HasCI reports whether the series carries confidence half-widths.
func (s *Series) HasCI() bool { return s.CI != nil }

// CIAt returns the confidence half-width recorded at x, with ok=false
// when x was never recorded or the series carries no intervals.
func (s *Series) CIAt(x float64) (ci float64, ok bool) {
	if s.CI == nil {
		return 0, false
	}
	for i, v := range s.X {
		if v == x {
			return s.CI[i], true
		}
	}
	return 0, false
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// YAt returns the first y value recorded at x, with ok=false when x was
// never recorded.
func (s *Series) YAt(x float64) (y float64, ok bool) {
	for i, v := range s.X {
		if v == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// MaxY returns the largest y value, or NaN for an empty series.
func (s *Series) MaxY() float64 {
	if len(s.Y) == 0 {
		return math.NaN()
	}
	m := s.Y[0]
	for _, v := range s.Y[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Knee returns the x position where y first exceeds factor times the
// value at the series start — the standard way of reading the saturation
// point off a latency curve. ok is false when the series never crosses.
func (s *Series) Knee(factor float64) (x float64, ok bool) {
	if len(s.Y) == 0 {
		return 0, false
	}
	base := s.Y[0]
	for i := range s.X {
		if s.Y[i] > base*factor {
			return s.X[i], true
		}
	}
	return 0, false
}
