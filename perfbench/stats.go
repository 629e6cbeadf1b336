package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie above a reported percentile for
// the figure to mean anything: a p99 over 50 samples is just the
// maximum, so the benchmark reports the highest percentile that still
// has minTail samples beyond it.
const minTail = 10

// candidatePercentiles are the percentiles the benchmark may report, in
// descending order.
var candidatePercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest candidate percentile that n
// samples support — at least minTail samples strictly above it under
// the nearest-rank rule — or 0 when n is too small for even the median.
func highestPercentile(n int) float64 {
	for _, p := range candidatePercentiles {
		if samplesAbove(n, p) >= minTail {
			return p
		}
	}
	return 0
}

// samplesAbove is how many of n sorted samples lie above the
// nearest-rank p-th percentile.
func samplesAbove(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p/100)
}

// rank is the 1-based nearest-rank position of quantile q among n
// samples: ceil(q·n), clamped to [1, n].
func rank(n int, q float64) int {
	// The epsilon keeps exact products such as 0.95·200 = 190 from
	// rounding up to 191 through binary floating point.
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of xs (NaN when empty).
// xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// median is the middle value of xs (mean of the two middle values for
// even lengths; NaN when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// schedule is an open-loop generator's timetable: bin first is due at
// t0 and every later bin one period after its predecessor, whatever
// the system under test is doing.
type schedule struct {
	t0     time.Time
	first  int
	period time.Duration
}

// due is the wall-clock time bin b is scheduled to be sent.
func (s schedule) due(bin int) time.Time {
	return s.t0.Add(time.Duration(bin-s.first) * s.period)
}

// lateness is how far behind its schedule the generator ran when it
// started sending bin b at sent (negative when it ran early).
func (s schedule) lateness(bin int, sent time.Time) time.Duration {
	return sent.Sub(s.due(bin))
}

// sinceDue is an open-loop latency: the time from bin b's due time to
// the moment its result was observed. Timing from the due time rather
// than from the actual send keeps a stalled generator from hiding the
// wait it imposed.
func (s schedule) sinceDue(bin int, observed time.Time) time.Duration {
	return observed.Sub(s.due(bin))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (an idle layer reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
