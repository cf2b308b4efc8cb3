package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer than ten samples is noise.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples
// when len(xs) is even. It is 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample with at least q of all samples at or below it. It is 0 for no
// samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// beyond counts the samples a nearest-rank q-quantile leaves above its
// rank.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	return n - max(1, min(rank, n))
}

// tailQuantile picks the highest of the candidate quantiles that leaves
// at least minBeyond of n samples beyond it. ok is false when none does.
func tailQuantile(n int, candidates ...float64) (q float64, ok bool) {
	for _, c := range candidates {
		if beyond(n, c) >= minBeyond && c > q {
			q, ok = c, true
		}
	}
	return q, ok
}

// quartiles returns the first and third quartile of xs by the same rule
// as Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads computed here match an external check. It needs
// at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	n := len(s)
	m := n + 1
	at := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median — the run-to-run spread a metric's bound is
// compared with.
func quartileSpread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// dueLatency is an open-loop job's latency: from when the schedule said
// to send it until its results were decoded. Measuring from the due time
// rather than the actual send charges a stall to every job it delayed.
func dueLatency(due, done time.Duration) time.Duration { return done - due }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
