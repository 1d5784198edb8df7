package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidates for a timing's reported tail: a timing
// is reported as its median plus the highest of these that still has at
// least minBeyond samples above it.
var tailPercentiles = []float64{0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999}

const minBeyond = 10

// timing is a sample of measurements summarized for the report.
type timing struct {
	N      int
	Median float64
	TailP  float64 // 0 when the sample is too small for any tail percentile
	Tail   float64
}

// summarize reports xs as a median plus the highest tail percentile that
// has at least minBeyond samples beyond it.
func summarize(xs []float64) timing {
	s := sortedCopy(xs)
	t := timing{N: len(s), Median: median(s)}
	if p := tailPercentile(len(s)); p > 0 {
		t.TailP, t.Tail = p, quantile(s, p)
	}
	return t
}

// tailPercentile returns the highest of tailPercentiles whose nearest rank
// in a sample of n leaves at least minBeyond samples above it, or 0.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-nearestRank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// nearestRank is the 1-based rank of the p-quantile in a sample of n.
func nearestRank(n int, p float64) int {
	k := int(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// quantile returns the nearest-rank p-quantile of an ascending sample, or
// NaN for an empty one.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// median returns the middle of an ascending sample (the mean of the two
// middle values for an even count), or NaN for an empty one.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// medianOf is median over an unsorted sample.
func medianOf(xs []float64) float64 { return median(sortedCopy(xs)) }

// step is the outcome of offering one open-loop rate for a while.
type step struct {
	Rate      float64   // offered requests per second
	Latency   []float64 // seconds from due time to answer, answered requests only
	Failed    int       // requests rejected, shed or errored
	Attempted int       // requests dispatched
	// Backlog is the number of requests queued for service at the moment
	// the step's last request was due.
	Backlog int
	Aborted bool // dispatch stopped early because the backlog grew
}

// p99 is the step's 99th-percentile latency with every failed request
// counted as missing any limit (+Inf).
func (s step) p99() float64 {
	all := append(sortedCopy(s.Latency), make([]float64, s.Failed)...)
	for i := len(s.Latency); i < len(all); i++ {
		all[i] = math.Inf(1)
	}
	return quantile(all, 0.99)
}

// backlogLimit is the largest backlog a rate can leave without its queue
// growing: by Little's law a stable system whose requests wait at most
// limit holds at most rate×limit of them.
func backlogLimit(rate float64, limit time.Duration) int {
	return int(math.Ceil(rate * limit.Seconds()))
}

// meets reports whether a step met the latency limit at its p99 (failures
// counted as over it) without leaving a growing backlog.
func (s step) meets(limit time.Duration) bool {
	if s.Aborted || s.Attempted == 0 {
		return false
	}
	return s.p99() <= limit.Seconds() && s.Backlog <= backlogLimit(s.Rate, limit)
}

// maxRate estimates the highest rate of an ascending ladder that meets the
// limit. Near capacity one step passes or fails by chance (a scheduling
// stall is enough), so the estimate is the rate at which a step meets the
// limit half the time: a binary search with one step per rung brackets
// it, then an up-down staircase walks around it, one rung up after a step
// that meets the limit and one down after a step that fails, for as long
// as more() allows and at least minWalk steps. The estimate is the
// geometric mean of the rates at which the walk turned. It returns 0 when
// the lowest rung fails, and every step offered.
func maxRate(ladder []float64, limit time.Duration, offer func(rate float64) step, more func() bool) (float64, []step) {
	var steps []step
	try := func(i int) bool {
		s := offer(ladder[i])
		steps = append(steps, s)
		return s.meets(limit)
	}
	lo, hi := -1, len(ladder)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 && !try(0) {
		return 0, steps
	}
	var turns []float64
	cur, up := max(lo, 0), true
	for n := 0; more() || n < minWalk; n++ {
		ok := try(cur)
		if n > 0 && ok != up {
			turns = append(turns, math.Log(ladder[cur]))
		}
		up = ok
		if ok {
			cur = min(cur+1, len(ladder)-1)
		} else {
			cur = max(cur-1, 0)
		}
	}
	if len(turns) == 0 {
		return ladder[cur], steps
	}
	return math.Exp(meanOf(turns)), steps
}

// minWalk is the shortest staircase maxRate walks.
const minWalk = 8
