package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {9, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {1999, 0.99}, {2000, 0.995}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	got := summarize(xs)
	if got.N != 1000 || got.Median != 500.5 || got.TailP != 0.99 || got.Tail != 990 {
		t.Fatalf("summarize(1..1000) = %+v, want n=1000 median 500.5 p99 990", got)
	}
	if small := summarize([]float64{3, 1, 2}); small.Median != 2 || small.TailP != 0 {
		t.Fatalf("summarize of 3 samples = %+v, want median 2 and no tail", small)
	}
	if !math.IsNaN(summarize(nil).Median) {
		t.Fatal("median of no samples must be NaN")
	}
}

func fastStep(rate float64, n, failed, backlog int) step {
	s := step{Rate: rate, Attempted: n + failed, Failed: failed, Backlog: backlog}
	for i := 0; i < n; i++ {
		s.Latency = append(s.Latency, 0.001)
	}
	return s
}

func TestStepFailuresCountAsOverLimit(t *testing.T) {
	limit := 10 * time.Millisecond
	if s := fastStep(1000, 99, 1, 0); !s.meets(limit) {
		t.Errorf("1 failure in 100: p99 %v should still meet the limit", s.p99())
	}
	if s := fastStep(1000, 98, 2, 0); s.meets(limit) || !math.IsInf(s.p99(), 1) {
		t.Errorf("2 failures in 100 put the p99 past any limit, got p99 %v", s.p99())
	}
}

func TestStepBacklogDecision(t *testing.T) {
	limit := 10 * time.Millisecond
	if got := backlogLimit(1000, limit); got != 10 {
		t.Fatalf("backlogLimit(1000 rps, 10ms) = %d, want 10", got)
	}
	if s := fastStep(1000, 100, 0, 10); !s.meets(limit) {
		t.Error("a backlog of rate×limit is not growing")
	}
	if s := fastStep(1000, 100, 0, 11); s.meets(limit) {
		t.Error("a backlog above rate×limit is growing and must fail the step")
	}
	aborted := fastStep(1000, 100, 0, 0)
	aborted.Aborted = true
	if aborted.meets(limit) {
		t.Error("a step cut short for its backlog must fail")
	}
	if (step{Rate: 1000}).meets(limit) {
		t.Error("a step with no requests must fail")
	}
}

// capacity is a system that meets the limit exactly up to rate c, except
// for the offers listed in stalls (by offer number), which fail.
func capacity(c float64, stalls ...int) func(float64) step {
	n := 0
	return func(rate float64) step {
		n++
		if rate > c || slices.Contains(stalls, n) {
			return fastStep(rate, 50, 50, 0)
		}
		return fastStep(rate, 100, 0, 0)
	}
}

func walkSteps(k int) func() bool {
	return func() bool { k--; return k >= 0 }
}

func TestMaxRateSettlesBetweenPassingAndFailingRung(t *testing.T) {
	ladder := []float64{100, 200, 300, 400, 500, 600, 700, 800}
	limit := 10 * time.Millisecond
	for _, c := range []struct {
		cap    float64
		lo, hi float64
	}{{50, 0, 0}, {100, 100, 200}, {450, 400, 500}, {799, 700, 800}, {1e9, 800, 800}} {
		got, _ := maxRate(ladder, limit, capacity(c.cap), walkSteps(0))
		if got < c.lo || got > c.hi {
			t.Errorf("capacity %v: estimate %v, want within [%v, %v]", c.cap, got, c.lo, c.hi)
		}
	}
}

func TestMaxRateRecoversFromAStall(t *testing.T) {
	ladder := []float64{100, 200, 300, 400, 500, 600, 700, 800}
	limit := 10 * time.Millisecond
	// The first offer (400, the binary search's first probe) stalls, so
	// the search brackets too low; the staircase walks back up.
	got, steps := maxRate(ladder, limit, capacity(450, 1), walkSteps(10))
	if got < 400 || got > 500 {
		t.Fatalf("estimate %v after one stall, want within [400, 500]", got)
	}
	if walk := len(steps) - 3; walk != 10 {
		t.Errorf("staircase took %d steps, want the 10 more() allowed", walk)
	}
	_, short := maxRate(ladder, limit, capacity(450), walkSteps(0))
	if walk := len(short) - 3; walk != minWalk {
		t.Errorf("staircase took %d steps with no time left, want minWalk=%d", walk, minWalk)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "step", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: ms(25), End: ms(35)},
	}
	self := selfTimes(spans)
	// step: children cover [10,50] and [90,100], 50 of 100.
	for id, want := range map[int]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10)} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
	if byName := layerTimes(append(spans, span{ID: 6, Name: "a", Start: ms(200), End: ms(205)})); byName["a"] != ms(25) {
		t.Errorf("layer a: %v over two calls, want 25ms", byName["a"])
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	if id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	on := newTracer()
	parent := on.begin("p", 0, 7)
	on.end(on.begin("c", parent, 7))
	on.end(parent)
	s := on.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Req != 7 || s[0].End < s[1].End {
		t.Fatalf("recorded spans %+v", s)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metric
// lists the benchmark prints in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
		Work     []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Work), len(workloads))
	}
	for _, w := range doc.Work {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}
