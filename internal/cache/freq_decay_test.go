package cache

import (
	"math/rand"
	"sync"
	"testing"
)

// sketchModel mirrors the sequential semantics of a Sketch: per-node
// counts, halved on every Decay.
type sketchModel struct {
	counts []uint32
}

func (m *sketchModel) observe(v int32) { m.counts[v]++ }

func (m *sketchModel) decay() {
	for i := range m.counts {
		m.counts[i] /= 2
	}
}

// TestSketchDecayMatchesModel pins the sequential semantics of aging:
// counters are raw observation counts between Decay calls, and every
// Decay halves them all.
func TestSketchDecayMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(16)
		s := NewSketch(n)
		m := &sketchModel{counts: make([]uint32, n)}
		steps := 1 + r.Intn(400)
		for i := 0; i < steps; i++ {
			if r.Intn(20) == 0 {
				s.Decay()
				m.decay()
				continue
			}
			v := int32(r.Intn(n))
			s.Observe(v)
			m.observe(v)
		}
		for v := int32(0); int(v) < n; v++ {
			if got, want := s.Count(v), m.counts[v]; got != want {
				t.Fatalf("trial %d (n=%d): Count(%d) = %d, model says %d", trial, n, v, got, want)
			}
		}
	}
}

// TestSketchDecayNeverUndercountsWithinWindow is the property the VIP
// planner depends on: however the halvings land, a node observed k times
// since the most recent Decay (the current window) reports a count of at
// least k — decay only sheds older history, never live traffic — and never
// more than its all-time observation total.
func TestSketchDecayNeverUndercountsWithinWindow(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(16)
		s := NewSketch(n)
		sinceHalve := make([]uint32, n) // per-node observes since last halving
		allTime := make([]uint32, n)
		steps := 1 + r.Intn(300)
		for i := 0; i < steps; i++ {
			if r.Intn(25) == 0 {
				s.Decay()
				for v := range sinceHalve {
					sinceHalve[v] = 0
				}
			} else {
				v := int32(r.Intn(n))
				s.Observe(v)
				sinceHalve[v]++
				allTime[v]++
			}
			for v := int32(0); int(v) < n; v++ {
				got := s.Count(v)
				if got < sinceHalve[v] {
					t.Fatalf("trial %d step %d: Count(%d) = %d undercounts %d observes since last decay",
						trial, i, v, got, sinceHalve[v])
				}
				if got > allTime[v] {
					t.Fatalf("trial %d step %d: Count(%d) = %d exceeds all-time observes %d",
						trial, i, v, got, allTime[v])
				}
			}
		}
	}
}

// TestSketchDecayConcurrent hammers a sketch from many observers while
// several planners decay it (run under -race): serialized halvings must
// keep it consistent — summed counters and total observations stay within
// the offered traffic.
func TestSketchDecayConcurrent(t *testing.T) {
	const (
		workers  = 8
		perW     = 2000
		planners = 3
		decays   = 20
		n        = 32
	)
	s := NewSketch(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < perW; i++ {
				s.Observe(int32(r.Intn(n)))
			}
		}(w)
	}
	for p := 0; p < planners; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < decays; i++ {
				s.Decay()
			}
		}()
	}
	wg.Wait()
	var total int64
	for v := int32(0); v < n; v++ {
		total += int64(s.Count(v))
	}
	if total > workers*perW {
		t.Fatalf("summed counts %d exceed offered traffic %d", total, workers*perW)
	}
	if obs := s.Observations(); obs < 0 || obs > workers*perW {
		t.Fatalf("Observations() = %d out of [0, %d]", obs, workers*perW)
	}
}
