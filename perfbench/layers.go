package main

import (
	"fmt"
	"math"
	"time"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/mfg"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/store"
)

// replayed is the per-batch cost of sampling and gathering an epoch outside
// the executor.
type replayed struct {
	SampleMs, GatherMs []float64
	Rows, Edges        []float64 // per batch index
	BytesPerBatch      float64
}

// replay re-runs the sampling and feature gather of every batch of one
// epoch on the calling goroutine, with the seeds and batch RNGs the prep
// executor uses, and times each call. The executor does the same work
// inside its workers, where the benchmark cannot put spans around it.
func replay(tr *tracer, ds *dataset.Dataset, perm []int32, epochSeed uint64, batch int, fanouts []int) (replayed, error) {
	var out replayed
	sm := sampler.New(graph.Static(ds.G).View(), fanouts, sampler.FastConfig())
	st := store.NewFlat(ds)
	buf := slicing.NewPinned(prep.MaxRowsEstimate(batch, fanouts, int(ds.G.N)), ds.FeatDim, batch)
	var m mfg.MFG
	nb := prep.NumBatches(len(perm), batch)
	for i := 0; i < nb; i++ {
		seeds := perm[i*batch : min((i+1)*batch, len(perm))]
		r := prep.BatchRNG(epochSeed, i)
		top := tr.begin("prep.batch(replay)", 0, int64(i))
		t0 := time.Now()
		s := tr.begin("sampler.SampleInto", top, int64(i))
		err := sm.SampleInto(r, seeds, &m)
		tr.end(s)
		t1 := time.Now()
		if err != nil {
			return out, fmt.Errorf("replay batch %d: %w", i, err)
		}
		g := tr.begin("store.Gather", top, int64(i))
		err = st.Gather(buf, m.NodeIDs, len(seeds))
		tr.end(g)
		t2 := time.Now()
		tr.end(top)
		if err != nil {
			return out, fmt.Errorf("replay batch %d: %w", i, err)
		}
		out.SampleMs = append(out.SampleMs, ms(t1.Sub(t0)))
		out.GatherMs = append(out.GatherMs, ms(t2.Sub(t1)))
		out.Rows = append(out.Rows, float64(m.TotalNodes()))
		out.Edges = append(out.Edges, float64(m.TotalEdges()))
	}
	out.BytesPerBatch = float64(st.Stats().BytesMoved) / float64(nb)
	return out, nil
}

// prepAllocsPerBatch drains two epochs of a fresh executor with no consumer
// work and returns the heap allocations per batch of the second, warm one.
func prepAllocsPerBatch(ds *dataset.Dataset, opts prep.Options, seeds []int32, epochSeed uint64) (float64, error) {
	ex, err := prep.NewSalient(ds, opts)
	if err != nil {
		return 0, err
	}
	var before uint64
	batches := 0
	for epoch := 0; epoch < 2; epoch++ {
		if epoch == 1 {
			before = mallocs()
		}
		s := ex.Run(seeds, epochSeed)
		for b := range s.C {
			batches += epoch
			b.Release()
		}
		s.Wait()
		if err := s.Err(); err != nil {
			return 0, err
		}
	}
	return float64(mallocs()-before) / float64(batches), nil
}

// busyShare is the fraction of the prep workers' capacity a drained stream
// kept busy over wall.
func busyShare(s *prep.Stream, workers int, wall time.Duration) float64 {
	busy, _ := s.WorkerStats()
	var total time.Duration
	for _, b := range busy {
		total += b
	}
	return total.Seconds() / (float64(workers) * wall.Seconds())
}

// sameParams reports whether two models hold bit-identical parameters.
func sameParams(a, b nn.Model) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		x, y := pa[i].W.Data, pb[i].W.Data
		if len(x) != len(y) {
			return false
		}
		for j := range x {
			if math.Float32bits(x[j]) != math.Float32bits(y[j]) {
				return false
			}
		}
	}
	return true
}

// meanOf is the arithmetic mean, 0 for an empty sample.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sumOf(xs) / float64(len(xs))
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
