package salient

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// varies one decision while holding the rest of the system at SALIENT's
// tuned configuration. Run with `go test -bench=Ablation -benchmem`.

import (
	"sync"
	"testing"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/half"
	"salient/internal/prep"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/slicing"
)

// BenchmarkAblationSamplerAxes varies one sampler design axis at a time
// from the tuned configuration (§4.1's conclusion in benchmark form).
func BenchmarkAblationSamplerAxes(b *testing.B) {
	ds, err := dataset.Load(dataset.Products, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	tuned := sampler.FastConfig()
	cases := []struct {
		name string
		cfg  sampler.Config
	}{
		{"tuned", tuned},
		{"idmap=std", with(tuned, func(c *sampler.Config) { c.IDMap = sampler.IDMapStd })},
		{"idmap=direct", with(tuned, func(c *sampler.Config) { c.IDMap = sampler.IDMapDirect })},
		{"dedup=stdset", with(tuned, func(c *sampler.Config) { c.Dedup = sampler.DedupStdSet })},
		{"dedup=flatset", with(tuned, func(c *sampler.Config) { c.Dedup = sampler.DedupFlatSet })},
		{"dedup=fy", with(tuned, func(c *sampler.Config) { c.Dedup = sampler.DedupFisherYates })},
		{"build=twophase", with(tuned, func(c *sampler.Config) { c.Build = sampler.BuildTwoPhase })},
		{"reuse=fresh", with(tuned, func(c *sampler.Config) { c.Reuse = sampler.ReuseFresh })},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := sampler.New(ds.G, []int{15, 10, 5}, c.cfg)
			r := rng.New(1)
			edges := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * 256) % (len(ds.Train) - 256)
				edges += s.Sample(r, ds.Train[lo:lo+256]).TotalEdges()
			}
			if edges == 0 {
				b.Fatal("no edges sampled")
			}
		})
	}
}

func with(c sampler.Config, f func(*sampler.Config)) sampler.Config {
	f(&c)
	return c
}

// BenchmarkAblationSliceKernel compares SALIENT's deliberately serial
// per-batch slice kernel against the PyTorch-style striped-parallel kernel
// (§4.2: serial slicing per worker wins on locality and contention).
func BenchmarkAblationSliceKernel(b *testing.B) {
	ds, err := dataset.Load(dataset.Products, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	sm := sampler.New(ds.G, []int{15, 10, 5}, sampler.FastConfig())
	m := sm.Sample(rng.New(1), ds.Train[:512])
	nodeIDs := append([]int32(nil), m.NodeIDs...)
	dst := slicing.NewPinned(len(nodeIDs), ds.FeatDim, 512)
	src := &slicing.Source{
		Blocks: []*half.Rows{{Prec: half.FP16, Dim: ds.FeatDim, N: int(ds.G.N), H: ds.FeatHalf}},
		Labels: ds.Labels,
	}

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := slicing.Slice(dst, src, nodeIDs, 512); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(nodeIDs) * ds.FeatDim * 2))
	})
	for _, workers := range []int{2, 4} {
		b.Run("striped-"+itoa(workers), func(b *testing.B) {
			run := func(stripes []func()) {
				var wg sync.WaitGroup
				for _, st := range stripes {
					wg.Add(1)
					go func(st func()) {
						defer wg.Done()
						st()
					}(st)
				}
				wg.Wait()
			}
			for i := 0; i < b.N; i++ {
				if err := slicing.SliceStriped(dst, src, nodeIDs, 512, workers, run); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(nodeIDs) * ds.FeatDim * 2))
		})
	}
}

// BenchmarkAblationOrdering measures the cost of the Ordered reorder stage
// (bit-reproducible training) versus arrival-order delivery.
func BenchmarkAblationOrdering(b *testing.B) {
	ds, err := dataset.Load(dataset.Arxiv, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	for _, ordered := range []bool{false, true} {
		name := "arrival"
		if ordered {
			name = "ordered"
		}
		b.Run(name, func(b *testing.B) {
			ex, err := prep.NewSalient(ds, prep.Options{
				Workers:   2,
				BatchSize: 256,
				Fanouts:   []int{10, 5},
				Sampler:   sampler.FastConfig(),
				Ordered:   ordered,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := ex.Run(ds.Train, uint64(i+1))
				for batch := range s.C {
					batch.Release()
				}
				s.Wait()
			}
		})
	}
}

// BenchmarkAblationCachePolicy compares static-degree and LRU feature
// caches on a real sampled-MFG stream (the §8 extension's core contrast).
func BenchmarkAblationCachePolicy(b *testing.B) {
	ds, err := dataset.Load(dataset.Products, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []cache.Policy{cache.StaticDegree, cache.LRU} {
		b.Run(policy.String(), func(b *testing.B) {
			c, err := cache.New(ds.G, int(ds.G.N)/10, policy)
			if err != nil {
				b.Fatal(err)
			}
			sm := sampler.New(ds.G, []int{10, 5}, sampler.FastConfig())
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * 32) % (len(ds.Train) - 32)
				m := sm.Sample(r, ds.Train[lo:lo+32])
				c.TouchBatch(m.NodeIDs)
			}
			b.ReportMetric(c.Stats().HitRate(), "hitrate")
		})
	}
}

// BenchmarkAblationHalfStaging measures the half-precision host staging
// decision: encode+decode round trip versus a float32 copy of the same
// payload (the paper's optimization (iii) halves staged bytes at this cost).
func BenchmarkAblationHalfStaging(b *testing.B) {
	ds, err := dataset.Load(dataset.Arxiv, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	rows := 4096
	if max := int(ds.G.N); rows > max {
		rows = max
	}
	b.Run("half-decode", func(b *testing.B) {
		dst := make([]float32, rows*ds.FeatDim)
		src := ds.FeatHalf[:rows*ds.FeatDim]
		b.SetBytes(int64(len(src) * 2))
		for i := 0; i < b.N; i++ {
			half.DecodeSlice(dst, src)
		}
	})
	b.Run("float32-copy", func(b *testing.B) {
		dst := make([]float32, rows*ds.FeatDim)
		src := ds.Feat.Data[:rows*ds.FeatDim]
		b.SetBytes(int64(len(src) * 4))
		for i := 0; i < b.N; i++ {
			copy(dst, src)
		}
	})
}
