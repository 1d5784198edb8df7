package bench

import (
	"fmt"
	"math"
	"time"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/half"
	"salient/internal/partition"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/store"
)

// FeatureStoreOpts configures the feature-store layout/policy sweep.
type FeatureStoreOpts struct {
	Scale      float64   // arxiv stand-in scale
	Parts      int       // shard count for the sharded configurations
	BatchSize  int       // seeds per gathered batch
	Fanouts    []int     // sampling fanouts for batch expansion
	Rounds     int       // timed passes over the batch set per store
	CacheFracs []float64 // cached(top-K) capacities as fractions of N
	Seed       uint64
}

func (o *FeatureStoreOpts) defaults() {
	if o.Scale == 0 {
		o.Scale = 0.3
	}
	if o.Parts == 0 {
		o.Parts = 4
	}
	if o.BatchSize == 0 {
		o.BatchSize = 16
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = []int{10, 5}
	}
	if o.Rounds == 0 {
		o.Rounds = 3
	}
	if len(o.CacheFracs) == 0 {
		o.CacheFracs = []float64{0.05, 0.2}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// fsResult is one store configuration's measured sweep row.
type fsResult struct {
	name       string
	rows       int64 // feature rows staged across all timed gathers
	secs       float64
	stagedMB   float64
	movedMB    float64
	savedMB    float64
	remoteFrac float64
	hitRate    float64
}

// throughputMBs returns staged MB per second of gather time.
func (r fsResult) throughputMBs() float64 {
	if r.secs == 0 {
		return 0
	}
	return r.stagedMB / r.secs
}

// featureStoreResults runs the sweep and returns structured rows. Every
// store gathers the identical batch set (part-local seed batches under the
// LDG assignment, the access pattern of a partition-aware consumer), and
// every staged buffer is checksum-verified against the flat store — layout
// and caching may change accounting, never contents.
func featureStoreResults(o FeatureStoreOpts) ([]fsResult, error) {
	o.defaults()
	ds, err := dataset.Load(dataset.Arxiv, o.Scale)
	if err != nil {
		return nil, err
	}
	ldg, err := partition.LDGMultiPass(ds.G, o.Parts, 2)
	if err != nil {
		return nil, err
	}
	rand, err := partition.Random(ds.G, o.Parts, o.Seed)
	if err != nil {
		return nil, err
	}

	// Part-local seed batches: group the training split by LDG part and cut
	// fixed-size batches inside each part, then expand with the fast sampler.
	byPart := make([][]int32, o.Parts)
	for _, v := range ds.Train {
		byPart[ldg.Part[v]] = append(byPart[ldg.Part[v]], v)
	}
	sm := sampler.New(ds.G, o.Fanouts, sampler.FastConfig())
	var lists [][]int32
	var batches []int
	for p := range byPart {
		for b := 0; b+o.BatchSize <= len(byPart[p]) && b < 8*o.BatchSize; b += o.BatchSize {
			seeds := byPart[p][b : b+o.BatchSize]
			m := sm.Sample(rng.New(o.Seed+uint64(p*8191+b)), seeds).Clone()
			lists = append(lists, m.NodeIDs)
			batches = append(batches, len(seeds))
		}
	}
	if len(lists) == 0 {
		return nil, fmt.Errorf("featurestore: no batches at scale %g", o.Scale)
	}

	flat := store.NewFlat(ds)
	configs := []struct {
		name string
		st   store.FeatureStore
	}{{name: "flat", st: flat}}
	shardedRand, err := store.NewSharded(ds, rand, half.FP16)
	if err != nil {
		return nil, err
	}
	configs = append(configs, struct {
		name string
		st   store.FeatureStore
	}{fmt.Sprintf("sharded(P=%d,random)", o.Parts), shardedRand})
	shardedLDG, err := store.NewSharded(ds, ldg, half.FP16)
	if err != nil {
		return nil, err
	}
	configs = append(configs, struct {
		name string
		st   store.FeatureStore
	}{fmt.Sprintf("sharded(P=%d,ldg)", o.Parts), shardedLDG})
	for _, frac := range o.CacheFracs {
		c, err := store.NewCached(store.NewFlat(ds), ds.G, int(float64(ds.G.N)*frac), cache.StaticDegree)
		if err != nil {
			return nil, err
		}
		configs = append(configs, struct {
			name string
			st   store.FeatureStore
		}{fmt.Sprintf("cached(top-%.0f%%)", 100*frac), c})
	}
	// The precision axis: the same workload over quantized and widened flat
	// storage, plus the int8 sharded layout — the 2× byte saving must survive
	// composition with placement.
	configs = append(configs, struct {
		name string
		st   store.FeatureStore
	}{"flat(fp32)", store.NewFlatPrec(ds, half.FP32)})
	configs = append(configs, struct {
		name string
		st   store.FeatureStore
	}{"flat(int8)", store.NewFlatPrec(ds, half.Int8)})
	shardedInt8, err := store.NewSharded(ds, ldg, half.Int8)
	if err != nil {
		return nil, err
	}
	configs = append(configs, struct {
		name string
		st   store.FeatureStore
	}{fmt.Sprintf("sharded(P=%d,ldg,int8)", o.Parts), shardedInt8})

	// Reference checksums per storage precision from a flat store at that
	// precision (untimed pass) — layout and caching may change accounting,
	// never staged contents.
	refSums := map[half.Precision][]uint64{}
	refFor := func(prec half.Precision) ([]uint64, error) {
		if sums, ok := refSums[prec]; ok {
			return sums, nil
		}
		ref := store.NewFlatPrec(ds, prec)
		sums := make([]uint64, len(lists))
		for i, ids := range lists {
			buf := slicing.NewPinned(len(ids), ds.FeatDim, batches[i])
			if err := ref.Gather(buf, ids, batches[i]); err != nil {
				return nil, err
			}
			sums[i] = stagedChecksum(buf, batches[i])
		}
		refSums[prec] = sums
		return sums, nil
	}

	var out []fsResult
	for _, cfg := range configs {
		prec := cfg.st.Precision()
		wantSums, err := refFor(prec)
		if err != nil {
			return nil, err
		}
		buf := slicing.NewPinned(len(lists[0]), ds.FeatDim, o.BatchSize)
		// Untimed verification pass: contents must equal the flat reference.
		// Its gathers (and cache touches) are excluded from the accounting by
		// the reset below, so the timed rounds report pure gather cost.
		for i, ids := range lists {
			if err := cfg.st.Gather(buf, ids, batches[i]); err != nil {
				return nil, fmt.Errorf("featurestore: %s: %w", cfg.name, err)
			}
			if got := stagedChecksum(buf, batches[i]); got != wantSums[i] {
				return nil, fmt.Errorf("featurestore: %s staged batch %d differs from flat", cfg.name, i)
			}
		}
		cfg.st.ResetStats()
		start := time.Now()
		for round := 0; round < o.Rounds; round++ {
			for i, ids := range lists {
				if err := cfg.st.Gather(buf, ids, batches[i]); err != nil {
					return nil, fmt.Errorf("featurestore: %s: %w", cfg.name, err)
				}
			}
		}
		secs := time.Since(start).Seconds()
		st := cfg.st.Stats()
		out = append(out, fsResult{
			name:       cfg.name,
			rows:       st.Rows,
			secs:       secs,
			stagedMB:   float64(st.Rows) * float64(prec.RowBytes(ds.FeatDim)) / (1 << 20),
			movedMB:    float64(st.BytesMoved) / (1 << 20),
			savedMB:    float64(st.BytesSaved) / (1 << 20),
			remoteFrac: st.RemoteFrac(),
			hitRate:    st.HitRate(),
		})
	}
	return out, nil
}

// stagedChecksum is an FNV-1a over a staged batch's features (at whatever
// precision the buffer holds, per-row scales included) and labels.
func stagedChecksum(buf *slicing.Pinned, batch int) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	switch buf.Prec {
	case half.FP32:
		for _, f := range buf.F[:buf.N*buf.Dim] {
			mix(uint64(math.Float32bits(f)))
		}
	case half.Int8:
		for _, q := range buf.Q[:buf.N*buf.Dim] {
			mix(uint64(uint8(q)))
		}
		for _, s := range buf.Scales[:buf.N] {
			mix(uint64(math.Float32bits(s)))
		}
	default:
		for _, f := range buf.H[:buf.N*buf.Dim] {
			mix(uint64(uint16(f)))
		}
	}
	for i := 0; i < batch; i++ {
		mix(uint64(uint32(buf.Labels[i])))
	}
	return h
}

// FeatureStoreSweep compares the feature-store layouts and policies on one
// batch workload: gather throughput, bytes actually transferred host to
// device, bytes saved by caching, and cross-shard traffic under LDG versus
// random placement (§4.2 data path, §8 future work).
func FeatureStoreSweep(o FeatureStoreOpts) (Table, error) {
	o.defaults()
	t := Table{
		ID:     "featurestore",
		Title:  "Feature-store layouts: gather throughput and transfer volume (§4.2/§8 extension)",
		Header: []string{"Store", "Gather", "Staged", "Moved", "Saved", "Remote", "HitRate"},
	}
	results, err := featureStoreResults(o)
	if err != nil {
		return t, err
	}
	for _, r := range results {
		t.AddRow(
			r.name,
			fmt.Sprintf("%.0f MB/s", r.throughputMBs()),
			fmt.Sprintf("%.1f MB", r.stagedMB),
			fmt.Sprintf("%.1f MB", r.movedMB),
			fmt.Sprintf("%.1f MB", r.savedMB),
			pct(r.remoteFrac),
			pct(r.hitRate),
		)
	}
	t.AddNote("identical part-local batches per store (batch=%d, fanouts %v, %d rounds); staged contents checksum-equal across stores",
		o.BatchSize, o.Fanouts, o.Rounds)
	t.AddNote("Moved excludes cache-resident rows; Remote = rows fetched off the batch's home shard")
	return t, nil
}
