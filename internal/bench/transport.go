package bench

import (
	"fmt"
	"time"

	"salient/internal/dataset"
	"salient/internal/device"
	"salient/internal/dist"
	"salient/internal/half"
	"salient/internal/partition"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/store"
)

// TransportOpts configures the distributed-data-plane sweep: every part's
// remote store gathers its own part-local batches, exactly the access
// pattern of one host in distributed training, over both wires.
type TransportOpts struct {
	Scale      float64   // arxiv stand-in scale
	Parts      int       // partition/host count (>= 2)
	BatchSize  int       // seeds per gathered batch
	Fanouts    []int     // sampling fanouts for batch expansion
	Rounds     int       // timed passes over the batch set per config
	CacheFracs []float64 // mirror capacities as fractions of N; [0] is the precision axis's
	Seed       uint64
}

func (o *TransportOpts) defaults() {
	if o.Scale == 0 {
		o.Scale = 0.3
	}
	if o.Parts == 0 {
		o.Parts = 2
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
		o.CacheFracs = []float64{0, 0.1}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// TransportResult is one (wire, precision, mirror size) configuration's
// measured row — the machine-readable BENCH_transport.json schema.
type TransportResult struct {
	Wire       string  `json:"wire"`      // "loopback" or "tcp"
	Precision  string  `json:"precision"` // row encoding crossing the wire
	CacheFrac  float64 `json:"cache_frac"`
	Batches    int     `json:"batches"` // timed gathers (batch set x rounds)
	KRowsPerS  float64 `json:"krows_per_sec"`
	WireKBPB   float64 `json:"wire_kb_per_batch"` // framed bytes on the wire per batch
	RemoteFrac float64 `json:"remote_frac"`       // rows that crossed the wire
	HitRate    float64 `json:"hit_rate"`          // mirror hit rate over non-home rows
	// WireMsPB10GigE prices the measured framed bytes and batched calls on
	// the paper testbed's 10 GigE network (device.Profile.WireTime) — the
	// localhost run measures real bytes, the model says what they would
	// cost across machines.
	WireMsPB10GigE float64 `json:"modeled_10gige_ms_per_batch"`
}

// TransportResults measures the sweep. Every configuration is a full
// dist.Cluster over the same LDG assignment gathering the identical
// part-local batch set, checksum-verified against a flat store at the same
// precision before timing — the wire may change cost, never contents. Wire
// bytes are the transport's own framed accounting (store.Remote charges the
// actual per-call frame sizes), so loopback and TCP rows must agree exactly.
//
// The rows, encoded as JSON, are the BENCH_transport.json artifact CI uploads
// per commit.
func TransportResults(o TransportOpts) ([]TransportResult, error) {
	o.defaults()
	ds, err := dataset.Load(dataset.Arxiv, o.Scale)
	if err != nil {
		return nil, err
	}
	a, err := partition.LDG(ds.G, o.Parts)
	if err != nil {
		return nil, err
	}

	// Part-local seed batches under the cluster's own assignment: part r's
	// store gathers only batches seeded in part r, the distributed training
	// schedule. Expansion still reaches every part's rows.
	byPart := make([][]int32, o.Parts)
	for _, v := range ds.Train {
		byPart[a.Part[v]] = append(byPart[a.Part[v]], v)
	}
	sm := sampler.New(ds.G, o.Fanouts, sampler.FastConfig())
	var lists [][]int32
	var batches []int
	var owner []int
	for p := range byPart {
		for b := 0; b+o.BatchSize <= len(byPart[p]) && b < 8*o.BatchSize; b += o.BatchSize {
			seeds := byPart[p][b : b+o.BatchSize]
			m := sm.Sample(rng.New(o.Seed+uint64(p*8191+b)), seeds).Clone()
			lists = append(lists, m.NodeIDs)
			batches = append(batches, len(seeds))
			owner = append(owner, p)
		}
	}
	if len(lists) == 0 {
		return nil, fmt.Errorf("transport: no batches at scale %g", o.Scale)
	}

	// Reference checksums per wire precision from a flat store (untimed).
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

	// The precision axis runs at the first mirror size; the mirror axis runs
	// at the default precision. Both over both wires.
	type tconfig struct {
		prec half.Precision
		frac float64
	}
	var configs []tconfig
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		configs = append(configs, tconfig{prec, o.CacheFracs[0]})
	}
	for _, frac := range o.CacheFracs[1:] {
		configs = append(configs, tconfig{half.FP16, frac})
	}

	var out []TransportResult
	for _, wire := range []string{"loopback", "tcp"} {
		for _, cfg := range configs {
			wantSums, err := refFor(cfg.prec)
			if err != nil {
				return nil, err
			}
			c, err := dist.NewCluster(ds, dist.ClusterOptions{
				Parts:      o.Parts,
				TCP:        wire == "tcp",
				Precision:  cfg.prec,
				CacheRows:  int(float64(ds.G.N) * cfg.frac),
				Assignment: a,
			})
			if err != nil {
				return nil, fmt.Errorf("transport: %s %v cluster: %w", wire, cfg.prec, err)
			}
			r, err := measureCluster(c, o, lists, batches, owner, wantSums, ds.FeatDim)
			c.Close()
			if err != nil {
				return nil, fmt.Errorf("transport: %s %v: %w", wire, cfg.prec, err)
			}
			r.Wire = wire
			r.Precision = cfg.prec.String()
			r.CacheFrac = cfg.frac
			out = append(out, r)
		}
	}
	return out, nil
}

// measureCluster runs the verify pass then the timed rounds over one
// cluster, gathering each batch through its owning part's remote store.
func measureCluster(c *dist.Cluster, o TransportOpts, lists [][]int32, batches []int, owner []int, wantSums []uint64, dim int) (TransportResult, error) {
	buf := slicing.NewPinned(len(lists[0]), dim, o.BatchSize)
	for i, ids := range lists {
		if err := c.Stores[owner[i]].Gather(buf, ids, batches[i]); err != nil {
			return TransportResult{}, err
		}
		if got := stagedChecksum(buf, batches[i]); got != wantSums[i] {
			return TransportResult{}, fmt.Errorf("staged batch %d differs from flat reference", i)
		}
	}
	for _, st := range c.Stores {
		st.ResetStats()
	}
	connCalls := func() int64 {
		var n int64
		for _, conn := range c.Conns() {
			n += conn.Stats().Calls
		}
		return n
	}
	calls0 := connCalls()
	start := time.Now()
	for round := 0; round < o.Rounds; round++ {
		for i, ids := range lists {
			if err := c.Stores[owner[i]].Gather(buf, ids, batches[i]); err != nil {
				return TransportResult{}, err
			}
		}
	}
	secs := time.Since(start).Seconds()

	var total store.Stats
	for _, s := range c.Stores {
		st := s.Stats()
		total.Rows += st.Rows
		total.RowsRemote += st.RowsRemote
		total.BytesRemote += st.BytesRemote
		total.CacheLookups += st.CacheLookups
		total.CacheHits += st.CacheHits
	}
	timed := o.Rounds * len(lists)
	calls := connCalls() - calls0
	pr := device.PaperProfile()
	r := TransportResult{
		Batches:        timed,
		WireKBPB:       float64(total.BytesRemote) / float64(timed) / (1 << 10),
		RemoteFrac:     total.RemoteFrac(),
		HitRate:        total.HitRate(),
		WireMsPB10GigE: pr.WireTime(total.BytesRemote, calls) / float64(timed) * 1e3,
	}
	if secs > 0 {
		r.KRowsPerS = float64(total.Rows) / secs / 1e3
	}
	return r, nil
}

// TransportSweep compares the distributed data plane over in-process
// loopback and real TCP-over-localhost sockets: gather throughput, framed
// bytes on the wire per batch across the fp16/fp32/int8 wire encodings, and
// the remote fraction as the warmed mirror grows (§8 future work:
// partitioned multi-host execution).
func TransportSweep(o TransportOpts) (Table, error) {
	o.defaults()
	t := Table{
		ID:     "transport",
		Title:  "Distributed data plane: loopback vs TCP wire (§8 extension)",
		Header: []string{"Wire", "Precision", "Mirror", "Gather", "Wire/batch", "10GigE/batch", "Remote", "HitRate"},
	}
	results, err := TransportResults(o)
	if err != nil {
		return t, err
	}
	for _, r := range results {
		t.AddRow(
			r.Wire,
			r.Precision,
			fmt.Sprintf("%.0f%% of N", 100*r.CacheFrac),
			fmt.Sprintf("%.0f krow/s", r.KRowsPerS),
			fmt.Sprintf("%.1f KB", r.WireKBPB),
			fmt.Sprintf("%.2f ms", r.WireMsPB10GigE),
			pct(r.RemoteFrac),
			pct(r.HitRate),
		)
	}
	t.AddNote("%d parts, part-local batches (batch=%d, fanouts %v, %d rounds); staged contents checksum-equal to a flat store per precision",
		o.Parts, o.BatchSize, o.Fanouts, o.Rounds)
	t.AddNote("Wire/batch is the transport's framed byte accounting — identical for loopback and tcp by construction; mirror warming excluded")
	t.AddNote("10GigE/batch prices the measured bytes and batched calls on the paper testbed's network (device.Profile.WireTime)")
	return t, nil
}
