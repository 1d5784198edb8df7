package bench

import (
	"fmt"
	"time"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/serve"
	"salient/internal/store"
	"salient/internal/train"
)

// EmbCacheOpts configures the adaptive-caching + embedding-reuse sweep.
type EmbCacheOpts struct {
	Scale     float64       // arxiv stand-in scale
	Hidden    int           // model width
	Epochs    int           // warm-up training epochs
	Workers   int           // server batching workers
	MaxBatch  int           // micro-batch cap
	MaxDelay  time.Duration // micro-batch coalescing deadline
	Requests  int           // requests per phase (warm and measure)
	Rate      float64       // open-loop offered load, requests/second
	Skew      float64       // Zipf popularity skew of the request stream
	CacheFrac float64       // feature-cache rows as a fraction of N
	EmbFrac   float64       // embedding-cache rows as a fraction of N
	ChurnRate float64       // edge updates/second for the churn rows
	Probe     int           // nodes probed for oracle agreement
	Seed      uint64
}

func (o *EmbCacheOpts) defaults() {
	if o.Scale == 0 {
		o.Scale = 0.1
	}
	if o.Hidden == 0 {
		o.Hidden = 32
	}
	if o.Epochs == 0 {
		o.Epochs = 2
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 32
	}
	if o.MaxDelay == 0 {
		o.MaxDelay = 300 * time.Microsecond
	}
	if o.Requests == 0 {
		o.Requests = 1500
	}
	if o.Rate == 0 {
		o.Rate = 1500
	}
	if o.Skew == 0 {
		o.Skew = 1.1
	}
	if o.CacheFrac == 0 {
		o.CacheFrac = 0.2
	}
	if o.EmbFrac == 0 {
		o.EmbFrac = 0.3
	}
	if o.ChurnRate == 0 {
		o.ChurnRate = 5000
	}
	if o.Probe == 0 {
		o.Probe = 150
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// EmbCacheResult is one configuration of the sweep: a feature-cache policy
// crossed with an embedding-reuse setting under Zipf open-loop load.
type EmbCacheResult struct {
	Policy    string  `json:"policy"`    // feature-cache placement policy
	EmbRows   int     `json:"emb_rows"`  // embedding cache capacity (0 = reuse off)
	Staleness uint64  `json:"staleness"` // reuse window, snapshot versions
	Churn     float64 `json:"churn_rps"` // applied edge updates/second (0 = static)
	P50Ms     float64 `json:"p50_ms"`    // measured open-loop request latency
	P95Ms     float64 `json:"p95_ms"`    //
	P99Ms     float64 `json:"p99_ms"`    // the tentpole metric
	ShedFrac  float64 `json:"shed_frac"` // requests rejected by admission control
	EmbHit    float64 `json:"emb_hit"`   // frontier truncation rate
	CacheHit  float64 `json:"cache_hit"` // feature-cache hit rate
	MBMoved   float64 `json:"mb_moved"`  // host->device feature bytes, measure phase
	Agreement float64 `json:"agreement"` // probe answers equal to no-reuse oracle (-1: n/a under churn)
}

// EmbCacheResults measures the sweep: one trained model, one Zipf workload
// (hot set shared between warm and measure phases via the popularity
// permutation seed), each configuration warmed closed-loop, VIP placement
// refreshed from the observed traffic, then measured under Poisson
// open-loop load. The churn rows re-run the reuse comparison on a dynamic
// graph with live edge updates, where the bounded-staleness window is doing
// real work (entries age out as versions advance).
//
// The rows, encoded as JSON, are the BENCH_embcache.json artifact CI uploads
// per commit.
func EmbCacheResults(o EmbCacheOpts) ([]EmbCacheResult, error) {
	o.defaults()
	ds, err := dataset.Load(dataset.Arxiv, o.Scale)
	if err != nil {
		return nil, err
	}
	fanouts := []int{10, 5}
	tr, err := train.New(ds, train.Config{
		Arch: "SAGE", Hidden: o.Hidden, Layers: len(fanouts), Fanouts: fanouts,
		BatchSize: 128, Workers: o.Workers, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	if _, err := tr.Fit(o.Epochs); err != nil {
		return nil, err
	}

	n := ds.G.N
	permSeed := o.Seed + 101
	warm := serve.ZipfNodes(n, o.Skew, permSeed, o.Seed+7, o.Requests)
	meas := serve.ZipfNodes(n, o.Skew, permSeed, o.Seed+8, o.Requests)
	probe := uniqueNodes(meas, o.Probe)

	// Oracle answers: a bare server (no caches, no reuse) probed
	// sequentially. Feature caches never change predictions, so any
	// divergence in a config's probe answers is attributable to reuse.
	oracle := make(map[int32]int32, len(probe))
	{
		srv, err := serve.New(tr.Model, ds, serve.Options{
			Fanouts: fanouts, Workers: o.Workers, MaxBatch: o.MaxBatch,
			MaxDelay: o.MaxDelay, Seed: o.Seed + 13,
		})
		if err != nil {
			return nil, err
		}
		for _, v := range probe {
			l, err := srv.Submit(v)
			if err != nil {
				srv.Close()
				return nil, err
			}
			oracle[v] = l
		}
		srv.Close()
	}

	cacheRows := int(float64(n) * o.CacheFrac)
	embRows := int(float64(n) * o.EmbFrac)
	type ecfg struct {
		policy  cache.Policy
		embRows int
		stale   uint64
		churn   float64
	}
	configs := []ecfg{
		{cache.StaticDegree, 0, 0, 0},
		{cache.VIP, 0, 0, 0},
		{cache.StaticDegree, embRows, 1, 0},
		{cache.VIP, embRows, 1, 0},
		{cache.VIP, 0, 0, o.ChurnRate},
		{cache.VIP, embRows, 2, o.ChurnRate},
	}
	var out []EmbCacheResult
	for _, cfg := range configs {
		r, err := measureEmbCache(tr, ds, fanouts, cacheRows, cfg.policy, cfg.embRows, cfg.stale, cfg.churn, warm, meas, probe, oracle, o)
		if err != nil {
			return nil, fmt.Errorf("embcache %v/%d/%d: %w", cfg.policy, cfg.embRows, cfg.stale, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// measureEmbCache runs one configuration: warm closed-loop, refresh the
// feature-cache placement from observed traffic, reset accounting, measure
// under Poisson open-loop load (with churn applied live for dynamic rows),
// then probe agreement against the oracle.
func measureEmbCache(tr *train.Trainer, ds *dataset.Dataset, fanouts []int, cacheRows int, policy cache.Policy, embRows int, stale uint64, churn float64, warm, meas, probe []int32, oracle map[int32]int32, o EmbCacheOpts) (EmbCacheResult, error) {
	cached, err := store.NewCached(store.NewFlat(ds), ds.G, cacheRows, policy)
	if err != nil {
		return EmbCacheResult{}, err
	}
	sopts := serve.Options{
		Fanouts: fanouts, Workers: o.Workers, MaxBatch: o.MaxBatch,
		MaxDelay: o.MaxDelay, QueueCapacity: 1024, Seed: o.Seed + 13,
		Store: cached, EmbCacheRows: embRows, EmbStaleness: stale,
	}
	var dyn *graph.Dynamic
	if churn > 0 {
		if dyn, err = graph.NewDynamic(ds.G, graph.DynamicOptions{}); err != nil {
			return EmbCacheResult{}, err
		}
		sopts.Graph = dyn
	}
	srv, err := serve.New(tr.Model, ds, sopts)
	if err != nil {
		return EmbCacheResult{}, err
	}
	defer srv.Close()

	serve.DriveClosedLoop(srv, warm, 8, len(warm))
	// VIP placement plans from the traffic the warm phase observed; the
	// degree policy replans to the same top-K it started with.
	cached.Refresh(ds.G)
	srv.ResetStats()

	stopChurn := make(chan struct{})
	churnDone := make(chan struct{})
	if churn > 0 {
		go func() {
			defer close(churnDone)
			serve.DriveChurn(func(src, dst []int32) (int, error) {
				applied, _, err := srv.Update(src, dst)
				return applied, err
			}, ds.G.N, churn, o.Seed+21, stopChurn)
		}()
	}
	serve.DriveOpenLoopProcess(srv, meas, o.Rate, len(meas), serve.ArrivalPoisson, o.Seed+5)
	if churn > 0 {
		close(stopChurn)
		<-churnDone
	}
	st := srv.Stats()

	r := EmbCacheResult{
		Policy:    policy.String(),
		EmbRows:   embRows,
		Staleness: stale,
		Churn:     churn,
		P50Ms:     st.Latency.P50 * 1e3,
		P95Ms:     st.Latency.P95 * 1e3,
		P99Ms:     st.Latency.P99 * 1e3,
		EmbHit:    st.EmbHitRate(),
		CacheHit:  st.CacheHitRate(),
		MBMoved:   float64(st.BytesTransferred) / (1 << 20),
		Agreement: -1,
	}
	if st.Submitted+st.Rejected > 0 {
		r.ShedFrac = float64(st.Rejected) / float64(st.Submitted+st.Rejected)
	}
	if churn == 0 {
		agree := 0
		for _, v := range probe {
			l, err := srv.Submit(v)
			if err != nil {
				return r, err
			}
			if l == oracle[v] {
				agree++
			}
		}
		r.Agreement = float64(agree) / float64(len(probe))
	}
	return r, nil
}

// uniqueNodes returns up to k distinct nodes from the request stream, in
// first-appearance order (so the probe leans toward the hot set).
func uniqueNodes(stream []int32, k int) []int32 {
	seen := make(map[int32]bool, k)
	var out []int32
	for _, v := range stream {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

// EmbCacheSweep is the read-heavy serving study of the adaptive cache
// stack: VIP (access-frequency) feature-cache placement crossed with
// historical layer-embedding reuse, under Zipf-popularity Poisson load —
// p99 latency, shed rate, feature bytes moved, and prediction agreement
// against the no-reuse oracle, plus a churned-graph pair where the
// bounded-staleness window ages entries out as versions advance.
func EmbCacheSweep(o EmbCacheOpts) (Table, error) {
	o.defaults()
	t := Table{
		ID:    "embcache",
		Title: "Adaptive caching + embedding reuse under Zipf load (§5/§8 extension)",
		Header: []string{"Policy", "EmbCache", "Stale", "Churn", "p50", "p95", "p99",
			"Shed", "EmbHit", "FeatHit", "Moved", "Agree"},
	}
	results, err := EmbCacheResults(o)
	if err != nil {
		return t, err
	}
	for _, r := range results {
		embCol := "off"
		if r.EmbRows > 0 {
			embCol = fmt.Sprintf("%d rows", r.EmbRows)
		}
		churnCol := "static"
		if r.Churn > 0 {
			churnCol = fmt.Sprintf("%.0f ups", r.Churn)
		}
		agreeCol := "-"
		if r.Agreement >= 0 {
			agreeCol = pct(r.Agreement)
		}
		t.AddRow(
			r.Policy, embCol, fmt.Sprintf("%d", r.Staleness), churnCol,
			fmt.Sprintf("%.2fms", r.P50Ms), fmt.Sprintf("%.2fms", r.P95Ms), fmt.Sprintf("%.2fms", r.P99Ms),
			pct(r.ShedFrac), pct(r.EmbHit), pct(r.CacheHit),
			fmt.Sprintf("%.1fMB", r.MBMoved), agreeCol,
		)
	}
	t.AddNote("Zipf skew %.1f (hot set shared warm->measure), Poisson open loop at %.0f rps, %d requests/phase, arxiv scale %.2f",
		o.Skew, o.Rate, o.Requests, o.Scale)
	t.AddNote("feature cache %.0f%% of N; embedding cache %.0f%% of N; agreement probed on %d hot nodes vs a no-reuse server",
		100*o.CacheFrac, 100*o.EmbFrac, o.Probe)
	return t, nil
}
