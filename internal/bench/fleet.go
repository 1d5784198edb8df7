package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/fleet"
	"salient/internal/nn"
	"salient/internal/serve"
	"salient/internal/store"
	"salient/internal/train"
)

// FleetOpts configures the replicated-serving sweep.
type FleetOpts struct {
	Scale      float64       // arxiv stand-in scale
	Hidden     int           // model width
	Epochs     int           // warm-up training epochs
	Workers    int           // batching workers per replica
	MaxBatch   int           // micro-batch cap
	MaxDelay   time.Duration // micro-batch coalescing deadline
	Requests   int           // requests per phase (warm and measure)
	Rate       float64       // open-loop offered load, requests/second
	Skew       float64       // Zipf popularity skew of the request stream
	Replicas   int           // fleet size of the replicated rows (vs the 1-replica baseline)
	CacheFrac  float64       // TOTAL feature-cache rows as a fraction of N (split across replicas)
	EmbFrac    float64       // TOTAL embedding-cache rows as a fraction of N (split across replicas)
	ResultFrac float64       // result-cache rows as a fraction of N (the memo row only)
	LoadFactor float64       // bounded-load spill factor for hash rows (<=1: affinity absolute)

	// Overload-phase knobs: a tiny-queue fleet under closed-loop pressure
	// with mixed priorities and per-request deadlines.
	OverloadClients int           // closed-loop clients
	OverloadQueue   int           // per-replica queue capacity
	Deadline        time.Duration // per-request deadline in the overload phase

	Seed uint64
}

func (o *FleetOpts) defaults() {
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
		o.Workers = 2
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
	if o.Replicas == 0 {
		o.Replicas = 3
	}
	if o.CacheFrac == 0 {
		o.CacheFrac = 0.2
	}
	if o.EmbFrac == 0 {
		o.EmbFrac = 0.3
	}
	if o.ResultFrac == 0 {
		o.ResultFrac = 0.1
	}
	if o.LoadFactor == 0 {
		o.LoadFactor = 1.25
	}
	if o.OverloadClients == 0 {
		o.OverloadClients = 64
	}
	if o.OverloadQueue == 0 {
		o.OverloadQueue = 16
	}
	if o.Deadline == 0 {
		o.Deadline = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// FleetResult is one sweep row. Routing-phase rows compare fleet sizes and
// policies under identical Zipf Poisson load; the overload-phase row
// pressure-tests priority admission (its shed columns are per priority
// class, the routing columns zero).
type FleetResult struct {
	Phase    string `json:"phase"`    // "routing" or "overload"
	Replicas int    `json:"replicas"` //
	Routing  string `json:"routing"`  // hash | random | hash+memo | hash+pri

	P50Ms    float64 `json:"p50_ms"`    // fleet-boundary request latency
	P95Ms    float64 `json:"p95_ms"`    //
	P99Ms    float64 `json:"p99_ms"`    // the tentpole metric
	ShedFrac float64 `json:"shed_frac"` // refused / offered, all reasons

	VIPHit      float64 `json:"vip_hit"`      // fleet-wide feature-cache hit rate
	EmbHit      float64 `json:"emb_hit"`      // fleet-wide embedding-reuse hit rate
	CombinedHit float64 `json:"combined_hit"` // (feature + embedding hits) / lookups
	ResultHit   float64 `json:"result_hit"`   // versioned result-cache hit rate
	Balance     float64 `json:"balance"`      // max/mean of per-replica answered counts

	// Overload phase: per-priority-class outcomes.
	LowShedFrac  float64 `json:"low_shed_frac"`  // low-priority requests refused
	HighShedFrac float64 `json:"high_shed_frac"` // high-priority requests refused
	HighMissFrac float64 `json:"high_miss_frac"` // high-priority deadline misses
}

// FleetResults measures the sweep: one trained model replicated per
// config, every config warmed closed-loop on the same Zipf hot set (the
// popularity permutation is shared), VIP placements refreshed from the
// observed traffic, then measured under Poisson open-loop load. The TOTAL
// cache budget is fixed — split evenly across replicas — so fleet rows
// answer "does affinity keep partitioned caches hot", not "does more
// cache help". A final overload row floods a tiny-queue fleet with mixed
// priorities and deadlines.
//
// The rows, encoded as JSON, are the BENCH_fleet.json artifact CI uploads
// per commit.
func FleetResults(o FleetOpts) ([]FleetResult, error) {
	o.defaults()
	ds, err := dataset.Load(dataset.Arxiv, o.Scale)
	if err != nil {
		return nil, err
	}
	fanouts := []int{10, 5}
	tr, err := train.New(ds, train.Config{
		Arch: "SAGE", Hidden: o.Hidden, Layers: len(fanouts), Fanouts: fanouts,
		BatchSize: 128, Workers: 2, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	if _, err := tr.Fit(o.Epochs); err != nil {
		return nil, err
	}
	build := func() (nn.Model, error) {
		return train.NewModel("SAGE", nn.ModelConfig{
			In: ds.FeatDim, Hidden: o.Hidden, Out: ds.NumClasses,
			Layers: len(fanouts), Seed: o.Seed,
		})
	}

	n := ds.G.N
	permSeed := o.Seed + 101
	warm := serve.ZipfNodes(n, o.Skew, permSeed, o.Seed+7, o.Requests)
	meas := serve.ZipfNodes(n, o.Skew, permSeed, o.Seed+8, o.Requests)
	resultRows := int(float64(n) * o.ResultFrac)

	type fcfg struct {
		replicas   int
		routing    fleet.Routing
		resultRows int
		label      string
	}
	configs := []fcfg{
		{1, fleet.RouteHash, 0, "hash"},
		{o.Replicas, fleet.RouteHash, 0, "hash"},
		{o.Replicas, fleet.RouteRandom, 0, "random"},
		{o.Replicas, fleet.RouteHash, resultRows, "hash+memo"},
	}
	var out []FleetResult
	for _, cfg := range configs {
		r, err := measureFleet(ds, tr, build, fanouts, cfg.replicas, cfg.routing, cfg.resultRows, cfg.label, warm, meas, o)
		if err != nil {
			return nil, fmt.Errorf("fleet %s/%d: %w", cfg.label, cfg.replicas, err)
		}
		out = append(out, r)
	}
	over, err := measureFleetOverload(ds, tr, build, fanouts, warm, o)
	if err != nil {
		return nil, fmt.Errorf("fleet overload: %w", err)
	}
	return append(out, over), nil
}

// fleetServeTemplate builds the per-replica server template with the total
// cache budget split across replicas.
func fleetServeTemplate(fanouts []int, replicas int, n int32, o FleetOpts) serve.Options {
	return serve.Options{
		Fanouts: fanouts, Workers: o.Workers, MaxBatch: o.MaxBatch,
		MaxDelay: o.MaxDelay, QueueCapacity: 1024, Seed: o.Seed + 13,
		CacheRows: int(float64(n) * o.CacheFrac / float64(replicas)), CachePolicy: cache.VIP,
		EmbCacheRows: int(float64(n) * o.EmbFrac / float64(replicas)), EmbStaleness: 1,
	}
}

// measureFleet runs one routing-phase configuration: warm closed-loop,
// refresh every replica's VIP placement from its own observed traffic,
// reset accounting, measure under Poisson open-loop load.
func measureFleet(ds *dataset.Dataset, tr *train.Trainer, build func() (nn.Model, error), fanouts []int, replicas int, routing fleet.Routing, resultRows int, label string, warm, meas []int32, o FleetOpts) (FleetResult, error) {
	models, err := fleet.Replicate(tr.Model, replicas, build)
	if err != nil {
		return FleetResult{}, err
	}
	f, err := fleet.New(ds, fleet.Options{
		Replicas: replicas, Serve: fleetServeTemplate(fanouts, replicas, ds.G.N, o),
		Routing: routing, LoadFactor: o.LoadFactor, ResultRows: resultRows,
		Seed: o.Seed + 17,
	}, models...)
	if err != nil {
		return FleetResult{}, err
	}
	defer f.Close()

	serve.DriveClosedLoop(f, warm, 8, len(warm))
	// Each replica's VIP placement plans from the slice of traffic routing
	// sent IT — under affinity that is its own hot key range, under random
	// a diluted copy of the global distribution.
	for i := 0; i < replicas; i++ {
		if c, ok := f.Replica(i).FeatureStore().(*store.Cached); ok {
			c.Refresh(ds.G)
		}
	}
	f.ResetStats()
	serve.DriveOpenLoopProcess(f, meas, o.Rate, len(meas), serve.ArrivalPoisson, o.Seed+5)
	st := f.Stats()

	r := FleetResult{
		Phase: "routing", Replicas: replicas, Routing: label,
		P50Ms: st.Latency.P50 * 1e3, P95Ms: st.Latency.P95 * 1e3, P99Ms: st.Latency.P99 * 1e3,
		CombinedHit: st.CombinedCacheHitRate(),
		ResultHit:   st.Result.HitRate(),
	}
	if st.CacheLookups > 0 {
		r.VIPHit = float64(st.CacheHits) / float64(st.CacheLookups)
	}
	if st.EmbLookups > 0 {
		r.EmbHit = float64(st.EmbHits) / float64(st.EmbLookups)
	}
	offered := int64(len(meas))
	if refused := st.Rejected + st.TotalSheds(); offered > 0 {
		r.ShedFrac = float64(refused) / float64(offered)
	}
	var max, total int64
	for _, c := range st.Routed {
		total += c
		if c > max {
			max = c
		}
	}
	if total > 0 {
		r.Balance = float64(max) * float64(len(st.Routed)) / float64(total)
	}
	return r, nil
}

// measureFleetOverload floods a tiny-queue fleet with closed-loop mixed
// -priority deadline-carrying traffic: every 4th request is high priority,
// the rest low. The claim under test: admission sheds the low class first,
// and the high class keeps meeting its deadline until true saturation.
func measureFleetOverload(ds *dataset.Dataset, tr *train.Trainer, build func() (nn.Model, error), fanouts []int, stream []int32, o FleetOpts) (FleetResult, error) {
	models, err := fleet.Replicate(tr.Model, o.Replicas, build)
	if err != nil {
		return FleetResult{}, err
	}
	tmpl := fleetServeTemplate(fanouts, o.Replicas, ds.G.N, o)
	tmpl.QueueCapacity = o.OverloadQueue
	f, err := fleet.New(ds, fleet.Options{
		Replicas: o.Replicas, Serve: tmpl, Routing: fleet.RouteHash,
		LoadFactor: o.LoadFactor, PriorityLevels: 2, Seed: o.Seed + 17,
	}, models...)
	if err != nil {
		return FleetResult{}, err
	}
	defer f.Close()

	// Warm without QoS so service-time estimates are live, then measure.
	serve.DriveClosedLoop(f, stream, 4, len(stream)/2)
	f.ResetStats()

	var mu sync.Mutex
	var lowOff, lowShed, highOff, highShed, highMiss int64
	var wg sync.WaitGroup
	for c := 0; c < o.OverloadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(stream); i += o.OverloadClients {
				pri := uint8(0)
				if i%4 == 0 {
					pri = 1
				}
				_, err := f.PredictReq(serve.Request{
					Node: stream[i], Priority: pri,
					Deadline: time.Now().Add(o.Deadline),
				})
				mu.Lock()
				if pri == 1 {
					highOff++
					switch {
					case errors.Is(err, serve.ErrDeadline) || errors.Is(err, fleet.ErrShedDeadline):
						highMiss++
					case err != nil:
						highShed++
					}
				} else {
					lowOff++
					if err != nil {
						lowShed++
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	st := f.Stats()

	r := FleetResult{
		Phase: "overload", Replicas: o.Replicas, Routing: "hash+pri",
		P50Ms: st.Latency.P50 * 1e3, P95Ms: st.Latency.P95 * 1e3, P99Ms: st.Latency.P99 * 1e3,
	}
	if offered := lowOff + highOff; offered > 0 {
		r.ShedFrac = float64(lowShed+highShed+highMiss) / float64(offered)
	}
	if lowOff > 0 {
		r.LowShedFrac = float64(lowShed) / float64(lowOff)
	}
	if highOff > 0 {
		r.HighShedFrac = float64(highShed) / float64(highOff)
		r.HighMissFrac = float64(highMiss) / float64(highOff)
	}
	return r, nil
}

// FleetSweep is the replicated-serving study: consistent-hash affinity
// versus random routing at a fixed total cache budget (does affinity keep
// partitioned VIP/embedding caches hot?), the versioned result cache's
// contribution, and priority/deadline admission under overload.
func FleetSweep(o FleetOpts) (Table, error) {
	o.defaults()
	t := Table{
		ID:    "fleet",
		Title: "Replicated serving fleet: affinity routing, admission, result memo (§5/§8 extension)",
		Header: []string{"Phase", "N", "Routing", "p50", "p95", "p99", "Shed",
			"VIPHit", "EmbHit", "Combined", "Memo", "Balance", "LowShed", "HiShed", "HiMiss"},
	}
	results, err := FleetResults(o)
	if err != nil {
		return t, err
	}
	for _, r := range results {
		t.AddRow(
			r.Phase, fmt.Sprintf("%d", r.Replicas), r.Routing,
			fmt.Sprintf("%.2fms", r.P50Ms), fmt.Sprintf("%.2fms", r.P95Ms), fmt.Sprintf("%.2fms", r.P99Ms),
			pct(r.ShedFrac), pct(r.VIPHit), pct(r.EmbHit), pct(r.CombinedHit), pct(r.ResultHit),
			fmt.Sprintf("%.2fx", r.Balance),
			pct(r.LowShedFrac), pct(r.HighShedFrac), pct(r.HighMissFrac),
		)
	}
	t.AddNote("Zipf skew %.1f, Poisson open loop at %.0f rps, %d requests/phase, arxiv scale %.2f; total cache budget fixed (feature %.0f%%, embedding %.0f%% of N) and split across replicas",
		o.Skew, o.Rate, o.Requests, o.Scale, 100*o.CacheFrac, 100*o.EmbFrac)
	t.AddNote("overload row: %d closed-loop clients, queue %d/replica, %v deadlines, every 4th request high priority",
		o.OverloadClients, o.OverloadQueue, o.Deadline)
	return t, nil
}
