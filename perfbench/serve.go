package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/fleet"
	"salient/internal/graph"
	"salient/internal/mfg"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/serve"
	"salient/internal/slicing"
	"salient/internal/store"
	"salient/internal/tensor"
	"salient/internal/train"
)

// The serving workload: a fleet of two replicas (one serving worker each)
// with affinity routing, a VIP feature cache, first-layer embedding reuse
// and the versioned result cache, on a dynamic arxiv graph. Requests
// arrive open-loop on a Poisson schedule with Zipf node popularity while
// an edge stream updates every replica's graph.
const (
	serveScale    = 1.0
	serveReplicas = 2
	serveEpochs   = 1 // set-up training epochs
	zipfSkew      = 1.0
	// churnEdges is the update rate in edges per second (Fleet.Update in
	// chunks of 8). It is low enough that the result cache still answers
	// a material share of lookups between invalidations.
	churnEdges = 200
	maxSkew    = 4
	// lowRate and highRate are the two fixed offered loads: a quarter and
	// three quarters of the 11.5k requests per second a bare server (no
	// caches, no fleet) sustained when this benchmark was written.
	lowRate  = 2900.0
	highRate = 8600.0
	// latencyLimit is the p99 bound the rate ladder is searched against.
	// Below it the p99 rises gently with load and scheduling stalls move
	// it by a third run to run; at 50 ms the bound falls where the queue
	// starts to grow, so the rate that meets it is well determined.
	latencyLimit = 50 * time.Millisecond
	// abortBacklog keeps a ladder step's backlog well below the 2×1024
	// requests the replicas' admission queues hold. Routing is uneven, so
	// one queue can still fill and reject; the step then fails.
	abortBacklog = 1536
	// closedClients callers keep both replicas' micro-batches full enough
	// to saturate them. Twice as many leave the two cores switching
	// between waiting callers, and the throughput then swings by a fifth
	// from one half second to the next.
	closedClients = 64
	// probe is how long each ladder step offers its rate.
	probe = 500 * time.Millisecond
	// serveAccFloor is below every seed's served accuracy (0.993-0.999
	// over seeds 1-10).
	serveAccFloor = 0.95
)

var serveFanouts = []int{10, 5}

// rateLadder is the fixed set of rates serve.max_rps is searched over:
// geometric steps of 5% from 1000 to about 150000 requests per second.
var rateLadder = func() []float64 {
	var l []float64
	for r := 1000.0; r < 150000; r *= 1.05 {
		l = append(l, math.Round(r))
	}
	return l
}()

type serveSetup struct {
	ds    *dataset.Dataset
	model nn.Model
	fl    *fleet.Fleet
}

func buildServe(e env) (serveSetup, error) {
	cfg := dataset.PresetConfig(dataset.Arxiv, serveScale)
	cfg.Seed = derive(e.Seed, saltDataset)
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return serveSetup{}, err
	}
	tcfg := train.Config{
		Arch: "SAGE", Hidden: 64, Layers: len(serveFanouts), Fanouts: serveFanouts,
		BatchSize: 256, Workers: 2, Seed: derive(e.Seed, saltTrain),
	}
	tr, err := train.New(ds, tcfg)
	if err != nil {
		return serveSetup{}, err
	}
	if _, err := tr.Fit(serveEpochs); err != nil {
		return serveSetup{}, err
	}
	models, err := fleet.Replicate(tr.Model, serveReplicas, func() (nn.Model, error) {
		return train.NewModel(tcfg.Arch, nn.ModelConfig{In: ds.FeatDim, Hidden: tcfg.Hidden, Out: ds.NumClasses, Layers: tcfg.Layers, Seed: tcfg.Seed})
	})
	if err != nil {
		return serveSetup{}, err
	}
	fl, err := fleet.New(ds, fleet.Options{
		Replicas: serveReplicas,
		Serve: serve.Options{
			Fanouts: serveFanouts, Workers: 1, Seed: derive(e.Seed, saltServe),
			CacheRows: int(ds.G.N) / 10 / serveReplicas, CachePolicy: cache.VIP,
			EmbCacheRows: 4096, EmbStaleness: maxSkew,
		},
		Routing: fleet.RouteHash, MaxSkew: maxSkew, ResultRows: 8192, Dynamic: true,
		Seed: derive(e.Seed, saltServe),
	}, models...)
	if err != nil {
		return serveSetup{}, err
	}
	// Warm the caches with the workload's own popularity law.
	warm := serve.ZipfNodes(ds.G.N, zipfSkew, derive(e.Seed, saltZipfPerm), derive(e.Seed, saltZipfDraw), 4000)
	serve.DriveClosedLoop(fl, warm, 8, len(warm))
	fl.ResetStats()
	return serveSetup{ds, tr.Model, fl}, nil
}

// loadgen offers load to the fleet and keeps every outcome. Open-loop
// steps (offer) have one dispatcher goroutine send each request at its
// due time on a seeded Poisson schedule and time every latency from the
// due time; the closed loop (closedLoop) measures saturation throughput.
// Every refusal or error counts as a failure.
type loadgen struct {
	e    env
	fl   *fleet.Fleet
	n    int32
	tr   atomic.Pointer[tracer] // nil while untraced
	reqs atomic.Int64           // requests dispatched so far, the span request IDs
	// version is the fleet watermark the last completed update returned.
	version atomic.Uint64

	mu       sync.Mutex
	answers  []answer
	late     []float64 // dispatch lateness of the current step, seconds
	steps    int
	kinds    map[string]int64 // failures by kind
	staleMax uint64           // largest watermark-minus-answer version seen
}

type answer struct {
	node    int32
	label   int32
	version uint64
}

// offer sends rate requests per second for dur and waits for every answer.
// The backlog is the requests dispatched and not yet answered. Dispatch
// stops early once it passes twice the stable backlog (at most
// abortBacklog), so an overload step of the ladder ends soon after its
// queue starts to grow.
func (g *loadgen) offer(rate float64, dur time.Duration) step {
	g.mu.Lock()
	g.steps++
	k := uint64(g.steps)
	g.mu.Unlock()
	n := int(rate * dur.Seconds())
	nodes := serve.ZipfNodes(g.n, zipfSkew, derive(g.e.Seed, saltZipfPerm), derive(g.e.Seed, saltZipfDraw)+k, n)
	gaps := rng.New(derive(g.e.Seed, saltPoisson) + k)

	abortAt := int64(min(2*backlogLimit(rate, latencyLimit), abortBacklog))
	s := step{Rate: rate}
	lat := make([]float64, n)
	ok := make([]bool, n)
	late := make([]float64, 0, n)
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	due := time.Now()
	for i := 0; i < n; i++ {
		due = due.Add(time.Duration(-math.Log(1-gaps.Float64()) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, time.Since(due).Seconds())
		if outstanding.Load() > abortAt {
			s.Aborted = true
			break
		}
		s.Attempted++
		outstanding.Add(1)
		wg.Add(1)
		go func(i int, node int32, due time.Time) {
			defer wg.Done()
			defer outstanding.Add(-1)
			watermark := g.version.Load()
			tr := g.tr.Load()
			id := tr.begin("fleet.Fleet.Predict", 0, g.reqs.Add(1))
			p, err := g.fl.Predict(node)
			tr.end(id)
			lat[i] = time.Since(due).Seconds()
			g.record(node, p, err, watermark)
			ok[i] = err == nil
		}(i, nodes[i], due)
	}
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
	}
	s.Backlog = int(outstanding.Load())
	wg.Wait()
	for i := 0; i < s.Attempted; i++ {
		if ok[i] {
			s.Latency = append(s.Latency, lat[i])
		} else {
			s.Failed++
		}
	}
	g.mu.Lock()
	g.late = late
	g.mu.Unlock()
	return s
}

// closedLoop runs clients callers that each send the next request as soon
// as the previous one is answered, for dur, and returns the answers per
// second (the fleet's saturation throughput), the requests sent and the
// requests that failed.
func (g *loadgen) closedLoop(clients int, dur time.Duration) (float64, int, int) {
	nodes := serve.ZipfNodes(g.n, zipfSkew, derive(g.e.Seed, saltZipfPerm), derive(g.e.Seed, saltZipfDraw)^1<<40, 1<<16)
	var tried, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(stop); i += clients {
				node := nodes[i%len(nodes)]
				watermark := g.version.Load()
				p, err := g.fl.Predict(node)
				tried.Add(1)
				if err != nil {
					failed.Add(1)
				}
				g.record(node, p, err, watermark)
			}
		}(c)
	}
	wg.Wait()
	answered := tried.Load() - failed.Load()
	return float64(answered) / time.Since(start).Seconds(), int(tried.Load()), int(failed.Load())
}

// record keeps one outcome for the output checks.
func (g *loadgen) record(node int32, p serve.Prediction, err error, watermark uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		var shed *fleet.ShedError
		switch {
		case errors.As(err, &shed):
			g.kinds["shed_"+shed.Reason.String()]++
		case errors.Is(err, serve.ErrSaturated):
			g.kinds["rejected"]++
		default:
			g.kinds["error"]++
		}
		return
	}
	g.answers = append(g.answers, answer{node, p.Label, p.Version})
	if watermark > p.Version && watermark-p.Version > g.staleMax {
		g.staleMax = watermark - p.Version
	}
}

// churn streams edge updates into the fleet until stop closes, timing each
// Fleet.Update.
type churn struct {
	stop    chan struct{}
	done    chan int64
	updates []float64 // ms per Fleet.Update, read after finish
}

func startChurn(g *loadgen) *churn {
	c := &churn{stop: make(chan struct{}), done: make(chan int64, 1)}
	apply := func(src, dst []int32) (int, error) {
		tr := g.tr.Load()
		id := tr.begin("fleet.Fleet.Update", 0, 0)
		t0 := time.Now()
		n, v, err := g.fl.Update(src, dst)
		c.updates = append(c.updates, ms(time.Since(t0)))
		tr.end(id)
		if err == nil {
			g.version.Store(v)
		}
		return n, err
	}
	go func() { c.done <- serve.DriveChurn(apply, g.n, churnEdges, derive(g.e.Seed, saltChurn), c.stop) }()
	return c
}

// finish stops the stream and returns the number of edges applied.
func (c *churn) finish() int64 {
	close(c.stop)
	return <-c.done
}

func runServeZipfChurn(e env) (*report, error) {
	rep := newReport()
	setupS, su, err := setupTimes(3, func() (serveSetup, error) { return buildServe(e) }, func(s serveSetup) { s.fl.Close() })
	if err != nil {
		return nil, err
	}
	defer su.fl.Close()
	rep.E2E["setup_s"] = setupS
	rep.metric("setup_s", setupS, "s")
	ds, fl := su.ds, su.fl

	g := &loadgen{e: e, fl: fl, n: ds.G.N, kinds: map[string]int64{}}
	gc0 := gcPause()
	deadline := time.Now().Add(e.Seconds)
	ch := startChurn(g)
	// An unrecorded step at the high rate lets the caches settle under
	// churn before anything is measured.
	settle := g.offer(highRate, time.Second)
	low := g.offer(lowRate, 2*time.Second)
	high := g.offer(highRate, 3*time.Second)
	lateHigh := sortedCopy(g.late)
	capRPS, capTried, capFailed := g.closedLoop(closedClients, 4*time.Second)
	maxRPS, ladder := maxRate(rateLadder, latencyLimit,
		func(rate float64) step { return g.offer(rate, probe) },
		func() bool { return time.Now().Add(probe).Before(deadline) })
	applied := ch.finish()
	gcMs := ms(gcPause() - gc0)
	fl.RefreshVersions()
	st := fl.Stats()

	// The run's attempted and failed requests are those of the fixed
	// rates. The ladder overloads the fleet on purpose; its refusals are
	// the signal it searches for and count only against its own steps.
	rep.Attempted, rep.Failed = int64(capTried), int64(capFailed)
	for _, s := range []step{settle, low, high} {
		rep.Attempted += int64(s.Attempted)
		rep.Failed += int64(s.Failed)
	}
	correct, stale := 0, 0
	for _, a := range g.answers {
		if a.label == ds.Labels[a.node] {
			correct++
		}
		if a.version > st.MaxVersion {
			stale++
		}
	}
	acc := float64(correct) / float64(len(g.answers))
	rep.E2E["acc"] = acc
	rep.E2E["rate_per_s"] = capRPS
	rep.E2E["time_s"] = quantile(sortedCopy(high.Latency), 0.5)

	rep.timingMs("serve.low", low)
	rep.timingMs("serve.high", high)
	rep.metric("serve.max_rps", maxRPS, "1/s")
	rep.metric("serve.capacity_rps", capRPS, "1/s")
	rep.metric("serve.fail_frac", float64(rep.Failed)/float64(rep.Attempted), "fraction")
	rep.metric("serve.acc", acc, "fraction")
	rep.lines = append(rep.lines, fmt.Sprintf("%-28s %v (limit p99 <= %v, ladder of %d rungs, %d steps offered)", "serve.ladder", ladderTrail(ladder), latencyLimit, len(rateLadder), len(ladder)))
	if len(g.kinds) > 0 {
		rep.lines = append(rep.lines, fmt.Sprintf("%-28s %v (all steps, ladder included)", "serve.failures", g.kinds))
	}
	rep.check("fixed_loads_answered", rep.Failed == 0, "%d of %d requests failed at the fixed rates (%.0f and %.0f rps) and in the closed loop", rep.Failed, rep.Attempted, lowRate, highRate)
	rep.check("ladder_bottom_met", maxRPS > 0, "lowest ladder rate %.0f rps meets p99 <= %v", rateLadder[0], latencyLimit)
	rep.check("versions_within_watermark", stale == 0, "%d of %d answers carry a version above the final watermark %d", stale, len(g.answers), st.MaxVersion)
	rep.check("answers_within_skew", g.staleMax <= maxSkew && st.Skew() <= maxSkew,
		"answers lag the update watermark by at most %d versions, replica skew %d, bound %d", g.staleMax, st.Skew(), maxSkew)
	rep.check("served_acc_floor", acc >= serveAccFloor, "served accuracy %.4f, floor %.2f", acc, serveAccFloor)

	L := rep.Layer
	var occ, batches float64
	for _, r := range st.PerReplica {
		occ += r.Occupancy.Mean * float64(r.Batches)
		batches += float64(r.Batches)
		L["graph.compactions"] += float64(r.Compactions)
	}
	L["serve.occupancy_mean"] = occ / batches
	L["fleet.route_imbalance"] = imbalance(st.Routed)
	L["fleet.shed_deadline"] = float64(st.ShedDeadlines)
	L["fleet.shed_priority"] = float64(st.ShedPriorities)
	L["fleet.shed_capacity"] = float64(st.ShedCapacities)
	L["fleet.result_hit_rate"] = st.Result.HitRate()
	L["fleet.result_invalidated"] = float64(st.Result.Invalidated)
	L["fleet.skew_max"] = float64(max(g.staleMax, st.Skew()))
	L["cache.feature_hit_rate"] = ratio(st.CacheHits, st.CacheLookups)
	L["embcache.hit_rate"] = ratio(st.EmbHits, st.EmbLookups)
	L["graph.update_ms"] = medianOf(ch.updates)
	L["graph.updates_applied"] = float64(applied)
	L["gen.late_ms"] = 1000 * quantile(lateHigh, 0.99)
	L["gc.pause_ms"] = gcMs
	for _, d := range perLayer {
		if v, ok := L[d.Name]; ok {
			rep.metric(d.Name, v, d.Unit)
		}
	}
	if !e.Trace {
		return rep, nil
	}
	return rep, traceServe(e, rep, su)
}

// traceServe offers the high rate twice more, the second time with a span
// around every Fleet.Predict and Fleet.Update call while sampling the
// replicas' queue depth, and re-times one micro-batch's sample, gather and
// forward offline at the occupancy the fleet showed.
func traceServe(e env, rep *report, su serveSetup) error {
	tr := newTracer()
	g := &loadgen{e: e, fl: su.fl, n: su.ds.G.N, kinds: map[string]int64{}}
	ch := startChurn(g)
	// The untraced and traced steps run back to back under the same churn,
	// so their difference is the tracing's cost.
	dur := 3 * time.Second
	untraced := g.offer(highRate, dur)
	g.tr.Store(tr)
	var depths []float64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for i := 0; i < su.fl.NumReplicas(); i++ {
					depths = append(depths, float64(su.fl.Replica(i).QueueDepth()))
				}
			}
		}
	}()
	traced := g.offer(highRate, dur)
	close(stop)
	<-sampled
	g.tr.Store(nil)
	ch.finish()
	L := rep.Layer
	L["serve.queue_depth_p99"] = quantile(sortedCopy(depths), 0.99)
	p50 := func(s step) float64 { return quantile(sortedCopy(s.Latency), 0.5) }
	L["trace.overhead_frac"] = p50(traced)/p50(untraced) - 1

	k := max(1, int(math.Round(L["serve.occupancy_mean"])))
	split, err := retimeMicroBatch(e, su, k, 200)
	if err != nil {
		return err
	}
	L["serve.sample_ms"], L["serve.gather_ms"], L["serve.forward_ms"] = split[0], split[1], split[2]
	zeroMissing(L)
	rep.lines = append(rep.lines, fmt.Sprintf("micro-batch of %d re-timed offline: sample %.3f ms, gather %.3f ms, decode+forward %.3f ms; traced high-rate p50 %.3f ms vs untraced %.3f ms",
		k, split[0], split[1], split[2], 1000*p50(traced), 1000*p50(untraced)))
	return writeChrome(tracePath(e, "serve-zipf-churn"), tr.snapshot())
}

// retimeMicroBatch times the serving data path for micro-batches of k Zipf
// requests outside the server: per-request sampling with the server's
// singleton RNG plus the block-diagonal merge, the feature gather, and the
// fp16 decode plus model forward. It returns the median ms of each.
func retimeMicroBatch(e env, su serveSetup, k, reps int) ([3]float64, error) {
	var out [3]float64
	ds := su.ds
	sm := sampler.New(graph.Static(ds.G).View(), serveFanouts, sampler.FastConfig())
	st := store.NewFlat(ds)
	buf := slicing.NewPinned(prep.MaxRowsEstimate(k, serveFanouts, int(ds.G.N)), ds.FeatDim, k)
	slots := make([]mfg.MFG, k)
	ptrs := make([]*mfg.MFG, k)
	for i := range slots {
		ptrs[i] = &slots[i]
	}
	nodes := serve.ZipfNodes(ds.G.N, zipfSkew, derive(e.Seed, saltZipfPerm), derive(e.Seed, saltZipfDraw)+1e6, k*reps)
	var x *tensor.Dense
	var times [3][]float64
	seed := derive(e.Seed, saltServe)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for j := 0; j < k; j++ {
			if err := sm.SampleInto(prep.BatchRNG(seed, 0), nodes[r*k+j:r*k+j+1], &slots[j]); err != nil {
				return out, err
			}
		}
		merged := mfg.Merge(ptrs)
		t1 := time.Now()
		if err := st.Gather(buf, merged.NodeIDs, k); err != nil {
			return out, err
		}
		t2 := time.Now()
		x = slicing.DecodeInto(x, buf)
		su.model.Forward(x, merged, false)
		t3 := time.Now()
		for i, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)} {
			times[i] = append(times[i], ms(d))
		}
	}
	for i := range out {
		out[i] = medianOf(times[i])
	}
	return out, nil
}

// timingMs prints a step's latency as p50 and p99 in ms.
func (r *report) timingMs(prefix string, s step) {
	lat := sortedCopy(s.Latency)
	r.metric(prefix+".p50_ms", 1000*quantile(lat, 0.5), "ms")
	r.metric(prefix+".p99_ms", 1000*quantile(lat, 0.99), "ms")
	inMs := make([]float64, len(lat))
	for i, v := range lat {
		inMs[i] = 1000 * v
	}
	r.timing(prefix+".latency_ms", inMs, "ms")
}

// ladderTrail renders the ladder search as rate:pass/fail steps.
func ladderTrail(steps []step) string {
	out := ""
	for _, s := range steps {
		verdict := "fail"
		if s.meets(latencyLimit) {
			verdict = "ok"
		}
		out += fmt.Sprintf(" %.0f:%s(p99 %.1fms", s.Rate, verdict, 1000*s.p99())
		if s.Aborted {
			out += ", cut short"
		}
		if s.Failed > 0 {
			out += fmt.Sprintf(", %d refused", s.Failed)
		}
		out += ")"
	}
	return out
}

func imbalance(routed []int64) float64 {
	var sum, top int64
	for _, r := range routed {
		sum += r
		top = max(top, r)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) / (float64(sum) / float64(len(routed)))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
