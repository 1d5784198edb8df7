package ddp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/store"
	"salient/internal/train"
)

// StepsFor returns the number of synchronized gradient steps an epoch of nb
// global batches takes on R replicas — the even split of the global batch
// count shared by the cost-model simulators and the executing Trainer.
func StepsFor(nb, replicas int) int {
	return (nb + replicas - 1) / replicas
}

// ShardSeeds returns replica r's deterministic shard of the globally
// shuffled epoch permutation: the concatenation of per-replica batches
// (consecutive chunks of batchSize seeds) r, r+R, r+2R, … Step s of the
// epoch is the union of chunk s·R+r across replicas, so the R shards union,
// in schedule order, to the single-replica epoch. The executing Trainer,
// the serial Union oracle, and the simulators all follow this scheme.
func ShardSeeds(perm []int32, batchSize, r, replicas int) []int32 {
	nb := prep.NumBatches(len(perm), batchSize)
	var out []int32
	for c := r; c < nb; c += replicas {
		lo := c * batchSize
		hi := lo + batchSize
		if hi > len(perm) {
			hi = len(perm)
		}
		out = append(out, perm[lo:hi]...)
	}
	return out
}

// TrainConfig configures the executing data-parallel trainer. The embedded
// train.Config carries the per-replica hyperparameters; BatchSize is the
// PER-REPLICA batch size, so the effective batch grows with the replica
// count exactly as the paper scales it (§6). Only the SALIENT executor is
// supported; Config.Executor is ignored.
type TrainConfig struct {
	train.Config

	// Replicas is the data-parallel width R. Must be at least 1.
	Replicas int
	// Stores optionally gives each replica its own feature store
	// (len == Replicas), e.g. one shard or cache per simulated device — or,
	// in the distributed setting, each replica's store.Remote over its own
	// partition. Nil shares Config.Store across replicas (or one flat store
	// when that is nil too). Store choice never changes batch contents, so
	// it never changes training results either.
	Stores []store.FeatureStore
	// Graphs optionally gives each replica its own pinned topology view
	// (len == Replicas) — the distributed setting, where replica r samples
	// a *graph.Partitioned serving partition r locally and fetching the
	// rest over a transport. All views must be at one version; they replace
	// the shared epoch pin (the views are already pinned), and because a
	// partitioned view answers adjacency identically to the full graph,
	// distributed training stays bit-identical to the single-host schedule.
	// Mutually exclusive with Config.Graph.
	Graphs []graph.Viewer
}

// ReplicaStats is one replica's accounting for an executed epoch.
type ReplicaStats struct {
	Batches  int
	PrepWait time.Duration // blocked waiting on batch preparation
	Compute  time.Duration // decode + forward/backward + optimizer step
	SyncWait time.Duration // blocked at step barriers (straggler time)
}

// TrainStats summarizes one executed data-parallel epoch. The embedded
// train.EpochStats merges the replicas' epochs: batch, row and loss sums
// add, Compute and PrepWait are the slowest replica's, and Wall is the
// whole epoch's.
type TrainStats struct {
	train.EpochStats
	Replicas int
	Steps    int           // synchronized gradient steps (StepsFor)
	SyncWait time.Duration // max over replicas

	PerReplica []ReplicaStats
}

// SyncFraction returns the slowest-waiting replica's barrier time as a
// fraction of epoch wall time — the executed counterpart of the simulator's
// exposed all-reduce share.
func (s TrainStats) SyncFraction() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.SyncWait) / float64(s.Wall)
}

// Trainer executes real data-parallel training: R train.Trainer replicas
// run the one epoch loop (train.Trainer.RunEpoch) concurrently, each
// feeding from its own prep executor stream over its deterministic shard
// of the epoch, and wait at a step barrier after every backward pass where
// a coordinator averages their gradients (AverageGradients) before
// identical per-replica optimizer steps — the executing counterpart of
// SimulateEpoch's cost model, with the same replica/seed partitioning
// scheme.
//
// Determinism: batch contents are keyed by (epoch seed, global batch
// index), dropout is re-keyed per batch the same way, gradients are
// averaged in replica order, and every replica applies the same update to
// identical optimizer state — so training is bit-reproducible across runs
// and bit-identical to the serial Union oracle, no matter how the replicas'
// goroutines interleave.
type Trainer struct {
	DS  *dataset.Dataset
	Cfg TrainConfig

	reps    []*train.Trainer
	params  [][]*nn.Param // each replica's parameters, replica order
	buffers [][][]float32 // each replica's BatchNorm running stats, nil when the arch has none
	// pin re-pins Cfg.Graph once per epoch and hands every replica's
	// executor the SAME snapshot: R striped executors over one epoch must
	// sample one topology version or their union would diverge from the
	// serial oracle. Nil when training the static dataset graph.
	pin *epochPin
}

// epochPin is a Viewer that freezes its source's latest view at explicit
// re-pin points (epoch starts) instead of on every View call.
type epochPin struct {
	mu  sync.Mutex
	src graph.Viewer
	cur graph.View
}

func newEpochPin(src graph.Viewer) *epochPin {
	return &epochPin{src: src, cur: src.View()}
}

// View returns the currently pinned view (NOT the source's latest).
func (p *epochPin) View() graph.View {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

// repin adopts the source's latest view for the next epoch.
func (p *epochPin) repin() {
	snap := p.src.View()
	p.mu.Lock()
	p.cur = snap
	p.mu.Unlock()
}

// validate normalizes cfg and rejects inconsistent settings.
func (cfg *TrainConfig) validate() error {
	cfg.Config.Defaults()
	cfg.Executor = train.ExecSalient
	if cfg.Replicas < 1 {
		return fmt.Errorf("ddp: need at least one replica, got %d", cfg.Replicas)
	}
	if cfg.Stores != nil && len(cfg.Stores) != cfg.Replicas {
		return fmt.Errorf("ddp: %d per-replica stores for %d replicas", len(cfg.Stores), cfg.Replicas)
	}
	if cfg.Graphs != nil {
		if len(cfg.Graphs) != cfg.Replicas {
			return fmt.Errorf("ddp: %d per-replica graphs for %d replicas", len(cfg.Graphs), cfg.Replicas)
		}
		if cfg.Graph != nil {
			return fmt.Errorf("ddp: per-replica Graphs and a shared Graph are mutually exclusive")
		}
		v := cfg.Graphs[0].View().Version()
		for r, g := range cfg.Graphs {
			if gv := g.View().Version(); gv != v {
				return fmt.Errorf("ddp: replica %d's graph view is at version %d, replica 0's at %d — one epoch must sample one version", r, gv, v)
			}
		}
	}
	return nil
}

// NewTrainer builds an executing data-parallel trainer over ds: R replicas
// with identically initialized models (same seed), each with its own
// optimizer and a prep executor striped so its local batches land on global
// epoch indices r, r+R, r+2R, …
func NewTrainer(ds *dataset.Dataset, cfg TrainConfig) (*Trainer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil && cfg.Stores == nil {
		cfg.Store = store.NewFlat(ds) // one store shared by all replicas
	}
	t := &Trainer{DS: ds, Cfg: cfg}
	if cfg.Graph != nil {
		t.pin = newEpochPin(cfg.Graph)
	}
	for r := 0; r < cfg.Replicas; r++ {
		rcfg := cfg.Config
		if cfg.Stores != nil {
			rcfg.Store = cfg.Stores[r]
		}
		switch {
		case cfg.Graphs != nil:
			rcfg.Graph = cfg.Graphs[r] // already a pinned view; no shared epoch pin
		case t.pin != nil:
			rcfg.Graph = t.pin
		}
		rep, err := train.NewReplica(ds, rcfg, train.Stripe{Base: r, Stride: cfg.Replicas})
		if err != nil {
			return nil, err
		}
		t.reps = append(t.reps, rep)
		t.params = append(t.params, rep.Model.Params())
		var bufs [][]float32
		if bm, ok := rep.Model.(nn.BufferModel); ok {
			bufs = bm.StatBuffers()
		}
		t.buffers = append(t.buffers, bufs)
	}
	// The DDP broadcast at initialization. Replicas are already identical
	// (same init seed), but the broadcast keeps the invariant explicit.
	SyncParams(t.params)
	t.broadcastBuffers()
	return t, nil
}

// broadcastBuffers copies the leader's BatchNorm running statistics into
// every other replica (PyTorch DDP's broadcast_buffers semantics). Running
// stats take no gradients, so the all-reduce never touches them; without
// the broadcast each replica's eval-mode statistics would see only its own
// shard. Called from the coordinator while every replica is parked at the
// step barrier, and once at construction.
func (t *Trainer) broadcastBuffers() {
	lead := t.buffers[0]
	for _, bufs := range t.buffers[1:] {
		for i := range lead {
			copy(bufs[i], lead[i])
		}
	}
}

// Model returns the leader replica's model. After a successful epoch every
// replica's parameters are bit-identical, so the leader speaks for all.
func (t *Trainer) Model() nn.Model { return t.reps[0].Model }

// ReplicaModel returns replica r's model, for consistency inspection.
func (t *Trainer) ReplicaModel(r int) nn.Model { return t.reps[r].Model }

// FeatureStore returns the store replica r gathers through.
func (t *Trainer) FeatureStore(r int) store.FeatureStore { return t.reps[r].FeatureStore() }

// arrival is one replica's report at a step barrier.
type arrival struct {
	rep int
	err error
}

// errCancelled ends a replica's epoch when the coordinator cancels it
// because another replica failed; the coordinator returns that failure.
var errCancelled = errors.New("ddp: epoch cancelled")

// barrier is one replica's side of the per-step all-reduce.
type barrier struct {
	rep    int
	arrive chan<- arrival
	resume chan bool
	wait   time.Duration // blocked waiting for the coordinator
	left   bool          // cancelled: the replica arrives no more this epoch
}

// sync reports err (nil when the replica holds its step's gradient) and
// blocks until the coordinator releases the step; it reports whether the
// epoch continues.
func (b *barrier) sync(err error) bool {
	b.arrive <- arrival{b.rep, err}
	start := time.Now()
	cont := <-b.resume
	b.wait += time.Since(start)
	b.left = !cont
	return cont
}

// runReplica runs replica r's epoch over its shard. Its update policy waits
// at the step barrier and then applies the averaged gradient; a
// preparation failure is reported at the barrier before the stream drains,
// so peers are cancelled at their next step. The returned Compute excludes
// the barrier wait.
func (t *Trainer) runReplica(r, epoch, steps int, perm []int32, b *barrier) train.EpochStats {
	rep := t.reps[r]
	shard := ShardSeeds(perm, t.Cfg.BatchSize, r, len(t.reps))
	update := func() error {
		if !b.sync(nil) {
			return errCancelled
		}
		rep.Step()
		return nil
	}
	st, err := rep.RunEpoch(epoch, shard, update, func(err error) { b.sync(err) })
	st.Compute -= b.wait
	if mine := prep.NumBatches(len(shard), t.Cfg.BatchSize); err == nil && st.Batches < mine {
		err = fmt.Errorf("stream ended at step %d of %d", st.Batches, mine)
	}
	if err != nil {
		if !b.left {
			b.sync(err)
		}
		return st
	}
	// A replica with no batch at the epoch's final partial step still joins
	// the barrier: it contributes no gradient but receives the participants'
	// average (DDP's uneven-input join), so every replica's optimizer
	// advances in lockstep and the replicas stay bit-identical.
	for s := st.Batches; s < steps; s++ {
		if update() != nil {
			break
		}
	}
	return st
}

// TrainEpoch executes one synchronized data-parallel epoch. The first
// batch-preparation failure on any replica cancels the epoch on every
// replica cleanly (streams drained, buffers released) and is returned.
func (t *Trainer) TrainEpoch(epoch int) (TrainStats, error) {
	R := len(t.reps)
	if t.pin != nil {
		// Adopt the dynamic graph's latest state once for all R replicas.
		t.pin.repin()
	}
	perm := prep.EpochPerm(t.DS.Train, train.EpochSeed(t.Cfg.Seed, epoch))
	nb := prep.NumBatches(len(perm), t.Cfg.BatchSize)
	steps := StepsFor(nb, R)

	start := time.Now()
	arrive := make(chan arrival, R)
	bars := make([]barrier, R)
	epochs := make([]train.EpochStats, R)
	var wg sync.WaitGroup
	for r := range bars {
		bars[r] = barrier{rep: r, arrive: arrive, resume: make(chan bool, 1)}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			epochs[r] = t.runReplica(r, epoch, steps, perm, &bars[r])
		}(r)
	}
	err := t.coordinate(nb, steps, arrive, bars)
	wg.Wait()

	st := TrainStats{
		EpochStats: train.EpochStats{Epoch: epoch},
		Replicas:   R,
		Steps:      steps,
		PerReplica: make([]ReplicaStats, R),
	}
	for r, e := range epochs {
		st.Merge(e)
		st.PerReplica[r] = ReplicaStats{Batches: e.Batches, PrepWait: e.PrepWait, Compute: e.Compute, SyncWait: bars[r].wait}
		st.SyncWait = max(st.SyncWait, bars[r].wait)
	}
	st.Wall = time.Since(start)
	return st, err
}

// coordinate is the per-step all-reduce. Every replica arrives once per
// step; only the first p = min(R, nb−s·R) hold a gradient (the others are
// final-step idlers). Averaging happens while every replica is parked at
// the barrier, so no goroutine ever observes a half-averaged gradient. The
// first reported failure cancels every replica and is returned.
func (t *Trainer) coordinate(nb, steps int, arrive <-chan arrival, bars []barrier) error {
	R := len(bars)
	release := func(cont bool) {
		for r := range bars {
			bars[r].resume <- cont
		}
	}
	for s := 0; s < steps; s++ {
		var firstErr error
		for i := 0; i < R; i++ {
			if a := <-arrive; a.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("ddp: replica %d: %w", a.rep, a.err)
			}
		}
		if firstErr != nil {
			release(false)
			return firstErr
		}
		p := min(R, nb-s*R)
		AverageGradients(t.params[:p])
		for _, idle := range t.params[p:] {
			for i, q := range idle {
				q.G.Copy(t.params[0][i].G)
			}
		}
		t.broadcastBuffers()
		release(true)
	}
	return nil
}

// Fit executes n epochs, stopping at the first preparation failure.
func (t *Trainer) Fit(epochs int) ([]TrainStats, error) { return train.Fit(epochs, t.TrainEpoch) }

// Union is the serial single-replica oracle for Trainer: one train.Trainer
// runs the identical union batch schedule on one goroutine, and its update
// policy stashes each batch's gradient and, every R batches (fewer on the
// final partial step), averages the stash with the same arithmetic
// (AverageGradients over stashed gradient sets, in replica order) before
// one optimizer step. Because batch contents, dropout keys, averaging
// order, and optimizer state all match, Trainer's final parameters are
// bit-identical to Union's — the full-loop generalization of the
// averaged-shard-equals-union-batch gradient property.
type Union struct {
	DS  *dataset.Dataset
	Cfg TrainConfig

	tr     *train.Trainer
	params []*nn.Param
	stash  [][]*nn.Param // R gradient stash sets mirroring params
	held   int           // stashed gradients awaiting this step's average
}

// NewUnion builds the serial union-schedule oracle for cfg.
func NewUnion(ds *dataset.Dataset, cfg TrainConfig) (*Union, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr, err := train.NewReplica(ds, cfg.Config, train.Stripe{})
	if err != nil {
		return nil, err
	}
	u := &Union{DS: ds, Cfg: cfg, tr: tr, params: tr.Model.Params()}
	for r := 0; r < cfg.Replicas; r++ {
		mirror := make([]*nn.Param, len(u.params))
		for i, p := range u.params {
			mirror[i] = &nn.Param{Name: p.Name, G: p.G.Clone()}
		}
		u.stash = append(u.stash, mirror)
	}
	return u, nil
}

// Model returns the oracle's model.
func (u *Union) Model() nn.Model { return u.tr.Model }

// TrainEpoch runs one epoch of the union schedule: batches arrive in global
// order; every R consecutive batches (fewer on the final partial step) form
// one gradient-accumulation step.
func (u *Union) TrainEpoch(epoch int) (train.EpochStats, error) {
	u.held = 0
	st, err := u.tr.RunEpoch(epoch, u.DS.Train, u.accumulate, nil)
	if err == nil && u.held > 0 {
		u.step()
	}
	return st, err
}

// accumulate stashes the batch's gradient and steps once R are held.
func (u *Union) accumulate() error {
	for i, p := range u.params {
		u.stash[u.held][i].G.Copy(p.G)
	}
	if u.held++; u.held == u.Cfg.Replicas {
		u.step()
	}
	return nil
}

// step averages the held gradients into the model and applies one update.
func (u *Union) step() {
	AverageGradients(u.stash[:u.held])
	for i, p := range u.params {
		p.G.Copy(u.stash[0][i].G)
	}
	u.tr.Step()
	u.held = 0
}

// Fit runs n epochs of the union schedule.
func (u *Union) Fit(epochs int) ([]train.EpochStats, error) { return train.Fit(epochs, u.TrainEpoch) }
