// Package train runs real mini-batch GNN training over the prep executors:
// models genuinely fit (loss decreases, accuracy rises), so the paper's
// accuracy experiments (Table 6, Figures 3 and 6) are live experiments here
// rather than replayed numbers.
//
// Wall-clock timing in this package is real but machine-local; the paper's
// full-scale timing claims are reproduced separately by the calibrated
// virtual-time simulations in internal/pipeline and internal/ddp.
package train

import (
	"fmt"
	"time"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/sampler"
	"salient/internal/store"
)

// ExecutorKind selects the batch-preparation data path.
type ExecutorKind int

const (
	ExecSalient ExecutorKind = iota // shared-memory workers, dynamic balancing
	ExecPyG                         // DataLoader model: static split + IPC copy
)

func (k ExecutorKind) String() string {
	if k == ExecPyG {
		return "pyg"
	}
	return "salient"
}

// Config are the training hyperparameters (paper Table 5 defaults).
type Config struct {
	Arch      string // "SAGE", "GAT", "GIN" or "SAGE-RI"
	Hidden    int
	Layers    int
	Fanouts   []int // training fanouts, Fanouts[0] for GNN layer 1
	BatchSize int
	LR        float64
	Workers   int
	Executor  ExecutorKind
	Seed      uint64

	// Store is the feature-access layer the executors gather batches
	// through. Nil selects the flat store over the dataset; sharded and
	// cached stores change transfer accounting, never batch contents.
	Store store.FeatureStore
	// Fused runs the fused gather+aggregate pipeline: the executor
	// pre-reduces the first layer's aggregate during the gather and the
	// model consumes it via nn.FusedModel.ForwardFused. Requires the
	// Salient executor, an architecture whose first layer mean/sum
	// aggregates (SAGE or GIN), and a store implementing
	// store.FusedGatherer. Training is bit-identical to the staged path.
	Fused bool
	// Graph is the topology source training samples against. Nil trains on
	// the dataset's static graph; a *graph.Dynamic pins the latest view
	// once per epoch (train-while-updating: updates applied mid-epoch take
	// effect at the next epoch boundary). With zero applied deltas training
	// is bit-identical to the static baseline. A *graph.Partitioned view
	// trains against a partitioned topology fetching remote adjacency over
	// a transport.
	Graph graph.Viewer
}

// Defaults fills unset fields with the paper's GraphSAGE settings.
func (c *Config) Defaults() {
	if c.Arch == "" {
		c.Arch = "SAGE"
	}
	if c.Hidden == 0 {
		c.Hidden = 256
	}
	if c.Layers == 0 {
		c.Layers = 3
	}
	if len(c.Fanouts) == 0 {
		c.Fanouts = []int{15, 10, 5}
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1024
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// NewModel constructs the named architecture from the paper's appendix.
func NewModel(arch string, cfg nn.ModelConfig) (nn.Model, error) {
	switch arch {
	case "SAGE":
		return nn.NewGraphSAGE(cfg), nil
	case "GAT":
		return nn.NewGAT(cfg), nil
	case "GIN":
		return nn.NewGIN(cfg), nil
	case "SAGE-RI":
		return nn.NewSAGERI(cfg), nil
	}
	return nil, fmt.Errorf("train: unknown architecture %q", arch)
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch     int
	Loss      float64 // mean NLL over batches
	Acc       float64 // training accuracy over seed nodes
	Batches   int
	Wall      time.Duration // end-to-end epoch wall time
	PrepWait  time.Duration // time the training loop blocked waiting on prep
	Compute   time.Duration // forward+backward+step time
	NodesSeen int           // total expanded-neighborhood rows processed
	EdgesSeen int

	lossSum       float64 // batch losses, summed in batch order
	correct, rows int
}

// add accounts one batch's step.
func (s *EpochStats) add(r StepStats) {
	s.lossSum += r.Loss
	s.correct += r.Correct
	s.rows += r.Rows
	s.NodesSeen += r.Nodes
	s.EdgesSeen += r.Edges
	s.Batches++
}

// finish derives the mean loss and the accuracy from the sums.
func (s *EpochStats) finish() {
	if s.Batches > 0 {
		s.Loss = s.lossSum / float64(s.Batches)
	}
	if s.rows > 0 {
		s.Acc = float64(s.correct) / float64(s.rows)
	}
}

// Merge folds o, the stats of a replica that ran the same epoch
// concurrently, into s: batch counts, loss and accuracy sums add, and each
// duration takes the slower replica's.
func (s *EpochStats) Merge(o EpochStats) {
	s.lossSum += o.lossSum
	s.correct += o.correct
	s.rows += o.rows
	s.NodesSeen += o.NodesSeen
	s.EdgesSeen += o.EdgesSeen
	s.Batches += o.Batches
	s.Wall = max(s.Wall, o.Wall)
	s.PrepWait = max(s.PrepWait, o.PrepWait)
	s.Compute = max(s.Compute, o.Compute)
	s.finish()
}

// Stripe places a replica's local batches on the global epoch schedule:
// local batch i is global batch Base+i×Stride, and the replica trains the
// seeds it is handed in the order given (the caller owns the epoch
// permutation). The zero Stripe is a sole trainer that shuffles its own
// epochs.
type Stripe struct{ Base, Stride int }

// Trainer is one training replica: a model, its optimizer, a
// batch-preparation executor, and the decode and argmax scratch its epoch
// loop reuses. New builds a sole trainer over the whole training split;
// internal/ddp builds one per data-parallel replica with NewReplica.
type Trainer struct {
	DS    *dataset.Dataset
	Model nn.Model
	Cfg   Config

	params  []*nn.Param
	opt     *nn.Adam
	store   store.FeatureStore
	salient *prep.Salient
	pyg     *prep.PyG
	dec     Decoder // reusable decode target
	pred    []int32 // argmax scratch, one slot per seed row
}

// FeatureStore returns the store the trainer reads features through, for
// transfer-accounting inspection.
func (t *Trainer) FeatureStore() store.FeatureStore { return t.store }

// New builds a trainer over ds. Fanout length must equal the layer count.
func New(ds *dataset.Dataset, cfg Config) (*Trainer, error) {
	return NewReplica(ds, cfg, Stripe{})
}

// NewReplica builds one replica over ds: the model (replicas with one Seed
// start bit-identical), its optimizer, and an executor that gathers through
// cfg.Store, samples cfg.Graph, and places its batches by stripe.
func NewReplica(ds *dataset.Dataset, cfg Config, stripe Stripe) (*Trainer, error) {
	cfg.Defaults()
	if len(cfg.Fanouts) != cfg.Layers {
		return nil, fmt.Errorf("train: %d fanouts for %d layers", len(cfg.Fanouts), cfg.Layers)
	}
	model, err := NewModel(cfg.Arch, nn.ModelConfig{
		In:     ds.FeatDim,
		Hidden: cfg.Hidden,
		Out:    ds.NumClasses,
		Layers: cfg.Layers,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	tr := &Trainer{
		DS:     ds,
		Model:  model,
		Cfg:    cfg,
		params: model.Params(),
		opt:    nn.NewAdam(model.Params(), cfg.LR),
		store:  cfg.Store,
		pred:   make([]int32, cfg.BatchSize),
	}
	if tr.store == nil {
		tr.store = store.NewFlat(ds)
	}
	opts := prep.Options{
		Workers:     cfg.Workers,
		BatchSize:   cfg.BatchSize,
		Fanouts:     cfg.Fanouts,
		Ordered:     true, // bit-reproducible training
		Store:       tr.store,
		Graph:       cfg.Graph,
		FixedOrder:  stripe.Stride > 0,
		IndexBase:   stripe.Base,
		IndexStride: stripe.Stride,
	}
	if cfg.Fused {
		fm, ok := model.(nn.FusedModel)
		if !ok {
			return nil, fmt.Errorf("train: -fused needs a mean/sum first layer; %s has no fused forward (use SAGE or GIN)", cfg.Arch)
		}
		if cfg.Executor != ExecSalient {
			return nil, fmt.Errorf("train: the fused pipeline requires the salient executor")
		}
		opts.Fused = fm.FusedOp()
	}
	switch cfg.Executor {
	case ExecSalient:
		opts.Sampler = sampler.FastConfig()
		tr.salient, err = prep.NewSalient(ds, opts)
	case ExecPyG:
		opts.Sampler = sampler.BaselineConfig()
		tr.pyg, err = prep.NewPyG(ds, opts)
	default:
		err = fmt.Errorf("train: unknown executor %v", cfg.Executor)
	}
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// run starts the configured executor for one epoch.
func (t *Trainer) run(seeds []int32, epochSeed uint64) *prep.Stream {
	if t.salient != nil {
		return t.salient.Run(seeds, epochSeed)
	}
	return t.pyg.Run(seeds, epochSeed)
}

// epochSeed derives the per-epoch shuffling/sampling seed.
func (t *Trainer) epochSeed(epoch int) uint64 {
	return EpochSeed(t.Cfg.Seed, epoch)
}

// Step applies the Adam update to the gradients the replica's parameters
// hold.
func (t *Trainer) Step() {
	t.opt.Step(t.params)
}

// RunEpoch is the epoch loop every replica runs. It prepares seeds (the
// training split for a sole trainer, the replica's shard under
// data-parallel training), and for each batch runs ReplicaStep, releases
// the batch and calls update: the plain trainer's update is Step, ddp.Union
// stashes gradients and averages every R batches, and ddp.Trainer waits at
// the step barrier. A non-nil error from update ends the epoch. The first
// preparation failure is passed to abort (when non-nil) before the loop
// drains the stream, releasing every remaining batch; either error is
// returned.
func (t *Trainer) RunEpoch(epoch int, seeds []int32, update func() error, abort func(error)) (EpochStats, error) {
	st := EpochStats{Epoch: epoch}
	start := time.Now()
	epochSeed := t.epochSeed(epoch)
	stream := t.run(seeds, epochSeed)

	var firstErr error
	for {
		waitStart := time.Now()
		b, ok := <-stream.C
		if !ok {
			break
		}
		st.PrepWait += time.Since(waitStart)
		if firstErr != nil {
			b.Release()
			continue
		}
		if b.Err != nil {
			firstErr = b.Err
			b.Release()
			if abort != nil {
				abort(firstErr)
			}
			continue
		}
		cStart := time.Now()
		st.add(ReplicaStep(t.Model, &t.dec, b, epochSeed, t.pred))
		b.Release()
		firstErr = update()
		st.Compute += time.Since(cStart)
	}
	stream.Wait()
	if firstErr == nil {
		firstErr = stream.Err()
	}
	st.Wall = time.Since(start)
	st.finish()
	return st, firstErr
}

// TrainEpoch runs one epoch of mini-batch SGD over the training split,
// stepping the optimizer after every batch. A batch-preparation failure
// drains the epoch (releasing every staged buffer) and is returned instead
// of panicking inside an executor worker.
func (t *Trainer) TrainEpoch(epoch int) (EpochStats, error) {
	return t.RunEpoch(epoch, t.DS.Train, func() error { t.Step(); return nil }, nil)
}

// Fit trains for n epochs and returns per-epoch stats, stopping at the
// first preparation failure.
func (t *Trainer) Fit(epochs int) ([]EpochStats, error) { return Fit(epochs, t.TrainEpoch) }

// Fit runs epoch for epochs 0..epochs-1 and collects their stats, stopping
// at the first error; the stats of the epochs before it are returned with
// the error. It is the one epoch loop behind every trainer's Fit.
func Fit[S any](epochs int, epoch func(int) (S, error)) ([]S, error) {
	out := make([]S, 0, epochs)
	for e := 0; e < epochs; e++ {
		s, err := epoch(e)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Evaluate runs sampled inference over the given nodes with the given
// fanouts (paper §5's unified inference path) and returns accuracy.
func (t *Trainer) Evaluate(nodes []int32, fanouts []int, seed uint64) (float64, error) {
	opts := prep.Options{
		Workers:   t.Cfg.Workers,
		BatchSize: t.Cfg.BatchSize,
		Fanouts:   fanouts,
		Sampler:   sampler.FastConfig(),
		Store:     t.store,
		Graph:     t.Cfg.Graph,
	}
	if t.Cfg.Fused {
		opts.Fused = t.Model.(nn.FusedModel).FusedOp()
	}
	ex, err := prep.NewSalient(t.DS, opts)
	if err != nil {
		return 0, err
	}
	stream := ex.Run(nodes, seed)
	var firstErr error
	correct, total := 0, 0
	for b := range stream.C {
		if b.Err != nil || firstErr != nil {
			if firstErr == nil {
				firstErr = b.Err
			}
			b.Release()
			continue
		}
		logp := forwardBatch(t.Model, &t.dec, b, false)
		labels := b.Labels()
		logp.ArgmaxRows(t.pred[:logp.Rows])
		for i := 0; i < logp.Rows; i++ {
			if t.pred[i] == labels[i] {
				correct++
			}
		}
		total += logp.Rows
		b.Release()
	}
	stream.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	if total == 0 {
		return 0, nil
	}
	return float64(correct) / float64(total), nil
}

// FitEarlyStop trains up to maxEpochs, evaluating validation accuracy with
// the given inference fanouts after every epoch, and stops once validation
// accuracy has not improved for `patience` consecutive epochs. It returns
// the per-epoch stats, the best validation accuracy, and the epoch it was
// achieved at.
func (t *Trainer) FitEarlyStop(maxEpochs, patience int, evalFanouts []int) ([]EpochStats, float64, int, error) {
	if patience < 1 {
		patience = 1
	}
	var stats []EpochStats
	best, bestEpoch, stale := -1.0, -1, 0
	for e := 0; e < maxEpochs; e++ {
		s, err := t.TrainEpoch(e)
		if err != nil {
			return stats, best, bestEpoch, err
		}
		stats = append(stats, s)
		acc, err := t.Evaluate(t.DS.Val, evalFanouts, t.epochSeed(e)^0xace1)
		if err != nil {
			return stats, best, bestEpoch, err
		}
		if acc > best {
			best, bestEpoch, stale = acc, e, 0
		} else {
			stale++
			if stale >= patience {
				break
			}
		}
	}
	return stats, best, bestEpoch, nil
}
