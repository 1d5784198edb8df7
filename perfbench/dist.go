package main

import (
	"fmt"
	"time"

	"salient/internal/dataset"
	"salient/internal/ddp"
	"salient/internal/dist"
	"salient/internal/infer"
	"salient/internal/nn"
)

// The distributed training workload: ddp.Trainer with two replicas over a
// two-part TCP-loopback dist.Cluster (LDG partitions, store.Remote with a
// mirror of hot remote rows, graph.Partitioned), one prep worker per
// replica and a per-replica batch of 256, so a step sees the 512 seeds a
// train-arxiv step sees. Model, data and accuracy target are train-arxiv's.
const (
	distReplicas = 2
	distBatch    = 256
	// distMirrorFrac is each host's remote-row mirror as a share of N.
	distMirrorFrac = 0.1
)

type distSetup struct {
	ds      *dataset.Dataset
	cluster *dist.Cluster
	tr      *ddp.Trainer
}

// newDistTrainer starts a cluster over ds and a trainer on it.
func newDistTrainer(e env, ds *dataset.Dataset) (distSetup, error) {
	c, err := dist.NewCluster(ds, dist.ClusterOptions{Parts: distReplicas, TCP: true, CacheRows: int(distMirrorFrac * float64(ds.G.N))})
	if err != nil {
		return distSetup{}, err
	}
	tr, err := ddp.NewTrainer(ds, ddp.TrainConfig{
		Config:   trainConfig(e.Seed, distBatch, 1),
		Replicas: distReplicas, Stores: c.Stores, Graphs: c.Graphs,
	})
	if err != nil {
		c.Close()
		return distSetup{}, err
	}
	return distSetup{ds, c, tr}, nil
}

// wire is the cluster's cumulative traffic accounting.
type wire struct {
	calls, bytes, retries, remoteRows, lookups, hits, adjBytes int64
}

func readWire(c *dist.Cluster) wire {
	var w wire
	for _, conn := range c.Conns() {
		s := conn.Stats()
		w.calls += s.Calls
		w.bytes += s.BytesSent + s.BytesRecv
		w.retries += s.Retries
	}
	for r := range c.Stores {
		s := c.Remote(r).Stats()
		w.remoteRows += s.RowsRemote
		w.lookups += s.CacheLookups
		w.hits += s.CacheHits
		w.adjBytes += c.Partitioned(r).Stats().WireBytes
	}
	return w
}

func runTrainDist(e env) (*report, error) {
	rep := newReport()
	setupS, su, err := setupTimes(cheapSetups, func() (distSetup, error) {
		ds, err := arxiv(e.Seed, arxivScale)
		if err != nil {
			return distSetup{}, err
		}
		return newDistTrainer(e, ds)
	}, func(s distSetup) { s.cluster.Close() })
	if err != nil {
		return nil, err
	}
	defer func() { su.cluster.Close() }()
	rep.E2E["setup_s"] = setupS
	rep.metric("setup_s", setupS, "s")
	ds := su.ds

	validate := func(model nn.Model, ep int) (float64, error) {
		pred, err := infer.Sampled(model, ds, ds.Val, infer.Options{
			Fanouts: trainFanouts, BatchSize: trainBatch, Workers: trainWorkers, Seed: derive(e.Seed, saltEval) + uint64(ep),
		})
		if err != nil {
			return 0, err
		}
		return infer.Accuracy(pred, ds.Labels, ds.Val), nil
	}
	gc0 := gcPause()
	var stats []ddp.TrainStats
	fresh := false
	runs, err := repeatToTarget(time.Now().Add(e.Seconds), func() (toAcc, error) {
		// Every training starts on a new cluster: the partitioned graph
		// memoizes fetched adjacency, so a reused one would move less.
		if fresh {
			su.cluster.Close()
			if su, err = newDistTrainer(e, ds); err != nil {
				return toAcc{}, err
			}
		}
		fresh = true
		return trainToTarget(func(ep int) error {
			st, err := su.tr.TrainEpoch(ep)
			stats = append(stats, st)
			return err
		}, func(ep int) (float64, error) { return validate(su.tr.Model(), ep) })
	})
	if err != nil {
		return nil, err
	}
	tr := su.tr
	gcMs := ms(gcPause() - gc0)
	syncFrac := make([]float64, len(stats))
	for i, st := range stats {
		rep.Attempted += int64(st.Batches)
		syncFrac[i] = st.SyncFraction()
	}
	walls := reportToAcc(rep, runs, len(ds.Train))
	rep.timing("ddp.sync_frac", syncFrac, "fraction")
	rep.metric("gc.pause_ms", gcMs, "ms")
	if !e.Trace {
		return rep, nil
	}

	// Traced phase: two more epochs with a span around each call, and the
	// cluster's counters read around them.
	const tracedEpochs = 2
	t := newTracer()
	w0 := readWire(su.cluster)
	var traced, evals []float64
	var steps int
	var syncW, compute, prepW time.Duration
	for i := 0; i < tracedEpochs; i++ {
		ep := runs[len(runs)-1].Epochs + i
		id := t.begin("ddp.Trainer.TrainEpoch", 0, int64(ep))
		st, err := tr.TrainEpoch(ep)
		t.end(id)
		if err != nil {
			return nil, err
		}
		traced = append(traced, st.Wall.Seconds())
		steps += st.Steps
		syncW += st.SyncWait
		compute += st.Compute
		prepW += st.PrepWait
		id = t.begin("infer.Sampled(validation)", 0, int64(ep))
		t0 := time.Now()
		_, err = validate(tr.Model(), ep)
		evals = append(evals, time.Since(t0).Seconds())
		t.end(id)
		if err != nil {
			return nil, err
		}
	}
	w1 := readWire(su.cluster)
	epochMs := func(d time.Duration) float64 { return ms(d) / float64(steps) }
	perEpoch := func(v int64) float64 { return float64(v) / tracedEpochs }
	L := rep.Layer
	L["ddp.sync_frac"] = syncW.Seconds() / sumOf(traced)
	L["ddp.sync_wait_ms"] = epochMs(syncW)
	L["ddp.compute_ms"] = epochMs(compute)
	L["ddp.prep_wait_ms"] = epochMs(prepW)
	L["transport.calls_per_epoch"] = perEpoch(w1.calls - w0.calls)
	L["transport.mb_per_epoch"] = perEpoch(w1.bytes-w0.bytes) / (1 << 20)
	L["transport.retries"] = float64(w1.retries - w0.retries)
	L["store.remote_rows_per_epoch"] = perEpoch(w1.remoteRows - w0.remoteRows)
	L["store.remote_hit_rate"] = ratio(w1.hits-w0.hits, w1.lookups-w0.lookups)
	L["graph.adj_mb_per_epoch"] = perEpoch(w1.adjBytes-w0.adjBytes) / (1 << 20)
	L["train.epochs_to_acc"] = float64(runs[0].Epochs)
	L["infer.eval_s"] = medianOf(evals)
	L["gc.pause_ms"] = gcMs
	L["trace.overhead_frac"] = medianOf(traced)/medianOf(walls) - 1
	zeroMissing(L)
	rep.layerLines("ddp.sync_frac", "ddp.sync_wait_ms", "ddp.compute_ms", "ddp.prep_wait_ms",
		"transport.calls_per_epoch", "transport.mb_per_epoch", "transport.retries",
		"store.remote_rows_per_epoch", "store.remote_hit_rate", "graph.adj_mb_per_epoch")
	rep.lines = append(rep.lines, fmt.Sprintf("traced epochs %.3fs vs untraced median %.3fs", medianOf(traced), medianOf(walls)))
	return rep, writeChrome(tracePath(e, "train-dist"), t.snapshot())
}
