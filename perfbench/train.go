package main

import (
	"fmt"
	"slices"
	"time"

	"salient/internal/dataset"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/sampler"
	"salient/internal/tensor"
	"salient/internal/train"
)

// The training workloads: SAGE, 3 layers × 64 hidden, fanouts (15,10,5),
// on arxiv at half the preset size, trained until sampled validation
// accuracy reaches trainTarget. At this size every batch's neighbourhood
// covers most of the graph, so dense compute dominates an epoch.
const (
	arxivScale     = 0.5
	trainBatch     = 512
	trainWorkers   = 2
	trainMaxEpochs = 12
	// trainTarget is the validation accuracy both training workloads train
	// to. Over seeds 1-10 it lies in 0.72-0.83 after three epochs and in
	// 0.88-0.97 after four, in both workloads, so every seed stops after
	// the fourth epoch and time to accuracy does not jump by an epoch
	// between seeds.
	trainTarget = 0.855
)

var trainFanouts = []int{15, 10, 5}

func trainConfig(seed uint64, batch, workers int) train.Config {
	return train.Config{
		Arch: "SAGE", Hidden: 64, Layers: 3, Fanouts: trainFanouts,
		BatchSize: batch, Workers: workers, Seed: derive(seed, saltTrain),
	}
}

func arxiv(seed uint64, scale float64) (*dataset.Dataset, error) {
	cfg := dataset.PresetConfig(dataset.Arxiv, scale)
	cfg.Seed = derive(seed, saltDataset)
	return dataset.Generate(cfg)
}

// toAcc is one training run to the accuracy target.
type toAcc struct {
	EpochWalls []float64 // seconds per training epoch
	EvalWalls  []float64 // seconds per validation pass
	Accs       []float64 // validation accuracy after each epoch
	Total      time.Duration
	Epochs     int
	ValAcc     float64
	Reached    bool
}

// trainToTarget alternates an epoch of training with a sampled validation
// pass until validation accuracy reaches trainTarget, timing both.
func trainToTarget(epoch func(e int) error, validate func(e int) (float64, error)) (toAcc, error) {
	var r toAcc
	start := time.Now()
	for e := 0; e < trainMaxEpochs && !r.Reached; e++ {
		t0 := time.Now()
		if err := epoch(e); err != nil {
			return r, fmt.Errorf("epoch %d: %w", e, err)
		}
		t1 := time.Now()
		acc, err := validate(e)
		if err != nil {
			return r, fmt.Errorf("validation after epoch %d: %w", e, err)
		}
		r.EpochWalls = append(r.EpochWalls, t1.Sub(t0).Seconds())
		r.EvalWalls = append(r.EvalWalls, time.Since(t1).Seconds())
		r.Accs = append(r.Accs, acc)
		r.Epochs, r.ValAcc, r.Reached = e+1, acc, acc >= trainTarget
	}
	r.Total = time.Since(start)
	return r, nil
}

// repeatToTarget trains fresh models to the target until the measured
// phase is over, at least once.
func repeatToTarget(deadline time.Time, once func() (toAcc, error)) ([]toAcc, error) {
	var runs []toAcc
	for len(runs) == 0 || time.Now().Before(deadline) {
		r, err := once()
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// reportToAcc records the end-to-end training metrics of the runs of one
// seed and returns every epoch's wall time.
func reportToAcc(rep *report, runs []toAcc, trainNodes int) []float64 {
	var walls, evals, totals []float64
	same := true
	for _, r := range runs {
		walls = append(walls, r.EpochWalls...)
		evals = append(evals, r.EvalWalls...)
		totals = append(totals, r.Total.Seconds())
		same = same && slices.Equal(r.Accs, runs[0].Accs)
	}
	r := runs[0]
	rep.E2E["acc"] = r.ValAcc
	rep.E2E["rate_per_s"] = float64(trainNodes) / medianOf(walls)
	rep.E2E["time_s"] = medianOf(totals)
	rep.timing("train.epoch_s", walls, "s")
	rep.timing("train.time_to_acc_s", totals, "s")
	rep.metric("train.val_acc", r.ValAcc, "fraction")
	rep.metric("train.epochs_to_acc", float64(r.Epochs), "count")
	rep.lines = append(rep.lines, fmt.Sprintf("%-28s %.4f", "train.val_acc_by_epoch", r.Accs))
	rep.timing("infer.eval_s", evals, "s")
	rep.check("val_acc_floor", r.Reached, "validation accuracy %.4f after %d epochs, target %.3f", r.ValAcc, r.Epochs, trainTarget)
	rep.check("training_repeats", same, "%d trainings from one seed reach identical validation accuracies", len(runs))
	return walls
}

func runTrainArxiv(e env) (*report, error) {
	rep := newReport()
	type setup struct {
		ds *dataset.Dataset
		tr *train.Trainer
	}
	setupS, su, err := setupTimes(cheapSetups, func() (setup, error) {
		ds, err := arxiv(e.Seed, arxivScale)
		if err != nil {
			return setup{}, err
		}
		tr, err := train.New(ds, trainConfig(e.Seed, trainBatch, trainWorkers))
		return setup{ds, tr}, err
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.E2E["setup_s"] = setupS
	rep.metric("setup_s", setupS, "s")
	ds, tr := su.ds, su.tr
	cfg := trainConfig(e.Seed, trainBatch, trainWorkers)

	gc0 := gcPause()
	var prepWait time.Duration
	batches := 0
	runs, err := repeatToTarget(time.Now().Add(e.Seconds), func() (toAcc, error) {
		if tr == nil {
			var err error
			if tr, err = train.New(ds, cfg); err != nil {
				return toAcc{}, err
			}
		}
		defer func() { tr = nil }()
		return trainToTarget(func(ep int) error {
			st, err := tr.TrainEpoch(ep)
			prepWait += st.PrepWait
			batches += st.Batches
			return err
		}, func(ep int) (float64, error) {
			return tr.Evaluate(ds.Val, trainFanouts, derive(e.Seed, saltEval)+uint64(ep))
		})
	})
	if err != nil {
		return nil, err
	}
	gcMs := ms(gcPause() - gc0)
	rep.Attempted = int64(batches)
	walls := reportToAcc(rep, runs, len(ds.Train))
	rep.metric("prep.wait_ms", ms(prepWait)/float64(batches), "ms/batch")
	rep.metric("gc.pause_ms", gcMs, "ms")
	if !e.Trace {
		return rep, nil
	}
	rep.Layer["train.epochs_to_acc"] = float64(runs[0].Epochs)
	rep.Layer["gc.pause_ms"] = gcMs
	return rep, traceTrainArxiv(e, rep, ds, medianOf(walls))
}

// traceTrainArxiv re-composes Trainer.TrainEpoch from its public parts with
// a span around each call, checks the re-composed epoch against
// TrainEpoch, and prints the measured per-operation breakdown.
func traceTrainArxiv(e env, rep *report, ds *dataset.Dataset, untracedEpochS float64) error {
	cfg := trainConfig(e.Seed, trainBatch, trainWorkers)
	ref, err := train.New(ds, cfg)
	if err != nil {
		return err
	}
	refStats, err := ref.TrainEpoch(0)
	if err != nil {
		return err
	}

	rc, err := train.New(ds, cfg)
	if err != nil {
		return err
	}
	model, params := rc.Model, rc.Model.Params()
	opt := nn.NewAdam(params, rc.Cfg.LR)
	popts := prep.Options{
		Workers: cfg.Workers, BatchSize: cfg.BatchSize, Fanouts: cfg.Fanouts,
		Sampler: sampler.FastConfig(), Ordered: true, Store: rc.FeatureStore(),
	}
	ex, err := prep.NewSalient(ds, popts)
	if err != nil {
		return err
	}
	epochSeed := train.EpochSeed(rc.Cfg.Seed, 0)
	nb := prep.NumBatches(len(ds.Train), cfg.BatchSize)
	tr := newTracer()
	var dec train.Decoder
	var lossSum float64
	rows := make([]float64, nb)

	start := time.Now()
	epoch := tr.begin("train.TrainEpoch(recomposed)", 0, 0)
	stream := ex.Run(ds.Train, epochSeed)
	for i := 0; i < nb; i++ {
		req := int64(i)
		step := tr.begin("train.step", epoch, req)
		id := tr.begin("prep.Stream.wait", step, req)
		b, ok := <-stream.C
		tr.end(id)
		if !ok || b.Err != nil {
			return fmt.Errorf("recomposed epoch: batch %d missing or failed", i)
		}
		rows[b.Index] = float64(b.MFG.TotalNodes())
		id = tr.begin("train.Decoder.Decode", step, req)
		x := dec.Decode(b.Buf)
		tr.end(id)
		id = tr.begin("nn.ReseedDropout", step, req)
		if rs, ok := model.(nn.DropoutReseeder); ok {
			rs.ReseedDropout(train.DropoutSeed(epochSeed, b.GlobalIndex))
		}
		tr.end(id)
		id = tr.begin("nn.Model.Forward", step, req)
		logp := model.Forward(x, b.MFG, true)
		tr.end(id)
		id = tr.begin("tensor.NLLLoss", step, req)
		grad := dec.Grad(logp.Rows, logp.Cols)
		lossSum += tensor.NLLLoss(logp, b.Labels(), grad)
		tr.end(id)
		id = tr.begin("nn.ZeroGrad", step, req)
		nn.ZeroGrad(params)
		tr.end(id)
		id = tr.begin("nn.Model.Backward", step, req)
		model.Backward(grad)
		tr.end(id)
		id = tr.begin("nn.Adam.Step", step, req)
		opt.Step(params)
		tr.end(id)
		id = tr.begin("prep.Batch.Release", step, req)
		b.Release()
		tr.end(id)
		tr.end(step)
	}
	for b := range stream.C {
		b.Release()
		return fmt.Errorf("recomposed epoch: executor delivered more than %d batches", nb)
	}
	stream.Wait()
	tr.end(epoch)
	wall := time.Since(start)
	if err := stream.Err(); err != nil {
		return err
	}
	// TrainEpoch reports the mean of its per-batch losses, summed in batch
	// order, so equal means and equal parameters after the epoch pin every
	// batch's loss and update.
	meanLoss, same := lossSum/float64(nb), sameParams(model, ref.Model)
	rep.check("recomposed_epoch_bit_identical", meanLoss == refStats.Loss && same,
		"mean batch loss %.17g vs TrainEpoch %.17g over %d batches; parameters identical after the epoch: %v",
		meanLoss, refStats.Loss, nb, same)

	evalID := tr.begin("train.Trainer.Evaluate", 0, 0)
	evalStart := time.Now()
	if _, err := rc.Evaluate(ds.Val, trainFanouts, derive(e.Seed, saltEval)); err != nil {
		return err
	}
	evalWall := time.Since(evalStart)
	tr.end(evalID)

	rp, err := replay(tr, ds, prep.EpochPerm(ds.Train, epochSeed), epochSeed, cfg.BatchSize, cfg.Fanouts)
	if err != nil {
		return err
	}
	sameRows := len(rp.Rows) == nb
	for i := 0; sameRows && i < nb; i++ {
		sameRows = rp.Rows[i] == rows[i]
	}
	rep.check("replay_matches_executor", sameRows, "replayed sampling gives the executor's row count for all %d batches", nb)
	allocs, err := prepAllocsPerBatch(ds, popts, ds.Train, epochSeed)
	if err != nil {
		return err
	}

	spans := tr.snapshot()
	self := layerTimes(spans)
	var stepTotal time.Duration
	for _, s := range spans {
		if s.Name == "train.step" {
			stepTotal += s.End - s.Start
		}
	}
	// The step's self time is the part of it no layer span covers.
	coverage := 1 - self["train.step"].Seconds()/stepTotal.Seconds()
	rep.check("step_spans_cover_step", coverage >= 0.95, "layer spans cover %.2f%% of step wall time", 100*coverage)

	per := func(name string) float64 { return ms(self[name]) / float64(nb) }
	L := rep.Layer
	L["nn.forward_ms"] = per("nn.Model.Forward")
	L["nn.backward_ms"] = per("nn.Model.Backward")
	L["train.optim_ms"] = per("nn.Adam.Step")
	L["train.step_ms"] = ms(stepTotal) / float64(nb)
	L["slicing.decode_ms"] = per("train.Decoder.Decode")
	L["prep.wait_ms"] = per("prep.Stream.wait")
	L["prep.busy_share"] = busyShare(stream, cfg.Workers, wall)
	L["prep.allocs_per_batch"] = allocs
	L["sampler.sample_ms"] = meanOf(rp.SampleMs)
	L["sampler.rows_per_batch"] = meanOf(rp.Rows)
	L["sampler.edges_per_batch"] = meanOf(rp.Edges)
	L["store.gather_ms"] = meanOf(rp.GatherMs)
	L["store.bytes_per_batch"] = rp.BytesPerBatch
	L["infer.eval_s"] = evalWall.Seconds()
	L["trace.overhead_frac"] = wall.Seconds()/untracedEpochS - 1
	zeroMissing(L)
	rep.layerLines("nn.forward_ms", "nn.backward_ms", "train.optim_ms", "train.step_ms", "slicing.decode_ms",
		"prep.wait_ms", "prep.busy_share", "prep.allocs_per_batch", "sampler.sample_ms", "sampler.rows_per_batch",
		"sampler.edges_per_batch", "store.gather_ms", "store.bytes_per_batch", "infer.eval_s")

	epochMs := ms(wall)
	rep.lines = append(rep.lines, "",
		fmt.Sprintf("Table 1 (measured on this host, not modeled): one train-arxiv epoch, %d batches of %d, %.0f ms", nb, cfg.BatchSize, epochMs),
		fmt.Sprintf("%-12s %10s %9s  %s", "operation", "ms/epoch", "% epoch", "where"))
	row := func(op string, total float64, where string) {
		rep.lines = append(rep.lines, fmt.Sprintf("%-12s %10.1f %8.1f%%  %s", op, total, 100*total/epochMs, where))
	}
	row("sample", sumOf(rp.SampleMs), "prep workers, overlapped with training (replayed serially)")
	row("gather", sumOf(rp.GatherMs), "prep workers, overlapped with training (replayed serially)")
	row("prep wait", ms(self["prep.Stream.wait"]), "training loop blocked on the executor")
	row("decode", ms(self["train.Decoder.Decode"]), "training loop")
	row("forward", ms(self["nn.Model.Forward"]), "training loop")
	row("loss", ms(self["tensor.NLLLoss"]), "training loop")
	row("backward", ms(self["nn.Model.Backward"]+self["nn.ZeroGrad"]), "training loop (incl. ZeroGrad)")
	row("optimizer", ms(self["nn.Adam.Step"]), "training loop")
	row("eval", ms(evalWall), "validation pass after the epoch (not in the epoch)")
	rep.lines = append(rep.lines, fmt.Sprintf("trace.overhead_frac %.4f (traced epoch %.0f ms vs untraced median %.0f ms); spans cover %.2f%% of step time",
		L["trace.overhead_frac"], epochMs, 1000*untracedEpochS, 100*coverage))
	return writeChrome(tracePath(e, "train-arxiv"), spans)
}

// zeroMissing sets every per-layer metric a workload does not exercise to 0.
func zeroMissing(m map[string]float64) {
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}
