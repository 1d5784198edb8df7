package main

import (
	"fmt"
	"slices"
	"time"

	"salient/internal/dataset"
	"salient/internal/infer"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/tensor"
	"salient/internal/train"
)

// The inference workload: sampled inference (paper §5) with SAGE, 2 layers
// × 16 hidden, fanouts (20,20), batch 256, over the products test split.
// The model is small, so sampling, the id map, the gather and the fp16
// decode carry as much of the cost as the GEMMs do.
const (
	productsScale = 0.5
	inferBatch    = 256
	inferWorkers  = 2
	// The set-up training: inferEpochs epochs at batch inferTrainBatch.
	inferEpochs     = 3
	inferTrainBatch = 64
	// inferAccFloor is below every seed's test accuracy (0.947-0.999 over
	// seeds 1-10).
	inferAccFloor = 0.85
)

var inferFanouts = []int{20, 20}

func runInferProducts(e env) (*report, error) {
	rep := newReport()
	type setup struct {
		ds    *dataset.Dataset
		model nn.Model
	}
	setupS, su, err := setupTimes(3, func() (setup, error) {
		cfg := dataset.PresetConfig(dataset.Products, productsScale)
		cfg.Seed = derive(e.Seed, saltDataset)
		ds, err := dataset.Generate(cfg)
		if err != nil {
			return setup{}, err
		}
		tr, err := train.New(ds, train.Config{
			Arch: "SAGE", Hidden: 16, Layers: 2, Fanouts: inferFanouts,
			BatchSize: inferTrainBatch, Workers: inferWorkers, Seed: derive(e.Seed, saltTrain),
		})
		if err != nil {
			return setup{}, err
		}
		_, err = tr.Fit(inferEpochs)
		return setup{ds, tr.Model}, err
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.E2E["setup_s"] = setupS
	rep.metric("setup_s", setupS, "s")
	ds, model := su.ds, su.model
	opts := infer.Options{Fanouts: inferFanouts, BatchSize: inferBatch, Workers: inferWorkers, Seed: derive(e.Seed, saltEval)}

	gc0 := gcPause()
	var walls []float64
	var first []int32
	identical := true
	deadline := time.Now().Add(e.Seconds)
	for len(walls) < 2 || time.Now().Before(deadline) {
		start := time.Now()
		pred, err := infer.Sampled(model, ds, ds.Test, opts)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(start).Seconds())
		if first == nil {
			first = pred
		} else {
			identical = identical && slices.Equal(first, pred)
		}
	}
	gcMs := ms(gcPause() - gc0)
	acc := infer.Accuracy(first, ds.Labels, ds.Test)
	passS := medianOf(walls)
	rep.Attempted = int64(len(walls) * len(ds.Test))
	rep.E2E["acc"] = acc
	rep.E2E["rate_per_s"] = float64(len(ds.Test)) / passS
	rep.E2E["time_s"] = passS
	rep.metric("infer.nodes_per_s", float64(len(ds.Test))/passS, "1/s")
	rep.timing("infer.pass_s", walls, "s")
	rep.metric("infer.test_acc", acc, "fraction")
	rep.metric("gc.pause_ms", gcMs, "ms")
	rep.check("predictions_repeat", identical, "%d passes over %d test nodes with one seed give identical predictions", len(walls), len(ds.Test))
	rep.check("test_acc_floor", acc >= inferAccFloor, "test accuracy %.4f, floor %.2f", acc, inferAccFloor)
	if !e.Trace {
		return rep, nil
	}
	rep.Layer["gc.pause_ms"] = gcMs
	return rep, traceInfer(e, rep, ds, model, opts, first, passS)
}

// traceInfer re-composes infer.Sampled from its public parts with a span
// around each call and checks it predicts what infer.Sampled predicted.
func traceInfer(e env, rep *report, ds *dataset.Dataset, model nn.Model, opts infer.Options, want []int32, untracedS float64) error {
	popts := prep.Options{Workers: opts.Workers, BatchSize: opts.BatchSize, Fanouts: opts.Fanouts, Sampler: sampler.FastConfig()}
	tr := newTracer()
	start := time.Now()
	pass := tr.begin("infer.Sampled(recomposed)", 0, 0)
	id := tr.begin("prep.NewSalient", pass, 0)
	ex, err := prep.NewSalient(ds, popts)
	tr.end(id)
	if err != nil {
		return err
	}
	nodes := ds.Test
	pos := make(map[int32]int, len(nodes))
	for i, v := range nodes {
		pos[v] = i
	}
	pred := make([]int32, len(nodes))
	rowPred := make([]int32, opts.BatchSize)
	nb := prep.NumBatches(len(nodes), opts.BatchSize)
	var x *tensor.Dense
	stream := ex.Run(nodes, opts.Seed)
	for i := 0; i < nb; i++ {
		req := int64(i)
		batch := tr.begin("infer.batch", pass, req)
		id = tr.begin("prep.Stream.wait", batch, req)
		b, ok := <-stream.C
		tr.end(id)
		if !ok || b.Err != nil {
			return fmt.Errorf("recomposed inference: batch %d missing or failed", i)
		}
		id = tr.begin("slicing.DecodeInto", batch, req)
		x = slicing.DecodeInto(x, b.Buf)
		tr.end(id)
		id = tr.begin("nn.Model.Forward", batch, req)
		logp := model.Forward(x, b.MFG, false)
		tr.end(id)
		id = tr.begin("tensor.ArgmaxRows", batch, req)
		logp.ArgmaxRows(rowPred[:logp.Rows])
		for j := 0; j < logp.Rows; j++ {
			pred[pos[b.Seeds[j]]] = rowPred[j]
		}
		tr.end(id)
		id = tr.begin("prep.Batch.Release", batch, req)
		b.Release()
		tr.end(id)
		tr.end(batch)
	}
	for b := range stream.C {
		b.Release()
		return fmt.Errorf("recomposed inference: executor delivered more than %d batches", nb)
	}
	stream.Wait()
	tr.end(pass)
	wall := time.Since(start)
	if err := stream.Err(); err != nil {
		return err
	}
	rep.check("recomposed_pass_identical", slices.Equal(pred, want), "re-composed pass predicts what infer.Sampled predicted for all %d nodes", len(nodes))

	rp, err := replay(tr, ds, prep.EpochPerm(nodes, opts.Seed), opts.Seed, opts.BatchSize, opts.Fanouts)
	if err != nil {
		return err
	}
	allocs, err := prepAllocsPerBatch(ds, popts, nodes, opts.Seed)
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	self := layerTimes(spans)
	per := func(name string) float64 { return ms(self[name]) / float64(nb) }
	L := rep.Layer
	L["nn.forward_ms"] = per("nn.Model.Forward")
	L["slicing.decode_ms"] = per("slicing.DecodeInto")
	L["prep.wait_ms"] = per("prep.Stream.wait")
	L["prep.busy_share"] = busyShare(stream, opts.Workers, wall)
	L["prep.allocs_per_batch"] = allocs
	L["sampler.sample_ms"] = meanOf(rp.SampleMs)
	L["sampler.rows_per_batch"] = meanOf(rp.Rows)
	L["sampler.edges_per_batch"] = meanOf(rp.Edges)
	L["store.gather_ms"] = meanOf(rp.GatherMs)
	L["store.bytes_per_batch"] = rp.BytesPerBatch
	L["trace.overhead_frac"] = wall.Seconds()/untracedS - 1
	zeroMissing(L)
	rep.layerLines("nn.forward_ms", "slicing.decode_ms", "prep.wait_ms", "prep.busy_share", "prep.allocs_per_batch",
		"sampler.sample_ms", "sampler.rows_per_batch", "sampler.edges_per_batch", "store.gather_ms", "store.bytes_per_batch")
	rep.lines = append(rep.lines, fmt.Sprintf("trace.overhead_frac %.4f (traced pass %.0f ms vs untraced median %.0f ms)",
		L["trace.overhead_frac"], ms(wall), 1000*untracedS))
	return writeChrome(tracePath(e, "infer-products"), spans)
}
