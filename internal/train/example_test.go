package train_test

import (
	"fmt"
	"log"

	"salient/internal/dataset"
	"salient/internal/infer"
	"salient/internal/train"
)

// Example trains a small GraphSAGE on the arxiv stand-in with the SALIENT
// batch-preparation pipeline, then evaluates it with sampled inference over
// the same data path — the workflow of the paper's Listing 1. It prints
// only facts that do not depend on the platform; `salient train` prints the
// per-epoch losses, accuracies and timings.
func Example() {
	ds, err := dataset.Load(dataset.Arxiv, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d nodes, %d edges, %d classes, train/val/test %d/%d/%d\n",
		ds.Name, ds.G.N, ds.G.NumEdges(), ds.NumClasses, len(ds.Train), len(ds.Val), len(ds.Test))

	tr, err := train.New(ds, train.Config{
		Arch:      "SAGE",
		Hidden:    32,
		Layers:    2,
		Fanouts:   []int{10, 5},
		BatchSize: 128,
		Workers:   2,
		Executor:  train.ExecSalient,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := tr.Fit(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d epochs of %d batches\n", len(stats), stats[0].Batches)

	pred, err := infer.Sampled(tr.Model, ds, ds.Val, infer.Options{Fanouts: []int{20, 20}, Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	acc := infer.Accuracy(pred, ds.Labels, ds.Val)
	fmt.Println("sampled validation accuracy beats chance:", acc > 1/float64(ds.NumClasses))
	// Output:
	// arxiv: 850 nodes, 9784 edges, 40 classes, train/val/test 459/153/238
	// trained 3 epochs of 4 batches
	// sampled validation accuracy beats chance: true
}
