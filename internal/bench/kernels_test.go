package bench

import (
	"encoding/json"
	"testing"

	"salient/internal/race"
)

// smallKernels keeps the kernel sweep cheap for unit tests and CI smoke.
func smallKernels() KernelOpts {
	return KernelOpts{Scale: 0.05, BatchSize: 64, Rounds: 1, Seed: 1}
}

// TestKernelSweepMatrix pins the sweep's accounting: the full precision ×
// pipeline matrix is present, fused and staged move identical store bytes at
// each precision (fusion changes bytes *touched*, not bytes *gathered*),
// int8 storage moves just over half of fp16's bytes, and the fused kernel
// runs allocation-free in steady state.
func TestKernelSweepMatrix(t *testing.T) {
	results, err := KernelResults(smallKernels())
	if err != nil {
		t.Fatal(err)
	}
	cell := map[[2]string]KernelResult{}
	for _, r := range results {
		cell[[2]string{r.Precision, r.Pipeline}] = r
	}
	if len(cell) != 6 {
		t.Fatalf("got %d distinct cells, want 3 precisions x 2 pipelines: %+v", len(cell), results)
	}
	for _, prec := range []string{"fp16", "fp32", "int8"} {
		staged, fused := cell[[2]string{prec, "staged"}], cell[[2]string{prec, "fused"}]
		if staged.Batches == 0 || fused.Batches == 0 {
			t.Fatalf("%s: empty cell (staged %+v, fused %+v)", prec, staged, fused)
		}
		if staged.KBMovedPB != fused.KBMovedPB {
			t.Fatalf("%s: staged moved %.1f KB/batch, fused %.1f: same rows must cost the same store bytes",
				prec, staged.KBMovedPB, fused.KBMovedPB)
		}
		if !race.Enabled && fused.AllocsPB != 0 {
			t.Fatalf("%s: fused pipeline allocates %.2f objects/batch in steady state, want 0", prec, fused.AllocsPB)
		}
	}
	fp16 := cell[[2]string{"fp16", "staged"}].KBMovedPB
	fp32 := cell[[2]string{"fp32", "staged"}].KBMovedPB
	int8 := cell[[2]string{"int8", "staged"}].KBMovedPB
	if fp32 != 2*fp16 {
		t.Fatalf("fp32 moved %.1f KB/batch, want exactly 2x fp16's %.1f", fp32, fp16)
	}
	if int8 >= 0.52*fp16 || int8 <= 0.5*fp16 {
		t.Fatalf("int8 moved %.1f KB/batch vs fp16 %.1f: want just over half", int8, fp16)
	}
}

func TestKernelSweepRenders(t *testing.T) {
	tb, err := KernelSweep(smallKernels())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rendered %d rows, want 6", len(tb.Rows))
	}
}

// TestKernelSweepJSON checks that the rows the BENCH_kernels.json artifact
// is written from survive a JSON round trip complete.
func TestKernelSweepJSON(t *testing.T) {
	rows, err := KernelResults(smallKernels())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var results []KernelResult
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(results) != 6 {
		t.Fatalf("artifact holds %d results, want 6", len(results))
	}
	for _, r := range results {
		if r.Precision == "" || r.Pipeline == "" || r.Batches == 0 {
			t.Fatalf("incomplete artifact row: %+v", r)
		}
	}
}
