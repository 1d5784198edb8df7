package bench

import "testing"

// TestEmbCacheSweepSmall runs the full configuration grid at smoke scale
// and checks the rows that carry the sweep's claims: complete results,
// meaningful truncation when reuse is on, perfect agreement when reuse is
// off, and high agreement when it is on.
func TestEmbCacheSweepSmall(t *testing.T) {
	results, err := EmbCacheResults(smallEmbCache())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d rows, want the 6-config grid", len(results))
	}
	for _, r := range results {
		if r.P99Ms <= 0 || r.P99Ms < r.P50Ms {
			t.Fatalf("%s/%d: implausible latency row %+v", r.Policy, r.EmbRows, r)
		}
		if r.MBMoved <= 0 {
			t.Fatalf("%s/%d: no feature bytes moved", r.Policy, r.EmbRows)
		}
		switch {
		case r.EmbRows == 0 && r.Churn == 0:
			// Reuse off: predictions must match the oracle exactly, and the
			// embedding cache must be silent.
			if r.Agreement != 1 {
				t.Fatalf("%s reuse-off agreement %.2f, want 1.0 (feature caches never change predictions)", r.Policy, r.Agreement)
			}
			if r.EmbHit != 0 {
				t.Fatalf("%s reuse-off emb hit rate %.2f, want 0", r.Policy, r.EmbHit)
			}
		case r.EmbRows > 0 && r.Churn == 0:
			if r.EmbHit == 0 {
				t.Fatalf("%s reuse-on produced no truncations", r.Policy)
			}
			if r.Agreement < 0.85 {
				t.Fatalf("%s reuse-on agreement %.2f, want >= 0.85", r.Policy, r.Agreement)
			}
		case r.Churn > 0:
			if r.Agreement != -1 {
				t.Fatalf("churn row reports agreement %.2f, want -1 (n/a)", r.Agreement)
			}
		}
	}
}
