package bench

import "testing"

// TestFleetSweepSmall runs the replicated-serving grid at smoke scale and
// checks the rows that carry the sweep's claims: a 1-replica baseline,
// hash affinity beating random routing on combined cache hit rate at the
// fixed total budget, the result memo absorbing repeats, and the overload
// row shedding the low priority class ahead of the high one.
func TestFleetSweepSmall(t *testing.T) {
	opts := smallFleet()
	results, err := FleetResults(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d rows, want 4 routing rows + 1 overload row", len(results))
	}
	byKey := map[string]FleetResult{}
	for _, r := range results {
		if r.Phase == "routing" && (r.P99Ms <= 0 || r.P99Ms < r.P50Ms) {
			t.Fatalf("%s/%d: implausible latency row %+v", r.Routing, r.Replicas, r)
		}
		byKey[r.Routing] = r
	}

	hash, random := byKey["hash"], byKey["random"]
	if hash.Replicas != opts.Replicas || random.Replicas != opts.Replicas {
		t.Fatalf("grid rows mis-labeled: hash=%+v random=%+v", hash, random)
	}
	// The tentpole claim: at a fixed TOTAL cache budget split across
	// replicas, affinity routing keeps each replica's partition of the hot
	// set resident; random routing dilutes every cache with the full
	// distribution.
	if hash.CombinedHit <= random.CombinedHit {
		t.Fatalf("hash combined hit rate %.3f not above random %.3f",
			hash.CombinedHit, random.CombinedHit)
	}
	if hash.VIPHit == 0 || hash.EmbHit == 0 {
		t.Fatalf("hash row missing cache traffic: %+v", hash)
	}
	if hash.ResultHit != 0 {
		t.Fatalf("memo-less hash row reports result hits: %+v", hash)
	}

	memo := byKey["hash+memo"]
	if memo.ResultHit <= 0 {
		t.Fatalf("Zipf repeats produced no result-memo hits: %+v", memo)
	}

	over := byKey["hash+pri"]
	if over.Phase != "overload" {
		t.Fatalf("overload row mis-phased: %+v", over)
	}
	// Priority admission must never shed the high class ahead of the low
	// one; if the tiny queue filled at all, the low class pays first.
	if over.HighShedFrac > over.LowShedFrac {
		t.Fatalf("high-priority shed fraction %.3f above low %.3f",
			over.HighShedFrac, over.LowShedFrac)
	}
	if over.HighMissFrac != 0 {
		t.Fatalf("high-priority deadline misses at smoke scale: %+v", over)
	}
}
