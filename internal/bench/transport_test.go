package bench

import (
	"encoding/json"
	"testing"
)

// smallTransport keeps the sweep cheap for unit tests and CI smoke.
func smallTransport() TransportOpts {
	return TransportOpts{Scale: 0.05, Parts: 2, BatchSize: 64, Rounds: 1, CacheFracs: []float64{0, 0.25}, Seed: 1}
}

// TestTransportSweepMatrix pins the sweep's accounting: the full wire ×
// config matrix is present, loopback and tcp charge byte-identical framed
// wire traffic for the same workload (the transport invariant the dist
// package proves against real sockets), the precision axis orders wire
// bytes int8 < fp16 < fp32, and a warmed mirror strictly cuts the remote
// fraction.
func TestTransportSweepMatrix(t *testing.T) {
	o := smallTransport()
	results, err := TransportResults(o)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		prec string
		frac float64
	}
	cells := map[string]map[key]TransportResult{"loopback": {}, "tcp": {}}
	for _, r := range results {
		cells[r.Wire][key{r.Precision, r.CacheFrac}] = r
	}
	wantKeys := []key{{"fp16", 0}, {"fp32", 0}, {"int8", 0}, {"fp16", 0.25}}
	for wire, byKey := range cells {
		if len(byKey) != len(wantKeys) {
			t.Fatalf("%s: got %d configs, want %d: %+v", wire, len(byKey), len(wantKeys), byKey)
		}
		for _, k := range wantKeys {
			r, ok := byKey[k]
			if !ok || r.Batches == 0 {
				t.Fatalf("%s: missing or empty cell %+v", wire, k)
			}
			if r.WireKBPB <= 0 || r.RemoteFrac <= 0 {
				t.Fatalf("%s %+v: no wire traffic recorded: %+v", wire, k, r)
			}
		}
	}
	for _, k := range wantKeys {
		lb, tcp := cells["loopback"][k], cells["tcp"][k]
		if lb.WireKBPB != tcp.WireKBPB {
			t.Fatalf("%+v: loopback charges %.3f KB/batch, tcp %.3f — framed accounting must be wire-independent",
				k, lb.WireKBPB, tcp.WireKBPB)
		}
		if lb.RemoteFrac != tcp.RemoteFrac || lb.HitRate != tcp.HitRate {
			t.Fatalf("%+v: loopback and tcp disagree on remote/hit accounting: %+v vs %+v", k, lb, tcp)
		}
	}
	for _, wire := range []string{"loopback", "tcp"} {
		fp16 := cells[wire][key{"fp16", 0}]
		fp32 := cells[wire][key{"fp32", 0}]
		int8 := cells[wire][key{"int8", 0}]
		if !(int8.WireKBPB < fp16.WireKBPB && fp16.WireKBPB < fp32.WireKBPB) {
			t.Fatalf("%s: wire bytes not ordered int8 < fp16 < fp32: %.3f / %.3f / %.3f",
				wire, int8.WireKBPB, fp16.WireKBPB, fp32.WireKBPB)
		}
		cold, warm := cells[wire][key{"fp16", 0}], cells[wire][key{"fp16", 0.25}]
		if warm.HitRate <= 0 {
			t.Fatalf("%s: warmed mirror never hit: %+v", wire, warm)
		}
		if warm.RemoteFrac >= cold.RemoteFrac {
			t.Fatalf("%s: mirror did not cut remote fraction: cold %.4f, warm %.4f",
				wire, cold.RemoteFrac, warm.RemoteFrac)
		}
	}
}

func TestTransportSweepRenders(t *testing.T) {
	tb, err := TransportSweep(smallTransport())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("rendered %d rows, want 8 (2 wires x 4 configs)", len(tb.Rows))
	}
}

// TestTransportSweepJSON checks that the rows the BENCH_transport.json
// artifact is written from survive a JSON round trip complete.
func TestTransportSweepJSON(t *testing.T) {
	rows, err := TransportResults(smallTransport())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var results []TransportResult
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(results) != 8 {
		t.Fatalf("artifact holds %d results, want 8", len(results))
	}
	for _, r := range results {
		if r.Wire == "" || r.Precision == "" || r.Batches == 0 {
			t.Fatalf("incomplete artifact row: %+v", r)
		}
	}
}
