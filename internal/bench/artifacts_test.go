package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWriteBenchArtifacts writes the machine-readable BENCH_*.json files CI
// uploads per commit, and checks that each decodes back to its row count.
// It is a no-op unless BENCH_ARTIFACT_DIR is set (the bench-smoke job sets
// it), so ordinary test runs never touch the tree.
func TestWriteBenchArtifacts(t *testing.T) {
	dir := os.Getenv("BENCH_ARTIFACT_DIR")
	if dir == "" {
		t.Skip("BENCH_ARTIFACT_DIR not set")
	}
	for _, a := range []struct {
		file string
		rows func() (any, error)
	}{
		{"BENCH_kernels.json", func() (any, error) { return KernelResults(smallKernels()) }},
		{"BENCH_transport.json", func() (any, error) { return TransportResults(smallTransport()) }},
		{"BENCH_embcache.json", func() (any, error) { return EmbCacheResults(smallEmbCache()) }},
		{"BENCH_fleet.json", func() (any, error) { return FleetResults(smallFleet()) }},
	} {
		t.Run(a.file, func(t *testing.T) {
			rows, err := a.rows()
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.MarshalIndent(rows, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, a.file)
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			written, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var decoded []json.RawMessage
			if err := json.Unmarshal(written, &decoded); err != nil {
				t.Fatalf("%s is not a JSON array: %v", a.file, err)
			}
			if want := reflect.ValueOf(rows).Len(); len(decoded) != want {
				t.Fatalf("%s decodes to %d rows, want %d", a.file, len(decoded), want)
			}
			t.Logf("wrote %s (%d rows)", path, len(decoded))
		})
	}
}
