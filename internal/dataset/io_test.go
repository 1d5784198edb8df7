package dataset

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ds, err := Load(Arxiv, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name || got.NumClasses != ds.NumClasses || got.FeatDim != ds.FeatDim {
		t.Fatalf("metadata mismatch: %+v vs %+v", got.Name, ds.Name)
	}
	if got.G.N != ds.G.N || got.G.NumEdges() != ds.G.NumEdges() {
		t.Fatal("graph shape mismatch")
	}
	for v := int32(0); v < ds.G.N; v++ {
		a, b := ds.G.Neighbors(v), got.G.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("node %d degree mismatch", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d adjacency differs", v)
			}
		}
	}
	for i := range ds.FeatHalf {
		if ds.FeatHalf[i] != got.FeatHalf[i] {
			t.Fatalf("feature %d differs", i)
		}
	}
	for i := range ds.Labels {
		if ds.Labels[i] != got.Labels[i] {
			t.Fatalf("label %d differs", i)
		}
	}
	if len(got.Train) != len(ds.Train) || len(got.Val) != len(ds.Val) || len(got.Test) != len(ds.Test) {
		t.Fatal("split sizes differ")
	}
	// Recovered float32 features match the half widening exactly.
	if got.Feat.MaxAbsDiff(ds.Feat) != 0 {
		t.Fatal("recovered float features differ from original widening")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	ds, err := Load(Arxiv, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	// Flip one payload byte: checksum must catch it.
	corrupted := append([]byte(nil), pristine...)
	corrupted[len(corrupted)/2] ^= 0xFF
	if _, err := LoadFrom(bytes.NewReader(corrupted)); err == nil {
		t.Fatal("corrupted payload accepted")
	}

	// Truncate: must be rejected.
	if _, err := LoadFrom(bytes.NewReader(pristine[:len(pristine)/2])); err == nil {
		t.Fatal("truncated container accepted")
	}

	// Wrong magic with a fixed-up checksum: still rejected at the magic.
	bad := append([]byte(nil), pristine...)
	copy(bad, "WRONGMAG")
	fixCRC(bad)
	if _, err := LoadFrom(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Empty input.
	if _, err := LoadFrom(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// fixCRC recomputes the trailing checksum after test mutations.
func fixCRC(b []byte) {
	payload := b[:len(b)-4]
	sum := crc32ChecksumIEEE(payload)
	b[len(b)-4] = byte(sum)
	b[len(b)-3] = byte(sum >> 8)
	b[len(b)-2] = byte(sum >> 16)
	b[len(b)-1] = byte(sum >> 24)
}

func TestSaveLoadFile(t *testing.T) {
	ds, err := Load(Products, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "products.salient")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.G.N != ds.G.N {
		t.Fatal("file round trip lost nodes")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.salient")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadedDatasetIsTrainable(t *testing.T) {
	// The acid test: a round-tripped dataset behaves identically for
	// sampling (same graph, features, splits).
	ds, err := Load(Arxiv, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ds.Train {
		if got.Train[i] != v {
			t.Fatal("train split differs")
		}
	}
	if err := got.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

// crc32ChecksumIEEE proxies the stdlib for test fixups.
func crc32ChecksumIEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// container hand-assembles a checksummed dataset file from header fields,
// section lengths and a raw section body, for inputs Save cannot produce.
func container(n, classes, dim int32, lens [7]int64, body []byte) []byte {
	var b bytes.Buffer
	b.WriteString(ioMagic)
	binary.Write(&b, binary.LittleEndian, int64(0)) // empty name
	binary.Write(&b, binary.LittleEndian, []int32{n, classes, dim})
	binary.Write(&b, binary.LittleEndian, lens[:])
	b.Write(body)
	binary.Write(&b, binary.LittleEndian, crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// hugeAdjHeader is an 88-byte container with a valid checksum whose header
// claims a 2^28-entry adjacency section that the payload does not hold.
func hugeAdjHeader() []byte {
	return container(0, 2, 4, [7]int64{1, 1 << 28, 0, 0, 0, 0, 0}, nil)
}

// negativeDimHeader is a valid-checksum container with N=0 and feature dim
// -5: every section length agrees with the header.
func negativeDimHeader() []byte {
	return container(0, 2, -5, [7]int64{1, 0, 0, 0, 0, 0, 0}, make([]byte, 8))
}

// TestLoadRejectsOversizedSectionBeforeAllocating: header lengths are
// checked against the payload before any section is allocated, so a tiny
// file cannot make the loader reserve a gigabyte.
func TestLoadRejectsOversizedSectionBeforeAllocating(t *testing.T) {
	in := hugeAdjHeader()
	if len(in) != 88 {
		t.Fatalf("regression input is %d bytes, want 88", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadFrom(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("oversized adjacency section accepted")
	}
	if !strings.Contains(err.Error(), "payload") {
		t.Fatalf("error %q does not name the payload size mismatch", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting an 88-byte file allocated %d bytes", grew)
	}
}

// TestLoadRejectsNegativeHeaderFields: a negative N, class count or
// feature dim is an error, not a panic further down the loader.
func TestLoadRejectsNegativeHeaderFields(t *testing.T) {
	inputs := map[string][]byte{
		"dim":     negativeDimHeader(),
		"classes": container(0, -1, 4, [7]int64{1, 0, 0, 0, 0, 0, 0}, make([]byte, 8)),
		"N":       container(-1, 2, 4, [7]int64{0, 0, 0, 0, 0, 0, 0}, nil),
	}
	for field, in := range inputs {
		if _, err := LoadFrom(bytes.NewReader(in)); err == nil {
			t.Fatalf("negative %s accepted", field)
		}
	}
}

// TestLoadRejectsOutOfRangeSplit: split entries must name existing nodes.
func TestLoadRejectsOutOfRangeSplit(t *testing.T) {
	ds := tinyDataset(t)
	ds.Test[0] = ds.G.N
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFrom(&buf)
	if err == nil || !strings.Contains(err.Error(), "test split") {
		t.Fatalf("out-of-range test split entry: got error %v", err)
	}
}

func tinyDataset(t testing.TB) *Dataset {
	t.Helper()
	ds, err := Generate(Config{
		Name: "tiny", Nodes: 12, EdgesPerNew: 2, FeatDim: 3, NumClasses: 2,
		Homophily: 0.8, NoiseScale: 0.5, TrainFrac: 0.5, ValFrac: 0.25, TestFrac: 0.25, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// FuzzLoadFrom feeds mutated containers to the loader. The harness
// recomputes the trailing checksum, so mutations reach the parser instead
// of stopping at the CRC. The loader must return an error or a dataset
// that passes its own graph validation — never panic or over-allocate.
func FuzzLoadFrom(f *testing.F) {
	var buf bytes.Buffer
	if err := tinyDataset(f).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(hugeAdjHeader())
	f.Add(negativeDimHeader())
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) >= len(ioMagic)+4 {
			in = append([]byte(nil), in...)
			fixCRC(in)
		}
		ds, err := LoadFrom(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := ds.G.Validate(); err != nil {
			t.Fatalf("loaded dataset has an invalid graph: %v", err)
		}
		if ds.Feat.Rows != int(ds.G.N) || ds.Feat.Cols != ds.FeatDim {
			t.Fatalf("features %dx%d for N=%d dim=%d", ds.Feat.Rows, ds.Feat.Cols, ds.G.N, ds.FeatDim)
		}
	})
}
