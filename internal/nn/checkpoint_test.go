package nn

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"path/filepath"
	"testing"

	"salient/internal/rng"
)

func twoModels() (Model, Model) {
	cfg := ModelConfig{In: 8, Hidden: 16, Out: 4, Layers: 2, Seed: 1}
	a := NewGraphSAGE(cfg)
	cfg.Seed = 99 // different init
	b := NewGraphSAGE(cfg)
	return a, b
}

func TestCheckpointRoundTrip(t *testing.T) {
	a, b := twoModels()
	// Perturb a's weights so they differ from any fresh init.
	r := rng.New(5)
	for _, p := range a.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += r.Float32()
		}
	}
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, b.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range a.Params() {
		if d := p.W.MaxAbsDiff(b.Params()[i].W); d != 0 {
			t.Fatalf("param %s differs by %v after restore", p.Name, d)
		}
	}
}

func TestCheckpointRejectsMismatchedModel(t *testing.T) {
	a, _ := twoModels()
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewGraphSAGE(ModelConfig{In: 8, Hidden: 32, Out: 4, Layers: 2, Seed: 1})
	if err := LoadParams(bytes.NewReader(buf.Bytes()), other.Params()); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	gat := NewGAT(ModelConfig{In: 8, Hidden: 16, Out: 4, Layers: 2, Seed: 1})
	if err := LoadParams(bytes.NewReader(buf.Bytes()), gat.Params()); err == nil {
		t.Fatal("wrong architecture accepted")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	a, b := twoModels()
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x55
	if err := LoadParams(bytes.NewReader(raw), b.Params()); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
	if err := LoadParams(bytes.NewReader(raw[:8]), b.Params()); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestCheckpointFile(t *testing.T) {
	a, b := twoModels()
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveParamsFile(path, a.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParamsFile(path, b.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range a.Params() {
		if d := p.W.MaxAbsDiff(b.Params()[i].W); d != 0 {
			t.Fatalf("param %s differs after file round trip", p.Name)
		}
	}
	if err := LoadParamsFile(filepath.Join(t.TempDir(), "nope.ckpt"), b.Params()); err == nil {
		t.Fatal("missing file accepted")
	}
}

// withCRC returns b with its trailing checksum recomputed, so mutated
// checkpoints reach the parser instead of stopping at the CRC.
func withCRC(b []byte) []byte {
	b = append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// savedCheckpoint returns a's checkpoint, plus two valid-CRC corruptions of
// it: one with 4 extra payload bytes, and one with the last param cut by 8
// bytes.
func savedCheckpoint(t testing.TB, a Model) (saved, trailing, truncated []byte) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	saved = buf.Bytes()
	payload := saved[:len(saved)-4]
	trailing = withCRC(append(append([]byte(nil), payload...), 1, 2, 3, 4, 0, 0, 0, 0))
	truncated = withCRC(append(append([]byte(nil), payload[:len(payload)-8]...), 0, 0, 0, 0))
	return saved, trailing, truncated
}

// paramBits snapshots every weight's bit pattern.
func paramBits(params []*Param) [][]uint32 {
	out := make([][]uint32, len(params))
	for i, p := range params {
		out[i] = make([]uint32, len(p.W.Data))
		for j, v := range p.W.Data {
			out[i][j] = math.Float32bits(v)
		}
	}
	return out
}

// assertUntouched fails unless params hold exactly the bits in before.
func assertUntouched(t *testing.T, params []*Param, before [][]uint32) {
	t.Helper()
	for i, bits := range paramBits(params) {
		for j, b := range bits {
			if b != before[i][j] {
				t.Fatalf("failed load changed param %s[%d]", params[i].Name, j)
			}
		}
	}
}

func TestLoadParamsTrailingBytesLeavesModelUntouched(t *testing.T) {
	a, b := twoModels()
	_, trailing, _ := savedCheckpoint(t, a)
	before := paramBits(b.Params())
	if err := LoadParams(bytes.NewReader(trailing), b.Params()); err == nil {
		t.Fatal("checkpoint with trailing bytes accepted")
	}
	assertUntouched(t, b.Params(), before)
}

func TestLoadParamsTruncatedLeavesModelUntouched(t *testing.T) {
	a, b := twoModels()
	_, _, truncated := savedCheckpoint(t, a)
	before := paramBits(b.Params())
	if err := LoadParams(bytes.NewReader(truncated), b.Params()); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	assertUntouched(t, b.Params(), before)
}

// FuzzLoadParams feeds mutated checkpoints to the loader. The harness
// recomputes the trailing checksum, so mutations reach the parser. A load
// either succeeds and saves back to the same bytes, or fails and leaves
// every param bit-identical to its value before the call.
func FuzzLoadParams(f *testing.F) {
	// A tiny model keeps inputs short, so the fuzzer spends its time
	// mutating rather than minimizing.
	tiny := func(seed uint64) Model {
		return NewGraphSAGE(ModelConfig{In: 2, Hidden: 2, Out: 2, Layers: 2, Seed: seed})
	}
	saved, trailing, truncated := savedCheckpoint(f, tiny(1))
	f.Add(saved)
	f.Add(trailing)
	f.Add(truncated)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) >= 4 {
			in = withCRC(in)
		}
		b := tiny(99)
		before := paramBits(b.Params())
		if err := LoadParams(bytes.NewReader(in), b.Params()); err != nil {
			assertUntouched(t, b.Params(), before)
			return
		}
		var out bytes.Buffer
		if err := SaveParams(&out, b.Params()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatal("loaded checkpoint does not save back to the same bytes")
		}
	})
}
