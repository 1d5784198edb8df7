package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"salient/internal/graph"
	"salient/internal/half"
	"salient/internal/tensor"
)

// Binary dataset container: a fixed little-endian layout with a magic
// header, section lengths, and a trailing CRC32 of everything after the
// magic. The float32 master features are not stored — they are recovered by
// widening the half-precision features, which is the on-host representation
// anyway (paper §3, optimization iii).
const (
	ioMagic   = "SALNTDS1"
	maxstring = 1 << 10
	maxEntity = int64(1) << 34 // sanity cap on section lengths
)

// sections names the container's arrays in file order, with the byte size
// of one element, so the loader can check the payload length against the
// header before allocating anything.
var sections = [...]struct {
	name string
	size int64
}{
	{"ptr", 8}, {"adj", 4}, {"features", 2}, {"labels", 4},
	{"train", 4}, {"val", 4}, {"test", 4},
}

// Save writes the dataset to w.
func (d *Dataset) Save(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := io.WriteString(bw, ioMagic); err != nil {
		return err
	}
	le := func(vs ...any) error {
		for _, v := range vs {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := le(int64(len(d.Name))); err != nil {
		return err
	}
	if _, err := io.WriteString(bw, d.Name); err != nil {
		return err
	}
	if err := le(
		d.G.N, int32(d.NumClasses), int32(d.FeatDim),
		int64(len(d.G.Ptr)), int64(len(d.G.Adj)), //lint:allow topologyseam serializer owns the raw representation; byte-exact round-trip needs Ptr/Adj
		int64(len(d.FeatHalf)), int64(len(d.Labels)),
		int64(len(d.Train)), int64(len(d.Val)), int64(len(d.Test)),
	); err != nil {
		return err
	}
	if err := le(d.G.Ptr, d.G.Adj, d.FeatHalf, d.Labels, d.Train, d.Val, d.Test); err != nil { //lint:allow topologyseam serializer owns the raw representation; byte-exact round-trip needs Ptr/Adj
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// CRC over everything written so far (including magic), appended raw.
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// LoadFrom reads a dataset written by Save, verifying the checksum.
func LoadFrom(r io.Reader) (*Dataset, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: read: %w", err)
	}
	if len(raw) < len(ioMagic)+4 {
		return nil, fmt.Errorf("dataset: truncated container (%d bytes)", len(raw))
	}
	payload, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if stored := binary.LittleEndian.Uint32(tail); stored != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("dataset: checksum mismatch (stored %08x, computed %08x)",
			stored, crc32.ChecksumIEEE(payload))
	}
	br := bytes.NewReader(payload)
	magic := make([]byte, len(ioMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dataset: read magic: %w", err)
	}
	if string(magic) != ioMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	le := func(vs ...any) error {
		for _, v := range vs {
			if err := binary.Read(br, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	var nameLen int64
	if err := le(&nameLen); err != nil {
		return nil, fmt.Errorf("dataset: read name length: %w", err)
	}
	if nameLen < 0 || nameLen > maxstring {
		return nil, fmt.Errorf("dataset: unreasonable name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("dataset: read name: %w", err)
	}

	var n, classes, featDim int32
	if err := le(&n, &classes, &featDim); err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if n < 0 || classes < 0 || featDim < 0 {
		return nil, fmt.Errorf("dataset: negative header field (N %d, classes %d, dim %d)", n, classes, featDim)
	}
	var lens [len(sections)]int64
	var need int64 // payload bytes the sections claim, checked before any allocation
	for i, sec := range sections {
		if err := le(&lens[i]); err != nil {
			return nil, fmt.Errorf("dataset: read %s length: %w", sec.name, err)
		}
		if lens[i] < 0 || lens[i] > maxEntity {
			return nil, fmt.Errorf("dataset: unreasonable %s length %d", sec.name, lens[i])
		}
		need += lens[i] * sec.size
	}
	if lens[0] != int64(n)+1 {
		return nil, fmt.Errorf("dataset: ptr length %d != N+1", lens[0])
	}
	if lens[2] != int64(n)*int64(featDim) {
		return nil, fmt.Errorf("dataset: feature length %d != N*dim", lens[2])
	}
	if lens[3] != int64(n) {
		return nil, fmt.Errorf("dataset: label length %d != N", lens[3])
	}
	if need != int64(br.Len()) {
		return nil, fmt.Errorf("dataset: sections need %d bytes, payload holds %d", need, br.Len())
	}

	d := &Dataset{
		Name:       string(nameBuf),
		NumClasses: int(classes),
		FeatDim:    int(featDim),
		G:          &graph.CSR{N: n, Ptr: make([]int64, lens[0]), Adj: make([]int32, lens[1])},
		FeatHalf:   make([]half.Float16, lens[2]),
		Labels:     make([]int32, lens[3]),
		Train:      make([]int32, lens[4]),
		Val:        make([]int32, lens[5]),
		Test:       make([]int32, lens[6]),
	}
	dsts := [len(sections)]any{d.G.Ptr, d.G.Adj, d.FeatHalf, d.Labels, d.Train, d.Val, d.Test} //lint:allow topologyseam deserializer rebuilds the raw representation before Validate gates it
	for i, dst := range dsts {
		if err := le(dst); err != nil {
			return nil, fmt.Errorf("dataset: read %s section: %w", sections[i].name, err)
		}
	}
	if err := d.G.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: loaded graph invalid: %w", err)
	}
	for i, split := range [][]int32{d.Train, d.Val, d.Test} {
		for _, v := range split {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("dataset: %s split holds node %d outside [0, %d)", sections[4+i].name, v, n)
			}
		}
	}
	// Recover the float32 master copy from the half-precision features.
	d.Feat = tensor.New(int(n), int(featDim))
	half.DecodeSlice(d.Feat.Data, d.FeatHalf)
	return d, nil
}

// SaveFile writes the dataset to path (atomically via a temp file).
func (d *Dataset) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a dataset from path.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadFrom(f)
}
