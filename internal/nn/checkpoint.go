package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Checkpoint container: named parameter tensors in a fixed little-endian
// layout with a trailing CRC32, mirroring the dataset container format.
const ckptMagic = "SALNTCK1"

// SaveParams writes the parameters (names, shapes, weights) to w. Optimizer
// state is not serialized; resuming restarts Adam's moments, which is the
// common practice for inference/fine-tuning checkpoints.
func SaveParams(w io.Writer, params []*Param) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := io.WriteString(mw, ckptMagic); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, int32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := binary.Write(mw, binary.LittleEndian, int32(len(p.Name))); err != nil {
			return err
		}
		if _, err := io.WriteString(mw, p.Name); err != nil {
			return err
		}
		if err := binary.Write(mw, binary.LittleEndian, [2]int32{int32(p.W.Rows), int32(p.W.Cols)}); err != nil {
			return err
		}
		if err := binary.Write(mw, binary.LittleEndian, p.W.Data); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// ckptSize is the exact byte length of a checkpoint of params: magic and
// count, per param its name length, name, shape and weights, then the CRC.
func ckptSize(params []*Param) int64 {
	n := int64(len(ckptMagic) + 4)
	for _, p := range params {
		n += 4 + int64(len(p.Name)) + 8 + 4*int64(len(p.W.Data))
	}
	return n + 4
}

// LoadParams reads a checkpoint written by SaveParams into params. The
// parameter list must match the checkpoint exactly (same order, names and
// shapes) — the standard strict state-dict contract. The checkpoint is
// decoded into staging and copied into params only once every check has
// passed, so a failed load leaves params untouched.
func LoadParams(r io.Reader, params []*Param) error {
	want := ckptSize(params)
	raw, err := io.ReadAll(io.LimitReader(r, want+1))
	if err != nil {
		return fmt.Errorf("nn: read checkpoint: %w", err)
	}
	if int64(len(raw)) > want {
		return fmt.Errorf("nn: checkpoint longer than the %d bytes the model's params need", want)
	}
	if int64(len(raw)) < want {
		return fmt.Errorf("nn: checkpoint is %d bytes, the model's params need %d", len(raw), want)
	}
	payload, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if stored := binary.LittleEndian.Uint32(tail); stored != crc32.ChecksumIEEE(payload) {
		return fmt.Errorf("nn: checkpoint checksum mismatch")
	}
	if magic := payload[:len(ckptMagic)]; string(magic) != ckptMagic {
		return fmt.Errorf("nn: bad checkpoint magic %q", magic)
	}
	br := bytes.NewReader(payload[len(ckptMagic):])
	var count int32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: read param count: %w", err)
	}
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", count, len(params))
	}
	staged := make([][]float32, len(params))
	for i, p := range params {
		var nameLen int32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return fmt.Errorf("nn: param %q: read name length: %w", p.Name, err)
		}
		if int(nameLen) != len(p.Name) {
			return fmt.Errorf("nn: param %q: checkpoint name length %d, want %d", p.Name, nameLen, len(p.Name))
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return fmt.Errorf("nn: param %q: read name: %w", p.Name, err)
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: checkpoint param %q does not match model param %q", name, p.Name)
		}
		var shape [2]int32
		if err := binary.Read(br, binary.LittleEndian, &shape); err != nil {
			return fmt.Errorf("nn: param %q: read shape: %w", p.Name, err)
		}
		if int(shape[0]) != p.W.Rows || int(shape[1]) != p.W.Cols {
			return fmt.Errorf("nn: param %q shape %dx%d does not match model %dx%d",
				p.Name, shape[0], shape[1], p.W.Rows, p.W.Cols)
		}
		staged[i] = make([]float32, len(p.W.Data))
		if err := binary.Read(br, binary.LittleEndian, staged[i]); err != nil {
			return fmt.Errorf("nn: param %q: read weights: %w", p.Name, err)
		}
	}
	for i, p := range params {
		copy(p.W.Data, staged[i])
	}
	return nil
}

// SaveParamsFile writes a checkpoint atomically to path.
func SaveParamsFile(path string, params []*Param) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := SaveParams(f, params); err != nil {
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

// LoadParamsFile reads a checkpoint from path into params.
func LoadParamsFile(path string, params []*Param) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadParams(f, params)
}
