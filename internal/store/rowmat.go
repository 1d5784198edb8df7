package store

import (
	"salient/internal/half"
	"salient/internal/slicing"
)

// rowMat is a row-major feature matrix held at one of the supported storage
// precisions — the layout unit Flat (one matrix) and Sharded (one per shard)
// share. fp16 is the seed layout; fp32 is the no-compression control; int8
// stores symmetric per-row-quantized bytes plus one float32 scale per row,
// halving again what the fp16 tier moves per gather.
type rowMat struct {
	prec   half.Precision
	dim    int
	n      int
	h      []half.Float16 // FP16 rows
	f      []float32      // FP32 rows
	q      []int8         // Int8 rows
	scales []float32      // Int8 per-row dequant scales
}

// newRowMat allocates an empty matrix with capacity for n rows.
func newRowMat(prec half.Precision, dim, n int) *rowMat {
	m := &rowMat{prec: prec, dim: dim, n: n}
	switch prec {
	case half.FP32:
		m.f = make([]float32, n*dim)
	case half.Int8:
		m.q = make([]int8, n*dim)
		m.scales = make([]float32, n)
	default:
		m.h = make([]half.Float16, n*dim)
	}
	return m
}

// rowMatFromHalf builds a matrix at prec from n fp16 rows. For FP16 the
// input is aliased (zero-copy, the seed behavior — callers must treat it as
// append-only); other precisions re-encode through the exact fp16→f32
// widening, so every precision derives from the same master values.
func rowMatFromHalf(feat []half.Float16, dim, n int, prec half.Precision) *rowMat {
	if prec == half.FP16 {
		return &rowMat{prec: prec, dim: dim, n: n, h: feat}
	}
	m := newRowMat(prec, dim, n)
	scratch := make([]float32, dim)
	for v := 0; v < n; v++ {
		half.DecodeSlice(scratch, feat[v*dim:(v+1)*dim])
		m.encodeRow(v, scratch)
	}
	return m
}

// encodeRow stores the float32 row at index v at the matrix's precision.
func (m *rowMat) encodeRow(v int, row []float32) {
	switch m.prec {
	case half.FP32:
		copy(m.f[v*m.dim:(v+1)*m.dim], row)
	case half.Int8:
		m.scales[v] = half.QuantizeRow(m.q[v*m.dim:(v+1)*m.dim], row)
	default:
		half.EncodeSlice(m.h[v*m.dim:(v+1)*m.dim], row)
	}
}

// appendRows grows the matrix by len(rows)/dim float32 rows (copy-on-grow:
// an FP16 matrix aliasing dataset arrays is detached by the first append).
func (m *rowMat) appendRows(rows []float32) {
	add := len(rows) / m.dim
	first := m.n
	switch m.prec {
	case half.FP32:
		m.f = append(m.f, rows...)
	case half.Int8:
		m.q = append(m.q, make([]int8, len(rows))...)
		m.scales = append(m.scales, make([]float32, add)...)
	default:
		m.h = append(m.h, make([]half.Float16, len(rows))...)
	}
	m.n += add
	if m.prec != half.FP32 {
		for v := 0; v < add; v++ {
			m.encodeRow(first+v, rows[v*m.dim:(v+1)*m.dim])
		}
	}
}

// source wraps the matrix as a slicing.Source over the given labels.
func (m *rowMat) source(labels []int32) slicing.Source {
	switch m.prec {
	case half.FP32:
		return slicing.NewFloat32Source(m.f, m.dim, labels)
	case half.Int8:
		return slicing.NewInt8Source(m.q, m.scales, m.dim, labels)
	default:
		return slicing.NewFlatSource(m.h, m.dim, labels)
	}
}

// copyRow stages local row src into position dstRow of p, which must have
// been EnsurePrec'd at the matrix's precision.
//
//salient:noalloc
func (m *rowMat) copyRow(p *slicing.Pinned, dstRow, src int) {
	dim := m.dim
	switch m.prec {
	case half.FP32:
		copy(p.Feat32[dstRow*dim:(dstRow+1)*dim], m.f[src*dim:(src+1)*dim])
	case half.Int8:
		copy(p.Feat8[dstRow*dim:(dstRow+1)*dim], m.q[src*dim:(src+1)*dim])
		p.Scales[dstRow] = m.scales[src]
	default:
		copy(p.Feat[dstRow*dim:(dstRow+1)*dim], m.h[src*dim:(src+1)*dim])
	}
}

// rowBytes returns the host bytes one row occupies at this precision.
func (m *rowMat) rowBytes() int64 { return m.prec.RowBytes(m.dim) }
