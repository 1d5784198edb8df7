package half

// Rows is a row-major block of N feature rows of Dim scalars at one storage
// precision — the one layout every holder of rows shares: the stores' host
// matrices, a batch's pinned staging, the fused kernel's staging strip, and
// the transport's wire payload. Exactly one array is live, matching Prec: H
// for FP16, F for FP32, Q plus one dequant scale per row in Scales for Int8.
// The methods below are the only code that chooses between them.
type Rows struct {
	Prec   Precision
	Dim    int
	N      int
	H      []Float16 // FP16 rows, N×Dim
	F      []float32 // FP32 rows, N×Dim
	Q      []int8    // Int8 rows, N×Dim
	Scales []float32 // Int8 per-row dequant scales, N

	// wide is EncodeHalfRow's one-row float32 scratch at Int8: the fp16
	// master row widens here before it is quantized.
	wide []float32
}

// HalfRows wraps n fp16 master rows of dim as a block at prec. At FP16 the
// block aliases feat (zero-copy; Append never writes it); other precisions
// encode every row once through EncodeHalfRow, so all precisions of one
// dataset derive from the same master values.
func HalfRows(feat []Float16, dim, n int, prec Precision) *Rows {
	if prec == FP16 {
		return &Rows{Prec: prec, Dim: dim, N: n, H: feat[: n*dim : n*dim]}
	}
	r := new(Rows)
	r.Ensure(n, dim, prec)
	for v := 0; v < n; v++ {
		r.EncodeHalfRow(v, feat[v*dim:(v+1)*dim])
	}
	return r
}

// Ensure shapes r to n rows of dim at prec. The live array grows only when
// it needs more capacity than any earlier call left; otherwise it is
// re-sliced and keeps its stale contents, which the caller overwrites.
//
//salient:noalloc
func (r *Rows) Ensure(n, dim int, prec Precision) {
	r.Prec, r.Dim, r.N = prec, dim, n
	switch prec {
	case FP32:
		r.F = grow(r.F, n*dim)
	case Int8:
		r.Q = grow(r.Q, n*dim)
		r.Scales = grow(r.Scales, n)
	default:
		r.H = grow(r.H, n*dim)
	}
}

// grow returns s resliced to length n, reallocated only if its capacity is
// short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// CopyRow copies row j of src into row i of r, bitwise. Both blocks hold the
// same precision and dimensionality.
//
//salient:noalloc
func (r *Rows) CopyRow(i int, src *Rows, j int) {
	d := r.Dim
	switch r.Prec {
	case FP32:
		copy(r.F[i*d:(i+1)*d], src.F[j*d:(j+1)*d])
	case Int8:
		copy(r.Q[i*d:(i+1)*d], src.Q[j*d:(j+1)*d])
		r.Scales[i] = src.Scales[j]
	default:
		copy(r.H[i*d:(i+1)*d], src.H[j*d:(j+1)*d])
	}
}

// EncodeRow stores the float32 row at index i at r's precision: fp16 rounds
// to nearest even (EncodeSlice), fp32 copies, int8 quantizes the row with
// its own scale (QuantizeRow).
//
//salient:noalloc
func (r *Rows) EncodeRow(i int, row []float32) {
	d := r.Dim
	switch r.Prec {
	case FP32:
		copy(r.F[i*d:(i+1)*d], row)
	case Int8:
		r.Scales[i] = QuantizeRow(r.Q[i*d:(i+1)*d], row)
	default:
		EncodeSlice(r.H[i*d:(i+1)*d], row)
	}
}

// EncodeHalfRow stores the fp16 master row at index i at r's precision: fp16
// copies bitwise; fp32 and int8 take the exact fp16→f32 widening first, so
// the result equals EncodeRow of the widened row.
//
//salient:noalloc
func (r *Rows) EncodeHalfRow(i int, row []Float16) {
	d := r.Dim
	switch r.Prec {
	case FP32:
		DecodeSlice(r.F[i*d:(i+1)*d], row)
	case Int8:
		r.wide = grow(r.wide, d)
		r.Scales[i] = QuantizeRow(r.Q[i*d:(i+1)*d], DecodeSlice(r.wide, row))
	default:
		copy(r.H[i*d:(i+1)*d], row)
	}
}

// Widen writes rows [lo,hi) as float32 into dst[:(hi-lo)·Dim]: fp16 widens
// exactly, fp32 copies, int8 dequantizes as float32(q)·scale
// (DequantizeRow). The staged decode and the fused kernels both widen here,
// so their float32 values are bit-identical.
//
//salient:noalloc
func (r *Rows) Widen(dst []float32, lo, hi int) {
	d := r.Dim
	switch r.Prec {
	case FP32:
		copy(dst[:(hi-lo)*d], r.F[lo*d:hi*d])
	case Int8:
		for i := lo; i < hi; i++ {
			DequantizeRow(dst[(i-lo)*d:(i-lo+1)*d], r.Q[i*d:(i+1)*d], r.Scales[i])
		}
	default:
		DecodeSlice(dst, r.H[lo*d:hi*d])
	}
}

// Append grows r by len(rows)/Dim float32 rows encoded at r's precision.
// Every call copies into fresh arrays, so the arrays r held before — which
// may alias a dataset's fp16 master, or be read concurrently through an
// earlier copy of r — are never written, whatever spare capacity they have.
func (r *Rows) Append(rows []float32) {
	old := *r
	r.H, r.F, r.Q, r.Scales = nil, nil, nil, nil
	r.Ensure(old.N+len(rows)/old.Dim, old.Dim, old.Prec)
	for i := 0; i < old.N; i++ {
		r.CopyRow(i, &old, i)
	}
	for i := old.N; i < r.N; i++ {
		r.EncodeRow(i, rows[(i-old.N)*r.Dim:(i-old.N+1)*r.Dim])
	}
}

// Bytes returns the block's payload size at its precision (RowBytes per row:
// int8 rows include their float32 scale).
//
//salient:noalloc
func (r *Rows) Bytes() int64 { return int64(r.N) * r.Prec.RowBytes(r.Dim) }
