package half

import (
	"math"
	"testing"

	"salient/internal/race"
)

// rowBits returns row v of r as raw bit patterns, the int8 scale last, so
// rows of any precision compare bitwise (NaN and -0 included).
func rowBits(r *Rows, v int) []uint32 {
	d := r.Dim
	var out []uint32
	switch r.Prec {
	case FP32:
		for _, f := range r.F[v*d : (v+1)*d] {
			out = append(out, math.Float32bits(f))
		}
	case Int8:
		for _, q := range r.Q[v*d : (v+1)*d] {
			out = append(out, uint32(uint8(q)))
		}
		out = append(out, math.Float32bits(r.Scales[v]))
	default:
		for _, h := range r.H[v*d : (v+1)*d] {
			out = append(out, uint32(h))
		}
	}
	return out
}

// refRow encodes one float32 row at prec straight through the codecs
// (EncodeSlice, copy, QuantizeRow) into a fresh one-row block.
func refRow(prec Precision, row []float32) *Rows {
	r := &Rows{Prec: prec, Dim: len(row), N: 1}
	switch prec {
	case FP32:
		r.F = append([]float32(nil), row...)
	case Int8:
		r.Q = make([]int8, len(row))
		r.Scales = []float32{QuantizeRow(r.Q, row)}
	default:
		r.H = EncodeSlice(make([]Float16, len(row)), row)
	}
	return r
}

// refWiden widens row v of r straight through the codecs (DecodeSlice,
// copy, DequantizeRow).
func refWiden(r *Rows, v int) []float32 {
	d := r.Dim
	out := make([]float32, d)
	switch r.Prec {
	case FP32:
		copy(out, r.F[v*d:(v+1)*d])
	case Int8:
		DequantizeRow(out, r.Q[v*d:(v+1)*d], r.Scales[v])
	default:
		DecodeSlice(out, r.H[v*d:(v+1)*d])
	}
	return out
}

func sameBits(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func f32Bits(fs []float32) []uint32 {
	out := make([]uint32, len(fs))
	for i, f := range fs {
		out[i] = math.Float32bits(f)
	}
	return out
}

// TestRowsAllPrecisions pins half.Rows to the row codecs at every precision:
// encoding from float32 and from an fp16 master matches EncodeSlice /
// QuantizeRow exactly, CopyRow is bitwise, Widen matches DecodeSlice /
// DequantizeRow bit for bit, re-Ensure within the high-water mark and the
// per-row methods allocate nothing, and Append never writes the arrays it
// grew from even when they have spare capacity.
func TestRowsAllPrecisions(t *testing.T) {
	const n, dim = 7, 9
	master := make([]float32, n*dim)
	for i := range master {
		master[i] = float32(math.Sin(float64(i)*0.7)) * float32(1+i%4) * 3
	}
	for j := 0; j < dim; j++ {
		master[2*dim+j] = 0 // an all-zero row: int8 scale 0
	}
	master[3*dim+1] = float32(math.Copysign(0, -1))
	master[4*dim+2] = 70000 // beyond fp16 range: encodes to +Inf
	mh := EncodeSlice(make([]Float16, n*dim), master)
	wide := DecodeSlice(make([]float32, n*dim), mh)

	for _, prec := range []Precision{FP16, FP32, Int8} {
		t.Run(prec.String(), func(t *testing.T) {
			var enc, fromHalf Rows
			enc.Ensure(n, dim, prec)
			fromHalf.Ensure(n, dim, prec)
			for v := 0; v < n; v++ {
				enc.EncodeRow(v, master[v*dim:(v+1)*dim])
				fromHalf.EncodeHalfRow(v, mh[v*dim:(v+1)*dim])
			}
			for v := 0; v < n; v++ {
				if want := rowBits(refRow(prec, master[v*dim:(v+1)*dim]), 0); !sameBits(rowBits(&enc, v), want) {
					t.Fatalf("EncodeRow row %d = %v, codec %v", v, rowBits(&enc, v), want)
				}
				if want := rowBits(refRow(prec, wide[v*dim:(v+1)*dim]), 0); !sameBits(rowBits(&fromHalf, v), want) {
					t.Fatalf("EncodeHalfRow row %d = %v, codec over the widened master %v", v, rowBits(&fromHalf, v), want)
				}
			}

			var cp Rows
			cp.Ensure(n, dim, prec)
			for v := 0; v < n; v++ {
				cp.CopyRow(n-1-v, &fromHalf, v)
			}
			for v := 0; v < n; v++ {
				if !sameBits(rowBits(&cp, n-1-v), rowBits(&fromHalf, v)) {
					t.Fatalf("CopyRow row %d not bitwise", v)
				}
			}

			all := make([]float32, n*dim)
			fromHalf.Widen(all, 0, n)
			part := make([]float32, 3*dim)
			fromHalf.Widen(part, 2, 5)
			for v := 0; v < n; v++ {
				want := f32Bits(refWiden(&fromHalf, v))
				if !sameBits(f32Bits(all[v*dim:(v+1)*dim]), want) {
					t.Fatalf("Widen row %d differs from the codec", v)
				}
				if v >= 2 && v < 5 && !sameBits(f32Bits(part[(v-2)*dim:(v-1)*dim]), want) {
					t.Fatalf("Widen(2,5) row %d differs from the codec", v)
				}
			}
			if got, want := fromHalf.Bytes(), int64(n)*prec.RowBytes(dim); got != want {
				t.Fatalf("Bytes = %d, want %d", got, want)
			}

			if !race.Enabled {
				allocs := testing.AllocsPerRun(20, func() {
					cp.Ensure(n/2, dim, prec)
					cp.Ensure(n, dim, prec)
					cp.CopyRow(0, &fromHalf, 1)
					cp.EncodeRow(1, master[:dim])
					cp.EncodeHalfRow(2, mh[:dim])
					cp.Widen(all, 0, n)
				})
				if allocs != 0 {
					t.Fatalf("re-Ensure and row methods allocate %v per run, want 0", allocs)
				}
			}

			// Append onto arrays with spare capacity: fill the spare rows
			// with a sentinel, then check Append leaves them (and the live
			// rows) untouched.
			var base Rows
			base.Ensure(n+3, dim, prec)
			sentinel := make([]float32, dim)
			for j := range sentinel {
				sentinel[j] = 1234
			}
			for v := 0; v < n+3; v++ {
				base.EncodeRow(v, sentinel)
			}
			base.Ensure(n, dim, prec)
			for v := 0; v < n; v++ {
				base.CopyRow(v, &fromHalf, v)
			}
			full := base
			full.Ensure(n+3, dim, prec) // same arrays, re-sliced to capacity
			var before [][]uint32
			for v := 0; v < n+3; v++ {
				before = append(before, rowBits(&full, v))
			}
			grown := base
			extra := master[:2*dim]
			grown.Append(extra)
			if grown.N != n+2 {
				t.Fatalf("Append left %d rows, want %d", grown.N, n+2)
			}
			for v := 0; v < n+3; v++ {
				if !sameBits(rowBits(&full, v), before[v]) {
					t.Fatalf("Append wrote row %d of the array it grew from", v)
				}
			}
			for v := 0; v < n; v++ {
				if !sameBits(rowBits(&grown, v), rowBits(&fromHalf, v)) {
					t.Fatalf("Append lost row %d", v)
				}
			}
			for v := 0; v < 2; v++ {
				if want := rowBits(refRow(prec, extra[v*dim:(v+1)*dim]), 0); !sameBits(rowBits(&grown, n+v), want) {
					t.Fatalf("appended row %d = %v, codec %v", v, rowBits(&grown, n+v), want)
				}
			}
		})
	}
}

// TestHalfRowsAliasesOnlyAtFP16: the fp16 block wraps the master without a
// copy and with no spare capacity; other precisions encode every row.
func TestHalfRowsAliasesOnlyAtFP16(t *testing.T) {
	const n, dim = 4, 3
	backing := make([]Float16, (n+2)*dim)
	for i := range backing {
		backing[i] = FromFloat32(float32(i) - 5)
	}
	feat := backing[:n*dim]
	r := HalfRows(feat, dim, n, FP16)
	if &r.H[0] != &feat[0] || cap(r.H) != n*dim || r.N != n {
		t.Fatalf("fp16 block does not alias the master exactly (cap %d, n %d)", cap(r.H), r.N)
	}
	for _, prec := range []Precision{FP32, Int8} {
		r := HalfRows(feat, dim, n, prec)
		for v := 0; v < n; v++ {
			want := &Rows{Prec: prec, Dim: dim, N: 1}
			want.Ensure(1, dim, prec)
			want.EncodeHalfRow(0, feat[v*dim:(v+1)*dim])
			if !sameBits(rowBits(r, v), rowBits(want, 0)) {
				t.Fatalf("%v row %d not encoded from the master", prec, v)
			}
		}
	}
}
