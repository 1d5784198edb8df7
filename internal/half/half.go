// Package half implements IEEE-754 binary16 (half-precision) conversion.
//
// SALIENT stores node feature matrices in half precision in host memory to
// halve memory-bandwidth pressure during slicing and CPU-to-GPU transfer
// (paper §3, baseline optimization iii); compute still runs in float32.
// This package provides the conversions, the bulk row codecs, and Rows, the
// one row-major layout every holder of feature rows shares.
package half

import "math"

// Float16 is a binary16 value stored in its raw bit representation.
type Float16 uint16

// FromFloat32 converts f to the nearest binary16 value (round-to-nearest-even),
// handling subnormals, infinities and NaN.
func FromFloat32(f float32) Float16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	mant := b & 0x7fffff

	switch {
	case exp == 0xff: // Inf or NaN
		if mant != 0 {
			return Float16(sign | 0x7e00) // quiet NaN
		}
		return Float16(sign | 0x7c00)
	case exp == 0 && mant == 0: // signed zero
		return Float16(sign)
	}

	// Re-bias exponent from 127 to 15.
	e := exp - 127 + 15
	switch {
	case e >= 0x1f:
		// Overflow to infinity.
		return Float16(sign | 0x7c00)
	case e <= 0:
		// Subnormal half (or underflow to zero).
		if e < -10 {
			return Float16(sign)
		}
		// Add implicit leading 1, then shift right with rounding.
		mant |= 0x800000
		shift := uint32(14 - e)
		halfMant := mant >> shift
		// Round to nearest even.
		rem := mant & ((1 << shift) - 1)
		halfBit := uint32(1) << (shift - 1)
		if rem > halfBit || (rem == halfBit && halfMant&1 == 1) {
			halfMant++
		}
		return Float16(sign | uint16(halfMant))
	default:
		halfMant := mant >> 13
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && halfMant&1 == 1) {
			halfMant++
			if halfMant == 0x400 { // mantissa overflow bumps exponent
				halfMant = 0
				e++
				if e >= 0x1f {
					return Float16(sign | 0x7c00)
				}
			}
		}
		return Float16(sign | uint16(e)<<10 | uint16(halfMant))
	}
}

// Float32 converts h to float32 exactly (every binary16 value is
// representable in binary32).
func (h Float16) Float32() float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)

	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return math.Float32frombits(sign | 0x7fc00000 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// IsNaN reports whether h encodes a NaN.
func (h Float16) IsNaN() bool {
	return h&0x7c00 == 0x7c00 && h&0x3ff != 0
}

// IsInf reports whether h encodes +Inf or -Inf.
func (h Float16) IsInf() bool {
	return h&0x7fff == 0x7c00
}

// EncodeSlice converts src float32 values into dst half-precision values.
// dst must have len(src) capacity; it returns dst[:len(src)].
func EncodeSlice(dst []Float16, src []float32) []Float16 {
	dst = dst[:len(src)]
	for i, f := range src {
		dst[i] = FromFloat32(f)
	}
	return dst
}

// DecodeSlice converts src half-precision values into dst float32 values.
// dst must have len(src) capacity; it returns dst[:len(src)].
func DecodeSlice(dst []float32, src []Float16) []float32 {
	dst = dst[:len(src)]
	for i, h := range src {
		dst[i] = h.Float32()
	}
	return dst
}
