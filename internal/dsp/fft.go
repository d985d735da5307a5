// Package dsp provides the signal-processing primitives NomLoc needs to
// turn frequency-domain channel state information (CSI) into time-domain
// channel impulse responses (CIR): FFT/IFFT for arbitrary lengths, power
// delay profiles, peak extraction, and decibel helpers.
//
// The transforms use the engineering convention
//
//	FFT:   X[k] = Σ_n x[n]·exp(−j2πkn/N)
//	IFFT:  x[n] = (1/N)·Σ_k X[k]·exp(+j2πkn/N)
//
// so IFFT(FFT(x)) == x.
package dsp

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
)

// ErrEmptyInput is returned by transforms when given a zero-length vector.
var ErrEmptyInput = errors.New("dsp: empty input")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPowerOfTwo returns the smallest power of two ≥ n (n must be > 0).
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// FFT computes the discrete Fourier transform of x, for any length.
// Power-of-two lengths use the iterative radix-2 Cooley–Tukey algorithm;
// other lengths fall back to Bluestein's chirp-z algorithm. The input is
// not modified.
func FFT(x []complex128) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmptyInput
	}
	out := make([]complex128, len(x))
	copy(out, x)
	if IsPowerOfTwo(len(x)) {
		fftRadix2InPlace(out, false)
		return out, nil
	}
	return bluestein(out, false), nil
}

// IFFT computes the inverse discrete Fourier transform of x (with the 1/N
// normalization), for any length.
func IFFT(x []complex128) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmptyInput
	}
	out := make([]complex128, len(x))
	copy(out, x)
	if IsPowerOfTwo(len(x)) {
		fftRadix2InPlace(out, true)
	} else {
		out = bluestein(out, true)
	}
	invN := complex(1/float64(len(x)), 0)
	for i := range out {
		out[i] *= invN
	}
	return out, nil
}

// fftRadix2InPlace runs an in-place iterative radix-2 transform. inverse
// selects the conjugate twiddle direction; no 1/N scaling is applied.
func fftRadix2InPlace(a []complex128, inverse bool) {
	n := len(a)
	if n == 1 {
		return
	}
	// Bit-reversal permutation.
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				even := a[start+k]
				odd := a[start+k+half] * w
				a[start+k] = even + odd
				a[start+k+half] = even - odd
				w *= wBase
			}
		}
	}
}

// bluestein computes a length-N DFT (or inverse, unscaled) via the chirp-z
// transform: the DFT becomes a convolution, evaluated with power-of-two
// FFTs of length ≥ 2N−1.
func bluestein(x []complex128, inverse bool) []complex128 {
	chirp, filter := chirpPlan(len(x), inverse)
	out := make([]complex128, len(x))
	chirpApply(x, chirp, filter, make([]complex128, len(filter)), out)
	return out
}

// chirpPlan builds the input-independent half of a length-n Bluestein
// transform: the chirp and the FFT of the chirp filter.
func chirpPlan(n int, inverse bool) (chirp, filter []complex128) {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp w[k] = exp(sign·jπk²/N). Reduce k² mod 2N first to keep the
	// angle argument small and the chirp numerically exact for large N.
	chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		k2 := (int64(k) * int64(k)) % int64(2*n)
		angle := sign * math.Pi * float64(k2) / float64(n)
		chirp[k] = cmplx.Exp(complex(0, angle))
	}
	m := NextPowerOfTwo(2*n - 1)
	filter = make([]complex128, m)
	for k := 0; k < n; k++ {
		filter[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		filter[m-k] = cmplx.Conj(chirp[k])
	}
	fftRadix2InPlace(filter, false)
	return chirp, filter
}

// chirpApply runs the input-dependent half of a Bluestein transform of x
// into out. a is scratch of len(filter), zero on entry.
func chirpApply(x, chirp, filter, a, out []complex128) {
	for k := range x {
		a[k] = x[k] * chirp[k]
	}
	radix2(a, false)
	for i := range a {
		a[i] *= filter[i]
	}
	radix2(a, true)
	invM := complex(1/float64(len(a)), 0)
	for k := range out {
		out[k] = a[k] * invM * chirp[k]
	}
}

// radix2 runs fftRadix2InPlace's transform of a, from the planned tables
// when a has length plannedM.
func radix2(a []complex128, inverse bool) {
	switch {
	case len(a) != plannedM:
		fftRadix2InPlace(a, inverse)
	case inverse:
		fftPlanned(a, plannedRev, plannedInv)
	default:
		fftPlanned(a, plannedRev, plannedFwd)
	}
}

// plannedRev, plannedFwd and plannedInv plan the length-plannedM radix-2
// transform, which every planned DirectPathPower call runs twice. Like
// plannedChirp they are written once, at package init.
var (
	plannedRev = bitReversal(plannedM)
	plannedFwd = radixTwiddles(plannedM, false)
	plannedInv = radixTwiddles(plannedM, true)
)

// bitReversal returns the bit-reversal permutation of a power-of-two n.
func bitReversal(n int) []int {
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	rev := make([]int, n)
	for i := range rev {
		rev[i] = int(bits.Reverse(uint(i)) >> shift)
	}
	return rev
}

// radixTwiddles returns the twiddles of a length-n radix-2 transform,
// stage after stage (half-size 1, 2, 4, …, so the stage of half-size h
// starts at h−1), derived by the recurrence fftRadix2InPlace runs.
func radixTwiddles(n int, inverse bool) []complex128 {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	tw := make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		w := complex(1, 0)
		for k := 0; k < size/2; k++ {
			tw = append(tw, w)
			w *= wBase
		}
	}
	return tw
}

// fftPlanned runs fftRadix2InPlace's operations, in its order, from
// precomputed tables, so its results are bit-identical.
func fftPlanned(a []complex128, rev []int, tw []complex128) {
	for i, j := range rev {
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for half := 1; half < len(a); half <<= 1 {
		w := tw[half-1 : 2*half-1]
		for start := 0; start < len(a); start += 2 * half {
			for k, wk := range w {
				even := a[start+k]
				odd := a[start+k+half] * wk
				a[start+k] = even + odd
				a[start+k+half] = even - odd
			}
		}
	}
}

// DFTNaive computes the DFT by direct O(N²) summation. It exists as a
// reference implementation for tests.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for i := 0; i < n; i++ {
			angle := -2 * math.Pi * float64(k) * float64(i) / float64(n)
			sum += x[i] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}
