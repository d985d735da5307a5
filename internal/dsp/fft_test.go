package dsp

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEqualVec(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func randomVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestFFTEmptyInput(t *testing.T) {
	if _, err := FFT(nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("FFT(nil) err = %v", err)
	}
	if _, err := IFFT(nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("IFFT(nil) err = %v", err)
	}
}

func TestFFTSingleElement(t *testing.T) {
	x := []complex128{3 + 4i}
	got, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != x[0] {
		t.Errorf("FFT of length 1 = %v", got)
	}
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of an impulse is all ones.
	x := []complex128{1, 0, 0, 0}
	got, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{1, 1, 1, 1}
	if !approxEqualVec(got, want, 1e-12) {
		t.Errorf("FFT(impulse) = %v", got)
	}

	// FFT of a constant is an impulse of height N at bin 0.
	c := []complex128{2, 2, 2, 2}
	got, err = FFT(c)
	if err != nil {
		t.Fatal(err)
	}
	want = []complex128{8, 0, 0, 0}
	if !approxEqualVec(got, want, 1e-12) {
		t.Errorf("FFT(const) = %v", got)
	}

	// Single complex tone at bin 1 of N=4.
	tone := make([]complex128, 4)
	for n := range tone {
		tone[n] = cmplx.Exp(complex(0, 2*math.Pi*float64(n)/4))
	}
	got, err = FFT(tone)
	if err != nil {
		t.Fatal(err)
	}
	want = []complex128{0, 4, 0, 0}
	if !approxEqualVec(got, want, 1e-12) {
		t.Errorf("FFT(tone) = %v", got)
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 5, 8, 13, 16, 30, 56, 64, 100} {
		x := randomVec(rng, n)
		got, err := FFT(x)
		if err != nil {
			t.Fatalf("FFT(n=%d): %v", n, err)
		}
		want := DFTNaive(x)
		if !approxEqualVec(got, want, 1e-8*float64(n)) {
			t.Errorf("n=%d: FFT disagrees with naive DFT", n)
		}
	}
}

func TestFFTRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 7, 16, 30, 56, 64, 127, 128} {
		x := randomVec(rng, n)
		fx, err := FFT(x)
		if err != nil {
			t.Fatalf("FFT: %v", err)
		}
		back, err := IFFT(fx)
		if err != nil {
			t.Fatalf("IFFT: %v", err)
		}
		if !approxEqualVec(back, x, 1e-9*float64(n)) {
			t.Errorf("n=%d: IFFT(FFT(x)) != x", n)
		}
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5}
	orig := append([]complex128(nil), x...)
	if _, err := FFT(x); err != nil {
		t.Fatal(err)
	}
	if _, err := IFFT(x); err != nil {
		t.Fatal(err)
	}
	if !approxEqualVec(x, orig, 0) {
		t.Error("transform mutated its input")
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 30, 56} {
		x := randomVec(rng, n)
		fx, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(fx[i])*real(fx[i]) + imag(fx[i])*imag(fx[i])
		}
		if math.Abs(et-ef/float64(n)) > 1e-8*et {
			t.Errorf("n=%d: Parseval violated: time %v vs freq %v", n, et, ef/float64(n))
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomVec(rng, 30)
	y := randomVec(rng, 30)
	sum := make([]complex128, 30)
	for i := range sum {
		sum[i] = 2*x[i] + 3i*y[i]
	}
	fx, _ := FFT(x)
	fy, _ := FFT(y)
	fsum, _ := FFT(sum)
	for i := range fsum {
		want := 2*fx[i] + 3i*fy[i]
		if cmplx.Abs(fsum[i]-want) > 1e-8 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

// TestRadix2Planned pins the planned length-64 transform bit-equal to
// fftRadix2InPlace in both directions: 40,000 random vectors spanning
// twelve decades, and vectors holding NaN or an infinity.
func TestRadix2Planned(t *testing.T) {
	if len(plannedRev) != plannedM || len(plannedFwd) != plannedM-1 || len(plannedInv) != plannedM-1 {
		t.Fatalf("plan sizes %d/%d/%d, want %d/%d/%d",
			len(plannedRev), len(plannedFwd), len(plannedInv), plannedM, plannedM-1, plannedM-1)
	}
	rng := rand.New(rand.NewSource(64))
	var vectors [][]complex128
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 1, 31, 63} {
			re, im := make([]complex128, plannedM), make([]complex128, plannedM)
			re[at], im[at] = complex(bad, 1), complex(1, bad)
			vectors = append(vectors, re, im)
		}
	}
	for i := 0; i < 40000; i++ {
		scale := math.Pow(10, -6+12*rng.Float64())
		v := randomVec(rng, plannedM)
		for k := range v {
			v[k] *= complex(scale, 0)
		}
		vectors = append(vectors, v)
	}
	got, want := make([]complex128, plannedM), make([]complex128, plannedM)
	for _, inverse := range []bool{false, true} {
		for i, v := range vectors {
			copy(got, v)
			copy(want, v)
			radix2(got, inverse)
			fftRadix2InPlace(want, inverse)
			for k := range got {
				if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
					math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
					t.Fatalf("inverse=%v, vector %d, bin %d: planned %v, reference %v", inverse, i, k, got[k], want[k])
				}
			}
		}
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = false", n)
		}
	}
	for _, n := range []int{0, -1, 3, 6, 30, 56} {
		if IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = true", n)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	tests := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {56, 64}, {64, 64}, {65, 128}, {0, 1}, {-3, 1},
	}
	for _, tt := range tests {
		if got := NextPowerOfTwo(tt.in); got != tt.want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestPropFFTRoundtripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(nRaw uint8) bool {
		n := int(nRaw)%97 + 1
		x := randomVec(rng, n)
		fx, err := FFT(x)
		if err != nil {
			return false
		}
		back, err := IFFT(fx)
		if err != nil {
			return false
		}
		return approxEqualVec(back, x, 1e-8*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropTimeShiftIsPhaseRamp(t *testing.T) {
	// Delaying a signal by one sample multiplies bin k by exp(-j2πk/N).
	rng := rand.New(rand.NewSource(6))
	n := 32
	x := randomVec(rng, n)
	shifted := make([]complex128, n)
	for i := range shifted {
		shifted[i] = x[(i-1+n)%n]
	}
	fx, _ := FFT(x)
	fs, _ := FFT(shifted)
	for k := 0; k < n; k++ {
		want := fx[k] * cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		if cmplx.Abs(fs[k]-want) > 1e-9 {
			t.Fatalf("shift theorem violated at bin %d", k)
		}
	}
}
