package dsp

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// synthCSI builds a frequency-domain channel from (delayTap, amplitude)
// paths on an n-subcarrier grid: H[k] = Σ a·exp(−j2πk·tap/n).
func synthCSI(n int, paths map[int]float64) []complex128 {
	h := make([]complex128, n)
	for k := 0; k < n; k++ {
		for tap, amp := range paths {
			angle := -2 * math.Pi * float64(k) * float64(tap) / float64(n)
			h[k] += complex(amp, 0) * cmplx.Exp(complex(0, angle))
		}
	}
	return h
}

func TestPowerDelayProfileSinglePath(t *testing.T) {
	// A single path at tap 3 should concentrate all profile power there.
	h := synthCSI(64, map[int]float64{3: 2.0})
	profile, err := PowerDelayProfile(h)
	if err != nil {
		t.Fatal(err)
	}
	idx, val := MaxTap(profile)
	if idx != 3 {
		t.Errorf("max tap = %d, want 3", idx)
	}
	if math.Abs(val-4.0) > 1e-9 {
		t.Errorf("max power = %v, want 4 (amp² = 2²)", val)
	}
	for i, p := range profile {
		if i != 3 && p > 1e-9 {
			t.Errorf("leakage at tap %d: %v", i, p)
		}
	}
}

func TestPowerDelayProfileMultipath(t *testing.T) {
	// LOS-like: strong direct at tap 2, weaker reflections later.
	h := synthCSI(64, map[int]float64{2: 3.0, 7: 1.0, 13: 0.5})
	profile, err := PowerDelayProfile(h)
	if err != nil {
		t.Fatal(err)
	}
	idx, val := MaxTap(profile)
	if idx != 2 {
		t.Errorf("max tap = %d, want the direct path at 2", idx)
	}
	if math.Abs(val-9) > 1e-9 {
		t.Errorf("direct power = %v, want 9", val)
	}

	// NLOS-like: direct attenuated below a reflection — the max-tap
	// heuristic latches onto the strongest arrival (the paper's rationale
	// for using the maximum of the profile as PDP).
	h = synthCSI(64, map[int]float64{2: 0.4, 7: 1.5, 13: 0.5})
	profile, err = PowerDelayProfile(h)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ = MaxTap(profile)
	if idx != 7 {
		t.Errorf("NLOS max tap = %d, want the dominant reflection at 7", idx)
	}
}

func TestPowerDelayProfileEmpty(t *testing.T) {
	if _, err := PowerDelayProfile(nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("err = %v, want ErrEmptyInput", err)
	}
}

func TestDirectPathPower(t *testing.T) {
	h := synthCSI(30, map[int]float64{4: 2.5})
	p, tap, err := DirectPathPower(h)
	if err != nil {
		t.Fatal(err)
	}
	if tap != 4 {
		t.Errorf("tap = %d, want 4", tap)
	}
	if math.Abs(p-6.25) > 1e-9 {
		t.Errorf("power = %v, want 6.25", p)
	}
}

func TestDirectPathPowerMonotoneInAmplitude(t *testing.T) {
	// Larger direct amplitude ⇒ larger PDP: the core proximity premise.
	var prev float64
	for _, amp := range []float64{0.5, 1, 2, 4} {
		h := synthCSI(56, map[int]float64{1: amp, 9: 0.3})
		p, _, err := DirectPathPower(h)
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Errorf("PDP not increasing: amp=%v gave %v after %v", amp, p, prev)
		}
		prev = p
	}
}

func TestMaxTapEmpty(t *testing.T) {
	idx, _ := MaxTap(nil)
	if idx != -1 {
		t.Errorf("MaxTap(nil) idx = %d, want -1", idx)
	}
}

func TestTotalPower(t *testing.T) {
	x := []complex128{3 + 4i, 1}
	if got := TotalPower(x); math.Abs(got-26) > 1e-12 {
		t.Errorf("TotalPower = %v, want 26", got)
	}
	if got := TotalPower(nil); got != 0 {
		t.Errorf("TotalPower(nil) = %v", got)
	}
}

func TestFirstTapAboveThreshold(t *testing.T) {
	profile := []float64{0.01, 0.02, 0.5, 1.0, 0.3}
	if got := FirstTapAboveThreshold(profile, 0.25); got != 2 {
		t.Errorf("got %d, want 2", got)
	}
	if got := FirstTapAboveThreshold(profile, 0.99); got != 3 {
		t.Errorf("got %d, want 3", got)
	}
	if got := FirstTapAboveThreshold(nil, 0.5); got != -1 {
		t.Errorf("empty profile: got %d, want -1", got)
	}
	if got := FirstTapAboveThreshold([]float64{0, 0}, 0.5); got != -1 {
		t.Errorf("all-zero profile: got %d, want -1", got)
	}
}

func TestDelaySpreadRMS(t *testing.T) {
	// Single tap: zero spread.
	if got := DelaySpreadRMS([]float64{0, 5, 0, 0}); got > 1e-12 {
		t.Errorf("single-tap spread = %v, want 0", got)
	}
	// Two equal taps at 0 and 4: mean 2, spread 2.
	if got := DelaySpreadRMS([]float64{1, 0, 0, 0, 1}); math.Abs(got-2) > 1e-12 {
		t.Errorf("spread = %v, want 2", got)
	}
	if got := DelaySpreadRMS(nil); got != 0 {
		t.Errorf("empty spread = %v", got)
	}
	// Richer multipath ⇒ larger spread.
	sparse := DelaySpreadRMS([]float64{1, 0.1, 0, 0, 0, 0, 0, 0})
	rich := DelaySpreadRMS([]float64{1, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2})
	if rich <= sparse {
		t.Errorf("rich multipath spread %v not > sparse %v", rich, sparse)
	}
}

func TestDBConversions(t *testing.T) {
	if got := DB(100); math.Abs(got-20) > 1e-12 {
		t.Errorf("DB(100) = %v", got)
	}
	if got := DB(0); !math.IsInf(got, -1) {
		t.Errorf("DB(0) = %v, want -Inf", got)
	}
	if got := FromDB(30); math.Abs(got-1000) > 1e-9 {
		t.Errorf("FromDB(30) = %v", got)
	}
	if got := AmplitudeFromDB(20); math.Abs(got-10) > 1e-12 {
		t.Errorf("AmplitudeFromDB(20) = %v", got)
	}
	// Roundtrip.
	for _, p := range []float64{0.001, 1, 42, 1e6} {
		if got := FromDB(DB(p)); math.Abs(got-p) > 1e-9*p {
			t.Errorf("FromDB(DB(%v)) = %v", p, got)
		}
	}
}

func TestHannWindow(t *testing.T) {
	if _, err := HannWindow(0); !errors.Is(err, ErrBadArgument) {
		t.Errorf("HannWindow(0) err = %v", err)
	}
	w1, err := HannWindow(1)
	if err != nil || w1[0] != 1 {
		t.Errorf("HannWindow(1) = %v, %v", w1, err)
	}
	w, err := HannWindow(9)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] > 1e-12 || w[8] > 1e-12 {
		t.Error("Hann endpoints should be ~0")
	}
	if math.Abs(w[4]-1) > 1e-12 {
		t.Errorf("Hann midpoint = %v, want 1", w[4])
	}
	// Symmetry.
	for i := 0; i < 4; i++ {
		if math.Abs(w[i]-w[8-i]) > 1e-12 {
			t.Errorf("Hann asymmetric at %d", i)
		}
	}
}

func TestApplyWindow(t *testing.T) {
	x := []complex128{1, 2, 3}
	w := []float64{0.5, 1, 0}
	got, err := ApplyWindow(x, w)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{0.5, 2, 0}
	if !approxEqualVec(got, want, 1e-12) {
		t.Errorf("ApplyWindow = %v", got)
	}
	if _, err := ApplyWindow(x, w[:2]); !errors.Is(err, ErrBadArgument) {
		t.Errorf("length mismatch err = %v", err)
	}
}

func TestZeroPad(t *testing.T) {
	x := []complex128{1, 2}
	got, err := ZeroPad(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != 1 || got[1] != 2 || got[4] != 0 {
		t.Errorf("ZeroPad = %v", got)
	}
	if _, err := ZeroPad(x, 1); !errors.Is(err, ErrBadArgument) {
		t.Errorf("shrinking pad err = %v", err)
	}
}

func TestZeroPadSharpensPeak(t *testing.T) {
	// Zero-padding interpolates the delay profile; the max tap of the
	// padded profile should land at (roughly) tap·pad/n.
	h := synthCSI(30, map[int]float64{5: 1})
	padded, err := ZeroPad(h, 120)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := PowerDelayProfile(padded)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := MaxTap(profile)
	if idx < 18 || idx > 22 {
		t.Errorf("padded peak at %d, want ≈ 20", idx)
	}
}

func TestMagnitudes(t *testing.T) {
	got := Magnitudes([]complex128{3 + 4i, -2})
	if math.Abs(got[0]-5) > 1e-12 || math.Abs(got[1]-2) > 1e-12 {
		t.Errorf("Magnitudes = %v", got)
	}
}

func BenchmarkFFT64(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randomVec(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFTBluestein30(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randomVec(rng, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowerDelayProfile(b *testing.B) {
	h := synthCSI(64, map[int]float64{2: 3, 7: 1, 13: 0.5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PowerDelayProfile(h); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDirectPathPowerPlanned pins the planned length-30 path bit for bit
// against the unplanned PowerDelayProfile + MaxTap composition, on random
// vectors spanning six decades of amplitude and on degenerate ones.
func TestDirectPathPowerPlanned(t *testing.T) {
	if len(plannedFilter) != plannedM || len(plannedChirp) != plannedN {
		t.Fatalf("plan sizes %d/%d, want %d/%d", len(plannedChirp), len(plannedFilter), plannedN, plannedM)
	}
	reference := func(x []complex128) (float64, int) {
		profile, err := PowerDelayProfile(x)
		if err != nil {
			t.Fatal(err)
		}
		tap, power := MaxTap(profile)
		return power, tap
	}
	rng := rand.New(rand.NewSource(30))
	vectors := [][]complex128{make([]complex128, plannedN)} // all zero
	nan := make([]complex128, plannedN)
	nan[3] = complex(math.NaN(), 0)
	vectors = append(vectors, nan)
	for i := 0; i < 20000; i++ {
		scale := math.Pow(10, -3+6*rng.Float64())
		v := make([]complex128, plannedN)
		for k := range v {
			v[k] = complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
		}
		vectors = append(vectors, v)
	}
	for i, v := range vectors {
		power, tap, err := DirectPathPower(v)
		if err != nil {
			t.Fatal(err)
		}
		wantPower, wantTap := reference(v)
		if math.Float64bits(power) != math.Float64bits(wantPower) || tap != wantTap {
			t.Fatalf("vector %d: planned (%v, %d), reference (%v, %d)", i, power, tap, wantPower, wantTap)
		}
	}
}
