package dsp

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrBadArgument is returned for out-of-range parameters.
var ErrBadArgument = errors.New("dsp: bad argument")

// PowerDelayProfile converts a frequency-domain channel (CSI vector, one
// complex gain per subcarrier) into the per-tap power of the time-domain
// channel impulse response: p[n] = |IFFT(H)[n]|².
//
// This is the paper's §IV-A transformation: "With Inverse Fast Fourier
// Transformation (IFFT), we can obtain CIR whose amplitude is proportional
// to the power delay profile of the radio link."
func PowerDelayProfile(csi []complex128) ([]float64, error) {
	cir, err := IFFT(csi)
	if err != nil {
		return nil, err
	}
	p := make([]float64, len(cir))
	for i, c := range cir {
		re, im := real(c), imag(c)
		p[i] = re*re + im*im
	}
	return p, nil
}

// MaxTap returns the index and value of the largest entry of the profile.
// NomLoc approximates the power of the direct path (PDP) with this maximum:
// under LOS the first (direct) tap dominates; under NLOS the attenuated
// direct tap is bypassed in favor of the strongest reflection, which still
// tracks distance, and weaker multipath taps are ignored.
func MaxTap(profile []float64) (idx int, val float64) {
	idx = -1
	val = math.Inf(-1)
	for i, p := range profile {
		if p > val {
			idx, val = i, p
		}
	}
	return idx, val
}

// DirectPathPower is the composed PDP estimator: CSI → CIR → max tap power.
// It returns the estimated direct-path power and the tap index it came
// from (the index maps to delay via the sample period 1/bandwidth).
//
// At plannedN subcarriers it runs the same operations as
// PowerDelayProfile and MaxTap, in the same order, on the package's
// planned inverse transform and stack buffers, so it allocates nothing.
func DirectPathPower(csi []complex128) (power float64, tap int, err error) {
	if len(csi) != plannedN {
		profile, err := PowerDelayProfile(csi)
		if err != nil {
			return 0, 0, err
		}
		tap, power = MaxTap(profile)
		return power, tap, nil
	}
	var a [plannedM]complex128
	var cir [plannedN]complex128
	chirpApply(csi, plannedChirp, plannedFilter, a[:], cir[:])
	invN := complex(1/float64(plannedN), 0)
	tap, power = -1, math.Inf(-1)
	for i, c := range cir {
		c *= invN
		re, im := real(c), imag(c)
		if p := re*re + im*im; p > power {
			tap, power = i, p
		}
	}
	return power, tap, nil
}

// plannedN is the default subcarrier count (csi.DefaultNumSubcarriers),
// whose inverse Bluestein transform is planned at package init;
// plannedM is its power-of-two convolution length.
const (
	plannedN = 30
	plannedM = 64
)

// plannedChirp and plannedFilter are the length-plannedN inverse plan.
// They are written once here and only read afterwards, so the solve path
// stays free of global writes.
var plannedChirp, plannedFilter = chirpPlan(plannedN, true)

// TotalPower returns Σ|H[k]|² — the wideband received power, the RSS-like
// quantity coarse baselines use.
func TotalPower(csi []complex128) float64 {
	var sum float64
	for _, c := range csi {
		re, im := real(c), imag(c)
		sum += re*re + im*im
	}
	return sum
}

// FirstTapAboveThreshold returns the index of the first profile tap whose
// power exceeds frac times the maximum tap power, or −1 when the profile
// is empty. With frac well below 1 this detects the earliest significant
// arrival, a useful diagnostic for LOS/NLOS classification.
func FirstTapAboveThreshold(profile []float64, frac float64) int {
	_, maxVal := MaxTap(profile)
	if maxVal <= 0 || math.IsInf(maxVal, -1) {
		return -1
	}
	thresh := maxVal * frac
	for i, p := range profile {
		if p >= thresh {
			return i
		}
	}
	return -1
}

// DelaySpreadRMS returns the power-weighted RMS delay spread of the profile
// in tap units. It quantifies multipath richness: a pure LOS link has a
// spread near zero, a cluttered NLOS link a large one.
func DelaySpreadRMS(profile []float64) float64 {
	var pSum, tSum float64
	for i, p := range profile {
		pSum += p
		tSum += p * float64(i)
	}
	if pSum <= 0 {
		return 0
	}
	mean := tSum / pSum
	var acc float64
	for i, p := range profile {
		d := float64(i) - mean
		acc += p * d * d
	}
	return math.Sqrt(acc / pSum)
}

// DB converts a linear power ratio to decibels. Non-positive input maps to
// −Inf.
//
//nomloc:unit result=dB
func DB(linear float64) float64 {
	if linear <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(linear)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// AmplitudeFromDB converts a power in dB to a linear amplitude (voltage)
// factor: 20·log10(a) = db.
func AmplitudeFromDB(db float64) float64 { return math.Pow(10, db/20) }

// Magnitudes returns |x[i]| for each entry.
func Magnitudes(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, c := range x {
		out[i] = cmplx.Abs(c)
	}
	return out
}

// HannWindow returns the length-n Hann window. Windowing the CSI before
// the IFFT trades delay resolution for sidelobe suppression; NomLoc's PDP
// estimator can optionally apply it to reduce spectral leakage between
// taps.
func HannWindow(n int) ([]float64, error) {
	if n <= 0 {
		return nil, ErrBadArgument
	}
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w, nil
	}
	for i := 0; i < n; i++ {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w, nil
}

// ApplyWindow returns x[i]·w[i]. The slices must have equal length.
func ApplyWindow(x []complex128, w []float64) ([]complex128, error) {
	if len(x) != len(w) {
		return nil, ErrBadArgument
	}
	out := make([]complex128, len(x))
	for i := range x {
		out[i] = x[i] * complex(w[i], 0)
	}
	return out, nil
}

// ZeroPad returns x extended with zeros to length n (n ≥ len(x)).
// Zero-padding the CSI before the IFFT interpolates the delay profile,
// giving sub-tap peak localization.
func ZeroPad(x []complex128, n int) ([]complex128, error) {
	if n < len(x) {
		return nil, ErrBadArgument
	}
	out := make([]complex128, n)
	copy(out, x)
	return out, nil
}
