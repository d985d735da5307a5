package channel

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"github.com/nomloc/nomloc/internal/csi"
	"github.com/nomloc/nomloc/internal/dsp"
	"github.com/nomloc/nomloc/internal/geom"
)

// PathKind classifies how a propagation path reached the receiver.
type PathKind int

// Path kinds.
const (
	Direct PathKind = iota + 1
	Reflected
	Scattered
)

// String implements fmt.Stringer.
func (k PathKind) String() string {
	switch k {
	case Direct:
		return "direct"
	case Reflected:
		return "reflected"
	case Scattered:
		return "scattered"
	default:
		return fmt.Sprintf("pathkind(%d)", int(k))
	}
}

// Path is one resolved propagation path between a transmitter and a
// receiver.
type Path struct {
	// Kind says whether the path is direct, a wall reflection, or a
	// scatterer bounce.
	Kind PathKind
	// Length is the total traveled distance in meters.
	Length float64
	// Delay is Length divided by the speed of light, in seconds.
	Delay float64
	// GainDB is the end-to-end power gain (negative: loss) relative to the
	// transmit power, including distance loss, wall crossings, and
	// reflection/scatter losses.
	GainDB float64
	// WallsCrossed counts attenuating walls along the path.
	WallsCrossed int
}

// Params collects the radio and propagation model parameters.
type Params struct {
	// Radio is the OFDM sampling grid producing the CSI.
	Radio csi.Config
	// TxPowerDBm is the transmit power.
	TxPowerDBm float64
	// RefLossDB is the path loss at the 1 m reference distance.
	RefLossDB float64
	// PathLossExponent is the log-distance exponent γ.
	PathLossExponent float64
	// ReflectionLossDB is the extra loss of one specular wall reflection.
	ReflectionLossDB float64
	// NoiseFloorDBm is the per-subcarrier thermal noise power.
	NoiseFloorDBm float64
	// MinPathGainDB drops paths weaker than this gain (relative to TX
	// power) to bound the path count.
	MinPathGainDB float64
	// PhaseJitterRad is the per-packet RMS carrier phase jitter in
	// radians, modeling oscillator drift between captures.
	PhaseJitterRad float64
	// NumAntennas is the receive-antenna count (the Intel 5300 the paper
	// used has three). Successive packets of a burst cycle through the
	// antennas, whose λ/2-scale spacing decorrelates small-scale fading —
	// the spatial diversity that keeps PDP estimates stable where a single
	// antenna could sit in a deep fade.
	NumAntennas int
	// AntennaSpacingM is the element spacing in meters (~λ/2 at 2.4 GHz).
	AntennaSpacingM float64
	// MaxReflectionOrder bounds the image-method depth: 0 keeps only the
	// direct ray, 1 (the default) adds single-bounce wall reflections,
	// 2 adds double-bounce paths. Higher orders increase multipath
	// richness at quadratic path-enumeration cost.
	MaxReflectionOrder int
}

// DefaultParams returns a parameterization typical of a 2.4 GHz 802.11n
// indoor deployment: ~40 dB loss at 1 m, exponent 2.1 with explicit walls
// carrying the NLOS penalty, 8 dB reflection loss, −92 dBm noise floor.
func DefaultParams() Params {
	return Params{
		Radio:              csi.DefaultConfig(),
		TxPowerDBm:         15,
		RefLossDB:          40,
		PathLossExponent:   2.1,
		ReflectionLossDB:   8,
		NoiseFloorDBm:      -92,
		MinPathGainDB:      -120,
		PhaseJitterRad:     0.05,
		NumAntennas:        3,
		AntennaSpacingM:    0.06,
		MaxReflectionOrder: 1,
	}
}

// Validate checks the parameterization.
func (p Params) Validate() error {
	if err := p.Radio.Validate(); err != nil {
		return err
	}
	if p.PathLossExponent <= 0 {
		return fmt.Errorf("%w: path loss exponent %v", ErrBadParams, p.PathLossExponent)
	}
	if p.ReflectionLossDB < 0 {
		return fmt.Errorf("%w: reflection loss %v", ErrBadParams, p.ReflectionLossDB)
	}
	if p.NumAntennas < 0 || p.AntennaSpacingM < 0 {
		return fmt.Errorf("%w: antennas %d spaced %v", ErrBadParams, p.NumAntennas, p.AntennaSpacingM)
	}
	if p.MaxReflectionOrder < 0 || p.MaxReflectionOrder > 2 {
		return fmt.Errorf("%w: reflection order %d (supported: 0–2)", ErrBadParams, p.MaxReflectionOrder)
	}
	return nil
}

// antennaPos returns the position of receive element k of n, laid out on a
// short horizontal rail centered on rx.
func (s *Simulator) antennaPos(rx geom.Vec, k int) geom.Vec {
	n := s.par.NumAntennas
	if n <= 1 {
		return rx
	}
	offset := (float64(k) - float64(n-1)/2) * s.par.AntennaSpacingM
	return rx.Add(geom.V(offset, 0))
}

// ErrBadParams reports an invalid simulator parameterization.
var ErrBadParams = errors.New("channel: invalid params")

// Simulator synthesizes CSI for TX–RX pairs inside an environment. It is
// safe for concurrent use as long as callers pass distinct *rand.Rand
// instances (the simulator itself holds no mutable state).
type Simulator struct {
	env *Environment
	par Params
}

// NewSimulator validates the parameters and builds a simulator.
func NewSimulator(env *Environment, par Params) (*Simulator, error) {
	if env == nil {
		return nil, ErrNoBoundary
	}
	if err := par.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{env: env, par: par}, nil
}

// Env returns the simulated environment.
func (s *Simulator) Env() *Environment { return s.env }

// Params returns the parameterization.
func (s *Simulator) Params() Params { return s.par }

// pathLossDB is the log-distance loss at distance d (clamped at 0.1 m so
// co-located antennas do not blow up).
//
//nomloc:unit d=m result=dB
func (s *Simulator) pathLossDB(d float64) float64 {
	if d < 0.1 {
		d = 0.1
	}
	return s.par.RefLossDB + 10*s.par.PathLossExponent*math.Log10(d)
}

// Paths enumerates the propagation paths from tx to rx: the direct ray,
// one specular reflection per reflective wall (image method), and one
// bounce per scatterer. Paths weaker than MinPathGainDB are dropped; the
// direct path is always kept so the CIR never comes back empty.
func (s *Simulator) Paths(tx, rx geom.Vec) []Path {
	var paths []Path

	// Direct path.
	d := tx.Dist(rx)
	direct := Path{
		Kind:         Direct,
		Length:       d,
		Delay:        d / csi.SpeedOfLight,
		WallsCrossed: s.env.WallsCrossed(tx, rx),
	}
	direct.GainDB = -(s.pathLossDB(d) + s.env.AttenuationBetween(tx, rx, -1))
	paths = append(paths, direct)

	// Wall reflections via the image method, up to the configured order.
	if s.par.MaxReflectionOrder >= 1 {
		for wi, w := range s.env.walls {
			if !w.Reflective {
				continue
			}
			if p, ok := s.firstOrderReflection(tx, rx, wi, w); ok {
				paths = append(paths, p)
			}
		}
	}
	if s.par.MaxReflectionOrder >= 2 {
		for ai, wa := range s.env.walls {
			if !wa.Reflective {
				continue
			}
			for bi, wb := range s.env.walls {
				if ai == bi || !wb.Reflective {
					continue
				}
				if p, ok := s.secondOrderReflection(tx, rx, ai, wa, bi, wb); ok {
					paths = append(paths, p)
				}
			}
		}
	}

	// Scatterer bounces.
	for _, sc := range s.env.scatterers {
		leg1 := tx.Dist(sc.Pos)
		leg2 := sc.Pos.Dist(rx)
		if leg1 < geom.Eps || leg2 < geom.Eps {
			continue
		}
		length := leg1 + leg2
		gain := -(s.pathLossDB(length) + sc.ExcessLossDB +
			s.env.AttenuationBetween(tx, sc.Pos, -1) +
			s.env.AttenuationBetween(sc.Pos, rx, -1))
		if gain < s.par.MinPathGainDB {
			continue
		}
		paths = append(paths, Path{
			Kind:         Scattered,
			Length:       length,
			Delay:        length / csi.SpeedOfLight,
			GainDB:       gain,
			WallsCrossed: s.env.WallsCrossed(tx, sc.Pos) + s.env.WallsCrossed(sc.Pos, rx),
		})
	}
	return paths
}

// firstOrderReflection resolves the single-bounce path off wall wi.
func (s *Simulator) firstOrderReflection(tx, rx geom.Vec, wi int, w Wall) (Path, bool) {
	img := w.Seg.SupportingLine().Mirror(tx)
	// The reflection point is where img→rx crosses the wall segment.
	hit, ok := geom.Seg(img, rx).Intersect(w.Seg)
	if !ok {
		return Path{}, false
	}
	leg1 := tx.Dist(hit)
	leg2 := hit.Dist(rx)
	if leg1 < geom.Eps || leg2 < geom.Eps {
		// Degenerate geometry: tx or rx sits on the wall.
		return Path{}, false
	}
	length := leg1 + leg2
	gain := -(s.pathLossDB(length) + s.par.ReflectionLossDB +
		s.env.AttenuationBetween(tx, hit, wi) +
		s.env.AttenuationBetween(hit, rx, wi))
	if gain < s.par.MinPathGainDB {
		return Path{}, false
	}
	return Path{
		Kind:         Reflected,
		Length:       length,
		Delay:        length / csi.SpeedOfLight,
		GainDB:       gain,
		WallsCrossed: s.env.WallsCrossed(tx, hit) + s.env.WallsCrossed(hit, rx),
	}, true
}

// secondOrderReflection resolves the double-bounce path tx → wall a →
// wall b → rx via nested images: mirror tx across a, mirror that image
// across b; the b-bounce point is where the double image sees rx, and the
// a-bounce point is where the single image sees the b-bounce point.
func (s *Simulator) secondOrderReflection(tx, rx geom.Vec, ai int, wa Wall, bi int, wb Wall) (Path, bool) {
	img1 := wa.Seg.SupportingLine().Mirror(tx)
	img2 := wb.Seg.SupportingLine().Mirror(img1)
	hitB, ok := geom.Seg(img2, rx).Intersect(wb.Seg)
	if !ok {
		return Path{}, false
	}
	hitA, ok := geom.Seg(img1, hitB).Intersect(wa.Seg)
	if !ok {
		return Path{}, false
	}
	leg1 := tx.Dist(hitA)
	leg2 := hitA.Dist(hitB)
	leg3 := hitB.Dist(rx)
	if leg1 < geom.Eps || leg2 < geom.Eps || leg3 < geom.Eps {
		return Path{}, false
	}
	length := leg1 + leg2 + leg3
	gain := -(s.pathLossDB(length) + 2*s.par.ReflectionLossDB +
		s.env.AttenuationBetween(tx, hitA, ai) +
		attenuationSkipTwo(s.env, hitA, hitB, ai, bi) +
		s.env.AttenuationBetween(hitB, rx, bi))
	if gain < s.par.MinPathGainDB {
		return Path{}, false
	}
	return Path{
		Kind:         Reflected,
		Length:       length,
		Delay:        length / csi.SpeedOfLight,
		GainDB:       gain,
		WallsCrossed: s.env.WallsCrossed(tx, hitA) + s.env.WallsCrossed(hitA, hitB) + s.env.WallsCrossed(hitB, rx),
	}, true
}

// attenuationSkipTwo sums wall attenuation along a→b excluding both
// reflecting walls.
func attenuationSkipTwo(e *Environment, a, b geom.Vec, skip1, skip2 int) float64 {
	ray := geom.Seg(a, b)
	var total float64
	for i, w := range e.walls {
		if i == skip1 || i == skip2 {
			continue
		}
		if ray.IntersectsProperly(w.Seg) {
			total += w.AttenuationDB
		}
	}
	return total
}

// Response synthesizes the noiseless frequency-domain channel for the
// tx→rx link: H[k] = Σ_p a_p·exp(−j2π(f_c + f_k)τ_p) with amplitudes from
// the per-path gains. Powers are in mW (0 dBm = 1 mW), so amplitudes are
// in √mW.
func (s *Simulator) Response(tx, rx geom.Vec) csi.Vector {
	paths := s.Paths(tx, rx)
	offsets := s.par.Radio.SubcarrierOffsets()
	h := make(csi.Vector, len(offsets))
	fc := s.par.Radio.CarrierFreq
	for _, p := range paths {
		ampDBm := s.par.TxPowerDBm + p.GainDB
		amp := dsp.AmplitudeFromDB(ampDBm)
		carrierPhase := -2 * math.Pi * fc * p.Delay
		base := complex(amp, 0) * cmplx.Exp(complex(0, carrierPhase))
		for k, f := range offsets {
			h[k] += base * cmplx.Exp(complex(0, -2*math.Pi*f*p.Delay))
		}
	}
	return h
}

// Measure synthesizes one noisy CSI capture for the link: the noiseless
// response plus per-subcarrier complex Gaussian noise at the configured
// noise floor, with a common random phase-jitter rotation.
func (s *Simulator) Measure(tx, rx geom.Vec, rng *rand.Rand) csi.Vector {
	h := s.Response(tx, rx)
	s.addNoise(h, rng)
	return h
}

// addNoise turns the noiseless response h into one capture, in place: a
// common phase-jitter rotation, then per-subcarrier noise.
func (s *Simulator) addNoise(h csi.Vector, rng *rand.Rand) {
	noiseAmp := dsp.AmplitudeFromDB(s.par.NoiseFloorDBm)
	jitter := cmplx.Exp(complex(0, rng.NormFloat64()*s.par.PhaseJitterRad))
	for k := range h {
		n := complex(rng.NormFloat64(), rng.NormFloat64()) *
			complex(noiseAmp/math.Sqrt2, 0)
		h[k] = h[k]*jitter + n
	}
}

// RSSI returns the coarse received signal strength for the link in dBm:
// total received power across paths (noise floor included), the way a
// commodity NIC reports it. The decibels of an absolute mW power are a
// dBm level, which the annotation records where inference would only
// see dsp.DB's generic dB.
//
//nomloc:unit result=dBm
func (s *Simulator) RSSI(tx, rx geom.Vec) float64 {
	var mw float64
	for _, p := range s.Paths(tx, rx) {
		mw += dsp.FromDB(s.par.TxPowerDBm + p.GainDB)
	}
	mw += dsp.FromDB(s.par.NoiseFloorDBm)
	return dsp.DB(mw)
}

// MeasureBatch captures a burst of packets CSI samples for the link,
// labeled with the capturing AP and site index. now is used as the base
// timestamp; packets are spaced 1 ms apart, matching the paper's
// millisecond PING cadence. Packet i is what Measure would capture at
// receive antenna i mod NumAntennas, drawing its RSSI jitter first.
func (s *Simulator) MeasureBatch(apID string, siteIndex int, tx, rx geom.Vec, packets int, now time.Time, rng *rand.Rand) csi.Batch {
	b := csi.Batch{APID: apID, SiteIndex: siteIndex}
	if packets <= 0 {
		return b
	}
	b.Samples = make([]csi.Sample, 0, packets)
	rssi := s.RSSI(tx, rx)
	nAnt := s.par.NumAntennas
	if nAnt < 1 {
		nAnt = 1
	}
	// The noiseless response depends only on the antenna, so each is
	// traced once and every packet adds its noise to a copy.
	responses := make([]csi.Vector, min(nAnt, packets))
	for k := range responses {
		responses[k] = s.Response(tx, s.antennaPos(rx, k))
	}
	for i := 0; i < packets; i++ {
		sampleRSSI := rssi + rng.NormFloat64()*1.5
		h := responses[i%nAnt].Clone()
		s.addNoise(h, rng)
		b.Samples = append(b.Samples, csi.Sample{
			APID:       apID,
			Seq:        uint64(i),
			CapturedAt: now.Add(time.Duration(i) * time.Millisecond),
			RSSI:       sampleRSSI,
			CSI:        h,
		})
	}
	return b
}

// DelayProfile returns the interpolated power delay profile of the
// noiseless link, zero-padded by factor pad for sub-tap delay resolution,
// together with the per-bin delay step in seconds. It exists to reproduce
// the paper's Fig. 3 (channel response delay profile, LOS vs NLOS).
func (s *Simulator) DelayProfile(tx, rx geom.Vec, pad int) (profile []float64, binDelay float64, err error) {
	if pad < 1 {
		return nil, 0, fmt.Errorf("%w: pad %d", ErrBadParams, pad)
	}
	h := s.Response(tx, rx)
	padded, err := dsp.ZeroPad(h, len(h)*pad)
	if err != nil {
		return nil, 0, err
	}
	profile, err = dsp.PowerDelayProfile(padded)
	if err != nil {
		return nil, 0, err
	}
	binDelay = s.par.Radio.DelayResolution() / float64(pad)
	return profile, binDelay, nil
}
