package channel

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/nomloc/nomloc/internal/dsp"
	"github.com/nomloc/nomloc/internal/geom"
)

// openRoom returns a 20×10 empty room simulator.
func openRoom(t *testing.T) *Simulator {
	t.Helper()
	env, err := NewEnvironment(geom.Rect(0, 0, 20, 10), 12)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(env, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// walledRoom returns a 20×10 room with a heavy wall at x=10 splitting it.
func walledRoom(t *testing.T) *Simulator {
	t.Helper()
	env, err := NewEnvironment(geom.Rect(0, 0, 20, 10), 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.AddWall(Wall{Seg: geom.Seg(geom.V(10, 0), geom.V(10, 10)), AttenuationDB: 15, Reflective: true}); err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(env, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestNewEnvironmentValidation(t *testing.T) {
	if _, err := NewEnvironment(geom.Polygon{}, 10); !errors.Is(err, ErrNoBoundary) {
		t.Errorf("err = %v, want ErrNoBoundary", err)
	}
	env, err := NewEnvironment(geom.Rect(0, 0, 5, 5), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(env.Walls()); got != 4 {
		t.Errorf("boundary walls = %d, want 4", got)
	}
}

func TestAddWallValidation(t *testing.T) {
	env, _ := NewEnvironment(geom.Rect(0, 0, 5, 5), 10)
	if err := env.AddWall(Wall{Seg: geom.Seg(geom.V(1, 1), geom.V(1, 1))}); !errors.Is(err, ErrBadWall) {
		t.Errorf("zero wall err = %v", err)
	}
	if err := env.AddWall(Wall{Seg: geom.Seg(geom.V(0, 0), geom.V(1, 1)), AttenuationDB: -3}); !errors.Is(err, ErrBadWall) {
		t.Errorf("negative attenuation err = %v", err)
	}
	if err := env.AddScatterer(Scatterer{Pos: geom.V(1, 1), ExcessLossDB: -1}); !errors.Is(err, ErrBadWall) {
		t.Errorf("negative scatter loss err = %v", err)
	}
}

func TestAddBox(t *testing.T) {
	env, _ := NewEnvironment(geom.Rect(0, 0, 10, 10), 10)
	before := len(env.Walls())
	if err := env.AddBox(2, 2, 4, 4, 6, true); err != nil {
		t.Fatal(err)
	}
	if got := len(env.Walls()) - before; got != 4 {
		t.Errorf("box added %d walls, want 4", got)
	}
}

func TestLOSAndAttenuation(t *testing.T) {
	sim := walledRoom(t)
	env := sim.Env()

	// Same side of the wall: LOS.
	if !env.HasLOS(geom.V(2, 5), geom.V(8, 5)) {
		t.Error("same-side link should have LOS")
	}
	// Across the wall: blocked, one wall, 15 dB.
	if env.HasLOS(geom.V(2, 5), geom.V(18, 5)) {
		t.Error("cross-wall link should be NLOS")
	}
	if got := env.WallsCrossed(geom.V(2, 5), geom.V(18, 5)); got != 1 {
		t.Errorf("WallsCrossed = %d, want 1", got)
	}
	if got := env.AttenuationBetween(geom.V(2, 5), geom.V(18, 5), -1); math.Abs(got-15) > 1e-9 {
		t.Errorf("attenuation = %v, want 15", got)
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	env, _ := NewEnvironment(geom.Rect(0, 0, 5, 5), 10)
	if _, err := NewSimulator(nil, DefaultParams()); !errors.Is(err, ErrNoBoundary) {
		t.Errorf("nil env err = %v", err)
	}
	bad := DefaultParams()
	bad.PathLossExponent = 0
	if _, err := NewSimulator(env, bad); !errors.Is(err, ErrBadParams) {
		t.Errorf("bad exponent err = %v", err)
	}
	bad = DefaultParams()
	bad.ReflectionLossDB = -1
	if _, err := NewSimulator(env, bad); !errors.Is(err, ErrBadParams) {
		t.Errorf("bad reflection err = %v", err)
	}
	bad = DefaultParams()
	bad.Radio.NumSubcarriers = 0
	if _, err := NewSimulator(env, bad); err == nil {
		t.Error("bad radio config accepted")
	}
}

func TestPathsDirectAlwaysPresent(t *testing.T) {
	sim := openRoom(t)
	paths := sim.Paths(geom.V(1, 1), geom.V(19, 9))
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	if paths[0].Kind != Direct {
		t.Errorf("first path kind = %v, want Direct", paths[0].Kind)
	}
	wantLen := geom.V(1, 1).Dist(geom.V(19, 9))
	if math.Abs(paths[0].Length-wantLen) > 1e-9 {
		t.Errorf("direct length = %v, want %v", paths[0].Length, wantLen)
	}
	if math.Abs(paths[0].Delay-wantLen/299792458.0) > 1e-15 {
		t.Errorf("direct delay = %v", paths[0].Delay)
	}
}

func TestPathsIncludeReflections(t *testing.T) {
	sim := openRoom(t)
	paths := sim.Paths(geom.V(5, 5), geom.V(15, 5))
	var nRef int
	for _, p := range paths {
		if p.Kind != Reflected {
			continue
		}
		nRef++
		// A reflected path is always longer than the direct one.
		if p.Length <= paths[0].Length {
			t.Errorf("reflection length %v not > direct %v", p.Length, paths[0].Length)
		}
		// And weaker.
		if p.GainDB >= paths[0].GainDB {
			t.Errorf("reflection gain %v not < direct %v", p.GainDB, paths[0].GainDB)
		}
	}
	// A rectangular room yields reflections off all four walls for an
	// interior pair.
	if nRef != 4 {
		t.Errorf("reflections = %d, want 4", nRef)
	}
}

func TestReflectionGeometry(t *testing.T) {
	// For tx=(5,5), rx=(15,5) in a 20×10 room, the floor (y=0) reflection
	// travels 10² + ... : image of tx is (5,−5), so length = |(5,−5)−(15,5)|
	// = √(100+100) = √200.
	sim := openRoom(t)
	want := math.Sqrt(200)
	found := false
	for _, p := range sim.Paths(geom.V(5, 5), geom.V(15, 5)) {
		if p.Kind == Reflected && math.Abs(p.Length-want) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Errorf("no reflection with length √200")
	}
}

func TestPathsScatterers(t *testing.T) {
	sim := openRoom(t)
	if err := sim.Env().AddScatterer(Scatterer{Pos: geom.V(10, 8), ExcessLossDB: 10}); err != nil {
		t.Fatal(err)
	}
	paths := sim.Paths(geom.V(5, 5), geom.V(15, 5))
	var found bool
	for _, p := range paths {
		if p.Kind == Scattered {
			found = true
			wantLen := geom.V(5, 5).Dist(geom.V(10, 8)) + geom.V(10, 8).Dist(geom.V(15, 5))
			if math.Abs(p.Length-wantLen) > 1e-9 {
				t.Errorf("scatter length = %v, want %v", p.Length, wantLen)
			}
		}
	}
	if !found {
		t.Error("scatterer path missing")
	}
}

func TestPathGainDecreasesWithDistance(t *testing.T) {
	sim := openRoom(t)
	tx := geom.V(1, 5)
	var prev float64 = math.Inf(1)
	for _, x := range []float64{3, 6, 10, 15, 19} {
		p := sim.Paths(tx, geom.V(x, 5))[0]
		if p.GainDB >= prev {
			t.Errorf("gain at x=%v is %v, not below %v", x, p.GainDB, prev)
		}
		prev = p.GainDB
	}
}

func TestNLOSWeakensDirectPath(t *testing.T) {
	los := openRoom(t)
	nlos := walledRoom(t)
	tx, rx := geom.V(5, 5), geom.V(15, 5)
	gLOS := los.Paths(tx, rx)[0].GainDB
	gNLOS := nlos.Paths(tx, rx)[0].GainDB
	if math.Abs((gLOS-gNLOS)-15) > 1e-9 {
		t.Errorf("NLOS penalty = %v dB, want 15", gLOS-gNLOS)
	}
}

func TestResponseShape(t *testing.T) {
	sim := openRoom(t)
	h := sim.Response(geom.V(2, 2), geom.V(17, 8))
	if len(h) != sim.Params().Radio.NumSubcarriers {
		t.Fatalf("len = %d", len(h))
	}
	if h.IsZero() {
		t.Fatal("response all zero")
	}
	// Multipath must make the response frequency-selective: magnitudes
	// across subcarriers should not all be identical.
	mags := dsp.Magnitudes(h)
	minM, maxM := mags[0], mags[0]
	for _, m := range mags {
		minM = math.Min(minM, m)
		maxM = math.Max(maxM, m)
	}
	if maxM-minM < 1e-12 {
		t.Error("response is frequency-flat despite multipath")
	}
}

func TestPDPTrendsDownWithDistance(t *testing.T) {
	// The premise of NomLoc: nearer AP ⇒ larger direct-path power. At a
	// single point multipath fading can locally invert the order (that is
	// precisely the spatial localizability variance the paper fights), so
	// the test averages PDP over a small set of receiver offsets and
	// checks the distance trend on the averages.
	sim := openRoom(t)
	tx := geom.V(1, 5)
	meanPDP := func(x float64) float64 {
		var sum float64
		offsets := []geom.Vec{
			geom.V(0, -1.1), geom.V(0, -0.4), geom.V(0, 0.3), geom.V(0, 0.9), geom.V(0.5, 0),
		}
		for _, off := range offsets {
			h := sim.Response(tx, geom.V(x, 5).Add(off))
			p, _, err := dsp.DirectPathPower(h)
			if err != nil {
				t.Fatal(err)
			}
			sum += p
		}
		return sum / float64(len(offsets))
	}
	near, mid, far := meanPDP(4), meanPDP(10), meanPDP(16)
	if !(near > mid && mid > far) {
		t.Errorf("mean PDP not decreasing: near=%v mid=%v far=%v", near, mid, far)
	}
	if near < 4*far {
		t.Errorf("near PDP %v not ≫ far PDP %v", near, far)
	}
}

func TestMeasureAddsNoise(t *testing.T) {
	sim := openRoom(t)
	rng := rand.New(rand.NewSource(1))
	tx, rx := geom.V(2, 2), geom.V(10, 8)
	clean := sim.Response(tx, rx)
	noisy := sim.Measure(tx, rx, rng)
	if len(noisy) != len(clean) {
		t.Fatal("length changed")
	}
	var diff float64
	for k := range clean {
		d := noisy[k] - clean[k]
		diff += real(d)*real(d) + imag(d)*imag(d)
	}
	if diff == 0 {
		t.Error("Measure returned the noiseless response")
	}
	// Two measurements differ from each other.
	noisy2 := sim.Measure(tx, rx, rng)
	same := true
	for k := range noisy {
		if noisy[k] != noisy2[k] {
			same = false
			break
		}
	}
	if same {
		t.Error("consecutive measurements identical")
	}
}

func TestMeasureDeterministicWithSeed(t *testing.T) {
	sim := openRoom(t)
	tx, rx := geom.V(2, 2), geom.V(10, 8)
	a := sim.Measure(tx, rx, rand.New(rand.NewSource(7)))
	b := sim.Measure(tx, rx, rand.New(rand.NewSource(7)))
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("same seed produced different measurements")
		}
	}
}

func TestRSSIDecreasesWithDistance(t *testing.T) {
	sim := openRoom(t)
	near := sim.RSSI(geom.V(1, 5), geom.V(3, 5))
	far := sim.RSSI(geom.V(1, 5), geom.V(19, 5))
	if near <= far {
		t.Errorf("RSSI near %v not > far %v", near, far)
	}
}

func TestMeasureBatch(t *testing.T) {
	sim := openRoom(t)
	rng := rand.New(rand.NewSource(2))
	now := time.Unix(1700000000, 0)
	b := sim.MeasureBatch("ap1", 3, geom.V(2, 2), geom.V(12, 7), 50, now, rng)
	if b.APID != "ap1" || b.SiteIndex != 3 {
		t.Errorf("batch meta = %q/%d", b.APID, b.SiteIndex)
	}
	if len(b.Samples) != 50 {
		t.Fatalf("samples = %d", len(b.Samples))
	}
	for i, s := range b.Samples {
		if s.Seq != uint64(i) {
			t.Errorf("sample %d seq = %d", i, s.Seq)
		}
		if len(s.CSI) != sim.Params().Radio.NumSubcarriers {
			t.Errorf("sample %d CSI len = %d", i, len(s.CSI))
		}
	}
	if got := b.Samples[1].CapturedAt.Sub(b.Samples[0].CapturedAt); got != time.Millisecond {
		t.Errorf("packet spacing = %v", got)
	}
	empty := sim.MeasureBatch("ap1", 0, geom.V(1, 1), geom.V(2, 2), 0, now, rng)
	if len(empty.Samples) != 0 {
		t.Error("zero-packet batch not empty")
	}
}

// TestMeasureBatchMatchesPerPacket pins MeasureBatch bit for bit against
// the per-packet definition — an RSSI draw, then Measure at antenna
// i mod NumAntennas, on one RNG — over random links in both test rooms,
// for packet counts below, at and above the antenna count.
func TestMeasureBatchMatchesPerPacket(t *testing.T) {
	reference := func(s *Simulator, tx, rx geom.Vec, packets int, rng *rand.Rand) []float64 {
		var bits []float64
		rssi := s.RSSI(tx, rx)
		for i := 0; i < packets; i++ {
			bits = append(bits, rssi+rng.NormFloat64()*1.5)
			for _, c := range s.Measure(tx, s.antennaPos(rx, i%s.par.NumAntennas), rng) {
				bits = append(bits, real(c), imag(c))
			}
		}
		return bits
	}
	pick := rand.New(rand.NewSource(80))
	point := func() geom.Vec { return geom.V(0.5+19*pick.Float64(), 0.5+9*pick.Float64()) }
	for trial := 0; trial < 80; trial++ {
		sim := openRoom(t)
		if trial%2 == 1 {
			sim = walledRoom(t)
		}
		tx, rx := point(), point()
		packets := []int{1, 2, 3, 7, 25}[trial%5]
		seed := int64(trial)
		want := reference(sim, tx, rx, packets, rand.New(rand.NewSource(seed)))
		b := sim.MeasureBatch("ap", 0, tx, rx, packets, time.Unix(0, 0), rand.New(rand.NewSource(seed)))
		var got []float64
		for _, smp := range b.Samples {
			got = append(got, smp.RSSI)
			for _, c := range smp.CSI {
				got = append(got, real(c), imag(c))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d values, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: value %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestDelayProfileFig3Shape(t *testing.T) {
	// Reproduces the Fig. 3 dichotomy: under LOS the earliest significant
	// arrival carries the peak; under NLOS the direct tap is attenuated
	// relative to the LOS case.
	losSim := openRoom(t)
	nlosSim := walledRoom(t)
	tx, rx := geom.V(4, 5), geom.V(16, 5)

	losProfile, binDelay, err := losSim.DelayProfile(tx, rx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if binDelay <= 0 {
		t.Errorf("binDelay = %v", binDelay)
	}
	nlosProfile, _, err := nlosSim.DelayProfile(tx, rx, 8)
	if err != nil {
		t.Fatal(err)
	}

	losPeakIdx, losPeak := dsp.MaxTap(losProfile)
	_, nlosPeak := dsp.MaxTap(nlosProfile)
	if nlosPeak >= losPeak {
		t.Errorf("NLOS peak %v not below LOS peak %v", nlosPeak, losPeak)
	}
	// LOS peak should be at the direct-path delay (~12 m → 40 ns).
	wantDelay := 12.0 / 299792458.0
	gotDelay := float64(losPeakIdx) * binDelay
	if math.Abs(gotDelay-wantDelay) > 30e-9 {
		t.Errorf("LOS peak delay = %v, want ≈ %v", gotDelay, wantDelay)
	}

	if _, _, err := losSim.DelayProfile(tx, rx, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("pad 0 err = %v", err)
	}
}

func TestPathKindString(t *testing.T) {
	if Direct.String() != "direct" || Reflected.String() != "reflected" ||
		Scattered.String() != "scattered" {
		t.Error("PathKind.String mismatch")
	}
	if PathKind(0).String() != "pathkind(0)" {
		t.Error("zero PathKind should not pretty-print")
	}
}

func TestEnvironmentAccessorsCopy(t *testing.T) {
	env, _ := NewEnvironment(geom.Rect(0, 0, 5, 5), 10)
	walls := env.Walls()
	walls[0].AttenuationDB = 999
	if env.Walls()[0].AttenuationDB == 999 {
		t.Error("Walls returned internal storage")
	}
	if err := env.AddScatterer(Scatterer{Pos: geom.V(1, 1), ExcessLossDB: 5}); err != nil {
		t.Fatal(err)
	}
	sc := env.Scatterers()
	sc[0].ExcessLossDB = 999
	if env.Scatterers()[0].ExcessLossDB == 999 {
		t.Error("Scatterers returned internal storage")
	}
}

func BenchmarkResponse(b *testing.B) {
	env, _ := NewEnvironment(geom.Rect(0, 0, 20, 10), 12)
	_ = env.AddBox(5, 5, 7, 7, 6, true)
	sim, _ := NewSimulator(env, DefaultParams())
	tx, rx := geom.V(1, 1), geom.V(18, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.Response(tx, rx)
	}
}

func BenchmarkMeasure(b *testing.B) {
	env, _ := NewEnvironment(geom.Rect(0, 0, 20, 10), 12)
	sim, _ := NewSimulator(env, DefaultParams())
	rng := rand.New(rand.NewSource(3))
	tx, rx := geom.V(1, 1), geom.V(18, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.Measure(tx, rx, rng)
	}
}

func TestReflectionOrderZero(t *testing.T) {
	env, err := NewEnvironment(geom.Rect(0, 0, 20, 10), 12)
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams()
	par.MaxReflectionOrder = 0
	sim, err := NewSimulator(env, par)
	if err != nil {
		t.Fatal(err)
	}
	paths := sim.Paths(geom.V(5, 5), geom.V(15, 5))
	if len(paths) != 1 || paths[0].Kind != Direct {
		t.Errorf("order 0 should yield exactly the direct path, got %d paths", len(paths))
	}
}

func TestReflectionOrderTwoAddsPaths(t *testing.T) {
	env, err := NewEnvironment(geom.Rect(0, 0, 20, 10), 12)
	if err != nil {
		t.Fatal(err)
	}
	par1 := DefaultParams()
	par2 := DefaultParams()
	par2.MaxReflectionOrder = 2
	sim1, err := NewSimulator(env, par1)
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := NewSimulator(env, par2)
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := geom.V(5, 5), geom.V(15, 5)
	p1 := sim1.Paths(tx, rx)
	p2 := sim2.Paths(tx, rx)
	if len(p2) <= len(p1) {
		t.Fatalf("order 2 (%d paths) should add to order 1 (%d)", len(p2), len(p1))
	}
	// Every order-1 path must still be present with the same length.
	for _, want := range p1 {
		found := false
		for _, got := range p2 {
			if got.Kind == want.Kind && math.Abs(got.Length-want.Length) < 1e-9 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("order-1 path of length %v missing at order 2", want.Length)
		}
	}
	// Double bounces must be longer than the direct path and weaker than
	// the corresponding single bounces on average.
	direct := p1[0]
	for _, got := range p2[len(p1):] {
		if got.Length <= direct.Length {
			t.Errorf("double bounce length %v not beyond direct %v", got.Length, direct.Length)
		}
	}
}

func TestSecondOrderGeometryKnownCase(t *testing.T) {
	// In a 20×10 room with tx=(5,5), rx=(15,5), the floor–ceiling double
	// bounce has image chain (5,5)→(5,−5)→(5,25): length |(5,25)−(15,5)| =
	// √(100+400) = √500.
	env, err := NewEnvironment(geom.Rect(0, 0, 20, 10), 12)
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams()
	par.MaxReflectionOrder = 2
	sim, err := NewSimulator(env, par)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(500)
	found := false
	for _, p := range sim.Paths(geom.V(5, 5), geom.V(15, 5)) {
		if p.Kind == Reflected && math.Abs(p.Length-want) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Errorf("floor–ceiling double bounce of length √500 missing")
	}
}

func TestReflectionOrderValidation(t *testing.T) {
	env, err := NewEnvironment(geom.Rect(0, 0, 5, 5), 10)
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams()
	par.MaxReflectionOrder = 3
	if _, err := NewSimulator(env, par); !errors.Is(err, ErrBadParams) {
		t.Errorf("order 3 err = %v", err)
	}
	par.MaxReflectionOrder = -1
	if _, err := NewSimulator(env, par); !errors.Is(err, ErrBadParams) {
		t.Errorf("order -1 err = %v", err)
	}
}
