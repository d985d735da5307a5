package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"github.com/nomloc/nomloc/internal/deploy"
)

// figureGoldens are the SHA-256 digests of the Fig. 3 and Fig. 7–10
// result structs, per paper scenario, Fig. 7–10 at goldenOptions. Figs.
// 7–10 run through the channel simulator, the PDP extraction (dsp) and
// the solve, but their outputs move only when a proximity judgement or
// the solve's geometry does. Fig. 3 prints the channel response's delay
// profile itself, so it also sees a change in the last bit of the
// simulator's response or of the Bluestein transform.
var figureGoldens = map[string]string{
	"fig3/lab":    "bea3688ab5c832499635bb16f6e6c327f50fb9b2d0e6d6ab497d0c3ce31ed15c",
	"fig3/lobby":  "b84f92674e04959939832d157f0e3b9f026f01a49d05af1866b3227de20e74ae",
	"fig7/lab":    "bbc9c297715b703d5a80fae901ba715eaf70288a27d19415c46e325f06763c4e",
	"fig8/lab":    "7eea29112deea18219eb47a9671d8ba286d582e79a442f158959ea6684545f8a",
	"fig9/lab":    "fc0ea57979ab37fcfbc5a3525fe352724f259a58e11373a03cebf8dda768e94a",
	"fig10/lab":   "763e68dee8a7d56de226976868941678d22551f65ddf62e4b35d705b4f318553",
	"fig7/lobby":  "3275ad6b09b12f5668a37b722b6b020b7159e3ba1de6b3a63e928adbbb0964c9",
	"fig8/lobby":  "682526f22a94e3dd150102c094c2ea4bdd4f7516e778236400458af1a3aa5070",
	"fig9/lobby":  "46e614dc5393eb80aff2748f36507c2068414927bff977025684175552fba26a",
	"fig10/lobby": "c29b167ff6f27cee4860201911e47737b25282576a28bb710bb22b23a0f35501",
}

// goldenOptions are the root benchmarks' options (bench_test.go's
// benchOptions).
func goldenOptions() Options {
	return Options{PacketsPerSite: 12, TrialsPerSite: 2, WalkSteps: 10, Seed: 1}
}

// TestFigureGoldens pins the paper figures bit for bit.
func TestFigureGoldens(t *testing.T) {
	opt := goldenOptions()
	for _, name := range deploy.Names() {
		scn, err := deploy.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		results := map[string]func() (any, error){
			"fig3":  func() (any, error) { return RunFig3(scn, 8) },
			"fig7":  func() (any, error) { return RunFig7(scn, opt) },
			"fig8":  func() (any, error) { return RunFig8(scn, opt) },
			"fig9":  func() (any, error) { return RunFig9(scn, opt) },
			"fig10": func() (any, error) { return RunFig10(scn, opt, nil) },
		}
		for _, fig := range []string{"fig3", "fig7", "fig8", "fig9", "fig10"} {
			res, err := results[fig]()
			if err != nil {
				t.Fatalf("%s/%s: %v", fig, name, err)
			}
			key := fig + "/" + name
			if got, want := digest(res), figureGoldens[key]; got != want {
				t.Errorf("%s digest = %s, want %s", key, got, want)
			}
		}
	}
}

// digest hashes v's exported and unexported contents: floats by their
// bits, so -0, NaN payloads and the last ulp all count.
func digest(v any) string {
	h := sha256.New()
	digestValue(h, reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))
}

func digestValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	putU64 := func(x uint64) {
		binary.BigEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			h.Write([]byte{0})
			return
		}
		h.Write([]byte{1})
		digestValue(h, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestValue(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		putU64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	case reflect.String:
		putU64(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Float64, reflect.Float32:
		putU64(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		putU64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		putU64(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	default:
		panic("digest: unsupported kind " + v.Kind().String())
	}
}
