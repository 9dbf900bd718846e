package fp16

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"winrs/internal/cpufeat"
)

// sweepRoundSlice rounds every stride-th float32 bit pattern, 0 included,
// on both kernel paths — RoundSlice with the F16C kernel (F16C hosts only)
// and the Go loop roundSliceGo — and checks each against the scalar round
// trip ToFloat32(FromFloat32(v)) bit for bit, NaN payloads included. The
// patterns are split into 64 Ki chunks over GOMAXPROCS goroutines.
func sweepRoundSlice(t *testing.T, stride uint64) {
	const chunk = 1 << 16
	total := (1<<32 + stride - 1) / stride
	var next atomic.Uint64
	var failed atomic.Bool
	workers := runtime.GOMAXPROCS(0)
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals := make([]float32, chunk)
			want := make([]float32, chunk)
			got := make([]float32, chunk)
			for !failed.Load() {
				k0 := next.Add(chunk) - chunk
				if k0 >= total {
					return
				}
				n := int(min(chunk, total-k0))
				for i := 0; i < n; i++ {
					vals[i] = math.Float32frombits(uint32((k0 + uint64(i)) * stride))
					want[i] = ToFloat32(FromFloat32(vals[i]))
				}
				paths := []struct {
					name  string
					round func([]float32)
				}{{"go", roundSliceGo}}
				if cpufeat.HasF16C {
					paths = append(paths, struct {
						name  string
						round func([]float32)
					}{"f16c", RoundSlice})
				}
				for _, path := range paths {
					copy(got, vals[:n])
					path.round(got[:n])
					for i := 0; i < n; i++ {
						if !sameF32(got[i], want[i]) {
							failed.Store(true)
							errs <- fmt.Sprintf("%s: round(%#08x) = %#08x, scalar round trip = %#08x", path.name,
								math.Float32bits(vals[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// Both RoundSlice kernel paths must equal the scalar round trip on every
// roundSweepStride-th float32 pattern: a strided subset by default, all
// 2^32 patterns under the exhaustive build tag (make bitwise-smoke).
func TestRoundSliceF16CSweep(t *testing.T) {
	if !cpufeat.HasF16C {
		t.Log("no F16C: only the Go loop is swept")
	}
	sweepRoundSlice(t, roundSweepStride)
}

// The F16C kernel must match the Go loop bit for bit at every length from
// 0 to 80 (every tail of the 8- and 32-lane loops) on unaligned slice
// starts, for arbitrary bit patterns: NaN payloads, signalling NaNs,
// infinities, float32 subnormals and the binary16 rounding ties.
func FuzzRoundSliceF16C(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x00, 0x45, 0x00, 0x28, 0x00, 0x45}, uint8(40), uint8(1))
	f.Add([]byte{0x01, 0x00, 0x80, 0x7f, 0x45, 0x23, 0xc1, 0xff, 0x00, 0xf0, 0x7f, 0x47}, uint8(80), uint8(3))
	f.Add([]byte{0x00, 0x00, 0x00, 0x33, 0xff, 0xff, 0x7f, 0x33}, uint8(9), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, nB, shift uint8) {
		if !cpufeat.HasF16C {
			t.Skip("no F16C")
		}
		n, sh := int(nB%81), int(shift%8)
		src := make([]float32, sh+n)
		for i := range src {
			var b uint32
			for k := 0; k < 4 && len(data) > 0; k++ {
				j := 4*i + k
				b |= uint32(data[j%len(data)]+byte(j/len(data))) << (8 * k)
			}
			src[i] = math.Float32frombits(b)
		}
		want := append([]float32(nil), src...)[sh:]
		got := append([]float32(nil), src...)[sh:]
		roundSliceGo(want)
		RoundSlice(got)
		for i := range want {
			if !sameF32(got[i], want[i]) {
				t.Fatalf("n=%d shift=%d: element %d (%#08x) = %#08x, Go loop %#08x", n, sh, i,
					math.Float32bits(src[sh+i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	})
}
