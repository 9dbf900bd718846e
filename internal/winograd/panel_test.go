package winograd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"winrs/internal/cpufeat"
)

// panelCase is one plan a unit kernel can run: a registry kernel's G or
// Dᵀ, from the plain, balanced or scaled matrices, through a paired or a
// pairing-free plan.
type panelCase struct {
	name string
	plan *SymPlan
}

func panelCases() []panelCase {
	var cs []panelCase
	for _, k := range Kernels {
		tr := Generate(k.N, k.R)
		bal, sc := tr.Balanced(), tr.Scaled()
		for _, mats := range []struct {
			name string
			g, d *Mat
		}{{"plain", tr.G, tr.D}, {"balanced", bal.G, bal.D}, {"scaled", sc.G, sc.D}} {
			for _, fam := range []struct {
				name  string
				plans func(g, d *Mat) (*SymPlan, *SymPlan)
			}{{"paired", PanelPlansFor}, {"singles", SinglesPanelPlansFor}} {
				g, dt := fam.plans(mats.g, mats.d)
				pre := fmt.Sprintf("%v/%s/%s/", k, mats.name, fam.name)
				cs = append(cs, panelCase{pre + "G", g}, panelCase{pre + "DT", dt})
			}
		}
	}
	return cs
}

// panelFloat maps two bytes to a panel input: ±0, a subnormal, ±1e30,
// ±Inf, NaN or a finite ±[1, 5).
func panelFloat(class, frac byte) float32 {
	sign := float32(1)
	if class&1 != 0 {
		sign = -1
	}
	switch class >> 1 % 8 {
	case 0:
		return sign * 0
	case 1:
		return sign * math.Float32frombits(uint32(frac)+1)
	case 2:
		return sign * 1e30
	case 3:
		return sign * float32(math.Inf(1))
	case 4:
		return float32(math.NaN())
	}
	return sign * (1 + float32(frac)/64)
}

// sameBitsOrNaN reports the first index where got and want differ in bits,
// counting any NaN equal to any NaN, or −1.
func sameBitsOrNaN(got, want []float32) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// nanPanel returns n floats of NaN, so an element a path never writes
// shows.
func nanPanel(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.NaN())
	}
	return out
}

// checkKernelMatchesGo runs MulPanel (the AVX2 kernel on the columns it
// covers, the Go loop on the tail) and the Go loop alone on one input and
// fails on the first element whose bits differ, NaN equal to NaN.
func checkKernelMatchesGo(t *testing.T, name string, plan *SymPlan, in []float32, width int) {
	t.Helper()
	m := plan.Mat()
	got, want := nanPanel(m.Rows*width), nanPanel(m.Rows*width)
	plan.MulPanel(in, got, m.Cols, width)
	plan.mulPanelGo(in, want, width, width)
	if i := sameBitsOrNaN(got, want); i >= 0 {
		t.Fatalf("%s width %d: row %d col %d: kernel %v (%#x), Go %v (%#x)", name, width,
			i/width, i%width, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
}

// The AVX2 transform kernel must match the Go loop bit for bit (NaN equal
// to NaN) for every plan a unit can run — all registry kernels, plain,
// balanced and scaled matrices, paired and pairing-free plans, G and Dᵀ —
// at widths that cross every 32-column, 8-column and Go-tail boundary, on
// inputs mixing ±0, subnormals, ±1e30, ±Inf and NaN, into outputs
// pre-filled with NaN.
func TestMulPanelKernelMatchesGo(t *testing.T) {
	if !cpufeat.HasAVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(97))
	for _, pc := range panelCases() {
		rows := pc.plan.Mat().Cols
		for _, width := range []int{1, 7, 8, 9, 31, 32, 33, 40, 64, 100, 257} {
			in := make([]float32, rows*width)
			for i := range in {
				if r := rng.Intn(48); r < 8 {
					in[i] = panelFloat(byte(rng.Intn(10)), byte(rng.Intn(256)))
				} else {
					in[i] = (rng.Float32() - 0.5) * 8
				}
			}
			checkKernelMatchesGo(t, pc.name, pc.plan, in, width)
		}
	}
}

// FuzzMulPanelAVX2 compares the kernel path with the Go loop on fuzzed
// panels of widths 0–80.
func FuzzMulPanelAVX2(f *testing.F) {
	if !cpufeat.HasAVX2 {
		f.Skip("no AVX2")
	}
	cases := panelCases()
	f.Add(uint16(0), uint8(33), []byte{4, 9, 6, 200, 7, 1, 8, 3, 12, 90})
	f.Add(uint16(200), uint8(80), []byte{})
	f.Add(uint16(7), uint8(8), []byte{0, 0, 1, 255, 2, 17, 3, 4, 5, 6, 9})
	f.Fuzz(func(t *testing.T, which uint16, w uint8, data []byte) {
		pc := cases[int(which)%len(cases)]
		width := int(w) % 81
		rows := pc.plan.Mat().Cols
		in := make([]float32, rows*width)
		for i := range in {
			if len(data) > 0 {
				j := 2 * i
				in[i] = panelFloat(data[j%len(data)]+byte(j/len(data)), data[(j+1)%len(data)])
			}
		}
		checkKernelMatchesGo(t, pc.name, pc.plan, in, width)
	})
}

// On an AVX2 host MulPanel runs the kernel; this reruns the panel suites
// with cpufeat.HasAVX2 cleared, so the Go loop is pinned to the same
// properties.
func TestMulPanelGoLoop(t *testing.T) {
	if !cpufeat.HasAVX2 {
		t.Skip("no AVX2: the suites already ran the Go loop")
	}
	avx2 := cpufeat.HasAVX2
	cpufeat.HasAVX2 = false
	t.Cleanup(func() { cpufeat.HasAVX2 = avx2 })
	t.Run("MulPanelColumnsIndependent", TestMulPanelColumnsIndependent)
	t.Run("MulPanelMatchesPlain", TestMulPanelMatchesPlain)
}

// BenchmarkMulPanel times MulPanel on the unit shapes: the depthwise
// channel blocks (FP16, pairing-free, widths 32–64), the dense chunk's
// input transform and the Ŵ fill (FP32, paired, widths 512–2048). The
// go/ variants clear cpufeat.HasAVX2, so they time the Go loop.
func BenchmarkMulPanel(b *testing.B) {
	for _, sh := range []struct {
		n, r   int
		g      bool
		fp16   bool
		widths []int
	}{
		{3, 6, false, true, []int{32, 64}},
		{3, 6, true, true, []int{32}},
		{3, 2, false, true, []int{32}},
		{9, 8, false, true, []int{64}},
		{3, 6, false, false, []int{2048}},
		{3, 6, true, false, []int{512}},
		{3, 2, false, false, []int{2048}},
		{9, 8, false, false, []int{2048}},
	} {
		tr := Generate(sh.n, sh.r)
		g, d := tr.Balanced().G, tr.Balanced().D
		if sh.fp16 && tr.Alpha >= 16 {
			g, d = tr.Scaled().G, tr.Scaled().D
		}
		plans, storage := PanelPlansFor, "fp32"
		if sh.fp16 {
			plans, storage = SinglesPanelPlansFor, "fp16"
		}
		gPlan, plan := plans(g, d)
		mat := "DT"
		if sh.g {
			plan, mat = gPlan, "G"
		}
		m := plan.Mat()
		for _, width := range sh.widths {
			in := make([]float32, m.Cols*width)
			for i := range in {
				in[i] = float32(i%17) - 8
			}
			out := make([]float32, m.Rows*width)
			name := fmt.Sprintf("Omega%d(%d,%d)/%s/%s/w%d", tr.Alpha, sh.n, sh.r, mat, storage, width)
			for _, path := range []string{"kernel", "go"} {
				b.Run(path+"/"+name, func(b *testing.B) {
					if path == "go" {
						avx2 := cpufeat.HasAVX2
						cpufeat.HasAVX2 = false
						defer func() { cpufeat.HasAVX2 = avx2 }()
					}
					for i := 0; i < b.N; i++ {
						plan.MulPanel(in, out, m.Cols, width)
					}
				})
			}
		}
	}
}
