package winograd

import (
	"math"
	"sync"

	"winrs/internal/cpufeat"
)

// SymPlan is the paper's §5.2 "Transform Simplification": with
// interpolation points ordered {0, 1, −1, 2, −2, …}, the rows of A, G and
// Dᵀ generated for a ±p point pair hold equal elements in even column
// positions and opposite elements in odd positions (Figure 8). For such a
// pair (u, v) the products u⊙x need computing only once:
//
//	yᵤ = Σ even + Σ odd,   y_v = Σ even − Σ odd
//
// which nearly halves the transform multiplications (the paper measures a
// ~6% kernel throughput gain). A SymPlan detects the pairs of a matrix
// once and applies the shared-product evaluation.
type SymPlan struct {
	m       *Mat
	pairs   [][2]int // row index pairs with even/odd ± symmetry
	singles []int    // rows without a partner

	// groups and ops are the MulPanel chains compiled for the AVX2
	// kernel: one group per pair, then one per single, each taking its
	// chains' ops from ops in turn.
	groups []panelGroup
	ops    []panelOp
}

// panelOp is one term of a compiled chain: input row in times c.
type panelOp struct {
	in int32
	c  float32
}

// panelGroup is one pair or single of a compiled plan: output rows u and
// v (v = −1 for a single) and the op counts of its even and odd chains,
// whose ops follow in that order (a single has one chain, counted in
// even).
type panelGroup struct {
	u, v, even, odd int32
}

// NewSymPlan analyses the matrix rows and returns the shared-product
// evaluation plan. Detection is exact (float equality), so it works on the
// rationally-generated transforms but degrades gracefully to all-singles
// for arbitrary matrices.
func NewSymPlan(m *Mat) *SymPlan {
	sp := &SymPlan{m: m}
	used := make([]bool, m.Rows)
	for i := 0; i < m.Rows; i++ {
		if used[i] {
			continue
		}
		partner := -1
		for j := i + 1; j < m.Rows && partner < 0; j++ {
			if used[j] {
				continue
			}
			if rowsSymmetric(m, i, j) {
				partner = j
			}
		}
		if partner >= 0 {
			sp.pairs = append(sp.pairs, [2]int{i, partner})
			used[i], used[partner] = true, true
		} else {
			sp.singles = append(sp.singles, i)
			used[i] = true
		}
	}
	sp.compile()
	return sp
}

// NewSinglesPlan returns the pairing-free plan of m: every row is a single,
// one chain in ascending column order with zero coefficients skipped, so
// it is bit-identical to a plain row-by-column float32 product.
func NewSinglesPlan(m *Mat) *SymPlan {
	sp := &SymPlan{m: m, singles: make([]int, m.Rows)}
	for i := range sp.singles {
		sp.singles[i] = i
	}
	sp.compile()
	return sp
}

// compile builds the plan's groups and ops: a pair's even chain holds row
// u's non-zero coefficients at even input rows and its odd chain those at
// odd input rows, a single's chain all of its row's non-zero coefficients,
// each in ascending input row. Zero coefficients are dropped here, so no
// lane tests them.
func (sp *SymPlan) compile() {
	m := sp.m
	chain := func(i, first, step int) int32 {
		n := len(sp.ops)
		for c := first; c < m.Cols; c += step {
			if cv := float32(m.At(i, c)); cv != 0 {
				sp.ops = append(sp.ops, panelOp{int32(c), cv})
			}
		}
		return int32(len(sp.ops) - n)
	}
	for _, pr := range sp.pairs {
		even := chain(pr[0], 0, 2)
		sp.groups = append(sp.groups, panelGroup{int32(pr[0]), int32(pr[1]), even, chain(pr[0], 1, 2)})
	}
	for _, i := range sp.singles {
		sp.groups = append(sp.groups, panelGroup{int32(i), -1, chain(i, 0, 1), 0})
	}
}

// Mat returns the matrix the plan evaluates.
func (sp *SymPlan) Mat() *Mat { return sp.m }

// rowsSymmetric reports whether rows i and j satisfy the Figure 8 pattern:
// equal at even columns, opposite at odd columns, with at least one
// non-zero element (all-zero pairs are pointless).
func rowsSymmetric(m *Mat, i, j int) bool {
	nonZero := false
	for c := 0; c < m.Cols; c++ {
		a, b := m.At(i, c), m.At(j, c)
		if c%2 == 0 {
			if a != b {
				return false
			}
		} else {
			if a != -b {
				return false
			}
		}
		if a != 0 {
			nonZero = true
		}
	}
	return nonZero
}

// Pairs returns how many row pairs share products.
func (sp *SymPlan) Pairs() int { return len(sp.pairs) }

// Mults returns the number of scalar multiplications one MulVec32
// evaluation performs (zero coefficients still count; the comparison
// target is the plain m.Rows·m.Cols).
func (sp *SymPlan) Mults() int {
	return (len(sp.pairs) + len(sp.singles)) * sp.m.Cols
}

// MulVec32 computes m·x with shared products across symmetric row pairs.
func (sp *SymPlan) MulVec32(x []float32) []float32 {
	m := sp.m
	if len(x) != m.Cols {
		panic("winograd: SymPlan.MulVec32 dimension mismatch")
	}
	y := make([]float32, m.Rows)
	for _, pr := range sp.pairs {
		u := pr[0]
		row := m.Data[u*m.Cols : (u+1)*m.Cols]
		var even, odd float32
		for c, v := range row {
			p := float32(float32(v) * x[c])
			if c%2 == 0 {
				even += p
			} else {
				odd += p
			}
		}
		y[pr[0]] = even + odd
		y[pr[1]] = even - odd
	}
	for _, i := range sp.singles {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float32
		for c, v := range row {
			s += float32(float32(v) * x[c])
		}
		y[i] = s
	}
	return y
}

// SavingsRatio returns multiplications used / plain multiplications — the
// paper's "nearly halves" metric (→ ~0.5 + 1/(2·pairs) as pairs dominate).
func (sp *SymPlan) SavingsRatio() float64 {
	plain := sp.m.Rows * sp.m.Cols
	return float64(sp.Mults()) / float64(plain)
}

// The plan cache keys on matrix identity: transforms are cached and
// read-only, so pointer identity is a safe key.
var (
	symPlanCacheMu sync.Mutex
	symPlanCache   = map[*Mat]*SymPlan{}
)

// SymG returns the shared-product plan for the transform's G matrix,
// cached and safe for concurrent use.
func (t *Transform) SymG() *SymPlan {
	symPlanCacheMu.Lock()
	defer symPlanCacheMu.Unlock()
	if sp, ok := symPlanCache[t.G]; ok {
		return sp
	}
	sp := NewSymPlan(t.G)
	symPlanCache[t.G] = sp
	return sp
}

// MaxPairableRows returns how many of the α rows can pair given the point
// sequence: with points {0, ±1, ±2, …} plus ∞, α−2 rows pair (all but the
// 0 row and the ∞ row) when α is even.
func MaxPairableRows(alpha int) int {
	if alpha < 4 {
		return 0
	}
	return int(2 * math.Floor(float64(alpha-2)/2))
}

// MulPanel computes out = m·in for a panel in laid out [m.Cols][width] and
// out [m.Rows][width], sharing even/odd products across symmetric row
// pairs — the panel form of the Figure 8 optimization used by the unit
// kernels' filter and input transforms. Every column runs its own chains:
// shared even/odd products accumulated in ascending input row with zero
// coefficients skipped, then the ±combine (one chain per single row). No
// column reads another, so one call at width k·w gives the bits of k calls
// at width w on the column blocks. On an AVX2 host the kernel produces the
// largest multiple of 8 columns from the compiled chains, and mulPanelGo
// the rest. in and out must not overlap.
func (sp *SymPlan) MulPanel(in, out []float32, rows, width int) {
	m := sp.m
	if rows != m.Cols {
		panic("winograd: MulPanel dimension mismatch")
	}
	lo := 0
	if n8 := width &^ 7; cpufeat.HasAVX2 && n8 > 0 {
		// The kernel checks no bounds; these slicings do.
		_ = in[:(rows-1)*width+n8]
		_ = out[:(m.Rows-1)*width+n8]
		mulPanelAVX2(&out[0], &in[0], sp.groups, sp.ops, width, n8)
		lo = n8
	}
	if lo < width {
		sp.mulPanelGo(in[lo:], out[lo:], width-lo, width)
	}
}

// mulPanelGo is MulPanel on the first n columns of panels whose rows lie
// stride floats apart: the portable path (n = stride = width), the AVX2
// kernel's tail (the panels sliced from its first column) and its oracle.
// It reads the matrix rows, not the compiled ops, so the two paths are
// independent encodings of one plan. Every product is rounded by an
// explicit float32 conversion, which keeps the compiler from fusing it
// into the sum on FMA targets.
func (sp *SymPlan) mulPanelGo(in, out []float32, n, stride int) {
	m := sp.m
	for _, pr := range sp.pairs {
		u := pr[0]
		row := m.Data[u*m.Cols : (u+1)*m.Cols]
		dstU := out[pr[0]*stride : pr[0]*stride+n : pr[0]*stride+n]
		dstV := out[pr[1]*stride : pr[1]*stride+n : pr[1]*stride+n]
		for x := range dstU {
			dstU[x] = 0
			dstV[x] = 0 // reused below as the odd accumulator
		}
		// Even columns feed dstU, odd columns dstV: two independent
		// accumulation chains, so one pass can carry an (even, odd) column
		// pair at a time — same per-chain ascending-column order, so the
		// bits match the one-column-at-a-time walk exactly, at twice the
		// instruction-level parallelism.
		c := 0
		for ; c+2 <= len(row); c += 2 {
			c0, c1 := float32(row[c]), float32(row[c+1])
			s0 := in[c*stride : c*stride+n : c*stride+n]
			switch {
			case c0 != 0 && c1 != 0:
				s1 := in[(c+1)*stride : (c+1)*stride+n : (c+1)*stride+n]
				dU, dV := dstU[:len(s0)], dstV[:len(s0)]
				s1 = s1[:len(s0)]
				for x, sv := range s0 {
					dU[x] += float32(c0 * sv)
					dV[x] += float32(c1 * s1[x])
				}
			case c0 != 0:
				for x, sv := range s0 {
					dstU[x] += float32(c0 * sv)
				}
			case c1 != 0:
				s1 := in[(c+1)*stride : (c+1)*stride+n : (c+1)*stride+n]
				for x, sv := range s1 {
					dstV[x] += float32(c1 * sv)
				}
			}
		}
		if c < len(row) {
			if cv := float32(row[c]); cv != 0 {
				for x, sv := range in[c*stride : c*stride+n] {
					dstU[x] += float32(cv * sv)
				}
			}
		}
		// dstU holds Σeven, dstV holds Σodd: combine in place.
		for x := range dstU {
			even, odd := dstU[x], dstV[x]
			dstU[x] = even + odd
			dstV[x] = even - odd
		}
	}
	for _, i := range sp.singles {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		dst := out[i*stride : i*stride+n : i*stride+n]
		for x := range dst {
			dst[x] = 0
		}
		// Single rows own one accumulator; a two-column pass keeps the
		// per-element operation sequence (column c, then c+1) identical to
		// the one-column walk, so the bits are unchanged.
		c := 0
		for ; c+2 <= len(row); c += 2 {
			c0, c1 := float32(row[c]), float32(row[c+1])
			switch {
			case c0 != 0 && c1 != 0:
				s0 := in[c*stride : c*stride+n : c*stride+n]
				s1 := in[(c+1)*stride : (c+1)*stride+n : (c+1)*stride+n]
				d := dst[:len(s0)]
				s1 = s1[:len(s0)]
				for x, sv := range s0 {
					d[x] += float32(c0 * sv)
					d[x] += float32(c1 * s1[x])
				}
			case c0 != 0:
				for x, sv := range in[c*stride : c*stride+n] {
					dst[x] += float32(c0 * sv)
				}
			case c1 != 0:
				for x, sv := range in[(c+1)*stride : (c+1)*stride+n] {
					dst[x] += float32(c1 * sv)
				}
			}
		}
		if c < len(row) {
			if cv := float32(row[c]); cv != 0 {
				for x, sv := range in[c*stride : c*stride+n] {
					dst[x] += float32(cv * sv)
				}
			}
		}
	}
}

// panelPlans caches the (G, Dᵀ) symmetric panel plans per matrix pair.
type panelPlans struct {
	G, DT *SymPlan
}

type panelPlanKey struct {
	g, d    *Mat
	singles bool
}

var (
	panelPlanCacheMu sync.Mutex
	panelPlanCache   = map[panelPlanKey]*panelPlans{}
)

// PanelPlansFor returns cached shared-product plans for a (G, D) matrix
// pair: the G plan applies the filter transform, the Dᵀ plan (built from
// the cached transpose) the input transform. The matrices must be the
// read-only cached instances (plain, balanced or scaled transforms), whose
// pointer identity keys the cache. Safe for concurrent use.
func PanelPlansFor(g, d *Mat) (gPlan, dtPlan *SymPlan) {
	return panelPlansFor(panelPlanKey{g: g, d: d}, NewSymPlan)
}

// SinglesPanelPlansFor is PanelPlansFor with pairing-free plans (see
// NewSinglesPlan), cached separately.
func SinglesPanelPlansFor(g, d *Mat) (gPlan, dtPlan *SymPlan) {
	return panelPlansFor(panelPlanKey{g: g, d: d, singles: true}, NewSinglesPlan)
}

func panelPlansFor(key panelPlanKey, build func(*Mat) *SymPlan) (gPlan, dtPlan *SymPlan) {
	panelPlanCacheMu.Lock()
	defer panelPlanCacheMu.Unlock()
	if pp, ok := panelPlanCache[key]; ok {
		return pp.G, pp.DT
	}
	pp := &panelPlans{G: build(key.g), DT: build(key.d.T())}
	panelPlanCache[key] = pp
	return pp.G, pp.DT
}

// PanelPlans returns the plans for the transform's own G and D matrices.
func (t *Transform) PanelPlans() (g, dt *SymPlan) {
	return PanelPlansFor(t.G, t.D)
}
