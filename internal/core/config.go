// Package core implements the WinRS algorithm — the paper's contribution.
//
// WinRS computes backward-filter convolution in three phases (paper §3):
//
//  1. Partitioning: ∇Y is divided into Z segments whose widths are
//     multiples of the selected kernels' unit widths r0/r1, and a workspace
//     of Z−1 extra ∇W-sized buckets is allocated.
//  2. Kernel execution: each segment runs a fully-fused Ω_α(n,r) kernel —
//     dimension reduction (rows of the segment become 1-D filters), filter
//     split (rows split into r-wide units), F(n,r) Winograd convolution
//     against the matching region of X, and accumulation into the
//     segment's bucket.
//  3. Reduction: the Z buckets are summed into ∇W with FP32 Kahan
//     summation.
//
// Configuration adaptation (paper §4) picks the fastest kernel pair for
// (F_W, O_W), estimates the baseline segment count from FC/BDC/BFC block
// counts (Algorithm 1), and derives the segment shape (Algorithm 2).
package core

import (
	"fmt"
	"math"

	"winrs/internal/conv"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// Hardware carries the device properties configuration adaptation needs.
// It deliberately stays smaller than gpusim.Device: Algorithm 1 only cares
// about how many block groups keep the machine busy.
type Hardware struct {
	// NSM is the streaming-multiprocessor count.
	NSM int
}

// DefaultHardware models the paper's primary device (RTX 4090, 128 SMs).
var DefaultHardware = Hardware{NSM: 128}

// Pair is the fastest kernel pair of §4.1: Fast handles the bulk of O_W in
// FastUnits units of width Fast.R; Resid covers the remainder in ResidUnits
// units of width Resid.R. When O_W is a multiple of Fast.R, ResidUnits is
// zero and Resid is the zero Kernel (not meaningful).
type Pair struct {
	Fast, Resid           winograd.Kernel
	FastUnits, ResidUnits int
}

// Coverage returns the O_W span of each sub-region.
func (pr Pair) Coverage() (fastW, residW int) {
	return pr.FastUnits * pr.Fast.R, pr.ResidUnits * pr.Resid.R
}

// WeightedCoeff is the selection objective: unit-width-weighted sum of the
// kernel throughput coefficients.
func (pr Pair) WeightedCoeff() float64 {
	fw, rw := pr.Coverage()
	total := fw + rw
	if total == 0 {
		return 0
	}
	return (float64(fw)*pr.Fast.Coeff + float64(rw)*pr.Resid.Coeff) / float64(total)
}

// String renders the pair in Ω-notation.
func (pr Pair) String() string {
	if pr.ResidUnits == 0 {
		return pr.Fast.String()
	}
	return fmt.Sprintf("%v+%v", pr.Fast, pr.Resid)
}

// SelectPair chooses the fastest kernel pair for the layer (paper §4.1):
// both kernels' n must divide F_W, the unit widths must tile O_W exactly
// (k0·r0 + k1·r1 = O_W with k0 maximal for the faster kernel), and the
// weighted throughput coefficient is maximized. With fp16 set, only the
// Tensor-Core-ported kernels are considered first; if they cannot tile
// O_W, the search falls back to the full registry (the FP32 kernels then
// run in emulated mixed precision).
func SelectPair(p conv.Params, fp16 bool) (Pair, error) {
	ow := p.OW()
	if ow < 1 {
		return Pair{}, fmt.Errorf("core: empty output width for %v", p)
	}
	if pr, ok := searchPair(p.FW, ow, fp16); ok {
		return pr, nil
	}
	if fp16 {
		if pr, ok := searchPair(p.FW, ow, false); ok {
			return pr, nil
		}
	}
	// No registry pair tiles O_W (e.g. odd O_W with only even unit widths
	// available): cover the bulk with the best registry kernel and the
	// untileable remainder with one direct-convolution unit.
	if pr, ok := fallbackPair(p.FW, ow, fp16); ok {
		return pr, nil
	}
	return Pair{}, fmt.Errorf("core: no kernel pair tiles F_W=%d, O_W=%d", p.FW, ow)
}

func fallbackPair(fw, ow int, fp16 bool) (Pair, bool) {
	var k0 winograd.Kernel
	found := false
	pick := func(fp16Only bool) {
		for _, k := range winograd.Kernels {
			if fw%k.N != 0 || k.R > ow {
				continue
			}
			if fp16Only && !k.FP16 {
				continue
			}
			if !found || k.Coeff > k0.Coeff {
				k0, found = k, true
			}
		}
	}
	if fp16 {
		pick(true)
	}
	if !found {
		pick(false)
	}
	if !found {
		// O_W smaller than every registry r: a single direct unit.
		if ow > 20 {
			return Pair{}, false
		}
		return Pair{Fast: winograd.DirectKernel(ow), FastUnits: 1}, true
	}
	a := ow / k0.R
	rem := ow % k0.R
	if rem == 0 {
		return Pair{Fast: k0, FastUnits: a}, true
	}
	return Pair{Fast: k0, FastUnits: a,
		Resid: winograd.DirectKernel(rem), ResidUnits: 1}, true
}

func searchPair(fw, ow int, fp16Only bool) (Pair, bool) {
	var best Pair
	found := false
	candidates := make([]winograd.Kernel, 0, len(winograd.Kernels))
	for _, k := range winograd.Kernels {
		if fw%k.N != 0 {
			continue
		}
		if fp16Only && !k.FP16 {
			continue
		}
		candidates = append(candidates, k)
	}
	for _, k0 := range candidates {
		for _, k1 := range candidates {
			// Maximize the fast kernel's share: the largest a with
			// a·r0 ≤ O_W and (O_W − a·r0) divisible by r1.
			for a := ow / k0.R; a >= 0; a-- {
				rem := ow - a*k0.R
				if rem%k1.R != 0 {
					continue
				}
				b := rem / k1.R
				if a == 0 && b == 0 {
					continue
				}
				pr := Pair{Fast: k0, Resid: k1, FastUnits: a, ResidUnits: b}
				if pr.FastUnits == 0 {
					// All coverage landed on the residual kernel; present
					// it as the fast kernel (ties otherwise depend on
					// registry order).
					pr = Pair{Fast: k1, FastUnits: b}
				}
				better := pr.WeightedCoeff() > best.WeightedCoeff() ||
					(pr.WeightedCoeff() == best.WeightedCoeff() &&
						pr.FastUnits*pr.Fast.R > best.FastUnits*best.Fast.R)
				if !found || better {
					best, found = pr, true
				}
				break // smaller a only lowers the weighted coefficient
			}
		}
	}
	return best, found
}

// BlocksPerSegment returns the block-group size of one Ω_α(n,r) segment
// launch: ⌈O_C/B_N⌉·⌈I_C/B_M⌉·(F_H·F_W/n) (paper §5.1).
func BlocksPerSegment(k winograd.Kernel, p conv.Params, fp16 bool) int {
	bn, bm := k.CacheBlock(fp16)
	return ceilDiv(p.OC, bn) * ceilDiv(p.IC, bm) * ceilDiv(p.FH*p.FW, k.N)
}

// convBlocks estimates the block count of a forward or backward-data
// convolution producing c channels over n·h·w outputs, with the reference
// F(2×2,3×3) kernel and a 64×32×8 cache block (the Figure 2 setup); the FC
// and BDC counts feed Algorithm 1 line 1.
func convBlocks(c, n, h, w int) int {
	return ceilDiv(c, 64) * ceilDiv(n*ceilDiv(h, 2)*ceilDiv(w, 2), 32)
}

// latencyBlocksPerSM mirrors the simulator's calibration: a kernel with
// computation intensity ρ needs about 24/ρ resident blocks per SM (clamped
// to [1,6]) to hide most memory latency.
func latencyBlocksPerSM(intensity float64) float64 {
	if intensity <= 0 {
		return 6
	}
	return math.Min(6, math.Max(1, 24/intensity))
}

// EstimateZ implements Algorithm 1: the baseline segment count balancing
// parallelism against partitioning overhead.
func EstimateZ(p conv.Params, pr Pair, hw Hardware, fp16 bool) int {
	dwBytes := tensor.Bytes32(p.DWShape())
	dataBytes := p.DataBytes32()
	if fp16 {
		dwBytes = tensor.Bytes16(p.DWShape())
		dataBytes = p.DataBytes16()
	}
	return algorithm1(zInputs{
		fc:        convBlocks(p.OC, p.N, p.OH(), p.OW()),
		bdc:       convBlocks(p.IC, p.N, p.IH, p.IW),
		bfc:       BlocksPerSegment(pr.Fast, p, fp16),
		intensity: pr.Fast.Intensity(fp16),
		dwBytes:   dwBytes, dataBytes: dataBytes,
		flops: p.FLOPs(), outputs: p.N * p.OH() * p.OW(),
	}, hw)
}

// zInputs are the layer figures Algorithm 1 reads: the FC, BDC and
// per-segment BFC block counts, the fast kernel's computation intensity,
// the ∇W and total data sizes, the direct-equivalent FLOPs and the output
// cell count. 2-D (EstimateZ) and 3-D (Configure3D) layers derive them
// from their own geometry and share the algorithm.
type zInputs struct {
	fc, bdc, bfc       int
	intensity          float64
	dwBytes, dataBytes int64
	flops              int64
	outputs            int
}

func algorithm1(in zInputs, hw Hardware) int {
	b2 := in.bfc

	// Line 1: initialize from the FC/BDC block budget.
	zHat := float64(in.fc+in.bdc) / (1.45 * float64(b2))

	// Line 2: thresholds from N_SM and data size.
	k := latencyBlocksPerSM(in.intensity)
	b2Full := k * float64(hw.NSM)                         // blocks for full utilization
	zMax := 1 + int(2*in.dataBytes/maxI64(1, in.dwBytes)) // workspace ≤ ~2× data
	if zMax > 128 {
		zMax = 128
	}

	// Line 3: one segment already saturates the device.
	if zHat < 2 && float64(b2) >= b2Full {
		return 1
	}

	// Line 4: beyond Z1 extra segments stop improving latency hiding.
	z1 := ceilDiv(int(2*b2Full), b2)

	// Line 5: keep per-segment work above a quantum so tiny workloads
	// don't fragment.
	const workQuantum = 1e9 // direct-equivalent FLOPs per segment
	z2 := int(math.Ceil(float64(in.flops) / workQuantum))

	// Line 6.
	z := int(zHat)
	if z < 1 {
		z = 1
	}
	z = minInt(z, z1, z2, in.outputs/512)
	if z < 1 {
		z = 1
	}

	// Line 7: pad to a GPU-friendly multiple of 2/4/8 and clamp.
	pp := 1 << bits(z)
	if pp > 8 {
		pp = 8
	}
	z = pp * ceilDiv(z, pp)
	if z > zMax {
		z = zMax
	}
	if z < 1 {
		z = 1
	}
	return z
}

// bits returns ⌈log2 z⌉ for z ≥ 1.
func bits(z int) int {
	b := 0
	for 1<<b < z {
		b++
	}
	return b
}

// SegmentShape implements Algorithm 2: the expected segment height and
// width for a target segment count ẑ. The returned width is a multiple of
// the fast kernel's r; the height is at least p_H+1 so no segment is
// swallowed by zero padding.
func SegmentShape(p conv.Params, pr Pair, zHat int) (sh, sw int) {
	oh, ow := p.OH(), p.OW()
	r0 := pr.Fast.R
	minSH := p.PH + 1
	if minSH > oh {
		minSH = oh
	}
	hMax := oh / minSH
	wMax := ceilDiv(ow, r0)

	clampSH := func(v int) int {
		if v < minSH {
			return minSH
		}
		if v > oh {
			return oh
		}
		return v
	}
	fullW := r0 * (ow / r0)
	if fullW == 0 {
		fullW = r0
	}

	// Line 1.
	if zHat > hMax*wMax {
		zHat = hMax * wMax
	}
	if zHat < 1 {
		zHat = 1
	}
	// Line 2: single segment spans everything.
	if zHat == 1 {
		return oh, fullW
	}
	// Line 3: more segments than width slots — minimum width, split rows.
	if zHat >= wMax {
		return clampSH(oh * ow / (zHat * r0)), r0
	}
	// Line 4: width slots divide evenly.
	if wMax%zHat == 0 {
		return oh, r0 * (wMax / zHat)
	}
	// Lines 5-6: smallest factor x of wMax with ⌊wMax/x⌋ ≤ ẑ ≤ hMax·⌊wMax/x⌋.
	lo := wMax / zHat
	if lo < 1 {
		lo = 1
	}
	hi := hMax * wMax / zHat
	for x := lo; x <= hi; x++ {
		if wMax%x == 0 {
			return clampSH(oh * ow / (zHat * x * r0)), x * r0
		}
	}
	// Line 7: fallback.
	return oh, fullW
}

// Segment is one partition of ∇Y: rows [Row0,Row1) × columns [Col0,Col1),
// executed by kernel K (Col1−Col0 is a multiple of K.R).
type Segment struct {
	Row0, Row1 int
	Col0, Col1 int
	K          winograd.Kernel
}

// Rows returns the segment height.
func (s Segment) Rows() int { return s.Row1 - s.Row0 }

// Cols returns the segment width.
func (s Segment) Cols() int { return s.Col1 - s.Col0 }

// Config is a fully-adapted WinRS execution plan for one layer, with the
// schedule every execution runs: its segments, their unit grid and the
// layout of the Ŵ cache. Every plan comes from newPlan, whatever the layer
// kind: ungrouped, grouped, depthwise, or the flattened 2-D geometry of a
// 3-D layer. A grouped plan's pair and segments are those of one group's
// channel slice (I_C/G inputs, O_C/G outputs), which fix the bits of every
// group; execution runs them on the whole layer. A Config is read-only and
// may be shared by any number of concurrent executions.
type Config struct {
	Params   conv.Params
	FP16     bool
	Pair     Pair
	ZTarget  int // Algorithm 1 baseline segment count
	SegH     int // Algorithm 2 expected segment height
	SegW     int // Algorithm 2 expected segment width
	Segments []Segment

	// Schedule tables, per segment: the prefixes of its global work units
	// (see unitOffsets), of its Ŵ-cache elements and of its global segment
	// rows, each with the total as its final entry.
	unitOff, whatOff, rowOff []int

	// ocBlock is the O_C block ob of a dense plan's units (see denseBlock).
	// Dense plans run G·F_H·B·(F_W/n) units per segment, B = ⌈(O_C/G)/ob⌉.
	ocBlock int

	// dwBlock is the channel block cb of a depthwise plan (I_C/G = O_C/G
	// = 1), 0 otherwise. Depthwise plans run channel-wide: one unit grid
	// over (segment, width tile, block of cb channels), and unitOff above
	// is that grid (see depthwise.go).
	dwBlock int

	// residMerged marks a plan whose residual units run inside its fast
	// units (see residMergeable): the residual segment schedules no units
	// of its own, and the plan owns no bucket and runs no phase 3.
	residMerged bool
}

// Units returns the number of work units one execution runs: the dense
// grid, whose segments run G·F_H·B·(F_W/n) units each (none for the
// residual segment of a merged plan), or the channel-wide grid of a
// depthwise plan.
func (c *Config) Units() int { return c.unitOff[len(c.unitOff)-1] }

// unitBlock returns the channel block of the plan's units: the O_C block
// ob of a dense plan, or the channel block cb of a depthwise one.
func (c *Config) unitBlock() int {
	if c.dwBlock > 0 {
		return c.dwBlock
	}
	return c.ocBlock
}

// Z returns the realized segment count.
func (c *Config) Z() int { return len(c.Segments) }

// Buckets returns the number of ∇W buckets the plan's units write: Z, or
// 1 for a merged plan, whose residual units fold their output into the
// rows their fast unit stored.
func (c *Config) Buckets() int {
	if c.residMerged {
		return 1
	}
	return c.Z()
}

// WorkspaceBytes returns the bucket workspace the plan executes with,
// (Buckets−1) × sizeof(∇W): the paper's (Z−1)·|∇W| on the buckets the
// host runs, where bucket 0 is the output buffer itself. Every plan's host
// arena holds exactly these buckets, since its segment-0 units store into
// the destination. Buckets are FP32 on both precision paths: accumulators
// and the Kahan reduction run in FP32 (paper §5.2). A grouped ∇W carries
// I_C/G channels per filter, so at equal Z a grouped plan's workspace is
// G× below the ungrouped layer's of the same outer geometry.
func (c *Config) WorkspaceBytes() int64 {
	return int64(c.Buckets()-1) * int64(c.Params.DWShape().Elems()) * 4
}

// WHatCacheBytes returns the exact footprint of the Ŵ cache — the
// gathered, filter-transformed ∇Y panels the execution computes once per
// (segment row, width tile, batch image) and reuses across all
// G·F_H·B·(F_W/n) units of a segment:
//
//	Σ_seg Rows(seg) · (Cols(seg)/r_seg) · N · α_seg · O_C  elements,
//
// at 4 bytes per element under every storage policy (rounded policies
// keep their rounded panels stored as float32 so units skip the per-use
// decode; see fillRow). Because α/r ≤ max_s(α_s/r_s)
// and Σ_seg Rows·Cols·N·O_C = |∇Y|, the cache is bounded by
// (max_s α_s/r_s)·sizeof(∇Y) regardless of Z — it rides the "tiny
// workspace" axis (≈3× |∇Y| for Ω₁₆(2,14), ≈2× for Ω₆(4,3)) and is not
// counted in WorkspaceBytes, which holds the Z-dependent buckets. A
// grouped plan fills one cache at width O_C for all its groups. Depthwise
// plans hold no cache: each channel-wide unit uses every Ŵ panel it
// computes at once, in all F_H filter rows.
func (c *Config) WHatCacheBytes() int64 {
	if c.dwBlock > 0 {
		return 0
	}
	return int64(c.whatOff[len(c.whatOff)-1]) * 4
}

// Option customizes Configure.
type Option func(*configOpts)

type configOpts struct {
	hw     Hardware
	fp16   bool
	forceZ int
}

// WithHardware overrides the device model used by Algorithm 1.
func WithHardware(hw Hardware) Option { return func(o *configOpts) { o.hw = hw } }

// WithFP16 selects the Tensor-Core (emulated binary16) path.
func WithFP16() Option { return func(o *configOpts) { o.fp16 = true } }

// WithSegments forces the segment count, bypassing Algorithm 1 — used by
// the segmentation ablation.
func WithSegments(z int) Option { return func(o *configOpts) { o.forceZ = z } }

// options applies opts over the defaults.
func options(opts []Option) configOpts {
	o := configOpts{hw: DefaultHardware}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// Configure runs the full adaptation pipeline of §4 and returns an
// executable plan. A grouped layer is adapted on one group's channel
// slice: pair selection, Algorithm 2 and the segment layout read only F_W,
// O_H, O_W and p_H, and Algorithm 1 reads the channel counts of one group.
func Configure(p conv.Params, opts ...Option) (*Config, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	o := options(opts)
	pr, err := SelectPair(p, o.fp16)
	if err != nil {
		if p.G() > 1 {
			err = fmt.Errorf("core: grouped plan (G=%d): %w", p.G(), err)
		}
		return nil, err
	}
	zHat := o.forceZ
	if zHat <= 0 {
		zHat = EstimateZ(oneGroup(p), pr, o.hw, o.fp16)
	}
	return newPlan(p, pr, zHat, o.fp16), nil
}

// oneGroup returns the geometry of one group's channel slice of p, I_C/G
// inputs and O_C/G outputs, ungrouped: p itself for an ungrouped layer.
func oneGroup(p conv.Params) conv.Params {
	p.IC, p.OC, p.Groups = p.ICG(), p.OCG(), 0
	return p
}

// residMergeForce, when nonzero, replaces the merge rule for every plan
// configured while it is set: positive merges every plan residMergeable
// admits, negative merges none. A test-only hook; production leaves it 0.
var residMergeForce int

// newPlan is the one plan builder behind Configure and Configure3D. On the
// plan geometry p it lays out the segments of Ẑ = zHat for pair pr
// (Algorithm 2) and builds the schedule every execution runs: the
// channel-wide unit grid of a depthwise plan, or the dense grid with its
// O_C block, whose residual units run inside its fast units where the
// merge rule takes the plan; then the Ŵ-cache and segment-row tables.
func newPlan(p conv.Params, pr Pair, zHat int, fp16 bool) *Config {
	sh, sw := SegmentShape(p, pr, zHat)
	segs := layoutSegments(p, pr, sh, sw)
	c := &Config{Params: p, FP16: fp16, Pair: pr, ZTarget: zHat, SegH: sh, SegW: sw, Segments: segs}
	if p.G() > 1 && p.ICG() == 1 && p.OCG() == 1 {
		c.dwBlock = channelBlock(p.IC, execPool().Workers())
		c.unitOff = unitOffsets(p.FW, ceilDiv(p.IC, c.dwBlock), segs)
	} else {
		c.ocBlock = denseBlock(p, segs)
		c.unitOff = unitOffsets(p.FW, p.G()*p.FH*ceilDiv(p.OCG(), c.ocBlock), segs)
		// The rule: merge where the O_C block split the fast segment.
		merge := c.ocBlock < p.OC
		if residMergeForce != 0 {
			merge = residMergeForce > 0
		}
		if merge && residMergeable(p, pr, segs) {
			c.residMerged = true
			c.unitOff[2] = c.unitOff[1] // the residual segment runs no units of its own
		}
	}
	c.whatOff = make([]int, len(segs)+1)
	c.rowOff = make([]int, len(segs)+1)
	for i, seg := range segs {
		c.whatOff[i+1] = c.whatOff[i] + seg.Rows()*(seg.Cols()/seg.K.R)*p.N*seg.K.Alpha*p.OC
		c.rowOff[i+1] = c.rowOff[i] + seg.Rows()
	}
	return c
}

// residMergeable reports whether the residual units of an ungrouped plan
// over segs can run inside its fast units: the plan realizes Z = 2 as one
// row chunk, the fast column [0, fastW) beside the residual column
// [fastW, O_W), and n_resid divides n_fast. Then the residual sub-units
// j′ = j·n_f/n_r … (j+1)·n_f/n_r − 1, at the same filter row and O_C
// block, write only ∇W columns of fast unit j: [j·n_f, (j+1)·n_f).
// newPlan merges such a plan when its O_C block split the fast segment:
// there the fast units are many enough that the longer units do not
// stretch the critical path. With only F_H fast units (the early VGG16
// layers on two workers) merging was measured slower. A grouped layer is
// never mergeable: no workload or test has a grouped plan whose O_C block
// splits.
func residMergeable(p conv.Params, pr Pair, segs []Segment) bool {
	// With a residual column, two segments are one fast and one residual
	// column of one row chunk (see layoutSegments).
	return p.G() == 1 && pr.ResidUnits > 0 && len(segs) == 2 && pr.Fast.N%pr.Resid.N == 0
}

// layoutSegments materializes the partition: the fast region [0, a·r0) is
// chunked into columns of width segW, the residual region [a·r0, O_W) forms
// one column for the residual kernel, and every column is chunked into rows
// of height segH (bottom rows absorb the remainder, per §4.3).
func layoutSegments(p conv.Params, pr Pair, segH, segW int) []Segment {
	oh, ow := p.OH(), p.OW()
	fastW, _ := pr.Coverage()

	type colSpan struct {
		c0, c1 int
		k      winograd.Kernel
	}
	var cols []colSpan
	for c := 0; c < fastW; c += segW {
		c1 := c + segW
		if fastW-c1 < segW { // absorb the remainder into the last column
			c1 = fastW
		}
		cols = append(cols, colSpan{c, c1, pr.Fast})
		if c1 == fastW {
			break
		}
	}
	if fastW < ow {
		cols = append(cols, colSpan{fastW, ow, pr.Resid})
	}

	rowChunks := oh / segH
	if rowChunks < 1 {
		rowChunks = 1
	}
	var segs []Segment
	for ri := 0; ri < rowChunks; ri++ {
		r0 := ri * segH
		r1 := r0 + segH
		if ri == rowChunks-1 {
			r1 = oh
		}
		for _, c := range cols {
			segs = append(segs, Segment{Row0: r0, Row1: r1, Col0: c.c0, Col1: c.c1, K: c.k})
		}
	}
	return segs
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func minInt(vs ...int) int {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
